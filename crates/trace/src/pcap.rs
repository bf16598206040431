//! libpcap import/export for synthetic traces.
//!
//! Traces written here open in Wireshark/tcpdump, which makes the
//! synthetic workloads inspectable with standard tooling and lets real
//! captures (converted to the classic pcap format) drive the simulator.
//! Format: the classic little-endian pcap file (magic `0xa1b2c3d4`,
//! version 2.4, LINKTYPE_ETHERNET), microsecond timestamps.

use newton_packet::wire;
use newton_packet::Packet;
use std::io::{self, Read, Write};

const MAGIC: u32 = 0xa1b2_c3d4;
const LINKTYPE_ETHERNET: u32 = 1;

/// Longest record [`read_pcap`] accepts: libpcap's maximum snap length.
pub const MAX_RECORD_LEN: u32 = 262_144;

/// Write packets as a pcap file. Frames are synthesized with
/// [`newton_packet::wire::encode`] (no snapshot header — pcap captures are
/// host-visible traffic).
pub fn write_pcap<W: Write>(mut w: W, packets: &[Packet]) -> io::Result<()> {
    // Global header.
    w.write_all(&MAGIC.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?; // major
    w.write_all(&4u16.to_le_bytes())?; // minor
    w.write_all(&0i32.to_le_bytes())?; // thiszone
    w.write_all(&0u32.to_le_bytes())?; // sigfigs
    w.write_all(&65_535u32.to_le_bytes())?; // snaplen
    w.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;

    for pkt in packets {
        let frame = wire::encode(pkt, None);
        let ts_sec = (pkt.ts_ns / 1_000_000_000) as u32;
        let ts_usec = ((pkt.ts_ns % 1_000_000_000) / 1_000) as u32;
        w.write_all(&ts_sec.to_le_bytes())?;
        w.write_all(&ts_usec.to_le_bytes())?;
        w.write_all(&(frame.len() as u32).to_le_bytes())?;
        w.write_all(&(frame.len() as u32).to_le_bytes())?;
        w.write_all(&frame)?;
    }
    Ok(())
}

/// Errors reading a pcap file.
#[derive(Debug)]
pub enum PcapError {
    Io(io::Error),
    /// Not a classic little-endian pcap file.
    BadMagic(u32),
    /// A frame failed to parse as Ethernet/IPv4/TCP-UDP.
    BadFrame(usize),
    /// Record `record` (counted from 0) claims `len` bytes, more than
    /// [`MAX_RECORD_LEN`]; refused before anything is allocated for it.
    RecordTooLong {
        record: usize,
        len: u32,
    },
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "io: {e}"),
            PcapError::BadMagic(m) => write!(f, "not a classic LE pcap (magic {m:#010x})"),
            PcapError::BadFrame(i) => write!(f, "frame {i} failed to parse"),
            PcapError::RecordTooLong { record, len } => {
                write!(f, "record {record} claims {len} bytes (limit {MAX_RECORD_LEN})")
            }
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

/// Read a classic little-endian pcap file back into packets. Frames that
/// do not parse as the simulator's supported formats are reported, not
/// skipped (garbage in should be loud).
pub fn read_pcap<R: Read>(mut r: R) -> Result<Vec<Packet>, PcapError> {
    let mut hdr = [0u8; 24];
    r.read_exact(&mut hdr)?;
    let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
    if magic != MAGIC {
        return Err(PcapError::BadMagic(magic));
    }

    let mut packets = Vec::new();
    let mut idx = 0usize;
    loop {
        let mut rec = [0u8; 16];
        match r.read_exact(&mut rec) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        let ts_sec = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]) as u64;
        let ts_usec = u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]) as u64;
        let incl = u32::from_le_bytes([rec[8], rec[9], rec[10], rec[11]]);
        if incl > MAX_RECORD_LEN {
            return Err(PcapError::RecordTooLong { record: idx, len: incl });
        }
        let mut frame = vec![0u8; incl as usize];
        r.read_exact(&mut frame)?;
        let mut pkt = wire::decode(&frame).map_err(|_| PcapError::BadFrame(idx))?.packet;
        pkt.ts_ns = ts_sec * 1_000_000_000 + ts_usec * 1_000;
        packets.push(pkt);
        idx += 1;
    }
    Ok(packets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::background::TraceConfig;
    use crate::trace::Trace;

    #[test]
    fn roundtrip_preserves_headers_and_timestamps() {
        let trace =
            Trace::background(&TraceConfig { packets: 500, flows: 40, ..Default::default() });
        let mut buf = Vec::new();
        write_pcap(&mut buf, trace.packets()).unwrap();
        let back = read_pcap(&buf[..]).unwrap();
        assert_eq!(back.len(), trace.packets().len());
        for (a, b) in trace.packets().iter().zip(&back) {
            assert_eq!(a.flow_key(), b.flow_key());
            assert_eq!(a.tcp_flags, b.tcp_flags);
            assert_eq!(a.protocol, b.protocol);
            // Timestamps roundtrip at microsecond precision.
            assert_eq!(a.ts_ns / 1_000, b.ts_ns / 1_000);
        }
    }

    #[test]
    fn file_header_is_classic_pcap() {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &[]).unwrap();
        assert_eq!(buf.len(), 24);
        assert_eq!(&buf[0..4], &0xa1b2_c3d4u32.to_le_bytes());
        assert_eq!(u32::from_le_bytes([buf[20], buf[21], buf[22], buf[23]]), 1, "ethernet");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let garbage = [0u8; 40];
        assert!(matches!(read_pcap(&garbage[..]), Err(PcapError::BadMagic(0))));
    }

    /// A pcap file holding one record of `incl_len` bytes, `frame` its body.
    fn one_record(incl_len: u32, frame: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &[]).unwrap();
        buf.extend_from_slice(&[0; 8]); // timestamp
        buf.extend_from_slice(&incl_len.to_le_bytes());
        buf.extend_from_slice(&incl_len.to_le_bytes());
        buf.extend_from_slice(frame);
        buf
    }

    #[test]
    fn oversized_record_is_rejected_before_reading_it() {
        let buf = one_record(1 << 30, &[0; 64]);
        assert!(matches!(
            read_pcap(&buf[..]),
            Err(PcapError::RecordTooLong { record: 0, len: 0x4000_0000 })
        ));
    }

    #[test]
    fn ip_total_length_overflowing_the_wire_length_is_a_bad_frame() {
        use newton_packet::{Ipv4Header, PacketBuilder};
        let mut frame = wire::encode(&PacketBuilder::new().build(), None);
        let ip = Ipv4Header { total_len: 0xFFFF, ..Ipv4Header::parse(&frame[14..]).unwrap() };
        let mut hdr = Vec::new();
        ip.write(&mut hdr);
        frame[14..14 + Ipv4Header::LEN].copy_from_slice(&hdr);
        let buf = one_record(frame.len() as u32, &frame);
        assert!(matches!(read_pcap(&buf[..]), Err(PcapError::BadFrame(0))));
    }

    #[test]
    fn truncated_record_is_an_io_error() {
        let trace = Trace::background(&TraceConfig { packets: 3, flows: 2, ..Default::default() });
        let mut buf = Vec::new();
        write_pcap(&mut buf, trace.packets()).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(matches!(read_pcap(&buf[..]), Err(PcapError::Io(_))));
    }
}
