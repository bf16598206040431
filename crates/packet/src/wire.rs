//! Byte-accurate frame encode/decode, including the SP header.
//!
//! This module proves that the simulator's [`Packet`] + [`SnapshotHeader`]
//! compose with real wire formats: a frame can be emitted as bytes and
//! re-parsed losslessly, with the SP header inserted between Ethernet and
//! IPv4 exactly the way the paper's redesigned parser expects (a dedicated
//! EtherType, [`ETHERTYPE_NEWTON_SP`], announces the 12-byte header, whose
//! presence is transparent to IPv4 below it).

use crate::headers::{
    EthernetHeader, Ipv4Header, ParseError, TcpHeader, UdpHeader, ETHERTYPE_IPV4,
    ETHERTYPE_NEWTON_SP,
};
use crate::packet::{Packet, Protocol, TcpFlags};
use crate::snapshot::{SnapshotHeader, SP_HEADER_LEN};

/// A decoded frame: the parsed packet plus an optional in-flight snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub packet: Packet,
    pub snapshot: Option<SnapshotHeader>,
}

/// Errors from frame decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    Header(ParseError),
    Snapshot(crate::snapshot::SnapshotError),
    /// EtherType is neither IPv4 nor Newton-SP.
    UnsupportedEthertype(u16),
    /// The inner ethertype after an SP header must be IPv4.
    BadInnerProtocol,
}

impl From<ParseError> for FrameError {
    fn from(e: ParseError) -> Self {
        FrameError::Header(e)
    }
}

impl From<crate::snapshot::SnapshotError> for FrameError {
    fn from(e: crate::snapshot::SnapshotError) -> Self {
        FrameError::Snapshot(e)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Header(e) => write!(f, "header: {e}"),
            FrameError::Snapshot(e) => write!(f, "snapshot: {e}"),
            FrameError::UnsupportedEthertype(t) => write!(f, "unsupported ethertype {t:#06x}"),
            FrameError::BadInnerProtocol => f.write_str("SP header not followed by IPv4"),
        }
    }
}

impl std::error::Error for FrameError {}

const DUMMY_MAC_SRC: [u8; 6] = [0x02, 0, 0, 0, 0, 0x01];
const DUMMY_MAC_DST: [u8; 6] = [0x02, 0, 0, 0, 0, 0x02];

/// Encode a packet (and optional snapshot) to wire bytes.
///
/// The payload is zero-filled so the frame's on-wire length matches
/// `packet.wire_len` (plus [`SP_HEADER_LEN`] if a snapshot rides along,
/// mirroring the real bandwidth cost of CQE).
pub fn encode(packet: &Packet, snapshot: Option<&SnapshotHeader>) -> Vec<u8> {
    let mut out = Vec::with_capacity(packet.wire_len as usize + SP_HEADER_LEN);
    let eth = EthernetHeader {
        dst_mac: DUMMY_MAC_DST,
        src_mac: DUMMY_MAC_SRC,
        ethertype: if snapshot.is_some() { ETHERTYPE_NEWTON_SP } else { ETHERTYPE_IPV4 },
    };
    eth.write(&mut out);
    if let Some(sp) = snapshot {
        out.extend_from_slice(&sp.encode());
    }

    let l4_len = match packet.protocol {
        Protocol::Tcp => TcpHeader::LEN,
        Protocol::Udp => UdpHeader::LEN,
        _ => 0,
    };
    let ip_payload = (packet.wire_len as usize)
        .saturating_sub(EthernetHeader::LEN)
        .max(Ipv4Header::LEN + l4_len);
    let ip = Ipv4Header {
        total_len: ip_payload as u16,
        identification: (packet.ts_ns & 0xFFFF) as u16,
        ttl: packet.ttl,
        protocol: packet.protocol.number(),
        src: packet.src_ip,
        dst: packet.dst_ip,
    };
    ip.write(&mut out);

    match packet.protocol {
        Protocol::Tcp => {
            TcpHeader {
                src_port: packet.src_port,
                dst_port: packet.dst_port,
                seq: 0,
                ack: 0,
                flags: packet.tcp_flags.bits(),
                window: 0xFFFF,
            }
            .write(&mut out);
        }
        Protocol::Udp => {
            UdpHeader {
                src_port: packet.src_port,
                dst_port: packet.dst_port,
                length: (ip_payload - Ipv4Header::LEN) as u16,
            }
            .write(&mut out);
        }
        _ => {}
    }

    let body = ip_payload - Ipv4Header::LEN - l4_len;
    out.resize(out.len() + body, 0);
    out
}

/// Decode wire bytes back to a [`Frame`].
///
/// The timestamp cannot be recovered from the wire (it is trace metadata);
/// it is set to 0.
pub fn decode(buf: &[u8]) -> Result<Frame, FrameError> {
    let eth = EthernetHeader::parse(buf)?;
    let mut off = EthernetHeader::LEN;

    let snapshot = match eth.ethertype {
        ETHERTYPE_IPV4 => None,
        ETHERTYPE_NEWTON_SP => {
            let sp = SnapshotHeader::decode(&buf[off..])?;
            off += SP_HEADER_LEN;
            Some(sp)
        }
        other => return Err(FrameError::UnsupportedEthertype(other)),
    };

    let ip = Ipv4Header::parse(&buf[off..])?;
    off += Ipv4Header::LEN;

    let protocol = Protocol::from_number(ip.protocol);
    let (src_port, dst_port, flags) = match protocol {
        Protocol::Tcp => {
            let t = TcpHeader::parse(&buf[off..])?;
            (t.src_port, t.dst_port, TcpFlags::from_bits(t.flags))
        }
        Protocol::Udp => {
            let u = UdpHeader::parse(&buf[off..])?;
            (u.src_port, u.dst_port, TcpFlags::NONE)
        }
        _ => (0, 0, TcpFlags::NONE),
    };
    let wire_len = ip
        .total_len
        .checked_add(EthernetHeader::LEN as u16)
        .ok_or(ParseError::Malformed("IPv4 total length overflows the frame length"))?;

    Ok(Frame {
        packet: Packet {
            src_ip: ip.src,
            dst_ip: ip.dst,
            src_port,
            dst_port,
            protocol,
            tcp_flags: flags,
            wire_len,
            ttl: ip.ttl,
            ts_ns: 0,
        },
        snapshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;

    #[test]
    fn tcp_frame_roundtrip() {
        let pkt = PacketBuilder::new()
            .tcp_flags(TcpFlags::SYN)
            .src_port(5555)
            .dst_port(80)
            .wire_len(120)
            .build();
        let bytes = encode(&pkt, None);
        assert_eq!(bytes.len(), 120);
        let frame = decode(&bytes).unwrap();
        assert_eq!(frame.snapshot, None);
        assert_eq!(frame.packet.src_port, 5555);
        assert_eq!(frame.packet.tcp_flags, TcpFlags::SYN);
        assert_eq!(frame.packet.wire_len, 120);
    }

    #[test]
    fn udp_frame_roundtrip() {
        let pkt = PacketBuilder::new().protocol(Protocol::Udp).dst_port(53).wire_len(90).build();
        let frame = decode(&encode(&pkt, None)).unwrap();
        assert_eq!(frame.packet.protocol, Protocol::Udp);
        assert_eq!(frame.packet.dst_port, 53);
    }

    #[test]
    fn snapshot_rides_between_ethernet_and_ip() {
        let pkt = PacketBuilder::new().wire_len(100).build();
        let sp = SnapshotHeader {
            cursor: 1,
            active_mask: 0b11,
            hash_result: 77,
            state_result: 9,
            global_result: 3,
        };
        let bytes = encode(&pkt, Some(&sp));
        // The SP header costs exactly 12 extra wire bytes.
        assert_eq!(bytes.len(), 100 + SP_HEADER_LEN);
        let frame = decode(&bytes).unwrap();
        assert_eq!(frame.snapshot, Some(sp));
        assert_eq!(frame.packet.src_ip, pkt.src_ip);
    }

    #[test]
    fn stripping_snapshot_restores_original_length() {
        let pkt = PacketBuilder::new().wire_len(1500).build();
        let with_sp = encode(&pkt, Some(&SnapshotHeader::default()));
        let frame = decode(&with_sp).unwrap();
        let stripped = encode(&frame.packet, None);
        assert_eq!(stripped.len(), 1500);
    }

    #[test]
    fn unknown_ethertype_rejected() {
        let pkt = PacketBuilder::new().build();
        let mut bytes = encode(&pkt, None);
        bytes[12] = 0x86;
        bytes[13] = 0xDD; // IPv6
        assert!(matches!(decode(&bytes), Err(FrameError::UnsupportedEthertype(0x86DD))));
    }

    #[test]
    fn ip_total_length_past_the_frame_length_field_is_an_error() {
        let with_total_len = |total_len| {
            let mut bytes = encode(&PacketBuilder::new().build(), None);
            let ip = Ipv4Header { total_len, ..Ipv4Header::parse(&bytes[14..]).unwrap() };
            let mut hdr = Vec::new();
            ip.write(&mut hdr);
            bytes[14..14 + Ipv4Header::LEN].copy_from_slice(&hdr);
            bytes
        };
        assert_eq!(decode(&with_total_len(65_521)).unwrap().packet.wire_len, u16::MAX);
        assert!(matches!(
            decode(&with_total_len(0xFFFF)),
            Err(FrameError::Header(ParseError::Malformed(_)))
        ));
    }

    #[test]
    fn minimum_frames_never_underflow() {
        // wire_len smaller than headers: encoder clamps, decoder still parses.
        let pkt = PacketBuilder::new().wire_len(10).build();
        let bytes = encode(&pkt, None);
        let frame = decode(&bytes).unwrap();
        assert_eq!(frame.packet.src_ip, pkt.src_ip);
    }
}
