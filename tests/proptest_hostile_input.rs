//! No byte sequence from a socket, intent text or pcap file may panic the
//! code that parses it.
//!
//! Each parser `newtond` and trace import expose to outside input runs on
//! two kinds of input: arbitrary bytes, and valid inputs (request lines,
//! catalog intents, encoded frames, pcap files) put through random
//! mutations. The mutations splice in grammar tokens, multi-byte
//! whitespace (U+00A0, U+2007, U+3000) and `\uD8xx`/`\uDCxx` escapes,
//! delete and overwrite spans, and rewrite IPv4 headers with a valid
//! checksum around edge-case lengths, so the structural checks that come
//! after the checksum are reached. A panic is caught and reported as a
//! failed case with its input. Where a parser's answer can be checked
//! cheaply (JSON `\u` escapes against UTF-16 decoding, a decoded frame's
//! length against its IPv4 header), the check runs too, so a wrapped
//! overflow in a release build fails as well.

use newton::packet::{wire, Ipv4Header, PacketBuilder, Protocol, SnapshotHeader, TcpFlags};
use newton::query::{catalog, parse_query, to_text, validate};
use newton::trace::pcap::{read_pcap, write_pcap, PcapError, MAX_RECORD_LEN};
use newtond::{json, proto};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `f`, turning a panic into a failed case that names `what`.
fn no_panic<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        TestCaseError::fail(format!("{what} panicked: {msg}"))
    })
}

/// Tokens the text mutations splice in.
#[rustfmt::skip]
const PIECES: &[&str] = &[
    " ", "\u{a0}", "\u{2007}", "\u{3000}", "\u{2028}", "\t", "\n", "\0", "é", "😀", "\u{fffd}",
    "\\ud800", "\\uD83D", "\\udc00", "\\ude00", "\\ud83d\\ude00", "\\u0041", "\\", "\"", "{",
    "}", "[", "]", ",", ":", "-", "0", "1e999", "4294967296", "null", "(", ")", "|", ";", "/",
    "0x", "==", ">=", "<", "merge", "min", "and", "count", "max(len)", "dip", "sip/8",
];

/// One edit: `(kind, position, argument)`, applied modulo the input.
type Mutation = (u8, u32, u32);

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    prop::collection::vec((0u8..5, any::<u32>(), any::<u32>()), 1..6)
}

/// Apply text edits (insert, delete, replace, repeat a span) on char
/// boundaries, so the result stays a `&str`.
fn mutate_text(seed: &str, muts: &[Mutation]) -> String {
    let mut chars: Vec<char> = seed.chars().collect();
    for &(kind, at, arg) in muts {
        let at = at as usize % (chars.len() + 1);
        let piece: Vec<char> = match kind {
            // Multi-byte whitespace, or a surrogate escape (high half
            // `\uD8xx`..`\uDBxx` or low half `\uDCxx`..`\uDFxx`), half
            // the time followed by an escape of any code unit.
            0 if arg & 0x1000 == 0 => vec![['\u{a0}', '\u{2007}', '\u{3000}'][arg as usize % 3]],
            0 => {
                let unit = 0xD800 | (arg & 0x7FF);
                let next = arg >> 16;
                if arg & 0x2000 == 0 {
                    format!("\\u{unit:04x}")
                } else {
                    format!("\\u{unit:04X}\\u{next:04x}")
                }
                .chars()
                .collect()
            }
            _ => PIECES[arg as usize % PIECES.len()].chars().collect(),
        };
        match kind {
            0 | 1 => {
                chars.splice(at..at, piece);
            }
            2 => {
                let end = (at + 1 + arg as usize % 8).min(chars.len());
                chars.drain(at..end);
            }
            3 if at < chars.len() => {
                chars.splice(at..at + 1, piece);
            }
            _ => {
                let end = (at + 1 + arg as usize % 16).min(chars.len());
                let span: Vec<char> = chars[at..end].to_vec();
                chars.splice(at..at, span);
            }
        }
    }
    chars.into_iter().collect()
}

/// Apply byte edits: overwrite, xor, insert, delete, truncate.
fn mutate_bytes(bytes: &mut Vec<u8>, muts: &[Mutation]) {
    for &(kind, at, arg) in muts {
        let at = at as usize % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] = arg as u8,
            1 if at < bytes.len() => bytes[at] ^= (arg as u8).max(1),
            2 => bytes.insert(at, arg as u8),
            3 => {
                let end = (at + 1 + arg as usize % 8).min(bytes.len());
                bytes.drain(at..end);
            }
            _ => bytes.truncate(at),
        }
    }
}

/// Either arbitrary text (bytes read lossily) or a mutated seed.
fn text_input(seeds: Vec<String>) -> impl Strategy<Value = String> {
    (any::<bool>(), prop::collection::vec(any::<u8>(), 0..96), any::<u32>(), mutations()).prop_map(
        move |(raw, bytes, pick, muts)| {
            if raw {
                String::from_utf8_lossy(&bytes).into_owned()
            } else {
                mutate_text(&seeds[pick as usize % seeds.len()], &muts)
            }
        },
    )
}

/// One request line per protocol op, plus JSON with every escape kind.
const REQUEST_LINES: &[&str] = &[
    r#"{"id":1,"op":"ping"}"#,
    r#"{"id":2,"op":"install","name":"q1","intent":"filter(proto == 6) | map(dip) | reduce(dip, count) | where >= 40"}"#,
    r#"{"id":3,"op":"update","query":1,"name":"q1","intent":"map(sip) | reduce(sip, max(len)) | where >= 1200"}"#,
    r#"{"id":4,"op":"remove","query":1}"#,
    r#"{"id":5,"op":"retune","query":1,"threshold":4294967295}"#,
    r#"{"id":6,"op":"list"}"#,
    r#"{"id":7,"op":"inject","event":"fail_link","a":0,"b":1}"#,
    r#"{"id":8,"op":"inject","event":"restore_switch","switch":3}"#,
    r#"{"id":9,"op":"run","segments":2,"seed":24301}"#,
    r#"{"id":10,"op":"metrics","format":"prometheus"}"#,
    r#"{"id":11,"op":"subscribe"}"#,
    r#"{"s":"a\"b\\c\né😀\/","n":[-0.5e-3,1E9,true,false,null,{}]}"#,
];

fn request_lines() -> Vec<String> {
    REQUEST_LINES.iter().map(|s| s.to_string()).collect()
}

/// A JSON array of number literals whose exponents run past both ends of
/// `f64`'s range.
fn number_line() -> impl Strategy<Value = String> {
    prop::collection::vec((any::<bool>(), any::<u16>(), 0u16..800), 1..4).prop_map(|nums| {
        let nums: Vec<String> = nums
            .iter()
            .map(|&(neg, digits, e)| {
                format!("{}{digits}e{}", if neg { "-" } else { "" }, i32::from(e) - 400)
            })
            .collect();
        format!("[{}]", nums.join(","))
    })
}

fn intents() -> Vec<String> {
    let mut texts: Vec<String> = catalog::all_queries().iter().map(to_text).collect();
    texts.push(
        "filter(dip/24 == 0xC0A801) | map(sip/16) | reduce(sip/16, count) | where >= 20".into(),
    );
    texts
}

/// A value near 0, near `u16::MAX`, or anywhere.
fn edge_u16() -> impl Strategy<Value = u16> {
    (0u8..3, any::<u16>()).prop_map(|(k, v)| match k {
        0 => v % 64,
        1 => u16::MAX - v % 64,
        _ => v,
    })
}

/// Overwrite the IPv4 header at `off` with `total_len` and a valid
/// checksum, keeping its other fields.
fn rewrite_ip_total_len(bytes: &mut [u8], off: usize, total_len: u16) {
    let Some(Ok(ip)) = bytes.get(off..).map(Ipv4Header::parse) else { return };
    let mut hdr = Vec::with_capacity(Ipv4Header::LEN);
    Ipv4Header { total_len, ..ip }.write(&mut hdr);
    bytes[off..off + Ipv4Header::LEN].copy_from_slice(&hdr);
}

fn arb_packet() -> impl Strategy<Value = newton::packet::Packet> {
    (any::<u32>(), any::<u16>(), any::<u16>(), 0u8..3, any::<u8>(), 0u16..1600).prop_map(
        |(ip, port, len, proto, flags, ts)| {
            let proto = [Protocol::Tcp, Protocol::Udp, Protocol::Icmp][proto as usize];
            let mut b = PacketBuilder::new()
                .src_ip(ip)
                .dst_ip(ip.rotate_left(7))
                .src_port(port)
                .dst_port(port.rotate_left(3))
                .protocol(proto)
                .wire_len(len % 1600)
                .ts_ns(u64::from(ts) * 1_000);
            if proto == Protocol::Tcp {
                b = b.tcp_flags(TcpFlags::from_bits(flags & 0x3F));
            }
            b.build()
        },
    )
}

/// An encoded frame (with or without an SP header) whose IPv4 length was
/// rewritten, then byte-mutated; or arbitrary bytes.
fn frame_input() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<bool>(),
        prop::collection::vec(any::<u8>(), 0..80),
        arb_packet(),
        any::<bool>(),
        edge_u16(),
        prop::collection::vec((0u8..5, any::<u32>(), any::<u32>()), 0..3),
    )
        .prop_map(|(raw, bytes, pkt, with_sp, total_len, muts)| {
            if raw {
                return bytes;
            }
            let sp = SnapshotHeader { cursor: 1, active_mask: 0b11, ..Default::default() };
            let mut frame = wire::encode(&pkt, with_sp.then_some(&sp));
            let off = if with_sp { 14 + newton::packet::SP_HEADER_LEN } else { 14 };
            rewrite_ip_total_len(&mut frame, off, total_len);
            mutate_bytes(&mut frame, &muts);
            frame
        })
}

/// A pcap file: arbitrary bytes behind a valid magic half the time, or a
/// written trace whose record lengths, IPv4 lengths and bytes were edited.
fn pcap_input() -> impl Strategy<Value = Vec<u8>> {
    (
        0u8..4,
        prop::collection::vec(any::<u8>(), 0..96),
        prop::collection::vec(arb_packet(), 1..4),
        (any::<u32>(), 0u8..4, any::<u32>()),
        edge_u16(),
        prop::collection::vec((0u8..5, any::<u32>(), any::<u32>()), 0..3),
    )
        .prop_map(|(kind, bytes, pkts, (rec, len_kind, len), total_len, muts)| {
            let mut file = Vec::new();
            write_pcap(&mut file, &pkts).unwrap();
            match kind {
                0 => return bytes,
                1 => {
                    file.truncate(24);
                    file.extend_from_slice(&bytes);
                    return file;
                }
                _ => {}
            }
            // Record `rec`'s header starts after the 24-byte file header
            // and the earlier records.
            let mut at = 24;
            for _ in 0..rec as usize % pkts.len() {
                let incl = u32::from_le_bytes(file[at + 8..at + 12].try_into().unwrap());
                at += 16 + incl as usize;
            }
            if kind == 2 {
                let incl = match len_kind {
                    0 => MAX_RECORD_LEN + len % 2,
                    1 => u32::MAX - len % 64,
                    2 => len % 128,
                    _ => len,
                };
                file[at + 8..at + 12].copy_from_slice(&incl.to_le_bytes());
            } else {
                rewrite_ip_total_len(&mut file, at + 16 + 14, total_len);
            }
            mutate_bytes(&mut file, &muts);
            file
        })
}

proptest! {
    /// `json::parse` answers every line without panicking.
    #[test]
    fn json_parse_never_panics(line in text_input(request_lines())) {
        no_panic("json::parse", || drop(json::parse(&line)))?;
    }

    /// Every value `json::parse` accepts renders to text that parses
    /// back equal, for request lines and for number literals beyond
    /// `f64`'s range (which must not parse as infinity).
    #[test]
    fn json_accepted_values_render_back_to_json(
        line in (any::<bool>(), text_input(request_lines()), number_line())
            .prop_map(|(numbers, text, nums)| if numbers { nums } else { text })
    ) {
        if let Ok(value) = no_panic("json::parse", || json::parse(&line))? {
            let text = value.to_string();
            prop_assert_eq!(json::parse(&text).ok(), Some(value), "{} rendered as {}", line, text);
        }
    }

    /// A string of `\uXXXX` escapes decodes exactly as UTF-16 does: a
    /// high surrogate needs a low half after it, and a lone half is an
    /// error.
    #[test]
    fn json_unicode_escapes_decode_like_utf16(
        units in prop::collection::vec(
            (0u8..3, any::<u16>()).prop_map(|(k, v)| match k {
                0 => 0xD800 | (v & 0x7FF),
                1 => v & 0x7F,
                _ => v,
            }),
            0..6,
        )
    ) {
        let line: String =
            std::iter::once("\"".to_string())
                .chain(units.iter().map(|u| format!("\\u{u:04x}")))
                .chain(std::iter::once("\"".to_string()))
                .collect();
        let got = no_panic("json::parse", || json::parse(&line))?;
        match String::from_utf16(&units) {
            Ok(s) => prop_assert_eq!(got.ok(), Some(json::Value::Str(s)), "{}", line),
            Err(_) => prop_assert!(got.is_err(), "{line} decoded to {got:?}"),
        }
    }

    /// `proto::parse_request` answers every line without panicking.
    #[test]
    fn parse_request_never_panics(line in text_input(request_lines())) {
        no_panic("proto::parse_request", || drop(proto::parse_request(&line)))?;
    }

    /// `parse_query` answers every text without panicking, and what it
    /// accepts `validate` checks without panicking.
    #[test]
    fn parse_query_and_validate_never_panic(text in text_input(intents())) {
        if let Ok(q) = no_panic("parse_query", || parse_query("fuzz", &text))? {
            no_panic("validate", || validate(&q))?;
        }
    }

    /// `wire::decode` answers every frame without panicking, and a frame
    /// it accepts is as long as its IPv4 header says.
    #[test]
    fn wire_decode_never_panics(bytes in frame_input()) {
        if let Ok(frame) = no_panic("wire::decode", || wire::decode(&bytes))? {
            let off = if frame.snapshot.is_some() { 14 + newton::packet::SP_HEADER_LEN } else { 14 };
            let total_len = u16::from_be_bytes([bytes[off + 2], bytes[off + 3]]);
            prop_assert_eq!(usize::from(frame.packet.wire_len), 14 + usize::from(total_len));
        }
    }

    /// `read_pcap` answers every file without panicking, and refuses a
    /// record longer than the snap-length bound before reading it.
    #[test]
    fn read_pcap_never_panics(file in pcap_input()) {
        let got = no_panic("read_pcap", || read_pcap(&file[..]))?;
        if let Err(PcapError::RecordTooLong { len, .. }) = got {
            prop_assert!(len > MAX_RECORD_LEN);
        }
        let first_len = (file.len() >= 40 && file[..4] == 0xa1b2_c3d4u32.to_le_bytes())
            .then(|| u32::from_le_bytes([file[32], file[33], file[34], file[35]]));
        if first_len.is_some_and(|len| len > MAX_RECORD_LEN) {
            prop_assert!(matches!(got, Err(PcapError::RecordTooLong { record: 0, .. })), "{got:?}");
        }
    }
}
