//! Property-based invariants over the core data structures and the
//! compiler, on randomized inputs.

use newton::compiler::{compile, compile_sliced, stats_for, CompilerConfig, OptLevel};
use newton::packet::{
    Field, FieldVector, Packet, PacketBuilder, Protocol, SnapshotHeader, TcpFlags,
};
use newton::query::ast::{CmpOp, ReduceFunc};
use newton::query::QueryBuilder;
use newton::sketch::{BloomFilter, CountMinSketch};
use proptest::prelude::*;

fn arb_packet() -> impl Strategy<Value = newton::packet::Packet> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        prop_oneof![Just(Protocol::Tcp), Just(Protocol::Udp), Just(Protocol::Icmp)],
        any::<u8>(),
        64u16..1514,
    )
        .prop_map(|(sip, dip, sp, dp, proto, flags, len)| {
            let mut b = PacketBuilder::new()
                .src_ip(sip)
                .dst_ip(dip)
                .src_port(sp)
                .dst_port(dp)
                .protocol(proto)
                .wire_len(len);
            if proto == Protocol::Tcp {
                b = b.tcp_flags(TcpFlags::from_bits(flags & 0x3F));
            }
            b.build()
        })
}

proptest! {
    /// The field vector is a faithful, invertible packing of every field.
    #[test]
    fn field_vector_roundtrips(pkt in arb_packet()) {
        let v = FieldVector::from_packet(&pkt);
        prop_assert_eq!(v.get(Field::SrcIp), pkt.src_ip as u64);
        prop_assert_eq!(v.get(Field::DstIp), pkt.dst_ip as u64);
        prop_assert_eq!(v.get(Field::SrcPort), pkt.src_port as u64);
        prop_assert_eq!(v.get(Field::DstPort), pkt.dst_port as u64);
        prop_assert_eq!(v.get(Field::PktLen), pkt.wire_len as u64);
        prop_assert_eq!(v.get(Field::Proto), pkt.protocol.number() as u64);
        prop_assert_eq!(v.get(Field::TcpFlags), pkt.tcp_flags.bits() as u64);
    }

    /// Wire encode/decode is lossless, snapshot or not.
    #[test]
    fn frames_roundtrip(pkt in arb_packet(), with_sp in any::<bool>(), cursor in 0u8..5) {
        let sp = with_sp.then_some(SnapshotHeader {
            cursor,
            active_mask: 0b111,
            hash_result: 42,
            state_result: 7,
            global_result: 9,
        });
        let bytes = newton::packet::wire::encode(&pkt, sp.as_ref());
        let frame = newton::packet::wire::decode(&bytes).unwrap();
        prop_assert_eq!(frame.snapshot, sp);
        prop_assert_eq!(frame.packet.src_ip, pkt.src_ip);
        prop_assert_eq!(frame.packet.tcp_flags, pkt.tcp_flags);
        // Ports only exist on the wire for TCP/UDP.
        if matches!(pkt.protocol, Protocol::Tcp | Protocol::Udp) {
            prop_assert_eq!(frame.packet.dst_port, pkt.dst_port);
            prop_assert_eq!(frame.packet.src_port, pkt.src_port);
        } else {
            prop_assert_eq!(frame.packet.dst_port, 0);
        }
    }

    /// Count-Min never underestimates, for arbitrary key/count streams.
    #[test]
    fn cms_never_underestimates(
        stream in prop::collection::vec((0u128..64, 1u32..16), 1..300),
        width in 8u32..256,
        depth in 1usize..4,
    ) {
        let mut cm = CountMinSketch::new(depth, width, 0xFEED);
        let mut truth = std::collections::HashMap::new();
        for &(k, c) in &stream {
            cm.update(k, c);
            *truth.entry(k).or_insert(0u64) += c as u64;
        }
        for (&k, &t) in &truth {
            prop_assert!(cm.query(k) as u64 >= t);
        }
    }

    /// Bloom filters have no false negatives, for arbitrary insert sets.
    #[test]
    fn bloom_has_no_false_negatives(
        keys in prop::collection::hash_set(any::<u128>(), 1..200),
        bits in 64u32..4096,
        k in 1usize..5,
    ) {
        let mut bf = BloomFilter::new(k, bits, 3);
        for &key in &keys {
            bf.insert(key);
        }
        for &key in &keys {
            prop_assert!(bf.contains(key));
        }
    }

    /// Randomly-shaped single-branch queries always compile, pack without
    /// hazards, and slice within any budget.
    #[test]
    fn random_queries_compile_and_slice(
        proto in prop_oneof![Just(6u64), Just(17u64)],
        key in prop_oneof![Just(Field::SrcIp), Just(Field::DstIp)],
        use_distinct in any::<bool>(),
        threshold in 1u64..1000,
        budget in 2usize..8,
    ) {
        let mut b = QueryBuilder::new("random")
            .filter_eq(Field::Proto, proto)
            .map(&[key]);
        if use_distinct {
            b = b.distinct(&[key, Field::SrcPort]);
        }
        let q = b
            .reduce(&[key], ReduceFunc::Count)
            .result_filter(CmpOp::Ge, threshold)
            .build();

        let cfg = CompilerConfig::default();
        let c = compile(&q, 1, &cfg);
        prop_assert!(c.rules.module_rule_count() > 0);
        prop_assert!(c.composition.stages() <= c.composition.modules());

        let sliced = compile_sliced(&q, 1, &cfg, budget);
        for count in &sliced.slice_stage_counts {
            prop_assert!(*count <= budget);
        }
        // Optimization ladder is monotone for arbitrary queries too.
        let stats = stats_for(&q, &cfg);
        for w in stats.levels.windows(2) {
            prop_assert!(w[1].1 <= w[0].1);
            prop_assert!(w[1].2 <= w[0].2);
        }
        let _ = OptLevel::ladder();
    }

    /// Placement covers all path prefixes on random chain lengths/budgets.
    #[test]
    fn chain_placement_prefix_property(n in 2usize..8, budget in 1usize..6) {
        use newton::controller::place_query;
        use newton::net::Topology;
        let q = newton::query::catalog::q1_new_tcp();
        let rules = compile(&q, 1, &CompilerConfig::default()).rules;
        let topo = Topology::chain(n);
        let p = place_query(&rules, &topo, &[0], budget);
        for d in 0..p.slice_count.min(n) {
            prop_assert!(p.slices[d].contains(&d), "depth {d} missing slice {d}");
        }
    }
}

proptest! {
    /// The pcap reader never panics on arbitrary bytes — it errors.
    #[test]
    fn pcap_reader_is_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = newton::trace::pcap::read_pcap(&bytes[..]);
    }

    /// Valid pcap files with arbitrary packet mixes roundtrip.
    #[test]
    fn pcap_roundtrips_arbitrary_packets(packets in prop::collection::vec(arb_stream_packet(), 0..40)) {
        let mut buf = Vec::new();
        newton::trace::pcap::write_pcap(&mut buf, &packets).unwrap();
        let back = newton::trace::pcap::read_pcap(&buf[..]).unwrap();
        prop_assert_eq!(back.len(), packets.len());
        for (a, b) in packets.iter().zip(&back) {
            prop_assert_eq!(a.flow_key(), b.flow_key());
            prop_assert_eq!(a.tcp_flags, b.tcp_flags);
        }
    }
}

/// A single arbitrary packet (shared by the pcap roundtrip property).
fn arb_stream_packet() -> impl Strategy<Value = Packet> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<bool>(),
        any::<u8>(),
        64u16..1514,
    )
        .prop_map(|(s, d, sp, dp, tcp, flags, len)| {
            let mut b =
                PacketBuilder::new().src_ip(s).dst_ip(d).src_port(sp).dst_port(dp).wire_len(len);
            if tcp {
                b = b.tcp_flags(TcpFlags::from_bits(flags & 0x3F));
            } else {
                b = b.protocol(Protocol::Udp);
            }
            b.build()
        })
}

proptest! {
    /// Any query expressible in the textual grammar roundtrips through
    /// `to_text` → `parse_query` unchanged.
    #[test]
    fn query_text_roundtrips(
        proto in prop_oneof![Just(6u64), Just(17u64)],
        key in prop_oneof![Just(Field::SrcIp), Just(Field::DstIp), Just(Field::DstPort)],
        prefix_bits in 1u32..=32,
        use_distinct in any::<bool>(),
        func_sel in 0u8..3,
        threshold in 1u64..10_000,
        two_branches in any::<bool>(),
    ) {
        use newton::query::ast::FieldExpr;
        let fe = FieldExpr::prefix(key, prefix_bits.min(key.width()));
        let func = match func_sel {
            0 => ReduceFunc::Count,
            1 => ReduceFunc::SumField(Field::PktLen),
            _ => ReduceFunc::MaxField(Field::PktLen),
        };
        let mut b = QueryBuilder::new("t")
            .filter_eq(Field::Proto, proto)
            .map_exprs(vec![fe]);
        if use_distinct {
            b = b.distinct(&[key, Field::SrcPort]);
        }
        b = b.reduce_exprs(vec![fe], func).result_filter(CmpOp::Ge, threshold);
        let q = if two_branches {
            b.branch()
                .filter_eq(Field::Proto, if proto == 6 { 17 } else { 6 })
                .reduce(&[key], ReduceFunc::Count)
                .merge_combine(newton::query::ast::MergeOp::Min, CmpOp::Ge, threshold)
                .build()
        } else {
            b.build()
        };
        let text = newton::query::to_text(&q);
        let back = newton::query::parse_query("t", &text).map_err(|e| {
            TestCaseError::fail(format!("{e}\n{text}"))
        })?;
        prop_assert_eq!(back, q, "text was:\n{}", text);
    }
}
