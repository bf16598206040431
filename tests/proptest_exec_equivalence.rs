//! Old-vs-new equivalence: the compiled [`ExecPlan`] packet path and the
//! batched delivery API must be bit-identical to the seed semantics.
//!
//! Properties over random queries, topologies and traces:
//!
//! 1. `Switch::process` (compiled plan) ≡ `Switch::process_reference`
//!    (per-packet dispatch rebuild + per-stage PHV clone), for whole and
//!    CQE-sliced queries: same reports, same snapshot headers, same
//!    register state. Whole queries are random single-branch specs or
//!    Q1–Q9 catalog queries (multi-branch merges, multi-rule ℝ ops) at
//!    drawn thresholds, on the compact or the naive layout, with removals,
//!    threshold-variant re-installs and in-place retunes between packets.
//!    `debug::trace_packet`, which runs the reference walk, counts the
//!    same reports per query as `process` emits.
//! 2. `Network::deliver_batch` ≡ per-packet `Network::deliver`, for whole
//!    and CQE-sliced installs: same reports, same snapshot bytes, same
//!    per-link load counters — also on a second batch through the same,
//!    now stateful, networks and reused scratch buffers.
//!    `Network::deliver_batch_parallel`, the thread-count entry point of
//!    the benchmark harness, ≡ `Network::deliver_batch` at 1, 2, 4 and 8
//!    threads.
//! 3. The full system loop is deterministic: two fresh runs of the same
//!    input, with and without mid-trace dynamics, report identically.
//!    Delivery is single-threaded; the tests named for thread counts pin
//!    this run-to-run determinism.

use newton::compiler::{
    compile, compile_sliced, compose_naive_executable, decompose_query, generate_rules,
    retarget_to_naive, CompilerConfig,
};
use newton::dataplane::debug::trace_packet;
use newton::dataplane::{
    LayoutKind, PipelineConfig, RAction, RMatch, RRule, RuleSet, SliceInfo, Switch,
};
use newton::net::{Network, NodeId, Topology};
use newton::packet::Field;
use newton::packet::{Packet, PacketBuilder, Protocol, TcpFlags};
use newton::query::ast::{CmpOp, Primitive, Query, ReduceFunc};
use newton::query::{catalog, QueryBuilder};
use proptest::prelude::*;

/// Packets from a small universe so counts actually accumulate.
fn arb_stream() -> impl Strategy<Value = Vec<Packet>> {
    prop::collection::vec(
        (
            0u32..6,
            0u32..6,
            0u16..8,
            0u16..4,
            any::<bool>(),
            prop_oneof![Just(0u8), Just(0x02), Just(0x10), Just(0x11), Just(0x12)],
            64u16..512,
        )
            .prop_map(|(s, d, sp, dp, tcp, flags, len)| {
                let mut b = PacketBuilder::new()
                    .src_ip(0x0A00_0000 + s)
                    .dst_ip(0xAC10_0000 + d)
                    .src_port(1000 + sp)
                    .dst_port(if dp == 0 { 80 } else { 8000 + dp })
                    .wire_len(len);
                if tcp {
                    b = b.protocol(Protocol::Tcp).tcp_flags(TcpFlags::from_bits(flags));
                } else {
                    b = b.protocol(Protocol::Udp);
                }
                b.build()
            }),
        20..300,
    )
}

#[derive(Debug, Clone)]
struct QuerySpec {
    filter_tcp: bool,
    key: Field,
    distinct: bool,
    sum_len: bool,
    threshold: u64,
}

fn arb_query() -> impl Strategy<Value = QuerySpec> {
    (
        any::<bool>(),
        prop_oneof![Just(Field::SrcIp), Just(Field::DstIp), Just(Field::DstPort)],
        any::<bool>(),
        any::<bool>(),
        1u64..25,
    )
        .prop_map(|(filter_tcp, key, distinct, sum_len, threshold)| QuerySpec {
            filter_tcp,
            key,
            distinct,
            sum_len,
            threshold,
        })
}

fn build(spec: &QuerySpec, name: &str) -> Query {
    let mut b = QueryBuilder::new(name);
    if spec.filter_tcp {
        b = b.filter_eq(Field::Proto, 6);
    }
    b = b.map(&[spec.key]);
    if spec.distinct {
        b = b.distinct(&[spec.key, Field::SrcPort]);
    }
    let (func, threshold) = if spec.sum_len {
        (ReduceFunc::SumField(Field::PktLen), spec.threshold * 200)
    } else {
        (ReduceFunc::Count, spec.threshold)
    };
    b.reduce(&[spec.key], func).result_filter(CmpOp::Ge, threshold).build()
}

/// A query for the whole-switch property: a random single-branch spec,
/// or catalog query Q1–Q9 with every report threshold set to `threshold`.
#[derive(Debug, Clone)]
enum Pick {
    Spec(QuerySpec),
    Catalog { index: usize, threshold: u64 },
}

fn arb_pick() -> impl Strategy<Value = Pick> {
    (any::<bool>(), arb_query(), 0usize..9, 1u64..25).prop_map(
        |(from_catalog, spec, index, threshold)| {
            if from_catalog {
                Pick::Catalog { index, threshold }
            } else {
                Pick::Spec(spec)
            }
        },
    )
}

impl Pick {
    fn query(&self) -> Query {
        match self {
            Pick::Spec(spec) => build(spec, "prop"),
            Pick::Catalog { index, threshold } => {
                let mut q = catalog::all_queries().swap_remove(*index);
                for p in q.branches.iter_mut().flat_map(|b| &mut b.primitives) {
                    if let Primitive::ResultFilter { value, .. } = p {
                        *value = *threshold;
                    }
                }
                q
            }
        }
    }

    /// The same query structure at another report threshold.
    fn with_threshold(&self, threshold: u64) -> Pick {
        match self {
            Pick::Spec(spec) => Pick::Spec(QuerySpec { threshold, ..spec.clone() }),
            Pick::Catalog { index, .. } => Pick::Catalog { index: *index, threshold },
        }
    }
}

/// Stages of the naive-layout switch: the longest catalog query burns 28
/// (one module per stage).
const NAIVE_STAGES: usize = 32;

/// `query`'s rules for a switch of `layout`: compiled whole for the
/// compact layout; for the naive one composed one module per stage and
/// retargeted to slot 0, as `tests/naive_layout.rs` builds them.
fn rules_for(query: &Query, id: u32, layout: LayoutKind) -> RuleSet {
    match layout {
        LayoutKind::Compact => compile(query, id, &compiler_cfg()).rules,
        LayoutKind::Naive => {
            let decomp = decompose_query(query, &compiler_cfg());
            let naive = compose_naive_executable(query, &decomp);
            retarget_to_naive(&generate_rules(query, id, &decomp, &naive, &compiler_cfg()).0)
        }
    }
}

/// Rewrite every reporting ℝ rule to report from `threshold`, keeping its
/// window width, the way `Controller::retune_threshold` does.
fn retune_to(threshold: u32) -> impl FnMut(&mut RRule) {
    move |rule| {
        if !rule.actions.contains(&RAction::Report) {
            return;
        }
        let on_global = rule.global_match != RMatch::ANY;
        let old = if on_global { rule.global_match } else { rule.state_match };
        let new =
            RMatch { lo: threshold, hi: threshold.saturating_add(old.hi.saturating_sub(old.lo)) };
        if on_global {
            rule.global_match = new;
        } else {
            rule.state_match = new;
        }
    }
}

const BIG_REGS: usize = 1 << 20;

fn pipeline() -> PipelineConfig {
    PipelineConfig { registers_per_array: BIG_REGS, ..Default::default() }
}

fn compiler_cfg() -> CompilerConfig {
    CompilerConfig { registers_per_array: BIG_REGS as u32, ..Default::default() }
}

/// Assert both switches expose identical 𝕊 register state at the rule
/// addresses of `rules`, sampling a spread of indices.
fn assert_registers_eq(planned: &Switch, reference: &Switch, rules: &newton::dataplane::RuleSet) {
    for (addr, _) in &rules.s {
        for idx in (0..BIG_REGS).step_by(BIG_REGS / 64) {
            assert_eq!(
                planned.read_register(*addr, idx),
                reference.read_register(*addr, idx),
                "register {addr:?}[{idx}] diverged"
            );
        }
    }
}

fn delivery_topology(topo_pick: usize) -> Topology {
    match topo_pick {
        0 => Topology::chain(3),
        1 => Topology::chain(5),
        _ => Topology::fat_tree(4),
    }
}

/// A fresh network for the delivery properties, deterministic in its
/// arguments. With `slice_first`, the first query is CQE-sliced over the
/// edge switches (when it cuts into 2..=edges slices) so snapshot headers
/// must flow between hops; the remaining queries install whole, spread
/// over the edge switches.
fn delivery_network(specs: &[QuerySpec], topo_pick: usize, slice_first: bool) -> Network {
    let mut net = Network::new(delivery_topology(topo_pick), pipeline());
    let edges = net.topology().edge_switches().to_vec();
    let sliced = slice_first
        .then(|| compile_sliced(&build(&specs[0], "prop"), 1, &compiler_cfg(), 3))
        .filter(|s| (2..=edges.len()).contains(&s.slice_count()));
    let mut next_id = 1u32;
    if let Some(s) = &sliced {
        let n = s.slice_count();
        for (i, &edge) in edges.iter().enumerate().take(n) {
            let info = SliceInfo {
                index: i as u8,
                total: n as u8,
                capture_set: s.capture_sets[i],
                restore_set: if i == 0 { s.capture_sets[0] } else { s.capture_sets[i - 1] },
                stages: (0, 12),
            };
            net.switch_mut(edge).install(&s.slices[i]).unwrap();
            net.switch_mut(edge).set_slice(1, info).unwrap();
        }
        next_id = 2;
    }
    for (i, spec) in specs.iter().enumerate().skip(usize::from(sliced.is_some())) {
        let compiled = compile(&build(spec, "prop"), next_id, &compiler_cfg());
        next_id += 1;
        net.switch_mut(edges[i % edges.len()]).install(&compiled.rules).unwrap();
    }
    net
}

/// `stream` with pseudo-random ingress and egress edge switches.
fn delivery_triples(
    stream: &[Packet],
    topo_pick: usize,
    endpoint_seed: u64,
) -> Vec<(&Packet, NodeId, NodeId)> {
    let topo = delivery_topology(topo_pick);
    let edges = topo.edge_switches();
    let pick = |i: usize, salt: u64| {
        edges[((endpoint_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + salt))
            % edges.len() as u64) as usize]
    };
    stream.iter().enumerate().map(|(i, p)| (p, pick(i, 1), pick(i, 2))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn planned_process_matches_reference_whole(
        picks in prop::collection::vec(arb_pick(), 1..3),
        naive in any::<bool>(),
        churn in prop::collection::vec((0usize..300, 0usize..8, 0u8..3, 1u64..25), 0..6),
        stream in arb_stream(),
    ) {
        let (layout, stages) =
            if naive { (LayoutKind::Naive, NAIVE_STAGES) } else { (LayoutKind::Compact, 12) };
        let config = PipelineConfig { layout, stages, ..pipeline() };
        let mut planned = Switch::new(config);
        let mut reference = Switch::new(config);
        let mut live = Vec::new();
        let mut next_id = 1u32;
        let mut install = |pick: Pick, planned: &mut Switch, reference: &mut Switch| {
            let id = next_id;
            next_id += 1;
            let rules = rules_for(&pick.query(), id, layout);
            planned.install(&rules).unwrap();
            reference.install(&rules).unwrap();
            (id, pick, rules)
        };
        for pick in &picks {
            live.push(install(pick.clone(), &mut planned, &mut reference));
        }
        // Churn between packets, at drawn packet positions. A removal
        // compacts the tables under the queries installed after it; a
        // re-install appends a threshold variant under a fresh id; a
        // retune rewrites a query's reporting ℝ rules in place. The plan
        // must follow all three.
        let mut churn = churn;
        churn.sort_by_key(|&(at, ..)| at);
        let mut churn = churn.into_iter().peekable();
        for (i, pkt) in stream.iter().enumerate() {
            while let Some((_, pick, op, threshold)) = churn.next_if(|&(at, ..)| at <= i) {
                if live.is_empty() {
                    continue;
                }
                let at = pick % live.len();
                if op == 2 {
                    let id = live[at].0;
                    let a = planned.update_r_rules(id, &mut retune_to(threshold as u32));
                    let b = reference.update_r_rules(id, &mut retune_to(threshold as u32));
                    prop_assert_eq!(a, b, "retune of query {} touched different rules", id);
                    continue;
                }
                let (id, pick, _) = live.remove(at);
                planned.remove_query(id);
                reference.remove_query(id);
                if op == 1 {
                    live.push(install(pick.with_threshold(threshold), &mut planned, &mut reference));
                }
            }
            // The tracer walks a clone holding the state `process` is
            // about to see, so its per-query report counts must match.
            let traces = trace_packet(&planned, pkt);
            let a = planned.process(pkt, None);
            let b = reference.process_reference(pkt, None);
            prop_assert_eq!(&a.reports, &b.reports, "reports diverged on {:?}", pkt);
            prop_assert_eq!(a.snapshot, b.snapshot, "snapshot diverged on {:?}", pkt);
            for t in &traces {
                let emitted = a.reports.iter().filter(|r| r.query == t.query).count();
                prop_assert_eq!(t.reports, emitted, "query {} traced {}", t.query, t);
            }
        }
        for (_, _, rules) in &live {
            assert_registers_eq(&planned, &reference, rules);
        }
    }

    #[test]
    fn planned_process_matches_reference_sliced(
        spec in arb_query(),
        stream in arb_stream(),
        budget in 2usize..5,
    ) {
        // CQE: slice one query over a chain of switches; each hop's planned
        // pipeline must mirror its reference twin, snapshot headers
        // included.
        let sliced = compile_sliced(&build(&spec, "prop"), 1, &compiler_cfg(), budget);
        let n = sliced.slice_count();
        prop_assume!(n >= 2);
        let mut planned: Vec<Switch> = (0..n).map(|_| Switch::new(pipeline())).collect();
        let mut reference: Vec<Switch> = (0..n).map(|_| Switch::new(pipeline())).collect();
        for i in 0..n {
            let info = SliceInfo {
                index: i as u8,
                total: n as u8,
                capture_set: sliced.capture_sets[i],
                restore_set: if i == 0 { sliced.capture_sets[0] } else { sliced.capture_sets[i - 1] },
                stages: (0, 12),
            };
            planned[i].install(&sliced.slices[i]).unwrap();
            planned[i].set_slice(1, info).unwrap();
            reference[i].install(&sliced.slices[i]).unwrap();
            reference[i].set_slice(1, info).unwrap();
        }
        for pkt in &stream {
            let mut sp_a = None;
            let mut sp_b = None;
            for i in 0..n {
                let a = planned[i].process(pkt, sp_a.as_ref());
                let b = reference[i].process_reference(pkt, sp_b.as_ref());
                prop_assert_eq!(&a.reports, &b.reports, "hop {} reports diverged", i);
                prop_assert_eq!(a.snapshot, b.snapshot, "hop {} snapshot diverged", i);
                sp_a = a.snapshot;
                sp_b = b.snapshot;
            }
        }
        for i in 0..n {
            assert_registers_eq(&planned[i], &reference[i], &sliced.slices[i]);
        }
    }

    #[test]
    fn deliver_batch_matches_sequential_deliver(
        specs in prop::collection::vec(arb_query(), 1..3),
        stream in arb_stream(),
        topo_pick in 0usize..3,
        endpoint_seed in any::<u64>(),
        slice_first in any::<bool>(),
    ) {
        let triples = delivery_triples(&stream, topo_pick, endpoint_seed);
        let mut seq = delivery_network(&specs, topo_pick, slice_first);
        let mut bat = delivery_network(&specs, topo_pick, slice_first);
        // The second pass runs on the same, now stateful, networks and
        // reuses the batch path's scratch buffers.
        for pass in 0..2 {
            let mut seq_reports = Vec::new();
            let mut seq_sp = 0usize;
            let mut seq_delivered = 0usize;
            for &(p, ig, eg) in &triples {
                let r = seq.deliver(p, ig, eg);
                seq_reports.extend(r.reports);
                seq_sp += r.snapshot_bytes;
                seq_delivered += usize::from(r.clean_delivery);
            }
            let out = bat.deliver_batch(&triples);
            prop_assert_eq!(&out.reports, &seq_reports, "reports diverged in pass {}", pass);
            prop_assert_eq!(out.snapshot_bytes, seq_sp, "pass {}", pass);
            prop_assert_eq!(out.delivered, seq_delivered, "pass {}", pass);
            prop_assert_eq!(out.unrouted, triples.len() - seq_delivered, "pass {}", pass);
        }
        for a in 0..seq.switch_count() {
            for b in a + 1..seq.switch_count() {
                prop_assert_eq!(seq.link_load(a, b), bat.link_load(a, b), "link ({}, {})", a, b);
            }
        }
    }

    #[test]
    fn parallel_batch_matches_sequential_at_any_thread_count(
        specs in prop::collection::vec(arb_query(), 1..3),
        stream in arb_stream(),
        topo_pick in 0usize..3,
        endpoint_seed in any::<u64>(),
        slice_first in any::<bool>(),
    ) {
        // `deliver_batch_parallel` is the thread-count entry point the
        // benchmark harness drives; whatever count it is given, it must
        // deliver exactly as `deliver_batch` does, on a fresh network and
        // again on the same, now stateful, one.
        let triples = delivery_triples(&stream, topo_pick, endpoint_seed);
        let mut seq = delivery_network(&specs, topo_pick, slice_first);
        let base = seq.deliver_batch(&triples);
        let base2 = seq.deliver_batch(&triples);
        for threads in [1usize, 2, 4, 8] {
            let mut par = delivery_network(&specs, topo_pick, slice_first);
            for (pass, base) in [&base, &base2].into_iter().enumerate() {
                let out = par.deliver_batch_parallel(&triples, threads);
                prop_assert_eq!(
                    &out.reports, &base.reports,
                    "reports diverged at {} threads in pass {}", threads, pass
                );
                prop_assert_eq!(out.snapshot_bytes, base.snapshot_bytes, "threads={}", threads);
                prop_assert_eq!(out.delivered, base.delivered, "threads={}", threads);
                prop_assert_eq!(out.unrouted, base.unrouted, "threads={}", threads);
            }
            for a in 0..seq.switch_count() {
                for b in a + 1..seq.switch_count() {
                    prop_assert_eq!(
                        seq.link_load(a, b),
                        par.link_load(a, b),
                        "link ({}, {}) at {} threads", a, b, threads
                    );
                }
            }
        }
    }
}

/// The production loop end to end: identical [`RunReport`]s — detections,
/// packet/epoch counts, snapshot bytes — from two fresh runs of one trace.
#[test]
fn system_run_is_thread_count_invariant() {
    use newton::query::catalog;
    use newton::system::NewtonSystem;
    use newton::trace::attacks::InjectSpec;
    use newton::trace::{AttackKind, Trace, TraceConfig};
    use std::collections::{BTreeMap, BTreeSet};

    let mut trace = Trace::background(&TraceConfig {
        packets: 6_000,
        flows: 400,
        duration_ms: 100,
        ..Default::default()
    });
    let scanner = trace
        .inject(
            AttackKind::PortScan,
            &InjectSpec { intensity: 150, window_ns: 90_000_000, ..Default::default() },
        )
        .guilty;

    let runs: Vec<_> = (0..2)
        .map(|_| {
            let mut sys = NewtonSystem::new(Topology::fat_tree(4));
            let q4 = sys.install(&catalog::q4_port_scan()).unwrap();
            sys.install(&catalog::q1_new_tcp()).unwrap();
            let r = sys.run_trace(&trace, 50);
            let reported: BTreeMap<u32, BTreeSet<u64>> =
                r.reported.iter().map(|(&id, keys)| (id, keys.iter().copied().collect())).collect();
            (q4.id, reported, r.packets, r.epochs, r.snapshot_bytes)
        })
        .collect();

    let (q4, reported, packets, epochs, snapshot_bytes) = runs[0].clone();
    assert!(packets > 0 && epochs.len() >= 2);
    assert!(
        reported.get(&q4).is_some_and(|k| k.contains(&(scanner as u64))),
        "scanner {scanner:#x} not reported: {reported:?}"
    );
    let (_, rep, pk, ep, sp) = &runs[1];
    assert_eq!(*rep, reported, "detections diverged between two runs");
    assert_eq!((*pk, ep, *sp), (packets, &epochs, snapshot_bytes), "accounting diverged");
}

/// Random mid-trace dynamics — switch crashes, reboots, link cuts and
/// restores — must leave the full system loop deterministic: identical
/// detections, unrouted counts and repair outcomes from two fresh runs,
/// repair loop included.
mod dynamic_equivalence {
    use super::*;
    use newton::net::{EventSchedule, NetworkEvent};
    use newton::query::catalog;
    use newton::system::NewtonSystem;
    use newton::trace::attacks::InjectSpec;
    use newton::trace::{AttackKind, Trace, TraceConfig};
    use std::collections::{BTreeMap, BTreeSet};

    /// (kind, subject, timestamp-in-trace): kind picks fail/restore of a
    /// switch or a link; subjects index into the node/link tables.
    fn arb_events() -> impl Strategy<Value = Vec<(u8, usize, u64)>> {
        prop::collection::vec((0u8..4, 0usize..64, 1_000_000u64..99_000_000), 1..5)
    }

    fn links_of(topo: &Topology) -> Vec<(NodeId, NodeId)> {
        let mut links = Vec::new();
        for a in 0..topo.len() {
            for b in topo.neighbors(a) {
                if a < b {
                    links.push((a, b));
                }
            }
        }
        links
    }

    fn schedule(topo: &Topology, raw: &[(u8, usize, u64)]) -> EventSchedule {
        let links = links_of(topo);
        let mut events = EventSchedule::new();
        for &(kind, subject, ts) in raw {
            let s = subject % topo.len();
            let (a, b) = links[subject % links.len()];
            events = events.at(
                ts,
                match kind {
                    0 => NetworkEvent::FailSwitch { s },
                    1 => NetworkEvent::RestoreSwitch { s },
                    2 => NetworkEvent::FailLink { a, b },
                    _ => NetworkEvent::RestoreLink { a, b },
                },
            );
        }
        events
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn system_with_dynamics_is_thread_count_invariant(
            raw_events in arb_events(),
            topo_pick in 0usize..2,
            repair in any::<bool>(),
        ) {
            let make_topo = || match topo_pick {
                0 => Topology::chain(5),
                _ => Topology::fat_tree(4),
            };
            let mut trace = Trace::background(&TraceConfig {
                packets: 2_000,
                flows: 200,
                duration_ms: 100,
                ..Default::default()
            });
            trace.inject(
                AttackKind::PortScan,
                &InjectSpec { intensity: 120, window_ns: 90_000_000, ..Default::default() },
            );

            let runs: Vec<_> = (0..2)
                .map(|_| {
                    let mut sys = NewtonSystem::new(make_topo());
                    sys.set_repair(repair);
                    sys.install(&catalog::q4_port_scan()).unwrap();
                    sys.install(&catalog::q1_new_tcp()).unwrap();
                    let mut events = schedule(&make_topo(), &raw_events);
                    let r = sys.run_trace_with_events(&trace, 50, &mut events);
                    prop_assert_eq!(events.pending(), 0, "schedules always drain");
                    let reported: BTreeMap<u32, BTreeSet<u64>> = r
                        .reported
                        .iter()
                        .map(|(&id, keys)| (id, keys.iter().copied().collect()))
                        .collect();
                    Ok((reported, r))
                })
                .collect::<Result<_, _>>()?;

            let (base_reported, base) = &runs[0];
            let (reported, r) = &runs[1];
            prop_assert_eq!(reported, base_reported, "detections diverged between two runs");
            prop_assert_eq!(
                (r.packets, &r.epochs, r.snapshot_bytes, r.messages, r.unrouted),
                (base.packets, &base.epochs, base.snapshot_bytes, base.messages, base.unrouted),
                "traffic accounting diverged between two runs"
            );
            prop_assert_eq!(
                (r.repairs, r.degraded_query_epochs, r.state_loss_events,
                 r.repair_delay_ms.to_bits()),
                (base.repairs, base.degraded_query_epochs, base.state_loss_events,
                 base.repair_delay_ms.to_bits()),
                "repair outcomes diverged between two runs"
            );
        }
    }
}
