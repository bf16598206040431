//! The deterministic telemetry journal is part of the execution contract:
//! the `Recorder`'s event stream is keyed purely by modeled time (epoch
//! index), so its JSONL serialization must be **byte-identical** between
//! two fresh runs of the same input — with and without mid-trace failures
//! — and however the run's delivery batches are cut. Delivery is
//! single-threaded; the tests named for thread counts pin this
//! run-to-run determinism. Wall-clock facts live only in the metrics
//! registry, never in the journal.
//!
//! Also covered here: the `NEWTON_TRACE_PACKET` hook (via its
//! programmatic twin [`NewtonSystem::set_trace_packet`]): the journaled
//! `packet_trace` event is itself deterministic.

use newton::net::{EventSchedule, NetworkEvent, Topology};
use newton::query::catalog;
use newton::telemetry::Event;
use newton::trace::attacks::InjectSpec;
use newton::trace::background::TraceConfig;
use newton::trace::{AttackKind, Trace};
use newton::NewtonSystem;

/// A trace whose 50 ms epochs each carry thousands of packets.
fn busy_trace() -> Trace {
    let mut trace = Trace::background(&TraceConfig {
        packets: 6_000,
        flows: 400,
        duration_ms: 100,
        ..Default::default()
    });
    trace.inject(
        AttackKind::PortScan,
        &InjectSpec { intensity: 150, window_ns: 90_000_000, ..Default::default() },
    );
    trace
}

/// Run the full system loop on a fresh system with the recorder attached
/// and return the journal's JSONL bytes.
fn journal_of(trace: &Trace, schedule: Option<EventSchedule>, trace_packet: Option<u64>) -> String {
    let mut sys = NewtonSystem::new(Topology::fat_tree(4));
    sys.install(&catalog::q4_port_scan()).unwrap();
    sys.install(&catalog::q1_new_tcp()).unwrap();
    sys.set_trace_packet(trace_packet);
    sys.enable_recorder();
    match schedule {
        Some(mut events) => {
            sys.run_trace_with_events(trace, 50, &mut events);
            assert_eq!(events.pending(), 0, "all scheduled events fired");
        }
        None => {
            sys.run_trace(trace, 50);
        }
    }
    sys.take_recorder().expect("recorder attached").journal.to_jsonl()
}

#[test]
fn journal_is_byte_identical_across_thread_counts() {
    let trace = busy_trace();
    let base = journal_of(&trace, None, None);
    assert!(!base.is_empty(), "a busy run journals events");
    assert!(base.contains("\"type\":\"epoch\""), "epoch summaries present");
    assert!(base.contains("\"stage_gauge\""), "stage gauges present");
    assert!(base.contains("\"link_load\""), "link loads present");
    assert_eq!(journal_of(&trace, None, None), base, "journal bytes diverged between two runs");
}

#[test]
fn journal_is_byte_identical_across_batch_sizes_and_threads() {
    // Every scheduled event flushes the delivery batch before it fires.
    // Restoring a healthy link changes nothing, so a schedule of them
    // every 2 ms only cuts each 50 ms epoch's delivery into ~25 smaller
    // batches — which must not move the journal by a byte. (Repair is off
    // in that run: a repair pass would journal its own span per event.)
    let trace = busy_trace();
    let base = journal_of(&trace, None, None);
    let mut sys = NewtonSystem::new(Topology::fat_tree(4));
    sys.set_repair(false);
    sys.install(&catalog::q4_port_scan()).unwrap();
    sys.install(&catalog::q1_new_tcp()).unwrap();
    sys.enable_recorder();
    let (a, b) = (0, sys.network().topology().neighbors(0).next().unwrap());
    let mut splits = EventSchedule::new();
    for t in (1..50).map(|i| i * 2_000_000) {
        splits = splits.at(t, NetworkEvent::RestoreLink { a, b });
    }
    sys.run_trace_with_events(&trace, 50, &mut splits);
    assert_eq!(splits.pending(), 0);
    let split = sys.take_recorder().expect("recorder attached").journal.to_jsonl();
    assert_eq!(split, base, "journal bytes moved when delivery batches were split");
}

#[test]
fn journal_is_byte_identical_across_threads_under_failures() {
    // A switch crash + reboot mid-trace: the repair loop, state-loss and
    // degraded-query events must all journal identically on every run.
    let trace = busy_trace();
    // Fail an *edge* switch: only a switch holding installed rules counts
    // as a state-loss event.
    let victim = Topology::fat_tree(4).edge_switches()[0];
    let schedule = || {
        EventSchedule::new()
            .at(30_000_001, NetworkEvent::FailSwitch { s: victim })
            .at(60_000_000, NetworkEvent::RestoreSwitch { s: victim })
    };
    let base = journal_of(&trace, Some(schedule()), None);
    assert!(base.contains("\"state_loss\""), "the crash journals a state-loss event");
    assert!(base.contains("\"repair\""), "the repair pass journals a span");
    let j = journal_of(&trace, Some(schedule()), None);
    assert_eq!(j, base, "failure-path journal diverged between two runs");
}

#[test]
fn packet_trace_event_is_thread_count_invariant() {
    use newton::packet::{Protocol, TcpFlags};

    // The NEWTON_TRACE_PACKET hook (programmatic form): journal one
    // packet's per-module execution trace. The traced packet is picked by
    // global arrival index. Pick a TCP
    // SYN so the installed queries (Q1/Q4 both classify on SYN) actually
    // fire modules during the walk.
    let trace = busy_trace();
    let idx = trace
        .packets()
        .iter()
        .position(|p| p.protocol == Protocol::Tcp && p.tcp_flags == TcpFlags::SYN)
        .expect("the trace carries TCP SYNs") as u64;
    let base = journal_of(&trace, None, Some(idx));
    assert!(base.contains("\"packet_trace\""), "the traced packet journals its trace");
    assert_eq!(journal_of(&trace, None, Some(idx)), base, "packet trace diverged between runs");

    // The event itself carries the requested index and a non-empty
    // rendered trace.
    let mut sys = NewtonSystem::new(Topology::fat_tree(4));
    sys.install(&catalog::q4_port_scan()).unwrap();
    sys.install(&catalog::q1_new_tcp()).unwrap();
    sys.set_trace_packet(Some(idx));
    sys.enable_recorder();
    sys.run_trace(&trace, 50);
    let rec = sys.take_recorder().unwrap();
    let traced: Vec<_> = rec
        .journal
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::PacketTrace { index, traces, .. } => Some((*index, traces.len())),
            _ => None,
        })
        .collect();
    assert_eq!(traced.len(), 1, "exactly one packet is traced");
    assert_eq!(traced[0].0, idx);
    assert!(traced[0].1 > 0, "the trace renders at least one module line");
}

#[test]
fn a_second_run_of_the_same_stream_journals_the_same_bytes() {
    use newton::trace::stream::{ReplayOptions, StreamConfig};

    // Link counters are cumulative over the network's lifetime; each
    // run's first epoch must journal only its own link traffic.
    let cfg = StreamConfig {
        segments: 3,
        segment: TraceConfig { packets: 4_000, duration_ms: 100, ..TraceConfig::default() },
        ..StreamConfig::default()
    };
    let mut sys = NewtonSystem::new(Topology::fat_tree(4));
    sys.install(&catalog::q1_new_tcp()).unwrap();
    let mut journal_of_run = || {
        sys.enable_recorder();
        sys.run_stream(&cfg, 100, &ReplayOptions::default());
        sys.take_recorder().expect("recorder attached").journal.to_jsonl()
    };
    let first = journal_of_run();
    assert!(first.contains("\"type\":\"link_load\",\"epoch\":0"), "epoch 0 loads links");
    let second = journal_of_run();
    if let Some((a, b)) = first.lines().zip(second.lines()).find(|(a, b)| a != b) {
        panic!("the second run journaled different bytes:\n first: {a}\nsecond: {b}");
    }
    assert_eq!(second.len(), first.len(), "the second run journaled a different length");
}

mod proptests {
    use super::*;
    use newton::net::NodeId;
    use proptest::prelude::*;

    /// (kind, subject, timestamp): mirrors
    /// `proptest_exec_equivalence::dynamic_equivalence`.
    fn arb_events() -> impl Strategy<Value = Vec<(u8, usize, u64)>> {
        prop::collection::vec((0u8..4, 0usize..64, 1_000_000u64..99_000_000), 0..4)
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
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn journal_thread_invariance_under_random_dynamics(
            raw_events in arb_events(),
            seed in any::<u64>(),
            intensity in 80u32..200,
            repair in any::<bool>(),
        ) {
            let topo = Topology::fat_tree(4);
            let mut trace = Trace::background(&TraceConfig {
                packets: 3_000,
                flows: 300,
                duration_ms: 100,
                ..Default::default()
            });
            trace.inject(
                AttackKind::PortScan,
                &InjectSpec { seed, intensity, window_ns: 90_000_000, ..Default::default() },
            );

            let run = || {
                let mut sys = NewtonSystem::new(Topology::fat_tree(4));
                sys.set_repair(repair);
                sys.install(&catalog::q4_port_scan()).unwrap();
                sys.install(&catalog::q1_new_tcp()).unwrap();
                sys.enable_recorder();
                let mut events = schedule(&topo, &raw_events);
                sys.run_trace_with_events(&trace, 50, &mut events);
                sys.take_recorder().unwrap().journal.to_jsonl()
            };

            let base = run();
            prop_assert!(!base.is_empty());
            let j = run();
            prop_assert_eq!(&j, &base, "journal bytes diverged between runs (repair={})", repair);
        }
    }
}
