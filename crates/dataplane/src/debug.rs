//! Packet-level execution tracing: what fired at every stage.
//!
//! Debugging a compiled query on hardware means staring at register dumps;
//! the simulator can do better. [`trace_packet`] walks one packet through
//! a switch (without mutating it — registers are cloned) and records every
//! module firing: which instance, for which query/branch, and what it wrote
//! into the PHV. The rendering reads like a P4 behavioral-model log.

use crate::phv::{Phv, SetId};
use crate::rules::QueryId;
use crate::switch::Switch;
use newton_packet::Packet;
use std::fmt;

/// One module firing during a traced walk.
#[derive(Debug, Clone, PartialEq)]
pub struct Firing {
    pub stage: usize,
    pub slot: usize,
    pub kind: char,
    pub branch: u8,
    /// Human-readable effect (what changed in the PHV).
    pub effect: String,
}

/// The trace of one (packet, query) walk.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    pub query: QueryId,
    pub firings: Vec<Firing>,
    /// Branches still active at pipeline exit.
    pub active_at_exit: u32,
    /// Reports the walk would emit.
    pub reports: usize,
}

impl fmt::Display for ExecutionTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "query {}:", self.query)?;
        for fi in &self.firings {
            writeln!(
                f,
                "  stage {:>2} slot {} [{}] branch {}: {}",
                fi.stage, fi.slot, fi.kind, fi.branch, fi.effect
            )?;
        }
        writeln!(
            f,
            "  exit: active branches {:#b}, {} report(s)",
            self.active_at_exit, self.reports
        )
    }
}

/// Trace one packet through a (cloned) switch: every module firing of the
/// slice-0 walks [`Switch::process`] would run for a fresh (snapshot-less)
/// packet, recorded by running the reference walk with a per-stage
/// observer. A classified query this switch holds no slice 0 of is
/// skipped, exactly as `process` skips it (tracing is a single-switch
/// view). The real switch is untouched.
pub fn trace_packet(switch: &Switch, pkt: &Packet) -> Vec<ExecutionTrace> {
    // Work on a clone: tracing must not consume epoch state.
    let mut shadow = switch.clone();
    shadow
        .slice0_walks(pkt)
        .into_iter()
        .map(|(mut phv, info)| {
            let mut trace = ExecutionTrace { query: phv.query, ..Default::default() };
            shadow.walk_reference(&mut phv, info.stages, |stage, entry, exit| {
                // Record diffs per slot by comparing PHVs.
                for (slot, effect) in diff_phv(entry, exit) {
                    trace.firings.push(Firing {
                        stage,
                        slot,
                        kind: ['K', 'H', 'S', 'R'][slot.min(3)],
                        branch: 0, // the diff is PHV-level; branch shown as 0
                        effect,
                    });
                }
            });
            trace.active_at_exit = phv.active_branches;
            trace.reports = phv.reports.len();
            trace
        })
        .collect()
}

/// Describe what changed between stage entry and exit, slot-attributed by
/// container kind (op-keys ⇒ 𝕂, hash ⇒ ℍ, state ⇒ 𝕊, global/report/branch
/// ⇒ ℝ).
fn diff_phv(before: &Phv, after: &Phv) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for set in [SetId::Set1, SetId::Set2] {
        let (b, a) = (before.set(set), after.set(set));
        if b.op_keys != a.op_keys {
            out.push((0, format!("op_keys[{set:?}] <- {:#034x}", a.op_keys)));
        }
        if b.hash_result != a.hash_result {
            out.push((1, format!("hash[{set:?}] <- {}", a.hash_result)));
        }
        if b.state_result != a.state_result {
            out.push((2, format!("state[{set:?}] <- {}", a.state_result)));
        }
    }
    if before.global_result != after.global_result {
        out.push((3, format!("global <- {}", after.global_result)));
    }
    if before.active_branches != after.active_branches {
        out.push((
            3,
            format!("branches {:#b} -> {:#b}", before.active_branches, after.active_branches),
        ));
    }
    if before.reports.len() != after.reports.len() {
        out.push((3, format!("REPORT #{}", after.reports.len())));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::PipelineConfig;
    use newton_packet::{PacketBuilder, TcpFlags};

    fn q1_switch() -> Switch {
        // Hand-compiled Q1-like ruleset from the switch tests.
        use crate::phv::SetId;
        use crate::rules::*;
        use crate::ModuleAddr;
        use newton_packet::Field;
        let mut sw = Switch::new(PipelineConfig::default());
        let set = SetId::Set1;
        let rs = RuleSet {
            init: vec![InitRule {
                query: 1,
                branch_mask: 1,
                matches: vec![(Field::Proto, 6, 0xFF), (Field::TcpFlags, 2, 0xFF)],
            }],
            k: vec![(
                ModuleAddr { stage: 0, slot: 0 },
                KRule { query: 1, branch: 0, set, mask: Field::DstIp.mask() },
            )],
            h: vec![(
                ModuleAddr { stage: 1, slot: 1 },
                HRule {
                    query: 1,
                    branch: 0,
                    set,
                    mode: HashMode::Hash { seed: 1, range: 256 },
                    offset: 0,
                },
            )],
            s: vec![(
                ModuleAddr { stage: 2, slot: 2 },
                SRule { query: 1, branch: 0, set, op: SaluOp::Add(Operand::Const(1)) },
            )],
            r: vec![(
                ModuleAddr { stage: 3, slot: 3 },
                RRule {
                    query: 1,
                    branch: 0,
                    set,
                    priority: 0,
                    state_match: RMatch::at_least(2),
                    global_match: RMatch::ANY,
                    actions: vec![RAction::Report],
                },
            )],
        };
        sw.install(&rs).unwrap();
        sw
    }

    #[test]
    fn trace_shows_the_module_chain() {
        let sw = q1_switch();
        let pkt = PacketBuilder::new().dst_ip(9).tcp_flags(TcpFlags::SYN).build();
        let traces = trace_packet(&sw, &pkt);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        let kinds: Vec<char> = t.firings.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, vec!['K', 'H', 'S'], "K→H→S fire; R below threshold stays silent");
        assert_eq!(t.reports, 0);
        let rendered = t.to_string();
        assert!(rendered.contains("op_keys"));
        assert!(rendered.contains("hash"));
    }

    #[test]
    fn tracing_does_not_mutate_the_switch() {
        let mut sw = q1_switch();
        let pkt = PacketBuilder::new().dst_ip(9).tcp_flags(TcpFlags::SYN).build();
        for _ in 0..10 {
            trace_packet(&sw, &pkt);
        }
        // A fresh count: the traces above must not have incremented state.
        assert!(sw.process(&pkt, None).reports.is_empty(), "first real packet: count 1 < 2");
        let out = sw.process(&pkt, None);
        assert_eq!(out.reports.len(), 1, "second real packet crosses");
    }

    #[test]
    fn trace_follows_the_slice_zero_stage_range() {
        // One switch holds slice 0 (stages 0–1) and slice 1 (stages 2–3)
        // of one query. A fresh SYN dispatches slice 0 only: K and H fire,
        // no register moves, and a cursor-1 snapshot leaves for the next
        // switch. The trace must show that walk, not all four stages.
        use crate::switch::SliceInfo;
        let slice = |index: u8, stages: (usize, usize)| SliceInfo {
            index,
            total: 2,
            capture_set: SetId::Set1,
            restore_set: SetId::Set1,
            stages,
        };
        let mut sw = q1_switch();
        sw.set_slice(1, slice(0, (0, 2))).unwrap();
        sw.add_slice(1, slice(1, (2, 4))).unwrap();
        let pkt = PacketBuilder::new().dst_ip(9).tcp_flags(TcpFlags::SYN).build();

        let traces = trace_packet(&sw, &pkt);
        assert_eq!(traces.len(), 1);
        let kinds: Vec<char> = traces[0].firings.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, vec!['K', 'H'], "only slice 0's stages run");

        let out = sw.process(&pkt, None);
        assert_eq!(out.snapshot.map(|sp| sp.cursor), Some(1), "slice 1 runs downstream");
        assert_eq!(sw.take_bank_stats(), crate::BankStats::default(), "no register touched");

        // Holding only a later slice, the switch dispatches nothing for a
        // fresh packet, and the trace agrees.
        let mut later_only = q1_switch();
        later_only.set_slice(1, slice(1, (2, 4))).unwrap();
        assert!(trace_packet(&later_only, &pkt).is_empty());
        assert_eq!(later_only.process(&pkt, None).snapshot, None);
    }

    #[test]
    fn unmatched_packets_trace_empty() {
        let sw = q1_switch();
        let udp = PacketBuilder::new().protocol(newton_packet::Protocol::Udp).build();
        assert!(trace_packet(&sw, &udp).is_empty());
    }

    #[test]
    fn report_firing_is_visible_in_the_trace() {
        let sw = q1_switch();
        let pkt = PacketBuilder::new().dst_ip(9).tcp_flags(TcpFlags::SYN).build();
        // Warm a shadow copy ourselves: trace twice against a pre-warmed
        // switch clone.
        let mut warm = sw.clone();
        warm.process(&pkt, None);
        warm.process(&pkt, None);
        let traces = trace_packet(&warm, &pkt);
        assert_eq!(traces[0].reports, 1);
        assert!(traces[0].to_string().contains("REPORT"));
    }
}
