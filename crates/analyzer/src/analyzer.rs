//! Report ingestion and epoch-end completion of deferred query parts.

use newton_compiler::{AnalyzerTask, ProbeSpec, QueryPlan};
use newton_dataplane::{ModuleAddr, QueryId, Report};
use newton_packet::FieldVector;
use newton_query::ast::MergeOp;
use newton_sketch::{FastMap, FastSet, HashFn};

/// How the analyzer reads a switch register: given the query, the probe's
/// CQE slice index, the 𝕊 instance address within that slice, and a
/// register index, return the value, or `None` if unreadable. The caller
/// maps (query, slice, address) to physical switches — trivially on one
/// switch, through the placement for sliced deployments (summing over the
/// switches that hold the slice, since a key's counts may split across
/// traffic entry points).
pub type RegisterReader<'a> = dyn Fn(QueryId, usize, ModuleAddr, usize) -> Option<u32> + 'a;

/// The software analyzer for a set of installed queries.
#[derive(Debug, Default)]
pub struct Analyzer {
    plans: FastMap<QueryId, QueryPlan>,
    /// Candidate keys reported by each query's driver branch this epoch.
    candidates: FastMap<QueryId, FastSet<u64>>,
    /// Raw report count this epoch (overhead accounting).
    reports_seen: u64,
}

impl Analyzer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an installed query's plan (the analyzer's "schema").
    pub fn register(&mut self, id: QueryId, plan: QueryPlan) {
        self.plans.insert(id, plan);
    }

    /// Forget a removed query.
    pub fn unregister(&mut self, id: QueryId) {
        self.plans.remove(&id);
        self.candidates.remove(&id);
    }

    /// Ingest one mirrored report.
    pub fn ingest(&mut self, report: &Report) {
        self.reports_seen += 1;
        let Some(plan) = self.plans.get(&report.query) else {
            return;
        };
        let field = plan.branches[plan.driver as usize].report_field;
        let key = FieldVector(report.op_keys).get(field);
        self.candidates.entry(report.query).or_default().insert(key);
    }

    /// Reports ingested this epoch.
    pub fn reports_seen(&self) -> u64 {
        self.reports_seen
    }

    /// Candidate keys of one query (before epoch-end checks).
    pub fn candidates(&self, id: QueryId) -> FastSet<u64> {
        self.candidates.get(&id).cloned().unwrap_or_default()
    }

    /// Close the epoch: apply every deferred task by probing switch state,
    /// returning the final per-query report sets. All per-epoch analyzer
    /// state resets.
    ///
    /// Candidate sets are *moved* into the output (not cloned): the epoch
    /// boundary is on the critical path between delivery batches, and the
    /// sets can hold thousands of keys under attack traffic.
    pub fn end_epoch(&mut self, read: &RegisterReader<'_>) -> FastMap<QueryId, FastSet<u64>> {
        let Analyzer { plans, candidates, reports_seen } = self;
        let mut out = FastMap::default();
        for (&id, plan) in plans.iter() {
            let mut keys = candidates.remove(&id).unwrap_or_default();
            for task in &plan.tasks {
                match *task {
                    AnalyzerTask::ProbeCheck { branch, cmp, value }
                    | AnalyzerTask::EpochThreshold { branch, cmp, value } => {
                        let probes = &plan.branches[branch as usize].probes;
                        keys.retain(|&k| {
                            probe_min(id, probes, k, read)
                                .map(|v| cmp.eval(v as u64, value))
                                .unwrap_or(false)
                        });
                    }
                    AnalyzerTask::ProbeMerge { branch: _, op, cmp, value } => {
                        // Cross-packet merge: probe EVERY branch's aggregate
                        // for the candidate key and fold exactly as the
                        // merge defines (the report only proves the driver
                        // crossed its threshold; the fold needs values).
                        keys.retain(|&k| {
                            let mut vals = plan
                                .branches
                                .iter()
                                .map(|b| probe_min(id, &b.probes, k, read).map(|v| v as u64));
                            let Some(Some(first)) = vals.next() else { return false };
                            let folded = vals.try_fold(first, |acc, v| {
                                v.map(|v| match op {
                                    MergeOp::Min => acc.min(v),
                                    MergeOp::Max => acc.max(v),
                                    MergeOp::Sum => acc.saturating_add(v),
                                    MergeOp::Diff => acc.saturating_sub(v),
                                })
                            });
                            folded.map(|f| cmp.eval(f, value)).unwrap_or(false)
                        });
                    }
                }
            }
            out.insert(id, keys);
        }
        candidates.clear();
        *reports_seen = 0;
        out
    }
}

/// Probe one branch's aggregate for a key: re-hash per row, read each 𝕊
/// register, take the row minimum (the Count-Min estimate). `None` if the
/// branch has no probes or a register was unreadable.
pub fn probe_min(
    query: QueryId,
    probes: &[ProbeSpec],
    key_value: u64,
    read: &RegisterReader<'_>,
) -> Option<u32> {
    if probes.is_empty() {
        return None;
    }
    let mut min = u32::MAX;
    for p in probes {
        let key_vec = ((key_value as u128) << p.key_field.shift()) & p.key_mask;
        let idx = HashFn::new(p.seed, p.range).hash(key_vec).wrapping_add(p.offset) as usize;
        min = min.min(read(query, p.slice, p.s_addr, idx)?);
    }
    Some(min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use newton_compiler::{compile, CompilerConfig};
    use newton_dataplane::{PipelineConfig, Switch};
    use newton_packet::{PacketBuilder, Protocol, TcpFlags};
    use newton_query::catalog;

    /// Full single-switch Q9 pipeline + analyzer: DNS receivers that never
    /// open TCP connections are flagged; those that do are cleared by the
    /// epoch-end probe of the TCP branch.
    #[test]
    fn q9_probe_check_end_to_end() {
        let q = catalog::q9_dns_no_tcp();
        let compiled = compile(&q, 9, &CompilerConfig::default());
        let mut sw = Switch::new(PipelineConfig::default());
        sw.install(&compiled.rules).unwrap();
        let mut analyzer = Analyzer::new();
        analyzer.register(compiled.id, compiled.plan.clone());

        let silent = 0x0A00_1111u32;
        let normal = 0x0A00_2222u32;
        let dns_to = |host: u32| {
            PacketBuilder::new()
                .src_ip(0x0808_0808)
                .dst_ip(host)
                .src_port(53)
                .dst_port(5555)
                .protocol(Protocol::Udp)
                .build()
        };
        for host in [silent, normal] {
            for r in sw.process(&dns_to(host), None).reports {
                analyzer.ingest(&r);
            }
        }
        // `normal` then opens connections — more than POLLUTION_SLACK of
        // them: the probe's upper bound is widened by the slack so that
        // sketch-row pollution cannot fake TCP activity for a truly silent
        // host, which means a count at or below the slack reads as silence.
        for port in 0..=newton_compiler::POLLUTION_SLACK as u16 {
            let syn = PacketBuilder::new()
                .src_ip(normal)
                .dst_ip(0xAC10_0001)
                .src_port(40_000 + port)
                .tcp_flags(TcpFlags::SYN)
                .build();
            for r in sw.process(&syn, None).reports {
                analyzer.ingest(&r);
            }
        }

        assert_eq!(analyzer.candidates(9).len(), 2, "both hosts are candidates");
        let results = analyzer.end_epoch(&|_q, _slice, addr, idx| sw.read_register(addr, idx));
        let flagged = &results[&9];
        assert!(flagged.contains(&(silent as u64)), "silent host must be flagged");
        assert!(!flagged.contains(&(normal as u64)), "connecting host must be cleared");
    }

    /// Q8 end-to-end: the And-merge's byte-volume side resolves by probe.
    #[test]
    fn q8_probe_check_filters_busy_servers() {
        let q = catalog::q8_slowloris();
        let compiled = compile(&q, 8, &CompilerConfig::default());
        let mut sw = Switch::new(PipelineConfig::default());
        sw.install(&compiled.rules).unwrap();
        let mut analyzer = Analyzer::new();
        analyzer.register(compiled.id, compiled.plan.clone());

        let victim = 0xAC10_0050u32;
        let busy = 0xAC10_0060u32;
        for i in 0..catalog::thresholds::SLOWLORIS_CONNS as u16 + 5 {
            // Slowloris: tiny packets from distinct connections.
            let p = PacketBuilder::new()
                .src_ip(0x0A00_0000 + i as u32)
                .dst_ip(victim)
                .src_port(3000 + i)
                .dst_port(80)
                .tcp_flags(TcpFlags::ACK)
                .wire_len(64)
                .build();
            for r in sw.process(&p, None).reports {
                analyzer.ingest(&r);
            }
            // Busy server: same connection count, full-size packets.
            let p = PacketBuilder::new()
                .src_ip(0x0B00_0000 + i as u32)
                .dst_ip(busy)
                .src_port(4000 + i)
                .dst_port(80)
                .tcp_flags(TcpFlags::ACK)
                .wire_len(1500)
                .build();
            for r in sw.process(&p, None).reports {
                analyzer.ingest(&r);
            }
        }
        let results = analyzer.end_epoch(&|_q, _slice, addr, idx| sw.read_register(addr, idx));
        let flagged = &results[&8];
        assert!(flagged.contains(&(victim as u64)), "slowloris victim flagged");
        assert!(!flagged.contains(&(busy as u64)), "busy server cleared by byte probe");
    }

    #[test]
    fn unknown_reports_are_ignored() {
        let mut analyzer = Analyzer::new();
        analyzer.ingest(&Report {
            query: 99,
            branch: 0,
            op_keys: 0,
            hash_result: 0,
            state_result: 0,
            global_result: 0,
        });
        assert_eq!(analyzer.reports_seen(), 1);
        assert!(analyzer.candidates(99).is_empty());
    }

    #[test]
    fn epoch_end_resets_state() {
        let q = catalog::q1_new_tcp();
        let compiled = compile(&q, 1, &CompilerConfig::default());
        let mut analyzer = Analyzer::new();
        analyzer.register(compiled.id, compiled.plan.clone());
        analyzer.ingest(&Report {
            query: 1,
            branch: 0,
            op_keys: newton_packet::Field::DstIp.mask()
                & (0x7u128 << newton_packet::Field::DstIp.shift()),
            hash_result: 0,
            state_result: 40,
            global_result: 40,
        });
        assert_eq!(analyzer.candidates(1).len(), 1);
        let r = analyzer.end_epoch(&|_, _, _, _| Some(0));
        assert_eq!(r[&1].len(), 1, "Q1 has no deferred tasks; candidates pass through");
        assert!(analyzer.candidates(1).is_empty(), "epoch state cleared");
        assert_eq!(analyzer.reports_seen(), 0);
    }

    #[test]
    fn probe_min_takes_row_minimum() {
        let probes = vec![
            newton_compiler::ProbeSpec {
                slice: 0,
                s_addr: ModuleAddr { stage: 0, slot: 2 },
                seed: 1,
                range: 16,
                offset: 0,
                key_field: newton_packet::Field::DstIp,
                key_mask: newton_packet::Field::DstIp.mask(),
            },
            newton_compiler::ProbeSpec {
                slice: 0,
                s_addr: ModuleAddr { stage: 1, slot: 2 },
                seed: 2,
                range: 16,
                offset: 0,
                key_field: newton_packet::Field::DstIp,
                key_mask: newton_packet::Field::DstIp.mask(),
            },
        ];
        let v =
            probe_min(1, &probes, 42, &|_, _, addr, _| Some(if addr.stage == 0 { 9 } else { 5 }));
        assert_eq!(v, Some(5));
        assert_eq!(probe_min(1, &probes, 42, &|_, _, _, _| None), None);
        assert_eq!(probe_min(1, &[], 42, &|_, _, _, _| Some(1)), None);
    }
}
