//! Compilation outputs: the analyzer plan and per-opt-level statistics.

use crate::compose::{compose, Composition, OptLevel};
use crate::decompose::{decompose_query, Decomposition};
use crate::CompilerConfig;
use newton_dataplane::{ModuleAddr, QueryId, RuleSet};
use newton_packet::Field;
use newton_query::ast::{CmpOp, MergeOp};
use newton_query::Query;

/// Work the software analyzer must finish at epoch end — the query parts
/// the data plane cannot decide (§7: non-monotone thresholds, cross-packet
/// merges).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnalyzerTask {
    /// Apply a non-monotone trailing threshold to a branch's final counts.
    EpochThreshold { branch: u8, cmp: CmpOp, value: u64 },
    /// For each candidate key reported by the driver branch, probe
    /// `branch`'s state and require `probe cmp value`.
    ProbeCheck { branch: u8, cmp: CmpOp, value: u64 },
    /// Cross-packet `Combine` merge: fold the probe of `branch` into the
    /// driver count with `op`, then require `folded cmp value`.
    ProbeMerge { branch: u8, op: MergeOp, cmp: CmpOp, value: u64 },
}

/// How the analyzer can read one branch's aggregate for an arbitrary key:
/// re-hash the key exactly as the installed ℍ rule does, then read the 𝕊
/// register (minimum across rows for multi-row sketches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSpec {
    /// Which CQE slice the 𝕊 instance lives in (0 for unsliced queries);
    /// the register reader maps (slice, address) to a physical switch.
    pub slice: usize,
    /// Address of the 𝕊 instance holding the row (within its slice).
    pub s_addr: ModuleAddr,
    /// The row's hash parameters (mirrors the installed `HRule`).
    pub seed: u64,
    pub range: u32,
    pub offset: u32,
    /// The key field of this branch's aggregate (where to place the
    /// candidate value before hashing).
    pub key_field: Field,
    /// The branch's operation-key mask.
    pub key_mask: u128,
}

/// Per-branch metadata the analyzer needs to decode reports and probe
/// state.
#[derive(Debug, Clone)]
pub struct BranchPlan {
    /// The field carrying the report key (e.g. `DstIp` for victims).
    pub report_field: Field,
    /// State probes, one per sketch row of the branch's last reduce.
    pub probes: Vec<ProbeSpec>,
}

/// The complete analyzer-facing plan of a compiled query.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pub branches: Vec<BranchPlan>,
    /// The branch whose reports seed candidate keys.
    pub driver: u8,
    /// Epoch-end work.
    pub tasks: Vec<AnalyzerTask>,
    /// Whether the merge completed on the data plane (no analyzer merge).
    pub dp_merged: bool,
    /// Epoch length in milliseconds.
    pub epoch_ms: u64,
}

/// Everything `compile` produces.
#[derive(Debug, Clone)]
pub struct Compilation {
    pub query_name: String,
    pub id: QueryId,
    /// Installable rules (all optimizations applied).
    pub rules: RuleSet,
    /// Analyzer plan.
    pub plan: QueryPlan,
    /// The composed module/stage structure behind `rules`.
    pub composition: Composition,
}

/// Modules/stages at each optimization level (Fig. 15), plus the reduction
/// ratios of Fig. 7.
#[derive(Debug, Clone)]
pub struct CompileStats {
    pub query_name: String,
    pub primitives: usize,
    /// (label, modules, stages) per cumulative level, Fig. 15 order.
    pub levels: Vec<(&'static str, usize, usize)>,
}

impl CompileStats {
    /// Compose the query at all four levels.
    pub fn collect(query: &Query, decomp: &Decomposition, _config: &CompilerConfig) -> Self {
        let levels = OptLevel::ladder()
            .into_iter()
            .map(|(label, opt)| {
                let c = compose(query, decomp, opt);
                (label, c.modules(), c.stages())
            })
            .collect();
        CompileStats { query_name: query.name.clone(), primitives: query.primitive_count(), levels }
    }

    pub fn naive_modules(&self) -> usize {
        self.levels[0].1
    }

    pub fn naive_stages(&self) -> usize {
        self.levels[0].2
    }

    pub fn final_modules(&self) -> usize {
        self.levels.last().expect("levels").1
    }

    pub fn final_stages(&self) -> usize {
        self.levels.last().expect("levels").2
    }

    /// Fraction of modules removed by optimization (Fig. 7).
    pub fn module_reduction(&self) -> f64 {
        1.0 - self.final_modules() as f64 / self.naive_modules() as f64
    }

    /// Fraction of stages removed by optimization (Fig. 7).
    pub fn stage_reduction(&self) -> f64 {
        1.0 - self.final_stages() as f64 / self.naive_stages() as f64
    }
}

/// Convenience: collect stats directly from a query.
pub fn stats_for(query: &Query, config: &CompilerConfig) -> CompileStats {
    CompileStats::collect(query, &decompose_query(query, config), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use newton_query::catalog;

    #[test]
    fn levels_are_monotone_nonincreasing() {
        let cfg = CompilerConfig::default();
        for q in catalog::all_queries() {
            let s = stats_for(&q, &cfg);
            assert_eq!(s.levels.len(), 4);
            for w in s.levels.windows(2) {
                assert!(w[1].1 <= w[0].1, "{}: modules increased {:?}", q.name, s.levels);
                assert!(w[1].2 <= w[0].2, "{}: stages increased {:?}", q.name, s.levels);
            }
        }
    }

    #[test]
    fn reductions_are_meaningful() {
        let cfg = CompilerConfig::default();
        let stats: Vec<CompileStats> =
            catalog::all_queries().iter().map(|q| stats_for(q, &cfg)).collect();
        let min_mod = stats.iter().map(CompileStats::module_reduction).fold(f64::MAX, f64::min);
        let min_stage = stats.iter().map(CompileStats::stage_reduction).fold(f64::MAX, f64::min);
        // The paper: ≥ 42.4 % module and ≥ 69.7 % stage reduction.
        assert!(min_mod > 0.35, "worst module reduction {min_mod:.2}");
        assert!(min_stage > 0.55, "worst stage reduction {min_stage:.2}");
    }
}
