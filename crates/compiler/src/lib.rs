//! The Newton compiler: queries → module rules (§4.3).
//!
//! Compilation has two steps, exactly as the paper describes:
//!
//! 1. **Primitive decomposition** ([`decompose`]): each `filter` / `map` /
//!    `distinct` / `reduce` primitive lowers to a short sequence of module
//!    specifications (one or several 𝕂/ℍ/𝕊/ℝ suites — `reduce` uses
//!    several suites for a multi-array Count-Min, `distinct` for a
//!    multi-array Bloom filter, Fig. 3).
//! 2. **Module rule composition** ([`mod@compose`]): Algorithm 1 with its three
//!    optimizations —
//!    * **Opt.1** front filters over 5-tuple/flags move into `newton_init`,
//!    * **Opt.2** unused modules (e.g. `map`'s ℍ/𝕊/ℝ) and redundant 𝕂s
//!      (consecutive primitives with identical operation keys) are removed,
//!    * **Opt.3** vertical composition: consecutive primitives alternate
//!      between the two metadata sets so their modules share stages in the
//!      compact layout.
//!
//! [`rulegen`] then emits concrete, installable [`RuleSet`]s, and [`plan`]
//! records what the software analyzer must finish (non-monotone thresholds
//! and cross-packet merges — the parts the paper defers to CPU).
//!
//! [`sonata`] estimates the table/stage cost of the Sonata baseline for the
//! same query (Fig. 15 comparison), and [`concurrent`] computes the
//! resource-multiplexing numbers of Fig. 16.
//!
//! [`RuleSet`]: newton_dataplane::RuleSet

pub mod cache;
pub mod compose;
pub mod concurrent;
pub mod decompose;
pub mod plan;
pub mod rulegen;
pub mod slicing;
pub mod sonata;

pub use cache::{CacheStats, CompileCache, CompiledQuery, CompiledSlice};
pub use compose::{compose, compose_naive_executable, retarget_to_naive, Composition, OptLevel};
pub use concurrent::{p_newton, s_newton, sonata_chained, ConcurrentCost};
pub use decompose::{decompose_query, ModuleRole, ModuleSpec, SketchPolicy, POLLUTION_SLACK};
pub use plan::{
    stats_for, AnalyzerTask, BranchPlan, Compilation, CompileStats, ProbeSpec, QueryPlan,
};
pub use rulegen::generate_rules;
pub use slicing::{compile_sliced, SlicedCompilation};
pub use sonata::{estimate as sonata_estimate, SonataCost};

use newton_dataplane::QueryId;
use newton_query::Query;

/// Compiler configuration: the data-plane target description plus sketch
/// depths.
#[derive(Debug, Clone, Copy)]
pub struct CompilerConfig {
    /// Register count allotted to this query per 𝕊 array (ℍ's hash
    /// range). When several queries share a pipeline, each gets a slice of
    /// the physical arrays (§4.1: "flexible register allocation among
    /// different queries").
    pub registers_per_array: u32,
    /// First register of this query's slice within the physical arrays
    /// (added to every ℍ output).
    pub register_offset: u32,
    /// Bloom-filter arrays for `distinct` in single-branch queries.
    pub bf_hashes: usize,
    /// Count-Min rows for `reduce` in single-branch queries.
    pub cm_depth: usize,
    /// Base seed for the hash family.
    pub seed: u64,
}

impl Default for CompilerConfig {
    fn default() -> Self {
        CompilerConfig {
            registers_per_array: 4096,
            register_offset: 0,
            bf_hashes: 3,
            cm_depth: 2,
            seed: 0x5EED,
        }
    }
}

/// Compile a query with all optimizations enabled.
///
/// Returns the installable rules, the analyzer plan and the composition
/// behind them; [`stats_for`] composes the Fig. 15 ladder separately.
pub fn compile(query: &Query, id: QueryId, config: &CompilerConfig) -> Compilation {
    let decomp = decompose_query(query, config);
    let composition = compose(query, &decomp, OptLevel::full());
    let (rules, plan) = generate_rules(query, id, &decomp, &composition, config);
    Compilation { query_name: query.name.clone(), id, rules, plan, composition }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newton_query::catalog;

    #[test]
    fn all_catalog_queries_compile() {
        let cfg = CompilerConfig::default();
        for (i, q) in catalog::all_queries().iter().enumerate() {
            let c = compile(q, i as QueryId + 1, &cfg);
            assert!(c.rules.module_rule_count() > 0, "{}: no module rules", q.name);
            assert!(
                !c.rules.init.is_empty() || q.name.contains("spreader"),
                "{}: expected init rules",
                q.name
            );
        }
    }

    #[test]
    fn optimization_reduces_modules_and_stages() {
        // The paper: ≥ 42.4% module reduction and ≥ 69.7% stage reduction
        // across the 9 queries; require substantial reductions here.
        let cfg = CompilerConfig::default();
        for q in catalog::all_queries() {
            let stats = CompileStats::collect(&q, &decompose_query(&q, &cfg), &cfg);
            let m_red = 1.0 - stats.final_modules() as f64 / stats.naive_modules() as f64;
            let s_red = 1.0 - stats.final_stages() as f64 / stats.naive_stages() as f64;
            assert!(m_red >= 0.30, "{}: module reduction {m_red:.2} too small", q.name);
            assert!(s_red >= 0.50, "{}: stage reduction {s_red:.2} too small", q.name);
        }
    }

    #[test]
    fn optimized_queries_fit_a_tofino() {
        // "Newton occupies no more than 10 stages for all the 9 queries."
        let cfg = CompilerConfig::default();
        for q in catalog::all_queries() {
            let c = compile(&q, 1, &cfg);
            assert!(
                c.composition.stages() <= 12,
                "{}: {} stages exceed a 12-stage pipeline",
                q.name,
                c.composition.stages()
            );
        }
    }
}
