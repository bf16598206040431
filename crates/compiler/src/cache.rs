//! Incremental compilation: a cache over Algorithm-1 composition, Opt.1–3
//! rule generation and CQE slicing, keyed on query *structure*, target
//! config and stage budget.
//!
//! Under churn the controller compiles the same handful of intent shapes
//! over and over — drill-down variants, renamed re-submissions, the same
//! catalog query re-installed after a remove. Composition, rule generation
//! and slicing are pure functions of `(query structure, CompilerConfig,
//! stage budget)`; only the [`QueryId`] stamped into the emitted rules
//! differs between generations. The cache therefore stores one canonical
//! [`CompiledQuery`] per key and **rebinds** the query id on every fetch —
//! a linear pass over the rule vectors, orders of magnitude cheaper than
//! re-running decomposition, composition and rule generation.
//!
//! The key deliberately excludes `Query::name`: renaming an intent (the
//! common "q1 → q1_tight" drill-down resubmission) is a cache hit.
//! Everything else that influences the emitted artifacts is in the key:
//! branches/merge/epoch (structure), every [`CompilerConfig`] field
//! (register slice geometry, sketch shape, hash seeds) and the stage
//! budget (the same structure slices differently on 4-stage and 12-stage
//! switches).

use crate::plan::QueryPlan;
use crate::slicing::compile_sliced;
use crate::CompilerConfig;
use newton_dataplane::{QueryId, RuleSet, SetId};
use newton_query::Query;
use std::collections::HashMap;

/// One slice of a [`CompiledQuery`], as a switch holding it installs it.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSlice {
    /// The slice's rules, stage numbering from 0.
    pub rules: RuleSet,
    /// Pipeline stages the slice occupies.
    pub stages: usize,
    /// The metadata set the slice's boundary snapshots and the next slice
    /// restores (`Set1` for a query compiled whole).
    pub capture: SetId,
}

/// A query compiled for one stage budget: whole when its composition fits
/// one switch, otherwise cut into CQE slices ([`compile_sliced`]).
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The slices in path order; one for a query compiled whole.
    pub slices: Vec<CompiledSlice>,
    /// Analyzer plan; probe addresses carry their slice index.
    pub plan: QueryPlan,
}

impl CompiledQuery {
    fn new(query: &Query, id: QueryId, config: &CompilerConfig, stages_per_switch: usize) -> Self {
        let whole = crate::compile(query, id, config);
        let stages = whole.composition.stages();
        if stages <= stages_per_switch {
            let slice = CompiledSlice { rules: whole.rules, stages, capture: SetId::Set1 };
            return CompiledQuery { slices: vec![slice], plan: whole.plan };
        }
        let sliced = compile_sliced(query, id, config, stages_per_switch);
        let slices = sliced
            .slices
            .into_iter()
            .zip(sliced.slice_stage_counts)
            .zip(sliced.capture_sets)
            .map(|((rules, stages), capture)| CompiledSlice { rules, stages, capture })
            .collect();
        CompiledQuery { slices, plan: sliced.plan }
    }
}

/// Cache key: the query structure (name excluded), the full compiler
/// configuration and the stage budget. `Query` intentionally does not
/// implement `Hash`, so the structural part is its canonical `Debug`
/// rendering — stable, total, and collision-free (it spells out every
/// branch, primitive and merge).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    structure: String,
    registers_per_array: u32,
    register_offset: u32,
    bf_hashes: usize,
    cm_depth: usize,
    seed: u64,
    stages_per_switch: usize,
}

impl CacheKey {
    fn new(query: &Query, config: &CompilerConfig, stages_per_switch: usize) -> Self {
        CacheKey {
            structure: format!("{:?}|{:?}|{}", query.branches, query.merge, query.epoch_ms),
            registers_per_array: config.registers_per_array,
            register_offset: config.register_offset,
            bf_hashes: config.bf_hashes,
            cm_depth: config.cm_depth,
            seed: config.seed,
            stages_per_switch,
        }
    }
}

/// Hit/miss counters of one [`CompileCache`], for churn-bench reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The compilation cache. One per controller; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct CompileCache {
    entries: HashMap<CacheKey, CompiledQuery>,
    stats: CacheStats,
}

fn rebind_ruleset(rules: &mut RuleSet, id: QueryId) {
    for r in &mut rules.init {
        r.query = id;
    }
    for (_, r) in &mut rules.k {
        r.query = id;
    }
    for (_, r) in &mut rules.h {
        r.query = id;
    }
    for (_, r) in &mut rules.s {
        r.query = id;
    }
    for (_, r) in &mut rules.r {
        r.query = id;
    }
}

impl CompileCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Compile `query` as `id` for switches of `stages_per_switch` stages:
    /// whole if its composition fits, CQE slices otherwise. One lookup per
    /// call; a hit clones the stored compilation and rebinds its rules to
    /// `id`.
    pub fn compile(
        &mut self,
        query: &Query,
        id: QueryId,
        config: &CompilerConfig,
        stages_per_switch: usize,
    ) -> CompiledQuery {
        let key = CacheKey::new(query, config, stages_per_switch);
        let mut out = match self.entries.get(&key) {
            Some(c) => {
                self.stats.hits += 1;
                c.clone()
            }
            None => {
                self.stats.misses += 1;
                let c = CompiledQuery::new(query, id, config, stages_per_switch);
                self.entries.insert(key, c.clone());
                c
            }
        };
        for slice in &mut out.slices {
            rebind_ruleset(&mut slice.rules, id);
        }
        out
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newton_query::catalog;

    fn cfg() -> CompilerConfig {
        CompilerConfig::default()
    }

    /// The stage budget of one Tofino-class switch: every catalog query
    /// fits it whole.
    const WHOLE: usize = 12;

    #[test]
    fn fetch_equals_fresh_compile_with_rebound_id() {
        let mut cache = CompileCache::new();
        for q in catalog::all_queries() {
            let fresh = crate::compile(&q, 7, &cfg());
            let warm = cache.compile(&q, 7, &cfg(), WHOLE);
            assert_eq!(warm.slices.len(), 1, "{}: a query that fits is one slice", q.name);
            let slice = &warm.slices[0];
            assert_eq!(slice.rules, fresh.rules, "{}: warm-miss compile diverged", q.name);
            assert_eq!(slice.stages, fresh.composition.stages());
            assert_eq!(slice.capture, SetId::Set1);

            // Second fetch under a different id: every rule rebound.
            let hit = cache.compile(&q, 42, &cfg(), WHOLE);
            let direct = crate::compile(&q, 42, &cfg());
            assert_eq!(hit.slices[0].rules, direct.rules, "{}: rebound rules diverged", q.name);
            assert_eq!(format!("{:?}", hit.plan), format!("{:?}", direct.plan));
        }
    }

    #[test]
    fn renamed_query_is_a_hit_but_config_change_is_a_miss() {
        let mut cache = CompileCache::new();
        let q = catalog::q1_new_tcp();
        cache.compile(&q, 1, &cfg(), WHOLE);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1 });

        let mut renamed = q.clone();
        renamed.name = "q1_tight".into();
        cache.compile(&renamed, 2, &cfg(), WHOLE);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });

        let other = CompilerConfig { register_offset: 512, ..cfg() };
        cache.compile(&q, 3, &other, WHOLE);
        assert_eq!(cache.stats().misses, 2, "register slice geometry is part of the key");
    }

    #[test]
    fn sliced_fetch_matches_fresh_and_keys_on_budget() {
        let mut cache = CompileCache::new();
        let q = catalog::q4_port_scan();
        let same = |got: &CompiledQuery, want: &crate::SlicedCompilation| {
            assert_eq!(got.slices.len(), want.slice_count());
            for (c, slice) in got.slices.iter().enumerate() {
                assert_eq!(slice.rules, want.slices[c], "slice {c} rules diverged");
                assert_eq!(slice.stages, want.slice_stage_counts[c]);
                assert_eq!(slice.capture, want.capture_sets[c]);
            }
            assert_eq!(format!("{:?}", got.plan), format!("{:?}", want.plan));
        };
        let warm = cache.compile(&q, 3, &cfg(), 4);
        assert!(warm.slices.len() > 1, "Q4 exceeds a 4-stage budget");
        same(&warm, &compile_sliced(&q, 3, &cfg(), 4));

        let hit = cache.compile(&q, 9, &cfg(), 4);
        same(&hit, &compile_sliced(&q, 9, &cfg(), 4));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 }, "one lookup per compile");

        cache.compile(&q, 10, &cfg(), 6);
        assert_eq!(cache.stats().misses, 2, "stage budget is part of the key");
    }

    #[test]
    fn threshold_change_is_a_structural_miss() {
        // A retuned threshold changes the emitted ℝ rules, so it must not
        // collide with the original structure's cache entry.
        let mut cache = CompileCache::new();
        let q = catalog::q1_new_tcp();
        let a = cache.compile(&q, 1, &cfg(), WHOLE);
        let mut tighter = q.clone();
        for b in &mut tighter.branches {
            for p in &mut b.primitives {
                if let newton_query::ast::Primitive::ResultFilter { value, .. } = p {
                    *value += 5;
                }
            }
        }
        let b = cache.compile(&tighter, 1, &cfg(), WHOLE);
        assert_eq!(cache.stats().misses, 2);
        assert_ne!(a.slices, b.slices, "different thresholds compile differently");
    }
}
