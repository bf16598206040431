//! The full switch pipeline: parser → `newton_init` → stages → `newton_fin`.
//!
//! One [`Switch`] models one programmable pipeline. At initialization time
//! it is given a stage count and a module [`Layout`] (this corresponds to
//! loading the P4 program). From then on *everything* is runtime table-rule
//! operations: queries install/remove [`RuleSet`]s, and packet forwarding is
//! never interrupted — [`Switch::process`] keeps counting forwarded packets
//! no matter what rule churn happens between calls (the §6.1 claim).
//!
//! Cross-switch query execution: the controller assigns this switch a
//! [`SliceInfo`] per sliced query. Slice 0 is dispatched by `newton_init`;
//! later slices activate when an incoming result snapshot's cursor matches.
//! `newton_fin` captures an outgoing snapshot while slices remain.

use crate::exec::ExecPlan;
use crate::init::InitTable;
use crate::layout::{Layout, LayoutKind, ModuleAddr, ModuleKind};
use crate::modules::{
    BankStats, HModule, InstallError, KModule, RModule, SModule, DEFAULT_RULE_CAPACITY,
};
use crate::phv::{Phv, Report, SetId};
use crate::resources::ResourceVector;
use crate::rules::{QueryId, RuleSet};
use newton_packet::{FieldVector, Packet, SnapshotHeader};
use newton_sketch::FastMap;
use newton_telemetry::{Event, NoopSink, Telemetry};

/// Pipeline initialization parameters (the "P4 program" knobs).
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Physical stage count (Tofino: 12).
    pub stages: usize,
    /// Module layout loaded at init time.
    pub layout: LayoutKind,
    /// Registers per 𝕊 instance array.
    pub registers_per_array: usize,
    /// Rule capacity per module instance.
    pub rule_capacity: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            stages: 12,
            layout: LayoutKind::Compact,
            registers_per_array: 4096,
            rule_capacity: DEFAULT_RULE_CAPACITY,
        }
    }
}

/// One slice of a (possibly CQE-sliced) query held by this switch.
///
/// Resilient placement can assign a switch *several* slices of one query
/// (it may sit at different depths on different possible paths); each
/// slice's rules occupy a distinct stage range of the pipeline, and a
/// packet executes exactly the slice matching its snapshot cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceInfo {
    /// 0-based slice index this assignment executes.
    pub index: u8,
    /// Total slices of the query.
    pub total: u8,
    /// The metadata set `newton_fin` snapshots on egress.
    pub capture_set: SetId,
    /// The metadata set the incoming snapshot restores into (the previous
    /// slice's capture set; unused for slice 0).
    pub restore_set: SetId,
    /// Stage range `[lo, hi)` the slice's rules occupy on THIS switch.
    pub stages: (usize, usize),
}

impl SliceInfo {
    /// A whole (unsliced) query occupying the full pipeline.
    pub fn whole() -> Self {
        SliceInfo {
            index: 0,
            total: 1,
            capture_set: SetId::Set1,
            restore_set: SetId::Set1,
            stages: (0, usize::MAX),
        }
    }
}

/// One module instance in a stage.
#[derive(Debug, Clone)]
pub(crate) enum Instance {
    K(KModule),
    H(HModule),
    S(SModule),
    R(RModule),
}

impl Instance {
    pub(crate) fn kind(&self) -> ModuleKind {
        match self {
            Instance::K(_) => ModuleKind::KeySelection,
            Instance::H(_) => ModuleKind::HashCalculation,
            Instance::S(_) => ModuleKind::StateBank,
            Instance::R(_) => ModuleKind::ResultProcess,
        }
    }

    fn rule_count(&self) -> usize {
        match self {
            Instance::K(m) => m.rule_count(),
            Instance::H(m) => m.rule_count(),
            Instance::S(m) => m.rule_count(),
            Instance::R(m) => m.rule_count(),
        }
    }
}

/// Errors installing a rule set into a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchError {
    /// The address does not exist in this pipeline's layout.
    NoSuchInstance(ModuleAddr),
    /// The instance at the address hosts a different module kind.
    KindMismatch { addr: ModuleAddr, expected: ModuleKind, found: ModuleKind },
    /// The instance rejected the rule.
    Install(InstallError),
    /// A CQE slice assignment would make snapshot-cursor dispatch
    /// ambiguous: the result snapshot carries no query id, so at most one
    /// slice may resume at each cursor, and a query's slice 0 may be
    /// assigned at most once.
    SliceConflict { query: QueryId, index: u8, existing: QueryId },
}

impl std::fmt::Display for SwitchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwitchError::NoSuchInstance(a) => write!(f, "no module instance at {a}"),
            SwitchError::KindMismatch { addr, expected, found } => {
                write!(f, "instance at {addr} is {found}, rule needs {expected}")
            }
            SwitchError::Install(e) => write!(f, "install failed: {e}"),
            SwitchError::SliceConflict { query, index, existing } => write!(
                f,
                "slice {index} of query {query} conflicts with an existing slice of query \
                 {existing}: snapshots carry no query id, so each resume cursor must be unique"
            ),
        }
    }
}

impl std::error::Error for SwitchError {}

impl From<InstallError> for SwitchError {
    fn from(e: InstallError) -> Self {
        SwitchError::Install(e)
    }
}

/// Marker carried by packets whose queries are fully executed: the cursor
/// matches no slice, so downstream switches neither re-dispatch nor
/// resume; the header is stripped before host delivery.
pub const DEAD_MARKER: SnapshotHeader = SnapshotHeader {
    cursor: u8::MAX,
    active_mask: 0,
    hash_result: 0,
    state_result: 0,
    global_result: 0,
};

/// What one pipeline walk produced.
#[derive(Debug, Clone, Default)]
pub struct PipelineOutput {
    /// Reports mirrored to the analyzer.
    pub reports: Vec<Report>,
    /// Outgoing result snapshot, if the query continues on a later switch.
    pub snapshot: Option<SnapshotHeader>,
}

/// One physical stage's occupancy and resource utilization (see
/// [`Switch::stage_utilization`]) — the per-stage gauge behind the
/// Fig. 10–13 resource curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageUtilization {
    /// Module instances resident in the stage.
    pub modules: usize,
    /// Table rules installed across those instances.
    pub rules: usize,
    /// Hardware cost: layout cost + amortized rule share, absolute units.
    pub resources: ResourceVector,
}

/// A programmable switch running Newton modules.
#[derive(Debug, Clone)]
pub struct Switch {
    config: PipelineConfig,
    layout: Layout,
    init: InitTable,
    stages: Vec<Vec<Instance>>,
    slices: FastMap<QueryId, Vec<SliceInfo>>,
    forwarded: u64,
    /// Recompiled from `init`/`stages`/`slices`, for the queries a
    /// configuration call touches; [`process`](Self::process) only reads
    /// it.
    plan: ExecPlan,
    /// Reusable `newton_init` classification buffer of the packet path:
    /// `(program, branch mask)` pairs.
    classify: Vec<(u32, u32)>,
}

impl Switch {
    /// Initialize the pipeline (load the "P4 program").
    pub fn new(config: PipelineConfig) -> Self {
        let layout = Layout::new(config.layout, config.stages);
        let stages = (0..config.stages)
            .map(|s| {
                layout
                    .stage(s)
                    .iter()
                    .map(|kind| match kind {
                        ModuleKind::KeySelection => Instance::K(KModule::new(config.rule_capacity)),
                        ModuleKind::HashCalculation => {
                            Instance::H(HModule::new(config.rule_capacity))
                        }
                        ModuleKind::StateBank => Instance::S(SModule::new(
                            config.rule_capacity,
                            config.registers_per_array,
                        )),
                        ModuleKind::ResultProcess => {
                            Instance::R(RModule::new(config.rule_capacity))
                        }
                    })
                    .collect()
            })
            .collect();
        Switch {
            config,
            layout,
            init: InitTable::new(),
            stages,
            slices: FastMap::default(),
            forwarded: 0,
            plan: ExecPlan::default(),
            classify: Vec::new(),
        }
    }

    /// Recompile the programs of `queries` and patch the plan's indices
    /// (see [`ExecPlan`]). A configuration call recompiles the queries it
    /// touched once, before it returns, so the plan is never stale; the
    /// controller hands each switch its share of an operation as one
    /// [`apply_slices`](Self::apply_slices) call.
    fn recompile(&mut self, queries: &[QueryId]) {
        self.plan.recompile(queries, &self.init, &self.slices, &self.stages);
    }

    /// The plan and the `newton_init` table its classifier indexes.
    #[cfg(test)]
    pub(crate) fn plan(&self) -> (&ExecPlan, &InitTable) {
        (&self.plan, &self.init)
    }

    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Packets forwarded since construction — rule operations never pause
    /// this counter.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Install a compiled rule set. Atomic: on error nothing remains
    /// installed.
    pub fn install(&mut self, rules: &RuleSet) -> Result<(), SwitchError> {
        let result = self.install_rules(rules);
        self.recompile(&Self::ruleset_queries(rules));
        result
    }

    /// [`install`](Self::install) minus the recompile: on error every
    /// rule and slice assignment of the rule set's query is dropped again.
    fn install_rules(&mut self, rules: &RuleSet) -> Result<(), SwitchError> {
        let result = self.try_install(rules);
        if result.is_err() {
            if let Some(q) = Self::ruleset_query(rules) {
                self.drop_query(q);
            }
        }
        result
    }

    /// Every query a rule set holds rules of, sorted.
    fn ruleset_queries(rules: &RuleSet) -> Vec<QueryId> {
        let mut queries: Vec<QueryId> = (rules.init.iter().map(|r| r.query))
            .chain(rules.k.iter().map(|(_, r)| r.query))
            .chain(rules.h.iter().map(|(_, r)| r.query))
            .chain(rules.s.iter().map(|(_, r)| r.query))
            .chain(rules.r.iter().map(|(_, r)| r.query))
            .collect();
        queries.sort_unstable();
        queries.dedup();
        queries
    }

    fn ruleset_query(rules: &RuleSet) -> Option<QueryId> {
        rules
            .init
            .first()
            .map(|r| r.query)
            .or_else(|| rules.k.first().map(|(_, r)| r.query))
            .or_else(|| rules.h.first().map(|(_, r)| r.query))
            .or_else(|| rules.s.first().map(|(_, r)| r.query))
            .or_else(|| rules.r.first().map(|(_, r)| r.query))
    }

    fn try_install(&mut self, rules: &RuleSet) -> Result<(), SwitchError> {
        for r in &rules.init {
            self.init.install(r.clone());
        }
        for (addr, rule) in &rules.k {
            match self.instance_mut(*addr)? {
                Instance::K(m) => m.install(*rule)?,
                other => {
                    return Err(SwitchError::KindMismatch {
                        addr: *addr,
                        expected: ModuleKind::KeySelection,
                        found: other.kind(),
                    })
                }
            }
        }
        for (addr, rule) in &rules.h {
            match self.instance_mut(*addr)? {
                Instance::H(m) => m.install(*rule)?,
                other => {
                    return Err(SwitchError::KindMismatch {
                        addr: *addr,
                        expected: ModuleKind::HashCalculation,
                        found: other.kind(),
                    })
                }
            }
        }
        for (addr, rule) in &rules.s {
            match self.instance_mut(*addr)? {
                Instance::S(m) => m.install(*rule)?,
                other => {
                    return Err(SwitchError::KindMismatch {
                        addr: *addr,
                        expected: ModuleKind::StateBank,
                        found: other.kind(),
                    })
                }
            }
        }
        for (addr, rule) in &rules.r {
            match self.instance_mut(*addr)? {
                Instance::R(m) => m.install(rule.clone())?,
                other => {
                    return Err(SwitchError::KindMismatch {
                        addr: *addr,
                        expected: ModuleKind::ResultProcess,
                        found: other.kind(),
                    })
                }
            }
        }
        Ok(())
    }

    fn instance_mut(&mut self, addr: ModuleAddr) -> Result<&mut Instance, SwitchError> {
        self.stages
            .get_mut(addr.stage)
            .and_then(|s| s.get_mut(addr.slot))
            .ok_or(SwitchError::NoSuchInstance(addr))
    }

    /// Remove every rule of a query; returns the number of rules removed
    /// (init entries included). A switch that held nothing of the query
    /// keeps its plan.
    pub fn remove_query(&mut self, query: QueryId) -> usize {
        let (removed, held) = self.drop_query(query);
        if held {
            self.recompile(&[query]);
        }
        removed
    }

    /// Drop every rule and the slice assignments of `query`, leaving the
    /// plan alone. Returns the rules removed and whether the switch held
    /// anything of the query.
    fn drop_query(&mut self, query: QueryId) -> (usize, bool) {
        let removed =
            self.init.remove_query(query) + self.remove_rules_in_stages(query, 0, usize::MAX);
        let assigned = self.slices.remove(&query).is_some();
        (removed, removed > 0 || assigned)
    }

    /// Find an assignment `slice` would clash with: a later slice resuming
    /// at the same snapshot cursor (of *any* query — the snapshot carries
    /// no query id, making such dispatch ambiguous), or a duplicate
    /// slice-0 assignment of the same query. With `skip_own`, the query's
    /// existing assignments are ignored (they are being replaced).
    fn slice_conflict(&self, query: QueryId, slice: SliceInfo, skip_own: bool) -> Option<QueryId> {
        for (&q, infos) in &self.slices {
            if skip_own && q == query {
                continue;
            }
            for info in infos {
                let ambiguous_resume = slice.index > 0 && info.index == slice.index;
                let duplicate_dispatch = slice.index == 0 && q == query && info.index == 0;
                if ambiguous_resume || duplicate_dispatch {
                    return Some(q);
                }
            }
        }
        None
    }

    /// Assign one CQE slice of `query` to this switch (a switch may hold
    /// several slices of one query at disjoint stage ranges). Rejects
    /// assignments that would make snapshot-cursor dispatch ambiguous.
    pub fn add_slice(&mut self, query: QueryId, slice: SliceInfo) -> Result<(), SwitchError> {
        self.assign_slice(query, slice)?;
        self.recompile(&[query]);
        Ok(())
    }

    /// [`add_slice`](Self::add_slice) minus the recompile.
    fn assign_slice(&mut self, query: QueryId, slice: SliceInfo) -> Result<(), SwitchError> {
        if let Some(existing) = self.slice_conflict(query, slice, false) {
            return Err(SwitchError::SliceConflict { query, index: slice.index, existing });
        }
        self.slices.entry(query).or_default().push(slice);
        Ok(())
    }

    /// Replace all slice assignments of `query` with a single one. Rejects
    /// assignments that would make snapshot-cursor dispatch ambiguous.
    pub fn set_slice(&mut self, query: QueryId, slice: SliceInfo) -> Result<(), SwitchError> {
        if let Some(existing) = self.slice_conflict(query, slice, true) {
            return Err(SwitchError::SliceConflict { query, index: slice.index, existing });
        }
        self.slices.insert(query, vec![slice]);
        self.recompile(&[query]);
        Ok(())
    }

    /// Change `query`'s slices on this switch in one configuration step,
    /// the unit the controller issues once per touched switch and
    /// operation: drop the held slices indexed by `remove`, then install
    /// each `(rules, slice)` pair of `add` (the rule set, then its
    /// assignment), then recompile the touched queries once. Returns the
    /// rules removed; an index in `remove` that is not held removes
    /// nothing.
    ///
    /// Dropping a slice removes the query's module rules within the
    /// slice's stage range, its `newton_init` entries when it is slice 0,
    /// and the assignment, leaving the query's other slices untouched.
    /// That is sound because slices of one query occupy disjoint stage
    /// ranges, so a module instance only ever hosts rules of one slice per
    /// query.
    ///
    /// Errors stop at the failing pair with the effects of the same
    /// sequence of single calls: a rejected rule set leaves nothing of its
    /// query on the switch, as in [`install`](Self::install); a rejected
    /// assignment ([`SwitchError::SliceConflict`]) leaves its rule set
    /// installed and unassigned for the caller to clean up. The plan is
    /// recompiled before any return.
    pub fn apply_slices(
        &mut self,
        query: QueryId,
        remove: &[u8],
        add: &[(RuleSet, SliceInfo)],
    ) -> Result<usize, SwitchError> {
        let removed = remove.iter().map(|&index| self.drop_slice(query, index)).sum();
        let result = add.iter().try_for_each(|(rules, slice)| {
            self.install_rules(rules)?;
            self.assign_slice(query, *slice)
        });
        let mut touched = vec![query];
        for (rules, _) in add {
            touched.extend(Self::ruleset_queries(rules));
        }
        touched.sort_unstable();
        touched.dedup();
        self.recompile(&touched);
        result.map(|()| removed)
    }

    /// Drop slice `index` of `query` (see
    /// [`apply_slices`](Self::apply_slices)), leaving the plan alone.
    /// Returns the rules removed.
    fn drop_slice(&mut self, query: QueryId, index: u8) -> usize {
        let Some(pos) =
            self.slices.get(&query).and_then(|v| v.iter().position(|i| i.index == index))
        else {
            return 0;
        };
        let (lo, hi) = self.slices[&query][pos].stages;
        let mut removed = self.remove_rules_in_stages(query, lo, hi);
        if index == 0 {
            removed += self.init.remove_query(query);
        }
        let infos = self.slices.get_mut(&query).expect("checked above");
        infos.remove(pos);
        if infos.is_empty() {
            self.slices.remove(&query);
        }
        removed
    }

    /// Remove `query`'s module rules in stages `[lo, hi)`; returns the
    /// count. Init entries are stage-less and not touched here.
    fn remove_rules_in_stages(&mut self, query: QueryId, lo: usize, hi: usize) -> usize {
        let hi = hi.min(self.stages.len());
        let lo = lo.min(hi);
        let mut removed = 0usize;
        for stage in &mut self.stages[lo..hi] {
            for inst in stage {
                removed += match inst {
                    Instance::K(m) => m.remove_query(query),
                    Instance::H(m) => m.remove_query(query),
                    Instance::S(m) => m.remove_query(query),
                    Instance::R(m) => m.remove_query(query),
                };
            }
        }
        removed
    }

    /// The slice assignments for `query` (a whole query if unassigned).
    pub fn slices_of(&self, query: QueryId) -> Vec<SliceInfo> {
        self.slices.get(&query).cloned().unwrap_or_else(|| vec![SliceInfo::whole()])
    }

    /// The slice assignments *explicitly* held for `query` — empty when
    /// the switch holds nothing, unlike [`slices_of`](Self::slices_of)
    /// which defaults to a whole-query view. Repair uses this to tell
    /// "never placed here" apart from "placed as a whole query".
    pub fn assigned_slices(&self, query: QueryId) -> &[SliceInfo] {
        self.slices.get(&query).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total installed rules (init + modules).
    pub fn total_rule_count(&self) -> usize {
        self.init.rule_count()
            + self.stages.iter().flatten().map(Instance::rule_count).sum::<usize>()
    }

    /// Hardware cost of the loaded layout.
    pub fn layout_cost(&self) -> ResourceVector {
        self.layout.total_cost()
    }

    /// Rules installed for one query (init entries included).
    pub fn rules_of_query(&self, query: QueryId) -> usize {
        let init = self.init.rules().iter().filter(|r| r.query == query).count();
        let modules: usize = self
            .stages
            .iter()
            .flatten()
            .map(|inst| match inst {
                Instance::K(m) => m.rules().iter().filter(|r| r.query == query).count(),
                Instance::H(m) => m.rules().iter().filter(|r| r.query == query).count(),
                Instance::S(m) => m.rules().iter().filter(|r| r.query == query).count(),
                Instance::R(m) => m.rules().iter().filter(|r| r.query == query).count(),
            })
            .sum();
        init + modules
    }

    /// Canonical rendering of the switch's installed configuration: every
    /// init entry, every module rule per stage and instance slot, and the
    /// slice assignments sorted by (query, index). Two switches with equal
    /// digests are configured identically — the churn equivalence tests
    /// compare diff-installed switches against from-scratch twins through
    /// this. (Register *contents* are runtime state, not configuration,
    /// and are excluded; run-report comparisons cover them.)
    ///
    /// Each table's rules are stable-sorted by query id before rendering:
    /// inter-query order within a table carries no behavioral weight (the
    /// classifier and resume paths sort by query id, and ℝ tie-breaking is
    /// per-query), but it does differ between a diff install — which leaves
    /// unchanged rules in place — and a from-scratch reinstall, which
    /// appends everything. Intra-query order, which ℝ tie-breaking *does*
    /// observe, is preserved by the stable sort.
    pub fn config_digest(&self) -> String {
        use std::fmt::Write as _;
        fn by_query<R: Clone>(rules: &[R], query: impl Fn(&R) -> QueryId) -> Vec<R> {
            let mut v = rules.to_vec();
            v.sort_by_key(query);
            v
        }
        let mut out = String::new();
        let _ = writeln!(out, "init={:?}", by_query(self.init.rules(), |r| r.query));
        for (si, stage) in self.stages.iter().enumerate() {
            for (ii, inst) in stage.iter().enumerate() {
                let _ = match inst {
                    Instance::K(m) => {
                        writeln!(out, "s{si}i{ii}K={:?}", by_query(m.rules(), |r| r.query))
                    }
                    Instance::H(m) => {
                        writeln!(out, "s{si}i{ii}H={:?}", by_query(m.rules(), |r| r.query))
                    }
                    Instance::S(m) => {
                        writeln!(out, "s{si}i{ii}S={:?}", by_query(m.rules(), |r| r.query))
                    }
                    Instance::R(m) => {
                        writeln!(out, "s{si}i{ii}R={:?}", by_query(m.rules(), |r| r.query))
                    }
                };
            }
        }
        let mut assigns: Vec<(QueryId, SliceInfo)> =
            self.slices.iter().flat_map(|(q, infos)| infos.iter().map(move |i| (*q, *i))).collect();
        assigns.sort_by_key(|(q, i)| (*q, i.index));
        let _ = writeln!(out, "slices={assigns:?}");
        out
    }

    /// Apply `f` to every ℝ rule of `query` across the pipeline — the
    /// in-place rule-update path (§2.1: "operators can update table rules
    /// in running switches"). Returns the number of rules modified.
    ///
    /// A retune changes rule payloads only, never which slices or
    /// `newton_init` entries the query has, so it re-decodes the query's
    /// program in place and leaves the plan's indices alone.
    pub fn update_r_rules(
        &mut self,
        query: QueryId,
        f: &mut dyn FnMut(&mut crate::rules::RRule),
    ) -> usize {
        let mut touched = 0;
        for stage in &mut self.stages {
            for inst in stage {
                if let Instance::R(m) = inst {
                    touched += m.update_rules(query, f);
                }
            }
        }
        if touched > 0 {
            self.plan.redecode(query, &self.stages);
        }
        touched
    }

    /// Aggregate hardware usage: the loaded layout's instance costs plus
    /// each installed rule's amortized share of its instance (per the
    /// Table 3 per-primitive accounting: one rule = 1/capacity of the
    /// instance).
    pub fn resource_usage(&self) -> ResourceVector {
        let mut total = self.layout.total_cost();
        for (si, stage) in self.stages.iter().enumerate() {
            for (slot, inst) in stage.iter().enumerate() {
                let kind = self.layout.kind_at(ModuleAddr { stage: si, slot }).expect("laid out");
                let share = inst.rule_count() as f64 / self.config.rule_capacity as f64;
                total += kind.cost() * share;
            }
        }
        total
    }

    /// Worst-case rule-table occupancy across module instances, as a
    /// fraction of capacity — the headroom gauge for "how many more
    /// concurrent queries fit" (§4.1's capacity discussion).
    pub fn peak_table_occupancy(&self) -> f64 {
        self.stages
            .iter()
            .flatten()
            .map(|i| i.rule_count() as f64 / self.config.rule_capacity as f64)
            .fold(0.0, f64::max)
    }

    /// Does nothing: the per-packet walk keeps no batch scratch to
    /// pre-size. Kept only because the `perfbench/` harness still calls it.
    pub fn reserve_batch(&mut self, _pkts: usize, _lanes: usize) {}

    /// Reset all stateful memory (epoch boundary).
    pub fn clear_state(&mut self) {
        for stage in &mut self.stages {
            for inst in stage {
                if let Instance::S(m) = inst {
                    m.clear_registers();
                }
            }
        }
    }

    /// Drain the state-bank activity counters accumulated since the last
    /// call, summed over every 𝕊 instance (end-of-epoch telemetry; call
    /// *before* [`clear_state`](Self::clear_state)).
    pub fn take_bank_stats(&mut self) -> BankStats {
        let mut total = BankStats::default();
        for stage in &mut self.stages {
            for inst in stage {
                if let Instance::S(m) = inst {
                    total.merge(&m.take_stats());
                }
            }
        }
        total
    }

    /// Occupancy and resource utilization of one physical stage: resident
    /// module instances, their installed rules, and the stage's hardware
    /// cost (layout cost plus each rule's amortized 1/capacity share of
    /// its instance — the same accounting as
    /// [`resource_usage`](Self::resource_usage), per stage).
    pub fn stage_utilization(&self, stage: usize) -> StageUtilization {
        let instances = &self.stages[stage];
        let mut resources = self.layout.stage_cost(stage);
        let mut rules = 0usize;
        for (slot, inst) in instances.iter().enumerate() {
            let kind = self.layout.kind_at(ModuleAddr { stage, slot }).expect("laid out");
            rules += inst.rule_count();
            resources +=
                kind.cost() * (inst.rule_count() as f64 / self.config.rule_capacity as f64);
        }
        StageUtilization { modules: instances.len(), rules, resources }
    }

    /// Process one packet: forward it, execute matching query slices,
    /// return reports and an outgoing snapshot. This is
    /// [`process_into`](Self::process_into) with the reports collected
    /// into a fresh vector.
    #[inline]
    pub fn process(&mut self, pkt: &Packet, sp_in: Option<&SnapshotHeader>) -> PipelineOutput {
        self.process_sink(pkt, sp_in, &mut NoopSink)
    }

    /// [`process`](Self::process) with a telemetry sink: emits one
    /// [`Event::SwitchReport`] per report the walk produced, in emission
    /// order. Every sink touch sits behind `T::ENABLED`, a compile-time
    /// constant, so with [`newton_telemetry::NoopSink`] this
    /// monomorphizes to the uninstrumented path — the perf bench gates
    /// that at < 2 % overhead on the pipeline hot path.
    pub fn process_sink<T: Telemetry>(
        &mut self,
        pkt: &Packet,
        sp_in: Option<&SnapshotHeader>,
        sink: &mut T,
    ) -> PipelineOutput {
        let mut out = PipelineOutput::default();
        out.snapshot = self.process_into(pkt, sp_in, &mut out.reports);
        if T::ENABLED {
            for r in &out.reports {
                sink.record(Event::SwitchReport {
                    query: r.query,
                    branch: r.branch,
                    hash: r.hash_result,
                    state: r.state_result,
                });
            }
        }
        out
    }

    /// The per-hop call: forward one packet, execute matching query
    /// slices, append their reports to `reports` in emission order, and
    /// return the outgoing snapshot.
    ///
    /// The snapshot header doubles as a **processed marker**: resilient
    /// placement (Algorithm 2) installs slice 0 on *every* edge switch, so
    /// a monitored packet transiting a second slice-0 holder must not
    /// re-execute the query. Slice 0 therefore runs only on SP-less
    /// packets; once any query executed, the packet carries the header
    /// until the last Newton hop strips it (done by `newton-net` before
    /// host delivery). A fully-executed query's marker has
    /// `cursor = u8::MAX`, matching no slice.
    ///
    /// The packet's lanes — every slice-0 query `newton_init` classifies,
    /// in classification order, or the one slice the incoming snapshot's
    /// cursor resumes — each walk their query's decoded steps in turn. A
    /// snapshot no slice here resumes passes through unchanged; on a
    /// switch that resumes no slice at all, that costs one length check.
    #[inline]
    pub fn process_into(
        &mut self,
        pkt: &Packet,
        sp_in: Option<&SnapshotHeader>,
        reports: &mut Vec<Report>,
    ) -> Option<SnapshotHeader> {
        self.forwarded += 1;
        let Switch { stages, plan, classify, .. } = self;
        match sp_in {
            // Slice-0 queries dispatched by newton_init.
            None => plan.run_fresh(stages, FieldVector::from_packet(pkt), classify, reports),
            Some(sp) if plan.resumes_none() => Some(*sp),
            // The later slice resumed from the incoming snapshot cursor
            // (unique by construction) continues to the next slice or
            // dies; with no slice to resume, the header passes through.
            Some(sp) => {
                Some(plan.run_resumed(stages, || FieldVector::from_packet(pkt), sp, reports))
            }
        }
    }

    /// The seed (pre-plan) packet path, retained as the behavioural
    /// reference: re-derives dispatch from the mutable rule tables on
    /// every packet and clones the PHV per stage. Equivalence proptests
    /// and `--bench perf` compare [`process`](Self::process) against it.
    pub fn process_reference(
        &mut self,
        pkt: &Packet,
        sp_in: Option<&SnapshotHeader>,
    ) -> PipelineOutput {
        self.forwarded += 1;
        let mut out = PipelineOutput::default();

        match sp_in {
            None => {
                let mut continuation: Option<SnapshotHeader> = None;
                let mut executed = false;
                for (mut phv, info) in self.slice0_walks(pkt) {
                    self.walk_reference(&mut phv, info.stages, |_, _, _| {});
                    out.reports.append(&mut phv.reports);
                    executed = true;
                    if info.total > 1 && phv.any_active() {
                        continuation = Some(phv.capture_snapshot(1, info.capture_set));
                    }
                }
                out.snapshot = continuation.or(if executed { Some(DEAD_MARKER) } else { None });
            }
            Some(sp) => {
                let mut next = *sp;
                let resume: Vec<(QueryId, SliceInfo)> = self
                    .slices
                    .iter()
                    .flat_map(|(&q, infos)| infos.iter().map(move |&i| (q, i)))
                    .filter(|(_, i)| i.index == sp.cursor && i.index > 0)
                    .collect();
                for (query, info) in resume {
                    let mut phv = Phv::new(pkt, query, 0);
                    phv.restore_snapshot(sp, info.restore_set);
                    if !phv.any_active() {
                        next = DEAD_MARKER;
                        continue;
                    }
                    self.walk_reference(&mut phv, info.stages, |_, _, _| {});
                    out.reports.append(&mut phv.reports);
                    next = if info.index + 1 < info.total && phv.any_active() {
                        phv.capture_snapshot(info.index + 1, info.capture_set)
                    } else {
                        DEAD_MARKER
                    };
                }
                out.snapshot = Some(next);
            }
        }
        out
    }

    /// The slice-0 walks `newton_init` dispatches for a fresh packet, in
    /// classification order: one PHV per classified query this switch
    /// holds slice 0 of, with that slice's assignment. A classified query
    /// held only as a later slice is skipped.
    pub(crate) fn slice0_walks(&self, pkt: &Packet) -> Vec<(Phv, SliceInfo)> {
        self.init
            .classify(pkt)
            .into_iter()
            .filter_map(|(query, branch_mask)| {
                let info = self.slices_of(query).into_iter().find(|i| i.index == 0)?;
                let mut phv = Phv::new(pkt, query, 0);
                phv.active_branches = branch_mask;
                Some((phv, info))
            })
            .collect()
    }

    /// Walk the PHV through the stages in `range` with per-stage parallel
    /// semantics: every instance in a stage reads the stage-entry PHV and
    /// writes into the stage-exit PHV. `observe(stage, entry, exit)` sees
    /// every stage that ran. Seed implementation kept for
    /// [`process_reference`](Self::process_reference) and
    /// [`debug::trace_packet`](crate::debug::trace_packet).
    pub(crate) fn walk_reference(
        &mut self,
        phv: &mut Phv,
        range: (usize, usize),
        mut observe: impl FnMut(usize, &Phv, &Phv),
    ) {
        let hi = range.1.min(self.stages.len());
        let lo = range.0.min(hi);
        for (stage, insts) in self.stages[lo..hi].iter_mut().enumerate() {
            if !phv.any_active() {
                break;
            }
            let input = phv.clone();
            for inst in insts.iter_mut() {
                match inst {
                    Instance::K(m) => m.execute(&input, phv),
                    Instance::H(m) => m.execute(&input, phv),
                    Instance::S(m) => m.execute(&input, phv),
                    Instance::R(m) => m.execute(&input, phv),
                }
            }
            observe(lo + stage, &input, phv);
        }
    }

    /// Read an 𝕊 instance's register (tests, analyzer state drains).
    pub fn read_register(&self, addr: ModuleAddr, idx: usize) -> Option<u32> {
        match self.stages.get(addr.stage)?.get(addr.slot)? {
            Instance::S(m) => Some(m.register(idx)),
            _ => None,
        }
    }

    /// Read a register through a query's slice mapping: `addr` is relative
    /// to the slice's own stage numbering; this translates by the slice's
    /// stage offset on this switch. `None` if this switch does not hold
    /// the slice.
    pub fn read_slice_register(
        &self,
        query: QueryId,
        slice_index: u8,
        addr: ModuleAddr,
        idx: usize,
    ) -> Option<u32> {
        let infos = self.slices.get(&query)?;
        let info = infos.iter().find(|i| i.index == slice_index)?;
        let phys = ModuleAddr { stage: info.stages.0.saturating_add(addr.stage), slot: addr.slot };
        self.read_register(phys, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Operand;
    use crate::rules::{HRule, HashMode, InitRule, KRule, RAction, RMatch, RRule, SRule, SaluOp};
    use newton_packet::{Field, PacketBuilder, TcpFlags};

    /// Hand-compile a tiny Q1-style query: count SYNs per dst, report ≥ 3.
    fn tiny_q1(query: QueryId) -> RuleSet {
        let set = SetId::Set1;
        RuleSet {
            init: vec![InitRule {
                query,
                branch_mask: 1,
                matches: vec![(Field::Proto, 6, 0xFF), (Field::TcpFlags, 2, 0xFF)],
            }],
            k: vec![(
                ModuleAddr { stage: 0, slot: 0 },
                KRule { query, branch: 0, set, mask: Field::DstIp.mask() },
            )],
            h: vec![(
                ModuleAddr { stage: 1, slot: 1 },
                HRule {
                    query,
                    branch: 0,
                    set,
                    mode: HashMode::Hash { seed: 11, range: 1024 },
                    offset: 0,
                },
            )],
            s: vec![(
                ModuleAddr { stage: 2, slot: 2 },
                SRule { query, branch: 0, set, op: SaluOp::Add(Operand::Const(1)) },
            )],
            r: vec![(
                ModuleAddr { stage: 3, slot: 3 },
                RRule {
                    query,
                    branch: 0,
                    set,
                    priority: 1,
                    state_match: RMatch::at_least(3),
                    global_match: RMatch::ANY,
                    actions: vec![RAction::Report],
                },
            )],
        }
    }

    fn syn_to(dst: u32) -> newton_packet::Packet {
        PacketBuilder::new().dst_ip(dst).tcp_flags(TcpFlags::SYN).build()
    }

    #[test]
    fn install_walk_report() {
        let mut sw = Switch::new(PipelineConfig::default());
        sw.install(&tiny_q1(1)).unwrap();
        // Two SYNs: below threshold.
        assert!(sw.process(&syn_to(9), None).reports.is_empty());
        assert!(sw.process(&syn_to(9), None).reports.is_empty());
        // Third SYN crosses the threshold.
        let out = sw.process(&syn_to(9), None);
        assert_eq!(out.reports.len(), 1);
        assert_eq!(out.reports[0].state_result, 3);
        assert_eq!(out.reports[0].query, 1);
        // Non-matching traffic executes nothing.
        let udp = PacketBuilder::new().protocol(newton_packet::Protocol::Udp).build();
        assert!(sw.process(&udp, None).reports.is_empty());
    }

    #[test]
    fn forwarding_counter_never_pauses_across_rule_ops() {
        let mut sw = Switch::new(PipelineConfig::default());
        for _ in 0..5 {
            sw.process(&syn_to(1), None);
        }
        sw.install(&tiny_q1(1)).unwrap();
        for _ in 0..5 {
            sw.process(&syn_to(1), None);
        }
        sw.remove_query(1);
        for _ in 0..5 {
            sw.process(&syn_to(1), None);
        }
        assert_eq!(sw.forwarded(), 15, "every packet forwarded regardless of rule churn");
    }

    #[test]
    fn remove_query_erases_all_rules_and_behaviour() {
        let mut sw = Switch::new(PipelineConfig::default());
        sw.install(&tiny_q1(1)).unwrap();
        assert_eq!(sw.total_rule_count(), 5);
        let removed = sw.remove_query(1);
        assert_eq!(removed, 5);
        assert_eq!(sw.total_rule_count(), 0);
        for _ in 0..10 {
            assert!(sw.process(&syn_to(9), None).reports.is_empty());
        }
    }

    #[test]
    fn epoch_clear_resets_counts() {
        let mut sw = Switch::new(PipelineConfig::default());
        sw.install(&tiny_q1(1)).unwrap();
        for _ in 0..3 {
            sw.process(&syn_to(9), None);
        }
        sw.clear_state();
        // Counts restart: two more SYNs stay below threshold.
        assert!(sw.process(&syn_to(9), None).reports.is_empty());
        assert!(sw.process(&syn_to(9), None).reports.is_empty());
    }

    #[test]
    fn install_is_atomic_on_error() {
        let mut sw = Switch::new(PipelineConfig::default());
        let mut rs = tiny_q1(1);
        // Sabotage: point the S rule at a K slot.
        rs.s[0].0 = ModuleAddr { stage: 0, slot: 0 };
        assert!(sw.install(&rs).is_err());
        assert_eq!(sw.total_rule_count(), 0, "failed install must leave nothing behind");
    }

    #[test]
    fn empty_hash_range_is_rejected_and_leaves_nothing() {
        let mut sw = Switch::new(PipelineConfig::default());
        let mut rs = tiny_q1(1);
        rs.h[0].1.mode = HashMode::Hash { seed: 11, range: 0 };
        assert_eq!(
            sw.install(&rs),
            Err(SwitchError::Install(InstallError::EmptyHashRange { query: 1, branch: 0 }))
        );
        assert_eq!(sw.total_rule_count(), 0, "failed install must leave nothing behind");
        // The packet path has nothing of the query to run.
        assert!(sw.process(&syn_to(9), None).snapshot.is_none());
    }

    #[test]
    fn bad_address_is_rejected() {
        let mut sw = Switch::new(PipelineConfig { stages: 2, ..Default::default() });
        let mut rs = tiny_q1(1);
        rs.r[0].0 = ModuleAddr { stage: 99, slot: 0 };
        assert!(matches!(sw.install(&rs), Err(SwitchError::NoSuchInstance(_))));
    }

    #[test]
    fn cqe_two_switch_execution() {
        // Slice the tiny query: K+H on switch A (stages 0-1), S+R on
        // switch B (stages 2-3 → shifted to 0-1).
        let full = tiny_q1(1);
        let slice_a = full.slice_stages(0, 2);
        let slice_b = full.slice_stages(2, 4);

        let mut a = Switch::new(PipelineConfig::default());
        let mut b = Switch::new(PipelineConfig::default());
        a.install(&slice_a).unwrap();
        b.install(&slice_b).unwrap();
        a.set_slice(
            1,
            SliceInfo {
                index: 0,
                total: 2,
                capture_set: SetId::Set1,
                restore_set: SetId::Set1,
                stages: (0, 12),
            },
        )
        .unwrap();
        b.set_slice(
            1,
            SliceInfo {
                index: 1,
                total: 2,
                capture_set: SetId::Set1,
                restore_set: SetId::Set1,
                stages: (0, 12),
            },
        )
        .unwrap();

        let mut reports = Vec::new();
        for _ in 0..3 {
            let out_a = a.process(&syn_to(9), None);
            assert!(out_a.reports.is_empty(), "A has no R module");
            let sp = out_a.snapshot.expect("A must emit a snapshot");
            assert_eq!(sp.cursor, 1);
            let out_b = b.process(&syn_to(9), Some(&sp));
            assert_eq!(
                out_b.snapshot,
                Some(DEAD_MARKER),
                "B is the last slice: the header becomes a processed marker"
            );
            reports.extend(out_b.reports);
        }
        assert_eq!(reports.len(), 1, "threshold crossed exactly once at hop B");
        assert_eq!(reports[0].state_result, 3);
    }

    #[test]
    fn naive_layout_hosts_one_module_per_stage() {
        let mut sw = Switch::new(PipelineConfig {
            layout: LayoutKind::Naive,
            stages: 4,
            ..Default::default()
        });
        // The naive layout is K,H,S,R at slots 0 of stages 0..4.
        let mut rs = tiny_q1(1);
        rs.k[0].0 = ModuleAddr { stage: 0, slot: 0 };
        rs.h[0].0 = ModuleAddr { stage: 1, slot: 0 };
        rs.s[0].0 = ModuleAddr { stage: 2, slot: 0 };
        rs.r[0].0 = ModuleAddr { stage: 3, slot: 0 };
        sw.install(&rs).unwrap();
        for _ in 0..2 {
            sw.process(&syn_to(5), None);
        }
        assert_eq!(sw.process(&syn_to(5), None).reports.len(), 1);
    }

    #[test]
    fn conflicting_resume_cursors_rejected() {
        // Regression: the seed `process` silently dropped the first
        // query's continuation when two queries resumed at one cursor
        // (the loop overwrote `next`). The ambiguity is now rejected at
        // assignment time — the snapshot header carries no query id.
        let slice = |index: u8, total: u8| SliceInfo {
            index,
            total,
            capture_set: SetId::Set1,
            restore_set: SetId::Set1,
            stages: (0, 12),
        };
        let mut sw = Switch::new(PipelineConfig::default());
        sw.set_slice(1, slice(1, 3)).unwrap();
        let err = sw.add_slice(2, slice(1, 2)).unwrap_err();
        assert!(
            matches!(err, SwitchError::SliceConflict { query: 2, index: 1, existing: 1 }),
            "cursor-1 resume already taken by query 1, got {err:?}"
        );
        assert!(sw.set_slice(2, slice(1, 2)).is_err(), "set_slice checks other queries too");

        // Duplicate index of the SAME query is just as ambiguous.
        assert!(sw.add_slice(1, slice(1, 3)).is_err());

        // Distinct cursors and slice-0 assignments coexist fine.
        sw.add_slice(1, slice(2, 3)).unwrap();
        sw.set_slice(2, slice(0, 2)).unwrap();
        sw.add_slice(3, slice(0, 2)).unwrap();
        // Replacing a query's own assignment never self-conflicts.
        sw.set_slice(1, slice(1, 3)).unwrap();
    }

    #[test]
    fn planned_process_matches_reference() {
        // Two switches with identical config: one runs the compiled-plan
        // path, the other the seed path; outputs must be bit-identical.
        let mut planned = Switch::new(PipelineConfig::default());
        let mut reference = Switch::new(PipelineConfig::default());
        planned.install(&tiny_q1(1)).unwrap();
        reference.install(&tiny_q1(1)).unwrap();
        for i in 0..8 {
            let pkt = syn_to(i % 3);
            let a = planned.process(&pkt, None);
            let b = reference.process_reference(&pkt, None);
            assert_eq!(a.reports, b.reports);
            assert_eq!(a.snapshot, b.snapshot);
        }
        let s_addr = ModuleAddr { stage: 2, slot: 2 };
        for idx in 0..16 {
            assert_eq!(planned.read_register(s_addr, idx), reference.read_register(s_addr, idx));
        }
    }

    #[test]
    fn dependent_modules_in_same_stage_see_stale_inputs() {
        // Install K and H in the SAME stage: H reads the stage-entry op
        // keys (zero), demonstrating the write-read dependency the compact
        // layout must respect (Fig. 4).
        let mut sw = Switch::new(PipelineConfig::default());
        let mut rs = tiny_q1(1);
        rs.h[0].0 = ModuleAddr { stage: 0, slot: 1 }; // same stage as K
        rs.h[0].1.mode = HashMode::Direct(Field::DstIp);
        sw.install(&rs).unwrap();
        sw.process(&syn_to(0xAABB), None);
        // S indexed by hash of stale (zero) keys → register 0 counted, not
        // the register for dst 0xAABB.
        let s_addr = ModuleAddr { stage: 2, slot: 2 };
        assert_eq!(sw.read_register(s_addr, 0), Some(1));
    }
}
