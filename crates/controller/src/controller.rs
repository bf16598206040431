//! The controller facade: compile → place → install, remove, update.
//!
//! All operations are pure table-rule manipulation on live switches;
//! packet forwarding continues throughout (the §6.1 property — contrast
//! with the Sonata reboot model in `newton-baselines`).

use crate::placement::{place_parts, reachable_depth, Placement};
use crate::timing::RuleTimingModel;
use newton_compiler::{
    CacheStats, CompileCache, CompiledQuery, CompiledSlice, CompilerConfig, QueryPlan,
};
use newton_dataplane::{QueryId, RuleSet, SliceInfo, SwitchError};
use newton_net::{Network, Topology};
use newton_query::Query;
use std::collections::HashMap;
use std::fmt;

/// Outcome of one query operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstallReceipt {
    pub id: QueryId,
    /// Wall-clock the rule channel took (max over switches — installs are
    /// issued in parallel), from the timing model.
    pub delay_ms: f64,
    /// Total rules touched network-wide.
    pub rules: usize,
    /// Switches touched.
    pub switches: usize,
    /// CQE slices the query was cut into.
    pub slices: usize,
    /// Slices beyond the network's reachable depth: they can never execute
    /// on the data plane, so the query's remainder defers to the software
    /// analyzer (§5.2).
    pub overflow_slices: usize,
    /// Whether the diff-install path served this operation (only ever set
    /// by [`Controller::update`]; plain installs/removals are full-path
    /// by definition).
    pub diff: bool,
}

/// One installed query's bookkeeping. Keeps the compiled artifacts so the
/// controller can re-place slices after a switch failure (or restore the
/// old query when an update's install fails) without recompiling.
#[derive(Debug, Clone)]
pub struct InstalledQuery {
    /// The analyzer plan (probe addresses are slice-relative).
    pub plan: QueryPlan,
    pub placement: Placement,
    /// The original intent — drives the software-interpreter fallback when
    /// a failure degrades the query below data-plane coverage.
    pub query: Query,
    /// The compiled slices, unshifted (stage 0 based).
    pub slices: Vec<CompiledSlice>,
}

/// Outcome of one [`Controller::repair`] pass over the live topology.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepairOutcome {
    /// Installed queries examined.
    pub examined: usize,
    /// Queries that had missing slices re-placed this pass.
    pub repaired: Vec<QueryId>,
    /// Queries the live data plane cannot fully execute right now
    /// (placement no longer fits, or the healthy subgraph is too shallow /
    /// partitioned) — they must run on the software analyzer until a later
    /// pass clears them.
    pub degraded: Vec<QueryId>,
    /// Rules pushed network-wide by this pass.
    pub rules_installed: usize,
    /// Switches that received rules.
    pub switches_touched: usize,
    /// Modelled rule-channel wall clock (max over switches — installs are
    /// issued in parallel).
    pub delay_ms: f64,
}

/// A failed [`Controller::install`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InstallError {
    /// Every register slot is occupied by a live query: a further install
    /// would have to share another query's register ranges, violating the
    /// §4.1 flexible-allocation invariant (disjoint `1/slots` slices of
    /// every physical array). Remove a query first, or provision the
    /// controller with more slots ([`Controller::with_slots`]).
    SlotsExhausted {
        /// The controller's slot capacity (all in use).
        slots: u32,
    },
    /// A switch rejected the compiled rules (capacity, layout mismatch);
    /// the partial install was rolled back network-wide.
    Switch(SwitchError),
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::SlotsExhausted { slots } => {
                write!(f, "all {slots} register slots are in use by live queries")
            }
            InstallError::Switch(e) => write!(f, "switch rejected rules: {e}"),
        }
    }
}

impl std::error::Error for InstallError {}

impl From<SwitchError> for InstallError {
    fn from(e: SwitchError) -> Self {
        InstallError::Switch(e)
    }
}

/// A failed [`Controller::update`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateError {
    /// The id was never installed (or has already been removed): there is
    /// nothing to update in place. Callers wanting install-or-update
    /// semantics must call [`Controller::install`] explicitly — silently
    /// minting a fresh install here used to hide dangling-id bugs (and,
    /// worse, assumed register slot 0, aliasing whichever query held it).
    UnknownQuery(QueryId),
    /// The switch error that sank the new definition, plus the modelled
    /// rule-channel delay spent re-installing the prior query (the restore
    /// is real traffic — hiding it would make failed updates look free).
    Rejected {
        error: SwitchError,
        /// Rule-channel wall clock of putting the old query back (0 when
        /// the restore itself failed and the query was scrubbed instead).
        restore_delay_ms: f64,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::UnknownQuery(id) => write!(f, "query {id} is not installed"),
            UpdateError::Rejected { error, restore_delay_ms } => {
                write!(f, "update failed ({error:?}); restore took {restore_delay_ms:.3} ms")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// A failed [`Controller::retune_threshold`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetuneError {
    /// The id was never installed (or has already been removed).
    UnknownQuery(QueryId),
    /// Report thresholds live in 32-bit match ranges on the data plane;
    /// a wider value used to be truncated silently (`as u32`), retuning
    /// the query to `threshold mod 2^32` — almost always *looser* than
    /// asked. Rejected instead.
    ThresholdOutOfRange {
        requested: u64,
        /// The widest representable threshold (`u32::MAX`).
        max: u32,
    },
}

impl fmt::Display for RetuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetuneError::UnknownQuery(id) => write!(f, "query {id} is not installed"),
            RetuneError::ThresholdOutOfRange { requested, max } => {
                write!(f, "threshold {requested} exceeds the data plane's 32-bit range (max {max})")
            }
        }
    }
}

impl std::error::Error for RetuneError {}

/// Cumulative rule-channel accounting: what the controller shipped to
/// switches since construction (or the last reset), in the same modelled
/// units the epoch driver charges for repair traffic (64-byte control
/// messages). Installs and in-place modifications carry a full rule body;
/// removals carry only an address; each per-switch batch pays one header.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    pub rules_installed: u64,
    pub rules_removed: u64,
    pub rules_modified: u64,
    /// Per-switch batches issued.
    pub messages: u64,
    /// Modelled bytes over the rule channel.
    pub bytes: u64,
}

impl ChannelStats {
    const INSTALL_BYTES: u64 = 64;
    const REMOVE_BYTES: u64 = 16;
    const MODIFY_BYTES: u64 = 64;
    const HEADER_BYTES: u64 = 24;

    fn install(&mut self, rules: usize) {
        if rules == 0 {
            return;
        }
        self.rules_installed += rules as u64;
        self.messages += 1;
        self.bytes += Self::HEADER_BYTES + rules as u64 * Self::INSTALL_BYTES;
    }

    fn remove(&mut self, rules: usize) {
        if rules == 0 {
            return;
        }
        self.rules_removed += rules as u64;
        self.messages += 1;
        self.bytes += Self::HEADER_BYTES + rules as u64 * Self::REMOVE_BYTES;
    }

    fn modify(&mut self, rules: usize) {
        if rules == 0 {
            return;
        }
        self.rules_modified += rules as u64;
        self.messages += 1;
        self.bytes += Self::HEADER_BYTES + rules as u64 * Self::MODIFY_BYTES;
    }
}

/// The centralized Newton controller.
#[derive(Debug)]
pub struct Controller {
    compiler_cfg: CompilerConfig,
    timing: RuleTimingModel,
    next_id: QueryId,
    installed: HashMap<QueryId, InstalledQuery>,
    /// Concurrent-query slots: each installed query gets a disjoint
    /// `1/slots` slice of every physical register array (§4.1's flexible
    /// register allocation), so independent queries never collide in 𝕊.
    register_slots: u32,
    /// Slot index each live query occupies.
    slots_in_use: HashMap<QueryId, u32>,
    /// Incremental compilation: Algorithm-1 composition, Opt.1–3 rule
    /// generation and CQE slicing reused across generations of the same
    /// intent shape.
    cache: CompileCache,
    channel: ChannelStats,
    /// When set (the default), [`Self::update`] diffs old vs new slices
    /// per switch and pushes only the changed ones; when cleared, every
    /// update takes the full remove+reinstall path (the from-scratch
    /// baseline the churn bench and equivalence proptests compare
    /// against — both paths keep the query's id and register slot).
    diff_install: bool,
}

impl Controller {
    pub fn new(compiler_cfg: CompilerConfig, timing_seed: u64) -> Self {
        Self::with_slots(compiler_cfg, timing_seed, 4)
    }

    /// A controller provisioned for up to `register_slots` concurrent
    /// queries sharing the register arrays.
    pub fn with_slots(compiler_cfg: CompilerConfig, timing_seed: u64, register_slots: u32) -> Self {
        assert!(register_slots >= 1);
        Controller {
            compiler_cfg,
            timing: RuleTimingModel::new(timing_seed),
            next_id: 1,
            installed: HashMap::new(),
            register_slots,
            slots_in_use: HashMap::new(),
            cache: CompileCache::new(),
            channel: ChannelStats::default(),
            diff_install: true,
        }
    }

    /// The compiler config for a query occupying register `slot`.
    fn slot_config(&self, slot: u32) -> CompilerConfig {
        let slice = (self.compiler_cfg.registers_per_array / self.register_slots).max(1);
        CompilerConfig {
            registers_per_array: slice,
            register_offset: slot * slice,
            ..self.compiler_cfg
        }
    }

    /// The register slice (range, offset) for a new query.
    ///
    /// Errors when every slot is occupied: falling back to slot 0 (the old
    /// behavior) silently aliased the new query's register ranges onto
    /// whichever live query held that slot — two queries reading and
    /// resetting each other's 𝕊 state.
    fn allocate_slot(&mut self, id: QueryId) -> Result<CompilerConfig, InstallError> {
        let used: std::collections::HashSet<u32> = self.slots_in_use.values().copied().collect();
        let Some(slot) = (0..self.register_slots).find(|s| !used.contains(s)) else {
            return Err(InstallError::SlotsExhausted { slots: self.register_slots });
        };
        self.slots_in_use.insert(id, slot);
        Ok(self.slot_config(slot))
    }

    /// The controller's concurrent-query slot capacity.
    pub fn register_slots(&self) -> u32 {
        self.register_slots
    }

    /// The register slot a live query occupies (`None` if not installed).
    pub fn register_slot(&self, id: QueryId) -> Option<u32> {
        self.slots_in_use.get(&id).copied()
    }

    /// The register-array offset a live query's compiled rules address —
    /// `slot × (registers_per_array / slots)`. Live queries always hold
    /// pairwise disjoint `[offset, offset + slice)` ranges.
    pub fn register_offset(&self, id: QueryId) -> Option<u32> {
        let slot = self.register_slot(id)?;
        Some(self.slot_config(slot).register_offset)
    }

    pub fn compiler_config(&self) -> &CompilerConfig {
        &self.compiler_cfg
    }

    /// Cumulative rule-channel traffic (see [`ChannelStats`]).
    pub fn channel_stats(&self) -> ChannelStats {
        self.channel
    }

    /// Zero the rule-channel counters (steady-state measurements).
    pub fn reset_channel_stats(&mut self) {
        self.channel = ChannelStats::default();
    }

    /// Compilation-cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Toggle diff-based updates (on by default). Off forces every
    /// [`Self::update`] through the full remove+reinstall path — the
    /// from-scratch baseline; ids and register slots are preserved either
    /// way, so the two paths are observably equivalent except for
    /// rule-channel traffic and modelled latency.
    pub fn set_diff_install(&mut self, on: bool) {
        self.diff_install = on;
    }

    /// The installed queries.
    pub fn installed(&self) -> &HashMap<QueryId, InstalledQuery> {
        &self.installed
    }

    /// Compile and deploy a query network-wide with resilient placement
    /// (Algorithm 2), slicing for CQE when it exceeds one switch's stages.
    ///
    /// Transactional across the network: if any switch rejects its rules
    /// (capacity, layout mismatch), every switch already touched is rolled
    /// back and the register slot is freed — the network is exactly as it
    /// was before the call. With every register slot occupied the call
    /// fails up front ([`InstallError::SlotsExhausted`]) without minting an
    /// id or touching a switch.
    pub fn install(
        &mut self,
        query: &Query,
        net: &mut Network,
        stages_per_switch: usize,
    ) -> Result<InstallReceipt, InstallError> {
        let id = self.next_id;
        let query_cfg = self.allocate_slot(id)?;
        self.next_id += 1;
        match self.try_install(query, id, &query_cfg, net, stages_per_switch) {
            Ok(receipt) => Ok(receipt),
            Err(e) => {
                // Roll back every switch the partial install touched.
                Self::scrub(&mut self.channel, net, id);
                self.slots_in_use.remove(&id);
                Err(InstallError::Switch(e))
            }
        }
    }

    /// Remove every rule of `id` network-wide (rollback/restore scrub),
    /// recording the rule-channel traffic. Returns rules removed.
    fn scrub(channel: &mut ChannelStats, net: &mut Network, id: QueryId) -> usize {
        let mut total = 0;
        for sw in 0..net.switch_count() {
            let removed = net.switch_mut(sw).remove_query(id);
            channel.remove(removed);
            total += removed;
        }
        total
    }

    fn try_install(
        &mut self,
        query: &Query,
        id: QueryId,
        query_cfg: &CompilerConfig,
        net: &mut Network,
        stages_per_switch: usize,
    ) -> Result<InstallReceipt, SwitchError> {
        let CompiledQuery { slices, plan } =
            self.cache.compile(query, id, query_cfg, stages_per_switch);
        let placement = place(&slices, net.topology());
        let depth = reachable_depth(net.topology(), net.topology().edge_switches());
        let (total_rules, switches, max_delay) = Self::apply_placement(
            &mut self.timing,
            &mut self.channel,
            net,
            id,
            &placement,
            &slices,
        )?;
        let receipt = InstallReceipt {
            id,
            delay_ms: max_delay,
            rules: total_rules,
            switches,
            slices: placement.slice_count,
            overflow_slices: placement.slice_count.saturating_sub(depth),
            diff: false,
        };
        self.installed.insert(id, InstalledQuery { plan, placement, query: query.clone(), slices });
        Ok(receipt)
    }

    /// Push a full placement's rules to the network: every switch named by
    /// `placement` receives its slices at stacked stage offsets. Dead
    /// switches are skipped — a crashed box cannot accept config; the
    /// repair pass covers it when it returns. Returns `(rules, switches,
    /// delay_ms)`.
    ///
    /// An associated fn taking split borrows (timing/channel/net alongside
    /// `&self.installed` entries at call sites).
    fn apply_placement(
        timing: &mut RuleTimingModel,
        channel: &mut ChannelStats,
        net: &mut Network,
        id: QueryId,
        placement: &Placement,
        compiled: &[CompiledSlice],
    ) -> Result<(usize, usize, f64), SwitchError> {
        let mut total_rules = 0usize;
        let mut switches = 0usize;
        let mut max_delay: f64 = 0.0;
        for (sw_id, slices) in placement.slices.iter().enumerate() {
            if slices.is_empty() || !net.router().switch_up(sw_id) {
                continue;
            }
            switches += 1;
            let add = stack_slices(slices.iter().copied(), 0, placement.slice_count, compiled);
            let sw_rules: usize = add.iter().map(|(rules, _)| rules.total_rule_count()).sum();
            net.switch_mut(sw_id).apply_slices(id, &[], &add)?;
            total_rules += sw_rules;
            channel.install(sw_rules);
            max_delay = max_delay.max(timing.install_ms(sw_rules));
        }
        Ok((total_rules, switches, max_delay))
    }

    /// Remove an installed query everywhere.
    pub fn remove(&mut self, id: QueryId, net: &mut Network) -> Option<InstallReceipt> {
        let entry = self.installed.remove(&id)?;
        self.slots_in_use.remove(&id);
        let mut total = 0usize;
        let mut switches = 0usize;
        let mut max_delay: f64 = 0.0;
        for sw_id in 0..net.switch_count() {
            let removed = net.switch_mut(sw_id).remove_query(id);
            if removed > 0 {
                switches += 1;
                total += removed;
                self.channel.remove(removed);
                max_delay = max_delay.max(self.timing.remove_ms(removed));
            }
        }
        Some(InstallReceipt {
            id,
            delay_ms: max_delay,
            rules: total,
            switches,
            slices: entry.placement.slice_count,
            overflow_slices: 0,
            diff: false,
        })
    }

    /// Retune a live query's report threshold **in place**: the reporting
    /// ℝ rules' match ranges are rewritten on every switch holding them —
    /// a handful of rule modifications, an order of magnitude cheaper than
    /// remove + reinstall, and the query's accumulated epoch state
    /// survives. Returns the total rules modified and the modelled delay.
    ///
    /// The crossing-window width is preserved (the difference `hi - lo` of
    /// each reporting rule), so count vs byte-sum semantics carry over.
    ///
    /// Thresholds are 32-bit match bounds on the data plane; values above
    /// `u32::MAX` are rejected ([`RetuneError::ThresholdOutOfRange`])
    /// instead of silently truncated — the old `as u32` cast retuned to
    /// `threshold mod 2^32`, usually far *looser* than requested.
    pub fn retune_threshold(
        &mut self,
        id: QueryId,
        new_threshold: u64,
        net: &mut Network,
    ) -> Result<InstallReceipt, RetuneError> {
        if !self.installed.contains_key(&id) {
            return Err(RetuneError::UnknownQuery(id));
        }
        if new_threshold > u64::from(u32::MAX) {
            return Err(RetuneError::ThresholdOutOfRange {
                requested: new_threshold,
                max: u32::MAX,
            });
        }
        let mut rewrite = |rule: &mut newton_dataplane::RRule| {
            use newton_dataplane::{RAction, RMatch};
            if !rule.actions.contains(&RAction::Report) {
                return;
            }
            // The reporting match lives on whichever side is bounded;
            // its window width (crossing semantics) is preserved.
            let on_global = rule.global_match != RMatch::ANY;
            let old = if on_global { rule.global_match } else { rule.state_match };
            let lo = new_threshold as u32;
            let hi = lo.saturating_add(old.hi.saturating_sub(old.lo));
            let new = RMatch { lo, hi };
            if on_global {
                rule.global_match = new;
            } else {
                rule.state_match = new;
            }
        };
        let mut total = 0usize;
        let mut switches = 0usize;
        let mut max_delay: f64 = 0.0;
        for sw_id in 0..net.switch_count() {
            let touched = net.switch_mut(sw_id).update_r_rules(id, &mut rewrite);
            if touched > 0 {
                total += touched;
                switches += 1;
                self.channel.modify(touched);
                max_delay = max_delay.max(self.timing.install_ms(touched));
            }
        }
        // Keep the stored artifacts in sync: repair re-installs from them
        // (a rebooted holder must come back with the *retuned* rules, not
        // the install-time threshold) and the diff-install path compares
        // against them.
        let entry = self.installed.get_mut(&id).expect("checked above");
        for slice in &mut entry.slices {
            for (_, r) in &mut slice.rules.r {
                rewrite(r);
            }
        }
        Ok(InstallReceipt {
            id,
            delay_ms: max_delay,
            rules: total,
            switches,
            slices: entry.placement.slice_count,
            overflow_slices: 0,
            diff: false,
        })
    }

    /// Update a live query **in place**: the query keeps its [`QueryId`]
    /// and register slot, so journal spans, analyzer attribution, and
    /// `installed()` keys stay continuous across updates. Forwarding is
    /// untouched; only the query's rules change.
    ///
    /// When the new definition places with the same shape (same slice
    /// count, same per-switch slice assignment — the overwhelmingly common
    /// drill-down/retune case), the update is a *diff install*: old and
    /// new slices are compared per switch and only changed ones cross the
    /// rule channel (one remove batch + one install batch per touched
    /// switch). When the shape changes — or diffing is disabled via
    /// [`Self::set_diff_install`] — the whole query is removed and
    /// re-installed under the same id and slot.
    ///
    /// Atomic in outcome: if the new rules are rejected anywhere, the old
    /// query is re-installed from its stored artifacts and
    /// [`UpdateError::Rejected`]'s `restore_delay_ms` reports what that
    /// restore cost over the rule channel — the caller observes either the
    /// new query running or the old one restored, never neither.
    ///
    /// Updating an id that is not installed (never was, or already
    /// removed) is [`UpdateError::UnknownQuery`]: the old fall-back to a
    /// plain install assumed register slot 0 for the slot lookup, silently
    /// aliasing whichever live query held it.
    pub fn update(
        &mut self,
        old: QueryId,
        query: &Query,
        net: &mut Network,
        stages_per_switch: usize,
    ) -> Result<InstallReceipt, UpdateError> {
        // `installed` and `slots_in_use` are updated in lock-step, so a
        // live entry always has a slot; treat a missing one as unknown
        // rather than assuming slot 0.
        let Some(slot) = self.slots_in_use.get(&old).copied() else {
            return Err(UpdateError::UnknownQuery(old));
        };
        // The entry leaves `installed` for the op and goes back as the
        // rollback copy if the update is rejected.
        let Some(prior) = self.installed.remove(&old) else {
            return Err(UpdateError::UnknownQuery(old));
        };
        let query_cfg = self.slot_config(slot);
        let CompiledQuery { slices, plan } =
            self.cache.compile(query, old, &query_cfg, stages_per_switch);
        let placement = place(&slices, net.topology());
        let depth = reachable_depth(net.topology(), net.topology().edge_switches());

        let same_shape = self.diff_install
            && placement.slice_count == prior.placement.slice_count
            && placement.slices == prior.placement.slices;

        let result = if same_shape {
            self.diff_update(old, &prior, net, &placement, &slices)
        } else {
            self.full_update(old, net, &placement, &slices)
        };

        match result {
            Ok((rules, switches, delay_ms)) => {
                let receipt = InstallReceipt {
                    id: old,
                    delay_ms,
                    rules,
                    switches,
                    slices: placement.slice_count,
                    overflow_slices: placement.slice_count.saturating_sub(depth),
                    diff: same_shape,
                };
                let entry = InstalledQuery { plan, placement, query: query.clone(), slices };
                self.installed.insert(old, entry);
                Ok(receipt)
            }
            Err(error) => {
                // Put the old query back from its stored artifacts: the new
                // rules were scrubbed, so the capacity it occupied is free
                // again. Surface what the restore cost — it is real
                // rule-channel traffic.
                let restored = Self::apply_placement(
                    &mut self.timing,
                    &mut self.channel,
                    net,
                    old,
                    &prior.placement,
                    &prior.slices,
                );
                match restored {
                    Ok((_, _, restore_delay_ms)) => {
                        self.installed.insert(old, prior);
                        Err(UpdateError::Rejected { error, restore_delay_ms })
                    }
                    Err(_) => {
                        // Should be unreachable (the old rules fit before);
                        // leave the network clean rather than half-restored.
                        Self::scrub(&mut self.channel, net, old);
                        self.slots_in_use.remove(&old);
                        Err(UpdateError::Rejected { error, restore_delay_ms: 0.0 })
                    }
                }
            }
        }
    }

    /// The diff-install path of [`Self::update`]: same placement shape, so
    /// walk each holder switch, compare old vs new artifacts slice by
    /// slice, and replace only what changed. Returns `(rules_touched,
    /// switches_touched, delay_ms)`; on error the query has been scrubbed
    /// network-wide (the caller restores the prior artifacts).
    fn diff_update(
        &mut self,
        id: QueryId,
        prior: &InstalledQuery,
        net: &mut Network,
        placement: &Placement,
        compiled: &[CompiledSlice],
    ) -> Result<(usize, usize, f64), SwitchError> {
        let mut total_rules = 0usize;
        let mut switches = 0usize;
        let mut max_delay: f64 = 0.0;
        for (sw_id, slices) in placement.slices.iter().enumerate() {
            if slices.is_empty() || !net.router().switch_up(sw_id) {
                continue; // dead holders are the repair pass's job
            }
            // Stack offsets exactly as apply_placement would, in both the
            // old and the new layout, and collect the slices whose
            // installed image must change. One switch call then clears
            // every changed slice before installing any, since a growing
            // slice may overlap a shrinking neighbor's old stage range.
            let mut old_off = 0usize;
            let mut new_off = 0usize;
            let mut remove: Vec<u8> = Vec::new();
            let mut add: Vec<(RuleSet, SliceInfo)> = Vec::new();
            for &c in slices {
                let info = slice_info(c, placement.slice_count, compiled, new_off);
                // The installed image is the slice's rules and stages at its
                // offset, its capture set and the previous slice's.
                let artifacts_same = old_off == new_off
                    && prior.slices[c] == compiled[c]
                    && (c == 0 || prior.slices[c - 1].capture == compiled[c - 1].capture);
                // A restored-blank holder (pre-repair) simply doesn't hold
                // the slice yet — install it even if the artifacts agree,
                // exactly as the from-scratch path would.
                let held = net.switch(sw_id).assigned_slices(id).contains(&info);
                if !(artifacts_same && held) {
                    remove.push(c as u8);
                    add.push((compiled[c].rules.shift_stages(new_off), info));
                }
                old_off += prior.slices[c].stages;
                new_off = info.stages.1;
            }
            if add.is_empty() {
                continue;
            }
            let installed: usize = add.iter().map(|(rules, _)| rules.total_rule_count()).sum();
            let removed = match net.switch_mut(sw_id).apply_slices(id, &remove, &add) {
                Ok(removed) => removed,
                Err(e) => {
                    // Whole-or-absent: scrub the query everywhere and let
                    // the caller restore the prior artifacts.
                    Self::scrub(&mut self.channel, net, id);
                    return Err(e);
                }
            };
            let mut sw_delay = 0.0;
            if removed > 0 {
                self.channel.remove(removed);
                sw_delay += self.timing.remove_ms(removed);
            }
            if installed > 0 {
                self.channel.install(installed);
                sw_delay += self.timing.install_ms(installed);
            }
            total_rules += removed + installed;
            switches += 1;
            max_delay = max_delay.max(sw_delay);
        }
        Ok((total_rules, switches, max_delay))
    }

    /// The from-scratch path of [`Self::update`]: remove the old query
    /// everywhere and re-apply the new placement under the **same** id and
    /// slot. Returns `(rules_touched, switches_touched, delay_ms)`; on
    /// error the query has been scrubbed network-wide.
    fn full_update(
        &mut self,
        id: QueryId,
        net: &mut Network,
        placement: &Placement,
        compiled: &[CompiledSlice],
    ) -> Result<(usize, usize, f64), SwitchError> {
        let mut removed_total = 0usize;
        let mut remove_delay: f64 = 0.0;
        for sw_id in 0..net.switch_count() {
            let removed = net.switch_mut(sw_id).remove_query(id);
            if removed > 0 {
                removed_total += removed;
                self.channel.remove(removed);
                remove_delay = remove_delay.max(self.timing.remove_ms(removed));
            }
        }
        match Self::apply_placement(
            &mut self.timing,
            &mut self.channel,
            net,
            id,
            placement,
            compiled,
        ) {
            Ok((rules, switches, install_delay)) => {
                Ok((removed_total + rules, switches, remove_delay + install_delay))
            }
            Err(e) => {
                Self::scrub(&mut self.channel, net, id);
                Err(e)
            }
        }
    }

    /// One repair pass after topology churn: re-run Algorithm 2 over the
    /// *healthy* subgraph and push every slice the live placement wants
    /// that its switch no longer holds — the missing slices of queries
    /// whose holders crashed and rebooted blank. Queries the live data
    /// plane cannot fully execute (the healthy subgraph is too shallow,
    /// partitioned from all edges, or a switch rejects its rules) are
    /// listed as degraded for the driver to mirror into the software
    /// analyzer.
    ///
    /// Deterministic: queries are visited in id order, switches in id
    /// order, so the rule-channel timing model draws identically on every
    /// run.
    pub fn repair(&mut self, net: &mut Network) -> RepairOutcome {
        let mut out = RepairOutcome::default();
        if self.installed.is_empty() {
            return out;
        }
        let full_depth = reachable_depth(net.topology(), net.topology().edge_switches());
        let live = net.live_topology();
        let live_depth = reachable_depth(&live, live.edge_switches());
        let mut ids: Vec<QueryId> = self.installed.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let entry = &self.installed[&id];
            out.examined += 1;
            // Slices beyond the full topology's depth never ran on the
            // data plane (install-time overflow, §5.2); only the runnable
            // prefix gauges failure-induced degradation.
            let runnable = entry.placement.slice_count.min(full_depth);
            let mut degraded = live.edge_switches().is_empty() || live_depth < runnable;
            let want = place(&entry.slices, &live);
            let mut query_rules = 0usize;
            for (sw_id, slices) in want.slices.iter().enumerate() {
                if slices.is_empty() {
                    continue;
                }
                let have = net.switch(sw_id).assigned_slices(id);
                let missing: Vec<usize> = slices
                    .iter()
                    .copied()
                    .filter(|&c| !have.iter().any(|i| i.index as usize == c))
                    .collect();
                if missing.is_empty() {
                    continue;
                }
                let offset = have.iter().map(|i| i.stages.1).max().unwrap_or(0);
                let add = stack_slices(missing, offset, entry.placement.slice_count, &entry.slices);
                let sw_rules: usize = add.iter().map(|(rules, _)| rules.total_rule_count()).sum();
                if net.switch_mut(sw_id).apply_slices(id, &[], &add).is_err() {
                    // The switch can't take the query back consistently
                    // (capacity reclaimed by others, slice-cursor clash);
                    // drop whatever of the query it held so it is either
                    // whole or absent, and degrade to software.
                    let dropped = net.switch_mut(sw_id).remove_query(id);
                    self.channel.remove(dropped);
                    degraded = true;
                    continue;
                }
                query_rules += sw_rules;
                out.switches_touched += 1;
                self.channel.install(sw_rules);
                out.delay_ms = out.delay_ms.max(self.timing.install_ms(sw_rules));
            }
            if query_rules > 0 {
                out.rules_installed += query_rules;
                out.repaired.push(id);
            }
            if degraded {
                out.degraded.push(id);
            }
        }
        out
    }
}

/// Algorithm 2 for a query's slices over `topo`, from its edge switches.
fn place(compiled: &[CompiledSlice], topo: &Topology) -> Placement {
    let parts = compiled.iter().map(|s| s.rules.total_rule_count()).collect();
    place_parts(parts, topo, topo.edge_switches())
}

/// The assignment of slice `c` of a `total`-slice query laid out from stage
/// `offset`: it snapshots into its capture set and restores the previous
/// slice's.
fn slice_info(c: usize, total: usize, compiled: &[CompiledSlice], offset: usize) -> SliceInfo {
    SliceInfo {
        index: c as u8,
        total: total as u8,
        capture_set: compiled[c].capture,
        restore_set: compiled[c.saturating_sub(1)].capture,
        stages: (offset, offset + compiled[c].stages),
    }
}

/// Slices `slices` of a `total`-slice query as one switch holds them: each
/// rule set shifted to its own stage range, the ranges stacked from
/// `offset` up, each paired with its assignment.
fn stack_slices(
    slices: impl IntoIterator<Item = usize>,
    mut offset: usize,
    total: usize,
    compiled: &[CompiledSlice],
) -> Vec<(RuleSet, SliceInfo)> {
    slices
        .into_iter()
        .map(|c| {
            let info = slice_info(c, total, compiled, offset);
            offset = info.stages.1;
            (compiled[c].rules.shift_stages(info.stages.0), info)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use newton_dataplane::PipelineConfig;
    use newton_net::Topology;
    use newton_packet::{PacketBuilder, TcpFlags};
    use newton_query::catalog;

    fn net(n: usize) -> Network {
        Network::new(Topology::chain(n), PipelineConfig::default())
    }

    fn controller() -> Controller {
        Controller::new(CompilerConfig::default(), 42)
    }

    /// Rule-channel totals with no in-place modifications.
    fn channel(installed: u64, removed: u64, messages: u64, bytes: u64) -> ChannelStats {
        ChannelStats {
            rules_installed: installed,
            rules_removed: removed,
            rules_modified: 0,
            messages,
            bytes,
        }
    }

    #[test]
    fn install_and_remove_roundtrip() {
        let mut ctl = controller();
        let mut net = net(3);
        let r = ctl.install(&catalog::q1_new_tcp(), &mut net, 12).unwrap();
        assert_eq!(r.slices, 1, "Q1 fits one 12-stage switch");
        assert!(r.delay_ms <= 20.0);
        assert!(net.total_rules() > 0);
        let rm = ctl.remove(r.id, &mut net).unwrap();
        assert_eq!(rm.rules, r.rules);
        assert_eq!(net.total_rules(), 0);
        assert!(ctl.remove(r.id, &mut net).is_none(), "double remove is a no-op");
    }

    #[test]
    fn installed_query_detects_attack_end_to_end() {
        let mut ctl = controller();
        let mut net = net(3);
        ctl.install(&catalog::q1_new_tcp(), &mut net, 12).unwrap();
        let mut reports = 0;
        for i in 0..catalog::thresholds::NEW_TCP as u16 {
            let pkt = PacketBuilder::new()
                .src_ip(i as u32 + 1)
                .dst_ip(0xAC10_0001)
                .src_port(1000 + i)
                .tcp_flags(TcpFlags::SYN)
                .build();
            reports += net.deliver(&pkt, 0, 2).reports.len();
        }
        assert_eq!(reports, 1);
    }

    #[test]
    fn sliced_install_spans_chain_and_reports_once() {
        let mut ctl = controller();
        let mut net = net(4);
        // Force slicing: give each switch only 4 stages of budget — Q4
        // then needs 4 slices, exactly the 4-hop chain's length.
        let r = ctl.install(&catalog::q4_port_scan(), &mut net, 4).unwrap();
        assert_eq!(r.slices, 4, "Q4 slices on 4-stage switches");

        let mut reports = Vec::new();
        for port in 0..catalog::thresholds::PORT_SCAN as u16 {
            let pkt = PacketBuilder::new()
                .src_ip(0xDEAD)
                .dst_ip(0xAC10_0002)
                .src_port(41_000)
                .dst_port(1000 + port)
                .tcp_flags(TcpFlags::SYN)
                .build();
            reports.extend(net.deliver(&pkt, 0, 3).reports);
        }
        assert_eq!(reports.len(), 1, "CQE reports once");
        // The report comes from the switch holding the final slice.
        assert_eq!(reports[0].0, r.slices - 1);
    }

    #[test]
    fn forwarding_never_interrupted_by_query_churn() {
        let mut ctl = controller();
        let mut net = net(2);
        let pkt = PacketBuilder::new().tcp_flags(TcpFlags::SYN).build();
        let mut delivered = 0;
        for round in 0..5 {
            delivered += u64::from(net.deliver(&pkt, 0, 1).clean_delivery);
            let r = ctl.install(&catalog::all_queries()[round % 9], &mut net, 12).unwrap();
            delivered += u64::from(net.deliver(&pkt, 0, 1).clean_delivery);
            ctl.remove(r.id, &mut net);
            delivered += u64::from(net.deliver(&pkt, 0, 1).clean_delivery);
        }
        assert_eq!(delivered, 15, "every packet forwarded during churn");
        assert_eq!(net.switch(0).forwarded(), 15);
    }

    #[test]
    fn failed_install_rolls_back_every_switch() {
        // Sabotage: pre-fill switch 1's rule tables so the controller's
        // install succeeds on switch 0 but fails on switch 1 - the rollback
        // must leave the whole network exactly as before.
        let mut ctl = controller();
        let mut net = Network::new(
            Topology::chain(2),
            newton_dataplane::PipelineConfig { rule_capacity: 3, ..Default::default() },
        );
        // Occupy switch 1 almost completely with a foreign query installed
        // out-of-band.
        use newton_compiler::compile;
        let filler_cfg = CompilerConfig { registers_per_array: 128, ..Default::default() };
        let filler = compile(&catalog::q2_ssh_brute(), 9_000, &filler_cfg);
        net.switch_mut(1).install(&filler.rules).expect("filler fits alone");
        let baseline_total = net.total_rules();
        let baseline_sw0 = net.switch(0).total_rule_count();

        let result = ctl.install(&catalog::q2_ssh_brute(), &mut net, 12);
        assert!(result.is_err(), "switch 1 must reject the second query at capacity 3");
        assert_eq!(net.total_rules(), baseline_total, "rollback must restore the network");
        assert_eq!(net.switch(0).total_rule_count(), baseline_sw0);
        assert!(ctl.installed().is_empty());
        // Switch 0's batch went out; the rollback removed it again.
        // Switch 1 rolled itself back before anything was metered.
        assert_eq!(ctl.channel_stats(), channel(21, 21, 2, 1728));

        // The controller remains usable: a small query still installs.
        let ok = ctl.install(&catalog::q1_new_tcp(), &mut net, 12);
        assert!(ok.is_ok(), "controller must recover after a failed install: {ok:?}");
    }

    #[test]
    fn failed_update_restores_the_old_query() {
        // Sabotage mirroring failed_install_rolls_back_every_switch: the
        // old (small) query fits beside the foreign filler, the new one
        // does not — update must fail AND leave the old query installed,
        // running, and detecting.
        let mut ctl = controller();
        let mut net = Network::new(
            Topology::chain(2),
            newton_dataplane::PipelineConfig { rule_capacity: 3, ..Default::default() },
        );
        let filler_cfg = CompilerConfig { registers_per_array: 128, ..Default::default() };
        let filler = newton_compiler::compile(&catalog::q2_ssh_brute(), 9_000, &filler_cfg);
        net.switch_mut(1).install(&filler.rules).expect("filler fits alone");

        let old = ctl.install(&catalog::q1_new_tcp(), &mut net, 12).expect("q1 fits");
        let baseline_total = net.total_rules();
        let baseline_sw0 = net.switch(0).total_rule_count();
        assert_eq!(ctl.channel_stats(), channel(18, 0, 2, 1200));

        let result = ctl.update(old.id, &catalog::q2_ssh_brute(), &mut net, 12);
        let err = result.expect_err("switch 1 must reject the bigger query at capacity 3");
        let UpdateError::Rejected { restore_delay_ms, .. } = err else {
            panic!("expected Rejected, got {err:?}");
        };
        assert!(restore_delay_ms > 0.0, "the restore's rule-channel cost must surface");
        assert!(ctl.installed().contains_key(&old.id), "old query must survive the failure");
        assert_eq!(net.total_rules(), baseline_total, "network restored to pre-update state");
        assert_eq!(net.switch(0).total_rule_count(), baseline_sw0);
        // The failed push, its scrub and the restore all cross the channel.
        assert_eq!(ctl.channel_stats(), channel(57, 30, 7, 4296));

        // The restored query still detects end-to-end.
        let mut reports = 0;
        for i in 0..catalog::thresholds::NEW_TCP as u16 {
            let pkt = PacketBuilder::new()
                .src_ip(i as u32 + 1)
                .dst_ip(0xAC10_0001)
                .src_port(1000 + i)
                .tcp_flags(TcpFlags::SYN)
                .build();
            reports += net.deliver(&pkt, 0, 1).reports.len();
        }
        assert_eq!(reports, 1, "restored query must keep detecting");

        // And a later legitimate update still works, under the same id.
        let mut tighter = catalog::q1_new_tcp();
        tighter.name = "q1_tight".into();
        let swapped = ctl.update(old.id, &tighter, &mut net, 12).expect("small update fits");
        assert_eq!(swapped.id, old.id, "an update keeps the query's id");
        assert!(ctl.installed().contains_key(&old.id));
    }

    #[test]
    fn slice_conflict_rolls_back_unassigned_rules_too() {
        // chain(4) with a 6-stage budget cuts Q4 into two slices: slice 0
        // on both edges, slice 1 on the two inner switches. A renamed copy
        // installs slice 0 on switch 0, then switch 1 takes its slice-1
        // rules but rejects the assignment: cursor 1 already resumes the
        // first copy there. The rollback must scrub both switches,
        // including the rules switch 1 accepted but never assigned.
        let mut ctl = controller();
        let mut net = net(4);
        ctl.install(&catalog::q4_port_scan(), &mut net, 6).unwrap();
        assert_eq!(ctl.channel_stats(), channel(42, 0, 4, 2784));
        assert_eq!(net.total_rules(), 42);

        let mut twin = catalog::q4_port_scan();
        twin.name = "q4_twin".into();
        let err = ctl.install(&twin, &mut net, 6).unwrap_err();
        assert!(
            matches!(err, InstallError::Switch(SwitchError::SliceConflict { index: 1, .. })),
            "expected a cursor-1 conflict, got {err:?}"
        );
        // +11 installed on switch 0 (one batch); 11 + 10 removed from
        // switches 0 and 1 (two batches).
        assert_eq!(ctl.channel_stats(), channel(53, 21, 7, 3896));
        assert_eq!(net.total_rules(), 42, "rollback must restore the network");
        assert_eq!(ctl.installed().len(), 1);
    }

    #[test]
    fn fifth_install_on_four_slots_errors_and_live_offsets_stay_disjoint() {
        // The regression: allocate_slot used to fall back to slot 0 when
        // all slots were occupied, silently aliasing the 5th query's
        // register ranges onto the 1st's.
        let mut ctl = controller(); // 4 register slots
        let mut net = net(3);
        let queries = catalog::all_queries();
        let ids: Vec<QueryId> =
            (0..4).map(|i| ctl.install(&queries[i], &mut net, 12).unwrap().id).collect();

        // §4.1 invariant: the 4 live queries hold pairwise disjoint
        // register ranges.
        let offsets: Vec<u32> = ids.iter().map(|&id| ctl.register_offset(id).unwrap()).collect();
        let slice = ctl.compiler_config().registers_per_array / ctl.register_slots();
        for (i, &a) in offsets.iter().enumerate() {
            for &b in &offsets[i + 1..] {
                assert!(
                    a.abs_diff(b) >= slice,
                    "offsets {offsets:?} overlap within a {slice}-register slice"
                );
            }
        }

        let rules_before = net.total_rules();
        let err = ctl.install(&queries[4], &mut net, 12).expect_err("5th install must not alias");
        assert_eq!(err, InstallError::SlotsExhausted { slots: 4 });
        assert_eq!(ctl.installed().len(), 4, "the failed install must not register anything");
        assert_eq!(net.total_rules(), rules_before, "and must not touch a switch");
        // The 4 live queries still hold their original offsets.
        for (&id, &off) in ids.iter().zip(&offsets) {
            assert_eq!(ctl.register_offset(id), Some(off));
        }

        // Freeing any slot makes the install go through — on the freed
        // slot, not slot 0.
        let freed = ctl.register_slot(ids[2]).unwrap();
        ctl.remove(ids[2], &mut net).unwrap();
        let r = ctl.install(&queries[4], &mut net, 12).expect("a freed slot must be reusable");
        assert_eq!(ctl.register_slot(r.id), Some(freed));
    }

    #[test]
    fn updating_an_unknown_id_is_a_structured_error_not_a_slot0_install() {
        let mut ctl = controller();
        let mut net = net(2);
        // Never installed.
        let err = ctl.update(42, &catalog::q1_new_tcp(), &mut net, 12).unwrap_err();
        assert_eq!(err, UpdateError::UnknownQuery(42));
        assert!(ctl.installed().is_empty(), "no phantom install");
        assert_eq!(net.total_rules(), 0, "no rules reached any switch");

        // Already removed: same contract.
        let r = ctl.install(&catalog::q1_new_tcp(), &mut net, 12).unwrap();
        ctl.remove(r.id, &mut net).unwrap();
        let err = ctl.update(r.id, &catalog::q1_new_tcp(), &mut net, 12).unwrap_err();
        assert_eq!(err, UpdateError::UnknownQuery(r.id));
        assert_eq!(net.total_rules(), 0);
    }

    #[test]
    fn retune_rejects_thresholds_beyond_u32_instead_of_wrapping() {
        let mut ctl = controller();
        let mut net = net(2);
        let r = ctl.install(&catalog::q1_new_tcp(), &mut net, 12).unwrap();

        // The exact boundary is representable and must succeed…
        let receipt = ctl.retune_threshold(r.id, u64::from(u32::MAX), &mut net).unwrap();
        assert!(receipt.rules >= 1);

        // …one past it used to wrap to threshold 0 (`as u32`); now it is a
        // structured rejection and the installed artifacts keep the last
        // good threshold.
        let err = ctl.retune_threshold(r.id, u64::from(u32::MAX) + 1, &mut net).unwrap_err();
        assert_eq!(
            err,
            RetuneError::ThresholdOutOfRange { requested: u64::from(u32::MAX) + 1, max: u32::MAX }
        );
        use newton_dataplane::RAction;
        let floor = ctl.installed()[&r.id]
            .slices
            .iter()
            .flat_map(|s| s.rules.r.iter())
            .filter(|(_, rule)| rule.actions.contains(&RAction::Report))
            .map(|(_, rule)| rule.state_match.lo.max(rule.global_match.lo))
            .max()
            .expect("q1 has a reporting rule");
        assert_eq!(floor, u32::MAX, "rejected retune must leave the last good threshold");
    }

    #[test]
    fn repair_reinstalls_slices_on_a_rebooted_switch() {
        let mut ctl = controller();
        let mut net = net(4);
        // 4-stage budget → Q4 slices across the chain: switch i holds
        // slice i.
        let r = ctl.install(&catalog::q4_port_scan(), &mut net, 4).unwrap();
        assert_eq!(r.slices, 4);
        let victim = 2usize;
        let rules_before = net.switch(victim).total_rule_count();
        assert!(rules_before > 0);

        // Crash: while the switch is down the live placement can't cover
        // the full chain (the chain is cut), so the query degrades.
        assert!(net.fail_switch(victim));
        let out = ctl.repair(&mut net);
        assert_eq!(out.examined, 1);
        assert!(out.repaired.is_empty(), "nothing to install while the holder is down");
        assert_eq!(out.degraded, vec![r.id], "a cut chain cannot run 4 slices");

        // Reboot blank → repair must re-place exactly the lost slice.
        net.restore_switch(victim);
        assert_eq!(net.switch(victim).total_rule_count(), 0, "rebooted blank");
        let out = ctl.repair(&mut net);
        assert_eq!(out.repaired, vec![r.id]);
        assert!(out.degraded.is_empty(), "full coverage is back");
        assert_eq!(out.rules_installed, rules_before);
        assert_eq!(out.switches_touched, 1);
        assert!(out.delay_ms > 0.0, "rule pushes take rule-channel time");
        assert_eq!(net.switch(victim).total_rule_count(), rules_before);

        // CQE detects end-to-end again after the repair.
        let mut reports = Vec::new();
        for port in 0..catalog::thresholds::PORT_SCAN as u16 {
            let pkt = PacketBuilder::new()
                .src_ip(0xDEAD)
                .dst_ip(0xAC10_0002)
                .src_port(41_000)
                .dst_port(1000 + port)
                .tcp_flags(TcpFlags::SYN)
                .build();
            reports.extend(net.deliver(&pkt, 0, 3).reports);
        }
        assert_eq!(reports.len(), 1, "repaired CQE chain reports once");

        // A healthy network needs no further repair.
        let out = ctl.repair(&mut net);
        assert!(out.repaired.is_empty() && out.degraded.is_empty());
        assert_eq!(out.rules_installed, 0);
    }

    #[test]
    fn repair_is_a_noop_without_installed_queries_or_failures() {
        let mut ctl = controller();
        let mut net = net(3);
        assert_eq!(ctl.repair(&mut net), RepairOutcome::default());
        ctl.install(&catalog::q1_new_tcp(), &mut net, 12).unwrap();
        let out = ctl.repair(&mut net);
        assert_eq!(out.examined, 1);
        assert!(out.repaired.is_empty() && out.degraded.is_empty());
        let mut twin_net = Network::new(Topology::chain(3), PipelineConfig::default());
        let mut twin = controller();
        twin.install(&catalog::q1_new_tcp(), &mut twin_net, 12).unwrap();
        assert_eq!(net.total_rules(), twin_net.total_rules(), "repair installed nothing");
    }

    #[test]
    fn update_swaps_thresholds_without_interruption() {
        let mut ctl = controller();
        let mut net = net(2);
        let q = catalog::q1_new_tcp();
        let first = ctl.install(&q, &mut net, 12).unwrap();
        let slot_before = ctl.slots_in_use[&first.id];
        // Drill-down: tighter variant of the same intent.
        let mut tighter = q.clone();
        tighter.name = "q1_tight".into();
        let receipt = ctl.update(first.id, &tighter, &mut net, 12).unwrap();
        assert_eq!(receipt.id, first.id, "an update keeps the query's id");
        assert_eq!(ctl.slots_in_use[&first.id], slot_before, "and its register slot");
        assert!(ctl.installed().contains_key(&first.id));
        assert_eq!(ctl.installed().len(), 1);
        assert!(receipt.delay_ms < 40.0, "an update never costs more than remove + install");
    }

    #[test]
    fn rename_only_update_moves_no_rules() {
        // A renamed intent compiles to identical rules — the diff finds
        // nothing to push, and the compilation cache serves the fetch.
        let mut ctl = controller();
        let mut net = net(2);
        let q = catalog::q1_new_tcp();
        let first = ctl.install(&q, &mut net, 12).unwrap();
        let rules_before = net.total_rules();
        let mut renamed = q.clone();
        renamed.name = "q1_renamed".into();
        let receipt = ctl.update(first.id, &renamed, &mut net, 12).unwrap();
        assert_eq!(receipt.rules, 0, "identical rules: nothing crosses the rule channel");
        assert_eq!(receipt.switches, 0);
        assert_eq!(receipt.delay_ms, 0.0);
        assert_eq!(net.total_rules(), rules_before);
        assert_eq!(ctl.installed()[&first.id].query.name, "q1_renamed");
        assert!(ctl.cache_stats().hits >= 1, "the rename is a cache hit");
    }

    #[test]
    fn a_sliced_compile_is_one_cache_lookup() {
        // Q4 on 4-stage switches needs CQE slices: still one cache lookup
        // per install.
        let mut ctl = controller();
        let mut net = net(4);
        let r = ctl.install(&catalog::q4_port_scan(), &mut net, 4).unwrap();
        assert_eq!(r.slices, 4);
        assert_eq!(ctl.cache_stats(), CacheStats { hits: 0, misses: 1 });
        ctl.remove(r.id, &mut net).unwrap();
        ctl.install(&catalog::q4_port_scan(), &mut net, 4).unwrap();
        assert_eq!(ctl.cache_stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn diff_update_moves_fewer_rules_than_from_scratch() {
        // A threshold change on a CQE-sliced query only alters reporting ℝ
        // rules in the final slice; the diff path must not re-push the
        // untouched 𝕂/ℍ/𝕊 slices the from-scratch path re-installs.
        let build = || (controller(), net(4));
        let tighten = |q: &mut newton_query::Query| {
            for b in &mut q.branches {
                for p in &mut b.primitives {
                    if let newton_query::ast::Primitive::ResultFilter { value, .. } = p {
                        *value += 5;
                    }
                }
            }
        };

        let (mut diff_ctl, mut diff_net) = build();
        let r = diff_ctl.install(&catalog::q4_port_scan(), &mut diff_net, 4).unwrap();
        assert!(r.slices > 1, "must exercise the sliced path");
        let mut tighter = catalog::q4_port_scan();
        tighten(&mut tighter);
        diff_ctl.reset_channel_stats();
        let diff_receipt = diff_ctl.update(r.id, &tighter, &mut diff_net, 4).unwrap();
        let diff_traffic = diff_ctl.channel_stats();

        let (mut full_ctl, mut full_net) = build();
        full_ctl.set_diff_install(false);
        let fr = full_ctl.install(&catalog::q4_port_scan(), &mut full_net, 4).unwrap();
        full_ctl.reset_channel_stats();
        let full_receipt = full_ctl.update(fr.id, &tighter, &mut full_net, 4).unwrap();
        let full_traffic = full_ctl.channel_stats();

        assert!(
            diff_receipt.rules < full_receipt.rules,
            "diff ({}) must touch fewer rules than from-scratch ({})",
            diff_receipt.rules,
            full_receipt.rules
        );
        assert!(diff_traffic.bytes < full_traffic.bytes, "and move fewer rule-channel bytes");

        // Both paths leave the network in the same state.
        for sw in 0..diff_net.switch_count() {
            assert_eq!(
                diff_net.switch(sw).rules_of_query(r.id),
                full_net.switch(sw).rules_of_query(fr.id),
                "switch {sw}: diff and from-scratch must converge to identical rules"
            );
        }
    }
}
