//! The compiled execution plan: configuration split from execution.
//!
//! Newton's data plane is a *fixed* engine reconfigured only by table-rule
//! updates (§4.1) — so the per-packet path should never re-derive dispatch
//! state, or re-read a rule, from the mutable configuration. This module
//! mirrors that split in the simulator: every configuration call that
//! changes a switch (`install`, `remove_query`, `add_slice`, `set_slice`,
//! `apply_slices`, and the in-place retune `update_r_rules`) recompiles
//! the queries it touches into an [`ExecPlan`] before it returns;
//! [`Switch::process`](crate::Switch::process) only *reads* the plan.
//!
//! The plan holds one decoded program per query (`QueryCode`). Compiling
//! a query is one filtered scan of the module tables that copies each of
//! its rules into a flat step carrying the rule's whole payload:
//!
//! * 𝕂 — the field mask;
//! * ℍ — a ready [`HashFn`] (seed and range) and the offset, or the
//!   direct-mode field;
//! * 𝕊 — the bank's `(stage, slot)` and the SALU op;
//! * ℝ — each rule's matches, priority and actions.
//!
//! The packet walk therefore reads no rule table; only 𝕊 reaches into the
//! switch, for its registers. Other queries' programs are untouched by a
//! recompile, because a step holds payloads, not table positions.
//!
//! Next to the programs the plan keeps two indices, rebuilt after every
//! configuration call except a retune (which cannot change them):
//!
//! * **classification** — every `newton_init` ternary entry compiled to
//!   one `(value, mask)` pair over the full 128-bit field vector and
//!   tagged with its query's program, grouped by program in query-id
//!   order, so classifying a packet is a linear scan of `AND`+compare
//!   over `u128`s that yields the programs to run already sorted. Entries
//!   that can never match (a required value bit outside its field's
//!   width, or two matches demanding different values of one bit) are
//!   dropped at compile time.
//! * **resume-by-cursor dispatch** — snapshot cursor → the unique later
//!   slice it resumes (uniqueness is guaranteed because conflicting
//!   assignments are rejected at configuration time — the snapshot header
//!   carries no query id, so two slices resuming at one cursor would be
//!   ambiguous).
//!
//! ## One lane state per stage
//!
//! A *lane* is one (packet, query) walk of a slice's steps on one
//! `LaneState`. Stage semantics say every module of a stage reads the
//! state as it entered the stage. Instead of freezing a copy of that
//! state per stage, a stage's steps run in reverse pipeline order — ℝ,
//! 𝕊, ℍ, 𝕂, ordered by module kind — with the stage-entry branch mask
//! held in a local. In that order every kind runs before every kind that
//! writes what it reads:
//!
//! | Kind | Reads | Writes |
//! |---|---|---|
//! | ℝ | branch mask, state result, global, op keys and hash (reports) | global, branch mask |
//! | 𝕊 | branch mask, hash result, packet fields | state result, registers |
//! | ℍ | branch mask, op keys | hash result |
//! | 𝕂 | branch mask, packet fields | op keys |
//!
//! Both layouts hold each kind at most once per stage (pinned by a
//! `layout` test), so no two steps of one kind from different instances
//! share a stage, and the single state reproduces the reference walk's
//! entry/exit pair exactly.

use crate::init::InitTable;
use crate::phv::{MetadataSet, Report, SetId, GLOBAL_INIT};
use crate::rules::{HashMode, QueryId, RAction, RMatch, SaluOp};
use crate::switch::{Instance, SliceInfo, DEAD_MARKER};
use newton_packet::{Field, FieldVector, SnapshotHeader};
use newton_sketch::{FastMap, HashFn};

/// One compiled `newton_init` entry: a ternary match over the whole
/// 128-bit field vector, tagged with the program it dispatches.
#[derive(Debug, Clone, Copy)]
struct CompiledInitRule {
    /// Required values of the masked bits (`value & mask == value`).
    value: u128,
    /// Bits the entry constrains.
    mask: u128,
    /// Index of the query's program in [`ExecPlan::codes`].
    code: u32,
    branch_mask: u32,
}

/// One slice of a query this switch executes: its assignment plus the
/// range of its steps in the query's program.
#[derive(Debug, Clone, Copy)]
struct Dispatch {
    info: SliceInfo,
    steps: (u32, u32),
}

/// One decoded step of a query's program. Steps are 24 bytes (the 𝕂 mask
/// is stored as two words so no field needs 16-byte alignment), and a
/// query's steps sit in one exactly sized vector.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Start of a stage that follows an ℝ op able to stop a branch: a dead
    /// lane stops here, a live one takes its branch mask as the new
    /// stage-entry mask. Other stages need no marker: every step is gated
    /// on the entry mask, which only `StopBranch` changes, so a lane's
    /// mask can only go stale, or the lane die, after such an op.
    Stage,
    /// ℝ: the query's rules on one instance, `rules[lo..hi]`, in table
    /// order.
    R { lo: u32, hi: u32 },
    /// 𝕊: one SALU op on the bank at `(stage, slot)`.
    S { branch: u8, set: SetId, stage: u32, slot: u32, op: SaluOp },
    /// ℍ in hash mode: the set's op keys hashed into the hash result.
    Hash { branch: u8, set: SetId, hash: HashFn, offset: u32 },
    /// ℍ in direct mode: one op-key field as the hash result.
    Direct { branch: u8, set: SetId, field: Field, offset: u32 },
    /// 𝕂: the packet fields under `mask` (low, high word) as op keys.
    K { branch: u8, set: SetId, mask: [u64; 2] },
}

const _: () = assert!(std::mem::size_of::<Step>() == 24);

/// One decoded ℝ rule.
#[derive(Debug, Clone, Copy)]
struct RStep {
    branch: u8,
    set: SetId,
    priority: i32,
    state_match: RMatch,
    global_match: RMatch,
    /// `actions[lo..hi]` of the query's program.
    actions: (u32, u32),
}

/// One query's decoded program on one switch.
#[derive(Debug, Clone, Default)]
struct QueryCode {
    query: QueryId,
    /// Slice 0, when this switch holds it and `newton_init` can classify
    /// the query.
    slice0: Option<Dispatch>,
    /// The later slices this switch holds.
    later: Vec<Dispatch>,
    /// Every stage's steps in stage order, ℝ, 𝕊, ℍ, 𝕂 within a stage.
    steps: Vec<Step>,
    rules: Vec<RStep>,
    actions: Vec<RAction>,
}

impl QueryCode {
    /// Decode the query's rules from the module tables into `steps`, in
    /// one filtered scan, and cut each slice's step range. The vectors
    /// are refilled in place and trimmed to their length, so a retune,
    /// which keeps every length, reallocates nothing.
    fn decode(&mut self, stages: &[Vec<Instance>]) {
        let QueryCode { query, slice0, later, steps, rules, actions } = self;
        let query = *query;
        steps.clear();
        rules.clear();
        actions.clear();
        for d in slice0.iter_mut().chain(later.iter_mut()) {
            d.steps = (u32::MAX, u32::MAX);
        }
        // Whether an ℝ op since the last marker can stop a branch.
        let mut stale = false;
        for (stage, insts) in stages.iter().enumerate() {
            let at = steps.len() as u32;
            for d in slice0.iter_mut().chain(later.iter_mut()) {
                let (lo, hi) = d.info.stages;
                if stage >= lo && d.steps.0 == u32::MAX {
                    d.steps.0 = at;
                }
                if stage >= hi && d.steps.1 == u32::MAX {
                    d.steps.1 = at;
                }
            }
            if stale {
                steps.push(Step::Stage);
            }
            let opened = steps.len();
            let mut stops = false;
            // Reverse pipeline order by kind: at most one instance each.
            let mut by_kind: [Option<(usize, &Instance)>; 4] = [None; 4];
            for (slot, inst) in insts.iter().enumerate() {
                let at = &mut by_kind[3 - inst.kind().depth()];
                debug_assert!(at.is_none(), "stage {stage} holds two instances of one kind");
                *at = Some((slot, inst));
            }
            for (slot, inst) in by_kind.into_iter().flatten() {
                match inst {
                    Instance::R(m) => {
                        let lo = rules.len() as u32;
                        for r in m.rules().iter().filter(|r| r.query == query) {
                            stops |= r.actions.contains(&RAction::StopBranch);
                            let at = actions.len() as u32;
                            actions.extend_from_slice(&r.actions);
                            rules.push(RStep {
                                branch: r.branch,
                                set: r.set,
                                priority: r.priority,
                                state_match: r.state_match,
                                global_match: r.global_match,
                                actions: (at, actions.len() as u32),
                            });
                        }
                        let hi = rules.len() as u32;
                        if hi > lo {
                            steps.push(Step::R { lo, hi });
                        }
                    }
                    Instance::S(m) => {
                        steps.extend(m.rules().iter().filter(|r| r.query == query).map(|r| {
                            Step::S {
                                branch: r.branch,
                                set: r.set,
                                stage: stage as u32,
                                slot: slot as u32,
                                op: r.op,
                            }
                        }))
                    }
                    Instance::H(m) => {
                        steps.extend(m.rules().iter().filter(|r| r.query == query).map(|r| {
                            let (branch, set, offset) = (r.branch, r.set, r.offset);
                            match r.mode {
                                HashMode::Hash { seed, range } => {
                                    let hash = HashFn::new(seed, range);
                                    Step::Hash { branch, set, hash, offset }
                                }
                                HashMode::Direct(field) => {
                                    Step::Direct { branch, set, field, offset }
                                }
                            }
                        }))
                    }
                    Instance::K(m) => {
                        steps.extend(m.rules().iter().filter(|r| r.query == query).map(|r| {
                            Step::K {
                                branch: r.branch,
                                set: r.set,
                                mask: [r.mask as u64, (r.mask >> 64) as u64],
                            }
                        }))
                    }
                }
            }
            if steps.len() > opened {
                stale = stops;
            } else if stale {
                steps.pop();
            }
        }
        steps.shrink_to_fit();
        rules.shrink_to_fit();
        actions.shrink_to_fit();
        let end = steps.len() as u32;
        for d in slice0.iter_mut().chain(later.iter_mut()) {
            let lo = d.steps.0.min(end);
            d.steps = (lo, d.steps.1.min(end).max(lo));
        }
    }

    /// Walk one lane through `d`'s steps. Reports go straight to the
    /// packet's output, in emission order.
    #[inline]
    fn run(
        &self,
        d: &Dispatch,
        stages: &mut [Vec<Instance>],
        fields: FieldVector,
        lane: &mut LaneState,
        reports: &mut Vec<Report>,
    ) {
        let mut entry = lane.active;
        for step in &self.steps[d.steps.0 as usize..d.steps.1 as usize] {
            match *step {
                Step::Stage => {
                    if lane.active == 0 {
                        break;
                    }
                    entry = lane.active;
                }
                Step::R { lo, hi } => {
                    self.result(&self.rules[lo as usize..hi as usize], entry, lane, reports)
                }
                Step::S { branch, set, stage, slot, op } => {
                    if lane_branch_active(entry, branch) {
                        let Instance::S(bank) = &mut stages[stage as usize][slot as usize] else {
                            unreachable!("𝕊 steps address state banks")
                        };
                        let s = &mut lane.sets[set.index()];
                        s.state_result = bank.apply(op, s.hash_result, fields);
                    }
                }
                Step::Hash { branch, set, hash, offset } => {
                    if lane_branch_active(entry, branch) {
                        let s = &mut lane.sets[set.index()];
                        s.hash_result = hash.hash(s.op_keys).wrapping_add(offset);
                    }
                }
                Step::Direct { branch, set, field, offset } => {
                    if lane_branch_active(entry, branch) {
                        let s = &mut lane.sets[set.index()];
                        s.hash_result =
                            (FieldVector(s.op_keys).get(field) as u32).wrapping_add(offset);
                    }
                }
                Step::K { branch, set, mask: [lo, hi] } => {
                    if lane_branch_active(entry, branch) {
                        let mask = (hi as u128) << 64 | lo as u128;
                        lane.sets[set.index()].op_keys = fields.masked(mask).0;
                    }
                }
            }
        }
    }

    /// One ℝ op, the decoded twin of
    /// [`RModule::execute`](crate::modules::RModule::execute): per
    /// branch, the highest-priority matching rule (the earliest on a tie)
    /// fires, branches in the table order of their first matching rule.
    /// Matching reads the stage-entry branch mask and global result; ℝ
    /// runs first in its stage, so the lane's sets still hold their
    /// stage-entry values throughout.
    ///
    /// A one-rule op, the common case, skips the scan: its rule fires iff
    /// it matches the entry mask, its set's state result and the global
    /// result.
    fn result(&self, rules: &[RStep], entry: u32, lane: &mut LaneState, reports: &mut Vec<Report>) {
        if let [r] = rules {
            let set = lane.sets[r.set.index()];
            if lane_branch_active(entry, r.branch)
                && r.state_match.contains(set.state_result)
                && r.global_match.contains(lane.global)
            {
                for &action in &self.actions[r.actions.0 as usize..r.actions.1 as usize] {
                    fire(action, self.query, r.branch, &set, lane, reports);
                }
            }
            return;
        }
        let global = lane.global;
        let states = [lane.sets[0].state_result, lane.sets[1].state_result];
        let hit = |r: &RStep| {
            lane_branch_active(entry, r.branch)
                && r.state_match.contains(states[r.set.index()])
                && r.global_match.contains(global)
        };
        for (i, r) in rules.iter().enumerate() {
            if !hit(r) || rules[..i].iter().any(|p| p.branch == r.branch && hit(p)) {
                continue;
            }
            let best = rules[i + 1..]
                .iter()
                .filter(|p| p.branch == r.branch && hit(p))
                .fold(r, |best, p| if p.priority > best.priority { p } else { best });
            let set = lane.sets[best.set.index()];
            for &action in &self.actions[best.actions.0 as usize..best.actions.1 as usize] {
                fire(action, self.query, r.branch, &set, lane, reports);
            }
        }
    }
}

/// Apply one fired ℝ action to a lane (the decoded twin of the reference
/// `RModule::fire`): `set` is the rule's metadata set as it entered the
/// stage; the global result and branch mask mutate in place.
#[inline]
fn fire(
    action: RAction,
    query: QueryId,
    branch: u8,
    set: &MetadataSet,
    lane: &mut LaneState,
    reports: &mut Vec<Report>,
) {
    let state = set.state_result;
    let global = &mut lane.global;
    match action {
        RAction::Report => reports.push(Report {
            query,
            branch,
            op_keys: set.op_keys,
            hash_result: set.hash_result,
            state_result: set.state_result,
            global_result: *global,
        }),
        RAction::StopBranch => lane.active &= !(1 << branch),
        RAction::GlobalMin => *global = (*global).min(state),
        RAction::GlobalMax => {
            let g = if *global == GLOBAL_INIT { 0 } else { *global };
            *global = g.max(state);
        }
        RAction::GlobalAdd => {
            let g = if *global == GLOBAL_INIT { 0 } else { *global };
            *global = g.saturating_add(state);
        }
        RAction::GlobalSub => {
            let g = if *global == GLOBAL_INIT { 0 } else { *global };
            *global = g.saturating_sub(state);
        }
        RAction::GlobalSet => *global = state,
        RAction::GlobalReset => *global = GLOBAL_INIT,
    }
}

/// The compiled execution plan of one switch: a decoded program per
/// query plus the classification and resume indices over them.
#[derive(Debug, Clone, Default)]
pub struct ExecPlan {
    /// Every dispatchable query's program, sorted by query id.
    codes: Vec<QueryCode>,
    /// Sorted by cursor: the unique later slice resuming at each cursor,
    /// as `(cursor, program, slice)`.
    resume: Vec<(u8, u32, u32)>,
    /// Compiled `newton_init` entries of every program holding slice 0,
    /// grouped by program.
    classifier: Vec<CompiledInitRule>,
}

impl ExecPlan {
    /// Recompile the programs of `queries` from the switch's
    /// configuration, then rebuild the classification and resume indices.
    /// A query left with nothing to dispatch loses its program.
    pub(crate) fn recompile(
        &mut self,
        queries: &[QueryId],
        init: &InitTable,
        slices: &FastMap<QueryId, Vec<SliceInfo>>,
        stages: &[Vec<Instance>],
    ) {
        for &query in queries {
            let classifiable = init.rules().iter().any(|r| r.query == query);
            let slice = |info| Dispatch { info, steps: (0, 0) };
            let (slice0, later) = match slices.get(&query) {
                // Unassigned queries execute as a whole pipeline.
                None => (classifiable.then(|| slice(SliceInfo::whole())), Vec::new()),
                Some(infos) => (
                    infos.iter().find(|i| i.index == 0 && classifiable).copied().map(slice),
                    infos.iter().filter(|i| i.index > 0).copied().map(slice).collect(),
                ),
            };
            let found = self.codes.binary_search_by_key(&query, |c| c.query);
            match found {
                Ok(pos) if slice0.is_none() && later.is_empty() => {
                    self.codes.remove(pos);
                }
                Err(_) if slice0.is_none() && later.is_empty() => {}
                Ok(pos) => {
                    let code = &mut self.codes[pos];
                    (code.slice0, code.later) = (slice0, later);
                    code.decode(stages);
                }
                Err(pos) => {
                    let mut code = QueryCode { query, slice0, later, ..Default::default() };
                    code.decode(stages);
                    self.codes.insert(pos, code);
                }
            }
        }
        self.reindex(init);
    }

    /// Re-decode `query`'s program in place after its rules changed
    /// without changing its slices or `newton_init` entries (a retune):
    /// the indices stay as they are.
    pub(crate) fn redecode(&mut self, query: QueryId, stages: &[Vec<Instance>]) {
        if let Ok(pos) = self.codes.binary_search_by_key(&query, |c| c.query) {
            self.codes[pos].decode(stages);
        }
    }

    /// Rebuild the classification and resume indices over the programs.
    fn reindex(&mut self, init: &InitTable) {
        self.resume.clear();
        for (c, code) in self.codes.iter().enumerate() {
            for (k, d) in code.later.iter().enumerate() {
                self.resume.push((d.info.index, c as u32, k as u32));
            }
        }
        self.resume.sort_unstable();
        self.classifier.clear();
        for rule in init.rules() {
            let Ok(c) = self.codes.binary_search_by_key(&rule.query, |c| c.query) else {
                continue;
            };
            if self.codes[c].slice0.is_some() {
                self.classifier.extend(compile_init_rule(rule, c as u32));
            }
        }
        self.classifier.sort_unstable_by_key(|r| r.code);
    }

    /// Compiled `newton_init` classification: every program holding
    /// slice 0 that some entry matches, with the union of the matching
    /// entries' branch masks, in query-id order.
    #[inline]
    fn classify_into(&self, fields: &FieldVector, out: &mut Vec<(u32, u32)>) {
        out.clear();
        for rule in &self.classifier {
            if fields.0 & rule.mask == rule.value {
                match out.last_mut() {
                    Some((code, mask)) if *code == rule.code => *mask |= rule.branch_mask,
                    _ => out.push((rule.code, rule.branch_mask)),
                }
            }
        }
    }

    /// Run every slice-0 lane `newton_init` dispatches for a fresh packet,
    /// in classification order, and return the outgoing snapshot: the
    /// continuation of the last lane still active with slices remaining,
    /// else the processed marker if any lane ran, else none.
    pub(crate) fn run_fresh(
        &self,
        stages: &mut [Vec<Instance>],
        fields: FieldVector,
        classify: &mut Vec<(u32, u32)>,
        reports: &mut Vec<Report>,
    ) -> Option<SnapshotHeader> {
        self.classify_into(&fields, classify);
        let mut continuation = None;
        for &(c, branch_mask) in classify.iter() {
            let code = &self.codes[c as usize];
            let Some(d) = &code.slice0 else { continue };
            let mut lane = LaneState::fresh(branch_mask);
            code.run(d, stages, fields, &mut lane, reports);
            if d.info.total > 1 && lane.active != 0 {
                continuation = Some(lane.capture(1, d.info.capture_set));
            }
        }
        continuation.or((!classify.is_empty()).then_some(DEAD_MARKER))
    }

    /// Whether no later slice resumes on this switch, so every incoming
    /// snapshot passes through unchanged.
    #[inline]
    pub(crate) fn resumes_none(&self) -> bool {
        self.resume.is_empty()
    }

    /// Resume the later slice `sp`'s cursor selects, if this switch holds
    /// one, and return the outgoing snapshot: the next slice's
    /// continuation, the processed marker once the query is done or dead,
    /// or `sp` unchanged when no slice resumes here.
    pub(crate) fn run_resumed(
        &self,
        stages: &mut [Vec<Instance>],
        fields: impl FnOnce() -> FieldVector,
        sp: &SnapshotHeader,
        reports: &mut Vec<Report>,
    ) -> SnapshotHeader {
        let Ok(at) = self.resume.binary_search_by_key(&sp.cursor, |&(c, _, _)| c) else {
            return *sp;
        };
        if sp.active_mask == 0 {
            // Resumed with nothing active: dead on arrival.
            return DEAD_MARKER;
        }
        let (_, c, k) = self.resume[at];
        let code = &self.codes[c as usize];
        let d = &code.later[k as usize];
        let mut lane = LaneState::resumed(sp, d.info.restore_set);
        code.run(d, stages, fields(), &mut lane, reports);
        if d.info.index + 1 < d.info.total && lane.active != 0 {
            lane.capture(d.info.index + 1, d.info.capture_set)
        } else {
            DEAD_MARKER
        }
    }
}

/// Compile one `newton_init` entry into a `(value, mask)` pair over the
/// full field vector; `None` if the entry can never match.
///
/// The interpreted check per match is
/// `(fields.get(field) & mask) == (value & mask)` where `get` yields only
/// the field's width bits — so a required `value` bit outside the width is
/// unsatisfiable (NOT ignorable: clipping it would turn a never-matching
/// entry into a matching one). Likewise two matches constraining one bit
/// to different values.
fn compile_init_rule(rule: &crate::rules::InitRule, code: u32) -> Option<CompiledInitRule> {
    let mut mask: u128 = 0;
    let mut value: u128 = 0;
    for &(field, v, m) in &rule.matches {
        let width_mask: u64 = ((1u128 << field.width()) - 1) as u64;
        if v & m & !width_mask != 0 {
            return None;
        }
        let mbits = ((m & width_mask) as u128) << field.shift();
        let vbits = ((v & m & width_mask) as u128) << field.shift();
        let overlap = mask & mbits;
        if value & overlap != vbits & overlap {
            return None;
        }
        mask |= mbits;
        value |= vbits;
    }
    Some(CompiledInitRule { value, mask, code, branch_mask: rule.branch_mask })
}

/// Branch test identical to [`Phv::branch_active`](crate::Phv): same shift
/// expression, so debug-overflow and release-masking behaviour match the
/// reference walk bit for bit.
#[inline(always)]
fn lane_branch_active(active: u32, branch: u8) -> bool {
    active & (1 << branch) != 0
}

/// One lane's PHV state: the twin of a [`Phv`](crate::Phv) minus the
/// packet fields, which the walk passes alongside.
#[derive(Debug, Clone, Copy)]
struct LaneState {
    /// The two metadata sets (op keys, hash result, state result).
    sets: [MetadataSet; 2],
    /// The global result accumulator.
    global: u32,
    /// Branch-activity mask; `0` ⇔ the lane is dead.
    active: u32,
}

impl LaneState {
    /// A fresh slice-0 lane with `active` from the classification branch
    /// mask (the twin of [`Phv::new`](crate::Phv::new) plus branch-mask
    /// assignment).
    fn fresh(active: u32) -> Self {
        LaneState { sets: [MetadataSet::default(); 2], global: GLOBAL_INIT, active }
    }

    /// A lane resumed from an incoming snapshot into `restore` (the twin
    /// of [`Phv::restore_snapshot`](crate::Phv::restore_snapshot)).
    fn resumed(sp: &SnapshotHeader, restore: SetId) -> Self {
        let mut lane = LaneState::fresh(sp.active_mask as u32);
        let set = &mut lane.sets[restore.index()];
        set.hash_result = sp.hash_result as u32;
        set.state_result = sp.state_result;
        lane.global = sp.global_result;
        lane
    }

    /// The egress snapshot `newton_fin` piggybacks (the twin of
    /// [`Phv::capture_snapshot`](crate::Phv::capture_snapshot)).
    fn capture(&self, cursor: u8, set: SetId) -> SnapshotHeader {
        let s = &self.sets[set.index()];
        SnapshotHeader {
            cursor,
            active_mask: (self.active & 0xFF) as u8,
            hash_result: s.hash_result as u16,
            state_result: s.state_result,
            global_result: self.global,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ModuleAddr;
    use crate::rules::{InitRule, Operand, RRule, RuleSet, SRule};
    use crate::switch::{PipelineConfig, Switch};
    use newton_packet::{Field, PacketBuilder, TcpFlags};

    /// One-rule ℝ ops take the direct path. A rule that misses on the
    /// entry branch mask, on its set's state result or on the global
    /// result fires nothing, and `process` stays equal to
    /// `process_reference`. Every rule under test stops its branch, which
    /// would silence the report a later one-rule op makes each packet; a
    /// hitting rule shows that the check has teeth.
    #[test]
    fn one_rule_result_ops_fire_only_on_a_full_match() {
        let (set, stage_r) = (SetId::Set1, |stage| ModuleAddr { stage, slot: 3 });
        let rule = |branch, state_match, global_match, actions| RRule {
            query: 1,
            branch,
            set,
            priority: 0,
            state_match,
            global_match,
            actions,
        };
        let stop = || vec![RAction::GlobalSet, RAction::StopBranch];
        let cases = [
            ("branch miss", rule(1, RMatch::ANY, RMatch::ANY, stop()), 1),
            ("state miss", rule(0, RMatch::exactly(1_000), RMatch::ANY, stop()), 1),
            ("global miss", rule(0, RMatch::ANY, RMatch::exactly(0), stop()), 1),
            ("hit", rule(0, RMatch::at_least(1), RMatch::ANY, stop()), 0),
        ];
        for (name, tested, per_packet) in cases {
            let rules = RuleSet {
                // Branch 0 active, branch 1 not.
                init: vec![InitRule { query: 1, branch_mask: 0b01, matches: vec![] }],
                // The state result counts packets: 1, 2, 3, ...
                s: vec![(
                    ModuleAddr { stage: 0, slot: 2 },
                    SRule { query: 1, branch: 0, set, op: SaluOp::Add(Operand::Const(1)) },
                )],
                r: vec![
                    (stage_r(1), tested),
                    (stage_r(2), rule(0, RMatch::ANY, RMatch::ANY, vec![RAction::Report])),
                ],
                ..RuleSet::default()
            };
            let mut planned = Switch::new(PipelineConfig::default());
            planned.install(&rules).unwrap();
            let mut reference = planned.clone();
            for n in 1..=3u32 {
                let pkt = PacketBuilder::new().tcp_flags(TcpFlags::SYN).build();
                let (a, b) = (planned.process(&pkt, None), reference.process_reference(&pkt, None));
                assert_eq!(a.reports.len(), per_packet, "{name}: packet {n}");
                assert_eq!(a.reports, b.reports, "{name}: packet {n}");
                assert_eq!(a.snapshot, b.snapshot, "{name}: packet {n}");
                for r in &a.reports {
                    assert_eq!((r.state_result, r.global_result), (n, GLOBAL_INIT), "{name}");
                }
            }
        }
    }

    /// The compiled classifier must agree with the interpreted table on
    /// every entry shape — including entries whose required value exceeds
    /// the field width (never match) and overlapping-bit conflicts.
    #[test]
    fn compiled_classifier_matches_interpreted_table() {
        let mut init = InitTable::new();
        let rules = vec![
            InitRule {
                query: 1,
                branch_mask: 0b01,
                matches: vec![(Field::Proto, 6, 0xFF), (Field::TcpFlags, 2, 0xFF)],
            },
            // Prefix match + a second branch of the same query.
            InitRule {
                query: 1,
                branch_mask: 0b10,
                matches: vec![(Field::DstIp, 0xAC10_0000, 0xFFFF_0000)],
            },
            // Catch-all.
            InitRule { query: 2, branch_mask: 1, matches: vec![] },
            // Value bit outside the 8-bit Proto width: never matches.
            InitRule { query: 3, branch_mask: 1, matches: vec![(Field::Proto, 0x1_06, 0x1_FF)] },
            // Same bit constrained to both 0 and 1: never matches.
            InitRule {
                query: 4,
                branch_mask: 1,
                matches: vec![(Field::Proto, 6, 0xFF), (Field::Proto, 7, 0xFF)],
            },
            // Duplicate consistent constraint: still matches.
            InitRule {
                query: 5,
                branch_mask: 1,
                matches: vec![(Field::Proto, 6, 0xFF), (Field::Proto, 6, 0x0F)],
            },
            // Mask bits outside the width but no required value there:
            // matches exactly like the clipped mask.
            InitRule { query: 6, branch_mask: 1, matches: vec![(Field::TcpFlags, 2, 0xFFFF)] },
        ];
        for r in &rules {
            init.install(r.clone());
        }
        let mut plan = ExecPlan::default();
        plan.recompile(&[1, 2, 3, 4, 5, 6], &init, &FastMap::default(), &[]);

        let packets = [
            PacketBuilder::new().tcp_flags(TcpFlags::SYN).dst_port(80).build(),
            PacketBuilder::new().dst_ip(0xAC10_1234).build(),
            PacketBuilder::new().protocol(newton_packet::Protocol::Udp).build(),
            PacketBuilder::new().dst_ip(0x0A00_0001).tcp_flags(TcpFlags::ACK).build(),
        ];
        let mut compiled = Vec::new();
        for pkt in &packets {
            plan.classify_into(&FieldVector::from_packet(pkt), &mut compiled);
            let by_query: Vec<(QueryId, u32)> =
                compiled.iter().map(|&(c, m)| (plan.codes[c as usize].query, m)).collect();
            assert_eq!(by_query, init.classify(pkt), "diverged on {pkt:?}");
        }
    }
}
