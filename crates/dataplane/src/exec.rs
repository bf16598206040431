//! The compiled execution plan: configuration split from execution.
//!
//! Newton's data plane is a *fixed* engine reconfigured only by table-rule
//! updates (§4.1) — so the per-packet path should never re-derive dispatch
//! state from the mutable configuration. This module mirrors that split in
//! the simulator: every configuration call that changes a switch
//! (`install`, `remove_query`, `add_slice`, `set_slice`, `apply_slices`)
//! ends in one eager recompile of a flattened, immutable [`ExecPlan`];
//! [`Switch::process`](crate::Switch::process) only *reads* the plan,
//! walking each of the packet's lanes through it with no heap allocation
//! for dispatch.
//!
//! A recompile is one pass over the switch's tables that groups every
//! module rule's `(stage, slot, index)` by query, followed by one cut of
//! each dispatch's stage range out of its query's group. Its cost grows
//! with the rules held plus the plan size, not with their product.
//!
//! The plan pre-resolves four things the seed path recomputed per packet:
//!
//! * **classification** — every `newton_init` ternary entry is compiled to
//!   one `(value, mask)` pair over the full 128-bit field vector, so
//!   classifying a packet is a linear scan of `AND`+compare over `u128`s
//!   instead of a per-entry walk of heap-allocated match lists. Entries
//!   that can never match (a required value bit outside its field's width,
//!   or two matches demanding different values of one bit) are dropped at
//!   compile time — the interpreted table rejects them on every packet,
//!   the compiled one pays nothing.
//! * **slice-0 dispatch** — query id → the slice `newton_init` activates
//!   (replacing a `HashMap` lookup + linear scan per classified query),
//! * **resume-by-cursor dispatch** — snapshot cursor → the unique later
//!   slice it resumes (replacing a full scan of every slice assignment;
//!   uniqueness is guaranteed because conflicting assignments are rejected
//!   at configuration time — the snapshot header carries no query id, so
//!   two slices resuming at one cursor would be ambiguous),
//! * **per-stage op lists** — for each (query, slice), the module slots
//!   that actually hold rules of that query, grouped by stage, each with
//!   the table indices of exactly those rules (so execution never scans
//!   other queries' rules); stages with no ops for the query are skipped
//!   entirely.
//!
//! Dispatches live in one dense table ([`ExecPlan::dispatch`]), addressed
//! by the plain `u32` indices [`ExecPlan::slice0_idx`] and
//! [`ExecPlan::resume_idx`] return.
//!
//! A *lane* is one (packet, query) walk of a dispatch's stage runs: the
//! packet's fields, a live stage-exit `LaneState` and its frozen
//! stage-entry copy, which every module kernel reads (stage semantics:
//! writers in a stage are invisible to readers in the same stage).

use crate::init::InitTable;
use crate::phv::{MetadataSet, Report, SetId, GLOBAL_INIT};
use crate::rules::QueryId;
use crate::switch::{Instance, SliceInfo};
use newton_packet::{FieldVector, SnapshotHeader};
use newton_sketch::FastMap;

/// One dispatchable slice: its assignment plus the range of its compiled
/// stage runs in the plan's pooled op tables.
///
/// All dispatches share three plan-global pools (`ExecPlan::run`,
/// `ExecPlan::ops`, `ExecPlan::rules`) instead of owning per-slice
/// vectors: for a full query catalog the pools total about a kilobyte, so
/// the entire dispatch structure stays hot in L1 and the lane walk's
/// per-run lookups are single array loads with no pointer chase through
/// per-slice allocations.
#[derive(Debug, Clone)]
pub struct SliceDispatch {
    /// The slice assignment (stage range, capture/restore sets, totals).
    pub info: SliceInfo,
    /// `[lo, hi)` range of this slice's stage runs in the plan's run pool.
    pub(crate) runs: (u32, u32),
}

/// One compiled `newton_init` entry: a ternary match over the whole
/// 128-bit field vector.
#[derive(Debug, Clone, Copy)]
struct CompiledInitRule {
    /// Required values of the masked bits (`value & mask == value`).
    value: u128,
    /// Bits the entry constrains.
    mask: u128,
    query: QueryId,
    branch_mask: u32,
}

/// The immutable execution plan compiled from a switch's configuration.
#[derive(Debug, Clone, Default)]
pub struct ExecPlan {
    /// Every compiled slice dispatch, addressed by index from
    /// [`slice0_idx`](Self::slice0_idx) / [`resume_idx`](Self::resume_idx).
    dispatches: Vec<SliceDispatch>,
    /// Sorted by query id: the slice-0 dispatch for every query
    /// `newton_init` can classify. `None` when the switch holds only later
    /// slices of the query (classification then skips it).
    slice0: Vec<(QueryId, Option<u32>)>,
    /// Sorted by cursor: the unique later slice resuming at each cursor.
    resume: Vec<(u8, QueryId, u32)>,
    /// Compiled `newton_init` entries, in table order (minus entries that
    /// can never match).
    classifier: Vec<CompiledInitRule>,
    /// Pooled stage runs of every dispatch: `(stage, ops_lo, ops_hi)`
    /// where `ops_pool[ops_lo..ops_hi]` are the stage's ops.
    runs_pool: Vec<(u32, u32, u32)>,
    /// Pooled ops: `(slot, rlo, rhi)` — the module slot plus its rule
    /// indices `rules_pool[rlo..rhi]`.
    ops_pool: Vec<(u32, u32, u32)>,
    /// Pooled rule-table indices: the positions of a query's rules within
    /// each instance's table, in table order.
    rules_pool: Vec<u32>,
}

impl ExecPlan {
    /// Compile the plan from a switch's configuration: its `newton_init`
    /// table, its slice assignments and its module instances per stage.
    ///
    /// One pass over the module tables groups every rule by query
    /// (`RulesByQuery`); each dispatch then cuts its stage range out of
    /// its own query's group, so no table is scanned once per dispatch.
    pub(crate) fn build(
        init: &InitTable,
        slices: &FastMap<QueryId, Vec<SliceInfo>>,
        stages: &[Vec<Instance>],
    ) -> ExecPlan {
        let held = RulesByQuery::new(stages);
        let mut runs_pool: Vec<(u32, u32, u32)> = Vec::new();
        let mut ops_pool: Vec<(u32, u32, u32)> = Vec::new();
        let mut rules_pool: Vec<u32> = Vec::new();
        let mut compile = |query: QueryId, (lo, hi): (usize, usize)| -> (u32, u32) {
            // The range's rules: one run per stage, one op per slot.
            let runs_start = runs_pool.len() as u32;
            let rules = held.of(query);
            let from = rules.partition_point(|r| (r.0 as usize) < lo);
            let to = rules.partition_point(|r| (r.0 as usize) < hi).max(from);
            for stage_rules in rules[from..to].chunk_by(|a, b| a.0 == b.0) {
                let ops_lo = ops_pool.len() as u32;
                for slot_rules in stage_rules.chunk_by(|a, b| a.1 == b.1) {
                    let rlo = rules_pool.len() as u32;
                    rules_pool.extend(slot_rules.iter().map(|r| r.2));
                    ops_pool.push((slot_rules[0].1, rlo, rules_pool.len() as u32));
                }
                runs_pool.push((stage_rules[0].0, ops_lo, ops_pool.len() as u32));
            }
            (runs_start, runs_pool.len() as u32)
        };

        let mut dispatches: Vec<SliceDispatch> = Vec::new();
        let mut queries: Vec<QueryId> = init.rules().iter().map(|r| r.query).collect();
        queries.sort_unstable();
        queries.dedup();
        let slice0 = queries
            .into_iter()
            .map(|query| {
                let info = match slices.get(&query) {
                    // Unassigned queries execute as a whole pipeline.
                    None => Some(SliceInfo::whole()),
                    Some(infos) => infos.iter().find(|i| i.index == 0).copied(),
                };
                let idx = info.map(|info| {
                    dispatches.push(SliceDispatch { runs: compile(query, info.stages), info });
                    (dispatches.len() - 1) as u32
                });
                (query, idx)
            })
            .collect();

        let mut resume: Vec<(u8, QueryId, u32)> = Vec::new();
        for (&query, infos) in slices {
            for &info in infos.iter().filter(|i| i.index > 0) {
                dispatches.push(SliceDispatch { runs: compile(query, info.stages), info });
                resume.push((info.index, query, (dispatches.len() - 1) as u32));
            }
        }
        resume.sort_by_key(|&(cursor, query, _)| (cursor, query));

        let classifier = init.rules().iter().filter_map(compile_init_rule).collect();
        ExecPlan { dispatches, slice0, resume, classifier, runs_pool, ops_pool, rules_pool }
    }

    /// One pooled stage run: `(stage, ops_lo, ops_hi)`.
    #[inline(always)]
    pub(crate) fn run(&self, idx: u32) -> (u32, u32, u32) {
        self.runs_pool[idx as usize]
    }

    /// A run's pooled ops: `(slot, rlo, rhi)` each.
    #[inline(always)]
    pub(crate) fn ops(&self, lo: u32, hi: u32) -> &[(u32, u32, u32)] {
        &self.ops_pool[lo as usize..hi as usize]
    }

    /// An op's pre-resolved rule-table indices.
    #[inline(always)]
    pub(crate) fn rules(&self, rlo: u32, rhi: u32) -> &[u32] {
        &self.rules_pool[rlo as usize..rhi as usize]
    }

    /// The dispatch behind an index returned by
    /// [`slice0_idx`](Self::slice0_idx) / [`resume_idx`](Self::resume_idx).
    #[inline]
    pub fn dispatch(&self, idx: u32) -> &SliceDispatch {
        &self.dispatches[idx as usize]
    }

    /// Dispatch-table index of a classified query's slice 0, if this
    /// switch executes the query's first slice.
    #[inline]
    pub fn slice0_idx(&self, query: QueryId) -> Option<u32> {
        self.slice0.binary_search_by_key(&query, |&(q, _)| q).ok().and_then(|i| self.slice0[i].1)
    }

    /// Dispatch-table index of the slice resuming at `cursor` (exclusive
    /// per cursor by construction), if any.
    #[inline]
    pub fn resume_idx(&self, cursor: u8) -> Option<(QueryId, u32)> {
        self.resume
            .binary_search_by_key(&cursor, |&(c, _, _)| c)
            .ok()
            .map(|i| (self.resume[i].1, self.resume[i].2))
    }

    /// Compiled `newton_init` classification: the union of branch
    /// activations per query across all matching entries, sorted by query
    /// id — output-identical to
    /// [`InitTable::classify_into`](crate::InitTable::classify_into).
    pub fn classify_into(&self, fields: &FieldVector, out: &mut Vec<(QueryId, u32)>) {
        out.clear();
        for rule in &self.classifier {
            if fields.0 & rule.mask == rule.value {
                match out.binary_search_by_key(&rule.query, |&(q, _)| q) {
                    Ok(pos) => out[pos].1 |= rule.branch_mask,
                    Err(pos) => out.insert(pos, (rule.query, rule.branch_mask)),
                }
            }
        }
    }
}

/// Every module rule's `(stage, slot, index)`, grouped by query with one
/// counting sort over a switch's tables. The sort is stable, so each
/// query's group keeps stage, slot and table order.
struct RulesByQuery {
    /// Dense group number of every query holding a module rule.
    group: FastMap<QueryId, u32>,
    /// Group `g` is `rules[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    rules: Vec<(u32, u32, u32)>,
}

impl RulesByQuery {
    fn new(stages: &[Vec<Instance>]) -> Self {
        let mut group: FastMap<QueryId, u32> = FastMap::default();
        let mut tagged: Vec<(u32, (u32, u32, u32))> = Vec::new();
        for (stage, insts) in stages.iter().enumerate() {
            for (slot, inst) in insts.iter().enumerate() {
                inst.for_each_rule(|idx, query| {
                    let next = group.len() as u32;
                    let g = *group.entry(query).or_insert(next);
                    tagged.push((g, (stage as u32, slot as u32, idx)));
                });
            }
        }
        let mut starts = vec![0u32; group.len() + 1];
        for &(g, _) in &tagged {
            starts[g as usize + 1] += 1;
        }
        for g in 1..starts.len() {
            starts[g] += starts[g - 1];
        }
        let mut fill = starts.clone();
        let mut rules = vec![(0, 0, 0); tagged.len()];
        for (g, at) in tagged {
            rules[fill[g as usize] as usize] = at;
            fill[g as usize] += 1;
        }
        RulesByQuery { group, starts, rules }
    }

    /// `query`'s rules, in stage, slot and table order.
    fn of(&self, query: QueryId) -> &[(u32, u32, u32)] {
        let Some(&g) = self.group.get(&query) else { return &[] };
        &self.rules[self.starts[g as usize] as usize..self.starts[g as usize + 1] as usize]
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
fn compile_init_rule(rule: &crate::rules::InitRule) -> Option<CompiledInitRule> {
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
    Some(CompiledInitRule { value, mask, query: rule.query, branch_mask: rule.branch_mask })
}

/// Branch test identical to [`Phv::branch_active`](crate::Phv): same shift
/// expression, so debug-overflow and release-masking behaviour match the
/// reference walk bit for bit.
#[inline(always)]
pub(crate) fn lane_branch_active(active: u32, branch: u8) -> bool {
    active & (1 << branch) != 0
}

/// One lane's mutable PHV state, packed so the per-stage entry freeze is a
/// single contiguous copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneState {
    /// The two metadata sets (op keys, hash result, state result).
    pub(crate) sets: [MetadataSet; 2],
    /// The global result accumulator.
    pub(crate) global: u32,
    /// Branch-activity mask; `0` ⇔ the lane is dead.
    pub(crate) active: u32,
}

/// One (packet, query) walk on the compiled path. Module kernels read
/// `entry` and `fields` and write `cur`; ℝ pushes reports straight into
/// the packet's output in emission order.
pub(crate) struct Lane<'a> {
    pub(crate) fields: FieldVector,
    pub(crate) query: QueryId,
    /// Live stage-exit state.
    pub(crate) cur: LaneState,
    /// Frozen stage-entry state.
    pub(crate) entry: LaneState,
    pub(crate) reports: &'a mut Vec<Report>,
}

impl<'a> Lane<'a> {
    /// A fresh slice-0 lane with `active` from the classification branch
    /// mask (the twin of [`Phv::new`](crate::Phv::new) plus branch-mask
    /// assignment).
    pub(crate) fn new(
        fields: FieldVector,
        query: QueryId,
        active: u32,
        reports: &'a mut Vec<Report>,
    ) -> Self {
        let state = LaneState { sets: [MetadataSet::default(); 2], global: GLOBAL_INIT, active };
        Lane { fields, query, cur: state, entry: state, reports }
    }

    /// A lane resumed from an incoming snapshot into `restore` (the twin
    /// of [`Phv::restore_snapshot`](crate::Phv::restore_snapshot)).
    pub(crate) fn resume(
        fields: FieldVector,
        query: QueryId,
        sp: &SnapshotHeader,
        restore: SetId,
        reports: &'a mut Vec<Report>,
    ) -> Self {
        let mut lane = Lane::new(fields, query, sp.active_mask as u32, reports);
        let set = &mut lane.cur.sets[restore.index()];
        set.hash_result = sp.hash_result as u32;
        set.state_result = sp.state_result;
        lane.cur.global = sp.global_result;
        lane
    }

    /// The egress snapshot `newton_fin` piggybacks (the twin of
    /// [`Phv::capture_snapshot`](crate::Phv::capture_snapshot)).
    pub(crate) fn capture(&self, cursor: u8, set: SetId) -> SnapshotHeader {
        let s = &self.cur.sets[set.index()];
        SnapshotHeader {
            cursor,
            active_mask: (self.cur.active & 0xFF) as u8,
            hash_result: s.hash_result as u16,
            state_result: s.state_result,
            global_result: self.cur.global,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::InitRule;
    use newton_packet::{Field, PacketBuilder, TcpFlags};

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
        let plan = ExecPlan::build(&init, &FastMap::default(), &[]);

        let packets = [
            PacketBuilder::new().tcp_flags(TcpFlags::SYN).dst_port(80).build(),
            PacketBuilder::new().dst_ip(0xAC10_1234).build(),
            PacketBuilder::new().protocol(newton_packet::Protocol::Udp).build(),
            PacketBuilder::new().dst_ip(0x0A00_0001).tcp_flags(TcpFlags::ACK).build(),
        ];
        let mut compiled = Vec::new();
        for pkt in &packets {
            plan.classify_into(&FieldVector::from_packet(pkt), &mut compiled);
            assert_eq!(compiled, init.classify(pkt), "diverged on {pkt:?}");
        }
    }
}
