//! Structure-of-arrays PHV lanes for the batch-first execution path.
//!
//! One [`PhvBatch`] holds every in-flight (packet, query) *lane* of a
//! packet batch as parallel columns instead of an array of [`Phv`]
//! structs: the per-lane state a module touches — one metadata-set pair,
//! one global result, one activity mask — is a single packed
//! `LaneState`, so a kernel reads one cache line per lane and the
//! stage-entry freeze is one contiguous copy. Lanes are walked one at a
//! time, each straight through its compiled run list.
//!
//! Lane liveness is the activity mask itself (`cur[l].active == 0` ⇔ the
//! lane is dead); a dead lane is skipped at stage boundaries exactly like
//! the scalar walk's `any_active` gate. Lanes are appended packet-major,
//! in `newton_init` classification order within a packet, which makes the
//! lane index the canonical ordering key: reports are tagged
//! `(lane, seq)` at push time and sorted back into the scalar path's
//! emission order before they leave [`Switch::process_batch`].
//!
//! [`Phv`]: crate::phv::Phv
//! [`Switch::process_batch`]: crate::Switch::process_batch

use crate::phv::{MetadataSet, Report, GLOBAL_INIT};
use crate::rules::QueryId;
use newton_packet::{FieldVector, SnapshotHeader};

/// Branch test identical to [`Phv::branch_active`](crate::Phv): same shift
/// expression, so debug-overflow and release-masking behaviour match the
/// scalar path bit for bit.
#[inline(always)]
pub(crate) fn lane_branch_active(active: u32, branch: u8) -> bool {
    active & (1 << branch) != 0
}

/// One lane's mutable PHV state, packed so the per-stage entry freeze is
/// a single contiguous copy and a module touches one cache line per lane.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneState {
    /// The two metadata sets (op keys, hash result, state result).
    pub(crate) sets: [MetadataSet; 2],
    /// The global result accumulator.
    pub(crate) global: u32,
    /// Branch-activity mask; `0` ⇔ the lane is dead.
    pub(crate) active: u32,
}

/// The SoA lane columns of one in-flight packet batch.
///
/// The `cur` column is the live stage-exit state; `entry` is the frozen
/// stage-entry snapshot every module instance reads (stage semantics:
/// writers in a stage are invisible to readers in the same stage).
/// Capacity is recycled across batches.
#[derive(Debug, Clone, Default)]
pub struct PhvBatch {
    /// Parsed packet fields, one entry per *packet* of the batch.
    pub(crate) fields: Vec<FieldVector>,
    /// Lane → packet index (into [`fields`](Self::fields)).
    pub(crate) lane_pkt: Vec<u32>,
    /// Lane → executing query.
    pub(crate) lane_query: Vec<QueryId>,
    /// Lane → dispatch index into the plan's dense dispatch table.
    pub(crate) lane_group: Vec<u32>,
    /// Live per-lane state (stage-exit).
    pub(crate) cur: Vec<LaneState>,
    /// Frozen stage-entry per-lane state.
    pub(crate) entry: Vec<LaneState>,
    /// Reports tagged `(lane, seq)` at push time; sorting by that key
    /// reconstructs the scalar path's packet-major emission order.
    pub(crate) reports: Vec<(u32, u32, Report)>,
    /// ℝ per-(lane, op) winner scratch, generation-tagged so it needs no
    /// per-op clearing: `r_tag[b] == r_gen` ⇔ `r_best[b]` is current.
    pub(crate) r_best: [u32; 32],
    pub(crate) r_order: [u8; 32],
    pub(crate) r_tag: [u32; 32],
    pub(crate) r_gen: u32,
}

impl PhvBatch {
    /// Number of lanes in the current batch.
    #[inline]
    pub(crate) fn lanes(&self) -> usize {
        self.lane_pkt.len()
    }

    /// Reset for a new batch, keeping every column's capacity.
    pub(crate) fn clear(&mut self) {
        self.fields.clear();
        self.lane_pkt.clear();
        self.lane_query.clear();
        self.lane_group.clear();
        self.cur.clear();
        self.entry.clear();
        self.reports.clear();
    }

    /// Pre-size the columns for a batch of `pkts` packets expanding to
    /// about `lanes` lanes (epoch-loop scratch recycling).
    pub(crate) fn reserve(&mut self, pkts: usize, lanes: usize) {
        self.fields.reserve(pkts);
        self.lane_pkt.reserve(lanes);
        self.lane_query.reserve(lanes);
        self.lane_group.reserve(lanes);
        self.cur.reserve(lanes);
        self.entry.reserve(lanes);
    }

    /// Append a slice-0 lane: fresh metadata, `active` from the
    /// classification branch mask (the batched twin of `Phv::reset` +
    /// branch-mask assignment).
    #[inline]
    pub(crate) fn push_lane(&mut self, pkt: u32, query: QueryId, group: u32, active: u32) {
        self.lane_pkt.push(pkt);
        self.lane_query.push(query);
        self.lane_group.push(group);
        self.cur.push(LaneState { sets: [MetadataSet::default(); 2], global: GLOBAL_INIT, active });
        self.entry.push(LaneState::default());
    }

    /// Append a resume lane restored from an incoming snapshot (the
    /// batched twin of `Phv::restore_snapshot` into `restore_set`).
    #[inline]
    pub(crate) fn push_resume_lane(
        &mut self,
        pkt: u32,
        query: QueryId,
        group: u32,
        sp: &SnapshotHeader,
        restore_set: usize,
    ) {
        self.push_lane(pkt, query, group, sp.active_mask as u32);
        let cur = self.cur.last_mut().expect("lane just pushed");
        cur.sets[restore_set].hash_result = sp.hash_result as u32;
        cur.sets[restore_set].state_result = sp.state_result;
        cur.global = sp.global_result;
    }

    /// Capture a lane's egress snapshot (the batched twin of
    /// `Phv::capture_snapshot`).
    #[inline]
    pub(crate) fn capture(&self, lane: usize, cursor: u8, capture_set: usize) -> SnapshotHeader {
        let cur = &self.cur[lane];
        SnapshotHeader {
            cursor,
            active_mask: (cur.active & 0xFF) as u8,
            hash_result: cur.sets[capture_set].hash_result as u16,
            state_result: cur.sets[capture_set].state_result,
            global_result: cur.global,
        }
    }

    /// Start a fresh ℝ winner-scratch generation; on wrap, invalidate
    /// every tag so a stale `r_tag` can never alias the new generation.
    #[inline]
    pub(crate) fn r_next_gen(&mut self) -> u32 {
        self.r_gen = self.r_gen.wrapping_add(1);
        if self.r_gen == 0 {
            self.r_tag = [0; 32];
            self.r_gen = 1;
        }
        self.r_gen
    }
}

/// What one [`Switch::process_batch`](crate::Switch::process_batch) call
/// produced, indexed by *packet* position within the input batch.
#[derive(Debug, Clone, Default)]
pub struct BatchOutput {
    /// `(packet index, report)` in canonical order: packet-major, then
    /// classification order, then execution order — byte-identical to
    /// running the scalar path per packet.
    pub reports: Vec<(u32, Report)>,
    /// Per-packet outgoing snapshot, same semantics as
    /// [`PipelineOutput::snapshot`](crate::PipelineOutput).
    pub snapshots: Vec<Option<SnapshotHeader>>,
}

impl BatchOutput {
    /// Reset for reuse, keeping capacity.
    pub fn clear(&mut self) {
        self.reports.clear();
        self.snapshots.clear();
    }
}
