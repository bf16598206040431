//! The packet header vector (PHV) as Newton's modules see it.
//!
//! §4.2: "the compact module layout improves the utilization of other
//! resources at the cost of accommodating an additional metadata set and
//! the global result with PHV". A [`Phv`] therefore carries:
//!
//! * the parsed packet fields (immutable during the pipeline walk — every
//!   module can re-read original header fields),
//! * **two** independent [`MetadataSet`]s (operation keys, hash result,
//!   state result) so dependency-free modules of different sets share a
//!   stage,
//! * the **global result**, the cross-set accumulator ℝ matches and
//!   updates,
//! * per-branch activity bits (a stopped branch executes no further
//!   modules), and
//! * the reports mirrored to the analyzer.

use newton_packet::{FieldVector, Packet, SnapshotHeader};

/// Which of the two metadata sets a module instance reads/writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetId {
    /// The "red" set of Fig. 5.
    Set1,
    /// The "blue" set of Fig. 5.
    Set2,
}

impl SetId {
    pub fn index(self) -> usize {
        match self {
            SetId::Set1 => 0,
            SetId::Set2 => 1,
        }
    }

    /// The other set (vertical composition alternates sets).
    pub fn other(self) -> SetId {
        match self {
            SetId::Set1 => SetId::Set2,
            SetId::Set2 => SetId::Set1,
        }
    }
}

/// One metadata set: operation keys + hash result + state result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetadataSet {
    /// Masked global field vector produced by 𝕂.
    pub op_keys: u128,
    /// Register index produced by ℍ.
    pub hash_result: u32,
    /// SALU output produced by 𝕊.
    pub state_result: u32,
}

/// A monitoring report mirrored to the software analyzer: "the switch
/// shall report the operation keys, hash results, state results and the
/// global result" (§4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The reporting query.
    pub query: u32,
    /// The branch whose ℝ fired.
    pub branch: u8,
    /// Operation keys of the reporting set.
    pub op_keys: u128,
    pub hash_result: u32,
    pub state_result: u32,
    pub global_result: u32,
}

/// Initial value of the global result. ℝ's `min` merges require "larger
/// than any count", so the PHV initializes the accumulator to `u32::MAX`.
pub const GLOBAL_INIT: u32 = u32::MAX;

/// The PHV walking the pipeline for one (packet, query) pair.
#[derive(Debug, Clone)]
pub struct Phv {
    /// Parsed packet fields; modules may re-read these at any stage.
    pub fields: FieldVector,
    /// The two metadata sets of the compact layout.
    pub sets: [MetadataSet; 2],
    /// Cross-set accumulator.
    pub global_result: u32,
    /// The query this walk executes.
    pub query: u32,
    /// Bit `b` set ⇔ branch `b` still active.
    pub active_branches: u32,
    /// Reports emitted during this walk.
    pub reports: Vec<Report>,
}

impl Phv {
    /// Fresh PHV for `pkt` executing `query` with `branches` branches all
    /// active.
    pub fn new(pkt: &Packet, query: u32, branches: u8) -> Self {
        Phv {
            fields: FieldVector::from_packet(pkt),
            sets: [MetadataSet::default(); 2],
            global_result: GLOBAL_INIT,
            query,
            active_branches: if branches >= 32 { u32::MAX } else { (1u32 << branches) - 1 },
            reports: Vec::new(),
        }
    }

    /// Restore in-flight state from a result snapshot (CQE ingress parse).
    /// The snapshot carries the *active* set's stateful results, the branch
    /// activity mask and the global result; operation keys are recomputed
    /// by 𝕂 at this hop.
    pub fn restore_snapshot(&mut self, sp: &SnapshotHeader, set: SetId) {
        self.sets[set.index()].hash_result = sp.hash_result as u32;
        self.sets[set.index()].state_result = sp.state_result;
        self.global_result = sp.global_result;
        self.active_branches = sp.active_mask as u32;
    }

    /// Capture the snapshot `newton_fin` piggybacks on egress (CQE).
    pub fn capture_snapshot(&self, cursor: u8, set: SetId) -> SnapshotHeader {
        SnapshotHeader {
            cursor,
            active_mask: (self.active_branches & 0xFF) as u8,
            hash_result: self.sets[set.index()].hash_result as u16,
            state_result: self.sets[set.index()].state_result,
            global_result: self.global_result,
        }
    }

    #[inline]
    pub fn branch_active(&self, branch: u8) -> bool {
        self.active_branches & (1 << branch) != 0
    }

    #[inline]
    pub fn deactivate_branch(&mut self, branch: u8) {
        self.active_branches &= !(1 << branch);
    }

    /// Whether any branch is still executing.
    #[inline]
    pub fn any_active(&self) -> bool {
        self.active_branches != 0
    }

    #[inline]
    pub fn set(&self, id: SetId) -> &MetadataSet {
        &self.sets[id.index()]
    }

    #[inline]
    pub fn set_mut(&mut self, id: SetId) -> &mut MetadataSet {
        &mut self.sets[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newton_packet::PacketBuilder;

    #[test]
    fn new_phv_activates_requested_branches() {
        let pkt = PacketBuilder::new().build();
        let phv = Phv::new(&pkt, 1, 3);
        assert!(phv.branch_active(0) && phv.branch_active(1) && phv.branch_active(2));
        assert!(!phv.branch_active(3));
        assert_eq!(phv.global_result, GLOBAL_INIT);
    }

    #[test]
    fn deactivation_is_per_branch() {
        let pkt = PacketBuilder::new().build();
        let mut phv = Phv::new(&pkt, 1, 2);
        phv.deactivate_branch(0);
        assert!(!phv.branch_active(0));
        assert!(phv.branch_active(1));
        assert!(phv.any_active());
        phv.deactivate_branch(1);
        assert!(!phv.any_active());
    }

    #[test]
    fn snapshot_roundtrip_through_phv() {
        let pkt = PacketBuilder::new().build();
        let mut phv = Phv::new(&pkt, 1, 1);
        phv.set_mut(SetId::Set1).hash_result = 1234;
        phv.set_mut(SetId::Set1).state_result = 99;
        phv.global_result = 7;
        let sp = phv.capture_snapshot(2, SetId::Set1);
        assert_eq!(sp.cursor, 2);

        let mut phv2 = Phv::new(&pkt, 1, 1);
        phv2.restore_snapshot(&sp, SetId::Set1);
        assert_eq!(phv2.set(SetId::Set1).hash_result, 1234);
        assert_eq!(phv2.set(SetId::Set1).state_result, 99);
        assert_eq!(phv2.global_result, 7);
        assert!(phv2.branch_active(0), "active mask travels with the snapshot");
    }

    #[test]
    fn snapshot_preserves_stopped_branches() {
        let pkt = PacketBuilder::new().build();
        let mut phv = Phv::new(&pkt, 1, 3);
        phv.deactivate_branch(1);
        let sp = phv.capture_snapshot(1, SetId::Set1);
        let mut next = Phv::new(&pkt, 1, 3);
        next.restore_snapshot(&sp, SetId::Set1);
        assert!(next.branch_active(0));
        assert!(!next.branch_active(1), "stopped branch must stay stopped downstream");
        assert!(next.branch_active(2));
    }

    #[test]
    fn sets_are_independent() {
        let pkt = PacketBuilder::new().build();
        let mut phv = Phv::new(&pkt, 0, 1);
        phv.set_mut(SetId::Set1).op_keys = 0xAA;
        phv.set_mut(SetId::Set2).op_keys = 0xBB;
        assert_eq!(phv.set(SetId::Set1).op_keys, 0xAA);
        assert_eq!(phv.set(SetId::Set2).op_keys, 0xBB);
        assert_eq!(SetId::Set1.other(), SetId::Set2);
    }

    #[test]
    fn many_branches_saturate_mask() {
        let pkt = PacketBuilder::new().build();
        let phv = Phv::new(&pkt, 0, 32);
        assert!(phv.branch_active(31));
    }
}
