//! Module layouts: how 𝕂/ℍ/𝕊/ℝ instances are placed into physical stages.
//!
//! The layout is fixed at *initialization time* (it is part of the loaded
//! P4 program); queries then bind rules to the laid-out instances at
//! runtime. Two layouts from §4.2:
//!
//! * **Naïve**: one module instance per stage, cycling 𝕂→ℍ→𝕊→ℝ. Simple,
//!   but at most 25 % of each stage's resources are usable.
//! * **Compact**: one instance of *each* kind per stage. Write-read
//!   dependencies forbid a single metadata set from using two dependent
//!   modules in one stage, but with the two independent metadata sets a
//!   query advances both sets one module per stage (Fig. 5), quadrupling
//!   usable resources.

use crate::resources::{module_costs, ResourceVector};
use std::fmt;

/// The four Newton module kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleKind {
    KeySelection,
    HashCalculation,
    StateBank,
    ResultProcess,
}

impl ModuleKind {
    /// All kinds in pipeline-dependency order (𝕂 → ℍ → 𝕊 → ℝ).
    pub const ALL: [ModuleKind; 4] = [
        ModuleKind::KeySelection,
        ModuleKind::HashCalculation,
        ModuleKind::StateBank,
        ModuleKind::ResultProcess,
    ];

    /// Position in the write-read dependency chain (Fig. 4): 𝕂 writes what
    /// ℍ reads, ℍ writes what 𝕊 reads, 𝕊 writes what ℝ reads.
    pub fn depth(self) -> usize {
        match self {
            ModuleKind::KeySelection => 0,
            ModuleKind::HashCalculation => 1,
            ModuleKind::StateBank => 2,
            ModuleKind::ResultProcess => 3,
        }
    }

    /// Whether `self` writes state that `next` reads (same metadata set) —
    /// such pairs cannot share a stage.
    pub fn feeds(self, next: ModuleKind) -> bool {
        next.depth() == self.depth() + 1
    }

    /// Per-instance hardware cost.
    pub fn cost(self) -> ResourceVector {
        match self {
            ModuleKind::KeySelection => module_costs::KEY_SELECTION,
            ModuleKind::HashCalculation => module_costs::HASH_CALCULATION,
            ModuleKind::StateBank => module_costs::STATE_BANK,
            ModuleKind::ResultProcess => module_costs::RESULT_PROCESS,
        }
    }

    /// Single-letter name used in figures (K/H/S/R).
    pub fn letter(self) -> char {
        match self {
            ModuleKind::KeySelection => 'K',
            ModuleKind::HashCalculation => 'H',
            ModuleKind::StateBank => 'S',
            ModuleKind::ResultProcess => 'R',
        }
    }
}

impl fmt::Display for ModuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// Which layout the P4 program was initialized with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutKind {
    /// One module per stage (the §4.2 baseline).
    Naive,
    /// One module of each kind per stage (Fig. 5).
    Compact,
}

/// Address of a module instance in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleAddr {
    pub stage: usize,
    /// Slot within the stage (0 in the naïve layout; 0..4 in compact).
    pub slot: usize,
}

impl fmt::Display for ModuleAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}.{}", self.stage, self.slot)
    }
}

/// The static module layout of a pipeline.
#[derive(Debug, Clone)]
pub struct Layout {
    kind: LayoutKind,
    stages: Vec<Vec<ModuleKind>>,
}

impl Layout {
    /// Build a layout over `stages` pipeline stages.
    pub fn new(kind: LayoutKind, stages: usize) -> Self {
        let stages_vec = (0..stages)
            .map(|i| match kind {
                // Naïve: cycle K, H, S, R one per stage.
                LayoutKind::Naive => vec![ModuleKind::ALL[i % 4]],
                // Compact: all four kinds in every stage.
                LayoutKind::Compact => ModuleKind::ALL.to_vec(),
            })
            .collect();
        Layout { kind, stages: stages_vec }
    }

    pub fn kind(&self) -> LayoutKind {
        self.kind
    }

    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Module kinds in a stage, by slot.
    pub fn stage(&self, stage: usize) -> &[ModuleKind] {
        &self.stages[stage]
    }

    /// The kind at an address, if it exists.
    pub fn kind_at(&self, addr: ModuleAddr) -> Option<ModuleKind> {
        self.stages.get(addr.stage)?.get(addr.slot).copied()
    }

    /// Find the slot of `kind` within `stage`, if present.
    pub fn slot_of(&self, stage: usize, kind: ModuleKind) -> Option<usize> {
        self.stages.get(stage)?.iter().position(|&k| k == kind)
    }

    /// Total module instances in the pipeline.
    pub fn instance_count(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }

    /// Hardware cost of the whole layout (instances only, excluding
    /// `newton_init`).
    pub fn total_cost(&self) -> ResourceVector {
        self.stages.iter().flatten().fold(ResourceVector::ZERO, |acc, k| acc + k.cost())
    }

    /// Per-stage cost of stage `i`.
    pub fn stage_cost(&self, stage: usize) -> ResourceVector {
        self.stages[stage].iter().fold(ResourceVector::ZERO, |acc, k| acc + k.cost())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::StageBudget;

    #[test]
    fn naive_layout_one_module_per_stage() {
        let l = Layout::new(LayoutKind::Naive, 8);
        assert_eq!(l.instance_count(), 8);
        assert_eq!(l.stage(0), &[ModuleKind::KeySelection]);
        assert_eq!(l.stage(1), &[ModuleKind::HashCalculation]);
        assert_eq!(l.stage(4), &[ModuleKind::KeySelection]);
    }

    #[test]
    fn compact_layout_four_modules_per_stage() {
        let l = Layout::new(LayoutKind::Compact, 6);
        assert_eq!(l.instance_count(), 24);
        for s in 0..6 {
            assert_eq!(l.stage(s).len(), 4);
        }
        assert_eq!(l.slot_of(0, ModuleKind::StateBank), Some(2));
    }

    #[test]
    fn compact_stage_fits_budget() {
        let l = Layout::new(LayoutKind::Compact, 1);
        assert!(l.stage_cost(0).fits_within(&StageBudget::capacity()));
    }

    #[test]
    fn compact_quadruples_naive_utilization() {
        // Same stage count: compact packs 4x the instances, hence ~4x the
        // per-stage utilization Table 3 reports.
        let n = Layout::new(LayoutKind::Naive, 12);
        let c = Layout::new(LayoutKind::Compact, 12);
        assert_eq!(c.instance_count(), 4 * n.instance_count());
    }

    #[test]
    fn dependency_chain_matches_fig4() {
        use ModuleKind::*;
        assert!(KeySelection.feeds(HashCalculation));
        assert!(HashCalculation.feeds(StateBank));
        assert!(StateBank.feeds(ResultProcess));
        assert!(!KeySelection.feeds(StateBank));
        assert!(!ResultProcess.feeds(KeySelection));
    }

    /// The compiled walk runs a stage's steps ℝ, 𝕊, ℍ, 𝕂 on one lane
    /// state (see `exec`). That reproduces stage semantics only while no
    /// stage holds two instances of one kind.
    #[test]
    fn every_stage_holds_each_kind_at_most_once() {
        for kind in [LayoutKind::Naive, LayoutKind::Compact] {
            for stages in 0..=16 {
                let l = Layout::new(kind, stages);
                for s in 0..stages {
                    for k in ModuleKind::ALL {
                        let n = l.stage(s).iter().filter(|&&x| x == k).count();
                        assert!(n <= 1, "{kind:?} stage {s} holds {n} {k} instances");
                    }
                }
            }
        }
    }

    #[test]
    fn kind_at_out_of_range_is_none() {
        let l = Layout::new(LayoutKind::Naive, 2);
        assert_eq!(l.kind_at(ModuleAddr { stage: 5, slot: 0 }), None);
        assert_eq!(l.kind_at(ModuleAddr { stage: 0, slot: 1 }), None);
        assert_eq!(l.kind_at(ModuleAddr { stage: 0, slot: 0 }), Some(ModuleKind::KeySelection));
    }
}
