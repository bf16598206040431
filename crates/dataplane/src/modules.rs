//! The four reconfigurable module implementations.
//!
//! Each module instance is a match-action table (plus, for 𝕊, a register
//! array). Rules match on `(query, branch)`; actions are interpreted per
//! packet. Instances execute with *stage semantics*: they read the PHV as
//! it entered the stage and write their outputs into the PHV that exits it,
//! which is exactly why write-read-dependent modules cannot share a stage
//! (Fig. 4) and why the two metadata sets make the compact layout work.

use crate::phv::{Phv, Report, GLOBAL_INIT};
use crate::rules::{HRule, HashMode, KRule, Operand, QueryId, RAction, RRule, SRule, SaluOp};
use newton_packet::FieldVector;
use newton_sketch::HashFn;

/// Default rule capacity per module instance ("we configure each module to
/// accommodate 256 rules", §6.2).
pub const DEFAULT_RULE_CAPACITY: usize = 256;

/// Errors installing a rule into a module instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallError {
    /// The instance's rule table is full.
    CapacityExceeded { capacity: usize },
    /// A rule for this (query, branch) already exists on this instance.
    Duplicate { query: QueryId, branch: u8 },
    /// An ℍ rule hashes into an empty range (`HashMode::Hash { range: 0 }`):
    /// no register index exists to produce.
    EmptyHashRange { query: QueryId, branch: u8 },
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::CapacityExceeded { capacity } => {
                write!(f, "module rule table full (capacity {capacity})")
            }
            InstallError::Duplicate { query, branch } => {
                write!(f, "rule for query {query} branch {branch} already installed")
            }
            InstallError::EmptyHashRange { query, branch } => {
                write!(f, "hash rule for query {query} branch {branch} has an empty range")
            }
        }
    }
}

impl std::error::Error for InstallError {}

fn resolve(op: Operand, fields: FieldVector) -> u32 {
    match op {
        Operand::Const(c) => c,
        Operand::Field(f) => fields.get(f) as u32,
    }
}

/// Key-selection module instance (𝕂).
#[derive(Debug, Clone)]
pub struct KModule {
    rules: Vec<KRule>,
    capacity: usize,
}

/// Hash-calculation module instance (ℍ).
#[derive(Debug, Clone)]
pub struct HModule {
    rules: Vec<HRule>,
    capacity: usize,
}

/// State-bank module instance (𝕊): rule table + register array.
#[derive(Debug, Clone)]
pub struct SModule {
    rules: Vec<SRule>,
    capacity: usize,
    /// Empty until the first rule is installed, then `len` registers for
    /// good: a bank no query has used costs no memory and no reset work.
    registers: Vec<u32>,
    /// Configured register array length.
    len: usize,
    stats: BankStats,
    /// `len - 1` when the register array length is a power of two (the
    /// default 4096 is), so the hot index reduction is an `AND` instead of
    /// an integer division; `0` otherwise (which also happens to be the
    /// correct mask for a length-1 array).
    pow2_mask: usize,
}

/// State-bank activity counters, accumulated per epoch: how full the
/// sketch rows are getting (insertions), how often distinct keys land on
/// an occupied register (collisions), and how often a `Write`/`Max`
/// displaces a live value (evictions). Plain saturating-free `u64` adds
/// on the SALU path; the epoch driver drains them with
/// [`SModule::take_stats`] before the register reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Operations that turned a zero register nonzero.
    pub insertions: u64,
    /// Operations that touched an already-nonzero register.
    pub collisions: u64,
    /// `Write`/`Max` operations that replaced a live value with a
    /// different one.
    pub evictions: u64,
}

impl BankStats {
    /// Fold another bank's counters into this one.
    pub fn merge(&mut self, o: &BankStats) {
        self.insertions += o.insertions;
        self.collisions += o.collisions;
        self.evictions += o.evictions;
    }

    #[inline(always)]
    fn observe(&mut self, old: u32, new: u32, evicting: bool) {
        self.insertions += u64::from(old == 0 && new != 0);
        self.collisions += u64::from(old != 0);
        self.evictions += u64::from(evicting && old != 0 && new != old);
    }
}

/// Result-process module instance (ℝ).
#[derive(Debug, Clone)]
pub struct RModule {
    rules: Vec<RRule>,
    capacity: usize,
}

macro_rules! impl_table {
    ($ty:ident, $rule:ident) => {
        impl $ty {
            /// Installed rule count.
            pub fn rule_count(&self) -> usize {
                self.rules.len()
            }

            /// Remaining rule capacity.
            pub fn free_capacity(&self) -> usize {
                self.capacity - self.rules.len()
            }

            /// Remove all rules of `query`; returns how many were removed.
            pub fn remove_query(&mut self, query: QueryId) -> usize {
                let before = self.rules.len();
                self.rules.retain(|r| r.query != query);
                before - self.rules.len()
            }

            /// Iterate over installed rules.
            pub fn rules(&self) -> &[$rule] {
                &self.rules
            }
        }
    };
}

impl_table!(KModule, KRule);
impl_table!(HModule, HRule);
impl_table!(SModule, SRule);
impl_table!(RModule, RRule);

impl KModule {
    pub fn new(capacity: usize) -> Self {
        KModule { rules: Vec::new(), capacity }
    }

    /// Install a rule. At most one rule per (query, branch) per instance.
    pub fn install(&mut self, rule: KRule) -> Result<(), InstallError> {
        if self.rules.iter().any(|r| r.query == rule.query && r.branch == rule.branch) {
            return Err(InstallError::Duplicate { query: rule.query, branch: rule.branch });
        }
        if self.rules.len() >= self.capacity {
            return Err(InstallError::CapacityExceeded { capacity: self.capacity });
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Execute: select operation keys for each matching active branch.
    pub fn execute(&self, input: &Phv, output: &mut Phv) {
        for r in &self.rules {
            if r.query == input.query && input.branch_active(r.branch) {
                output.set_mut(r.set).op_keys = input.fields.masked(r.mask).0;
            }
        }
    }
}

impl HModule {
    pub fn new(capacity: usize) -> Self {
        HModule { rules: Vec::new(), capacity }
    }

    /// Install a rule. At most one rule per (query, branch) per instance,
    /// and a hashing rule needs a nonempty output range.
    pub fn install(&mut self, rule: HRule) -> Result<(), InstallError> {
        if let HashMode::Hash { range: 0, .. } = rule.mode {
            return Err(InstallError::EmptyHashRange { query: rule.query, branch: rule.branch });
        }
        if self.rules.iter().any(|r| r.query == rule.query && r.branch == rule.branch) {
            return Err(InstallError::Duplicate { query: rule.query, branch: rule.branch });
        }
        if self.rules.len() >= self.capacity {
            return Err(InstallError::CapacityExceeded { capacity: self.capacity });
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Execute: compute the hash result over the *stage-entry* operation
    /// keys (𝕂 in the same stage cannot feed ℍ — Fig. 4).
    pub fn execute(&self, input: &Phv, output: &mut Phv) {
        for r in &self.rules {
            if r.query == input.query && input.branch_active(r.branch) {
                Self::fire(r, input, output);
            }
        }
    }

    #[inline(always)]
    fn hash_of(r: &HRule, keys: FieldVector) -> u32 {
        match r.mode {
            HashMode::Hash { seed, range } => HashFn::new(seed, range).hash(keys.0),
            HashMode::Direct(field) => keys.get(field) as u32,
        }
    }

    fn fire(r: &HRule, input: &Phv, output: &mut Phv) {
        let keys = FieldVector(input.set(r.set).op_keys);
        output.set_mut(r.set).hash_result = Self::hash_of(r, keys).wrapping_add(r.offset);
    }
}

impl SModule {
    pub fn new(capacity: usize, registers: usize) -> Self {
        assert!(registers > 0, "state bank needs at least one register");
        SModule {
            rules: Vec::new(),
            capacity,
            registers: Vec::new(),
            len: registers,
            stats: BankStats::default(),
            pow2_mask: if registers.is_power_of_two() { registers - 1 } else { 0 },
        }
    }

    /// Register index of a hash result: `hash % len`, reduced to an `AND`
    /// for power-of-two array lengths (identical result, no division).
    #[inline(always)]
    fn reg_index(pow2_mask: usize, len: usize, hash: u32) -> usize {
        if pow2_mask != 0 {
            hash as usize & pow2_mask
        } else {
            hash as usize % len
        }
    }

    pub fn install(&mut self, rule: SRule) -> Result<(), InstallError> {
        if self.rules.iter().any(|r| r.query == rule.query && r.branch == rule.branch) {
            return Err(InstallError::Duplicate { query: rule.query, branch: rule.branch });
        }
        if self.rules.len() >= self.capacity {
            return Err(InstallError::CapacityExceeded { capacity: self.capacity });
        }
        if self.registers.is_empty() {
            self.registers = vec![0; self.len];
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Configured register array length, allocated or not.
    pub fn register_count(&self) -> usize {
        self.len
    }

    /// Read a register (tests / analyzer draining). A bank that never held
    /// a rule reads 0 everywhere.
    pub fn register(&self, idx: usize) -> u32 {
        self.registers.get(idx % self.len).copied().unwrap_or(0)
    }

    /// Reset all registers (the 100 ms epoch reset); a bank that never held
    /// a rule has none to reset. Activity counters survive the reset; drain
    /// them with [`take_stats`](Self::take_stats).
    pub fn clear_registers(&mut self) {
        self.registers.fill(0);
    }

    /// Activity counters accumulated since the last
    /// [`take_stats`](Self::take_stats).
    pub fn stats(&self) -> BankStats {
        self.stats
    }

    /// Drain and reset the activity counters (end of epoch).
    pub fn take_stats(&mut self) -> BankStats {
        std::mem::take(&mut self.stats)
    }

    /// Execute: one transactional SALU operation per matching branch.
    pub fn execute(&mut self, input: &Phv, output: &mut Phv) {
        let pow2_mask = self.pow2_mask;
        for r in &self.rules {
            if r.query != input.query || !input.branch_active(r.branch) {
                continue;
            }
            let hash = input.set(r.set).hash_result;
            let idx = Self::reg_index(pow2_mask, self.registers.len(), hash);
            let state =
                Self::salu(r.op, &mut self.registers, &mut self.stats, idx, hash, input.fields);
            output.set_mut(r.set).state_result = state;
        }
    }

    /// One decoded 𝕊 step of the compiled walk: run `op` on the register
    /// `hash` indexes and return the state result. Lanes run one after
    /// another in packet order, so each register sees operations in
    /// exactly the reference order — register contents and [`BankStats`]
    /// stay bit-identical to [`execute`](Self::execute).
    #[inline(always)]
    pub(crate) fn apply(&mut self, op: SaluOp, hash: u32, fields: FieldVector) -> u32 {
        let idx = Self::reg_index(self.pow2_mask, self.registers.len(), hash);
        Self::salu(op, &mut self.registers, &mut self.stats, idx, hash, fields)
    }

    /// The transactional SALU core shared by both execution paths:
    /// read-modify-write one register, return the op's state result.
    #[inline(always)]
    fn salu(
        op: SaluOp,
        registers: &mut [u32],
        stats: &mut BankStats,
        idx: usize,
        hash: u32,
        fields: FieldVector,
    ) -> u32 {
        match op {
            SaluOp::PassHash => hash,
            SaluOp::Add(op) => {
                let v = resolve(op, fields);
                let old = registers[idx];
                registers[idx] = old.saturating_add(v);
                stats.observe(old, registers[idx], false);
                registers[idx]
            }
            SaluOp::Or(op) => {
                let v = resolve(op, fields);
                let old = registers[idx];
                registers[idx] |= v;
                stats.observe(old, registers[idx], false);
                old
            }
            SaluOp::Max(op) => {
                let v = resolve(op, fields);
                let old = registers[idx];
                registers[idx] = old.max(v);
                stats.observe(old, registers[idx], true);
                registers[idx]
            }
            SaluOp::Write(op) => {
                let v = resolve(op, fields);
                let old = registers[idx];
                registers[idx] = v;
                stats.observe(old, v, true);
                old
            }
        }
    }
}

impl RModule {
    pub fn new(capacity: usize) -> Self {
        RModule { rules: Vec::new(), capacity }
    }

    /// Install a rule. ℝ allows several rules per (query, branch) —
    /// priority-ordered ternary entries (e.g. "≥ threshold → report",
    /// "else → stop").
    pub fn install(&mut self, rule: RRule) -> Result<(), InstallError> {
        if self.rules.len() >= self.capacity {
            return Err(InstallError::CapacityExceeded { capacity: self.capacity });
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Apply `f` to every installed rule of `query`; returns how many
    /// rules were touched. This is the in-place rule *modification* path —
    /// e.g. retuning a report threshold without reinstalling the query.
    pub fn update_rules(&mut self, query: QueryId, f: &mut dyn FnMut(&mut RRule)) -> usize {
        let mut touched = 0;
        for r in self.rules.iter_mut().filter(|r| r.query == query) {
            f(r);
            touched += 1;
        }
        touched
    }

    /// Execute: for each (query, branch), the highest-priority matching
    /// rule fires its actions.
    pub fn execute(&self, input: &Phv, output: &mut Phv) {
        // Group by branch: collect candidate rules for this query.
        let mut fired: Vec<(u8, &RRule)> = Vec::new();
        for r in &self.rules {
            if r.query != input.query || !input.branch_active(r.branch) {
                continue;
            }
            if !r.state_match.contains(input.set(r.set).state_result)
                || !r.global_match.contains(input.global_result)
            {
                continue;
            }
            match fired.iter_mut().find(|(b, _)| *b == r.branch) {
                Some((_, best)) if best.priority >= r.priority => {}
                Some(slot) => slot.1 = r,
                None => fired.push((r.branch, r)),
            }
        }
        for (branch, rule) in fired {
            Self::fire(rule, branch, input, output);
        }
    }

    /// Apply a fired rule's actions (reference path).
    fn fire(rule: &RRule, branch: u8, input: &Phv, output: &mut Phv) {
        for action in &rule.actions {
            let state = input.set(rule.set).state_result;
            match action {
                RAction::Report => {
                    let set = input.set(rule.set);
                    output.reports.push(Report {
                        query: input.query,
                        branch,
                        op_keys: set.op_keys,
                        hash_result: set.hash_result,
                        state_result: set.state_result,
                        global_result: output.global_result,
                    });
                }
                RAction::StopBranch => output.deactivate_branch(branch),
                RAction::GlobalMin => {
                    output.global_result = output.global_result.min(state);
                }
                RAction::GlobalMax => {
                    let g =
                        if output.global_result == GLOBAL_INIT { 0 } else { output.global_result };
                    output.global_result = g.max(state);
                }
                RAction::GlobalAdd => {
                    let g =
                        if output.global_result == GLOBAL_INIT { 0 } else { output.global_result };
                    output.global_result = g.saturating_add(state);
                }
                RAction::GlobalSub => {
                    let g =
                        if output.global_result == GLOBAL_INIT { 0 } else { output.global_result };
                    output.global_result = g.saturating_sub(state);
                }
                RAction::GlobalSet => output.global_result = state,
                RAction::GlobalReset => output.global_result = GLOBAL_INIT,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::SetId;
    use crate::rules::RMatch;
    use newton_packet::{Field, PacketBuilder};

    fn phv() -> Phv {
        let pkt = PacketBuilder::new().dst_port(53).wire_len(200).build();
        Phv::new(&pkt, 1, 2)
    }

    #[test]
    fn k_masks_into_target_set() {
        let mut k = KModule::new(4);
        k.install(KRule { query: 1, branch: 0, set: SetId::Set2, mask: Field::DstPort.mask() })
            .unwrap();
        let input = phv();
        let mut out = input.clone();
        k.execute(&input, &mut out);
        assert_eq!(FieldVector(out.set(SetId::Set2).op_keys).get(Field::DstPort), 53);
        assert_eq!(FieldVector(out.set(SetId::Set2).op_keys).get(Field::SrcIp), 0);
        assert_eq!(out.set(SetId::Set1).op_keys, 0, "other set untouched");
    }

    #[test]
    fn k_ignores_inactive_branch_and_other_query() {
        let mut k = KModule::new(4);
        k.install(KRule { query: 1, branch: 1, set: SetId::Set1, mask: u128::MAX }).unwrap();
        k.install(KRule { query: 2, branch: 0, set: SetId::Set1, mask: u128::MAX }).unwrap();
        let mut input = phv();
        input.deactivate_branch(1);
        let mut out = input.clone();
        k.execute(&input, &mut out);
        assert_eq!(out.set(SetId::Set1).op_keys, 0);
    }

    #[test]
    fn h_direct_mode_extracts_field() {
        let mut k = KModule::new(4);
        let mut h = HModule::new(4);
        k.install(KRule { query: 1, branch: 0, set: SetId::Set1, mask: Field::DstPort.mask() })
            .unwrap();
        h.install(HRule {
            query: 1,
            branch: 0,
            set: SetId::Set1,
            mode: HashMode::Direct(Field::DstPort),
            offset: 0,
        })
        .unwrap();
        let input = phv();
        let mut mid = input.clone();
        k.execute(&input, &mut mid);
        let mut out = mid.clone();
        h.execute(&mid, &mut out);
        assert_eq!(out.set(SetId::Set1).hash_result, 53);
    }

    #[test]
    fn h_hash_mode_stays_in_range_with_offset() {
        let mut h = HModule::new(4);
        h.install(HRule {
            query: 1,
            branch: 0,
            set: SetId::Set1,
            mode: HashMode::Hash { seed: 3, range: 128 },
            offset: 1000,
        })
        .unwrap();
        let mut input = phv();
        input.set_mut(SetId::Set1).op_keys = 0x1234;
        let mut out = input.clone();
        h.execute(&input, &mut out);
        let r = out.set(SetId::Set1).hash_result;
        assert!((1000..1128).contains(&r), "hash {r} outside sliced range");
    }

    #[test]
    fn s_add_counts_per_index() {
        let mut s = SModule::new(4, 16);
        s.install(SRule {
            query: 1,
            branch: 0,
            set: SetId::Set1,
            op: SaluOp::Add(Operand::Const(1)),
        })
        .unwrap();
        let mut input = phv();
        input.set_mut(SetId::Set1).hash_result = 5;
        let mut out = input.clone();
        s.execute(&input, &mut out);
        assert_eq!(out.set(SetId::Set1).state_result, 1);
        s.execute(&input, &mut out);
        assert_eq!(out.set(SetId::Set1).state_result, 2);
        assert_eq!(s.register(5), 2);
        s.clear_registers();
        assert_eq!(s.register(5), 0);
    }

    #[test]
    fn s_add_field_operand_sums_packet_length() {
        let mut s = SModule::new(4, 8);
        s.install(SRule {
            query: 1,
            branch: 0,
            set: SetId::Set1,
            op: SaluOp::Add(Operand::Field(Field::PktLen)),
        })
        .unwrap();
        let input = phv(); // wire_len = 200
        let mut out = input.clone();
        s.execute(&input, &mut out);
        s.execute(&input, &mut out);
        assert_eq!(out.set(SetId::Set1).state_result, 400);
    }

    #[test]
    fn s_or_returns_old_value_bloom_style() {
        let mut s = SModule::new(4, 8);
        s.install(SRule {
            query: 1,
            branch: 0,
            set: SetId::Set1,
            op: SaluOp::Or(Operand::Const(1)),
        })
        .unwrap();
        let input = phv();
        let mut out = input.clone();
        s.execute(&input, &mut out);
        assert_eq!(out.set(SetId::Set1).state_result, 0, "first touch: old value 0");
        s.execute(&input, &mut out);
        assert_eq!(out.set(SetId::Set1).state_result, 1, "second touch: bit already set");
    }

    #[test]
    fn s_pass_hash_is_stateless() {
        let mut s = SModule::new(4, 8);
        s.install(SRule { query: 1, branch: 0, set: SetId::Set1, op: SaluOp::PassHash }).unwrap();
        let mut input = phv();
        input.set_mut(SetId::Set1).hash_result = 42;
        let mut out = input.clone();
        s.execute(&input, &mut out);
        assert_eq!(out.set(SetId::Set1).state_result, 42);
        assert!(s.registers.iter().all(|&r| r == 0));
    }

    #[test]
    fn s_bank_stats_count_insertions_and_collisions() {
        let mut s = SModule::new(4, 8);
        s.install(SRule {
            query: 1,
            branch: 0,
            set: SetId::Set1,
            op: SaluOp::Add(Operand::Const(1)),
        })
        .unwrap();
        let mut input = phv();
        input.set_mut(SetId::Set1).hash_result = 3;
        let mut out = input.clone();
        s.execute(&input, &mut out); // 0 → 1: insertion
        s.execute(&input, &mut out); // 1 → 2: collision
        assert_eq!(s.stats(), BankStats { insertions: 1, collisions: 1, evictions: 0 });
        assert_eq!(s.take_stats().insertions, 1, "take drains");
        assert_eq!(s.stats(), BankStats::default());
        s.clear_registers();
        s.execute(&input, &mut out); // registers cleared: counts as a fresh insertion
        assert_eq!(s.stats(), BankStats { insertions: 1, collisions: 0, evictions: 0 });
    }

    #[test]
    fn s_bank_stats_count_evictions_on_displacing_writes() {
        let mut s = SModule::new(4, 8);
        // Branch 0 writes 5, branch 1 then maxes with 9: the max displaces
        // a live value (5 → 9), which is one eviction; re-running, max(9, 9)
        // changes nothing, so no further eviction.
        s.install(SRule {
            query: 1,
            branch: 0,
            set: SetId::Set1,
            op: SaluOp::Write(Operand::Const(5)),
        })
        .unwrap();
        s.install(SRule {
            query: 1,
            branch: 1,
            set: SetId::Set1,
            op: SaluOp::Max(Operand::Const(9)),
        })
        .unwrap();
        let mut input = phv();
        input.set_mut(SetId::Set1).hash_result = 2;
        let mut out = input.clone();
        s.execute(&input, &mut out);
        assert_eq!(s.stats(), BankStats { insertions: 1, collisions: 1, evictions: 1 });
        s.execute(&input, &mut out); // write 9→5 evicts, max 5→9 evicts again
        assert_eq!(s.stats(), BankStats { insertions: 1, collisions: 3, evictions: 3 });
    }

    #[test]
    fn s_registers_allocate_on_the_first_accepted_rule_and_stay() {
        let rule = |query| SRule {
            query,
            branch: 0,
            set: SetId::Set1,
            op: SaluOp::Add(Operand::Const(1)),
        };
        let mut s = SModule::new(1, 16);
        assert!(s.registers.is_empty(), "no rule, no array");
        assert_eq!(s.register_count(), 16);
        assert_eq!(s.register(0), 0);
        assert_eq!(s.register(1_000_003), 0);
        s.clear_registers();
        assert!(s.registers.is_empty());

        let mut full = SModule::new(0, 16);
        assert_eq!(full.install(rule(1)), Err(InstallError::CapacityExceeded { capacity: 0 }));
        assert!(full.registers.is_empty(), "a rejected install allocates nothing");

        s.install(rule(1)).unwrap();
        assert_eq!(s.registers.len(), 16);
        let mut input = phv();
        input.set_mut(SetId::Set1).hash_result = 21;
        let mut out = input.clone();
        s.execute(&input, &mut out);
        assert_eq!(s.register(5), 1);

        // The last rule leaving keeps the array and its contents.
        assert_eq!(s.remove_query(1), 1);
        assert_eq!(s.registers.len(), 16);
        assert_eq!(s.register(5), 1);
        s.clear_registers();
        assert_eq!(s.register(5), 0);
        assert_eq!(s.register_count(), 16);
    }

    #[test]
    fn r_threshold_report_and_stop() {
        let mut r = RModule::new(8);
        // >= 10 → report; else → stop branch.
        r.install(RRule {
            query: 1,
            branch: 0,
            set: SetId::Set1,
            priority: 10,
            state_match: RMatch::at_least(10),
            global_match: RMatch::ANY,
            actions: vec![RAction::Report],
        })
        .unwrap();
        r.install(RRule {
            query: 1,
            branch: 0,
            set: SetId::Set1,
            priority: 0,
            state_match: RMatch::ANY,
            global_match: RMatch::ANY,
            actions: vec![RAction::StopBranch],
        })
        .unwrap();

        let mut input = phv();
        input.set_mut(SetId::Set1).state_result = 5;
        let mut out = input.clone();
        r.execute(&input, &mut out);
        assert!(out.reports.is_empty());
        assert!(!out.branch_active(0), "below threshold: branch stopped");

        input.set_mut(SetId::Set1).state_result = 10;
        let mut out = input.clone();
        r.execute(&input, &mut out);
        assert_eq!(out.reports.len(), 1);
        assert!(out.branch_active(0));
        assert_eq!(out.reports[0].state_result, 10);
    }

    #[test]
    fn r_global_min_accumulates_across_sets() {
        let mut r = RModule::new(8);
        r.install(RRule {
            query: 1,
            branch: 0,
            set: SetId::Set1,
            priority: 0,
            state_match: RMatch::ANY,
            global_match: RMatch::ANY,
            actions: vec![RAction::GlobalMin],
        })
        .unwrap();
        let mut input = phv();
        input.set_mut(SetId::Set1).state_result = 17;
        let mut out = input.clone();
        r.execute(&input, &mut out);
        assert_eq!(out.global_result, 17, "min(INIT, 17) = 17");
        input.global_result = 17;
        input.set_mut(SetId::Set1).state_result = 30;
        let mut out = input.clone();
        r.execute(&input, &mut out);
        assert_eq!(out.global_result, 17, "min(17, 30) = 17");
    }

    #[test]
    fn r_global_add_treats_init_as_zero() {
        let mut r = RModule::new(8);
        r.install(RRule {
            query: 1,
            branch: 0,
            set: SetId::Set1,
            priority: 0,
            state_match: RMatch::ANY,
            global_match: RMatch::ANY,
            actions: vec![RAction::GlobalAdd],
        })
        .unwrap();
        let mut input = phv();
        input.set_mut(SetId::Set1).state_result = 9;
        let mut out = input.clone();
        r.execute(&input, &mut out);
        assert_eq!(out.global_result, 9);
    }

    #[test]
    fn capacity_and_duplicate_errors() {
        let mut k = KModule::new(1);
        k.install(KRule { query: 1, branch: 0, set: SetId::Set1, mask: 0 }).unwrap();
        assert_eq!(
            k.install(KRule { query: 1, branch: 0, set: SetId::Set1, mask: 1 }),
            Err(InstallError::Duplicate { query: 1, branch: 0 })
        );
        assert_eq!(
            k.install(KRule { query: 2, branch: 0, set: SetId::Set1, mask: 1 }),
            Err(InstallError::CapacityExceeded { capacity: 1 })
        );
        assert_eq!(k.remove_query(1), 1);
        assert_eq!(k.rule_count(), 0);
    }
}
