//! A Tofino-like programmable switch pipeline, and Newton's four
//! reconfigurable modules on top of it.
//!
//! The paper's data-plane contribution (§4) is that the four query
//! primitives decompose into four *rule-configured* modules —
//! key selection (𝕂), hash calculation (ℍ), state bank (𝕊), result
//! process (ℝ) — so installing/removing/updating a query is a table-rule
//! operation, never a P4 reload. This crate models exactly that:
//!
//! * [`resources`] — the seven per-stage resource categories Tofino exposes
//!   (crossbar, SRAM, TCAM, VLIW, hash bits, SALUs, gateways) and the
//!   per-module costs, normalized against a switch.p4-like reference
//!   (Table 3).
//! * [`phv`] — the packet header vector: parsed fields plus the **two
//!   independent metadata sets** and the **global result** of the compact
//!   layout (§4.2, Fig. 5).
//! * [`rules`] — the typed table rules each module accepts. Rules are plain
//!   data: a query is a set of rules, and reconfiguration is rule
//!   install/remove.
//! * [`modules`] — the four module implementations interpreting those
//!   rules, including the four SALU kinds of 𝕊. Each runs a public
//!   `execute` over a [`Phv`] (the reference walk) and a compiled-path
//!   kernel over one lane.
//! * [`init`] — the `newton_init` ternary dispatch table (5-tuple + TCP
//!   flags → query) that also absorbs front filters (Opt.1).
//! * [`layout`] — naïve (one module per stage) vs compact (𝕂+ℍ+𝕊+ℝ per
//!   stage) module layouts.
//! * [`switch`] — the full pipeline: parse → `newton_init` → stages →
//!   `newton_fin` (result-snapshot emission for CQE), with per-epoch state
//!   reset and forwarding counters that prove rule operations never disturb
//!   forwarding.
//! * [`exec`] — the configuration/execution split: rule operations compile
//!   a flattened, immutable [`exec::ExecPlan`]; [`Switch::process`]
//!   walks each of a packet's lanes — every classified slice-0 query, or
//!   the one slice its snapshot resumes — through it, allocation-free for
//!   dispatch, pushing reports in emission order.
//! * [`debug`] — [`debug::trace_packet`] records every module firing of
//!   one packet by running the reference walk behind
//!   [`Switch::process_reference`] with a per-stage observer.

pub mod debug;
pub mod exec;
pub mod init;
pub mod layout;
pub mod mirror;
pub mod modules;
pub mod phv;
pub mod resources;
pub mod rules;
pub mod switch;

pub use exec::ExecPlan;
pub use init::InitTable;
pub use layout::{Layout, LayoutKind, ModuleAddr, ModuleKind};
pub use modules::BankStats;
pub use phv::{MetadataSet, Phv, Report, SetId};
pub use resources::{ResourceVector, StageBudget};
pub use rules::{
    HRule, HashMode, InitRule, KRule, Operand, QueryId, RAction, RMatch, RRule, RuleSet, SRule,
    SaluOp,
};
pub use switch::{
    PipelineConfig, PipelineOutput, SliceInfo, StageUtilization, Switch, SwitchError,
};
