//! The Newton controller: runtime query operations and network-wide
//! placement.
//!
//! * [`timing`] — the rule-channel cost model behind Fig. 11: installing or
//!   removing a query is a batch of table-rule operations, each with a
//!   deterministic per-rule cost plus seeded jitter, calibrated to the
//!   paper's measurements (Q1 install ≈ 5 ms, all queries ≤ 20 ms). No
//!   operation ever touches the forwarding path.
//! * [`placement`] — **Algorithm 2**: resilient module-rule placement.
//!   A query sliced into `M` parts is placed along *every possible path*
//!   by a depth-first search from the monitored traffic's edge switches,
//!   multiplexing rules so redundancy stays bounded (Figs. 9/17).
//! * [`controller`] — the facade: compile → place → install into a live
//!   [`Network`](newton_net::Network), plus remove/update.

pub mod allocation;
pub mod controller;
pub mod placement;
pub mod timing;

pub use allocation::{allocate, AllocationPolicy, RegisterSlice};
pub use controller::{
    ChannelStats, Controller, InstallError, InstallReceipt, InstalledQuery, RepairOutcome,
    RetuneError, UpdateError,
};
pub use placement::{place_parts, place_query, reachable_depth, Placement};
pub use timing::RuleTimingModel;
