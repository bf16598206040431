//! Network substrate: topologies, routing, failures, and multi-hop packet
//! delivery with cross-switch query execution.
//!
//! The paper's network-wide evaluation needs three topology families —
//! linear chains (the 3-switch testbed of Figs. 8/13/14), k-ary fat-trees
//! and an AT&T-like North-America backbone (Fig. 17) — plus shortest-path
//! routing that reroutes around link failures (the resilience scenario of
//! Fig. 9). [`sim`] carries packets hop by hop through real
//! `newton-dataplane` switches, piggybacking the 12-byte result snapshot
//! between Newton hops and stripping it before host delivery.

pub mod events;
pub mod routing;
pub mod sim;
pub mod topology;

pub use events::{AdvanceOutcome, EventSchedule, NetworkEvent};
pub use routing::{EcmpMode, RouteScratch, Router};
pub use sim::{BatchDelivery, DeliveryResult, LinkKey, LinkLoad, Network};
pub use topology::{NodeId, Topology};

/// A delivery thread budget. Delivery is single-threaded, so the only
/// value the library hands out is `Parallelism { threads: 1 }`. Its only
/// reader is `perfbench/`; it goes once that harness is retargeted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    pub threads: usize,
}

/// The host's available parallelism. Its only caller is `perfbench/`,
/// which logs it next to the delivery thread count.
pub fn effective_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
