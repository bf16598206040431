//! Scheduled network dynamics: the failure/recovery timelines of Fig. 9.
//!
//! Experiments inject link and switch events at trace timestamps; the
//! driver applies each event as simulated time passes it. Deterministic by
//! construction.

use crate::sim::Network;
use crate::topology::NodeId;

/// One network dynamic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkEvent {
    FailLink {
        a: NodeId,
        b: NodeId,
    },
    RestoreLink {
        a: NodeId,
        b: NodeId,
    },
    /// A whole switch crashes: routing excludes it and the device loses
    /// rules, slice assignments, and register state (see
    /// [`Network::fail_switch`]).
    FailSwitch {
        s: NodeId,
    },
    /// The crashed switch reboots *blank*: it forwards again but holds no
    /// rules until the controller repairs placement.
    RestoreSwitch {
        s: NodeId,
    },
}

/// What one [`EventSchedule::advance_network`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvanceOutcome {
    /// Events applied by this call.
    pub fired: usize,
    /// Switch failures that destroyed installed rules — each is a
    /// potential detection gap until repaired.
    pub state_loss: usize,
}

/// A time-ordered schedule of events (timestamps in trace nanoseconds).
#[derive(Debug, Clone, Default)]
pub struct EventSchedule {
    events: Vec<(u64, NetworkEvent)>,
    cursor: usize,
}

impl EventSchedule {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an event at `ts_ns`; events keep time order regardless of
    /// insertion order.
    pub fn at(mut self, ts_ns: u64, event: NetworkEvent) -> Self {
        self.events.push((ts_ns, event));
        self.events.sort_by_key(|&(t, _)| t);
        self
    }

    /// Number of events not yet applied.
    pub fn pending(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Timestamp of the next unapplied event — the horizon up to which
    /// batched delivery may run without
    /// [`advance_network`](Self::advance_network) firing.
    pub fn next_ts(&self) -> Option<u64> {
        self.events.get(self.cursor).map(|&(ts, _)| ts)
    }

    /// Apply every event with `ts ≤ now_ns` to the full network: link
    /// events toggle routing, switch failures also wipe the device (rules,
    /// slices, state), and restores bring it back blank.
    pub fn advance_network(&mut self, now_ns: u64, net: &mut Network) -> AdvanceOutcome {
        let mut out = AdvanceOutcome::default();
        while let Some(&(ts, event)) = self.events.get(self.cursor) {
            if ts > now_ns {
                break;
            }
            match event {
                NetworkEvent::FailLink { a, b } => net.router_mut().fail_link(a, b),
                NetworkEvent::RestoreLink { a, b } => net.router_mut().restore_link(a, b),
                NetworkEvent::FailSwitch { s } => {
                    if net.fail_switch(s) {
                        out.state_loss += 1;
                    }
                }
                NetworkEvent::RestoreSwitch { s } => net.restore_switch(s),
            }
            self.cursor += 1;
            out.fired += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use newton_packet::FlowKey;

    fn flow() -> FlowKey {
        FlowKey { src_ip: 1, dst_ip: 2, src_port: 3, dst_port: 4, protocol: 6 }
    }

    fn net(topo: Topology) -> Network {
        Network::new(topo, newton_dataplane::PipelineConfig::default())
    }

    #[test]
    fn events_apply_in_time_order() {
        let mut net = net(Topology::fat_tree(4));
        // Insert out of order; fail at t=100, restore at t=200.
        let mut sched = EventSchedule::new()
            .at(200, NetworkEvent::RestoreLink { a: 4, b: 0 })
            .at(100, NetworkEvent::FailLink { a: 4, b: 0 });

        assert_eq!(sched.advance_network(50, &mut net).fired, 0);
        assert!(net.router().link_up(4, 0));
        assert_eq!(sched.advance_network(150, &mut net).fired, 1);
        assert!(!net.router().link_up(4, 0));
        assert_eq!(sched.advance_network(250, &mut net).fired, 1);
        assert!(net.router().link_up(4, 0));
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn failure_changes_paths_and_restore_heals() {
        let mut net = net(Topology::chain(3));
        let mut sched = EventSchedule::new()
            .at(10, NetworkEvent::FailLink { a: 1, b: 2 })
            .at(20, NetworkEvent::RestoreLink { a: 1, b: 2 });
        sched.advance_network(15, &mut net);
        assert!(net.router().path(0, 2, &flow()).is_none());
        sched.advance_network(25, &mut net);
        assert_eq!(net.router().path(0, 2, &flow()).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn switch_events_wipe_and_restore_blank() {
        let mut net = net(Topology::chain(3));
        // Give the middle switch something to lose: a slice assignment.
        net.switch_mut(1)
            .add_slice(7, newton_dataplane::SliceInfo::whole())
            .expect("fresh switch accepts a slice");
        let mut sched = EventSchedule::new()
            .at(10, NetworkEvent::FailSwitch { s: 1 })
            .at(20, NetworkEvent::RestoreSwitch { s: 1 });

        let out = sched.advance_network(15, &mut net);
        assert_eq!(out, AdvanceOutcome { fired: 1, state_loss: 0 }, "slices alone are free");
        assert!(!net.router().switch_up(1));
        assert!(net.router().path(0, 2, &flow()).is_none(), "chain is cut by the dead switch");
        assert!(net.switch(1).assigned_slices(7).is_empty(), "wipe dropped the assignment");

        let out = sched.advance_network(25, &mut net);
        assert_eq!(out.fired, 1);
        assert!(net.router().switch_up(1));
        assert!(net.router().path(0, 2, &flow()).is_some());
        assert!(net.switch(1).assigned_slices(7).is_empty(), "restore comes back blank");
        assert_eq!(sched.pending(), 0);
    }
}
