//! Multi-hop delivery through real switch pipelines, with CQE snapshots.
//!
//! [`Network`] owns one `newton-dataplane` [`Switch`] per topology node.
//! Delivering a packet walks its routed path; at each hop the switch
//! pipeline executes, and the 12-byte result snapshot rides between
//! adjacent Newton hops and is stripped before the last hop hands the
//! packet to the destination host (§5.1).

use crate::routing::Router;
use crate::topology::{NodeId, Topology};
use newton_dataplane::{PipelineConfig, Report, Switch};
use newton_packet::{Packet, SnapshotHeader};

/// Canonical identifier of an undirected link: `LinkKey::new(a, b)` and
/// `LinkKey::new(b, a)` name the same link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkKey(NodeId, NodeId);

impl LinkKey {
    pub fn new(a: NodeId, b: NodeId) -> Self {
        if a <= b {
            LinkKey(a, b)
        } else {
            LinkKey(b, a)
        }
    }

    /// The link's endpoints, in canonical order.
    pub fn endpoints(self) -> (NodeId, NodeId) {
        (self.0, self.1)
    }
}

/// One delivered packet's observable outcome.
#[derive(Debug, Clone)]
pub struct DeliveryResult {
    /// The path taken (switch ids), empty if unroutable.
    pub path: Vec<NodeId>,
    /// Reports mirrored by each hop, tagged with the reporting switch.
    pub reports: Vec<(NodeId, Report)>,
    /// Extra bytes the snapshot added on in-network links (CQE bandwidth
    /// overhead accounting).
    pub snapshot_bytes: usize,
    /// Whether the packet reached the destination with no snapshot header
    /// attached (it must, always).
    pub clean_delivery: bool,
}

/// Per-link traffic counters: packets carried, payload bytes, and
/// snapshot-header bytes, for bandwidth-overhead accounting (§5.1: "less
/// than 1% bandwidth overhead").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkLoad {
    pub packets: u64,
    pub payload_bytes: u64,
    pub snapshot_bytes: u64,
}

impl LinkLoad {
    /// Snapshot bytes as a fraction of all bytes on the link.
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.payload_bytes + self.snapshot_bytes;
        if total == 0 {
            0.0
        } else {
            self.snapshot_bytes as f64 / total as f64
        }
    }

    /// The counter delta `self - earlier` (per-epoch accounting over the
    /// cumulative map; counters are monotone, so this never underflows
    /// for a genuine earlier snapshot).
    pub fn since(&self, earlier: &LinkLoad) -> LinkLoad {
        LinkLoad {
            packets: self.packets - earlier.packets,
            payload_bytes: self.payload_bytes - earlier.payload_bytes,
            snapshot_bytes: self.snapshot_bytes - earlier.snapshot_bytes,
        }
    }

    /// Whether no traffic is recorded at all.
    pub fn is_empty(&self) -> bool {
        *self == LinkLoad::default()
    }
}

/// Aggregate outcome of a batched delivery ([`Network::deliver_batch`]).
#[derive(Debug, Clone, Default)]
pub struct BatchDelivery {
    /// Reports mirrored by each hop, tagged with the reporting switch, in
    /// packet order.
    pub reports: Vec<(NodeId, Report)>,
    /// Snapshot bytes added on in-network links across the batch.
    pub snapshot_bytes: usize,
    /// Packets that reached their destination.
    pub delivered: usize,
    /// Packets dropped for lack of a route.
    pub unrouted: usize,
}

/// A simulated network of programmable switches.
#[derive(Debug)]
pub struct Network {
    router: Router,
    switches: Vec<Switch>,
    /// Cumulative counters per link, indexed by the router's link id.
    link_load: Vec<LinkLoad>,
    /// Switches running Newton modules; the rest forward only (§7:
    /// "Newton supports partial deployment, and CQE only works in
    /// adjacent Newton-enabled switches").
    newton_enabled: Vec<bool>,
    /// The delivery path's buffers: the routed packet's nodes, the id of
    /// each link it crosses (`links[i]` joins `path[i]` and `path[i + 1]`),
    /// and one hop's reports.
    path: Vec<NodeId>,
    links: Vec<usize>,
    hop_reports: Vec<Report>,
}

impl Network {
    /// Build a network with identical pipelines on every node.
    pub fn new(topo: Topology, pipeline: PipelineConfig) -> Self {
        let n = topo.len();
        let router = Router::new(topo);
        Network {
            link_load: vec![LinkLoad::default(); router.links().len()],
            router,
            switches: (0..n).map(|_| Switch::new(pipeline)).collect(),
            newton_enabled: vec![true; n],
            path: Vec::new(),
            links: Vec::new(),
            hop_reports: Vec::new(),
        }
    }

    /// Packets per pipeline call on the delivery path: always 1, since
    /// every hop runs [`Switch::process_into`] on one packet. Its only
    /// caller is `perfbench/`, which logs it and passes it to
    /// [`Switch::reserve_batch`], a no-op.
    pub fn batch_lanes(&self) -> usize {
        1
    }

    /// Enable/disable Newton processing at a switch (partial deployment).
    /// Disabled switches still forward every packet — including frames
    /// carrying the snapshot header, which pass through them untouched.
    pub fn set_newton_enabled(&mut self, node: NodeId, enabled: bool) {
        self.newton_enabled[node] = enabled;
    }

    /// Whether a switch runs Newton modules.
    pub fn newton_enabled(&self, node: NodeId) -> bool {
        self.newton_enabled[node]
    }

    /// Byte counters of one (undirected) link; zero for a pair that is
    /// not a topology link.
    pub fn link_load(&self, a: NodeId, b: NodeId) -> LinkLoad {
        self.router.link_id(a, b).map_or_else(LinkLoad::default, |id| self.link_load[id])
    }

    /// The worst snapshot-overhead fraction across all loaded links.
    pub fn peak_link_overhead(&self) -> f64 {
        self.link_load.iter().map(LinkLoad::overhead_fraction).fold(0.0, f64::max)
    }

    /// Every loaded link's cumulative counters, sorted by canonical link
    /// key, for per-epoch telemetry diffing.
    pub fn link_loads_sorted(&self) -> Vec<(LinkKey, LinkLoad)> {
        self.router
            .links()
            .iter()
            .zip(&self.link_load)
            .filter(|(_, load)| !load.is_empty())
            .map(|(&key, &load)| (key, load))
            .collect()
    }

    /// Fail a whole switch, as a hardware crash would: the router stops
    /// sending traffic through it, and the device loses *everything* —
    /// installed rules, slice assignments, and per-epoch register state.
    /// Returns `true` if installed rules were lost, so callers can account
    /// the loss. [`restore_switch`](Self::restore_switch)
    /// brings the node back *blank*; the controller must re-place whatever
    /// lived there (see `newton-controller`'s repair pass).
    pub fn fail_switch(&mut self, s: NodeId) -> bool {
        self.router.fail_switch(s);
        let lost = self.switches[s].total_rule_count() > 0;
        self.switches[s] = Switch::new(*self.switches[s].config());
        lost
    }

    /// Bring a failed switch back into the topology. The device rebooted:
    /// it forwards again immediately but carries no rules until the
    /// controller re-installs them.
    pub fn restore_switch(&mut self, s: NodeId) {
        self.router.restore_switch(s);
    }

    /// The healthy subgraph (live switches, live links, live edge set) —
    /// what placement repair must cover.
    pub fn live_topology(&self) -> Topology {
        self.router.live_topology()
    }

    pub fn router(&self) -> &Router {
        &self.router
    }

    pub fn router_mut(&mut self) -> &mut Router {
        &mut self.router
    }

    pub fn topology(&self) -> &Topology {
        self.router.topology()
    }

    pub fn switch(&self, id: NodeId) -> &Switch {
        &self.switches[id]
    }

    pub fn switch_mut(&mut self, id: NodeId) -> &mut Switch {
        &mut self.switches[id]
    }

    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Deliver one packet from the host behind `ingress` to the host
    /// behind `egress`. Every hop forwards unconditionally; monitoring is
    /// a pure observer.
    pub fn deliver(&mut self, pkt: &Packet, ingress: NodeId, egress: NodeId) -> DeliveryResult {
        if !self.route(pkt, ingress, egress) {
            return DeliveryResult {
                path: Vec::new(),
                reports: Vec::new(),
                snapshot_bytes: 0,
                clean_delivery: false,
            };
        }
        let mut reports = Vec::new();
        let snapshot_bytes = self.walk_path(pkt, &mut reports);
        DeliveryResult { path: self.path.clone(), reports, snapshot_bytes, clean_delivery: true }
    }

    /// Deliver a batch of `(packet, ingress, egress)` triples: exactly
    /// [`deliver`](Self::deliver) per packet, in batch order, minus its
    /// per-call allocations (one reports vector, no path copies).
    /// Only the aggregate outcome is returned.
    pub fn deliver_batch(&mut self, batch: &[(&Packet, NodeId, NodeId)]) -> BatchDelivery {
        let mut out = BatchDelivery::default();
        for &(pkt, ingress, egress) in batch {
            if !self.route(pkt, ingress, egress) {
                out.unrouted += 1;
                continue;
            }
            out.snapshot_bytes += self.walk_path(pkt, &mut out.reports);
            out.delivered += 1;
        }
        out
    }

    /// Route one packet into the delivery path's buffers; `false` if no
    /// route exists.
    fn route(&mut self, pkt: &Packet, ingress: NodeId, egress: NodeId) -> bool {
        self.router.route_into(ingress, egress, &pkt.flow_key(), &mut self.path, &mut self.links)
    }

    /// [`deliver_batch`](Self::deliver_batch); the thread count is
    /// ignored. Its only caller is `perfbench/`.
    pub fn deliver_batch_parallel(
        &mut self,
        batch: &[(&Packet, NodeId, NodeId)],
        _threads: usize,
    ) -> BatchDelivery {
        self.deliver_batch(batch)
    }

    /// Walk the routed packet through its hops: execute Newton pipelines,
    /// tag mirrored reports, and add each crossed link's bytes to its
    /// counters. Returns the snapshot bytes the packet put on the wire.
    fn walk_path(&mut self, pkt: &Packet, reports: &mut Vec<(NodeId, Report)>) -> usize {
        let Network { router, switches, link_load, newton_enabled, path, links, hop_reports } =
            self;
        let mut snapshot: Option<SnapshotHeader> = None;
        let mut snapshot_bytes = 0usize;
        for (i, &hop) in path.iter().enumerate() {
            // A non-Newton (or failed) hop forwards the frame (and any
            // snapshot on it) untouched. The router never routes through a
            // dead switch, so the liveness check is only a guard.
            if newton_enabled[hop] && router.switch_up(hop) {
                snapshot = switches[hop].process_into(pkt, snapshot.as_ref(), hop_reports);
                if !hop_reports.is_empty() {
                    reports.extend(hop_reports.drain(..).map(|r| (hop, r)));
                }
            }
            // The snapshot travels on the wire to the next hop, if any.
            if let Some(&link) = links.get(i) {
                let sp = if snapshot.is_some() {
                    snapshot_bytes += newton_packet::SP_HEADER_LEN;
                    newton_packet::SP_HEADER_LEN as u64
                } else {
                    0
                };
                let load = &mut link_load[link];
                load.packets += 1;
                load.payload_bytes += pkt.wire_len as u64;
                load.snapshot_bytes += sp;
            }
        }
        // The last Newton hop strips the header before host delivery; a
        // dangling snapshot means the query wanted more switches than the
        // path had — the remainder defers to the analyzer (§5.2), and the
        // host still receives a clean packet.
        snapshot_bytes
    }

    /// Reset all stateful memory network-wide (epoch boundary).
    pub fn clear_state(&mut self) {
        for sw in &mut self.switches {
            sw.clear_state();
        }
    }

    /// [`clear_state`](Self::clear_state); the thread count is ignored.
    /// Its only caller is `perfbench/`.
    pub fn clear_state_parallel(&mut self, _threads: usize) {
        self.clear_state();
    }

    /// Total rules installed across all switches.
    pub fn total_rules(&self) -> usize {
        self.switches.iter().map(Switch::total_rule_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newton_compiler::{compile, CompilerConfig};
    use newton_dataplane::{SetId, SliceInfo};
    use newton_packet::{PacketBuilder, TcpFlags};
    use newton_query::catalog;

    fn syn(dst: u32, sport: u16) -> Packet {
        PacketBuilder::new()
            .dst_ip(dst)
            .src_ip(sport as u32)
            .src_port(sport)
            .tcp_flags(TcpFlags::SYN)
            .build()
    }

    #[test]
    fn unroutable_packets_are_reported_as_such() {
        let mut net = Network::new(Topology::chain(2), PipelineConfig::default());
        net.router_mut().fail_link(0, 1);
        let r = net.deliver(&syn(1, 1), 0, 1);
        assert!(!r.clean_delivery);
        assert!(r.path.is_empty());
    }

    #[test]
    fn forwarding_is_unconditional_without_rules() {
        let mut net = Network::new(Topology::chain(3), PipelineConfig::default());
        let r = net.deliver(&syn(1, 1), 0, 2);
        assert_eq!(r.path, vec![0, 1, 2]);
        assert!(r.reports.is_empty());
        assert_eq!(r.snapshot_bytes, 0);
        assert_eq!(net.switch(1).forwarded(), 1);
    }

    #[test]
    fn whole_query_on_first_hop_reports_there() {
        let q = catalog::q1_new_tcp();
        let compiled = compile(&q, 1, &CompilerConfig::default());
        let mut net = Network::new(Topology::chain(3), PipelineConfig::default());
        net.switch_mut(0).install(&compiled.rules).unwrap();
        let mut hits = Vec::new();
        for i in 0..catalog::thresholds::NEW_TCP as u16 {
            let out = net.deliver(&syn(0xBEEF, 1000 + i), 0, 2);
            hits.extend(out.reports);
        }
        assert_eq!(hits.len(), 1, "threshold crossed once");
        assert_eq!(hits[0].0, 0, "reported by the first hop");
    }

    #[test]
    fn cqe_spans_two_switches_and_strips_snapshot() {
        // Slice Q1 at a stage boundary across switches 0 and 1 of a chain.
        let q = catalog::q1_new_tcp();
        let compiled = compile(&q, 1, &CompilerConfig::default());
        let total_stages = compiled.composition.stages();
        assert!(total_stages >= 2, "need at least 2 stages to slice");
        let cut = total_stages / 2;
        let first = compiled.rules.slice_stages(0, cut);
        let second = compiled.rules.slice_stages(cut, total_stages);

        let mut net = Network::new(Topology::chain(3), PipelineConfig::default());
        net.switch_mut(0).install(&first).unwrap();
        net.switch_mut(1).install(&second).unwrap();
        net.switch_mut(0)
            .set_slice(
                1,
                SliceInfo {
                    index: 0,
                    total: 2,
                    capture_set: SetId::Set1,
                    restore_set: SetId::Set1,
                    stages: (0, 12),
                },
            )
            .unwrap();
        net.switch_mut(1)
            .set_slice(
                1,
                SliceInfo {
                    index: 1,
                    total: 2,
                    capture_set: SetId::Set1,
                    restore_set: SetId::Set1,
                    stages: (0, 12),
                },
            )
            .unwrap();

        let mut reports = Vec::new();
        let mut sp_bytes = 0;
        for i in 0..catalog::thresholds::NEW_TCP as u16 {
            let out = net.deliver(&syn(0xCAFE, 2000 + i), 0, 2);
            assert!(out.clean_delivery);
            reports.extend(out.reports);
            sp_bytes += out.snapshot_bytes;
        }
        assert_eq!(reports.len(), 1, "CQE reports exactly once network-wide");
        assert_eq!(reports[0].0, 1, "the second slice holds the threshold ℝ");
        // The header rode the 0→1 link as a live snapshot and the 1→2 link
        // as the processed marker: 12 bytes per internal link per packet.
        assert_eq!(sp_bytes as u64, catalog::thresholds::NEW_TCP * 12 * 2);
    }

    #[test]
    fn link_load_accounting_is_per_link_and_fractional() {
        let load = LinkLoad { packets: 100, payload_bytes: 1488 * 100, snapshot_bytes: 12 * 100 };
        assert!((load.overhead_fraction() - 0.008).abs() < 1e-9);
        assert_eq!(LinkLoad::default().overhead_fraction(), 0.0);
        let net = Network::new(Topology::chain(2), PipelineConfig::default());
        assert_eq!(net.link_load(0, 1), LinkLoad::default());
        assert_eq!(net.link_load(1, 0), net.link_load(0, 1), "undirected");
    }

    #[test]
    fn link_loads_count_only_topology_links() {
        let mut net = Network::new(Topology::fat_tree(4), PipelineConfig::default());
        let edges: Vec<NodeId> = net.topology().edge_switches().to_vec();
        for i in 0..16u16 {
            net.deliver(&syn(1, i), edges[0], edges[7]);
        }
        net.deliver(&syn(2, 1), edges[2], edges[3]);
        let mut expected: Vec<LinkKey> = Vec::new();
        for a in 0..net.switch_count() {
            for b in net.topology().neighbors(a).filter(|&b| a < b) {
                if !net.link_load(a, b).is_empty() {
                    expected.push(LinkKey::new(a, b));
                }
            }
        }
        let sorted = net.link_loads_sorted();
        let listed: Vec<LinkKey> = sorted.iter().map(|&(k, _)| k).collect();
        assert_eq!(listed, expected, "exactly the loaded links, in canonical order");
        for &(key, load) in &sorted {
            let (a, b) = key.endpoints();
            assert_eq!(load, net.link_load(b, a), "the listed counters are the link's");
        }
        let hops: u64 = sorted.iter().map(|(_, l)| l.packets).sum();
        assert_eq!(hops, 16 * 4 + 2, "four links per inter-pod path, two inside a pod");
        for (a, b) in [(edges[0], edges[7]), (0, 1), (3, 3), (0, 999), (999, 0)] {
            assert_eq!(net.link_load(a, b), LinkLoad::default(), "({a},{b}) is not a link");
        }
    }

    #[test]
    fn link_key_is_undirected() {
        assert_eq!(LinkKey::new(3, 7), LinkKey::new(7, 3));
        assert_eq!(LinkKey::new(3, 7).endpoints(), (3, 7));
        assert_eq!(LinkKey::new(5, 5).endpoints(), (5, 5));
    }

    #[test]
    fn batch_delivery_matches_sequential() {
        // `deliver_batch` must reproduce per-packet `deliver` on every hop
        // kind: a whole query, a CQE-sliced query whose snapshot crosses
        // switches, a forward-only (Newton-disabled) core switch, a failed
        // link, a dead transit switch, a dead edge switch stranding its
        // packets, and a switch that died and came back blank.
        let q = catalog::q1_new_tcp();
        let sliced = compile(&q, 1, &CompilerConfig::default());
        let whole = compile(&q, 2, &CompilerConfig::default());
        let total_stages = sliced.composition.stages();
        let cut = total_stages / 2;
        let first = sliced.rules.slice_stages(0, cut);
        let second = sliced.rules.slice_stages(cut, total_stages);
        let slice = |index: u8| SliceInfo {
            index,
            total: 2,
            capture_set: SetId::Set1,
            restore_set: SetId::Set1,
            stages: (0, 12),
        };
        let topo = Topology::fat_tree(4);
        let edges: Vec<NodeId> = topo.edge_switches().to_vec();
        let build = || {
            let mut net = Network::new(Topology::fat_tree(4), PipelineConfig::default());
            // edges[0] and edges[1] share a pod, so packets between them
            // carry slice 0's snapshot into slice 1.
            net.switch_mut(edges[0]).install(&first).unwrap();
            net.switch_mut(edges[0]).set_slice(1, slice(0)).unwrap();
            net.switch_mut(edges[1]).install(&second).unwrap();
            net.switch_mut(edges[1]).set_slice(1, slice(1)).unwrap();
            for &e in &edges[4..6] {
                net.switch_mut(e).install(&whole.rules).unwrap();
            }
            net.set_newton_enabled(net.switch_count() - 1, false);
            let uplink = net.topology().neighbors(edges[2]).next().unwrap();
            net.router_mut().fail_link(edges[2], uplink);
            net.fail_switch(0);
            net.fail_switch(edges[3]);
            net.fail_switch(edges[5]);
            net.restore_switch(edges[5]);
            net
        };
        // Five destinations cross Q1's threshold at each monitored edge,
        // so the order of the reports pins the order packets ran in.
        let pkts: Vec<Packet> = (0..2000u16).map(|i| syn(0xBEEF + u32::from(i % 5), i)).collect();
        let triples: Vec<(&Packet, NodeId, NodeId)> = pkts
            .iter()
            .enumerate()
            .map(|(i, p)| (p, edges[i % edges.len()], edges[(3 * i + 1) % edges.len()]))
            .collect();

        let mut seq = build();
        let mut seq_reports = Vec::new();
        let mut seq_sp = 0usize;
        let mut seq_delivered = 0usize;
        for &(p, ig, eg) in &triples {
            let r = seq.deliver(p, ig, eg);
            seq_reports.extend(r.reports);
            seq_sp += r.snapshot_bytes;
            seq_delivered += usize::from(r.clean_delivery);
        }
        let reporters = |s: NodeId| seq_reports.iter().filter(|&&(r, _)| r == s).count();
        assert_eq!(reporters(edges[1]), 5, "slice 1 reports every destination");
        assert_eq!(reporters(edges[4]), 5, "the whole query reports every destination");
        assert!(seq_delivered < triples.len(), "the dead edge switch strands packets");

        let mut bat = build();
        let out = bat.deliver_batch(&triples);
        assert_eq!(out.reports, seq_reports);
        assert_eq!(out.snapshot_bytes, seq_sp);
        assert_eq!(out.delivered, seq_delivered);
        assert_eq!(out.unrouted, triples.len() - seq_delivered);
        for a in 0..seq.switch_count() {
            assert_eq!(seq.switch(a).forwarded(), bat.switch(a).forwarded(), "switch {a}");
            for b in a + 1..seq.switch_count() {
                assert_eq!(seq.link_load(a, b), bat.link_load(a, b), "link ({a},{b})");
            }
        }
    }

    #[test]
    fn failed_switch_loses_rules_and_packets_route_around_it() {
        let q = catalog::q1_new_tcp();
        let compiled = compile(&q, 1, &CompilerConfig::default());
        let mut net = Network::new(Topology::fat_tree(4), PipelineConfig::default());
        let edges: Vec<NodeId> = net.topology().edge_switches().to_vec();
        let (src, dst) = (edges[0], edges[7]);
        let first_hop = net.router().path(src, dst, &syn(1, 1).flow_key()).unwrap()[1];
        net.switch_mut(first_hop).install(&compiled.rules).unwrap();
        assert!(net.fail_switch(first_hop), "rules were on the box");
        assert_eq!(net.switch(first_hop).total_rule_count(), 0, "crash wipes rules");
        let r = net.deliver(&syn(1, 1), src, dst);
        assert!(r.clean_delivery, "fat-tree routes around the dead switch");
        assert!(!r.path.contains(&first_hop));
        // Restore: blank box forwards but reports nothing.
        net.restore_switch(first_hop);
        for i in 0..200u16 {
            let out = net.deliver(&syn(0xBEEF, i), src, dst);
            assert!(out.reports.is_empty(), "blank switch cannot detect");
        }
    }

    #[test]
    fn epoch_clear_resets_network_state() {
        let q = catalog::q1_new_tcp();
        let compiled = compile(&q, 1, &CompilerConfig::default());
        let mut net = Network::new(Topology::chain(2), PipelineConfig::default());
        net.switch_mut(0).install(&compiled.rules).unwrap();
        for i in 0..30u16 {
            net.deliver(&syn(7, 3000 + i), 0, 1);
        }
        net.clear_state();
        let mut reports = 0;
        for i in 0..30u16 {
            reports += net.deliver(&syn(7, 4000 + i), 0, 1).reports.len();
        }
        assert_eq!(reports, 0, "30 SYNs after reset stay below the threshold of 40");
    }
}
