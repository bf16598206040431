//! Shortest-path routing with link failures and deterministic ECMP.
//!
//! The router computes hop-by-hop paths over the live topology (failed
//! links excluded). Ties between equal-cost next hops break by hashing the
//! flow key — deterministic per flow, spreading flows like hardware ECMP.
//!
//! Routing is table-driven: one BFS per destination yields a *row* holding
//! every node's hop distance and its live downhill neighbours, each with
//! the id of the link to it, so a path is one row read plus one ECMP pick
//! per hop. Rows are built on first use and dropped by every change to
//! link or switch state.

use crate::sim::LinkKey;
use crate::topology::{NodeId, Topology};
use newton_packet::FlowKey;
use newton_sketch::hash::mix64;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// What ECMP hashes to break ties between equal-cost next hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EcmpMode {
    /// Hash the full 5-tuple (the common data-center default).
    #[default]
    FiveTuple,
    /// Hash only the (src ip, dst ip) pair — all traffic between two hosts
    /// shares a path, which keeps cross-switch query state together.
    PairHash,
}

/// The scratch argument of [`Router::path_into`]. Routing reads
/// per-destination tables and needs no buffers, so this holds nothing; it
/// stays because `perfbench/` builds one and passes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteScratch;

/// One destination's routing table over the live topology.
#[derive(Debug, Clone)]
struct Row {
    /// Hops from each node to the destination; `usize::MAX` if unreachable.
    dist: Vec<usize>,
    /// Each node's live next hops toward the destination, in neighbour
    /// order, with the id of the link to each: its ECMP candidate list.
    next: Vec<Vec<(NodeId, usize)>>,
}

/// Routing over a topology with a mutable failure set (links and whole
/// switches).
#[derive(Debug, Clone)]
pub struct Router {
    topo: Topology,
    /// Each node's `(neighbour, link id)` pairs, ascending by neighbour.
    adj: Vec<Vec<(NodeId, usize)>>,
    /// Every link's key, indexed by link id; ids follow `LinkKey` order.
    links: Vec<LinkKey>,
    /// Per link id: failed in its own right, whatever its endpoints' state.
    link_failed: Vec<bool>,
    alive: Vec<bool>,
    ecmp: EcmpMode,
    /// Per destination: its row, built on first use by `&self` callers.
    rows: Vec<OnceLock<Row>>,
}

impl Router {
    pub fn new(topo: Topology) -> Self {
        let n = topo.len();
        let links: Vec<LinkKey> = (0..n)
            .flat_map(|a| {
                topo.neighbors(a).filter(move |&b| a < b).map(move |b| LinkKey::new(a, b))
            })
            .collect();
        let adj = (0..n)
            .map(|a| {
                let id =
                    |b| links.binary_search(&LinkKey::new(a, b)).expect("a link per neighbour");
                topo.neighbors(a).map(|b| (b, id(b))).collect()
            })
            .collect();
        Router {
            link_failed: vec![false; links.len()],
            links,
            adj,
            alive: vec![true; n],
            ecmp: EcmpMode::default(),
            rows: (0..n).map(|_| OnceLock::new()).collect(),
            topo,
        }
    }

    /// Select the ECMP tie-break mode.
    pub fn set_ecmp_mode(&mut self, mode: EcmpMode) {
        self.ecmp = mode;
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Every link of the topology, indexed by link id (canonical order).
    pub(crate) fn links(&self) -> &[LinkKey] {
        &self.links
    }

    /// The id of the link between `a` and `b`, or `None` if the topology
    /// has no such link (including out-of-range node ids).
    pub fn link_id(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let nbrs = self.adj.get(a)?;
        nbrs.binary_search_by_key(&b, |&(n, _)| n).ok().map(|i| nbrs[i].1)
    }

    /// Forget every row: the live topology changed.
    fn invalidate(&mut self) {
        for row in &mut self.rows {
            row.take();
        }
    }

    /// Fail a link (both directions). A pair that is not a topology link
    /// is left alone.
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) {
        if let Some(id) = self.link_id(a, b) {
            self.link_failed[id] = true;
            self.invalidate();
        }
    }

    /// Restore a failed link. A pair that is not a topology link is left
    /// alone.
    pub fn restore_link(&mut self, a: NodeId, b: NodeId) {
        if let Some(id) = self.link_id(a, b) {
            self.link_failed[id] = false;
            self.invalidate();
        }
    }

    /// Whether the link is currently up. A link with a dead endpoint is
    /// down regardless of its own state, and a pair that is not a topology
    /// link is never up.
    pub fn link_up(&self, a: NodeId, b: NodeId) -> bool {
        self.link_id(a, b).is_some_and(|id| self.live(a, b, id))
    }

    /// Whether link `id` between `a` and `b` carries traffic.
    fn live(&self, a: NodeId, b: NodeId, id: usize) -> bool {
        self.alive[a] && self.alive[b] && !self.link_failed[id]
    }

    /// Fail a whole switch: every incident link goes dark and the node is
    /// excluded from all paths until restored.
    pub fn fail_switch(&mut self, s: NodeId) {
        self.alive[s] = false;
        self.invalidate();
    }

    /// Bring a failed switch back. Its links recover too, unless they were
    /// failed independently via [`fail_link`](Self::fail_link).
    pub fn restore_switch(&mut self, s: NodeId) {
        self.alive[s] = true;
        self.invalidate();
    }

    /// Whether the switch is currently up.
    pub fn switch_up(&self, s: NodeId) -> bool {
        self.alive[s]
    }

    /// The healthy subgraph as a [`Topology`]: live switches, live links,
    /// and only the live subset of the edge switches. This is what
    /// Algorithm 2 must re-place over after a failure.
    pub fn live_topology(&self) -> Topology {
        let mut live = Topology::new(format!("{}-live", self.topo.name()), self.topo.len());
        for (id, key) in self.links.iter().enumerate() {
            let (a, b) = key.endpoints();
            if self.live(a, b, id) {
                live.add_link(a, b);
            }
        }
        for &e in self.topo.edge_switches() {
            if self.alive[e] {
                live.mark_edge(e);
            }
        }
        live
    }

    /// Live neighbors of a switch with the id of the link to each, in
    /// neighbour order.
    fn live_neighbors(&self, s: NodeId) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.adj[s].iter().copied().filter(move |&(n, id)| self.live(s, n, id))
    }

    /// `dst`'s row, built by one BFS over the live topology on first use.
    fn row(&self, dst: NodeId) -> &Row {
        self.rows[dst].get_or_init(|| {
            let n = self.alive.len();
            let mut dist = vec![usize::MAX; n];
            dist[dst] = 0;
            let mut queue = VecDeque::from([dst]);
            while let Some(s) = queue.pop_front() {
                for (nb, _) in self.live_neighbors(s) {
                    if dist[nb] == usize::MAX {
                        dist[nb] = dist[s] + 1;
                        queue.push_back(nb);
                    }
                }
            }
            // Live neighbours lie in one component, at most one hop apart
            // in distance, so a closer neighbour is exactly one hop closer.
            let next = (0..n)
                .map(|v| self.live_neighbors(v).filter(|&(nb, _)| dist[nb] < dist[v]).collect())
                .collect();
            Row { dist, next }
        })
    }

    /// Shortest path from `src` to `dst` over live links, ECMP-tie-broken
    /// by `flow`. Returns the node sequence including both endpoints, or
    /// `None` if disconnected.
    pub fn path(&self, src: NodeId, dst: NodeId, flow: &FlowKey) -> Option<Vec<NodeId>> {
        let mut out = Vec::new();
        self.path_into(src, dst, flow, &mut RouteScratch, &mut out).then_some(out)
    }

    /// No-alloc [`path`](Self::path): writes the node sequence into `out`
    /// (cleared first), returning `false` if disconnected. `scratch` is
    /// unused; the parameter stays because `perfbench/` passes one.
    pub fn path_into(
        &self,
        src: NodeId,
        dst: NodeId,
        flow: &FlowKey,
        _scratch: &mut RouteScratch,
        out: &mut Vec<NodeId>,
    ) -> bool {
        self.walk(src, dst, flow, out, |_| {})
    }

    /// [`path_into`](Self::path_into) that also writes, into `links`
    /// (cleared first), the id of the link each hop crosses: `links[i]`
    /// joins `out[i]` and `out[i + 1]`. Delivery indexes its per-link
    /// counters with these ids.
    pub(crate) fn route_into(
        &self,
        src: NodeId,
        dst: NodeId,
        flow: &FlowKey,
        out: &mut Vec<NodeId>,
        links: &mut Vec<usize>,
    ) -> bool {
        links.clear();
        self.walk(src, dst, flow, out, |id| links.push(id))
    }

    /// The walk behind both route calls: the node sequence into `out`
    /// (cleared first) and each crossed link's id to `link`, in order.
    #[inline(always)]
    fn walk(
        &self,
        src: NodeId,
        dst: NodeId,
        flow: &FlowKey,
        out: &mut Vec<NodeId>,
        mut link: impl FnMut(usize),
    ) -> bool {
        out.clear();
        if !self.alive[src] || !self.alive[dst] {
            return false;
        }
        if src == dst {
            out.push(src);
            return true;
        }
        let row = self.row(dst);
        if row.dist[src] == usize::MAX {
            return false;
        }
        // Walk downhill, hashing per the ECMP mode for ties.
        let b = flow.to_bytes();
        let lo = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        let fk = match self.ecmp {
            EcmpMode::FiveTuple => {
                let hi = u64::from_le_bytes([b[8], b[9], b[10], b[11], b[12], 0, 0, 0]);
                mix64(lo) ^ mix64(hi.wrapping_mul(0x9E37_79B9))
            }
            EcmpMode::PairHash => mix64(lo),
        };
        out.push(src);
        let mut cur = src;
        while cur != dst {
            let candidates = &row.next[cur];
            // A lone candidate is what the hash would pick anyway.
            let (pick, id) = if let [only] = candidates[..] {
                only
            } else {
                candidates[(mix64(fk ^ (cur as u64).wrapping_mul(0xABCD)) % candidates.len() as u64)
                    as usize]
            };
            out.push(pick);
            link(id);
            cur = pick;
        }
        true
    }

    /// All switches on *any* live shortest path between two endpoints —
    /// what resilient placement must cover for this pair.
    pub fn shortest_path_dag_nodes(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        if !self.alive[src] || !self.alive[dst] {
            return Vec::new();
        }
        let (ds, dd) = (&self.row(src).dist, &self.row(dst).dist);
        if ds[dst] == usize::MAX {
            return Vec::new();
        }
        let total = ds[dst];
        (0..ds.len())
            .filter(|&v| ds[v] != usize::MAX && dd[v] != usize::MAX && ds[v] + dd[v] == total)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn flow(seed: u16) -> FlowKey {
        FlowKey { src_ip: 1, dst_ip: 2, src_port: seed, dst_port: 80, protocol: 6 }
    }

    #[test]
    fn chain_path_is_the_chain() {
        let r = Router::new(Topology::chain(4));
        assert_eq!(r.path(0, 3, &flow(1)).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(r.path(2, 2, &flow(1)).unwrap(), vec![2]);
    }

    #[test]
    fn failure_reroutes_or_disconnects() {
        let mut r = Router::new(Topology::chain(3));
        r.fail_link(0, 1);
        assert!(r.path(0, 2, &flow(1)).is_none(), "chain has no alternative path");
        r.restore_link(0, 1);
        assert!(r.path(0, 2, &flow(1)).is_some());
    }

    #[test]
    fn fat_tree_reroutes_around_failure() {
        let t = Topology::fat_tree(4);
        let (e1, e2) = (t.edge_switches()[0], t.edge_switches()[7]);
        let mut r = Router::new(t);
        let p = r.path(e1, e2, &flow(9)).unwrap();
        assert_eq!(p.len(), 5, "inter-pod path is edge-agg-core-agg-edge");
        // Fail the first hop used; an alternative must exist.
        r.fail_link(p[0], p[1]);
        let p2 = r.path(e1, e2, &flow(9)).unwrap();
        assert_ne!(p, p2);
        assert_eq!(p2.len(), 5, "fat-tree has equal-cost alternatives");
    }

    #[test]
    fn ecmp_spreads_flows() {
        let t = Topology::fat_tree(4);
        let (e1, e2) = (t.edge_switches()[0], t.edge_switches()[7]);
        let r = Router::new(t);
        let firsts: std::collections::HashSet<NodeId> =
            (0..64).map(|s| r.path(e1, e2, &flow(s)).unwrap()[1]).collect();
        assert!(firsts.len() > 1, "ECMP should use more than one next hop");
    }

    #[test]
    fn ecmp_is_deterministic_per_flow() {
        let t = Topology::fat_tree(4);
        let (e1, e2) = (t.edge_switches()[0], t.edge_switches()[7]);
        let r = Router::new(t);
        assert_eq!(r.path(e1, e2, &flow(5)), r.path(e1, e2, &flow(5)));
    }

    #[test]
    fn dead_switch_is_excluded_from_paths() {
        let t = Topology::fat_tree(4);
        let (e1, e2) = (t.edge_switches()[0], t.edge_switches()[7]);
        let mut r = Router::new(t);
        let p = r.path(e1, e2, &flow(9)).unwrap();
        // Kill the first transit switch; the flow must route around it.
        r.fail_switch(p[1]);
        assert!(!r.switch_up(p[1]));
        let p2 = r.path(e1, e2, &flow(9)).unwrap();
        assert!(!p2.contains(&p[1]), "rerouted path still visits dead switch");
        // A dead endpoint makes the pair unroutable, even src == dst.
        r.fail_switch(e1);
        assert!(r.path(e1, e2, &flow(9)).is_none());
        assert!(r.path(e1, e1, &flow(9)).is_none());
        assert!(r.shortest_path_dag_nodes(e1, e2).is_empty());
        r.restore_switch(e1);
        r.restore_switch(p[1]);
        assert_eq!(r.path(e1, e2, &flow(9)).unwrap(), p, "restore heals routing exactly");
    }

    #[test]
    fn live_topology_drops_dead_switches_and_their_links() {
        let mut r = Router::new(Topology::chain(4));
        r.fail_switch(3);
        r.fail_link(0, 1);
        let live = r.live_topology();
        assert_eq!(live.len(), 4, "node ids keep their meaning");
        assert_eq!(live.link_count(), 1, "only 1-2 survives");
        assert_eq!(live.edge_switches(), &[0], "dead edge switch unmarked");
        assert!(live.neighbors(3).next().is_none());
    }

    #[test]
    fn a_non_link_is_never_up_and_failing_it_changes_nothing() {
        let mut r = Router::new(Topology::chain(4));
        let before = r.path(0, 3, &flow(1));
        for (a, b) in [(0, 2), (1, 1), (0, 99), (99, 0), (usize::MAX, 0)] {
            assert_eq!(r.link_id(a, b), None, "({a},{b}) is not a link");
            assert!(!r.link_up(a, b), "({a},{b}) reads down");
            r.fail_link(a, b);
            r.restore_link(a, b);
            r.fail_link(a, b);
        }
        assert_eq!(r.path(0, 3, &flow(1)), before, "routing is untouched");
        assert_eq!(r.live_topology().link_count(), 3, "no phantom link failed or added");
        assert!((0..3).all(|a| r.link_up(a, a + 1)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under random link and switch fail/restore schedules, the route
        /// delivery uses is `path` node for node, and each of its link ids
        /// is `link_id` of the hop pair it joins.
        #[test]
        fn route_links_are_the_hops_link_ids(
            shape in 0usize..3,
            ops in prop::collection::vec((0u8..4, any::<usize>(), any::<usize>()), 0..24),
            draws in prop::collection::vec((any::<usize>(), any::<usize>(), any::<u16>()), 1..8),
        ) {
            let topo = match shape {
                0 => Topology::fat_tree(4),
                1 => Topology::abilene(),
                _ => Topology::chain(5),
            };
            let n = topo.len();
            let mut r = Router::new(topo);
            let (mut nodes, mut links) = (Vec::new(), Vec::new());
            for &(op, s, k) in &ops {
                let s = s % n;
                let b = r.adj[s][k % r.adj[s].len()].0;
                match op {
                    0 => r.fail_link(s, b),
                    1 => r.restore_link(s, b),
                    2 => r.fail_switch(s),
                    _ => r.restore_switch(s),
                }
                for &(src, dst, port) in &draws {
                    let (src, dst, f) = (src % n, dst % n, flow(port));
                    let want = r.path(src, dst, &f);
                    prop_assert_eq!(
                        r.route_into(src, dst, &f, &mut nodes, &mut links),
                        want.is_some()
                    );
                    prop_assert_eq!(&nodes, &want.unwrap_or_default());
                    prop_assert_eq!(links.len(), nodes.len().saturating_sub(1));
                    for (hop, &id) in nodes.windows(2).zip(&links) {
                        prop_assert_eq!(Some(id), r.link_id(hop[0], hop[1]));
                    }
                }
            }
        }
    }

    #[test]
    fn dag_nodes_cover_all_equal_cost_paths() {
        let t = Topology::fat_tree(4);
        let (e1, e2) = (t.edge_switches()[0], t.edge_switches()[7]);
        let r = Router::new(t);
        let dag = r.shortest_path_dag_nodes(e1, e2);
        // Inter-pod: 2 endpoints + 2 aggs × both pods + 4 cores... at
        // least every node of every flow's path is covered.
        for s in 0..64 {
            for node in r.path(e1, e2, &flow(s)).unwrap() {
                assert!(dag.contains(&node), "path node {node} missing from DAG");
            }
        }
    }
}
