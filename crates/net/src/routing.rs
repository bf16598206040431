//! Shortest-path routing with link failures and deterministic ECMP.
//!
//! The router computes hop-by-hop paths over the live topology (failed
//! links excluded). Ties between equal-cost next hops break by hashing the
//! flow key — deterministic per flow, spreading flows like hardware ECMP.

use crate::topology::{NodeId, Topology};
use newton_packet::FlowKey;
use newton_sketch::hash::mix64;
use std::collections::{HashSet, VecDeque};

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

/// Reusable buffers for [`Router::path_into`]: BFS distances, the BFS
/// queue and the ECMP candidate list survive across calls so steady-state
/// routing performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct RouteScratch {
    dist: Vec<usize>,
    queue: VecDeque<NodeId>,
    candidates: Vec<NodeId>,
}

/// Routing over a topology with a mutable failure set (links and whole
/// switches).
#[derive(Debug, Clone)]
pub struct Router {
    topo: Topology,
    failed: HashSet<(NodeId, NodeId)>,
    alive: Vec<bool>,
    ecmp: EcmpMode,
}

impl Router {
    pub fn new(topo: Topology) -> Self {
        let alive = vec![true; topo.len()];
        Router { topo, failed: HashSet::new(), alive, ecmp: EcmpMode::default() }
    }

    /// Select the ECMP tie-break mode.
    pub fn set_ecmp_mode(&mut self, mode: EcmpMode) {
        self.ecmp = mode;
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    fn canon(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Fail a link (both directions).
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) {
        self.failed.insert(Self::canon(a, b));
    }

    /// Restore a failed link.
    pub fn restore_link(&mut self, a: NodeId, b: NodeId) {
        self.failed.remove(&Self::canon(a, b));
    }

    /// Whether the link is currently up. A link with a dead endpoint is
    /// down regardless of its own state.
    pub fn link_up(&self, a: NodeId, b: NodeId) -> bool {
        self.alive[a] && self.alive[b] && !self.failed.contains(&Self::canon(a, b))
    }

    /// Fail a whole switch: every incident link goes dark and the node is
    /// excluded from all paths until restored.
    pub fn fail_switch(&mut self, s: NodeId) {
        self.alive[s] = false;
    }

    /// Bring a failed switch back. Its links recover too, unless they were
    /// failed independently via [`fail_link`](Self::fail_link).
    pub fn restore_switch(&mut self, s: NodeId) {
        self.alive[s] = true;
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
        for a in 0..self.topo.len() {
            for b in self.topo.neighbors(a) {
                if a < b && self.link_up(a, b) {
                    live.add_link(a, b);
                }
            }
        }
        for &e in self.topo.edge_switches() {
            if self.alive[e] {
                live.mark_edge(e);
            }
        }
        live
    }

    /// Live neighbors of a switch.
    fn live_neighbors(&self, s: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.topo.neighbors(s).filter(move |&n| self.link_up(s, n))
    }

    /// Shortest path from `src` to `dst` over live links, ECMP-tie-broken
    /// by `flow`. Returns the node sequence including both endpoints, or
    /// `None` if disconnected.
    pub fn path(&self, src: NodeId, dst: NodeId, flow: &FlowKey) -> Option<Vec<NodeId>> {
        let mut scratch = RouteScratch::default();
        let mut out = Vec::new();
        self.path_into(src, dst, flow, &mut scratch, &mut out).then_some(out)
    }

    /// No-alloc [`path`](Self::path): writes the node sequence into `out`
    /// (cleared first) using `scratch`'s buffers, returning `false` if
    /// disconnected. Bit-identical routing: same BFS discipline, same
    /// candidate order, same ECMP tie-break.
    pub fn path_into(
        &self,
        src: NodeId,
        dst: NodeId,
        flow: &FlowKey,
        scratch: &mut RouteScratch,
        out: &mut Vec<NodeId>,
    ) -> bool {
        out.clear();
        if !self.alive[src] || !self.alive[dst] {
            return false;
        }
        if src == dst {
            out.push(src);
            return true;
        }
        // BFS from dst: dist[n] = hops to dst.
        let RouteScratch { dist, queue, candidates } = scratch;
        dist.clear();
        dist.resize(self.topo.len(), usize::MAX);
        dist[dst] = 0;
        queue.clear();
        queue.push_back(dst);
        while let Some(s) = queue.pop_front() {
            for nb in self.live_neighbors(s) {
                if dist[nb] == usize::MAX {
                    dist[nb] = dist[s] + 1;
                    queue.push_back(nb);
                }
            }
        }
        if dist[src] == usize::MAX {
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
            let next_dist = dist[cur] - 1;
            candidates.clear();
            candidates.extend(self.live_neighbors(cur).filter(|&nb| dist[nb] == next_dist));
            let pick = candidates[(mix64(fk ^ (cur as u64).wrapping_mul(0xABCD))
                % candidates.len() as u64) as usize];
            out.push(pick);
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
        let n = self.topo.len();
        let bfs = |root: NodeId| {
            let mut d = vec![usize::MAX; n];
            d[root] = 0;
            let mut q = VecDeque::from([root]);
            while let Some(s) = q.pop_front() {
                for nb in self.live_neighbors(s) {
                    if d[nb] == usize::MAX {
                        d[nb] = d[s] + 1;
                        q.push_back(nb);
                    }
                }
            }
            d
        };
        let ds = bfs(src);
        let dd = bfs(dst);
        if ds[dst] == usize::MAX {
            return Vec::new();
        }
        let total = ds[dst];
        (0..n)
            .filter(|&v| ds[v] != usize::MAX && dd[v] != usize::MAX && ds[v] + dd[v] == total)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
