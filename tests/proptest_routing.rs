//! The next-hop table routes exactly like the per-packet BFS it replaced.
//!
//! [`Router`] answers a path from a per-destination row: every node's hop
//! distance and its live downhill neighbours, built by one BFS on first
//! use and dropped on every link or switch state change. The oracle below
//! is the router that ran one BFS from the destination for every packet,
//! with link state in a set. Over random link and switch fail/restore
//! schedules, on every topology family and in both ECMP modes, `path`,
//! `path_into` (one reused scratch) and `shortest_path_dag_nodes` must
//! agree with it — also on a clone taken after rows were built, mutated
//! apart from the original.

use newton::net::{EcmpMode, NodeId, RouteScratch, Router, Topology};
use newton::packet::FlowKey;
use newton::sketch::hash::mix64;
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

/// The per-packet BFS router, kept as the oracle.
#[derive(Clone)]
struct Reference {
    topo: Topology,
    failed: HashSet<(NodeId, NodeId)>,
    alive: Vec<bool>,
    ecmp: EcmpMode,
}

fn canon(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

impl Reference {
    fn new(topo: Topology, ecmp: EcmpMode) -> Self {
        let alive = vec![true; topo.len()];
        Reference { topo, failed: HashSet::new(), alive, ecmp }
    }

    fn link_up(&self, a: NodeId, b: NodeId) -> bool {
        self.alive[a] && self.alive[b] && !self.failed.contains(&canon(a, b))
    }

    fn bfs(&self, root: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.topo.len()];
        dist[root] = 0;
        let mut queue = VecDeque::from([root]);
        while let Some(s) = queue.pop_front() {
            for nb in self.topo.neighbors(s).filter(|&nb| self.link_up(s, nb)) {
                if dist[nb] == usize::MAX {
                    dist[nb] = dist[s] + 1;
                    queue.push_back(nb);
                }
            }
        }
        dist
    }

    fn path(&self, src: NodeId, dst: NodeId, flow: &FlowKey) -> Option<Vec<NodeId>> {
        if !self.alive[src] || !self.alive[dst] {
            return None;
        }
        if src == dst {
            return Some(vec![src]);
        }
        let dist = self.bfs(dst);
        if dist[src] == usize::MAX {
            return None;
        }
        let b = flow.to_bytes();
        let lo = u64::from_le_bytes(b[..8].try_into().unwrap());
        let fk = match self.ecmp {
            EcmpMode::FiveTuple => {
                let hi = u64::from_le_bytes([b[8], b[9], b[10], b[11], b[12], 0, 0, 0]);
                mix64(lo) ^ mix64(hi.wrapping_mul(0x9E37_79B9))
            }
            EcmpMode::PairHash => mix64(lo),
        };
        let mut out = vec![src];
        let mut cur = src;
        while cur != dst {
            let candidates: Vec<NodeId> = self
                .topo
                .neighbors(cur)
                .filter(|&nb| self.link_up(cur, nb) && dist[nb] == dist[cur] - 1)
                .collect();
            let pick = candidates[(mix64(fk ^ (cur as u64).wrapping_mul(0xABCD))
                % candidates.len() as u64) as usize];
            out.push(pick);
            cur = pick;
        }
        Some(out)
    }

    fn dag(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        if !self.alive[src] || !self.alive[dst] {
            return Vec::new();
        }
        let (ds, dd) = (self.bfs(src), self.bfs(dst));
        if ds[dst] == usize::MAX {
            return Vec::new();
        }
        (0..self.topo.len())
            .filter(|&v| ds[v] != usize::MAX && dd[v] != usize::MAX && ds[v] + dd[v] == ds[dst])
            .collect()
    }
}

/// One schedule step, decoded from raw draws: mostly real links and
/// switches, plus arbitrary node pairs (usually not links) whose failure
/// must change nothing.
fn apply(router: &mut Router, reference: &mut Reference, (kind, x, y): (u8, u64, u64)) {
    let n = reference.topo.len() as u64;
    let links: Vec<(NodeId, NodeId)> = (0..reference.topo.len())
        .flat_map(|a| reference.topo.neighbors(a).filter(move |&b| a < b).map(move |b| (a, b)))
        .collect();
    let s = (x % n) as NodeId;
    match kind {
        0 | 1 if !links.is_empty() => {
            let (a, b) = links[(x % links.len() as u64) as usize];
            let (a, b) = if y & 1 == 0 { (a, b) } else { (b, a) };
            if kind == 0 {
                router.fail_link(a, b);
                reference.failed.insert(canon(a, b));
            } else {
                router.restore_link(a, b);
                reference.failed.remove(&canon(a, b));
            }
        }
        2 => {
            let b = (y % n) as NodeId;
            if y & (1 << 40) == 0 {
                router.fail_link(s, b);
                reference.failed.insert(canon(s, b));
            } else {
                router.restore_link(s, b);
                reference.failed.remove(&canon(s, b));
            }
        }
        3 => {
            router.fail_switch(s);
            reference.alive[s] = false;
        }
        _ => {
            router.restore_switch(s);
            reference.alive[s] = true;
        }
    }
}

fn check(
    router: &Router,
    reference: &Reference,
    routes: &[(NodeId, NodeId, FlowKey)],
    scratch: &mut RouteScratch,
    out: &mut Vec<NodeId>,
) -> Result<(), TestCaseError> {
    for &(src, dst, flow) in routes {
        let want = reference.path(src, dst, &flow);
        prop_assert_eq!(router.path(src, dst, &flow), want.clone(), "path {} -> {}", src, dst);
        let routed = router.path_into(src, dst, &flow, scratch, out);
        prop_assert_eq!(
            (routed, out.clone()),
            (want.is_some(), want.unwrap_or_default()),
            "path_into {} -> {}",
            src,
            dst
        );
        prop_assert_eq!(
            router.shortest_path_dag_nodes(src, dst),
            reference.dag(src, dst),
            "DAG {} -> {}",
            src,
            dst
        );
    }
    for a in 0..reference.topo.len() {
        for b in reference.topo.neighbors(a) {
            prop_assert_eq!(router.link_up(a, b), reference.link_up(a, b), "link ({}, {})", a, b);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn next_hop_table_routes_like_per_packet_bfs(
        shape in 0usize..4,
        chain_len in 1usize..10,
        pair_hash in any::<bool>(),
        ops in prop::collection::vec((0u8..6, any::<u64>(), any::<u64>()), 0..40),
        fork in any::<u64>(),
        draws in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..16),
    ) {
        let topo = match shape {
            0 => Topology::fat_tree(4),
            1 => Topology::isp_backbone(),
            2 => Topology::abilene(),
            _ => Topology::chain(chain_len),
        };
        let mode = if pair_hash { EcmpMode::PairHash } else { EcmpMode::FiveTuple };
        let n = topo.len() as u64;
        let routes: Vec<(NodeId, NodeId, FlowKey)> = draws
            .iter()
            .map(|&(ends, ips, ports)| {
                let flow = FlowKey {
                    src_ip: ips as u32,
                    dst_ip: (ips >> 32) as u32,
                    src_port: ports as u16,
                    dst_port: (ports >> 16) as u16,
                    protocol: (ports >> 32) as u8,
                };
                ((ends % n) as NodeId, ((ends >> 32) % n) as NodeId, flow)
            })
            .collect();
        let mut router = Router::new(topo.clone());
        router.set_ecmp_mode(mode);
        let mut reference = Reference::new(topo, mode);
        let (mut scratch, mut out) = (RouteScratch, Vec::new());
        check(&router, &reference, &routes, &mut scratch, &mut out)?;

        // The twin forks off after rows were built, then takes its own
        // schedule: each side must keep matching its own oracle.
        let fork_at = (fork % (ops.len() as u64 + 1)) as usize;
        let mut twin: Option<(Router, Reference)> = None;
        for (i, &(kind, x, y)) in ops.iter().enumerate() {
            if i == fork_at {
                twin = Some((router.clone(), reference.clone()));
            }
            apply(&mut router, &mut reference, (kind, x, y));
            check(&router, &reference, &routes, &mut scratch, &mut out)?;
            if let Some((twin_router, twin_reference)) = twin.as_mut() {
                check(twin_router, twin_reference, &routes, &mut scratch, &mut out)?;
                apply(twin_router, twin_reference, ((kind + 3) % 6, y, x));
                check(twin_router, twin_reference, &routes, &mut scratch, &mut out)?;
            }
        }
    }
}
