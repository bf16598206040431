//! Algorithm 2: resilient module-rule placement.
//!
//! Computing the forwarding path of every monitored flow is intractable
//! and paths mutate under failures, so Newton "places queries in switches
//! along all the possible paths without considering forwarding rules"
//! (§5.2). The composed query is sliced into `M = ⌈|C| / N⌉` parts for
//! `N`-stage switches; a depth-first search from each edge switch assigns
//! slice `d` to every switch reachable at depth `d`, multiplexing so a
//! switch stores each slice at most once. The result is correct under any
//! rerouting event, at a bounded redundancy cost (Fig. 17).

use newton_dataplane::RuleSet;
use newton_net::topology::{NodeId, Topology};
use std::collections::BTreeSet;

/// The outcome of placing one query network-wide.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Slice indices assigned to each switch (`slices[s]` = which of the
    /// `M` query parts switch `s` must hold).
    pub slices: Vec<BTreeSet<usize>>,
    /// Number of slices the query was cut into.
    pub slice_count: usize,
    /// Table-rule count of each slice (what one switch holding that slice
    /// stores).
    pub slice_rules: Vec<usize>,
}

impl Placement {
    /// Total table entries installed network-wide (the Fig. 17 metric).
    pub fn total_entries(&self) -> usize {
        self.slices.iter().map(|set| set.iter().map(|&c| self.slice_rules[c]).sum::<usize>()).sum()
    }

    /// Average entries per switch that holds at least one slice.
    pub fn avg_entries_per_switch(&self) -> f64 {
        let holders = self.slices.iter().filter(|s| !s.is_empty()).count();
        if holders == 0 {
            0.0
        } else {
            self.total_entries() as f64 / holders as f64
        }
    }

    /// Switches holding at least one slice.
    pub fn covered_switches(&self) -> usize {
        self.slices.iter().filter(|s| !s.is_empty()).count()
    }
}

/// Maximum DFS depth reachable from any edge switch — the longest chain of
/// distinct switches a query can span. Slices beyond this depth can never
/// execute on the data plane and must defer to the analyzer (§5.2: "what
/// if the query requires more switches than the hop count").
pub fn reachable_depth(topo: &Topology, edge_switches: &[NodeId]) -> usize {
    // The DFS of Algorithm 2 explores simple paths; the depth bound we
    // need is the longest shortest-path distance from any edge (BFS), as
    // packets follow shortest paths.
    let mut best = 0usize;
    for &e in edge_switches {
        let mut dist = vec![usize::MAX; topo.len()];
        dist[e] = 0;
        let mut q = std::collections::VecDeque::from([e]);
        while let Some(s) = q.pop_front() {
            for n in topo.neighbors(s) {
                if dist[n] == usize::MAX {
                    dist[n] = dist[s] + 1;
                    q.push_back(n);
                }
            }
        }
        best = best.max(dist.iter().filter(|&&d| d != usize::MAX).copied().max().unwrap_or(0));
    }
    best + 1 // depth counts switches, not hops
}

/// Algorithm 2 over pre-sliced parts: `slice_rules[c]` is the table-rule
/// count of part `c`. A depth-first search from each edge switch assigns
/// part `d` to every switch reachable at depth `d`.
pub fn place_parts(
    slice_rules: Vec<usize>,
    topo: &Topology,
    edge_switches: &[NodeId],
) -> Placement {
    let slice_count = slice_rules.len().max(1);
    let mut slices: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); topo.len()];
    let mut discovered = vec![false; topo.len()];
    for &edge in edge_switches {
        topo_dfs(topo, edge, 0, slice_count, &mut slices, &mut discovered);
    }
    Placement { slices, slice_count, slice_rules }
}

/// Algorithm 2: place a composed query (as its [`RuleSet`]) over `topo`,
/// starting the DFS from `edge_switches` (the monitored traffic's first
/// hops), with `stages_per_switch` module stages available per switch.
/// (Stage-range slicing variant used for accounting experiments — the
/// controller slices with the snapshot-aware `compile_sliced` instead.)
pub fn place_query(
    rules: &RuleSet,
    topo: &Topology,
    edge_switches: &[NodeId],
    stages_per_switch: usize,
) -> Placement {
    assert!(stages_per_switch >= 1, "switches need at least one stage");
    let total_stages = rules.max_stage().map_or(0, |s| s + 1);
    let slice_count = total_stages.div_ceil(stages_per_switch).max(1);
    let slice_rules: Vec<usize> = (0..slice_count)
        .map(|c| {
            let (lo, hi) = (c * stages_per_switch, ((c + 1) * stages_per_switch).min(total_stages));
            rules.slice_stages(lo, hi).total_rule_count()
        })
        .collect();
    place_parts(slice_rules, topo, edge_switches)
}

/// The recursive DFS of Algorithm 2: assign slice `d` to `s`, then explore
/// undiscovered neighbors at depth `d + 1` while slices remain.
fn topo_dfs(
    topo: &Topology,
    s: NodeId,
    d: usize,
    slice_count: usize,
    slices: &mut [BTreeSet<usize>],
    discovered: &mut [bool],
) {
    if d >= slice_count {
        return;
    }
    slices[s].insert(d);
    discovered[s] = true;
    let neighbors: Vec<NodeId> = topo.neighbors(s).collect();
    for n in neighbors {
        if !discovered[n] {
            topo_dfs(topo, n, d + 1, slice_count, slices, discovered);
        }
    }
    discovered[s] = false;
}

#[cfg(test)]
mod tests {
    use super::*;
    use newton_compiler::{compile, CompilerConfig};
    use newton_net::Router;
    use newton_packet::FlowKey;
    use newton_query::catalog;

    fn q4_rules() -> RuleSet {
        compile(&catalog::q4_port_scan(), 1, &CompilerConfig::default()).rules
    }

    #[test]
    fn whole_query_lands_on_every_edge_and_stays_single_slice() {
        let rules = q4_rules();
        let total = rules.max_stage().unwrap() + 1;
        let topo = Topology::fat_tree(4);
        let p = place_query(&rules, &topo, topo.edge_switches(), total);
        assert_eq!(p.slice_count, 1);
        for &e in topo.edge_switches() {
            assert!(p.slices[e].contains(&0), "edge {e} must hold the query");
        }
    }

    #[test]
    fn slicing_matches_paper_example() {
        // "a query with 10 stages needs 4 3-stage switches to complete".
        let rules = q4_rules();
        let total = rules.max_stage().unwrap() + 1;
        let topo = Topology::fat_tree(4);
        let p = place_query(&rules, &topo, topo.edge_switches(), 3);
        assert_eq!(p.slice_count, total.div_ceil(3));
        // Slice rule counts partition the whole rule set.
        let sum: usize = p.slice_rules.iter().sum();
        assert_eq!(sum, rules.total_rule_count());
    }

    #[test]
    fn placement_covers_every_live_path_prefix() {
        // Resilience: for ANY shortest path from an edge switch, the d-th
        // hop must hold slice d (until slices run out) — even after a
        // failure changes the path.
        let rules = q4_rules();
        let topo = Topology::fat_tree(4);
        let edges = topo.edge_switches().to_vec();
        let p = place_query(&rules, &topo, &edges, 5);
        let mut router = Router::new(topo.clone());
        // Break one core-agg link and reroute.
        router.fail_link(4, 0);
        for (i, &src) in edges.iter().enumerate() {
            for &dst in &edges[i + 1..] {
                for sport in [1u16, 7, 42] {
                    let flow = FlowKey {
                        src_ip: 9,
                        dst_ip: 5,
                        src_port: sport,
                        dst_port: 80,
                        protocol: 6,
                    };
                    let path = router.path(src, dst, &flow).expect("connected");
                    for (d, &hop) in path.iter().enumerate().take(p.slice_count) {
                        assert!(
                            p.slices[hop].contains(&d),
                            "hop {hop} at depth {d} missing slice (path {path:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rule_multiplexing_bounds_redundancy() {
        // A switch appearing at depth d on many flows' paths stores slice
        // d once, so average entries per switch is bounded by the whole
        // query's rule count.
        let rules = q4_rules();
        let topo = Topology::fat_tree(8);
        let p = place_query(&rules, &topo, topo.edge_switches(), 5);
        assert!(p.avg_entries_per_switch() <= rules.total_rule_count() as f64);
        assert!(p.total_entries() > 0);
    }

    #[test]
    fn larger_topologies_stabilize_average_entries() {
        // Fig. 17(b): total entries grow with scale, average per switch
        // approaches a constant.
        let rules = q4_rules();
        let mut prev_total = 0;
        let mut avgs = Vec::new();
        for k in [4usize, 8, 12] {
            let topo = Topology::fat_tree(k);
            let p = place_query(&rules, &topo, topo.edge_switches(), 5);
            assert!(p.total_entries() > prev_total, "total entries must grow with scale");
            prev_total = p.total_entries();
            avgs.push(p.avg_entries_per_switch());
        }
        let spread = (avgs[2] - avgs[1]).abs() / avgs[1];
        assert!(spread < 0.35, "average should stabilize, got {avgs:?}");
    }

    #[test]
    fn chain_placement_is_prefix_ordered() {
        let rules = q4_rules();
        let topo = Topology::chain(5);
        let p = place_query(&rules, &topo, &[0], 3);
        // On a chain from one edge, switch i holds exactly slice i.
        for (i, s) in p.slices.iter().enumerate().take(p.slice_count) {
            assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![i]);
        }
        for s in p.slices.iter().skip(p.slice_count) {
            assert!(s.is_empty());
        }
    }
}
