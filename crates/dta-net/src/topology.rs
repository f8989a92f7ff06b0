//! Topologies and routing.
//!
//! The paper's scale arguments (Figure 3, §2) are phrased in terms of
//! data-center fabrics — "for example, in a K = 28 fat tree ...". We provide
//! a generic adjacency-based [`Topology`] with all-pairs shortest-path
//! routing, plus a [`FatTree`] builder with the standard 3-tier k-ary
//! structure (cores, aggregation, edge/ToR, hosts).

use std::collections::VecDeque;

use crate::node::NodeId;

/// An undirected multigraph of simulated nodes.
#[derive(Debug, Clone)]
pub struct Topology {
    n: u32,
    adj: Vec<Vec<u32>>,
}

impl Topology {
    /// `n` isolated nodes.
    pub fn new(n: u32) -> Self {
        Topology { n, adj: vec![Vec::new(); n as usize] }
    }

    /// Number of nodes.
    pub fn len(&self) -> u32 {
        self.n
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Add an undirected edge.
    pub fn connect(&mut self, a: NodeId, b: NodeId) {
        assert!(a.0 < self.n && b.0 < self.n, "node out of range");
        assert_ne!(a, b, "self-loops not allowed");
        self.adj[a.0 as usize].push(b.0);
        self.adj[b.0 as usize].push(a.0);
    }

    /// All undirected edges (each reported once, `a < b`).
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for (a, nbrs) in self.adj.iter().enumerate() {
            for &b in nbrs {
                if (a as u32) < b {
                    out.push((NodeId(a as u32), NodeId(b)));
                }
            }
        }
        out
    }

    /// Compute deterministic shortest-path next-hop routing via BFS from
    /// every destination. Ties break toward the lowest neighbor id, so routes
    /// are stable across runs.
    pub fn shortest_path_routing(&self) -> Routing {
        let n = self.n as usize;
        let mut next_hop = vec![u32::MAX; n * n];
        // Sort each adjacency list once up front (the tie-break order) —
        // cloning and sorting per BFS visit made a K=8 build cost ~1ms.
        let sorted_adj: Vec<Vec<u32>> = self
            .adj
            .iter()
            .map(|nbrs| {
                let mut nbrs = nbrs.clone();
                nbrs.sort_unstable();
                nbrs
            })
            .collect();
        let mut dist = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        for dst in 0..n {
            // BFS from dst; next_hop[at][dst] = parent of `at` on the path
            // toward dst (i.e. the neighbor that BFS discovered `at` from).
            dist.fill(u32::MAX);
            queue.clear();
            dist[dst] = 0;
            queue.push_back(dst);
            while let Some(u) = queue.pop_front() {
                for &v in &sorted_adj[u] {
                    let v = v as usize;
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        next_hop[v * n + dst] = u as u32;
                        queue.push_back(v);
                    }
                }
            }
        }
        Routing { n: self.n, next_hop }
    }
}

/// Dense next-hop routing table.
#[derive(Debug, Clone)]
pub struct Routing {
    n: u32,
    /// `next_hop[at * n + dst]`, `u32::MAX` when unreachable.
    next_hop: Vec<u32>,
}

impl Routing {
    /// Number of nodes the table covers.
    pub fn len(&self) -> u32 {
        self.n
    }

    /// Whether the table covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Routing over `n` nodes where every node is directly linked to every
    /// other (useful for small harness setups).
    pub fn full_mesh(n: u32) -> Self {
        let mut next_hop = vec![u32::MAX; (n as usize) * (n as usize)];
        for at in 0..n {
            for dst in 0..n {
                if at != dst {
                    next_hop[(at as usize) * (n as usize) + dst as usize] = dst;
                }
            }
        }
        Routing { n, next_hop }
    }

    /// The next hop from `at` toward `dst`, or `None` if unreachable.
    pub fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<NodeId> {
        if at.0 >= self.n || dst.0 >= self.n || at == dst {
            return None;
        }
        let v = self.next_hop[(at.0 as usize) * (self.n as usize) + dst.0 as usize];
        (v != u32::MAX).then_some(NodeId(v))
    }

    /// Full path from `src` to `dst` (inclusive of both), or `None`.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![src];
        let mut at = src;
        while at != dst {
            at = self.next_hop(at, dst)?;
            path.push(at);
            if path.len() > self.n as usize {
                return None; // routing loop — must not happen
            }
        }
        Some(path)
    }

    /// Hop count between two nodes, or `None`.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        self.path(src, dst).map(|p| p.len() - 1)
    }
}

/// A k-ary fat-tree (k even): `(k/2)^2` cores, `k` pods of `k/2` aggregation
/// and `k/2` edge switches, `k/2` hosts per edge switch.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// Port count per switch.
    pub k: u32,
    /// The underlying topology.
    pub topology: Topology,
}

impl FatTree {
    /// Build a k-ary fat-tree. `k` must be even and ≥ 2.
    pub fn new(k: u32) -> Self {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree k must be even, got {k}");
        let half = k / 2;
        let n_core = half * half;
        let n_agg = k * half;
        let n_edge = k * half;
        let n_host = k * half * half;
        let n = n_core + n_agg + n_edge + n_host;
        let mut topo = Topology::new(n);

        // Core <-> aggregation: core (i, j) in an (half x half) grid connects
        // to aggregation switch j of every pod.
        for pod in 0..k {
            for a in 0..half {
                let agg = Self::agg_id_static(k, pod, a);
                for c in 0..half {
                    let core = a * half + c;
                    topo.connect(NodeId(core), NodeId(agg));
                }
            }
        }
        // Aggregation <-> edge within each pod (complete bipartite).
        for pod in 0..k {
            for a in 0..half {
                for e in 0..half {
                    topo.connect(
                        NodeId(Self::agg_id_static(k, pod, a)),
                        NodeId(Self::edge_id_static(k, pod, e)),
                    );
                }
            }
        }
        // Edge <-> hosts.
        for pod in 0..k {
            for e in 0..half {
                for h in 0..half {
                    topo.connect(
                        NodeId(Self::edge_id_static(k, pod, e)),
                        NodeId(Self::host_id_static(k, pod, e, h)),
                    );
                }
            }
        }
        FatTree { k, topology: topo }
    }

    fn agg_id_static(k: u32, pod: u32, i: u32) -> u32 {
        let half = k / 2;
        half * half + pod * half + i
    }

    fn edge_id_static(k: u32, pod: u32, i: u32) -> u32 {
        let half = k / 2;
        half * half + k * half + pod * half + i
    }

    fn host_id_static(k: u32, pod: u32, edge: u32, i: u32) -> u32 {
        let half = k / 2;
        half * half + 2 * k * half + (pod * half + edge) * half + i
    }

    /// Node id of core switch `i` (`0 <= i < (k/2)^2`).
    pub fn core(&self, i: u32) -> NodeId {
        NodeId(i)
    }

    /// Node id of aggregation switch `i` in `pod`.
    pub fn agg(&self, pod: u32, i: u32) -> NodeId {
        NodeId(Self::agg_id_static(self.k, pod, i))
    }

    /// Node id of edge (ToR) switch `i` in `pod`.
    pub fn edge(&self, pod: u32, i: u32) -> NodeId {
        NodeId(Self::edge_id_static(self.k, pod, i))
    }

    /// Node id of host `i` under edge switch `edge` in `pod`.
    pub fn host(&self, pod: u32, edge: u32, i: u32) -> NodeId {
        NodeId(Self::host_id_static(self.k, pod, edge, i))
    }

    /// Total switch count (`5k^2/4` — the quantity on Figure 3's x-axis).
    pub fn num_switches(&self) -> u32 {
        let half = self.k / 2;
        half * half + 2 * self.k * half
    }

    /// Total host count (`k^3/4`).
    pub fn num_hosts(&self) -> u32 {
        self.k * (self.k / 2) * (self.k / 2)
    }

    /// All switch node ids (cores, then aggs, then edges).
    pub fn switches(&self) -> Vec<NodeId> {
        (0..self.num_switches()).map(NodeId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_counts() {
        let ft = FatTree::new(4);
        assert_eq!(ft.num_switches(), 20); // 4 core + 8 agg + 8 edge
        assert_eq!(ft.num_hosts(), 16);
        assert_eq!(ft.topology.len(), 36);
    }

    #[test]
    fn k28_fat_tree_matches_paper_scale() {
        // §2: "in a K = 28 fat tree" with ~1000 switches.
        let ft = FatTree::new(28);
        assert_eq!(ft.num_switches(), 980);
        assert_eq!(ft.num_hosts(), 5488);
    }

    #[test]
    fn host_to_host_same_edge_is_two_hops() {
        let ft = FatTree::new(4);
        let routing = ft.topology.shortest_path_routing();
        let a = ft.host(0, 0, 0);
        let b = ft.host(0, 0, 1);
        assert_eq!(routing.hops(a, b), Some(2)); // host-edge-host
    }

    #[test]
    fn host_to_host_cross_pod_is_six_hops() {
        let ft = FatTree::new(4);
        let routing = ft.topology.shortest_path_routing();
        let a = ft.host(0, 0, 0);
        let b = ft.host(3, 1, 1);
        // host-edge-agg-core-agg-edge-host.
        assert_eq!(routing.hops(a, b), Some(6));
    }

    #[test]
    fn all_pairs_reachable_in_fat_tree() {
        let ft = FatTree::new(4);
        let routing = ft.topology.shortest_path_routing();
        let n = ft.topology.len();
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    assert!(
                        routing.path(NodeId(a), NodeId(b)).is_some(),
                        "no path {a}->{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_mesh_routes_directly() {
        let r = Routing::full_mesh(5);
        assert_eq!(r.next_hop(NodeId(0), NodeId(4)), Some(NodeId(4)));
        assert_eq!(r.hops(NodeId(1), NodeId(2)), Some(1));
    }

    #[test]
    fn routing_to_self_is_none() {
        let r = Routing::full_mesh(3);
        assert_eq!(r.next_hop(NodeId(1), NodeId(1)), None);
    }

    #[test]
    fn disconnected_nodes_unreachable() {
        let topo = Topology::new(2);
        let r = topo.shortest_path_routing();
        assert_eq!(r.next_hop(NodeId(0), NodeId(1)), None);
        assert_eq!(r.path(NodeId(0), NodeId(1)), None);
    }

    #[test]
    #[should_panic]
    fn odd_k_rejected() {
        let _ = FatTree::new(3);
    }
}
