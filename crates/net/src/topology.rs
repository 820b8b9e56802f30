//! Physical cabling of the storage network.
//!
//! A topology is a set of nodes, each with up to
//! [`Topology::MAX_PORTS`] = 8 serial ports (the fan-out of the paper's
//! flash board), and full-duplex cables between (node, port) pairs. The
//! paper's Figure 5 shows a distributed star, a mesh and a fat tree; the
//! builders here cover those shapes plus arbitrary edge lists loaded from
//! a "network configuration file" equivalent.

use std::fmt;

/// A storage node in the network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(u16::try_from(v).expect("node index fits in u16"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A serial port on a node (0..8).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u8);

impl fmt::Debug for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The cabling graph.
///
/// # Examples
///
/// ```rust
/// use bluedbm_net::topology::Topology;
///
/// let ring = Topology::ring(20, 4); // the paper's 20-node, 4-lane ring
/// assert_eq!(ring.node_count(), 20);
/// ```
#[derive(Clone, Debug)]
pub struct Topology {
    /// `ports[n][p] = Some((m, q))` when port p of node n is cabled to
    /// port q of node m.
    ports: Vec<Vec<Option<(NodeId, PortId)>>>,
}

impl Topology {
    /// Physical port fan-out per node (paper Section 5.1: 8 SATA
    /// connectors pin out the serial ports).
    pub const MAX_PORTS: usize = 8;

    /// An edgeless topology over `nodes` nodes.
    pub(crate) fn empty(nodes: usize) -> Self {
        Topology {
            ports: vec![vec![None; Self::MAX_PORTS]; nodes],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.ports.len()
    }

    /// Add a full-duplex cable between the next free ports of `a` and `b`.
    /// Returns the (port on a, port on b) pair used.
    ///
    /// # Panics
    ///
    /// Panics if either node has no free port or `a == b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId) -> (PortId, PortId) {
        assert_ne!(a, b, "self-loops are not cables");
        let pa = self.free_port(a).expect("node a has a free port");
        let pb = self.free_port(b).expect("node b has a free port");
        self.ports[a.index()][pa.0 as usize] = Some((b, pb));
        self.ports[b.index()][pb.0 as usize] = Some((a, pa));
        (pa, pb)
    }

    fn free_port(&self, n: NodeId) -> Option<PortId> {
        self.ports[n.index()]
            .iter()
            .position(Option::is_none)
            .map(|p| PortId(p as u8))
    }

    /// Remaining free ports on `n`.
    pub fn free_ports(&self, n: NodeId) -> usize {
        self.ports[n.index()].iter().filter(|p| p.is_none()).count()
    }

    /// The remote end of (node, port), if cabled.
    pub(crate) fn peer(&self, n: NodeId, p: PortId) -> Option<(NodeId, PortId)> {
        self.ports[n.index()][p.0 as usize]
    }

    /// All cabled ports of `n` with their peers.
    pub(crate) fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (PortId, NodeId)> + '_ {
        self.ports[n.index()]
            .iter()
            .enumerate()
            .filter_map(|(p, link)| link.map(|(m, _)| (PortId(p as u8), m)))
    }

    /// A ring of `n` nodes with `lanes` parallel cables between adjacent
    /// nodes (the paper discusses a 20-node ring with 4 lanes each way).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `lanes == 0`, or the lane count exceeds the port
    /// budget (`2 * lanes > 8` for n > 2).
    pub fn ring(n: usize, lanes: usize) -> Self {
        assert!(n >= 2 && lanes > 0);
        let mut t = Self::empty(n);
        for i in 0..n {
            let j = (i + 1) % n;
            if n == 2 && i == 1 {
                break; // avoid doubling the single edge
            }
            for _ in 0..lanes {
                t.connect(NodeId::from(i), NodeId::from(j));
            }
        }
        t
    }

    /// A line (open chain) of `n` nodes with `lanes` parallel cables per
    /// hop — the shape of the Figure 11 hop-count experiment.
    pub fn line(n: usize, lanes: usize) -> Self {
        assert!(n >= 2 && lanes > 0);
        let mut t = Self::empty(n);
        for i in 0..n - 1 {
            for _ in 0..lanes {
                t.connect(NodeId::from(i), NodeId::from(i + 1));
            }
        }
        t
    }

    /// A `w x h` 2-D mesh (Figure 5b).
    pub fn mesh2d(w: usize, h: usize) -> Self {
        assert!(w >= 1 && h >= 1 && w * h >= 2);
        let mut t = Self::empty(w * h);
        let id = |x: usize, y: usize| NodeId::from(y * w + x);
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    t.connect(id(x, y), id(x + 1, y));
                }
                if y + 1 < h {
                    t.connect(id(x, y), id(x, y + 1));
                }
            }
        }
        t
    }

    /// A distributed star (Figure 5a): `hubs` fully-interconnected hub
    /// nodes, remaining nodes attached round-robin to hubs.
    ///
    /// # Panics
    ///
    /// Panics if `hubs == 0` or `hubs > n`.
    #[cfg(test)]
    pub(crate) fn star(n: usize, hubs: usize) -> Self {
        assert!(hubs > 0 && hubs <= n);
        let mut t = Self::empty(n);
        for a in 0..hubs {
            for b in a + 1..hubs {
                t.connect(NodeId::from(a), NodeId::from(b));
            }
        }
        for leaf in hubs..n {
            t.connect(NodeId::from(leaf), NodeId::from(leaf % hubs));
        }
        t
    }

    /// A complete tree of the given `fanout` and `levels` (levels >= 1;
    /// one level is a single node). Every node is a storage node; inner
    /// nodes route for their subtrees.
    ///
    /// # Panics
    ///
    /// Panics if the fanout would exceed the port budget (a non-root
    /// inner node needs `fanout + 1` ports) or `levels == 0`.
    #[cfg(test)]
    pub(crate) fn tree(fanout: usize, levels: usize) -> Self {
        assert!(levels >= 1 && fanout >= 1);
        assert!(
            fanout < Self::MAX_PORTS,
            "inner nodes need fanout+1 <= 8 ports"
        );
        let mut starts = Vec::with_capacity(levels);
        let mut at = 0;
        let mut w = 1;
        for _ in 0..levels {
            starts.push(at);
            at += w;
            w *= fanout;
        }
        let total = at;
        let mut t = Self::empty(total);
        for level in 1..levels {
            let parent_start = starts[level - 1];
            let start = starts[level];
            let width = fanout.pow(level as u32);
            for i in 0..width {
                let child = NodeId::from(start + i);
                let parent = NodeId::from(parent_start + i / fanout);
                t.connect(parent, child);
            }
        }
        t
    }

    /// A two-level fat tree (Figure 5c): every leaf cabled to every
    /// spine, giving `spines` disjoint shortest paths between any two
    /// leaves (deterministic routing spreads endpoints across them).
    ///
    /// Nodes `0..spines` are spines; `spines..spines+leaves` are leaves.
    ///
    /// # Panics
    ///
    /// Panics if the port budget is exceeded (`spines <= 8` and
    /// `leaves <= 8`).
    #[cfg(test)]
    pub(crate) fn fat_tree(leaves: usize, spines: usize) -> Self {
        assert!(leaves >= 2 && spines >= 1);
        assert!(
            spines <= Self::MAX_PORTS && leaves <= Self::MAX_PORTS,
            "full bipartite cabling is limited by the 8-port fan-out"
        );
        let mut t = Self::empty(spines + leaves);
        for leaf in 0..leaves {
            for spine in 0..spines {
                t.connect(NodeId::from(spines + leaf), NodeId::from(spine));
            }
        }
        t
    }

    /// Build from an explicit edge list (the paper's network configuration
    /// file). Each `(a, b, lanes)` adds `lanes` parallel cables.
    ///
    /// # Panics
    ///
    /// Panics if any edge references a node `>= n` or exhausts a port
    /// budget.
    pub fn from_edges(n: usize, edges: &[(usize, usize, usize)]) -> Self {
        let mut t = Self::empty(n);
        for &(a, b, lanes) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range");
            for _ in 0..lanes {
                t.connect(NodeId::from(a), NodeId::from(b));
            }
        }
        t
    }

    /// `true` if every node can reach every other node.
    #[cfg(test)]
    pub(crate) fn is_connected(&self) -> bool {
        self.node_count() == 0 || self.distances_from(NodeId(0)).iter().all(|&d| d != u32::MAX)
    }

    /// BFS hop distances from `src` to every node (`u32::MAX` if
    /// unreachable).
    pub fn distances_from(&self, src: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.node_count()];
        self.distances_into(src, &mut dist, &mut std::collections::VecDeque::new());
        dist
    }

    /// [`distances_from`](Self::distances_from) into a caller-owned row
    /// (one slot per node, overwritten) with a reusable BFS queue, so a
    /// BFS from every node costs no allocation per source.
    pub(crate) fn distances_into(
        &self,
        src: NodeId,
        dist: &mut [u32],
        queue: &mut std::collections::VecDeque<NodeId>,
    ) {
        debug_assert_eq!(dist.len(), self.node_count());
        dist.fill(u32::MAX);
        dist[src.index()] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for (_, v) in self.neighbors(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    queue.push_back(v);
                }
            }
        }
    }

    /// Number of cables whose endpoints land in different shards under
    /// `partition` (`partition[n]` = shard of node `n`). Parallel lanes
    /// count individually — each is a cable that crosses the cut.
    ///
    /// # Panics
    ///
    /// Panics if `partition` does not cover every node.
    pub fn cut_cables(&self, partition: &[u32]) -> usize {
        assert_eq!(partition.len(), self.node_count(), "one shard per node");
        let mut crossings = 0;
        for n in 0..self.node_count() {
            for (_, m) in self.neighbors(NodeId::from(n)) {
                if partition[n] != partition[m.index()] {
                    crossings += 1;
                }
            }
        }
        // Every cable was seen from both ends.
        crossings / 2
    }

    /// A node → shard partition with few cut cables. Of two
    /// deterministic candidates — the index-band split (optimal on
    /// lines, rings and row-major mesh strips) and a balanced region
    /// growth from k-center seeds (better on irregular graphs) — the one
    /// with fewer cut cables wins, then the better balanced. Fewer cut
    /// cables means less cross-shard mail.
    ///
    /// Fully deterministic (ties break on the lowest node index). Every
    /// shard in `0..shards` is inhabited. For `shards >= node count`,
    /// degenerates to one node per shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or the topology has no nodes.
    pub fn min_cut_partition(&self, shards: usize) -> Vec<u32> {
        assert!(shards > 0, "at least one shard");
        let n = self.node_count();
        assert!(n > 0, "partitioning an empty topology");
        if shards >= n {
            return (0..n).map(|i| i as u32).collect();
        }
        // Balanced index bands via the spread formula (every shard
        // inhabited even when `shards` does not divide `n`).
        let band: Vec<u32> = (0..n).map(|i| (i * shards / n) as u32).collect();
        // Balance breaks a tie: the sum of squared shard sizes.
        let imbalance = |assign: &[u32]| -> u64 {
            let mut sizes = vec![0u64; shards];
            for &s in assign {
                sizes[s as usize] += 1;
            }
            sizes.iter().map(|&s| s * s).sum()
        };
        [band, self.grown_partition(shards)]
            .into_iter()
            .min_by_key(|candidate| (self.cut_cables(candidate), imbalance(candidate)))
            .expect("two candidates")
    }

    /// Balanced region growth: k-center seeds (greedy farthest-first
    /// from node 0), then repeatedly give the smallest region the next
    /// adjacent unassigned node; stragglers disconnected from every
    /// seed land in the smallest shard.
    fn grown_partition(&self, shards: usize) -> Vec<u32> {
        let n = self.node_count();
        let mut seeds: Vec<NodeId> = vec![NodeId(0)];
        // Min and sum of distances to the chosen seeds, per node.
        let mut seed_dist = self.distances_from(NodeId(0));
        let mut seed_sum: Vec<u64> = seed_dist
            .iter()
            .map(|&d| if d == u32::MAX { u64::MAX } else { u64::from(d) })
            .collect();
        while seeds.len() < shards {
            let mut best: Option<usize> = None;
            let mut best_key = (0u64, 0u64);
            for i in 0..n {
                // Primary: farthest from the nearest seed (k-center).
                // Secondary: farthest in total — on ties this prefers a
                // fresh extreme (e.g. the remaining corner of a mesh)
                // over a central node. Unreachable nodes (disconnected
                // topologies) rank above any finite distance.
                let rank = if seed_dist[i] == u32::MAX {
                    u64::MAX
                } else {
                    u64::from(seed_dist[i])
                };
                let key = (rank, seed_sum[i]);
                if seeds.iter().all(|s| s.index() != i) && (best.is_none() || key > best_key) {
                    best = Some(i);
                    best_key = key;
                }
            }
            let next = NodeId::from(best.expect("shards < node count"));
            for (i, d) in self.distances_from(next).into_iter().enumerate() {
                seed_dist[i] = seed_dist[i].min(d);
                let d = if d == u32::MAX { u64::MAX } else { u64::from(d) };
                seed_sum[i] = seed_sum[i].saturating_add(d);
            }
            seeds.push(next);
        }
        const UNASSIGNED: u32 = u32::MAX;
        let mut assign = vec![UNASSIGNED; n];
        let mut sizes = vec![0usize; shards];
        let mut frontiers: Vec<std::collections::VecDeque<NodeId>> =
            (0..shards).map(|_| std::collections::VecDeque::new()).collect();
        for (s, &seed) in seeds.iter().enumerate() {
            assign[seed.index()] = s as u32;
            sizes[s] += 1;
            frontiers[s].push_back(seed);
        }
        let mut assigned = shards;
        while assigned < n {
            // The smallest region with any frontier left grows next.
            let Some(s) = (0..shards)
                .filter(|&s| !frontiers[s].is_empty())
                .min_by_key(|&s| (sizes[s], s))
            else {
                break; // disconnected remainder: handled below
            };
            let mut grew = false;
            while let Some(u) = frontiers[s].pop_front() {
                let next = self
                    .neighbors(u)
                    .map(|(_, v)| v)
                    .filter(|v| assign[v.index()] == UNASSIGNED)
                    .min();
                if let Some(v) = next {
                    assign[v.index()] = s as u32;
                    sizes[s] += 1;
                    assigned += 1;
                    // `u` may have more unassigned neighbors.
                    frontiers[s].push_front(u);
                    frontiers[s].push_back(v);
                    grew = true;
                    break;
                }
            }
            if !grew && frontiers.iter().all(std::collections::VecDeque::is_empty) {
                break;
            }
        }
        for a in assign.iter_mut() {
            if *a == UNASSIGNED {
                let s = (0..shards).min_by_key(|&s| (sizes[s], s)).expect("shards > 0");
                *a = s as u32;
                sizes[s] += 1;
            }
        }
        assign
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_shape() {
        let t = Topology::ring(20, 4);
        for n in 0..20 {
            let id = NodeId::from(n);
            assert_eq!(t.free_ports(id), 0, "4 lanes each way fill 8 ports");
            let neighbors: bluedbm_sim::fxhash::FxHashSet<NodeId> =
                t.neighbors(id).map(|(_, m)| m).collect();
            assert_eq!(neighbors.len(), 2);
        }
        assert!(t.is_connected());
    }

    #[test]
    fn two_node_ring_does_not_double_edges() {
        let t = Topology::ring(2, 2);
        assert_eq!(t.neighbors(NodeId(0)).count(), 2);
        assert!(t.is_connected());
    }

    #[test]
    fn line_distances() {
        let t = Topology::line(6, 1);
        let d = t.distances_from(NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn mesh_shape_and_distances() {
        let t = Topology::mesh2d(3, 3);
        assert!(t.is_connected());
        let d = t.distances_from(NodeId(0));
        // Manhattan distance on the grid.
        assert_eq!(d[8], 4); // (2,2)
        assert_eq!(d[4], 2); // (1,1)
    }

    #[test]
    fn star_connects_leaves_through_hubs() {
        let t = Topology::star(10, 2);
        assert!(t.is_connected());
        let d = t.distances_from(NodeId(2)); // a leaf on hub 0
        assert_eq!(d[0], 1);
        // leaf 3 hangs off hub 1: leaf2 -> hub0 -> hub1 -> leaf3.
        assert_eq!(d[3], 3);
    }

    #[test]
    fn from_edges_with_lanes() {
        let t = Topology::from_edges(3, &[(0, 1, 1), (0, 2, 2)]);
        assert_eq!(t.neighbors(NodeId(0)).count(), 3);
        assert_eq!(t.free_ports(NodeId(0)), 5);
        assert!(t.is_connected());
    }

    #[test]
    fn peer_is_symmetric() {
        let mut t = Topology::empty(2);
        let (pa, pb) = t.connect(NodeId(0), NodeId(1));
        assert_eq!(t.peer(NodeId(0), pa), Some((NodeId(1), pb)));
        assert_eq!(t.peer(NodeId(1), pb), Some((NodeId(0), pa)));
    }

    #[test]
    #[should_panic(expected = "free port")]
    fn port_budget_enforced() {
        let mut t = Topology::empty(2);
        for _ in 0..9 {
            t.connect(NodeId(0), NodeId(1));
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut t = Topology::empty(2);
        t.connect(NodeId(0), NodeId(0));
    }

    #[test]
    fn tree_shape_and_distances() {
        let t = Topology::tree(3, 3); // 1 + 3 + 9 nodes
        assert_eq!(t.node_count(), 13);
        assert!(t.is_connected());
        let d = t.distances_from(NodeId(0));
        // Children at 1..=3 (1 hop), grandchildren at 4..=12 (2 hops).
        assert!((1..=3).all(|i| d[i] == 1));
        assert!((4..=12).all(|i| d[i] == 2));
        // Leaf to a cousin leaf crosses the root: 4 hops.
        let dl = t.distances_from(NodeId(4));
        assert_eq!(dl[12], 4);
        // Single-level tree degenerates to one node.
        assert_eq!(Topology::tree(4, 1).node_count(), 1);
    }

    #[test]
    fn fat_tree_gives_spine_many_disjoint_paths() {
        use crate::routing::RoutingTable;
        let t = Topology::fat_tree(4, 3);
        assert_eq!(t.node_count(), 7);
        assert!(t.is_connected());
        // Any two leaves are 2 hops apart through a spine.
        let d = t.distances_from(NodeId(3));
        for leaf in &d[4..7] {
            assert_eq!(*leaf, 2);
        }
        // Deterministic routing spreads endpoints across all 3 spines.
        let table = RoutingTable::compute(&t);
        let spines_used: bluedbm_sim::fxhash::FxHashSet<NodeId> = (0..8u16)
            .map(|ep| {
                let port = table.next_port(NodeId(3), NodeId(6), ep).unwrap();
                t.peer(NodeId(3), port).unwrap().0
            })
            .collect();
        assert_eq!(spines_used.len(), 3, "all spines carry traffic");
    }

    #[test]
    #[should_panic(expected = "8-port fan-out")]
    fn fat_tree_respects_port_budget() {
        let _ = Topology::fat_tree(9, 3);
    }

    #[test]
    fn disconnected_detected() {
        let t = Topology::from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
        assert!(!t.is_connected());
        let d = t.distances_from(NodeId(0));
        assert_eq!(d[2], u32::MAX);
    }

    #[test]
    fn cut_cables_counts_lanes() {
        let t = Topology::ring(4, 2); // 2 lanes per hop
        // Contiguous halves cut exactly two hops = four cables.
        assert_eq!(t.cut_cables(&[0, 0, 1, 1]), 4);
        // Alternating shards cut every hop.
        assert_eq!(t.cut_cables(&[0, 1, 0, 1]), 8);
        assert_eq!(t.cut_cables(&[0, 0, 0, 0]), 0);
    }

    #[test]
    fn min_cut_partition_is_balanced_contiguous_and_cheap() {
        for (topo, shards) in [
            (Topology::ring(20, 4), 4),
            (Topology::mesh2d(8, 8), 4),
            (Topology::mesh2d(8, 8), 2),
            (Topology::line(9, 2), 3),
        ] {
            let n = topo.node_count();
            let partition = topo.min_cut_partition(shards);
            assert_eq!(partition.len(), n);
            // Every shard inhabited, sizes within 2x of perfect balance.
            let mut sizes = vec![0usize; shards];
            for &s in &partition {
                sizes[s as usize] += 1;
            }
            assert!(sizes.iter().all(|&sz| sz > 0), "empty shard in {sizes:?}");
            let ideal = n.div_ceil(shards);
            assert!(
                sizes.iter().all(|&sz| sz <= 2 * ideal),
                "lopsided partition {sizes:?}"
            );
            // No worse than the node-band split it replaces.
            let per = n.div_ceil(shards);
            let band: Vec<u32> = (0..n).map(|i| (i / per) as u32).collect();
            assert!(
                topo.cut_cables(&partition) <= topo.cut_cables(&band),
                "min-cut ({}) worse than band ({}) on {shards} shards",
                topo.cut_cables(&partition),
                topo.cut_cables(&band)
            );
        }
    }

    #[test]
    fn min_cut_partition_mesh_quarters() {
        // On an even mesh the ideal 4-way cut is the two center seams
        // (8 + 8 = 16 cables); band partitioning cuts 3 full rows of 8
        // twice... (3 seams x 8 = 24). The partitioner must find
        // something at least as good as the quadrant cut.
        let t = Topology::mesh2d(8, 8);
        let partition = t.min_cut_partition(4);
        assert!(
            t.cut_cables(&partition) <= 16,
            "mesh8x8 4-way cut = {}",
            t.cut_cables(&partition)
        );
    }

    #[test]
    fn min_cut_partition_is_deterministic() {
        let t = Topology::mesh2d(5, 7);
        assert_eq!(t.min_cut_partition(4), t.min_cut_partition(4));
    }

    #[test]
    fn min_cut_partition_degenerate_cases() {
        let t = Topology::ring(4, 1);
        assert_eq!(t.min_cut_partition(1), vec![0, 0, 0, 0]);
        // shards >= nodes: one node per shard.
        assert_eq!(t.min_cut_partition(4), vec![0, 1, 2, 3]);
        assert_eq!(t.min_cut_partition(9), vec![0, 1, 2, 3]);
        // Disconnected halves land in different shards.
        let split = Topology::from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
        let p = split.min_cut_partition(2);
        assert_eq!(p[0], p[1]);
        assert_eq!(p[2], p[3]);
        assert_ne!(p[0], p[2]);
    }
}
