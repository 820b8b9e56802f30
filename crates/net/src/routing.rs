//! Deterministic per-endpoint routing (paper Section 3.2.3).
//!
//! For every (source node, destination node, endpoint) the network uses
//! one fixed path. Different endpoints to the same destination may use
//! different — equally short — paths, which spreads traffic over parallel
//! links while preserving per-endpoint FIFO order (the paper's Figure 6
//! invariant; taking it further would require expensive completion
//! buffers in the storage device).
//!
//! There is no discovery protocol (the paper relies on a network
//! configuration file); tables are computed offline from the
//! [`Topology`] by BFS and endpoint-indexed selection among equal-cost
//! next hops.
//!
//! The table is one flat `n × n` array of port masks — one byte per
//! (source, destination) pair — so a router's per-hop lookup is a single
//! indexed load and a 1024-node cluster's table is one 1 MB allocation,
//! not a million small ones. Hop counts are not stored: [`RoutingTable::hops`]
//! walks the masks along the path.

use std::collections::VecDeque;

use crate::topology::{NodeId, PortId, Topology};

// One bit per port: a node's candidate set must fit the `u8` mask.
const _: () = assert!(Topology::MAX_PORTS <= 8);

/// Precomputed next-hop table for every node.
///
/// # Examples
///
/// ```rust
/// use bluedbm_net::routing::RoutingTable;
/// use bluedbm_net::topology::{NodeId, Topology};
///
/// let topo = Topology::ring(4, 2);
/// let table = RoutingTable::compute(&topo);
/// assert_eq!(table.hops(&topo, NodeId(0), NodeId(2)), Some(2)); // either way around
/// let path = table.path(&topo, NodeId(0), NodeId(2), 0);
/// assert!(path[1] == NodeId(1) || path[1] == NodeId(3));
/// ```
#[derive(Clone, Debug)]
pub struct RoutingTable {
    nodes: usize,
    /// `candidates[src * nodes + dst]`: bit `p` is set when port `p` of
    /// `src` begins a shortest path to `dst` (zero when unreachable or
    /// `src == dst`).
    candidates: Vec<u8>,
}

impl RoutingTable {
    /// Compute the table for `topo`.
    pub fn compute(topo: &Topology) -> Self {
        let n = topo.node_count();
        let mut candidates = vec![0u8; n * n];
        // Cables are full duplex (`Topology::connect` sets both ends), so
        // one BFS from `dst` gives every node's distance *to* it.
        let mut to_dst = vec![0; n];
        let mut queue = VecDeque::new();
        for dst in 0..n {
            topo.distances_into(NodeId::from(dst), &mut to_dst, &mut queue);
            for (src, &d_src) in to_dst.iter().enumerate() {
                let mask = &mut candidates[src * n + dst];
                for (port, via) in topo.neighbors(NodeId::from(src)) {
                    // `via` is one hop closer than `src`. Never true for
                    // `dst == src` (distance 0) nor for an unreachable
                    // `dst` (then `via` cannot reach it either).
                    let d_via = to_dst[via.index()];
                    if d_via != u32::MAX && d_via + 1 == d_src {
                        *mask |= 1u8 << port.0;
                    }
                }
            }
        }
        RoutingTable {
            nodes: n,
            candidates,
        }
    }

    /// The flat index of `(src, dst)`.
    ///
    /// # Panics
    ///
    /// Panics, naming the node, if `src` or `dst` is not in the network.
    #[inline]
    fn at(&self, src: NodeId, dst: NodeId) -> usize {
        assert!(src.index() < self.nodes, "{src} is not in this network");
        assert!(dst.index() < self.nodes, "{dst} is not in this network");
        src.index() * self.nodes + dst.index()
    }

    /// The egress port node `src` uses toward `dst` for `endpoint`: the
    /// `endpoint % k`-th lowest of the `k` ports that begin a shortest
    /// path.
    ///
    /// Returns `None` when `src == dst` or `dst` is unreachable.
    #[inline]
    pub(crate) fn next_port(&self, src: NodeId, dst: NodeId, endpoint: u16) -> Option<PortId> {
        let mut mask = self.candidates[self.at(src, dst)];
        if mask == 0 {
            return None;
        }
        // A single candidate (most hops of a mesh's edge rows, every hop
        // of a line) needs no division.
        if mask & (mask - 1) != 0 {
            for _ in 0..u32::from(endpoint) % mask.count_ones() {
                mask &= mask - 1;
            }
        }
        Some(PortId(mask.trailing_zeros() as u8))
    }

    /// `true` if `dst` can be reached from `src` (always for `src == dst`).
    fn reaches(&self, src: NodeId, dst: NodeId) -> bool {
        self.candidates[self.at(src, dst)] != 0 || src == dst
    }

    /// Shortest-path hop count (`None` if unreachable), counted by
    /// walking one path: O(path length).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not in `topo`, the network this table
    /// was computed for.
    pub fn hops(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<u32> {
        self.reaches(src, dst).then(|| self.walk(topo, src, dst, 0).count() as u32 - 1)
    }

    /// The full path an (endpoint, src, dst) flow takes, as a node list
    /// including both ends. Useful for tests and the EXPERIMENTS harness.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not in the network, or if `dst` is
    /// unreachable from `src`.
    pub fn path(&self, topo: &Topology, src: NodeId, dst: NodeId, endpoint: u16) -> Vec<NodeId> {
        self.walk(topo, src, dst, endpoint).collect()
    }

    /// The nodes `endpoint`'s flow from `src` visits on its way to `dst`,
    /// both ends included.
    fn walk<'a>(
        &'a self,
        topo: &'a Topology,
        src: NodeId,
        dst: NodeId,
        endpoint: u16,
    ) -> impl Iterator<Item = NodeId> + 'a {
        std::iter::successors(Some(src), move |&here| {
            (here != dst).then(|| {
                let port = self
                    .next_port(here, dst, endpoint)
                    .expect("destination must be reachable");
                topo.peer(here, port).expect("routed port is cabled").0
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_follow_shortest_paths() {
        let topo = Topology::ring(8, 1);
        let table = RoutingTable::compute(&topo);
        for src in 0..8 {
            for dst in 0..8 {
                if src == dst {
                    assert!(table.next_port(NodeId(src), NodeId(dst), 0).is_none());
                    continue;
                }
                let path = table.path(&topo, NodeId(src), NodeId(dst), 0);
                assert_eq!(
                    path.len() as u32 - 1,
                    table.hops(&topo, NodeId(src), NodeId(dst)).unwrap()
                );
                assert_eq!(*path.last().unwrap(), NodeId(dst));
            }
        }
    }

    #[test]
    fn endpoints_spread_across_parallel_lanes() {
        let topo = Topology::line(2, 4);
        let table = RoutingTable::compute(&topo);
        let ports: bluedbm_sim::fxhash::FxHashSet<PortId> = (0..8u16)
            .map(|e| table.next_port(NodeId(0), NodeId(1), e).unwrap())
            .collect();
        assert_eq!(ports.len(), 4, "4 lanes should all be used");
    }

    #[test]
    fn same_endpoint_same_path_always() {
        let topo = Topology::mesh2d(4, 4);
        let table = RoutingTable::compute(&topo);
        let p1 = table.path(&topo, NodeId(0), NodeId(15), 3);
        let p2 = table.path(&topo, NodeId(0), NodeId(15), 3);
        assert_eq!(p1, p2, "deterministic routing");
        // Mesh corner-to-corner is 6 hops.
        assert_eq!(p1.len(), 7);
    }

    #[test]
    fn different_endpoints_may_take_different_paths() {
        let topo = Topology::mesh2d(3, 3);
        let table = RoutingTable::compute(&topo);
        let paths: std::collections::BTreeSet<Vec<NodeId>> = (0..8u16)
            .map(|e| table.path(&topo, NodeId(0), NodeId(8), e))
            .collect();
        assert!(paths.len() > 1, "equal-cost diversity should be exploited");
        for p in &paths {
            assert_eq!(p.len(), 5, "all chosen paths are still shortest");
        }
    }

    #[test]
    #[should_panic(expected = "node9 is not in this network")]
    fn a_source_outside_the_network_is_named() {
        let topo = Topology::ring(4, 1);
        let _ = RoutingTable::compute(&topo).hops(&topo, NodeId(9), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "node9 is not in this network")]
    fn a_destination_outside_the_network_is_named() {
        let topo = Topology::ring(4, 1);
        let _ = RoutingTable::compute(&topo).hops(&topo, NodeId(0), NodeId(9));
    }

    #[test]
    #[should_panic(expected = "node7 is not in this network")]
    fn a_path_from_outside_the_network_is_named() {
        let topo = Topology::ring(4, 1);
        let _ = RoutingTable::compute(&topo).path(&topo, NodeId(7), NodeId(0), 0);
    }

    #[test]
    fn unreachable_is_none() {
        let topo = Topology::from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
        let table = RoutingTable::compute(&topo);
        assert!(table.next_port(NodeId(0), NodeId(2), 0).is_none());
        assert!(table.hops(&topo, NodeId(0), NodeId(2)).is_none());
        assert!(!table.reaches(NodeId(0), NodeId(2)) && table.reaches(NodeId(2), NodeId(2)));
        assert_eq!(table.hops(&topo, NodeId(0), NodeId(1)), Some(1));
    }

    /// The table before it was dense, rebuilt from first principles: the
    /// sorted list of `src`'s ports whose peer is one hop closer to `dst`
    /// (which `next_port` indexes by `endpoint % len`).
    fn reference_candidates(topo: &Topology, dist: &[Vec<u32>], src: usize, dst: usize) -> Vec<PortId> {
        let d = dist[src][dst];
        if src == dst || d == u32::MAX {
            return Vec::new();
        }
        let mut ports: Vec<PortId> = topo
            .neighbors(NodeId::from(src))
            .filter(|(_, via)| dist[via.index()][dst] == d - 1)
            .map(|(port, _)| port)
            .collect();
        ports.sort();
        ports
    }

    #[test]
    fn dense_table_equals_the_sorted_candidate_list_reference() {
        let shapes = [
            ("line", Topology::line(6, 1)),
            ("line x3", Topology::line(3, 3)),
            ("ring x1", Topology::ring(8, 1)),
            ("ring x2", Topology::ring(5, 2)),
            ("ring x4", Topology::ring(20, 4)),
            ("mesh 3x3", Topology::mesh2d(3, 3)),
            ("mesh 8x8", Topology::mesh2d(8, 8)),
            ("mesh 32x32", Topology::mesh2d(32, 32)),
            ("star", Topology::star(12, 3)),
            ("tree", Topology::tree(3, 3)),
            ("fat tree", Topology::fat_tree(6, 4)),
            (
                "two islands",
                Topology::from_edges(7, &[(0, 1, 2), (1, 2, 1), (3, 4, 1), (4, 5, 3), (5, 3, 1)]),
            ),
        ];
        for (name, topo) in &shapes {
            let n = topo.node_count();
            let table = RoutingTable::compute(topo);
            let dist: Vec<Vec<u32>> = (0..n).map(|s| topo.distances_from(NodeId::from(s))).collect();
            for src in 0..n {
                for dst in 0..n {
                    let (s, d) = (NodeId::from(src), NodeId::from(dst));
                    let hops = table.hops(topo, s, d);
                    assert_eq!(
                        hops,
                        (dist[src][dst] != u32::MAX).then_some(dist[src][dst]),
                        "{name}: hops {s} -> {d}"
                    );
                    let candidates = reference_candidates(topo, &dist, src, dst);
                    for endpoint in 0..16u16 {
                        let port = table.next_port(s, d, endpoint);
                        assert_eq!(
                            port,
                            candidates.get(endpoint as usize % candidates.len().max(1)).copied(),
                            "{name}: {s} -> {d} endpoint {endpoint}"
                        );
                        if src == dst || hops.is_none() {
                            assert_eq!(port, None, "{name}: {s} -> {d} has no next hop");
                            continue;
                        }
                        // Walking every path of the 32x32 mesh is 16 M
                        // walks of ~21 hops; there each pair walks one
                        // endpoint's path, and the reference above has
                        // already pinned every single step of the others.
                        if n <= 64 || endpoint == (src + dst) as u16 % 16 {
                            let path = table.path(topo, s, d, endpoint);
                            let walked = (path.len() as u32 - 1, path.last());
                            assert_eq!(walked, (hops.unwrap(), Some(&d)), "{name}: {path:?}");
                        }
                    }
                }
            }
        }
    }
}
