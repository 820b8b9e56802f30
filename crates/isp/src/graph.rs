//! Page-level graph storage and traversal (paper Section 7.2).
//!
//! "Graph traversal algorithms often involve dependent lookups. That is,
//! the data from the first request determines the next request, like a
//! linked-list traversal at the page level." The graph is packed into
//! flash pages (adjacency lists serialized back to back); visiting a
//! vertex requires fetching its page, decoding its neighbor list, and
//! only then knowing which page to fetch next — so traversal throughput
//! is governed by per-fetch latency, which is exactly what Figure 20
//! measures across access paths.

use std::collections::VecDeque;

/// Result of one traversal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Vertices in visit (BFS) order.
    pub order: Vec<u32>,
    /// Dependent page fetches issued (one per vertex visit; no cache, as
    /// in the latency-bound experiment).
    pub page_fetches: u64,
}

/// A graph serialized into fixed-size pages.
///
/// Layout per vertex: `[degree: u32 LE][neighbor: u32 LE]*`, vertices
/// packed densely into pages; a vertex never straddles a page boundary.
///
/// # Examples
///
/// ```rust
/// use bluedbm_isp::graph::PackedGraph;
///
/// let adj = vec![vec![1, 2], vec![2], vec![0]];
/// let g = PackedGraph::build(&adj, 64);
/// assert_eq!(g.vertex_count(), 3);
/// let stats = g.bfs_with_fetch(0, |page| g.page(page).to_vec());
/// assert_eq!(stats.order, vec![0, 1, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct PackedGraph {
    /// Per vertex: (page index, byte offset within page).
    loc: Vec<(u64, u32)>,
    pages: Vec<Vec<u8>>,
}

impl PackedGraph {
    /// Pack adjacency lists into `page_bytes`-sized pages.
    ///
    /// # Panics
    ///
    /// Panics if any vertex's serialized list exceeds one page, or if a
    /// neighbor index is out of range.
    pub fn build(adj: &[Vec<u32>], page_bytes: usize) -> Self {
        assert!(page_bytes >= 8, "pages must hold at least one tiny vertex");
        let n = adj.len() as u32;
        let mut pages: Vec<Vec<u8>> = vec![Vec::with_capacity(page_bytes)];
        let mut loc = Vec::with_capacity(adj.len());
        for list in adj {
            for &nb in list {
                assert!(nb < n, "neighbor {nb} out of range");
            }
            let need = 4 + 4 * list.len();
            assert!(
                need <= page_bytes,
                "vertex with degree {} does not fit one {page_bytes}-byte page",
                list.len()
            );
            if pages.last().expect("non-empty").len() + need > page_bytes {
                pages.push(Vec::with_capacity(page_bytes));
            }
            let page_idx = pages.len() as u64 - 1;
            let page = pages.last_mut().expect("non-empty");
            loc.push((page_idx, page.len() as u32));
            page.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for &nb in list {
                page.extend_from_slice(&nb.to_le_bytes());
            }
        }
        for page in &mut pages {
            page.resize(page_bytes, 0);
        }
        PackedGraph { loc, pages }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.loc.len()
    }

    /// Number of pages the graph occupies.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Raw page contents (what gets written to flash).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn page(&self, idx: u64) -> &[u8] {
        &self.pages[idx as usize]
    }

    /// The page holding vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub(crate) fn page_of(&self, v: u32) -> u64 {
        self.loc[v as usize].0
    }

    /// Decode `v`'s neighbors from a fetched copy of its page — the
    /// operation an in-store processor performs after each dependent
    /// fetch.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `page` is not `v`'s page image.
    pub(crate) fn neighbors_in(&self, v: u32, page: &[u8]) -> Vec<u32> {
        let (_, off) = self.loc[v as usize];
        let off = off as usize;
        let degree = u32::from_le_bytes(page[off..off + 4].try_into().expect("degree")) as usize;
        (0..degree)
            .map(|i| {
                let at = off + 4 + 4 * i;
                u32::from_le_bytes(page[at..at + 4].try_into().expect("neighbor"))
            })
            .collect()
    }

    /// Breadth-first traversal from `start`, fetching each visited
    /// vertex's page through `fetch` (one dependent lookup per visit).
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range.
    pub fn bfs_with_fetch<F: FnMut(u64) -> Vec<u8>>(
        &self,
        start: u32,
        mut fetch: F,
    ) -> TraversalStats {
        let mut stats = TraversalStats::default();
        let mut seen = vec![false; self.vertex_count()];
        let mut queue = VecDeque::from([start]);
        seen[start as usize] = true;
        while let Some(v) = queue.pop_front() {
            let page = fetch(self.page_of(v));
            stats.page_fetches += 1;
            stats.order.push(v);
            for nb in self.neighbors_in(v, &page) {
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    queue.push_back(nb);
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedbm_sim::rng::Rng;

    fn chain(n: u32) -> Vec<Vec<u32>> {
        (0..n).map(|v| if v + 1 < n { vec![v + 1] } else { vec![] }).collect()
    }

    #[test]
    fn round_trip_adjacency() {
        let adj = vec![vec![1, 2, 3], vec![0], vec![], vec![2, 1]];
        let g = PackedGraph::build(&adj, 64);
        for (v, want) in adj.iter().enumerate() {
            let page = g.page(g.page_of(v as u32));
            assert_eq!(&g.neighbors_in(v as u32, page), want, "vertex {v}");
        }
    }

    #[test]
    fn vertices_pack_multiple_per_page() {
        let adj = chain(100);
        let g = PackedGraph::build(&adj, 64);
        // Each chain vertex needs 8 bytes; 8 per 64-byte page.
        assert_eq!(g.page_count(), 100_usize.div_ceil(8));
        assert!(g.page(0).len() == 64);
    }

    #[test]
    fn bfs_order_and_fetch_count() {
        //    0 -> 1 -> 3
        //     \-> 2 -> 3
        let adj = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let g = PackedGraph::build(&adj, 128);
        let stats = g.bfs_with_fetch(0, |p| g.page(p).to_vec());
        assert_eq!(stats.order, vec![0, 1, 2, 3]);
        assert_eq!(stats.page_fetches, 4, "one dependent fetch per visit");
    }

    #[test]
    fn bfs_visits_only_reachable() {
        let adj = vec![vec![1], vec![], vec![1]]; // 2 unreachable from 0
        let g = PackedGraph::build(&adj, 64);
        let stats = g.bfs_with_fetch(0, |p| g.page(p).to_vec());
        assert_eq!(stats.order, vec![0, 1]);
    }

    #[test]
    fn fetches_are_dependent_not_batchable() {
        // The fetch order must interleave with decoding: record the
        // sequence of requested pages and check each request was only
        // knowable after the previous decode.
        let adj = chain(20);
        let g = PackedGraph::build(&adj, 16); // 1 vertex per 16-byte page... 8 bytes each -> 2
        let mut fetched = Vec::new();
        let stats = g.bfs_with_fetch(0, |p| {
            fetched.push(p);
            g.page(p).to_vec()
        });
        assert_eq!(stats.page_fetches as usize, fetched.len());
        assert_eq!(stats.order.len(), 20);
        // Chain graph: page requests are non-decreasing (vertices in
        // order), and every vertex triggered a fetch even when the page
        // repeats (no caching).
        assert_eq!(fetched.len(), 20);
    }

    #[test]
    fn random_graph_bfs_matches_reference() {
        let mut rng = Rng::new(21);
        const N: u32 = 300;
        let adj: Vec<Vec<u32>> = (0..N)
            .map(|_| {
                let d = rng.below(6);
                (0..d).map(|_| rng.below(N as u64) as u32).collect()
            })
            .collect();
        let g = PackedGraph::build(&adj, 256);
        let got = g.bfs_with_fetch(0, |p| g.page(p).to_vec());

        // Reference BFS straight over the adjacency lists.
        let mut seen = vec![false; N as usize];
        let mut order = Vec::new();
        let mut q = VecDeque::from([0u32]);
        seen[0] = true;
        while let Some(v) = q.pop_front() {
            order.push(v);
            for &nb in &adj[v as usize] {
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    q.push_back(nb);
                }
            }
        }
        assert_eq!(got.order, order);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_vertex_rejected() {
        // 101 vertices; vertex 0 points at all of 1..=100 — a 404-byte
        // list that cannot fit a 64-byte page.
        let mut adj = vec![(1..=100).collect::<Vec<u32>>()];
        adj.extend((0..100).map(|_| Vec::new()));
        let _ = PackedGraph::build(&adj, 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_neighbor_rejected() {
        let _ = PackedGraph::build(&[vec![5]], 64);
    }
}
