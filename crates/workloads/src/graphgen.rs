//! Graph generators for the traversal experiment (Figure 20).
//!
//! Power-law (Zipf-attachment) graphs resembling the social-network
//! data the paper's introduction motivates, capped-degree so adjacency
//! lists pack into flash pages.

use bluedbm_isp::graph::PackedGraph;
use bluedbm_sim::rng::{Rng, Zipf};

/// Uniform random digraph: every vertex gets `degree` neighbors chosen
/// uniformly (self-loops allowed — harmless to BFS).
#[cfg(test)]
fn uniform(vertices: u32, degree: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = Rng::new(seed);
    (0..vertices)
        .map(|_| {
            (0..degree)
                .map(|_| rng.below(u64::from(vertices)) as u32)
                .collect()
        })
        .collect()
}

/// Power-law digraph: targets drawn Zipf(s) so popular vertices dominate
/// in-degree.
pub fn power_law(vertices: u32, degree: usize, s: f64, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = Rng::new(seed);
    let zipf = Zipf::new(vertices as usize, s);
    (0..vertices)
        .map(|_| (0..degree).map(|_| zipf.sample(&mut rng) as u32).collect())
        .collect()
}

/// Pack an adjacency structure into flash pages.
pub fn pack(adj: &[Vec<u32>], page_bytes: usize) -> PackedGraph {
    PackedGraph::build(adj, page_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_concentrates_in_degree() {
        let adj = power_law(500, 4, 1.2, 2);
        let mut indeg = vec![0u32; 500];
        for l in &adj {
            for &v in l {
                indeg[v as usize] += 1;
            }
        }
        indeg.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = indeg[..10].iter().sum();
        let total: u32 = indeg.iter().sum();
        assert!(
            f64::from(top10) / f64::from(total) > 0.25,
            "top-10 vertices should attract a large share: {top10}/{total}"
        );
    }

    #[test]
    fn packed_bfs_reaches_most_of_a_uniform_graph() {
        let adj = uniform(400, 4, 3);
        let g = pack(&adj, 1024);
        let stats = g.bfs_with_fetch(0, |p| g.page(p).to_vec());
        assert!(
            stats.order.len() > 350,
            "degree-4 random graph is almost surely mostly reachable: {}",
            stats.order.len()
        );
        assert_eq!(stats.page_fetches as usize, stats.order.len());
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(power_law(50, 3, 1.0, 9), power_law(50, 3, 1.0, 9));
    }
}
