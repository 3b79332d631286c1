//! BLAST-style meta-blocking: χ² weighting with loose per-node pruning.
//!
//! BLAST (Simonini, Bergamaschi & Jagadish, PVLDB 2016) replaces the
//! co-occurrence-count weights with the **Pearson χ² test statistic** of
//! the independence hypothesis "entity `i` appearing in a block is
//! independent of entity `j` appearing in it": high χ² means the two
//! entities co-occur far more often than chance, i.e. strong match
//! evidence. Pruning is *loose* node-centric: each node keeps edges whose
//! weight is at least a `ratio` of its local **maximum** (not mean), and an
//! edge survives if **either** endpoint keeps it.
//!
//! With the 2×2 contingency table over the `|B|` blocks
//!
//! ```text
//!            j ∈ b     j ∉ b
//! i ∈ b      n11=CBS   n12=|B_i|−CBS
//! i ∉ b      n21=|B_j|−CBS   n22=|B|−|B_i|−|B_j|+CBS
//! ```
//!
//! χ² = |B| · (n11·n22 − n12·n21)² / (r1·r2·c1·c2), zero when any marginal
//! is empty.
//!
//! The pruning itself is [`Pruning::Blast`](crate::Pruning::Blast): a
//! union-vote node-centric family of the pruning core whose rows carry χ²
//! weights and whose per-row bar is `ratio ·` the row maximum.

use crate::graph::{BlockingGraph, Edge};

/// Default keep ratio of the loose pruning (BLAST's recommended 0.35…0.5
/// range; JedAI defaults to 0.5 of the *sum of the two node maxima* — here
/// we keep the simpler per-node-max formulation and default to 0.35).
pub const DEFAULT_RATIO: f64 = 0.35;

/// Pearson χ² weight of `edge` in `graph`.
pub fn chi_square_weight(graph: &BlockingGraph, edge: &Edge) -> f64 {
    chi_square_from_stats(
        edge.common_blocks,
        graph.blocks_of(edge.a),
        graph.blocks_of(edge.b),
        graph.num_blocks(),
    )
}

/// Pearson χ² from raw statistics — the shared kernel of the materialised
/// and streaming BLAST paths (bit-identical results for equal inputs).
pub fn chi_square_from_stats(
    common_blocks: u32,
    blocks_a: u32,
    blocks_b: u32,
    num_blocks: usize,
) -> f64 {
    let total = num_blocks as f64;
    if total <= 0.0 {
        return 0.0;
    }
    let n11 = common_blocks as f64;
    let bi = blocks_a as f64;
    let bj = blocks_b as f64;
    let n12 = bi - n11;
    let n21 = bj - n11;
    let n22 = total - bi - bj + n11;
    let r1 = n11 + n12;
    let r2 = n21 + n22;
    let c1 = n11 + n21;
    let c2 = n12 + n22;
    let denom = r1 * r2 * c1 * c2;
    if denom <= 0.0 {
        return 0.0;
    }
    let d = n11 * n22 - n12 * n21;
    (total * d * d / denom).max(0.0)
}

/// χ² weights of every edge, aligned with `graph.edges()`.
pub fn chi_square_weights(graph: &BlockingGraph) -> Vec<f64> {
    graph
        .edges()
        .iter()
        .map(|e| chi_square_weight(graph, e))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionBackend, PrunedComparisons, Pruning, Session};
    use minoan_blocking::{BlockCollection, ErMode};
    use minoan_rdf::{DatasetBuilder, EntityId};

    /// Entities 0,1 in KB a; 2,3 in KB b. (0,2) co-occur in most blocks,
    /// (1,3) only in the big catch-all block.
    fn collection() -> BlockCollection {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        for i in 0..2 {
            b.add_literal(k0, &format!("http://a/{i}"), "http://p", "x");
        }
        for i in 2..4 {
            b.add_literal(k1, &format!("http://b/{i}"), "http://p", "x");
        }
        let ds = b.build();
        let e = EntityId;
        let groups = vec![
            ("k0".to_string(), vec![e(1), e(3)]),
            ("k1".to_string(), vec![e(0), e(2)]),
            ("k2".to_string(), vec![e(0), e(2)]),
            ("k3".to_string(), vec![e(0), e(2), e(3)]),
            ("k4".to_string(), vec![e(0), e(1), e(2), e(3)]),
            ("k5".to_string(), vec![e(1), e(2)]),
        ];
        BlockCollection::from_groups(&ds, ErMode::CleanClean, groups)
    }

    /// BLAST at `ratio` on every backend (asserted bit-identical).
    fn blast(c: &BlockCollection, ratio: f64) -> PrunedComparisons {
        let mut session = Session::new(c);
        session.pruning(Pruning::Blast { ratio });
        let base = session.run().pruned;
        for backend in [ExecutionBackend::Streaming, ExecutionBackend::MapReduce] {
            let other = session.backend(backend).run().pruned;
            crate::assert_bit_identical(&other, &base, &format!("blast/{backend:?}"));
        }
        base
    }

    fn weight(g: &BlockingGraph, a: u32, b: u32) -> f64 {
        let e = g
            .edges()
            .iter()
            .find(|e| (e.a.0, e.b.0) == (a, b))
            .expect("edge exists");
        chi_square_weight(g, e)
    }

    #[test]
    fn chi_square_rewards_systematic_cooccurrence() {
        let g = BlockingGraph::build(&collection());
        let (strong, weak) = (weight(&g, 0, 2), weight(&g, 1, 3));
        assert!(
            strong > weak,
            "systematic co-occurrence should outweigh catch-all: {strong} vs {weak}"
        );
    }

    #[test]
    fn chi_square_is_finite_and_nonnegative() {
        let g = BlockingGraph::build(&collection());
        for w in chi_square_weights(&g) {
            assert!(w.is_finite() && w >= 0.0);
        }
    }

    #[test]
    fn blast_keeps_local_maxima() {
        let c = collection();
        let g = BlockingGraph::build(&c);
        let pruned = blast(&c, 0.99);
        // Every node's strongest edge must survive at ratio ≈ 1.
        for e in g.edges() {
            let w = chi_square_weight(&g, e);
            let is_max_somewhere = [e.a, e.b].iter().any(|&n| {
                g.incident(n)
                    .iter()
                    .all(|&i| chi_square_weight(&g, g.edge(i)) <= w + 1e-12)
            });
            if is_max_somewhere && w > 0.0 {
                assert!(
                    pruned.pairs.iter().any(|p| p.a == e.a && p.b == e.b),
                    "local max edge ({:?},{:?}) dropped",
                    e.a,
                    e.b
                );
            }
        }
    }

    #[test]
    fn lower_ratio_keeps_more() {
        let c = collection();
        let strict = blast(&c, 1.0).pairs.len();
        let loose = blast(&c, 0.1);
        assert!(loose.pairs.len() >= strict);
        assert!(loose.pairs.len() <= loose.input_edges);
    }

    #[test]
    fn output_is_sorted_descending() {
        let c = collection();
        let pruned = blast(&c, DEFAULT_RATIO);
        assert!(pruned.pairs.windows(2).all(|w| w[0].weight >= w[1].weight));
        assert_eq!(pruned.input_edges, BlockingGraph::build(&c).num_edges());
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn bad_ratio_rejected() {
        Session::new(&collection())
            .pruning(Pruning::Blast { ratio: 0.0 })
            .run();
    }

    #[test]
    fn zero_weight_edges_are_dropped() {
        // A block structure where an edge's χ² is exactly zero (perfect
        // independence) — single block containing everything.
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        b.add_literal(k0, "http://a/0", "http://p", "x");
        b.add_literal(k1, "http://b/1", "http://p", "x");
        let ds = b.build();
        let groups = vec![("k".to_string(), vec![EntityId(0), EntityId(1)])];
        let c = BlockCollection::from_groups(&ds, ErMode::CleanClean, groups);
        // |B| = 1, B_i = B_j = CBS = 1 → n22 row/col zero → weight 0.
        assert!(blast(&c, 0.5).pairs.is_empty());
    }
}
