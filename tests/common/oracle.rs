//! Reference implementations of every pruning family over the
//! materialised blocking graph: the per-edge-index bodies the library
//! shipped before its pruning core was unified. They share no code with
//! that core — edges are indexed into the CSR slab, votes are counted per
//! edge index, cardinalities break ties by edge rank — which is what
//! makes them an independent oracle for the equivalence suites.

use minoan::common::stats::{mean, pairwise_sum};
use minoan::common::{OrdF64, TopK};
use minoan::metablocking::prune::{default_cep_k, default_cnp_k};
use minoan::metablocking::{
    chi_square_weights, BlockingGraph, EdgeFeatures, FeatureExtractor, Perceptron,
    PrunedComparisons, Pruning, WeightedPair, WeightingScheme,
};
use minoan::rdf::EntityId;

/// The presentation order: weight descending, ties by pair.
fn from_weighted_pairs(
    mut pairs: Vec<WeightedPair>,
    scheme: WeightingScheme,
    input_edges: usize,
) -> PrunedComparisons {
    pairs.sort_by(|x, y| {
        y.weight
            .partial_cmp(&x.weight)
            .expect("weights are finite")
            .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
    });
    PrunedComparisons {
        pairs,
        scheme,
        input_edges,
    }
}

fn empty(scheme: WeightingScheme, input_edges: usize) -> PrunedComparisons {
    PrunedComparisons {
        pairs: Vec::new(),
        scheme,
        input_edges,
    }
}

fn from_indices(
    graph: &BlockingGraph,
    weights: &[f64],
    scheme: WeightingScheme,
    mut keep: Vec<u32>,
) -> PrunedComparisons {
    keep.sort_unstable();
    keep.dedup();
    let pairs: Vec<WeightedPair> = keep
        .into_iter()
        .map(|i| {
            let e = graph.edge(i);
            WeightedPair {
                a: e.a,
                b: e.b,
                weight: weights[i as usize],
            }
        })
        .collect();
    from_weighted_pairs(pairs, scheme, graph.num_edges())
}

/// The WEP threshold: the mean over positive-weight edges, from
/// per-source partial sums reduced by a fixed-shape pairwise sum.
fn wep_threshold_from_sums(sums: &[f64], positive_edges: u64) -> f64 {
    if positive_edges == 0 {
        0.0
    } else {
        pairwise_sum(sums) / positive_edges as f64
    }
}

/// Weighted Edge Pruning: keep edges with weight ≥ the global mean weight
/// over the positive-weight edges.
pub fn wep(graph: &BlockingGraph, scheme: WeightingScheme) -> PrunedComparisons {
    let weights = scheme.all_weights(graph);
    // Per-source partial sums in slab order (edges sorted by (a, b), so
    // each source accumulates over ascending targets).
    let mut sums = vec![0.0f64; graph.num_nodes()];
    let mut positive = 0u64;
    for (i, e) in graph.edges().iter().enumerate() {
        let w = weights[i];
        if w > 0.0 {
            sums[e.a.index()] += w;
            positive += 1;
        }
    }
    let threshold = wep_threshold_from_sums(&sums, positive);
    let keep: Vec<u32> = (0..graph.num_edges() as u32)
        .filter(|&i| weights[i as usize] >= threshold && weights[i as usize] > 0.0)
        .collect();
    from_indices(graph, &weights, scheme, keep)
}

/// Cardinality Edge Pruning: keep the global top-`k` edges by weight
/// (`k` defaults to `default_cep_k`); `k == 0` keeps nothing.
pub fn cep(graph: &BlockingGraph, scheme: WeightingScheme, k: Option<usize>) -> PrunedComparisons {
    let k = k.unwrap_or_else(|| default_cep_k(graph));
    if k == 0 {
        return empty(scheme, graph.num_edges());
    }
    let weights = scheme.all_weights(graph);
    // TopK orders by the tuple; invert edge index so earlier edges win ties.
    let mut top: TopK<(OrdF64, std::cmp::Reverse<u32>)> = TopK::new(k);
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            top.push((OrdF64(w), std::cmp::Reverse(i as u32)));
        }
    }
    let keep: Vec<u32> = top
        .into_sorted_vec()
        .into_iter()
        .map(|(_, r)| r.0)
        .collect();
    from_indices(graph, &weights, scheme, keep)
}

/// Weighted Node Pruning: each node keeps its incident edges with weight ≥
/// the mean weight of its neighbourhood; `reciprocal` demands both
/// endpoints keep the edge, otherwise either suffices.
pub fn wnp(graph: &BlockingGraph, scheme: WeightingScheme, reciprocal: bool) -> PrunedComparisons {
    let weights = scheme.all_weights(graph);
    let mut votes = vec![0u8; graph.num_edges()];
    for node in 0..graph.num_nodes() as u32 {
        let inc = graph.incident(EntityId(node));
        if inc.is_empty() {
            continue;
        }
        let local: Vec<f64> = inc.iter().map(|&i| weights[i as usize]).collect();
        let threshold = mean(&local);
        for &i in inc {
            if weights[i as usize] >= threshold && weights[i as usize] > 0.0 {
                votes[i as usize] += 1;
            }
        }
    }
    let need = if reciprocal { 2 } else { 1 };
    let keep: Vec<u32> = (0..graph.num_edges() as u32)
        .filter(|&i| votes[i as usize] >= need)
        .collect();
    from_indices(graph, &weights, scheme, keep)
}

/// Cardinality Node Pruning: each node keeps its top-`k` incident edges
/// (`k` defaults to `default_cnp_k`); `reciprocal` as in [`wnp`]. An
/// explicit `k == 0` keeps nothing.
pub fn cnp(
    graph: &BlockingGraph,
    scheme: WeightingScheme,
    reciprocal: bool,
    k: Option<usize>,
) -> PrunedComparisons {
    let k = k.unwrap_or_else(|| default_cnp_k(graph));
    if k == 0 {
        return empty(scheme, graph.num_edges());
    }
    let weights = scheme.all_weights(graph);
    let mut votes = vec![0u8; graph.num_edges()];
    for node in 0..graph.num_nodes() as u32 {
        let inc = graph.incident(EntityId(node));
        if inc.is_empty() {
            continue;
        }
        let mut top: TopK<(OrdF64, std::cmp::Reverse<u32>)> = TopK::new(k);
        for &i in inc {
            let w = weights[i as usize];
            if w > 0.0 {
                top.push((OrdF64(w), std::cmp::Reverse(i)));
            }
        }
        for (_, r) in top.into_sorted_vec() {
            votes[r.0 as usize] += 1;
        }
    }
    let need = if reciprocal { 2 } else { 1 };
    let keep: Vec<u32> = (0..graph.num_edges() as u32)
        .filter(|&i| votes[i as usize] >= need)
        .collect();
    from_indices(graph, &weights, scheme, keep)
}

/// BLAST pruning: per node, keep edges with weight ≥ `ratio · local_max`;
/// an edge survives if either endpoint keeps it. Reported under the CBS
/// label; the weights are the χ² values.
pub fn blast(graph: &BlockingGraph, ratio: f64) -> PrunedComparisons {
    assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
    let weights = chi_square_weights(graph);
    // Local maxima per node.
    let n = graph.num_nodes();
    let mut local_max = vec![0.0f64; n];
    for (i, e) in graph.edges().iter().enumerate() {
        let w = weights[i];
        if w > local_max[e.a.index()] {
            local_max[e.a.index()] = w;
        }
        if w > local_max[e.b.index()] {
            local_max[e.b.index()] = w;
        }
    }
    let mut pairs: Vec<WeightedPair> = graph
        .edges()
        .iter()
        .enumerate()
        .filter(|(i, e)| {
            let w = weights[*i];
            w > 0.0 && (w >= ratio * local_max[e.a.index()] || w >= ratio * local_max[e.b.index()])
        })
        .map(|(i, e)| WeightedPair {
            a: e.a,
            b: e.b,
            weight: weights[i],
        })
        .collect();
    pairs.sort_by(|x, y| {
        y.weight
            .partial_cmp(&x.weight)
            .expect("chi-square weights are finite")
            .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
    });
    PrunedComparisons {
        pairs,
        scheme: WeightingScheme::Cbs,
        input_edges: graph.num_edges(),
    }
}

/// Keeps the edges the model scores positive; weight = sigmoid(margin).
pub fn supervised_prune(graph: &BlockingGraph, model: &Perceptron) -> PrunedComparisons {
    let (_, features) = FeatureExtractor::fit_extract_all(graph);
    let pairs: Vec<WeightedPair> = graph
        .edges()
        .iter()
        .zip(&features)
        .filter_map(|(e, f): (_, &EdgeFeatures)| {
            let score = model.score(f);
            if score > 0.0 {
                Some(WeightedPair {
                    a: e.a,
                    b: e.b,
                    weight: 1.0 / (1.0 + (-score).exp()),
                })
            } else {
                None
            }
        })
        .collect();
    from_weighted_pairs(pairs, WeightingScheme::Cbs, graph.num_edges())
}

/// Every edge of the graph, weighted, in pair order — the unpruned family.
pub fn none(graph: &BlockingGraph, scheme: WeightingScheme) -> PrunedComparisons {
    let pairs = graph
        .edges()
        .iter()
        .map(|e| WeightedPair {
            a: e.a,
            b: e.b,
            weight: scheme.weight(graph, e),
        })
        .collect();
    PrunedComparisons {
        pairs,
        scheme,
        input_edges: graph.num_edges(),
    }
}

/// The reference result of any family under `scheme`.
pub fn prune(
    graph: &BlockingGraph,
    scheme: WeightingScheme,
    pruning: Pruning,
) -> PrunedComparisons {
    match pruning {
        Pruning::None => none(graph, scheme),
        Pruning::Wep => wep(graph, scheme),
        Pruning::Cep(k) => cep(graph, scheme, k),
        Pruning::Wnp { reciprocal } => wnp(graph, scheme, reciprocal),
        Pruning::Cnp { reciprocal, k } => cnp(graph, scheme, reciprocal, k),
        Pruning::Blast { ratio } => blast(graph, ratio),
        Pruning::Supervised(model) => supervised_prune(graph, &model),
    }
}
