//! Helpers shared by the backend-equivalence integration suites.

#[allow(dead_code)]
pub mod oracle;

use minoan::blocking::BlockCollection;
use minoan::metablocking::{
    ExecutionBackend, PruneOutcome, PrunedComparisons, Pruning, Session, WeightedPair,
    WeightingScheme,
};

/// One fresh [`Session`] run of `scheme` × `pruning` on `backend` with
/// `workers` workers.
#[allow(dead_code)]
pub fn run(
    blocks: &BlockCollection,
    scheme: WeightingScheme,
    pruning: Pruning,
    backend: ExecutionBackend,
    workers: usize,
) -> PrunedComparisons {
    Session::new(blocks)
        .scheme(scheme)
        .pruning(pruning)
        .backend(backend)
        .workers(workers)
        .run()
        .pruned
}

/// Bit-identity over bare pair lists: same pairs in the same order with
/// the same f64 weight bits.
#[allow(dead_code)]
pub fn assert_pairs_bit_identical(a: &[WeightedPair], b: &[WeightedPair], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: kept count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!((x.a, x.b), (y.a, y.b), "{label}: pair order");
        assert_eq!(
            x.weight.to_bits(),
            y.weight.to_bits(),
            "{label}: weight bits differ for ({:?},{:?}): {} vs {}",
            x.a,
            x.b,
            x.weight,
            y.weight
        );
    }
}

/// The one definition of "bit-identical pruning output" the equivalence
/// suites assert: same input-edge count, same pair order, same f64
/// weight bits.
pub fn assert_bit_identical(a: &PrunedComparisons, b: &PrunedComparisons, label: &str) {
    assert_eq!(a.input_edges, b.input_edges, "{label}: input_edges");
    assert_pairs_bit_identical(&a.pairs, &b.pairs, label);
}

/// As [`assert_bit_identical`], comparing a session [`PruneOutcome`]
/// against a reference result.
#[allow(dead_code)]
pub fn assert_outcome_bit_identical(a: &PruneOutcome, b: &PrunedComparisons, label: &str) {
    assert_bit_identical(&a.pruned, b, label);
}
