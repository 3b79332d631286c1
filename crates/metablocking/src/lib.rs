//! Meta-blocking: pruning the comparison stream of a block collection.
//!
//! Token blocking "leads to many repeated comparisons between the same
//! pairs of descriptions. To overcome this problem, we accompany blocking
//! with meta-blocking, which prunes such repeated comparisons. Moreover,
//! meta-blocking aims at discarding comparisons between descriptions that
//! share few common blocks and are thus less likely to match" (paper §1).
//!
//! # One entry point: [`Session`]
//!
//! The paper's contribution is a *family* of strategies meant to be swept
//! and compared — five weighting schemes ([`WeightingScheme`]) × six
//! pruning families ([`Pruning`]: none, WEP, CEP, WNP, CNP, BLAST, plus
//! the supervised perceptron pruner) × three execution backends
//! ([`ExecutionBackend`]). A [`Session`] exposes the whole matrix behind
//! one builder-style call chain and returns one unified [`PruneOutcome`]
//! for every combination:
//!
//! ```
//! use minoan_datagen::{generate, profiles};
//! use minoan_blocking::{builders, ErMode};
//! use minoan_metablocking::{ExecutionBackend, Pruning, Session, WeightingScheme};
//!
//! let g = generate(&profiles::center_dense(120, 3));
//! let blocks = builders::token_blocking(&g.dataset, ErMode::CleanClean);
//!
//! let outcome = Session::new(&blocks)
//!     .scheme(WeightingScheme::Arcs)
//!     .pruning(Pruning::Wnp { reciprocal: false })
//!     .backend(ExecutionBackend::Streaming)
//!     .workers(4)
//!     .run();
//! assert!(outcome.retention() < 1.0, "WNP must prune something");
//! ```
//!
//! Crucially the session *owns the expensive shared state* — the CSR
//! [`BlockingGraph`] and supervised feature slab for the materialised
//! backend, the sweep ranges / weight globals / scratch pool for the
//! streaming and MapReduce backends — and reuses it across runs, so a
//! sweep over all five schemes costs one CSR build (or one scratch
//! allocation), not five:
//!
//! ```
//! # use minoan_datagen::{generate, profiles};
//! # use minoan_blocking::{builders, ErMode};
//! # use minoan_metablocking::{Pruning, Session, WeightingScheme};
//! # let g = generate(&profiles::center_dense(100, 7));
//! # let blocks = builders::token_blocking(&g.dataset, ErMode::CleanClean);
//! let mut session = Session::new(&blocks);
//! session.pruning(Pruning::Cnp { reciprocal: false, k: None });
//! for scheme in WeightingScheme::ALL {
//!     let outcome = session.scheme(scheme).run();   // graph built once
//!     assert!(!outcome.pairs().is_empty());
//! }
//! ```
//!
//! # Execution backends
//!
//! Meta-blocking is the pipeline's hot path, and every session runs on
//! one of three backends, selected by [`ExecutionBackend`]. A backend
//! only decides where the pruning core's *rows* — each entity's sorted,
//! weighted neighbourhood — come from:
//!
//! * **Materialised** — build the [`BlockingGraph`] first and read the
//!   rows off its CSR slabs (edge records sorted by pair, plus
//!   `offsets`/`edge-index` adjacency arrays). Construction is a two-pass
//!   counting sort over node-centric sweeps, parallelised over entity
//!   ranges with scoped threads, with no hash map anywhere. The choice
//!   for anything that needs random access to the whole edge set or
//!   reuses one graph across many pruning runs.
//! * **Streaming** — sweep the collection entity by entity,
//!   reconstructing each node's incident statistics in dense epoch-reset
//!   accumulators; no pruning family ever builds the global edge slab.
//! * **MapReduce** — the paper's distributed formulation (reference
//!   \[4\]) on [`minoan_mapreduce`]: [`parallel`] builds the rows
//!   map-side over entity ranges and applies the criterion folds and
//!   decisions in combiners and reducers — shuffling at most one record
//!   per entity row instead of one per pair occurrence (the edge-based
//!   strategy, kept as a baseline). These runs also fill
//!   [`PruneOutcome::report`] with per-job [`JobReport`] stats.
//!
//! Output is bit-identical across all three backends for every method,
//! scheme, variant, thread count and worker count (enforced by property
//! tests against reference implementations kept in the test tree), and
//! session-state reuse never changes a bit either
//! (`tests/session_reuse.rs`); every f64 weight is computed through the
//! single [`kernel::weight_from_stats`] body.
//!
//! # Modules
//!
//! * [`prune`] — the pruning core: [`Pruning`], and every family written
//!   once as a criterion step (WEP's positive-weight mean, CEP's bounded
//!   top-k, CNP's default `k`, the supervised feature maxima) plus a
//!   per-row decision (WNP's row mean, CNP's row top-k, BLAST's
//!   `ratio ·` row maximum, the edge-centric filters), over rows from any
//!   backend; also the output types [`PrunedComparisons`] and
//!   [`WeightedPair`] and the default-k helpers.
//! * [`session`] — the [`Session`] entry point described above: picks the
//!   row producer for the configured backend and caches its state.
//! * [`incremental`] — the *updatable* arm: [`IncrementalSession`]
//!   ingests description batches through the delta-appendable block
//!   slabs and patches a per-entity row cache by re-sweeping only the
//!   dirty entities; the pruning core reads that cache as its rows,
//!   keeping the [`PruneOutcome`] bit-identical to a from-scratch run on
//!   the merged corpus. The session also owns the answer cache of its
//!   resolves and decides on every ingest which cached answers survive.
//! * [`query`] — query-time resolution: one entity's rows through the same
//!   per-row decisions ([`Session::resolve_entity`],
//!   [`IncrementalSession::resolve_entity`]), bit-identical to the
//!   incident slice of a full run.
//! * [`parallel`] — the MapReduce backend (entity-based jobs and the
//!   edge-based baseline [`parallel::parallel_edge_weights`]).
//! * [`graph`] — the CSR blocking graph: one node per description, one
//!   edge per *distinct* comparable pair, annotated with co-occurrence
//!   statistics.
//! * [`kernel`] — the shared neighbourhood-stats → weight kernel all
//!   backends compute through.
//! * [`weights`] — the five standard edge-weighting schemes (CBS, ECBS,
//!   JS, EJS, ARCS).
//! * [`blast`](mod@blast) — BLAST's χ² weighting.
//! * [`supervised`] — perceptron-based supervised meta-blocking
//!   (training, features, batched extraction).

#![forbid(unsafe_code)]

pub mod blast;
pub mod graph;
pub mod incremental;
pub mod kernel;
pub mod parallel;
pub mod prune;
pub mod query;
pub mod session;
pub mod supervised;
mod sweep;
pub mod weights;

pub use blast::{chi_square_weight, chi_square_weights};
pub use graph::{BlockingGraph, Edge};
pub use incremental::{IncrementalSession, IngestReport};
pub use parallel::JobReport;
pub use prune::{PrunedComparisons, Pruning, WeightedPair};
pub use query::ResolvedEntity;
pub use session::{PruneOutcome, Session, SessionCounts};
pub use supervised::{EdgeFeatures, FeatureExtractor, Perceptron, TrainingSet};
pub use weights::WeightingScheme;

/// Which execution path meta-blocking runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecutionBackend {
    /// Build the CSR blocking graph, then prune its rows.
    #[default]
    Materialized,
    /// Streaming sweeps; the global edge set is never materialised for
    /// *any* pruning method (node-centric WNP/CNP/BLAST and edge-centric
    /// WEP/CEP alike).
    Streaming,
    /// Entity-partitioned MapReduce jobs on [`minoan_mapreduce`] — see
    /// [`parallel`]. The worker count is configured on the engine (or the
    /// pipeline's `workers` knob); results never depend on it.
    MapReduce,
}

impl ExecutionBackend {
    /// All backends, for equivalence sweeps.
    pub const ALL: [ExecutionBackend; 3] = [
        ExecutionBackend::Materialized,
        ExecutionBackend::Streaming,
        ExecutionBackend::MapReduce,
    ];

    /// Parses the CLI/config spelling
    /// (`materialized` | `streaming` | `mapreduce`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "materialized" | "materialised" => Some(Self::Materialized),
            "streaming" => Some(Self::Streaming),
            "mapreduce" | "map-reduce" => Some(Self::MapReduce),
            _ => None,
        }
    }

    /// The config spelling of this backend.
    pub fn name(self) -> &'static str {
        match self {
            Self::Materialized => "materialized",
            Self::Streaming => "streaming",
            Self::MapReduce => "mapreduce",
        }
    }
}

/// The one definition of "bit-identical pruning output" the in-crate
/// equivalence tests assert: same input-edge count, same pair order,
/// same f64 weight bits. (The workspace-level suites keep their own copy
/// in `tests/common/` — integration tests cannot import `#[cfg(test)]`
/// items.)
#[cfg(test)]
pub(crate) fn assert_bit_identical(a: &PrunedComparisons, b: &PrunedComparisons, label: &str) {
    assert_eq!(a.input_edges, b.input_edges, "{label}: input_edges");
    assert_eq!(a.pairs.len(), b.pairs.len(), "{label}: kept count");
    for (x, y) in a.pairs.iter().zip(&b.pairs) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parsing_round_trips() {
        for b in ExecutionBackend::ALL {
            assert_eq!(ExecutionBackend::parse(b.name()), Some(b));
        }
        assert_eq!(
            ExecutionBackend::parse("map-reduce"),
            Some(ExecutionBackend::MapReduce)
        );
        assert_eq!(ExecutionBackend::parse("nonsense"), None);
    }
}
