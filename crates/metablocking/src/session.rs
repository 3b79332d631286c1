//! The one meta-blocking entry point: [`Session`].
//!
//! The paper's contribution is a *family* of meta-blocking strategies
//! meant to be swept and compared — five weighting schemes × six pruning
//! families × three execution backends. A session makes that sweep cheap
//! and uniform: it borrows a block collection, is configured builder-style
//! ([`Session::scheme`], [`Session::pruning`], [`Session::backend`],
//! [`Session::workers`]), and every [`Session::run`] returns the same
//! unified [`PruneOutcome`] whichever combination is selected.
//!
//! Every combination runs through the one pruning core
//! ([`prune`](mod@crate::prune)); a backend only decides where the rows come
//! from. What makes the session more than a dispatcher is the **owned
//! shared state**: the CSR [`BlockingGraph`] for the materialised
//! backend, and the sweep state — cost-balanced
//! entity ranges, [`kernel`](crate::kernel) weight globals, the scratch
//! pool — for the streaming and MapReduce backends. All of it is built
//! lazily on first use and reused by every subsequent run, so sweeping
//! all five schemes (or all pruning families) performs exactly one CSR
//! build / one scratch allocation instead of one per call. The session
//! counts both ([`Session::counts`]) so tests can assert that claim.
//!
//! Reuse never changes results: every combination stays bit-identical to
//! a fresh single-shot run (enforced in `tests/session_reuse.rs`).

use crate::graph::{BlockingGraph, GraphRows};
use crate::parallel::{self, JobReport};
use crate::prune::{self, Corpus, PrunedComparisons, Pruning, Rule, WeightedPair};
use crate::query::{self, ResolvedEntity};
use crate::supervised;
use crate::sweep::{default_threads, SweepState};
use crate::weights::WeightingScheme;
use crate::ExecutionBackend;
use minoan_blocking::BlockCollection;
use minoan_mapreduce::Engine;
use minoan_rdf::EntityId;

/// The unified result of one [`Session::run`]: the pruned comparisons
/// plus — when the MapReduce backend ran — the per-job execution
/// statistics (shuffle volume, modeled makespan).
#[derive(Clone, Debug)]
pub struct PruneOutcome {
    /// The retained comparisons with their weights, the scheme label and
    /// the input-edge count.
    pub pruned: PrunedComparisons,
    /// Per-job [`minoan_mapreduce::JobStats`] of the MapReduce run that
    /// produced this outcome; empty for the materialised and streaming
    /// backends (they run in-process, not as jobs).
    pub report: JobReport,
}

impl PruneOutcome {
    /// The retained pairs (see [`PrunedComparisons::pairs`] for the
    /// ordering contract per family).
    pub fn pairs(&self) -> &[WeightedPair] {
        &self.pruned.pairs
    }

    /// Edges in the input blocking graph (for retention reporting).
    pub fn input_edges(&self) -> usize {
        self.pruned.input_edges
    }

    /// Fraction of input edges retained.
    pub fn retention(&self) -> f64 {
        self.pruned.retention()
    }

    /// Total records shuffled by the MapReduce jobs (0 for the local
    /// backends).
    pub fn shuffled_records(&self) -> usize {
        self.report.shuffled_records()
    }

    /// The candidate list the pipeline feeds to progressive matching.
    pub fn into_candidates(self) -> Vec<(EntityId, EntityId, f64)> {
        self.pruned
            .pairs
            .into_iter()
            .map(|p| (p.a, p.b, p.weight))
            .collect()
    }
}

/// The shared-state work one [`Session`] has done so far — counts of
/// that session alone, never of the process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionCounts {
    /// CSR blocking graphs built by [`Session::graph`] (at most one per
    /// session).
    pub csr_builds: usize,
    /// Sweep scratches allocated by the session's scratch pool.
    pub scratch_allocs: usize,
}

/// A configured meta-blocking run over one block collection, with the
/// expensive shared state cached across runs.
///
/// ```
/// use minoan_datagen::{generate, profiles};
/// use minoan_blocking::{builders, ErMode};
/// use minoan_metablocking::{ExecutionBackend, Pruning, Session, WeightingScheme};
///
/// let g = generate(&profiles::center_dense(120, 3));
/// let blocks = builders::token_blocking(&g.dataset, ErMode::CleanClean);
///
/// // Sweep all five schemes through one session: the CSR graph is built
/// // once and reused.
/// let mut session = Session::new(&blocks);
/// session.pruning(Pruning::Wnp { reciprocal: false });
/// for scheme in WeightingScheme::ALL {
///     let outcome = session.scheme(scheme).run();
///     assert!(outcome.pairs().len() <= outcome.input_edges());
/// }
///
/// // Every backend produces the same pairs, bit for bit.
/// let m = session
///     .scheme(WeightingScheme::Arcs)
///     .backend(ExecutionBackend::Materialized)
///     .run();
/// let s = session.backend(ExecutionBackend::Streaming).run();
/// let p = session.backend(ExecutionBackend::MapReduce).workers(3).run();
/// assert_eq!(m.pairs(), s.pairs());
/// assert_eq!(m.pairs(), p.pairs());
/// ```
pub struct Session<'c> {
    collection: &'c BlockCollection,
    scheme: WeightingScheme,
    pruning: Pruning,
    backend: ExecutionBackend,
    workers: Option<usize>,
    // Cached shared state, built lazily and reused across runs.
    graph: Option<BlockingGraph>,
    csr_builds: usize,
    sweep: SweepState<'c>,
    // Query-time rule, keyed by the scheme × pruning it was built for
    // (resolve_entity rebuilds it on a config switch).
    rule: Option<((WeightingScheme, Pruning), Rule)>,
}

impl<'c> Session<'c> {
    /// A session over `collection` with the pipeline defaults:
    /// ARCS-weighted WNP on the materialised backend.
    pub fn new(collection: &'c BlockCollection) -> Self {
        Self {
            collection,
            scheme: WeightingScheme::Arcs,
            pruning: Pruning::Wnp { reciprocal: false },
            backend: ExecutionBackend::Materialized,
            workers: None,
            graph: None,
            csr_builds: 0,
            sweep: SweepState::new(collection),
            rule: None,
        }
    }

    /// Sets the edge-weighting scheme (ignored by BLAST and supervised
    /// pruning, which bring their own weights).
    pub fn scheme(&mut self, scheme: WeightingScheme) -> &mut Self {
        self.scheme = scheme;
        self
    }

    /// Sets the pruning family.
    pub fn pruning(&mut self, pruning: Pruning) -> &mut Self {
        self.pruning = pruning;
        self
    }

    /// Sets the execution backend.
    pub fn backend(&mut self, backend: ExecutionBackend) -> &mut Self {
        self.backend = backend;
        self
    }

    /// Pins the worker count (streaming threads / MapReduce workers /
    /// CSR build threads). Results never depend on it; the default is all
    /// available parallelism.
    pub fn workers(&mut self, workers: usize) -> &mut Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The underlying block collection.
    pub fn collection(&self) -> &'c BlockCollection {
        self.collection
    }

    fn threads(&self) -> usize {
        self.workers.unwrap_or_else(default_threads).max(1)
    }

    /// The session's CSR blocking graph, built on first use and cached.
    /// Only the materialised backend needs it; the sweep backends never
    /// build it.
    pub fn graph(&mut self) -> &BlockingGraph {
        if self.graph.is_none() {
            self.graph = Some(BlockingGraph::build_with_threads(
                self.collection,
                self.threads(),
            ));
            self.csr_builds += 1;
        }
        self.graph.as_ref().expect("just built")
    }

    /// The CSR builds and scratch allocations this session has performed.
    pub fn counts(&self) -> SessionCounts {
        SessionCounts {
            csr_builds: self.csr_builds,
            scratch_allocs: self.sweep.pool.allocs(),
        }
    }

    /// Runs the configured scheme × pruning × backend combination,
    /// reusing every piece of shared state previous runs already built.
    pub fn run(&mut self) -> PruneOutcome {
        let (scheme, pruning, threads) = (self.scheme, self.pruning, self.threads());
        let pruned = match self.backend {
            ExecutionBackend::Materialized => {
                let graph = self.graph();
                if let Pruning::Supervised(model) = pruning {
                    let rows = GraphRows::new(graph, supervised::raw_features_all(graph));
                    prune::run_supervised(&rows, &rows.ranges(threads), model)
                } else {
                    let rows = GraphRows::new(graph, pruning.weights(scheme).all(graph));
                    let corpus = Corpus {
                        total_assignments: graph.total_assignments(),
                        active_nodes: graph.active_nodes(),
                    };
                    prune::run(&rows, &rows.ranges(threads), &pruning, scheme, corpus)
                }
            }
            ExecutionBackend::Streaming => self.sweep.run(scheme, &pruning, threads),
            ExecutionBackend::MapReduce => {
                let engine = match self.workers {
                    Some(w) => Engine::new(w),
                    None => Engine::default(),
                };
                let (pruned, report) = parallel::run(&mut self.sweep, scheme, &pruning, &engine);
                return PruneOutcome { pruned, report };
            }
        };
        PruneOutcome {
            pruned,
            report: JobReport::default(),
        }
    }

    /// Resolves one entity at query time: the comparisons a full
    /// [`Session::run`] of the current scheme × pruning would keep for
    /// it — same pairs, same order, same f64 weight bits — from a
    /// single neighbourhood sweep instead of a corpus pass.
    ///
    /// The pruning family's *global* inputs (WEP's mean threshold,
    /// CEP's top-k bar, CNP's default `k`, the supervised feature maxima)
    /// are computed once per scheme × pruning configuration and cached
    /// on the session, so repeated resolves cost one entity sweep each,
    /// plus lazy neighbour-row sweeps where the node-centric vote needs
    /// the other endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `entity` is out of range of the collection.
    ///
    /// ```
    /// use minoan_datagen::{generate, profiles};
    /// use minoan_blocking::{builders, ErMode};
    /// use minoan_metablocking::{ExecutionBackend, Pruning, Session, WeightingScheme};
    /// use minoan_rdf::EntityId;
    ///
    /// let g = generate(&profiles::center_dense(80, 3));
    /// let blocks = builders::token_blocking(&g.dataset, ErMode::CleanClean);
    /// let mut session = Session::new(&blocks);
    /// session
    ///     .scheme(WeightingScheme::Js)
    ///     .pruning(Pruning::Wnp { reciprocal: false });
    ///
    /// // One entity's matches, from a single neighbourhood sweep …
    /// let e = EntityId(3);
    /// let resolved = session.resolve_entity(e);
    ///
    /// // … are exactly the incident slice of the full-corpus outcome.
    /// let full = session.backend(ExecutionBackend::Streaming).run();
    /// let incident: Vec<_> = full
    ///     .pairs()
    ///     .iter()
    ///     .filter(|p| p.a == e || p.b == e)
    ///     .copied()
    ///     .collect();
    /// assert_eq!(resolved.matches, incident);
    /// ```
    pub fn resolve_entity(&mut self, entity: EntityId) -> ResolvedEntity {
        assert!(
            (entity.0 as usize) < self.collection.num_entities(),
            "resolve_entity: entity id out of range"
        );
        let key = (self.scheme, self.pruning);
        if !matches!(&self.rule, Some((k, _)) if *k == key) {
            let rule = self.sweep.rule(self.scheme, &self.pruning, self.threads());
            self.rule = Some((key, rule));
        }
        let (_, rule) = self.rule.as_ref().expect("rule just ensured");
        let st = &self.sweep;
        let weights = self.pruning.weights(self.scheme);
        query::resolve_swept(st.collection, st.globals(), &st.pool, weights, rule, entity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_blocking::builders::token_blocking;
    use minoan_blocking::ErMode;
    use minoan_datagen::{generate, profiles};

    #[test]
    fn builder_chain_runs_every_backend() {
        let world = generate(&profiles::center_dense(80, 5));
        let blocks = token_blocking(&world.dataset, ErMode::CleanClean);
        let base = Session::new(&blocks)
            .scheme(WeightingScheme::Js)
            .pruning(Pruning::Wnp { reciprocal: true })
            .run();
        assert!(!base.pairs().is_empty());
        for backend in ExecutionBackend::ALL {
            let out = Session::new(&blocks)
                .scheme(WeightingScheme::Js)
                .pruning(Pruning::Wnp { reciprocal: true })
                .backend(backend)
                .workers(2)
                .run();
            assert_eq!(out.pairs(), base.pairs(), "{backend:?}");
            assert_eq!(out.input_edges(), base.input_edges(), "{backend:?}");
        }
    }

    #[test]
    fn mapreduce_outcome_carries_job_stats() {
        let world = generate(&profiles::center_dense(80, 7));
        let blocks = token_blocking(&world.dataset, ErMode::CleanClean);
        let out = Session::new(&blocks)
            .backend(ExecutionBackend::MapReduce)
            .workers(3)
            .run();
        assert!(!out.report.jobs.is_empty(), "MapReduce runs report jobs");
        assert!(out.shuffled_records() > 0);
        let local = Session::new(&blocks).run();
        assert!(local.report.jobs.is_empty(), "local backends report none");
        assert_eq!(local.shuffled_records(), 0);
    }

    #[test]
    fn pruning_none_keeps_every_edge_in_pair_order() {
        let world = generate(&profiles::center_dense(60, 9));
        let blocks = token_blocking(&world.dataset, ErMode::CleanClean);
        for backend in ExecutionBackend::ALL {
            let out = Session::new(&blocks)
                .pruning(Pruning::None)
                .backend(backend)
                .run();
            assert_eq!(out.pairs().len(), out.input_edges(), "{backend:?}");
            assert!(
                out.pairs()
                    .windows(2)
                    .all(|w| (w[0].a, w[0].b) < (w[1].a, w[1].b)),
                "{backend:?}: unpruned output must stay in pair order"
            );
            assert_eq!(out.retention(), 1.0, "{backend:?}");
        }
    }

    #[test]
    fn families_constant_covers_the_catalogue() {
        assert_eq!(Pruning::FAMILIES.len(), 6);
        assert!(Pruning::FAMILIES.contains(&Pruning::blast()));
    }
}
