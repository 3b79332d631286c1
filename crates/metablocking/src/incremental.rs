//! Delta-sweep incremental meta-blocking: an *updatable* session over
//! the flat slabs.
//!
//! [`Session`] answers "prune this finished collection"; an
//! [`IncrementalSession`] answers the pay-as-you-go question the paper
//! poses for Web-scale ER: descriptions *arrive*, and the pruned
//! comparison set must stay current without re-sweeping the whole corpus
//! per batch. Each [`IncrementalSession::ingest`] call
//!
//! 1. tokenises the batch through the same string-free
//!    `KeyAssignments` path the batch builders use and delta-appends the
//!    new member runs into the
//!    [`IncrementalCollection`]
//!    slabs,
//! 2. takes the resulting *dirty sets* — the touched blocks, their
//!    members, and the entities whose block lists grew,
//! 3. runs a **delta-sweep**: only the entities whose incident weights
//!    can have changed are re-swept, and the cached weight rows (theirs
//!    and their neighbours') are patched in place.
//!
//! [`IncrementalSession::outcome`] then runs the pruning core over the
//! cached rows, giving a [`PruneOutcome`] **bit-identical** to a
//! from-scratch [`Session`] run on the merged corpus — same pair order,
//! same f64 weight bits, for every arrival order, batch size and
//! thread count (enforced by `tests/incremental_delta.rs`).
//!
//! # Which combinations delta-sweep
//!
//! The cached row of entity `a` holds the weights of `a`'s incident
//! edges. A scheme is delta-sweepable when a batch can only change the
//! weights of a *locally identifiable* edge set:
//!
//! * **CBS / JS** — the weight of a pair reads only its shared-block
//!   count (JS adds the endpoints' block-list lengths `|B_i|`). A block
//!   becomes shared for an existing pair only by crossing into presence,
//!   and every member of such a block is *grown*; `|B_i|` changes only
//!   for grown entities. So the weight of an edge between two pre-batch,
//!   un-grown entities **never changes**: re-sweeping `batch ∪ grown`
//!   and mirror-patching each fresh `(target, neighbour)` weight into
//!   the neighbour's row covers every changed edge — typically a small
//!   fraction of the corpus, independent of how hot the batch's tokens
//!   are.
//! * **ARCS** — a pair's weight sums `1/‖b‖` over shared blocks, so
//!   every touched block reweights *all* pairs inside it; both endpoints
//!   of every changed edge are members of a touched block (the *dirty*
//!   set), and re-sweeping the dirty entities covers both directions
//!   with no mirror pass.
//! * **ECBS / EJS** — every weight reads the global block (and edge)
//!   totals, so any arrival invalidates every row; likewise BLAST (χ²
//!   over global aggregates) and the supervised pruner (features are
//!   normalised by global maxima). These combinations transparently fall
//!   back to a full streaming re-sweep of the current snapshot — same
//!   results, no stale answers, and [`IngestReport::delta`] records which
//!   path ran.
//!
//! For the pruning families `None`/`WEP`/`CEP`/`WNP`/`CNP` the row cache
//! *is* the row producer the pruning core ([`prune`](mod@crate::prune))
//! runs over — their criteria are row-local or deterministic global
//! folds over the rows — so with a delta-sweepable scheme they never
//! re-sweep untouched entities.
//!
//! ```
//! use minoan_blocking::ErMode;
//! use minoan_datagen::{generate, profiles};
//! use minoan_metablocking::{IncrementalSession, Pruning, WeightingScheme};
//! use minoan_rdf::EntityId;
//!
//! let g = generate(&profiles::center_dense(60, 3));
//! let mut session = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
//! session
//!     .scheme(WeightingScheme::Cbs)
//!     .pruning(Pruning::Wnp { reciprocal: false });
//!
//! let ids: Vec<EntityId> = (0..g.dataset.len() as u32).map(EntityId).collect();
//! for batch in ids.chunks(16) {
//!     let report = session.ingest(batch);
//!     assert!(report.delta, "CBS × WNP delta-sweeps");
//!     assert!(report.swept_entities <= report.num_arrived);
//! }
//! let outcome = session.outcome();
//! assert!(outcome.pairs().len() <= outcome.input_edges());
//! ```
//!
//! # The answer cache
//!
//! [`IncrementalSession::resolve_entity`] can memoise whole answers for
//! the hot entities of a skewed query mix
//! ([`IncrementalSession::cache_capacity`]; 0, the default, disables it).
//! The session alone decides which cached answers survive an ingest.
//! When the scheme × pruning combination lets a batch change answers only
//! through the rows it changes (a delta-local scheme under `None`, WNP, or
//! CNP with an explicit `k`), [`IncrementalSession::ingest`] drops the
//! entries whose dependency sets (the entity and its neighbours) meet
//! those rows: the batch's dirty entities, and under JS also every
//! neighbour of an entity whose block list grew. Otherwise it clears the
//! cache — a global criterion can re-decide edges between clean entities.
//! A scheme or pruning switch clears it too. Cache hits return answers
//! bit-identical to a fresh resolve.

use crate::kernel::{WeightGlobals, Weights};
use crate::parallel::JobReport;
use crate::prune::{self, Corpus, Pruning, Rows, Rule, Visit};
use crate::query::{self, NeighbourhoodCache, ResolvedEntity};
use crate::session::{PruneOutcome, Session};
use crate::sweep::{default_threads, partition_by_cost, split_by_ends, ScratchPool, SweepState};
use crate::weights::WeightingScheme;
use crate::ExecutionBackend;
use minoan_blocking::{BlockCollection, ErMode, IncrementalCollection};
use minoan_rdf::{Dataset, EntityId};
use std::ops::Range;

/// What one [`IncrementalSession::ingest`] call did — the per-batch
/// bookkeeping the bench harness and the subset assertions read.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestReport {
    /// Batch entities ingested by this call.
    pub arrived: usize,
    /// Blocks whose member runs changed (and stayed/became present).
    pub touched_blocks: usize,
    /// Blocks that crossed from zero to positive comparisons.
    pub newly_present_blocks: usize,
    /// Members of touched blocks — the core dirty set.
    pub dirty_entities: usize,
    /// Entities actually re-swept (`batch ∪ grown` for CBS/JS, the dirty
    /// set for ARCS; 0 when the combination fell back).
    pub swept_entities: usize,
    /// Total entities arrived so far, this batch included.
    pub num_arrived: usize,
    /// Whether the delta-sweep ran (`false` = full re-sweep fallback or
    /// a row-cache rebuild was pending).
    pub delta: bool,
    /// Cached answers this ingest dropped from the session's answer
    /// cache (see the [module docs](self#the-answer-cache)).
    pub invalidated: usize,
}

/// An updatable meta-blocking session: ingest description batches,
/// delta-sweep only the affected entities, and read a [`PruneOutcome`]
/// bit-identical to a from-scratch run at any point. See the
/// [module docs](self) for the supported-combination matrix and an
/// example.
pub struct IncrementalSession<'d> {
    collection: IncrementalCollection<'d>,
    scheme: WeightingScheme,
    pruning: Pruning,
    workers: Option<usize>,
    /// Collection snapshot as of the last ingest (or explicit build).
    snapshot: Option<BlockCollection>,
    /// Per-entity incident-edge cache: `rows[a]` holds `(y, w)` for every
    /// comparable neighbour `y` of `a`, with `w` the scheme weight of the
    /// edge — exactly the statistics a streaming sweep of `a` would
    /// produce on the current snapshot. The first `sorted_len[a]` entries
    /// are ascending by `y` and duplicate-free; anything beyond is an
    /// unsorted *mirror tail* of `(y, w)` appends in arrival order
    /// (later wins), folded in by [`normalize_row`] before any read.
    rows: Vec<Vec<(u32, f64)>>,
    /// Length of each row's sorted duplicate-free prefix.
    sorted_len: Vec<u32>,
    /// Whether `rows` matches the current snapshot under the current
    /// scheme. Starts `true`: an empty corpus has all-empty rows.
    rows_valid: bool,
    /// Reusable target-membership mask for [`mirror_append`]; all-false
    /// between ingests.
    mask: Vec<bool>,
    pool: ScratchPool,
    /// Monotone corpus version: bumped by every ingest.
    version: u64,
    /// Query-time criterion (and fallback globals), valid for exactly one
    /// `(version, scheme, pruning)` triple.
    resolve_cache: Option<ResolveCache>,
    /// Whole answers of hot entities, valid at the current version.
    answers: NeighbourhoodCache,
    /// Resolves answered from `answers`.
    cache_hits: u64,
    /// Resolves that had to compute their answer.
    cache_misses: u64,
}

/// Query-time state cached per corpus version by
/// [`IncrementalSession::resolve_entity`]: the pruning rule and — for the
/// sweep-fallback combinations — a snapshot of the weight globals (cloned
/// out so the transient sweep state that computed them can be dropped).
struct ResolveCache {
    version: u64,
    scheme: WeightingScheme,
    pruning: Pruning,
    /// `Some` on the fallback path (per-request sweeps need them);
    /// `None` when the row cache serves the rows directly.
    globals: Option<WeightGlobals>,
    rule: Rule,
}

impl<'d> IncrementalSession<'d> {
    /// An empty session over `dataset` (no entity has arrived yet) with
    /// the [`Session`] defaults: ARCS-weighted WNP.
    pub fn new(dataset: &'d Dataset, mode: ErMode) -> Self {
        let n = dataset.len();
        Self {
            collection: IncrementalCollection::new(dataset, mode),
            scheme: WeightingScheme::Arcs,
            pruning: Pruning::Wnp { reciprocal: false },
            workers: None,
            snapshot: None,
            rows: vec![Vec::new(); n],
            sorted_len: vec![0; n],
            rows_valid: true,
            mask: vec![false; n],
            pool: ScratchPool::new(n),
            version: 0,
            resolve_cache: None,
            answers: NeighbourhoodCache::new(0),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Sets the weighting scheme. Changing it invalidates the row cache;
    /// the next ingest or outcome rebuilds it with one full sweep.
    pub fn scheme(&mut self, scheme: WeightingScheme) -> &mut Self {
        if scheme != self.scheme {
            self.scheme = scheme;
            // An empty corpus has all-empty rows under every scheme, so
            // only a switch after arrivals dirties the cache.
            self.rows_valid = self.collection.num_arrived() == 0;
            self.resolve_cache = None;
            self.answers.clear();
        }
        self
    }

    /// Sets the pruning family (rows are scheme-scoped, so this never
    /// invalidates them; cached answers are dropped).
    pub fn pruning(&mut self, pruning: Pruning) -> &mut Self {
        if pruning != self.pruning {
            self.pruning = pruning;
            self.resolve_cache = None;
            self.answers.clear();
        }
        self
    }

    /// Sets how many resolved answers the session keeps for repeat
    /// resolves (0, the default, keeps none). Drops any held answers.
    pub fn cache_capacity(&mut self, capacity: usize) -> &mut Self {
        self.answers = NeighbourhoodCache::new(capacity);
        self
    }

    /// Pins the worker count of the parallel sweeps. Results never
    /// depend on it; the default is all available parallelism.
    pub fn workers(&mut self, workers: usize) -> &mut Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The collection snapshot as of the last ingest; `None` before the
    /// first one.
    pub fn snapshot(&self) -> Option<&BlockCollection> {
        self.snapshot.as_ref()
    }

    /// Entities ingested so far.
    pub fn num_arrived(&self) -> usize {
        self.collection.num_arrived()
    }

    /// Whether entity `e` has been ingested.
    pub fn has_arrived(&self, e: EntityId) -> bool {
        self.collection.has_arrived(e)
    }

    /// Monotone corpus version: 0 before the first ingest, bumped by
    /// every [`Self::ingest`]. Resolution servers stamp answers with the
    /// version they were computed at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Resolves answered from the answer cache so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Resolves that computed their answer so far (with capacity 0, every
    /// resolve).
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    fn threads(&self) -> usize {
        self.workers.unwrap_or_else(default_threads).max(1)
    }

    /// Whether the current scheme × pruning combination is maintained by
    /// delta-sweeps (see the [module docs](self) for why the others
    /// cannot be).
    pub fn supports_delta(&self) -> bool {
        self.scheme.is_delta_local()
            && matches!(
                self.pruning,
                Pruning::None
                    | Pruning::Wep
                    | Pruning::Cep(_)
                    | Pruning::Wnp { .. }
                    | Pruning::Cnp { .. }
            )
    }

    /// Ingests a batch of not-yet-arrived descriptions: tokenise,
    /// delta-append the block slabs, and patch the row cache by
    /// re-sweeping only the entities whose incident weights can have
    /// changed (see the [module docs](self) for the per-scheme sets).
    /// Cached answers the batch could have changed are dropped.
    ///
    /// # Panics
    /// Panics if any batch entity was already ingested.
    pub fn ingest(&mut self, batch: &[EntityId]) -> IngestReport {
        let threads = self.threads();
        let delta = self.collection.ingest(batch, threads);
        let mut report = IngestReport {
            arrived: batch.len(),
            touched_blocks: delta.touched_blocks.len(),
            newly_present_blocks: delta.newly_present.len(),
            dirty_entities: delta.dirty.len(),
            swept_entities: 0,
            num_arrived: self.collection.num_arrived(),
            delta: false,
            invalidated: 0,
        };
        if !self.supports_delta() {
            // Rows are not maintained for this combination; a later
            // switch back to a supported one must rebuild them.
            self.rows_valid = false;
        } else if self.rows_valid {
            let targets = self.sweep_targets(batch, &delta);
            resweep_rows(
                self.scheme,
                &self.pool,
                &mut self.rows,
                &mut self.sorted_len,
                &delta.snapshot,
                &targets,
                threads,
            );
            if self.scheme != WeightingScheme::Arcs {
                mirror_append(
                    &mut self.rows,
                    &mut self.sorted_len,
                    &targets,
                    &mut self.mask,
                );
            }
            report.swept_entities = targets.len();
            report.delta = true;
        } else {
            // Cold cache (scheme switch or an unsupported interlude):
            // one full sweep re-seeds it, then deltas resume.
            self.reseed(&delta.snapshot, threads);
            report.swept_entities = self.rows.len();
        }
        report.invalidated = if query::locally_invalidatable(self.scheme, self.pruning) {
            // The entities whose rows changed: the dirty set, plus every
            // neighbour of a grown entity under JS (its weights read the
            // grown |B_i|). A grown entity was re-swept, so its row is fresh.
            let grown: &[EntityId] = match self.scheme {
                WeightingScheme::Js => &delta.grown,
                _ => &[],
            };
            let rows = &self.rows;
            let neighbours = grown
                .iter()
                .flat_map(|g| rows[g.index()].iter().map(|&(y, _)| y));
            let dirty = delta.dirty.iter().map(|e| e.0);
            self.answers.invalidate(dirty.chain(neighbours))
        } else {
            self.answers.clear()
        };
        self.version += 1;
        self.resolve_cache = None;
        self.snapshot = Some(delta.snapshot);
        report
    }

    /// The entities this batch re-sweeps. For CBS/JS no edge between two
    /// pre-batch, un-grown entities can change weight, so the set is
    /// `batch ∪ grown` and [`mirror_patch`] carries each fresh weight
    /// into the untargeted neighbour's row. ARCS reweights every pair of
    /// a touched block, so it takes the full dirty set (both endpoints
    /// of every changed edge are in it — no mirror pass needed).
    fn sweep_targets(
        &self,
        batch: &[EntityId],
        delta: &minoan_blocking::DeltaOutcome,
    ) -> Vec<EntityId> {
        if self.scheme == WeightingScheme::Arcs {
            return delta.dirty.clone();
        }
        let mut targets = Vec::with_capacity(batch.len() + delta.grown.len());
        targets.extend_from_slice(batch);
        targets.extend_from_slice(&delta.grown);
        targets.sort_unstable();
        targets.dedup();
        targets
    }

    /// Assembles the pruned comparisons of the current merged corpus —
    /// bit-identical to a from-scratch [`Session`] run on the same
    /// collection. Delta-supported combinations run the pruning core over
    /// the row cache; the rest re-sweep the snapshot through a streaming
    /// session.
    pub fn outcome(&mut self) -> PruneOutcome {
        let threads = self.threads();
        let snapshot = match self.snapshot.take() {
            Some(s) => s,
            None => self.collection.snapshot(threads),
        };
        let pruned = if self.supports_delta() {
            self.refresh_rows(&snapshot, threads);
            let rows = CachedRows(&self.rows);
            prune::run(
                &rows,
                &rows.ranges(threads),
                &self.pruning,
                self.scheme,
                rows.corpus(&snapshot),
            )
        } else {
            Session::new(&snapshot)
                .scheme(self.scheme)
                .pruning(self.pruning)
                .backend(ExecutionBackend::Streaming)
                .workers(threads)
                .run()
                .pruned
        };
        self.snapshot = Some(snapshot);
        PruneOutcome {
            pruned,
            report: JobReport::default(),
        }
    }

    /// Resolves one entity against the current merged corpus: the
    /// comparisons [`Self::outcome`] would keep for it — same pairs,
    /// same order, same f64 weight bits — without assembling (or
    /// re-sweeping) the whole outcome.
    ///
    /// Delta-supported combinations answer from the patched row cache.
    /// The fallback combinations (ECBS/EJS, BLAST, supervised) sweep
    /// the queried neighbourhood on the snapshot. Either way the pruning
    /// family's *global* inputs (WEP's threshold, CEP's top-k bar, CNP's
    /// default `k`, the supervised extractor) are built once per
    /// ingested version and reused by every resolve against it. With a
    /// [cache capacity](Self::cache_capacity), a repeat resolve of a
    /// still-valid entity is answered from the cache without a sweep.
    ///
    /// ```
    /// use minoan_blocking::ErMode;
    /// use minoan_datagen::{generate, profiles};
    /// use minoan_metablocking::{IncrementalSession, Pruning, WeightingScheme};
    /// use minoan_rdf::EntityId;
    ///
    /// let g = generate(&profiles::center_dense(60, 3));
    /// let mut session = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
    /// session
    ///     .scheme(WeightingScheme::Js)
    ///     .pruning(Pruning::Wnp { reciprocal: false });
    /// let ids: Vec<EntityId> = (0..g.dataset.len() as u32).map(EntityId).collect();
    /// session.ingest(&ids);
    ///
    /// let e = EntityId(7);
    /// let resolved = session.resolve_entity(e);
    /// let incident: Vec<_> = session
    ///     .outcome()
    ///     .pairs()
    ///     .iter()
    ///     .filter(|p| p.a == e || p.b == e)
    ///     .copied()
    ///     .collect();
    /// assert_eq!(resolved.matches, incident);
    /// ```
    pub fn resolve_entity(&mut self, entity: EntityId) -> ResolvedEntity {
        assert!(
            (entity.0 as usize) < self.rows.len(),
            "resolve_entity: entity id out of range"
        );
        if let Some(hit) = self.answers.get(entity) {
            self.cache_hits += 1;
            return hit.clone();
        }
        self.cache_misses += 1;
        let resolved = self.compute_entity(entity);
        self.answers.insert(&resolved);
        resolved
    }

    /// [`Self::resolve_entity`] without the answer cache.
    fn compute_entity(&mut self, entity: EntityId) -> ResolvedEntity {
        let threads = self.threads();
        if self.snapshot.is_none() {
            self.snapshot = Some(self.collection.snapshot(threads));
        }
        let current = self.resolve_cache.as_ref().is_some_and(|c| {
            c.version == self.version && c.scheme == self.scheme && c.pruning == self.pruning
        });
        if !current {
            self.rebuild_resolve_cache(threads);
        }
        let cache = self.resolve_cache.as_ref().expect("cache just ensured");
        match &cache.globals {
            None => query::resolve(&CachedRows(&self.rows), entity, &cache.rule),
            Some(globals) => {
                let snapshot = self.snapshot.as_ref().expect("snapshot just ensured");
                let weights = self.pruning.weights(self.scheme);
                query::resolve_swept(snapshot, globals, &self.pool, weights, &cache.rule, entity)
            }
        }
    }

    /// Rebuilds the per-version query-time state. Delta-supported
    /// combinations refresh the row cache and run the rule's criterion
    /// step over it; the rest run it on a transient sweep state over the
    /// snapshot and keep a clone of its globals for per-request sweeps.
    fn rebuild_resolve_cache(&mut self, threads: usize) {
        let snapshot = self.snapshot.take().expect("snapshot ensured by caller");
        let (globals, rule) = if self.supports_delta() {
            self.refresh_rows(&snapshot, threads);
            let rows = CachedRows(&self.rows);
            let corpus = rows.corpus(&snapshot);
            (
                None,
                Rule::build(&self.pruning, &rows, &rows.ranges(threads), corpus),
            )
        } else {
            let mut st = SweepState::new(&snapshot);
            let rule = st.rule(self.scheme, &self.pruning, threads);
            (Some(st.globals().clone()), rule)
        };
        self.snapshot = Some(snapshot);
        self.resolve_cache = Some(ResolveCache {
            version: self.version,
            scheme: self.scheme,
            pruning: self.pruning,
            globals,
            rule,
        });
    }

    /// Makes the row cache readable as rows: re-seeds it with one full
    /// sweep if a scheme switch (or an unsupported interlude) left it
    /// cold, then folds every outstanding mirror tail into its sorted
    /// prefix.
    fn refresh_rows(&mut self, snapshot: &BlockCollection, threads: usize) {
        if !self.rows_valid {
            self.reseed(snapshot, threads);
        }
        for (row, s) in self.rows.iter_mut().zip(self.sorted_len.iter_mut()) {
            if (*s as usize) < row.len() {
                normalize_row(row, *s as usize);
                *s = row.len() as u32;
            }
        }
    }

    /// One full sweep re-seeding every cached row.
    fn reseed(&mut self, snapshot: &BlockCollection, threads: usize) {
        let all: Vec<EntityId> = (0..self.rows.len() as u32).map(EntityId).collect();
        resweep_rows(
            self.scheme,
            &self.pool,
            &mut self.rows,
            &mut self.sorted_len,
            snapshot,
            &all,
            threads,
        );
        self.rows_valid = true;
    }
}

/// The incremental backend's row producer: the patched row cache itself,
/// read in place. Valid only after [`IncrementalSession::refresh_rows`],
/// so each row is sorted and duplicate-free — the shape a fresh sweep
/// produces.
struct CachedRows<'r>(&'r [Vec<(u32, f64)>]);

impl CachedRows<'_> {
    /// Cost-balanced entity ranges for `threads` workers (cost: row
    /// length).
    fn ranges(&self, threads: usize) -> Vec<Range<usize>> {
        let costs: Vec<u64> = self.0.iter().map(|r| r.len() as u64 + 1).collect();
        partition_by_cost(&costs, threads)
    }

    /// The cardinality defaults' aggregates, read off the rows.
    fn corpus(&self, snapshot: &BlockCollection) -> Corpus {
        Corpus {
            total_assignments: snapshot.total_assignments(),
            active_nodes: self.0.iter().filter(|r| !r.is_empty()).count(),
        }
    }
}

impl Rows<f64> for CachedRows<'_> {
    fn visit(&self, range: Range<usize>, forward: bool, f: &mut Visit<'_, f64>) {
        for a in range {
            let row = &self.0[a][..];
            let row = if forward {
                &row[row.partition_point(|&(y, _)| y <= a as u32)..]
            } else {
                row
            };
            if !row.is_empty() {
                f(a as u32, row);
            }
        }
    }
}

/// Re-sweeps `targets` on `snapshot` and installs their fresh rows —
/// cost-balanced over scoped worker threads, scratches from `pool`. Row
/// contents never depend on the partitioning: each row is one entity's
/// serial sweep.
fn resweep_rows(
    scheme: WeightingScheme,
    pool: &ScratchPool,
    rows: &mut [Vec<(u32, f64)>],
    sorted_len: &mut [u32],
    snapshot: &BlockCollection,
    targets: &[EntityId],
    threads: usize,
) {
    if targets.is_empty() {
        return;
    }
    let costs: Vec<u64> = targets
        .iter()
        .map(|&e| {
            snapshot
                .entity_blocks(e)
                .iter()
                .map(|&b| snapshot.block_len(b) as u64)
                .sum()
        })
        .collect();
    let ranges = partition_by_cost(&costs, threads.max(1));
    let mut fresh: Vec<Vec<(u32, f64)>> = vec![Vec::new(); targets.len()];
    let weights = Weights::Scheme(scheme);
    {
        let globals = WeightGlobals::basic(snapshot);
        let globals = &globals;
        let chunks = split_by_ends(&mut fresh, ranges.iter().map(|r| r.end));
        std::thread::scope(|s| {
            for (r, chunk) in ranges.iter().zip(chunks) {
                let r = r.clone();
                s.spawn(move || {
                    pool.with(|scratch| {
                        for i in r.clone() {
                            let e = targets[i].0;
                            scratch.sweep(snapshot, EntityId(e));
                            chunk[i - r.start].extend(scratch.neighbours().iter().map(|&y| {
                                let (lo, hi) = if e < y { (e, y) } else { (y, e) };
                                (y, weights.of_sweep(scratch, globals, y, lo, hi))
                            }));
                        }
                    });
                });
            }
        });
    }
    for (i, &e) in targets.iter().enumerate() {
        rows[e.index()] = std::mem::take(&mut fresh[i]);
        sorted_len[e.index()] = rows[e.index()].len() as u32;
    }
}

/// Carries the freshly swept `(target, neighbour)` weights into the rows
/// of neighbours that were *not* re-swept themselves: every entry
/// `(y, w)` of a target's fresh row with `y` outside the target set is
/// **appended** to `rows[y]`'s unsorted mirror tail as `(t, w)` — O(1)
/// per changed edge, the information-theoretic floor. Nothing sorted is
/// rebuilt here: tails fold into the sorted prefix lazily at the next
/// read ([`normalize_row`]), or eagerly once a tail outgrows its prefix,
/// which amortises every fold to O(1) per append and bounds a row's
/// memory to ~2× its folded size. (Both eager alternatives are
/// quadratic per stream on dense neighbourhoods: per-edge `Vec::insert`
/// memmoves the tail once per new edge, and a per-batch sorted merge
/// rebuilds every mirror-receiving row once per batch.)
///
/// Edges never disappear under CBS/JS (blocks only gain members), so
/// append with later-wins replay is exhaustive, and the weight bits are
/// endpoint-symmetric by construction: CBS is the shared-block count and
/// JS normalises the endpoint block counts lo/hi before the one
/// division, so `y`'s own sweep would produce the identical f64.
/// `mask` is a reusable all-false scratch; it is restored before return.
fn mirror_append(
    rows: &mut [Vec<(u32, f64)>],
    sorted_len: &mut [u32],
    targets: &[EntityId],
    mask: &mut [bool],
) {
    for &t in targets {
        mask[t.index()] = true;
    }
    for &t in targets {
        let row = std::mem::take(&mut rows[t.index()]);
        for &(y, w) in &row {
            if mask[y as usize] {
                continue;
            }
            let mirror = &mut rows[y as usize];
            mirror.push((t.0, w));
            let sorted = sorted_len[y as usize] as usize;
            if mirror.len() - sorted >= sorted.max(64) {
                normalize_row(mirror, sorted);
                sorted_len[y as usize] = mirror.len() as u32;
            }
        }
        rows[t.index()] = row;
    }
    for &t in targets {
        mask[t.index()] = false;
    }
}

/// Folds a row's mirror tail (`row[sorted..]`, append order) into its
/// sorted duplicate-free prefix: the tail is stable-sorted by neighbour
/// id, deduplicated keeping the *latest* append of each edge (mirrors
/// replay weight updates in arrival order), and merged with the prefix,
/// fresh weights overwriting stale ones.
fn normalize_row(row: &mut Vec<(u32, f64)>, sorted: usize) {
    let mut tail = row.split_off(sorted);
    // Stable by id: equal ids keep append order, so the last one is the
    // most recent weight.
    tail.sort_by_key(|e| e.0);
    let prefix = std::mem::take(row);
    row.reserve(prefix.len() + tail.len());
    let mut pi = 0;
    let mut ti = 0;
    while ti < tail.len() {
        let (y, mut w) = tail[ti];
        ti += 1;
        while ti < tail.len() && tail[ti].0 == y {
            w = tail[ti].1;
            ti += 1;
        }
        while pi < prefix.len() && prefix[pi].0 < y {
            row.push(prefix[pi]);
            pi += 1;
        }
        if pi < prefix.len() && prefix[pi].0 == y {
            pi += 1;
        }
        row.push((y, w));
    }
    row.extend_from_slice(&prefix[pi..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionBackend, Session};
    use minoan_blocking::builders::token_blocking;
    use minoan_datagen::{generate, profiles};

    fn assert_same(got: &PruneOutcome, want: &PruneOutcome, label: &str) {
        crate::assert_bit_identical(&got.pruned, &want.pruned, label);
    }

    fn ids(n: usize) -> Vec<EntityId> {
        (0..n as u32).map(EntityId).collect()
    }

    #[test]
    fn fully_ingested_matches_batch_token_blocking() {
        let world = generate(&profiles::center_dense(80, 5));
        let all = ids(world.dataset.len());
        for mode in [ErMode::CleanClean, ErMode::Dirty] {
            let mut inc = IncrementalSession::new(&world.dataset, mode);
            for batch in all.chunks(16) {
                inc.ingest(batch);
            }
            let got = inc.outcome();
            let blocks = token_blocking(&world.dataset, mode);
            let want = Session::new(&blocks)
                .backend(ExecutionBackend::Materialized)
                .run();
            assert_same(&got, &want, &format!("{mode:?}: merged vs batch"));
        }
    }

    #[test]
    fn scheme_switches_rebuild_the_row_cache_and_stay_correct() {
        let world = generate(&profiles::center_dense(60, 9));
        let all = ids(world.dataset.len());
        let (first, rest) = all.split_at(all.len() / 2);
        let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
        inc.scheme(WeightingScheme::Cbs);
        inc.ingest(first);
        inc.outcome();
        // Switch schemes mid-stream: the next ingest re-seeds the cache
        // with one full sweep, then delta-sweeps resume.
        inc.scheme(WeightingScheme::Js);
        let report = inc.ingest(rest);
        assert!(!report.delta, "first ingest after a switch re-seeds");
        assert_eq!(report.swept_entities, world.dataset.len());
        let report = inc.ingest(&[]);
        assert!(report.delta, "deltas resume after the re-seed");
        let got = inc.outcome();
        let snap = inc.snapshot().expect("snapshot exists after ingest");
        let want = Session::new(snap)
            .scheme(WeightingScheme::Js)
            .backend(ExecutionBackend::Streaming)
            .run();
        assert_same(&got, &want, "post-switch JS");
    }

    #[test]
    fn outcome_before_any_ingest_is_empty() {
        let world = generate(&profiles::center_dense(30, 3));
        let mut inc = IncrementalSession::new(&world.dataset, ErMode::CleanClean);
        let out = inc.outcome();
        assert!(out.pairs().is_empty());
        assert_eq!(out.input_edges(), 0);
        assert!(inc.snapshot().is_some(), "outcome materialises a snapshot");
    }
}
