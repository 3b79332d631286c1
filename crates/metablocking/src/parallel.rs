//! Parallel meta-blocking on the MapReduce substrate (reference \[4\]) —
//! the MapReduce arm of [`Session`](crate::Session).
//!
//! Both of the paper's strategies are reproduced, and they differ in what
//! gets shuffled:
//!
//! * **edge-based** ([`parallel_edge_weights`]): map over *blocks*
//!   emitting one record per comparison occurrence keyed by the pair; the
//!   reducer aggregates each pair's co-occurrence statistics (CBS count,
//!   ARCS sum) so every edge weight is computed exactly once — the
//!   repeated-comparison elimination happens in the shuffle. Shuffle
//!   volume: `Σ_b ‖b‖` records — one per pair *occurrence*, which on token
//!   blocking is typically an order of magnitude above the distinct-edge
//!   count `|V|`. Kept as the measured baseline.
//! * **entity-based** (every session run on this backend): map over
//!   contiguous *entity ranges*, build each entity's row with the
//!   streaming backend's row producer (the same epoch-reset sweep, drawn
//!   from the session's shared scratch pool), and emit **at most one
//!   record per entity row** keyed by the entity; reducers apply the
//!   pruning core's decision to the rows they own. Where a criterion
//!   folds, the fold happens map-side and the shuffled record shrinks
//!   further: WEP's sum job ships one scalar per entity, BLAST's one row
//!   bar per entity, CEP one bounded top-k and the supervised maxima one
//!   7-float vector per map split. Shuffle volume: at most `|E|` records
//!   (entities with ≥ 1 neighbour) per row job plus at most `2·|kept|`
//!   tiny records for the node-centric vote job — per-occurrence
//!   shuffling never happens, which is exactly why the paper prefers this
//!   strategy at scale.
//!
//! The folds and decisions are the pruning core's own
//! ([`prune`](mod@crate::prune)), so results are **bit-identical** to the
//! materialised and streaming backends at *any* worker count —
//! `tests/parallel_consistency.rs` asserts the full scheme × family ×
//! worker matrix and pins every family's job labels and shuffle counts.
//! Each run returns its per-job [`JobStats`] (via [`JobReport`], surfaced
//! on [`PruneOutcome::report`](crate::PruneOutcome)) so the
//! shuffle-volume gap between the two strategies is measurable
//! (`BENCH_metablocking.json` records it).

use crate::kernel::{self, normalised, Weights};
use crate::prune::{self, Cut, PrunedComparisons, Pruning, Rows, Rule, WeightedPair};
use crate::supervised::{self, FeatureExtractor, Features};
use crate::sweep::{self, SweepState};
use crate::weights::WeightingScheme;
use minoan_blocking::BlockCollection;
use minoan_common::TopK;
use minoan_mapreduce::{Engine, JobStats};
use minoan_rdf::EntityId;
use std::ops::Range;

/// Counter name: forward (`a < b`) entries the map tasks saw — the
/// distinct-edge count `|V|` of a run.
const FWD_EDGES: &str = "forward_edges";

/// Per-job execution statistics of one meta-blocking MapReduce run
/// (a run is one to three chained jobs: optional counting, weighting +
/// local criterion, optional vote combination).
#[derive(Clone, Debug, Default)]
pub struct JobReport {
    /// `(job label, stats)` in execution order.
    pub jobs: Vec<(&'static str, JobStats)>,
}

impl JobReport {
    fn push(&mut self, label: &'static str, stats: JobStats) {
        self.jobs.push((label, stats));
    }

    /// Total shuffled records across all jobs — the strategy's
    /// intermediate-pair volume (one record per pair occurrence for the
    /// edge-based jobs, at most one per entity neighbourhood for the
    /// entity-based ones).
    pub fn shuffled_records(&self) -> usize {
        self.jobs.iter().map(|(_, s)| s.intermediate_pairs).sum()
    }

    /// Total measured wall time across all jobs, nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.jobs.iter().map(|(_, s)| s.total_nanos()).sum()
    }

    /// Modeled makespan on `workers` parallel workers: the chained jobs'
    /// [`JobStats::modeled_nanos`] summed (jobs are barriers).
    pub fn modeled_nanos(&self, workers: usize) -> u64 {
        self.jobs
            .iter()
            .map(|(_, s)| s.modeled_nanos(workers))
            .sum()
    }
}

/// Contiguous-range partitioner for entity keys: reducer `p` owns the
/// `p`-th slice of the id space, mirroring the range partitioner the
/// paper's entity-based jobs use (locality of the per-node state).
fn entity_partitioner(n: usize) -> impl Fn(&u32, usize) -> usize + Sync {
    let n = n.max(1);
    move |&a: &u32, parts: usize| (a as usize * parts) / n
}

/// Range partitioner for pair keys, by smaller endpoint.
fn pair_partitioner(n: usize) -> impl Fn(&(EntityId, EntityId), usize) -> usize + Sync {
    let n = n.max(1);
    move |k: &(EntityId, EntityId), parts: usize| (k.0.index() * parts) / n
}

/// The entity-partitioned jobs of one run: the engine, the cost-balanced
/// map-input splits (a few per worker so the engine's greedy scheduler
/// can smooth skew) and the entity count the partitioners divide.
struct Jobs<'a> {
    engine: &'a Engine,
    splits: Vec<Range<usize>>,
    n: usize,
}

impl<'a> Jobs<'a> {
    fn new(st: &mut SweepState<'_>, engine: &'a Engine) -> Self {
        Self {
            engine,
            splits: st.ranges(engine.workers() * 4),
            n: st.collection.num_entities(),
        }
    }

    /// An entity-keyed job over the map-side rows: each map task visits
    /// its split's rows and emits at most one record per entity (`map`'s
    /// answer); each reducer folds the one record an entity sends. Returns
    /// the reduce output (ascending by entity), the forward entries the
    /// maps saw, and the job stats.
    fn entity<E, V, O>(
        &self,
        rows: &dyn Rows<E>,
        forward: bool,
        map: impl Fn(u32, &[(u32, E)]) -> Option<V> + Sync,
        reduce: impl Fn(u32, V, &mut Vec<O>) + Sync,
    ) -> (Vec<O>, u64, JobStats)
    where
        V: Send,
        O: Send,
    {
        let result = self.engine.run_partitioned(
            self.splits.clone(),
            entity_partitioner(self.n),
            |range, emit, c| {
                let mut edges = 0;
                rows.visit(range.clone(), forward, &mut |a, row| {
                    edges += prune::forward_len(a, row);
                    if let Some(record) = map(a, row) {
                        emit(a, record);
                    }
                });
                c.add(FWD_EDGES, edges);
            },
            |&a, records, out, _c| {
                for record in records.drain(..) {
                    reduce(a, record, out);
                }
            },
        );
        (result.output, result.counters.get(FWD_EDGES), result.stats)
    }

    /// A job whose map tasks each fold their whole split's forward rows
    /// into one record (`finish` drops an empty one), shuffled under a
    /// single key to the lone reducer, which merges them.
    fn split<E, A, V, O>(
        &self,
        rows: &dyn Rows<E>,
        init: impl Fn() -> A + Sync,
        step: impl Fn(&mut A, u32, &[(u32, E)]) + Sync,
        finish: impl Fn(A, u64) -> Option<V> + Sync,
        merge: impl Fn(&mut Vec<V>, &mut Vec<O>) + Sync,
    ) -> (Vec<O>, u64, JobStats)
    where
        V: Send,
        O: Send,
    {
        let result = self.engine.run_partitioned(
            self.splits.clone(),
            |_: &u8, _parts| 0,
            |range, emit, c| {
                let mut acc = init();
                let mut edges = 0;
                rows.visit(range.clone(), true, &mut |a, row| {
                    edges += row.len() as u64;
                    step(&mut acc, a, row);
                });
                c.add(FWD_EDGES, edges);
                if let Some(record) = finish(acc, edges) {
                    emit(0u8, record);
                }
            },
            |_key, records, out, _c| merge(records, out),
        );
        (result.output, result.counters.get(FWD_EDGES), result.stats)
    }
}

/// Ensures the globals tier the run needs. The basic tier is free; the
/// counted tier (degrees, |V|, active nodes) runs as one
/// entity-partitioned counting job — shuffling one `(entity, degree)`
/// record per active entity — unless the session already counted (in
/// which case no job runs and no stats are reported).
fn ensure_globals_job(
    st: &mut SweepState<'_>,
    weights: Weights,
    counted: bool,
    engine: &Engine,
    report: &mut JobReport,
) {
    st.ensure_basic();
    if !(weights.needs_counts() || counted) || st.is_counted() {
        return;
    }
    let jobs = Jobs::new(st, engine);
    let rows = sweep::neighbour_rows(st.collection, &st.pool);
    let (output, _, stats) = jobs.entity(
        &rows,
        false,
        |_, row| Some(row.len() as u32),
        |a, degree, out| out.push((a, degree)),
    );
    report.push("count", stats);
    let mut degrees = vec![0u32; jobs.n];
    for (a, degree) in output {
        degrees[a as usize] = degree;
    }
    st.apply_count(degrees);
}

/// Runs `pruning` under `scheme` as entity-partitioned jobs: the rows are
/// built map-side, the pruning core's criterion folds and decisions run
/// in the map tasks and reducers, and the job chain per family is:
///
/// * None — `weighted-edges`: forward rows, every entry kept;
/// * WEP — `wep/partial-sums` (one row sum per entity) then `wep/filter`;
/// * CEP — `cep/local-topk`: one bounded top-k per split, merged;
/// * WNP / CNP — `…/neighbourhoods` (full rows, each reducer casts its
///   row's votes) then `…/votes` (the distributed `combine_votes`);
/// * BLAST — `blast/local-maxima` (one row bar per entity) then
///   `blast/filter` (forward rows, kept when either endpoint's bar
///   admits them — the union vote, exchanging bars instead of votes);
/// * supervised — `supervised/feature-maxima` (one vector per split)
///   then `supervised/score` (forward rows scored map-side).
///
/// A `count` job runs first whenever EJS weights or the criterion need
/// the counted corpus aggregates.
pub(crate) fn run(
    st: &mut SweepState<'_>,
    scheme: WeightingScheme,
    pruning: &Pruning,
    engine: &Engine,
) -> (PrunedComparisons, JobReport) {
    let mut report = JobReport::default();
    let weights = pruning.weights(scheme);
    ensure_globals_job(st, weights, pruning.needs_counts(), engine, &mut report);
    let label = pruning.label(scheme);
    let corpus = st.corpus();
    let zero_k = match *pruning {
        Pruning::Cep(k) => corpus.cep_k(k) == 0,
        Pruning::Cnp { k, .. } => corpus.cnp_k(k) == 0,
        _ => false,
    };
    if zero_k {
        // Degenerate cardinality: count the edges for the stats, keep
        // nothing.
        ensure_globals_job(st, weights, true, engine, &mut report);
        let edges = st.globals().num_edges;
        return (
            PrunedComparisons::from_weighted_pairs(Vec::new(), label, edges),
            report,
        );
    }
    let jobs = Jobs::new(st, engine);
    let (collection, globals, pool) = (st.collection, st.globals(), &st.pool);
    let rows = sweep::weight_rows(collection, globals, pool, weights);
    let whole_row = |_: u32, row: &[(u32, f64)]| Some(row.to_vec());
    let (kept, edges) = match *pruning {
        Pruning::None => {
            let (pairs, edges, stats) = jobs.entity(&rows, true, whole_row, |a, row, out| {
                Rule::None.decide(a, &row, out)
            });
            report.push("weighted-edges", stats);
            return (
                PrunedComparisons {
                    pairs,
                    scheme: label,
                    input_edges: edges as usize,
                },
                report,
            );
        }
        Pruning::Wep => {
            let (sums, edges, stats) = jobs.entity(
                &rows,
                true,
                |a, row| Some(prune::wep_row(a, row)).filter(|&(_, positive)| positive > 0),
                |a, sum, out| out.push((a, sum)),
            );
            report.push("wep/partial-sums", stats);
            let rule = Rule::Wep(prune::wep_threshold(jobs.n, sums));
            let (kept, _, stats) = jobs.entity(&rows, true, whole_row, |a, row, out| {
                rule.decide(a, &row, out)
            });
            report.push("wep/filter", stats);
            (kept, edges)
        }
        Pruning::Cep(k) => {
            let k = corpus.cep_k(k);
            let (kept, edges, stats) = jobs.split(
                &rows,
                || TopK::new(k),
                prune::cep_fold,
                |top, _| Some(top.into_sorted_vec()).filter(|local| !local.is_empty()),
                |locals, out| out.extend(prune::key_pairs(prune::cep_merge(k, locals.drain(..)))),
            );
            report.push("cep/local-topk", stats);
            (kept, edges)
        }
        Pruning::Wnp { .. } | Pruning::Cnp { .. } => {
            let rule = Rule::local(pruning, corpus).expect("node-centric rules need no pass");
            let (rows_label, votes_label) = match pruning {
                Pruning::Wnp { .. } => ("wnp/neighbourhoods", "wnp/votes"),
                _ => ("cnp/neighbourhoods", "cnp/votes"),
            };
            let (votes, edges, stats) = jobs.entity(&rows, false, whole_row, |a, row, out| {
                rule.decide(a, &row, out)
            });
            report.push(rows_label, stats);
            let reciprocal = rule.node_centric() == Some(true);
            let (kept, stats) = vote_job(votes, reciprocal, jobs.n, engine);
            report.push(votes_label, stats);
            (kept, edges)
        }
        Pruning::Blast { .. } => {
            let rule = Rule::local(pruning, corpus).expect("BLAST needs no criterion pass");
            let (cuts, _, stats) = jobs.entity(
                &rows,
                false,
                |a, row| Some(rule.cut(a, row)),
                |a, cut, out| out.push((a, cut)),
            );
            report.push("blast/local-maxima", stats);
            // Entities without a row are nobody's endpoint; their bar is
            // never read.
            let mut bars = vec![Cut::Weight(0.0); jobs.n];
            for (a, cut) in cuts {
                bars[a as usize] = cut;
            }
            let (kept, edges, stats) = jobs.entity(&rows, true, whole_row, |a, row, out| {
                out.extend(
                    row.iter()
                        .filter(|&&(y, w)| {
                            bars[a as usize].admits(a, y, w) || bars[y as usize].admits(a, y, w)
                        })
                        .map(|&(y, w)| normalised(a, y, w)),
                )
            });
            report.push("blast/filter", stats);
            (kept, edges)
        }
        Pruning::Supervised(model) => {
            let rows = sweep::feature_rows(collection, globals, pool);
            let (maxima, _, stats) = jobs.split(
                &rows,
                Features::default,
                |max, _, row| prune::feature_max_fold(max, row),
                |max, edges| Some(max).filter(|_| edges > 0),
                |locals, out| {
                    let mut max = Features::default();
                    for local in locals.iter() {
                        supervised::merge_feature_max(&mut max, local);
                    }
                    out.push(max);
                },
            );
            report.push("supervised/feature-maxima", stats);
            let rule = Rule::Supervised {
                extractor: FeatureExtractor::from_max(maxima.first().copied().unwrap_or_default()),
                model,
            };
            let (kept, edges, stats) = jobs.entity(
                &rows,
                true,
                |a, row| {
                    let mut kept = Vec::new();
                    rule.decide_features(a, row, &mut kept);
                    Some(kept).filter(|kept| !kept.is_empty())
                },
                |_, kept, out| out.extend(kept),
            );
            report.push("supervised/score", stats);
            (kept, edges)
        }
    };
    (
        PrunedComparisons::from_weighted_pairs(kept, label, edges as usize),
        report,
    )
}

/// The vote-combination job of the node-centric pruners: re-key each
/// locally-kept pair by the pair itself and keep it when enough endpoints
/// voted for it (1 under union, 2 under reciprocal semantics). Output is
/// ordered by pair, so the result is deterministic at any worker count.
fn vote_job(
    kept: Vec<WeightedPair>,
    reciprocal: bool,
    n: usize,
    engine: &Engine,
) -> (Vec<WeightedPair>, JobStats) {
    let need = if reciprocal { 2 } else { 1 };
    let result = engine.run_partitioned(
        kept,
        pair_partitioner(n),
        |p, emit, _c| emit((p.a, p.b), p.weight),
        move |&(a, b), ws, out, _c| {
            if ws.len() >= need {
                // Both endpoints computed the weight through the kernel in
                // normalised endpoint order, so the votes carry identical
                // bits; the first is as good as any.
                out.push(WeightedPair {
                    a,
                    b,
                    weight: ws[0],
                });
            }
        },
    );
    (result.output, result.stats)
}

// ---------------------------------------------------------------------------
// Edge-based strategy (the shuffle-heavy baseline).
// ---------------------------------------------------------------------------

/// Edge statistics computed by the edge-based MapReduce job.
#[derive(Clone, Copy, Debug)]
struct EdgeStats {
    cbs: u32,
    arcs: f64,
}

/// Runs the edge-based weighting job: one weighted record per distinct
/// comparable pair, sorted by pair. Exactly the blocking-graph edges.
/// Kept (visible) as the measured per-occurrence-shuffle baseline the
/// entity-based strategy is compared against.
pub fn parallel_edge_weights(
    collection: &BlockCollection,
    scheme: WeightingScheme,
    engine: &Engine,
) -> Vec<WeightedPair> {
    parallel_edge_weights_with_stats(collection, scheme, engine).0
}

/// As [`parallel_edge_weights`], also returning the job's execution
/// statistics — its `intermediate_pairs` is the per-occurrence shuffle
/// volume the entity-based strategy avoids.
pub fn parallel_edge_weights_with_stats(
    collection: &BlockCollection,
    scheme: WeightingScheme,
    engine: &Engine,
) -> (Vec<WeightedPair>, JobStats) {
    // Per-entity stats are cheap and shared read-only with all tasks
    // (the paper's preprocessing job materialises the same information).
    let n = collection.num_entities();
    let blocks_of = kernel::blocks_of(collection);
    let num_blocks = collection.len();

    let block_ids: Vec<u32> = (0..collection.len() as u32).collect();
    let result = engine.run(
        block_ids,
        |&bid, emit| {
            let b = collection.block(minoan_blocking::BlockId(bid));
            let card = (b.comparisons as f64).max(1.0);
            for (i, &x) in b.entities.iter().enumerate() {
                for &y in &b.entities[i + 1..] {
                    if collection.comparable(x, y) {
                        emit((x.min(y), x.max(y)), 1.0 / card);
                    }
                }
            }
        },
        |&(a, b), arcs_parts, out| {
            let stats = EdgeStats {
                cbs: arcs_parts.len() as u32,
                arcs: arcs_parts.iter().sum(),
            };
            out.push(((a, b), stats));
        },
    );

    let edges = result.output;
    // Degrees (|V_i|) need the distinct-edge view; derive from the job
    // output (this is [4]'s second preprocessing aggregate).
    let mut degree = vec![0u32; n];
    for &((a, b), _) in &edges {
        degree[a.index()] += 1;
        degree[b.index()] += 1;
    }
    let num_edges = edges.len();

    let pairs = edges
        .into_iter()
        .map(|((a, b), st)| {
            let weight = kernel::weight_from_stats(
                scheme,
                st.cbs,
                st.arcs,
                blocks_of[a.index()],
                blocks_of[b.index()],
                num_blocks,
                degree[a.index()] as usize,
                degree[b.index()] as usize,
                num_edges,
            );
            WeightedPair { a, b, weight }
        })
        .collect();
    (pairs, result.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BlockingGraph;
    use crate::{ExecutionBackend, Session};
    use minoan_blocking::builders::token_blocking;
    use minoan_blocking::ErMode;
    use minoan_datagen::{generate, profiles};

    #[test]
    fn parallel_weights_match_serial_graph() {
        let g = generate(&profiles::center_dense(120, 4));
        let blocks = token_blocking(&g.dataset, ErMode::CleanClean);
        let graph = BlockingGraph::build(&blocks);
        for scheme in WeightingScheme::ALL {
            let par = parallel_edge_weights(&blocks, scheme, &Engine::new(4));
            assert_eq!(par.len(), graph.num_edges(), "{scheme:?}");
            // Align by construction: job output is sorted by pair key.
            for (wp, edge) in par.iter().zip(graph.edges()) {
                assert_eq!((wp.a, wp.b), (edge.a, edge.b));
                let serial_w = scheme.weight(&graph, edge);
                assert_eq!(
                    wp.weight.to_bits(),
                    serial_w.to_bits(),
                    "{scheme:?}: {} vs {serial_w}",
                    wp.weight
                );
            }
        }
    }

    #[test]
    fn entity_based_shuffles_less_than_edge_based() {
        let g = generate(&profiles::center_dense(150, 31));
        let blocks = token_blocking(&g.dataset, ErMode::CleanClean);
        let engine = Engine::new(4);
        let (_, edge_stats) =
            parallel_edge_weights_with_stats(&blocks, WeightingScheme::Arcs, &engine);
        let report = Session::new(&blocks)
            .backend(ExecutionBackend::MapReduce)
            .workers(4)
            .run()
            .report;
        // Edge-based: one record per pair occurrence. Entity-based: at
        // most one weighting record per entity plus the kept votes.
        assert!(
            report.shuffled_records() < edge_stats.intermediate_pairs,
            "entity-based must shuffle less: {} vs {}",
            report.shuffled_records(),
            edge_stats.intermediate_pairs
        );
        let weighting_records = report
            .jobs
            .iter()
            .find(|(l, _)| *l == "wnp/neighbourhoods")
            .map(|(_, s)| s.intermediate_pairs)
            .expect("WNP runs a neighbourhood job");
        assert!(
            weighting_records <= blocks.num_entities(),
            "at most one record per entity neighbourhood"
        );
    }
}
