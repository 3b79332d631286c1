//! The pruning core: every meta-blocking family written once, over rows
//! from any backend.
//!
//! Two axes (per the meta-blocking literature):
//! * **weight-based** (WEP, WNP, BLAST) keep edges above a threshold;
//! * **cardinality-based** (CEP, CNP) keep a fixed number of top edges.
//!
//! and two scopes:
//! * **edge-centric** (WEP, CEP, the supervised pruner): one global
//!   criterion, judged on each edge once;
//! * **node-centric** (WNP, CNP, BLAST): a criterion per node
//!   neighbourhood, with a *redundancy* (union — an edge survives if
//!   either endpoint keeps it) or *reciprocal* (intersection — both
//!   endpoints must keep it) variant. BLAST is a union-vote family.
//!
//! Every backend hands this module the same thing: **rows** (`Rows`) —
//! per entity, the sorted `(neighbour, weight)` list of its incident
//! edges (for the supervised pruner, raw feature vectors instead of
//! weights). The materialised backend reads them off the CSR graph, the
//! streaming backend sweeps them on demand, the incremental session keeps
//! them cached, and the MapReduce backend builds them map-side. Each
//! family is then three parts, each written once:
//!
//! 1. **a criterion step** (`Rule::build`) folding the forward entries
//!    (`neighbour > entity`, so each edge is seen once) of all rows into
//!    the family's global input — WEP's positive-weight mean
//!    (`wep_row`), CEP's bounded top-k (`cep_fold`/`cep_merge`),
//!    CNP's default `k`, the supervised feature maxima
//!    (`feature_max_fold`); None, WNP and BLAST have none;
//! 2. **a per-row decision** (`Rule::cut`, `Rule::decide`): the bar a
//!    row's entries must reach — the global threshold or top-k bar for
//!    the edge-centric families, the row's own mean (WNP), top-k bar (CNP)
//!    or `ratio ·` maximum (BLAST) for the node-centric ones;
//! 3. **the shared tail** (`Rule::finish`): the presentation order
//!    (weight descending, ties by pair), then `combine_votes`.
//!
//! Every f64 that decides an edge is therefore computed by one body, in
//! the same order, whichever backend produced the rows — the
//! bit-identity contract.

use crate::graph::BlockingGraph;
use crate::kernel::{combine_votes, normalised, Weights};
use crate::supervised::{self, FeatureExtractor, Features, Perceptron};
use crate::weights::WeightingScheme;
use minoan_common::stats::pairwise_sum;
use minoan_common::{OrdF64, TopK};
use minoan_rdf::EntityId;
use std::cmp::Reverse;
use std::ops::Range;

/// Which pruning family a session run applies — the full catalogue,
/// including BLAST and the supervised pruner, each runnable on every
/// [`ExecutionBackend`](crate::ExecutionBackend).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pruning {
    /// No pruning: every blocking-graph edge survives, weighted, in pair
    /// order (the order the edge slab is sorted in).
    None,
    /// Weighted edge pruning: keep edges at or above the global mean
    /// weight (over positive-weight edges).
    Wep,
    /// Cardinality edge pruning: keep the global top-k edges by weight
    /// (`None` = the literature default `BC / 2`).
    Cep(Option<usize>),
    /// Weighted node pruning; `reciprocal` = intersection variant.
    Wnp {
        /// Both endpoints must retain the edge.
        reciprocal: bool,
    },
    /// Cardinality node pruning; per-node `k` (`None` = default).
    Cnp {
        /// Both endpoints must retain the edge.
        reciprocal: bool,
        /// Per-node cardinality override.
        k: Option<usize>,
    },
    /// BLAST: χ² weighting with loose ratio-of-local-max pruning. The
    /// weighting scheme setting is ignored (χ² replaces it).
    Blast {
        /// Keep edges with weight ≥ `ratio ·` either endpoint's local
        /// maximum; must be in `(0, 1]`.
        ratio: f64,
    },
    /// Supervised pruning with a trained perceptron over the 7-feature
    /// edge vectors. The weighting scheme setting is ignored (all five
    /// schemes enter the feature vector).
    Supervised(Perceptron),
}

impl Pruning {
    /// BLAST at its recommended default keep ratio.
    pub fn blast() -> Self {
        Pruning::Blast {
            ratio: crate::blast::DEFAULT_RATIO,
        }
    }

    /// The unsupervised families at their defaults, for sweep
    /// experiments ([`Pruning::Supervised`] needs a trained model, so it
    /// is not listed).
    pub const FAMILIES: [Pruning; 6] = [
        Pruning::None,
        Pruning::Wep,
        Pruning::Cep(None),
        Pruning::Wnp { reciprocal: false },
        Pruning::Cnp {
            reciprocal: false,
            k: None,
        },
        Pruning::Blast {
            ratio: crate::blast::DEFAULT_RATIO,
        },
    ];

    /// What the family's weight rows carry under `scheme`: BLAST brings
    /// its own χ² weights, every other family the scheme's.
    pub(crate) fn weights(&self, scheme: WeightingScheme) -> Weights {
        match self {
            Pruning::Blast { .. } => Weights::Chi2,
            _ => Weights::Scheme(scheme),
        }
    }

    /// Whether the criterion reads the counted corpus aggregates: the
    /// active-node count (default-`k` CNP) or the node degrees (the
    /// supervised features).
    pub(crate) fn needs_counts(&self) -> bool {
        matches!(self, Pruning::Cnp { k: None, .. } | Pruning::Supervised(_))
    }

    /// The scheme label the outcome reports: BLAST's χ² values and the
    /// supervised sigmoid weights are reported under CBS.
    pub(crate) fn label(&self, scheme: WeightingScheme) -> WeightingScheme {
        match self {
            Pruning::Blast { .. } | Pruning::Supervised(_) => WeightingScheme::Cbs,
            _ => scheme,
        }
    }
}

/// A retained comparison with its evidence weight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightedPair {
    /// Smaller endpoint.
    pub a: EntityId,
    /// Larger endpoint.
    pub b: EntityId,
    /// Weight under the scheme the pruning ran with.
    pub weight: f64,
}

/// The output of a pruning algorithm.
#[derive(Clone, Debug)]
pub struct PrunedComparisons {
    /// Retained pairs, sorted by descending weight (ties by pair id).
    pub pairs: Vec<WeightedPair>,
    /// Scheme the weights were computed with.
    pub scheme: WeightingScheme,
    /// Edges in the input graph (for retention-ratio reporting).
    pub input_edges: usize,
}

impl PrunedComparisons {
    /// Fraction of input edges retained.
    pub fn retention(&self) -> f64 {
        if self.input_edges == 0 {
            0.0
        } else {
            self.pairs.len() as f64 / self.input_edges as f64
        }
    }

    /// Builds the result from already-selected pairs, applying the
    /// presentation order every pruning path shares (see [`present`]).
    pub(crate) fn from_weighted_pairs(
        mut pairs: Vec<WeightedPair>,
        scheme: WeightingScheme,
        input_edges: usize,
    ) -> Self {
        present(&mut pairs);
        Self {
            pairs,
            scheme,
            input_edges,
        }
    }
}

/// The presentation order of pruned pairs: weight descending, ties by
/// pair ascending. A strict order on distinct pairs (equal elements are
/// identical, so an unstable sort is exact), and sorting any subset of a
/// presented list (a resolved entity's incident pairs) reproduces its
/// slice. Kept weights are positive and finite, where `total_cmp` is the
/// numeric order.
pub(crate) fn present(pairs: &mut [WeightedPair]) {
    pairs.sort_unstable_by(|x, y| {
        y.weight
            .total_cmp(&x.weight)
            .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
    });
}

/// Default CEP/CNP cardinality: `K = BC / 2` where BC is the total number
/// of block assignments (the literature's budget: half an assignment's
/// worth of comparisons).
pub fn default_cep_k(graph: &BlockingGraph) -> usize {
    default_cep_k_from(graph.total_assignments())
}

/// The default-CEP-K formula from the raw assignment count. This is 0
/// on empty or single-assignment collections, which keeps nothing.
pub(crate) fn default_cep_k_from(total_assignments: u64) -> usize {
    (total_assignments / 2) as usize
}

/// Default CNP per-node cardinality: `k = max(1, ⌊BC / |E|⌋)` where `|E|`
/// is the number of *active* (blocked) entities.
pub fn default_cnp_k(graph: &BlockingGraph) -> usize {
    default_cnp_k_from(graph.total_assignments(), graph.active_nodes())
}

/// The default-CNP-k formula from raw aggregates.
pub(crate) fn default_cnp_k_from(total_assignments: u64, active_nodes: usize) -> usize {
    ((total_assignments as usize) / active_nodes.max(1)).max(1)
}

/// The corpus aggregates the default cardinalities read.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Corpus {
    /// Total block assignments BC.
    pub(crate) total_assignments: u64,
    /// Entities with at least one neighbour (only read by default-`k`
    /// CNP; backends that have not counted may leave it 0 otherwise).
    pub(crate) active_nodes: usize,
}

impl Corpus {
    /// CEP's cardinality: `k`, or the default `BC / 2`.
    pub(crate) fn cep_k(self, k: Option<usize>) -> usize {
        k.unwrap_or_else(|| default_cep_k_from(self.total_assignments))
    }

    /// CNP's per-node cardinality: `k`, or the default `max(1, BC / |E|)`.
    pub(crate) fn cnp_k(self, k: Option<usize>) -> usize {
        k.unwrap_or_else(|| default_cnp_k_from(self.total_assignments, self.active_nodes))
    }
}

/// The callback a row producer hands each `(entity, row)` to.
pub(crate) type Visit<'f, E> = dyn FnMut(u32, &[(u32, E)]) + 'f;

/// A backend's row producer.
///
/// The row of entity `a` is the list of `(neighbour, entry)` pairs of its
/// incident edges, ascending by neighbour id and duplicate-free — the
/// order the edge slab is sorted in, which is what makes f64 folds over a
/// row agree bitwise across backends. Entries are edge weights (`f64`) or,
/// for the supervised pruner, raw feature vectors; an edge's entry is the
/// same bits at both endpoints.
pub(crate) trait Rows<E>: Sync {
    /// Calls `f(a, row)` for every entity `a` in `range`, ascending, whose
    /// row is non-empty. With `forward`, rows hold only the entries with
    /// neighbour `> a` (every edge exactly once, at its smaller endpoint),
    /// and entities without one are skipped.
    fn visit(&self, range: Range<usize>, forward: bool, f: &mut Visit<'_, E>);
}

/// One full pass over `rows`: each range (a worker's share, ranges on
/// scoped threads) folds its rows into one partial, returned in range
/// order. Partials never depend on how entities were partitioned as long
/// as the caller merges them in order or with an exact merge.
pub(crate) fn fold<E, T, I, S>(
    rows: &dyn Rows<E>,
    ranges: &[Range<usize>],
    forward: bool,
    init: I,
    step: S,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> T + Sync,
    S: Fn(&mut T, u32, &[(u32, E)]) + Sync,
{
    let run = |range: Range<usize>| {
        let mut acc = init();
        rows.visit(range, forward, &mut |a, row| step(&mut acc, a, row));
        acc
    };
    if ranges.len() <= 1 {
        return ranges.iter().map(|r| run(r.clone())).collect();
    }
    let run = &run;
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let r = r.clone();
                s.spawn(move || run(r))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("row pass worker panicked"))
            .collect()
    })
}

/// Entries of `a`'s row with neighbour `> a` — the edges counted at `a`.
pub(crate) fn forward_len<E>(a: u32, row: &[(u32, E)]) -> u64 {
    row.iter().filter(|&&(y, _)| y > a).count() as u64
}

/// The strict total order of the cardinality families: weight, ties to
/// the *earlier* normalised pair. Equal to the materialised `(weight,
/// Reverse(edge rank))` order because the edge slab is sorted by pair.
pub(crate) type Key = (OrdF64, Reverse<(EntityId, EntityId)>);

/// The [`Key`] of the edge `(a, y)` with weight `w`.
pub(crate) fn key(a: u32, y: u32, w: f64) -> Key {
    let p = normalised(a, y, w);
    (OrdF64(w), Reverse((p.a, p.b)))
}

/// The bar a row entry must reach to be kept. Only positive weights are
/// ever kept, whatever the bar.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Cut {
    /// Weights at or above the value.
    Weight(f64),
    /// Entries whose [`Key`] ranks at or above this one (a full top-k).
    Key(Key),
}

impl Cut {
    /// Whether the entry `(a, y)` of weight `w` clears the bar.
    pub(crate) fn admits(self, a: u32, y: u32, w: f64) -> bool {
        w > 0.0
            && match self {
                Cut::Weight(t) => w >= t,
                Cut::Key(bar) => key(a, y, w) >= bar,
            }
    }

    /// The bar of a top-`k` selection holding `len` keys, the smallest
    /// being `smallest`: every positive entry while it is not full (a
    /// zero bar), its smallest key once it is. `k = 0` keeps nothing — no
    /// finite weight reaches an infinite bar.
    fn top_k(k: usize, len: usize, smallest: Option<&Key>) -> Cut {
        match smallest {
            _ if k == 0 => Cut::Weight(f64::INFINITY),
            Some(&bar) if len >= k => Cut::Key(bar),
            _ => Cut::Weight(0.0),
        }
    }
}

/// A pruning family with its criterion resolved: everything its per-row
/// decision reads. Built once per corpus (version) and reused by every
/// full run and query against it.
pub(crate) enum Rule {
    /// Keep every edge, pair-ordered.
    None,
    /// WEP's global threshold.
    Wep(f64),
    /// CEP's global top-k bar.
    Cep(Cut),
    /// WNP: each row's mean.
    Wnp {
        /// Both endpoints must vote.
        reciprocal: bool,
    },
    /// CNP: each row's top-`k`.
    Cnp {
        /// Both endpoints must vote.
        reciprocal: bool,
        /// Per-node cardinality, defaults applied.
        k: usize,
    },
    /// BLAST: `ratio ·` each row's maximum, union votes.
    Blast {
        /// The keep ratio, in `(0, 1]`.
        ratio: f64,
    },
    /// The supervised pruner: normalisation maxima plus the model.
    Supervised {
        /// The fitted normalisation (global feature maxima).
        extractor: FeatureExtractor,
        /// The trained perceptron.
        model: Perceptron,
    },
}

impl Rule {
    /// The rule of a family whose criterion needs no pass over the rows
    /// (None, WNP, CNP, BLAST); `None` for WEP, CEP and the supervised
    /// pruner.
    ///
    /// # Panics
    /// Panics on a BLAST ratio outside `(0, 1]`.
    pub(crate) fn local(pruning: &Pruning, corpus: Corpus) -> Option<Rule> {
        Some(match *pruning {
            Pruning::None => Rule::None,
            Pruning::Wnp { reciprocal } => Rule::Wnp { reciprocal },
            Pruning::Cnp { reciprocal, k } => Rule::Cnp {
                reciprocal,
                k: corpus.cnp_k(k),
            },
            Pruning::Blast { ratio } => {
                assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
                Rule::Blast { ratio }
            }
            Pruning::Wep | Pruning::Cep(_) | Pruning::Supervised(_) => return None,
        })
    }

    /// The criterion step of the weight-row families: folds the forward
    /// entries of every row into the family's global input — WEP's
    /// threshold, CEP's top-k bar — or resolves it without a pass.
    ///
    /// # Panics
    /// Panics for [`Pruning::Supervised`], whose criterion folds feature
    /// rows ([`Rule::supervised`]).
    pub(crate) fn build(
        pruning: &Pruning,
        rows: &dyn Rows<f64>,
        ranges: &[Range<usize>],
        corpus: Corpus,
    ) -> Rule {
        if let Some(rule) = Rule::local(pruning, corpus) {
            return rule;
        }
        match *pruning {
            Pruning::Wep => {
                let partials = fold(rows, ranges, true, Vec::new, |acc, a, row| {
                    let (sum, positive) = wep_row(a, row);
                    if positive > 0 {
                        acc.push((a, (sum, positive)));
                    }
                });
                Rule::Wep(wep_threshold(
                    entities(ranges),
                    partials.into_iter().flatten(),
                ))
            }
            Pruning::Cep(k) => {
                let k = corpus.cep_k(k);
                let (top, _) = cep_top(rows, ranges, k);
                Rule::Cep(Cut::top_k(k, top.len(), top.last()))
            }
            _ => panic!("the supervised criterion folds feature rows, not weights"),
        }
    }

    /// The supervised criterion step: the global per-feature maxima of
    /// the forward feature rows become the extractor's normalisation.
    pub(crate) fn supervised(
        model: Perceptron,
        rows: &dyn Rows<Features>,
        ranges: &[Range<usize>],
    ) -> Rule {
        let partials = fold(rows, ranges, true, Features::default, |max, _, row| {
            feature_max_fold(max, row)
        });
        let mut max = Features::default();
        for local in &partials {
            supervised::merge_feature_max(&mut max, local);
        }
        Rule::Supervised {
            extractor: FeatureExtractor::from_max(max),
            model,
        }
    }

    /// `Some(reciprocal)` for the node-centric families, whose rows vote;
    /// `None` for the edge-centric ones, which judge each edge once.
    pub(crate) fn node_centric(&self) -> Option<bool> {
        match *self {
            Rule::Wnp { reciprocal } | Rule::Cnp { reciprocal, .. } => Some(reciprocal),
            Rule::Blast { .. } => Some(false),
            _ => None,
        }
    }

    /// The bar `a`'s row must reach: the global one of an edge-centric
    /// family, or — the per-row decision of the node-centric families —
    /// the row's mean (WNP), its top-`k` (CNP) or `ratio ·` its maximum
    /// (BLAST).
    ///
    /// # Panics
    /// Panics for [`Rule::None`] and [`Rule::Supervised`], which keep by
    /// other means ([`Rule::decide`], [`Rule::decide_features`]).
    pub(crate) fn cut(&self, a: u32, row: &[(u32, f64)]) -> Cut {
        match *self {
            Rule::Wep(threshold) => Cut::Weight(threshold),
            Rule::Cep(bar) => bar,
            Rule::Wnp { .. } => Cut::Weight(row_mean(row)),
            Rule::Cnp { k, .. } => {
                let mut top: TopK<Key> = TopK::new(k);
                for &(y, w) in row {
                    if w > 0.0 {
                        top.push(key(a, y, w));
                    }
                }
                Cut::top_k(k, top.len(), top.threshold())
            }
            Rule::Blast { ratio } => Cut::Weight(ratio * row_max(row)),
            Rule::None | Rule::Supervised { .. } => {
                panic!("only weight-threshold families cut rows")
            }
        }
    }

    /// The per-row decision: pushes the entries of `a`'s row the rule
    /// keeps, as normalised pairs — a node-centric row's votes, or the
    /// edges an edge-centric rule keeps.
    pub(crate) fn decide(&self, a: u32, row: &[(u32, f64)], out: &mut Vec<WeightedPair>) {
        if let Rule::None = self {
            out.extend(row.iter().map(|&(y, w)| normalised(a, y, w)));
            return;
        }
        let cut = self.cut(a, row);
        out.extend(
            row.iter()
                .filter(|&&(y, w)| cut.admits(a, y, w))
                .map(|&(y, w)| normalised(a, y, w)),
        );
    }

    /// The supervised decision over a feature row: keeps the edges the
    /// model scores positive, weighted `sigmoid(margin)` so the output
    /// ranks like the unsupervised pruners.
    pub(crate) fn decide_features(
        &self,
        a: u32,
        row: &[(u32, Features)],
        out: &mut Vec<WeightedPair>,
    ) {
        let Rule::Supervised { extractor, model } = self else {
            panic!("only the supervised rule decides feature rows");
        };
        for &(y, raw) in row {
            let score = model.score(&extractor.normalise(raw));
            if score > 0.0 {
                out.push(normalised(a, y, supervised::sigmoid(score)));
            }
        }
    }

    /// The shared tail over every row's decisions, concatenated in entity
    /// order: applies the presentation order, then combines the votes
    /// (one per endpoint for node-centric rows, two needed under
    /// reciprocal semantics; one judgement per edge otherwise). An edge's
    /// votes carry the same pair and the same weight bits, so the
    /// presentation order already groups them. [`Rule::None`] keeps the
    /// pair order its forward rows arrive in.
    pub(crate) fn finish(
        &self,
        mut kept: Vec<WeightedPair>,
        label: WeightingScheme,
        input_edges: usize,
    ) -> PrunedComparisons {
        if !matches!(self, Rule::None) {
            present(&mut kept);
            combine_votes(&mut kept, self.node_centric() == Some(true));
        }
        PrunedComparisons {
            pairs: kept,
            scheme: label,
            input_edges,
        }
    }

    /// Decides every row: node-centric families vote from full rows,
    /// edge-centric ones judge forward rows. Returns the decisions and
    /// the edge count.
    fn decide_all(
        &self,
        rows: &dyn Rows<f64>,
        ranges: &[Range<usize>],
    ) -> (Vec<WeightedPair>, usize) {
        let forward = self.node_centric().is_none();
        let partials = fold(
            rows,
            ranges,
            forward,
            || (Vec::new(), 0u64),
            |(kept, edges), a, row| {
                *edges += forward_len(a, row);
                self.decide(a, row, kept);
            },
        );
        concat(partials)
    }
}

/// One full run of a weight-row family: the criterion step, the decision
/// on every row, the shared tail. CEP's criterion — the global top-k — is
/// already its output, so it stops after the criterion step.
pub(crate) fn run(
    rows: &dyn Rows<f64>,
    ranges: &[Range<usize>],
    pruning: &Pruning,
    scheme: WeightingScheme,
    corpus: Corpus,
) -> PrunedComparisons {
    let label = pruning.label(scheme);
    if let Pruning::Cep(k) = *pruning {
        let (top, edges) = cep_top(rows, ranges, corpus.cep_k(k));
        return PrunedComparisons::from_weighted_pairs(key_pairs(top), label, edges as usize);
    }
    let rule = Rule::build(pruning, rows, ranges, corpus);
    let (kept, edges) = rule.decide_all(rows, ranges);
    rule.finish(kept, label, edges)
}

/// One full run of the supervised pruner over feature rows.
pub(crate) fn run_supervised(
    rows: &dyn Rows<Features>,
    ranges: &[Range<usize>],
    model: Perceptron,
) -> PrunedComparisons {
    let rule = Rule::supervised(model, rows, ranges);
    let partials = fold(
        rows,
        ranges,
        true,
        || (Vec::new(), 0u64),
        |(kept, edges), a, row| {
            *edges += row.len() as u64;
            rule.decide_features(a, row, kept);
        },
    );
    let (kept, edges) = concat(partials);
    rule.finish(kept, WeightingScheme::Cbs, edges)
}

/// Concatenates per-range decisions (in range order) and sums their edge
/// counts.
fn concat(partials: Vec<(Vec<WeightedPair>, u64)>) -> (Vec<WeightedPair>, usize) {
    let edges = partials.iter().map(|(_, e)| *e).sum::<u64>() as usize;
    let total: usize = partials.iter().map(|(k, _)| k.len()).sum();
    let mut parts = partials.into_iter().map(|(k, _)| k);
    let mut all = parts.next().unwrap_or_default();
    all.reserve_exact(total - all.len());
    for mut part in parts {
        all.append(&mut part);
    }
    (all, edges)
}

/// The entity count the ranges cover (they tile `0..n` in order).
fn entities(ranges: &[Range<usize>]) -> usize {
    ranges.last().map_or(0, |r| r.end)
}

/// WEP's criterion fold over one forward row: the sum of its positive
/// weights, accumulated in ascending neighbour order (the slab order),
/// and their count.
pub(crate) fn wep_row(a: u32, row: &[(u32, f64)]) -> (f64, u64) {
    let mut sum = 0.0f64;
    let mut positive = 0u64;
    for &(y, w) in row {
        if y > a && w > 0.0 {
            // lint:allow(float-accumulation): per-entity serial sum over sorted neighbours
            sum += w;
            positive += 1;
        }
    }
    (sum, positive)
}

/// WEP's threshold from per-entity `(sum, positive count)` partials: the
/// mean over *positive-weight* edges (zero-weight ECBS/EJS edges carry no
/// evidence and could never be kept). The sums land in a fixed-length
/// slab of `n` entries reduced by [`pairwise_sum`], whose tree depends
/// only on `n` — so the threshold never depends on how rows were
/// partitioned.
pub(crate) fn wep_threshold(
    n: usize,
    partials: impl IntoIterator<Item = (u32, (f64, u64))>,
) -> f64 {
    let mut sums = vec![0.0f64; n];
    let mut positive = 0u64;
    for (a, (sum, count)) in partials {
        sums[a as usize] = sum;
        positive += count;
    }
    if positive == 0 {
        0.0
    } else {
        pairwise_sum(&sums) / positive as f64
    }
}

/// CEP's criterion fold over one forward row: offers its positive entries
/// to a bounded top-k heap under the strict [`Key`] order.
pub(crate) fn cep_fold(top: &mut TopK<Key>, a: u32, row: &[(u32, f64)]) {
    for &(y, w) in row {
        if w > 0.0 {
            top.push(key(a, y, w));
        }
    }
}

/// Merges partial CEP heaps into the global top-k, descending. The order
/// is strict, so the merged set is exact for any partitioning.
pub(crate) fn cep_merge(k: usize, locals: impl IntoIterator<Item = Vec<Key>>) -> Vec<Key> {
    let mut merged: TopK<Key> = TopK::new(k);
    for key in locals.into_iter().flatten() {
        merged.push(key);
    }
    merged.into_sorted_vec()
}

/// CEP's full criterion pass: the global top-`k` (descending) and the edge
/// count.
fn cep_top(rows: &dyn Rows<f64>, ranges: &[Range<usize>], k: usize) -> (Vec<Key>, u64) {
    let partials = fold(
        rows,
        ranges,
        true,
        || (TopK::new(k), 0u64),
        |(top, edges), a, row| {
            *edges += row.len() as u64;
            cep_fold(top, a, row);
        },
    );
    let edges = partials.iter().map(|(_, e)| *e).sum();
    let top = cep_merge(k, partials.into_iter().map(|(t, _)| t.into_sorted_vec()));
    (top, edges)
}

/// Keys back to weighted pairs.
pub(crate) fn key_pairs(keys: Vec<Key>) -> Vec<WeightedPair> {
    keys.into_iter()
        .map(|(w, Reverse((a, b)))| WeightedPair { a, b, weight: w.0 })
        .collect()
}

/// The supervised criterion fold over one forward feature row.
pub(crate) fn feature_max_fold(max: &mut Features, row: &[(u32, Features)]) {
    for (_, raw) in row {
        supervised::merge_feature_max(max, raw);
    }
}

/// WNP's row threshold: the mean over *all* the row's weights, summed in
/// ascending neighbour order — the `stats::mean` fold.
fn row_mean(row: &[(u32, f64)]) -> f64 {
    let mut sum = 0.0f64;
    for &(_, w) in row {
        // lint:allow(float-accumulation): per-row serial sum over sorted neighbours
        sum += w;
    }
    sum / row.len() as f64
}

/// BLAST's row maximum (0 for an all-non-positive row).
fn row_max(row: &[(u32, f64)]) -> f64 {
    row.iter()
        .fold(0.0f64, |max, &(_, w)| if w > max { w } else { max })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionBackend, Session};
    use minoan_blocking::builders::token_blocking;
    use minoan_blocking::{BlockCollection, ErMode};
    use minoan_datagen::{generate, profiles};
    use minoan_rdf::DatasetBuilder;

    /// Runs `pruning` under `scheme` on every backend, asserting they
    /// agree bit for bit, and returns the materialised outcome.
    fn run_all(
        c: &BlockCollection,
        scheme: WeightingScheme,
        pruning: Pruning,
    ) -> PrunedComparisons {
        let mut session = Session::new(c);
        session.scheme(scheme).pruning(pruning).workers(2);
        let base = session.run().pruned;
        for backend in [ExecutionBackend::Streaming, ExecutionBackend::MapReduce] {
            let other = session.backend(backend).run().pruned;
            crate::assert_bit_identical(&other, &base, &format!("{backend:?}/{pruning:?}"));
        }
        base
    }

    fn toy_collection() -> BlockCollection {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        for i in 0..3 {
            b.add_literal(k0, &format!("http://a/{i}"), "http://p", "x");
        }
        for i in 3..6 {
            b.add_literal(k1, &format!("http://b/{i}"), "http://p", "x");
        }
        let ds = b.build();
        let e = EntityId;
        // Strong pair (0,3): 3 common blocks. Weak pairs share one big block.
        let groups = vec![
            ("k1".to_string(), vec![e(0), e(3)]),
            ("k2".to_string(), vec![e(0), e(3)]),
            ("k3".to_string(), vec![e(0), e(3)]),
            ("big".to_string(), vec![e(0), e(1), e(2), e(3), e(4), e(5)]),
        ];
        BlockCollection::from_groups(&ds, ErMode::CleanClean, groups)
    }

    fn pair(p: &WeightedPair) -> (u32, u32) {
        (p.a.0, p.b.0)
    }

    #[test]
    fn wep_keeps_above_mean() {
        let out = run_all(&toy_collection(), WeightingScheme::Cbs, Pruning::Wep);
        // Weights: (0,3)=4, all others 1; mean = (4 + 8×1)/9 = 1.33…
        assert_eq!(out.pairs.len(), 1);
        assert_eq!(pair(&out.pairs[0]), (0, 3));
        assert!(out.retention() < 0.2);
    }

    #[test]
    fn cep_respects_cardinality() {
        let c = toy_collection();
        let out = run_all(&c, WeightingScheme::Cbs, Pruning::Cep(Some(3)));
        assert_eq!(out.pairs.len(), 3);
        assert_eq!(pair(&out.pairs[0]), (0, 3));
        assert!(out.pairs.windows(2).all(|w| w[0].weight >= w[1].weight));
        // k larger than the edge count keeps all.
        let all = run_all(&c, WeightingScheme::Cbs, Pruning::Cep(Some(100)));
        assert_eq!(all.pairs.len(), all.input_edges);
    }

    #[test]
    fn reciprocal_is_subset_of_union() {
        let c = toy_collection();
        for scheme in WeightingScheme::ALL {
            for (union, recip) in [
                (
                    Pruning::Wnp { reciprocal: false },
                    Pruning::Wnp { reciprocal: true },
                ),
                (
                    Pruning::Cnp {
                        reciprocal: false,
                        k: Some(2),
                    },
                    Pruning::Cnp {
                        reciprocal: true,
                        k: Some(2),
                    },
                ),
            ] {
                let union = run_all(&c, scheme, union);
                let recip = run_all(&c, scheme, recip);
                let kept: std::collections::BTreeSet<_> = union.pairs.iter().map(pair).collect();
                assert!(
                    recip.pairs.iter().all(|p| kept.contains(&pair(p))),
                    "{scheme:?}"
                );
            }
        }
    }

    #[test]
    fn wnp_keeps_strong_local_edges() {
        let out = run_all(
            &toy_collection(),
            WeightingScheme::Cbs,
            Pruning::Wnp { reciprocal: true },
        );
        assert!(out.pairs.iter().any(|p| pair(p) == (0, 3)));
    }

    #[test]
    fn cnp_per_node_cardinality_bounds_retention() {
        let c = toy_collection();
        let out = run_all(
            &c,
            WeightingScheme::Arcs,
            Pruning::Cnp {
                reciprocal: false,
                k: Some(1),
            },
        );
        // Union of per-node top-1: at most one edge per node.
        assert!(out.pairs.len() <= BlockingGraph::build(&c).active_nodes());
        assert!(out.pairs.iter().all(|p| p.weight > 0.0));
    }

    #[test]
    fn pruning_preserves_recall_on_generated_data() {
        let g = generate(&profiles::center_dense(200, 6));
        let blocks = token_blocking(&g.dataset, ErMode::CleanClean);
        let graph = BlockingGraph::build(&blocks);
        let truth_pairs: std::collections::HashSet<_> = g.truth.matching_pair_iter().collect();
        let base_found = graph
            .edges()
            .iter()
            .filter(|e| truth_pairs.contains(&(e.a, e.b)))
            .count() as f64;
        for (label, scheme, pruning) in [
            ("wep/cbs", WeightingScheme::Cbs, Pruning::Wep),
            (
                "wnp/arcs",
                WeightingScheme::Arcs,
                Pruning::Wnp { reciprocal: false },
            ),
            (
                "cnp/js",
                WeightingScheme::Js,
                Pruning::Cnp {
                    reciprocal: false,
                    k: None,
                },
            ),
        ] {
            let out = Session::new(&blocks).scheme(scheme).pruning(pruning).run();
            let found = out
                .pairs()
                .iter()
                .filter(|p| truth_pairs.contains(&(p.a, p.b)))
                .count() as f64;
            let kept_recall = found / base_found;
            assert!(
                kept_recall > 0.85,
                "{label}: lost too many matches ({kept_recall:.3})"
            );
            assert!(
                out.pairs().len() < graph.num_edges(),
                "{label}: pruned nothing"
            );
        }
    }

    #[test]
    fn empty_collection_is_handled_on_every_backend() {
        let ds = DatasetBuilder::new().build();
        let c = BlockCollection::from_groups(
            &ds,
            ErMode::CleanClean,
            Vec::<(String, Vec<EntityId>)>::new(),
        );
        for scheme in [WeightingScheme::Cbs, WeightingScheme::Ejs] {
            for pruning in Pruning::FAMILIES {
                let out = run_all(&c, scheme, pruning);
                assert!(out.pairs.is_empty(), "{scheme:?}/{pruning:?}");
                assert_eq!(out.input_edges, 0, "{scheme:?}/{pruning:?}: stats");
            }
        }
    }

    #[test]
    fn default_cardinalities_are_sane() {
        let g = BlockingGraph::build(&toy_collection());
        assert!(default_cep_k(&g) >= 1);
        assert!(default_cnp_k(&g) >= 1);
    }

    /// Fixture with ECBS zero-weight edges: entities 0 (KB a) and 5–8
    /// (KB b) sit in *every* block, so `ln(|B|/|B_i|) = 0` kills each of
    /// their edges. Positive edges: (1,3) weak ≈ 0.199, (2,4) strong
    /// ≈ 2.59, plus 14 zero-weight edges.
    fn zero_heavy_ecbs_collection() -> BlockCollection {
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        let k1 = b.add_kb("b", "http://b/");
        for i in 0..3 {
            b.add_literal(k0, &format!("http://a/{i}"), "http://p", "x");
        }
        for i in 3..9 {
            b.add_literal(k1, &format!("http://b/{i}"), "http://p", "x");
        }
        let ds = b.build();
        let e = EntityId;
        let everywhere = [e(0), e(5), e(6), e(7), e(8)];
        let mut groups: Vec<(String, Vec<EntityId>)> = (0..4)
            .map(|i| {
                let mut members = vec![e(1), e(3)];
                members.extend_from_slice(&everywhere);
                (format!("strong{i}"), members)
            })
            .collect();
        let mut weak = vec![e(2), e(4)];
        weak.extend_from_slice(&everywhere);
        groups.push(("weak".to_string(), weak));
        BlockCollection::from_groups(&ds, ErMode::CleanClean, groups)
    }

    #[test]
    fn wep_mean_excludes_zero_weight_edges() {
        let c = zero_heavy_ecbs_collection();
        let g = BlockingGraph::build(&c);
        assert_eq!(g.num_edges(), 16);
        let weights = WeightingScheme::Ecbs.all_weights(&g);
        let positives: Vec<f64> = weights.iter().copied().filter(|&w| w > 0.0).collect();
        assert_eq!(positives.len(), 2, "fixture: exactly two positive edges");
        // The mean over positive edges (≈ 1.39) excludes the weak edge
        // (≈ 0.199); the old zero-deflated mean (≈ 0.174) kept it.
        let deflated = minoan_common::stats::mean(&weights);
        let weak = positives.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            deflated < weak && weak < minoan_common::stats::mean(&positives),
            "fixture must separate the two definitions"
        );
        let out = run_all(&c, WeightingScheme::Ecbs, Pruning::Wep);
        assert_eq!(out.pairs.len(), 1, "only the strong edge survives");
        assert_eq!(pair(&out.pairs[0]), (2, 4));
    }

    #[test]
    fn wep_threshold_denominator_counts_positive_edges_only() {
        // sums {3, 2} over 2 positive edges → 2.5; a third zero-weight
        // edge must not deflate it to 5/3.
        assert_eq!(wep_threshold(3, [(0, (3.0, 1)), (1, (2.0, 1))]), 2.5);
        assert_eq!(wep_threshold(2, []), 0.0);
    }

    #[test]
    fn zero_cardinality_keeps_nothing_but_reports_stats() {
        let c = toy_collection();
        let edges = BlockingGraph::build(&c).num_edges();
        for scheme in [WeightingScheme::Cbs, WeightingScheme::Ejs] {
            for pruning in [
                Pruning::Cep(Some(0)),
                Pruning::Cnp {
                    reciprocal: false,
                    k: Some(0),
                },
            ] {
                let out = run_all(&c, scheme, pruning);
                assert!(out.pairs.is_empty(), "{pruning:?}");
                assert_eq!(out.input_edges, edges, "{pruning:?}: stats survive");
                assert_eq!(out.retention(), 0.0);
            }
        }
    }

    #[test]
    fn default_cep_k_zero_on_single_assignment_collection() {
        // One block with one entity: BC = 1 → default K = 0, which keeps
        // nothing.
        let mut b = DatasetBuilder::new();
        let k0 = b.add_kb("a", "http://a/");
        b.add_literal(k0, "http://a/0", "http://p", "x");
        let ds = b.build();
        let c = BlockCollection::from_groups(
            &ds,
            ErMode::Dirty,
            vec![("only".to_string(), vec![EntityId(0)])],
        );
        assert_eq!(default_cep_k(&BlockingGraph::build(&c)), 0);
        let out = run_all(&c, WeightingScheme::Cbs, Pruning::Cep(None));
        assert!(out.pairs.is_empty());
        assert_eq!(out.input_edges, 0);
    }

    #[test]
    fn top_k_bars() {
        let k = |w: f64, a: u32, b: u32| key(a, b, w);
        assert!(matches!(Cut::top_k(0, 0, None), Cut::Weight(t) if t.is_infinite()));
        assert!(matches!(Cut::top_k(3, 2, Some(&k(1.0, 0, 1))), Cut::Weight(t) if t == 0.0));
        let bar = Cut::top_k(2, 2, Some(&k(1.0, 0, 2)));
        // Ties on weight go to the earlier pair.
        assert!(bar.admits(0, 1, 1.0));
        assert!(bar.admits(2, 0, 1.0));
        assert!(!bar.admits(0, 3, 1.0));
        assert!(!bar.admits(0, 1, 0.0), "only positive weights are kept");
    }
}
