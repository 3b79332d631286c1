//! Query-time resolution: "resolve *this* entity now" as a single
//! neighbourhood sweep, bit-identical to the incident slice of a full
//! corpus run.
//!
//! The batch pipeline answers "prune the whole corpus"; a resolution
//! *service* answers one entity at a time, thousands of times, against
//! the same corpus. Re-running a full sweep per request would make every
//! query `O(corpus)`; this module makes it `O(neighbourhood)`:
//!
//! * `resolve` applies a pruning family's per-row decision — the very
//!   `Rule` of the pruning core a full run applies — to one entity's
//!   row, plus, for the node-centric families, the rows of its neighbours
//!   (loaded lazily, only while the entity's own vote leaves the edge
//!   open). Rows come from any row producer: a fresh single-entity sweep
//!   ([`Session::resolve_entity`](crate::Session::resolve_entity)) or the
//!   incremental session's patched row cache.
//! * The *global* inputs a family needs — WEP's mean threshold, CEP's
//!   top-k bar, CNP's default `k`, the supervised extractor's
//!   normalisation maxima — are the rule's criterion, computed once per
//!   corpus version and reused by every resolve, which is what keeps a
//!   query sub-linear: the criterion amortises across requests exactly
//!   like the session's CSR/scratch state does across runs.
//! * `NeighbourhoodCache` memoises whole [`ResolvedEntity`] answers for
//!   the hot entities of a skewed query mix. An
//!   [`IncrementalSession`](crate::IncrementalSession) owns one and
//!   invalidates it in its own
//!   [`ingest`](crate::IncrementalSession::ingest): entry by entry from
//!   the batch's dirty entities where `locally_invalidatable` proves that
//!   sound, a full clear otherwise.
//!
//! Bit-identity is the contract, not an aspiration: for every scheme ×
//! pruning family × worker count, `resolve_entity(e).matches` equals the
//! pairs incident to `e` in the full-corpus outcome, same order, same
//! f64 bits (`tests/resolve_entity.rs`).

use crate::kernel::{WeightGlobals, Weights};
use crate::prune::{self, Pruning, Rows, Rule, WeightedPair};
use crate::supervised::Features;
use crate::sweep::{self, ScratchPool};
use crate::weights::WeightingScheme;
use minoan_blocking::BlockCollection;
use minoan_rdf::EntityId;
use std::collections::BTreeMap;
use std::ops::Range;

/// One entity's query-time resolution result.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolvedEntity {
    /// The queried entity.
    pub entity: EntityId,
    /// The retained comparisons incident to [`Self::entity`] — exactly
    /// the pairs a full-corpus run of the same scheme × pruning would
    /// keep for it, in the same order with the same f64 weight bits.
    pub matches: Vec<WeightedPair>,
    /// All comparable neighbours of the entity (ascending, unpruned) —
    /// the dependency set a cached copy of this result is valid under.
    pub neighbours: Vec<u32>,
}

/// Resolves one entity against weight rows under a prebuilt rule: the
/// entity's own row decides what a full run's decision on that row
/// decides, and a node-centric family loads a neighbour's row only when
/// the other endpoint's vote is still needed (union: the entity voted
/// no; reciprocal: it voted yes). Edge weights are bitwise
/// endpoint-symmetric — both endpoints' rows carry the identical f64 — so
/// one row's weight serves both votes.
pub(crate) fn resolve(rows: &dyn Rows<f64>, entity: EntityId, rule: &Rule) -> ResolvedEntity {
    let e = entity.0;
    let mut matches = Vec::new();
    let mut neighbours = Vec::new();
    rows.visit(single(e), false, &mut |_, row| {
        neighbours.extend(row.iter().map(|&(y, _)| y));
        let Some(reciprocal) = rule.node_centric() else {
            return rule.decide(e, row, &mut matches);
        };
        let cut = rule.cut(e, row);
        for &(y, w) in row {
            let vote = cut.admits(e, y, w);
            let keep = if vote != reciprocal {
                vote
            } else {
                w > 0.0 && {
                    let mut other = false;
                    rows.visit(single(y), false, &mut |_, row_y| {
                        other = rule.cut(y, row_y).admits(e, y, w);
                    });
                    other
                }
            };
            if keep {
                matches.push(crate::kernel::normalised(e, y, w));
            }
        }
    });
    // The unpruned outcome stays in pair order, and the ascending row
    // yields exactly its incident slice: every `(y, e)` with `y < e`
    // sorts before every `(e, y)`.
    if !matches!(rule, Rule::None) {
        prune::present(&mut matches);
    }
    ResolvedEntity {
        entity,
        matches,
        neighbours,
    }
}

/// Resolves one entity under the supervised rule from its feature row.
/// Features are computed in normalised endpoint order, so the entity's
/// row carries the very vectors the smaller endpoints' rows carry in a
/// full pass.
pub(crate) fn resolve_features(
    rows: &dyn Rows<Features>,
    entity: EntityId,
    rule: &Rule,
) -> ResolvedEntity {
    let mut matches = Vec::new();
    let mut neighbours = Vec::new();
    rows.visit(single(entity.0), false, &mut |e, row| {
        neighbours.extend(row.iter().map(|&(y, _)| y));
        rule.decide_features(e, row, &mut matches);
    });
    prune::present(&mut matches);
    ResolvedEntity {
        entity,
        matches,
        neighbours,
    }
}

/// Resolves one entity by sweeping its (and, lazily, its neighbours')
/// blocks on `collection` — the row producer of every resolve that has
/// no row cache to read. `weights` is the family's weight kind; the
/// supervised rule reads feature rows instead.
pub(crate) fn resolve_swept(
    collection: &BlockCollection,
    globals: &WeightGlobals,
    pool: &ScratchPool,
    weights: Weights,
    rule: &Rule,
    entity: EntityId,
) -> ResolvedEntity {
    match rule {
        Rule::Supervised { .. } => {
            let rows = sweep::feature_rows(collection, globals, pool);
            resolve_features(&rows, entity, rule)
        }
        _ => {
            let rows = sweep::weight_rows(collection, globals, pool, weights);
            resolve(&rows, entity, rule)
        }
    }
}

/// The range holding just entity `e`.
fn single(e: u32) -> Range<usize> {
    e as usize..e as usize + 1
}

/// Whether a cached [`ResolvedEntity`] under `scheme` × `pruning` can be
/// kept across an ingest by invalidating only the entries whose
/// dependency sets intersect the ingest's dirty entities — or whether
/// every cached answer must be dropped.
///
/// The per-entry invalidation is sound exactly when a batch can only
/// change answers through the rows of dirty entities:
///
/// * the **scheme** must be delta-local (CBS, JS, ARCS): every changed
///   edge has a dirty endpoint, and a dirty entity's row change
///   invalidates every entry depending on it. ECBS/EJS read the global
///   block/edge totals, which every arrival shifts — all answers change
///   with no dirty-set trace.
/// * the **pruning criterion** must be row-local: `None`, WNP, and CNP
///   with an *explicit* `k`. WEP's threshold, CEP's top-k, default-`k`
///   CNP (its `k` reads the global assignment/active-node counts), BLAST
///   (χ² over `|B|`) and the supervised extractor are all global — one
///   arrival may move them and silently re-decide edges between clean
///   entities.
///
/// For every other combination, clear the cache on ingest — still
/// correct, just colder.
pub(crate) fn locally_invalidatable(scheme: WeightingScheme, pruning: Pruning) -> bool {
    scheme.is_delta_local()
        && matches!(
            pruning,
            Pruning::None | Pruning::Wnp { .. } | Pruning::Cnp { k: Some(_), .. }
        )
}

struct CacheEntry {
    value: ResolvedEntity,
    /// `neighbours ∪ {entity}`, sorted — the entities whose rows this
    /// answer was computed from.
    deps: Vec<u32>,
    /// Last-touched tick (larger = more recent).
    stamp: u64,
}

/// An LRU cache of hot [`ResolvedEntity`] answers.
///
/// **Invalidation invariant**: an entry for entity `e` was computed from
/// the rows of `deps = {e} ∪ neighbours(e)`. An ingest can change `e`'s
/// answer only by changing one of those rows. So when
/// [`locally_invalidatable`] holds, `deps ∩ changed = ∅` — `changed`
/// being the entities whose rows the ingest changed — proves the cached
/// answer is still bit-identical to a fresh resolve; that is what
/// [`Self::invalidate`] checks. Under CBS and ARCS every changed row
/// belongs to a dirty entity: a weight changes only for a pair sharing a
/// touched block. JS also reads the block counts `|B_i|`, so a grown
/// entity reweights all its edges, and its neighbours' rows change
/// whether they are dirty or not.
///
/// Capacity 0 disables the cache entirely (every get misses, inserts are
/// dropped without a copy) — a bare session's default.
pub(crate) struct NeighbourhoodCache {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<u32, CacheEntry>,
}

impl NeighbourhoodCache {
    /// A cache holding at most `capacity` resolved entities.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            entries: BTreeMap::new(),
        }
    }

    /// Looks up a still-valid cached answer, refreshing its recency.
    pub(crate) fn get(&mut self, entity: EntityId) -> Option<&ResolvedEntity> {
        let entry = self.entries.get_mut(&entity.0)?;
        self.tick += 1;
        entry.stamp = self.tick;
        Some(&entry.value)
    }

    /// Admits a copy of a freshly resolved answer, evicting the least
    /// recently used entry at capacity. A disabled cache copies nothing.
    pub(crate) fn insert(&mut self, value: &ResolvedEntity) {
        if self.capacity == 0 {
            return;
        }
        let value = value.clone();
        let key = value.entity.0;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, en)| en.stamp) {
                self.entries.remove(&victim);
            }
        }
        let mut deps = value.neighbours.clone();
        if let Err(pos) = deps.binary_search(&key) {
            deps.insert(pos, key);
        }
        self.tick += 1;
        let stamp = self.tick;
        self.entries.insert(key, CacheEntry { value, deps, stamp });
    }

    /// Drops every entry whose dependency set holds an entity of
    /// `changed` (the entities whose rows an ingest changed; duplicates
    /// are fine); returns how many were dropped. Only sound when
    /// [`locally_invalidatable`] holds for the session's combination —
    /// otherwise call [`Self::clear`].
    pub(crate) fn invalidate(&mut self, changed: impl IntoIterator<Item = u32>) -> usize {
        if self.entries.is_empty() {
            return 0;
        }
        let mut ids: Vec<u32> = changed.into_iter().collect();
        ids.sort_unstable();
        let before = self.entries.len();
        self.entries
            .retain(|_, entry| !intersects(&entry.deps, &ids));
        before - self.entries.len()
    }

    /// Drops everything (the safe response to an ingest under a global
    /// criterion, or to a scheme/pruning switch); returns how many
    /// entries were dropped.
    pub(crate) fn clear(&mut self) -> usize {
        let dropped = self.entries.len();
        self.entries.clear();
        dropped
    }
}

/// Whether two ascending sorted id lists share an element (two-pointer
/// walk; both inputs are typically short).
fn intersects(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolved(e: u32, neighbours: &[u32]) -> ResolvedEntity {
        ResolvedEntity {
            entity: EntityId(e),
            matches: Vec::new(),
            neighbours: neighbours.to_vec(),
        }
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut c = NeighbourhoodCache::new(2);
        c.insert(&resolved(1, &[2]));
        c.insert(&resolved(2, &[1]));
        assert!(c.get(EntityId(1)).is_some(), "1 is now the most recent");
        c.insert(&resolved(3, &[4]));
        assert_eq!(c.entries.len(), 2);
        assert!(c.get(EntityId(2)).is_none(), "2 was the LRU victim");
        assert!(c.get(EntityId(1)).is_some());
        assert!(c.get(EntityId(3)).is_some());
    }

    #[test]
    fn invalidation_drops_exactly_the_dependent_entries() {
        let mut c = NeighbourhoodCache::new(8);
        c.insert(&resolved(1, &[5, 9]));
        c.insert(&resolved(2, &[6]));
        c.insert(&resolved(3, &[7]));
        // Entity 9 is a neighbour-dep of entry 1; entity 2 is its own dep.
        let dropped = c.invalidate([9, 2]);
        assert_eq!(dropped, 2);
        assert!(c.get(EntityId(1)).is_none());
        assert!(c.get(EntityId(2)).is_none());
        assert!(c.get(EntityId(3)).is_some());
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let mut c = NeighbourhoodCache::new(0);
        c.insert(&resolved(1, &[]));
        assert!(c.entries.is_empty());
        assert!(c.get(EntityId(1)).is_none());
        assert_eq!(c.clear(), 0);
    }

    #[test]
    fn local_invalidation_matrix() {
        use WeightingScheme as S;
        let wnp = Pruning::Wnp { reciprocal: true };
        assert!(locally_invalidatable(S::Cbs, Pruning::None));
        assert!(locally_invalidatable(S::Js, wnp));
        assert!(locally_invalidatable(
            S::Arcs,
            Pruning::Cnp {
                reciprocal: false,
                k: Some(3)
            }
        ));
        // Global criteria, or global schemes, force a full clear.
        assert!(!locally_invalidatable(S::Ecbs, wnp));
        assert!(!locally_invalidatable(S::Ejs, Pruning::None));
        assert!(!locally_invalidatable(S::Js, Pruning::Wep));
        assert!(!locally_invalidatable(S::Js, Pruning::Cep(None)));
        assert!(!locally_invalidatable(
            S::Js,
            Pruning::Cnp {
                reciprocal: false,
                k: None
            }
        ));
        assert!(!locally_invalidatable(S::Cbs, Pruning::blast()));
    }
}
