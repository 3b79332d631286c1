//! Property suite for query-time resolution: `resolve_entity(e)` must be
//! *bit-identical* to the incident slice of a full run — the pairs that
//! mention `e` in the full pruned outcome, in the same order, with the
//! same f64 weight bits — for every scheme × pruning family, on both the
//! batch [`Session`] and the updatable [`IncrementalSession`] (delta and
//! fallback paths alike, answer cache on or off). Run under
//! `RUST_TEST_THREADS=1` and `4` in CI; per-worker identity is also
//! asserted in-process.

mod common;

use common::{assert_bit_identical, assert_pairs_bit_identical, oracle};
use minoan::blocking::{builders, ErMode};
use minoan::datagen::{generate, profiles, ArrivalOrder, GeneratedWorld};
use minoan::metablocking::{
    BlockingGraph, ExecutionBackend, FeatureExtractor, IncrementalSession, Perceptron, Pruning,
    ResolvedEntity, Session, TrainingSet, WeightedPair,
};
use minoan::rdf::EntityId;

/// Every unsupervised family variant, including explicit-k and BLAST.
fn family_variants() -> Vec<(&'static str, Pruning)> {
    vec![
        ("none", Pruning::None),
        ("wep", Pruning::Wep),
        ("cep/default", Pruning::Cep(None)),
        ("cep/9", Pruning::Cep(Some(9))),
        ("wnp", Pruning::Wnp { reciprocal: false }),
        ("wnp/recip", Pruning::Wnp { reciprocal: true }),
        (
            "cnp/default",
            Pruning::Cnp {
                reciprocal: false,
                k: None,
            },
        ),
        (
            "cnp/3-recip",
            Pruning::Cnp {
                reciprocal: true,
                k: Some(3),
            },
        ),
        ("blast", Pruning::blast()),
    ]
}

/// The full outcome's pairs that mention `e`, in full-outcome order.
fn incident(pairs: &[WeightedPair], e: EntityId) -> Vec<WeightedPair> {
    pairs
        .iter()
        .filter(|p| p.a == e || p.b == e)
        .copied()
        .collect()
}

/// A spread of probe entities: every stride-th id, so the sample hits
/// hubs, leaves and isolated entities across both KBs.
fn probes(n: usize, stride: usize) -> Vec<EntityId> {
    (0..n as u32).step_by(stride.max(1)).map(EntityId).collect()
}

#[test]
fn batch_session_resolves_every_family_bit_identically() {
    let world = generate(&profiles::center_dense(120, 13));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let graph = BlockingGraph::build(&blocks);
    let n = world.dataset.len();
    for workers in [1usize, 3] {
        for scheme in minoan::metablocking::WeightingScheme::ALL {
            for (fname, family) in family_variants() {
                let mut session = Session::new(&blocks);
                session
                    .scheme(scheme)
                    .pruning(family)
                    .backend(ExecutionBackend::Streaming)
                    .workers(workers);
                let full = session.run();
                assert_bit_identical(
                    &full.pruned,
                    &oracle::prune(&graph, scheme, family),
                    &format!("{scheme:?}/{fname}/w={workers}: full run"),
                );
                for e in probes(n, 7) {
                    let resolved = session.resolve_entity(e);
                    assert_eq!(resolved.entity, e);
                    assert_pairs_bit_identical(
                        &resolved.matches,
                        &incident(full.pairs(), e),
                        &format!("{scheme:?}/{fname}/w={workers}/e={}", e.0),
                    );
                }
            }
        }
    }
}

#[test]
fn batch_session_resolves_supervised_bit_identically() {
    let world = generate(&profiles::center_dense(140, 23));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let graph = BlockingGraph::build(&blocks);
    let extractor = FeatureExtractor::fit(&graph);
    let set = TrainingSet::sample(&graph, &extractor, |a, b| world.truth.is_match(a, b), 40, 7);
    let model = Perceptron::train(&set, 12);
    let mut session = Session::new(&blocks);
    session.pruning(Pruning::Supervised(model));
    let full = session.run();
    assert!(
        !full.pairs().is_empty(),
        "fixture model must keep something"
    );
    assert_bit_identical(
        &full.pruned,
        &oracle::supervised_prune(&graph, &model),
        "supervised: full run",
    );
    for e in probes(world.dataset.len(), 5) {
        let resolved = session.resolve_entity(e);
        assert_pairs_bit_identical(
            &resolved.matches,
            &incident(full.pairs(), e),
            &format!("supervised/e={}", e.0),
        );
    }
}

/// Scheme switches on one session rebuild the criterion; answers after a
/// switch must match a fresh session's.
#[test]
fn scheme_and_pruning_switches_on_one_session_stay_exact() {
    use minoan::metablocking::WeightingScheme;
    let world = generate(&profiles::center_dense(100, 31));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let mut session = Session::new(&blocks);
    for (scheme, pruning) in [
        (WeightingScheme::Js, Pruning::Wep),
        (WeightingScheme::Js, Pruning::Cep(None)),
        (WeightingScheme::Arcs, Pruning::Cep(None)),
        (
            WeightingScheme::Cbs,
            Pruning::Cnp {
                reciprocal: false,
                k: None,
            },
        ),
    ] {
        session.scheme(scheme).pruning(pruning);
        let full = session.run();
        for e in probes(world.dataset.len(), 11) {
            let resolved = session.resolve_entity(e);
            assert_pairs_bit_identical(
                &resolved.matches,
                &incident(full.pairs(), e),
                &format!("switch/{scheme:?}/{pruning:?}/e={}", e.0),
            );
        }
    }
}

fn world() -> GeneratedWorld {
    generate(&profiles::center_dense(130, 41))
}

/// After every ingest, the incremental session's answer equals a
/// from-scratch batch [`Session`] over the merged snapshot — on the
/// delta row-cache path and the per-request fallback path alike.
#[test]
fn incremental_resolves_match_from_scratch_sessions_after_every_batch() {
    use minoan::metablocking::WeightingScheme;
    let g = world();
    let batches = ArrivalOrder::Shuffled { seed: 7 }.batches(&g.dataset, &g.truth, 33);
    let combos = [
        // Delta row-cache path, locally invalidatable.
        (
            "js/wnp",
            WeightingScheme::Js,
            Pruning::Wnp { reciprocal: false },
        ),
        // Delta path, global criterion.
        ("js/wep", WeightingScheme::Js, Pruning::Wep),
        ("arcs/cep", WeightingScheme::Arcs, Pruning::Cep(None)),
        (
            "cbs/cnp",
            WeightingScheme::Cbs,
            Pruning::Cnp {
                reciprocal: true,
                k: None,
            },
        ),
        // Fallback paths: no delta rows for the scheme or the family.
        (
            "ecbs/wnp",
            WeightingScheme::Ecbs,
            Pruning::Wnp { reciprocal: true },
        ),
        ("js/blast", WeightingScheme::Js, Pruning::blast()),
    ];
    for (label, scheme, pruning) in combos {
        for workers in [1usize, 2, 4] {
            let mut inc = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
            inc.scheme(scheme).pruning(pruning).workers(workers);
            for (i, batch) in batches.iter().enumerate() {
                inc.ingest(batch);
                // Answer first, then compare: the reference session
                // borrows the snapshot the incremental session owns.
                let sample = probes(g.dataset.len(), 17);
                let got: Vec<_> = sample.iter().map(|&e| inc.resolve_entity(e)).collect();
                let snap = inc.snapshot().expect("ingest leaves a snapshot behind");
                let mut reference = Session::new(snap);
                reference
                    .scheme(scheme)
                    .pruning(pruning)
                    .backend(ExecutionBackend::Streaming)
                    .workers(workers);
                for (e, got) in sample.iter().zip(&got) {
                    let want = reference.resolve_entity(*e);
                    assert_pairs_bit_identical(
                        &got.matches,
                        &want.matches,
                        &format!("{label}/w={workers}/batch={i}/e={}", e.0),
                    );
                }
            }
        }
    }
}

/// Bit-identity of two whole answers: the same entity, neighbourhood and
/// retained pairs.
fn assert_same_answer(got: &ResolvedEntity, want: &ResolvedEntity, label: &str) {
    assert_eq!(got.entity, want.entity, "{label}: entity");
    assert_eq!(got.neighbours, want.neighbours, "{label}: neighbours");
    assert_pairs_bit_identical(&got.matches, &want.matches, label);
}

/// The session's answer cache never changes an answer: a cached session
/// answers every resolve bit-identically to an uncached one across a
/// stream of single-entity arrivals — for a locally invalidatable
/// combination (JS × WNP, entries dropped by changed rows) and one whose
/// every ingest must clear the cache (ECBS × WEP). The periphery stream
/// grows old entities through newly present blocks while leaving most of
/// the corpus clean; under JS that changes the rows of clean neighbours
/// too, where a dirty-set-only rule served stale answers.
#[test]
fn cached_sessions_answer_exactly_like_uncached_ones_across_ingests() {
    use minoan::metablocking::WeightingScheme;
    let g = generate(&profiles::periphery_sparse(150, 1));
    let batches = ArrivalOrder::Shuffled { seed: 1 }.batches(&g.dataset, &g.truth, 1);
    // Every entity, with room for all: each answer stays cached across
    // the ingest that could make it stale.
    let n = g.dataset.len();
    for (label, scheme, pruning, local) in [
        (
            "js/wnp",
            WeightingScheme::Js,
            Pruning::Wnp { reciprocal: false },
            true,
        ),
        ("ecbs/wep", WeightingScheme::Ecbs, Pruning::Wep, false),
    ] {
        let mut cached = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
        cached.scheme(scheme).pruning(pruning).cache_capacity(n);
        let mut bare = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
        bare.scheme(scheme).pruning(pruning);
        for (i, batch) in batches.iter().enumerate() {
            let report = cached.ingest(batch);
            bare.ingest(batch);
            let held = if i == 0 { 0 } else { n };
            if local {
                assert!(report.invalidated <= held, "{label}/batch={i}: {report:?}");
            } else {
                assert_eq!(report.invalidated, held, "{label}/batch={i}: clears all");
            }
            // Twice per version: the second round is all cache hits.
            for round in 0..2 {
                for e in g.dataset.entities() {
                    let tag = format!("{label}/batch={i}/round={round}/e={}", e.0);
                    assert_same_answer(&cached.resolve_entity(e), &bare.resolve_entity(e), &tag);
                }
            }
        }
        let resolves = (2 * n * batches.len()) as u64;
        assert_eq!(bare.cache_hits(), 0, "{label}: capacity 0 never hits");
        assert_eq!(bare.cache_misses(), resolves, "{label}");
        assert_eq!(cached.cache_hits() + cached.cache_misses(), resolves);
        assert!(
            cached.cache_hits() >= (n * batches.len()) as u64,
            "{label}: every second round must hit"
        );
    }
}

/// A warm cache survives no configuration switch: after a `scheme()` or a
/// `pruning()` change the session answers what a fresh session with the
/// new configuration answers.
#[test]
fn configuration_switches_drop_cached_answers() {
    use minoan::metablocking::WeightingScheme;
    let g = world();
    let ids: Vec<EntityId> = g.dataset.entities().collect();
    let hot = probes(g.dataset.len(), 13);
    let mut cached = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
    cached
        .scheme(WeightingScheme::Js)
        .pruning(Pruning::Wnp { reciprocal: false })
        .cache_capacity(64);
    cached.ingest(&ids);
    for &e in &hot {
        cached.resolve_entity(e);
    }
    for (scheme, pruning) in [
        (WeightingScheme::Arcs, Pruning::Wnp { reciprocal: false }),
        (WeightingScheme::Arcs, Pruning::Cep(None)),
    ] {
        cached.scheme(scheme).pruning(pruning);
        let mut fresh = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
        fresh.scheme(scheme).pruning(pruning);
        fresh.ingest(&ids);
        let hits = cached.cache_hits();
        for &e in &hot {
            let tag = format!("{scheme:?}/{pruning:?}/e={}", e.0);
            assert_same_answer(&cached.resolve_entity(e), &fresh.resolve_entity(e), &tag);
        }
        assert_eq!(cached.cache_hits(), hits, "a switch leaves nothing to hit");
    }
}

/// Resolving on an empty corpus answers an empty neighbourhood, and the
/// first answer after the first ingest is already exact.
#[test]
fn empty_corpus_resolves_to_nothing() {
    let g = world();
    let mut inc = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
    let resolved = inc.resolve_entity(EntityId(0));
    assert!(resolved.matches.is_empty());
    assert!(resolved.neighbours.is_empty());
    assert_eq!(inc.version(), 0);
}
