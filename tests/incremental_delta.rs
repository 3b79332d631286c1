//! Property suite for the updatable meta-blocking session: after every
//! ingest, a delta-swept [`IncrementalSession`] must be *bit-identical* to
//! a from-scratch [`Session`] over the merged corpus, and to the reference
//! implementation (`common::oracle`) on its blocking graph — same
//! input-edge count, same pair order, same f64 weight bits — across arrival orders,
//! batch sizes, ER modes and thread counts. Run it under
//! `RUST_TEST_THREADS=1` and `4` in CI; per-worker bit-identity is also
//! asserted in-process. Each ingest's own [`IngestReport`] carries its
//! sweep counts, so the subset claim is asserted on the report.
//!
//! [`IngestReport`]: minoan::metablocking::IngestReport

mod common;

use common::{assert_bit_identical, oracle};
use minoan::blocking::{builders, ErMode};
use minoan::datagen::{generate, profiles, ArrivalOrder, GeneratedWorld};
use minoan::metablocking::{
    BlockingGraph, ExecutionBackend, IncrementalSession, Pruning, Session, WeightingScheme,
};

/// Scheme × pruning combinations with a true delta-sweep path.
const DELTA_SCHEMES: [WeightingScheme; 3] = [
    WeightingScheme::Cbs,
    WeightingScheme::Js,
    WeightingScheme::Arcs,
];
const DELTA_FAMILIES: [Pruning; 5] = [
    Pruning::None,
    Pruning::Wep,
    Pruning::Cep(None),
    Pruning::Wnp { reciprocal: false },
    Pruning::Cnp {
        reciprocal: true,
        k: None,
    },
];

fn world(mode: ErMode) -> GeneratedWorld {
    match mode {
        ErMode::CleanClean => generate(&profiles::center_dense(160, 41)),
        ErMode::Dirty => generate(&profiles::dirty_single(160, 41)),
    }
}

/// Ingest `batches` one by one and assert per-batch bit-identity against a
/// from-scratch streaming [`Session`] on the merged corpus.
#[allow(clippy::too_many_arguments)]
fn check_stream(
    g: &GeneratedWorld,
    mode: ErMode,
    scheme: WeightingScheme,
    pruning: Pruning,
    batches: &[Vec<minoan::rdf::EntityId>],
    workers: usize,
    expect_delta: bool,
    label: &str,
) {
    let mut inc = IncrementalSession::new(&g.dataset, mode);
    inc.scheme(scheme).pruning(pruning).workers(workers);
    assert_eq!(inc.supports_delta(), expect_delta, "{label}: delta support");
    for (i, batch) in batches.iter().enumerate() {
        let report = inc.ingest(batch);
        if i > 0 || !batch.is_empty() {
            assert_eq!(
                report.delta, expect_delta,
                "{label}: batch {i} delta flag (report {report:?})"
            );
        }
        if !expect_delta {
            assert_eq!(
                report.swept_entities, 0,
                "{label}: a fallback sweeps no rows"
            );
        }
        let got = inc.outcome();
        let snap = inc.snapshot().expect("ingest leaves a snapshot behind");
        let want = Session::new(snap)
            .scheme(scheme)
            .pruning(pruning)
            .backend(ExecutionBackend::Streaming)
            .workers(workers)
            .run();
        assert_bit_identical(&got.pruned, &want.pruned, &format!("{label}: batch {i}"));
        assert_bit_identical(
            &got.pruned,
            &oracle::prune(&BlockingGraph::build(snap), scheme, pruning),
            &format!("{label}: batch {i} vs reference"),
        );
    }
}

#[test]
fn delta_sweeps_are_bit_identical_to_from_scratch_sessions() {
    for mode in [ErMode::CleanClean, ErMode::Dirty] {
        let g = world(mode);
        let order = ArrivalOrder::Shuffled { seed: 7 };
        let batches = order.batches(&g.dataset, &g.truth, 37);
        for scheme in DELTA_SCHEMES {
            for pruning in DELTA_FAMILIES {
                check_stream(
                    &g,
                    mode,
                    scheme,
                    pruning,
                    &batches,
                    2,
                    true,
                    &format!("{mode:?}/{scheme:?}/{pruning:?}"),
                );
            }
        }
    }
}

#[test]
fn every_arrival_order_converges_bit_identically() {
    let mode = ErMode::CleanClean;
    let g = world(mode);
    for order in ArrivalOrder::all(19) {
        let batches = order.batches(&g.dataset, &g.truth, 53);
        check_stream(
            &g,
            mode,
            WeightingScheme::Js,
            Pruning::Wnp { reciprocal: false },
            &batches,
            2,
            true,
            &format!("order {}", order.name()),
        );
    }
}

#[test]
fn batch_size_does_not_change_a_bit() {
    let mode = ErMode::Dirty;
    let g = world(mode);
    let order = ArrivalOrder::RoundRobin;
    for batch_size in [1usize, 13, 64, g.dataset.len()] {
        let batches = order.batches(&g.dataset, &g.truth, batch_size);
        check_stream(
            &g,
            mode,
            WeightingScheme::Arcs,
            Pruning::Cnp {
                reciprocal: false,
                k: None,
            },
            &batches,
            2,
            true,
            &format!("batch size {batch_size}"),
        );
    }
}

#[test]
fn thread_counts_do_not_change_a_bit() {
    let mode = ErMode::CleanClean;
    let g = world(mode);
    let batches = ArrivalOrder::KbSequential.batches(&g.dataset, &g.truth, 41);
    for workers in [1usize, 2, 4, 8] {
        check_stream(
            &g,
            mode,
            WeightingScheme::Cbs,
            Pruning::Wep,
            &batches,
            workers,
            true,
            &format!("workers {workers}"),
        );
    }
}

#[test]
fn unsupported_combinations_fall_back_bit_identically() {
    let mode = ErMode::CleanClean;
    let g = world(mode);
    let batches = ArrivalOrder::Shuffled { seed: 3 }.batches(&g.dataset, &g.truth, 61);
    for (scheme, pruning) in [
        (WeightingScheme::Ecbs, Pruning::Wnp { reciprocal: false }),
        (WeightingScheme::Ejs, Pruning::Wep),
        (WeightingScheme::Cbs, Pruning::blast()),
    ] {
        check_stream(
            &g,
            mode,
            scheme,
            pruning,
            &batches,
            2,
            false,
            &format!("fallback {scheme:?}/{pruning:?}"),
        );
    }
}

/// A small tail batch re-sweeps a strict subset of the corpus. The
/// periphery regime has proprietary vocabularies, so the batch dirties
/// only its own neighbourhood (in a center-style world with universal
/// tokens a batch can legitimately dirty everyone).
#[test]
fn small_batches_re_sweep_a_strict_subset() {
    let g = generate(&profiles::periphery_sparse(220, 17));
    let ids: Vec<_> = g.dataset.entities().collect();
    let (bulk, tail) = ids.split_at(ids.len() - 5);
    let pruning = Pruning::Wnp { reciprocal: false };
    for scheme in [WeightingScheme::Cbs, WeightingScheme::Arcs] {
        let mut inc = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
        inc.scheme(scheme).pruning(pruning);
        inc.ingest(bulk);
        let report = inc.ingest(tail);
        assert!(report.delta && report.touched_blocks > 0, "{report:?}");
        if scheme == WeightingScheme::Arcs {
            // ARCS re-sweeps exactly the members of the touched blocks.
            assert_eq!(report.swept_entities, report.dirty_entities, "{report:?}");
        }
        assert!(
            report.swept_entities < report.num_arrived,
            "{scheme:?}: dirty sweep must touch a strict subset: {} of {}",
            report.swept_entities,
            report.num_arrived
        );
        let got = inc.outcome();
        let snap = inc.snapshot().expect("ingest leaves a snapshot behind");
        assert_bit_identical(
            &got.pruned,
            &oracle::prune(&BlockingGraph::build(snap), scheme, pruning),
            &format!("{scheme:?}: tail batch vs reference"),
        );
    }
}

#[test]
fn final_state_matches_batch_token_blocking() {
    for mode in [ErMode::CleanClean, ErMode::Dirty] {
        let g = world(mode);
        let mut inc = IncrementalSession::new(&g.dataset, mode);
        inc.scheme(WeightingScheme::Js)
            .pruning(Pruning::Wnp { reciprocal: true })
            .workers(2);
        for batch in ArrivalOrder::ClusteredBursts.batches(&g.dataset, &g.truth, 29) {
            inc.ingest(&batch);
        }
        let got = inc.outcome();
        let blocks = builders::token_blocking(&g.dataset, mode);
        let want = Session::new(&blocks)
            .scheme(WeightingScheme::Js)
            .pruning(Pruning::Wnp { reciprocal: true })
            .backend(ExecutionBackend::Materialized)
            .run();
        assert_bit_identical(&got.pruned, &want.pruned, &format!("{mode:?} final"));
    }
}
