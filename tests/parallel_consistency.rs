//! Cross-crate consistency of the MapReduce formulations: the parallel
//! blocking and meta-blocking implementations must produce results
//! identical to their serial counterparts at any worker count.
//!
//! The heart of the suite is the full equivalence matrix: every weighting
//! scheme × every pruning family (WNP, CNP, WEP, CEP, BLAST; reciprocal
//! variants included) × workers {1, 3, 8}, asserting the
//! entity-partitioned MapReduce backend is **bit-identical** to the
//! reference implementations over the materialised graph
//! (`common::oracle`) — pair-for-pair order, f64 weight bits and the
//! reported input-edge counts.

use minoan::blocking::parallel::parallel_token_blocking;
use minoan::blocking::{builders, ErMode};
use minoan::metablocking::parallel;
use minoan::metablocking::{BlockingGraph, ExecutionBackend, PrunedComparisons};
use minoan::prelude::*;

mod common;
use common::{assert_bit_identical, oracle};

/// One MapReduce session run on `workers` workers.
fn mapreduce(
    blocks: &BlockCollection,
    scheme: WeightingScheme,
    pruning: Pruning,
    workers: usize,
) -> PrunedComparisons {
    common::run(
        blocks,
        scheme,
        pruning,
        ExecutionBackend::MapReduce,
        workers,
    )
}

#[test]
fn parallel_blocking_identical_for_all_worker_counts() {
    let world = generate(&profiles::lod_cloud(200, 3));
    let serial = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    for workers in [1, 2, 5, 16] {
        let par =
            parallel_token_blocking(&world.dataset, ErMode::CleanClean, &Engine::new(workers));
        assert_eq!(par.len(), serial.len(), "workers={workers}");
        assert_eq!(par.total_comparisons(), serial.total_comparisons());
        assert_eq!(par.total_assignments(), serial.total_assignments());
    }
}

/// The full matrix: scheme × pruning family × worker count, entity-based
/// MapReduce vs the reference over the materialised graph, bit-for-bit.
#[test]
fn entity_partitioned_matrix_is_bit_identical_to_materialised() {
    let world = generate(&profiles::center_dense(140, 13));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let cleaned = filter::clean(&blocks);
    let graph = BlockingGraph::build(&cleaned);
    for workers in [1usize, 3, 8] {
        for scheme in WeightingScheme::ALL {
            let label = |family: &str| format!("{family}/{scheme:?}/w={workers}");

            assert_bit_identical(
                &mapreduce(&cleaned, scheme, Pruning::Wep, workers),
                &oracle::wep(&graph, scheme),
                &label("wep"),
            );

            for k in [None, Some(25)] {
                assert_bit_identical(
                    &mapreduce(&cleaned, scheme, Pruning::Cep(k), workers),
                    &oracle::cep(&graph, scheme, k),
                    &label(&format!("cep{k:?}")),
                );
            }

            for reciprocal in [false, true] {
                assert_bit_identical(
                    &mapreduce(&cleaned, scheme, Pruning::Wnp { reciprocal }, workers),
                    &oracle::wnp(&graph, scheme, reciprocal),
                    &label(&format!("wnp/r={reciprocal}")),
                );

                for k in [None, Some(3)] {
                    assert_bit_identical(
                        &mapreduce(&cleaned, scheme, Pruning::Cnp { reciprocal, k }, workers),
                        &oracle::cnp(&graph, scheme, reciprocal, k),
                        &label(&format!("cnp{k:?}/r={reciprocal}")),
                    );
                }
            }
        }

        // BLAST is scheme-free (χ² weights).
        for ratio in [0.35, 0.8] {
            assert_bit_identical(
                &mapreduce(
                    &cleaned,
                    WeightingScheme::Arcs,
                    Pruning::Blast { ratio },
                    workers,
                ),
                &oracle::blast(&graph, ratio),
                &format!("blast/{ratio}/w={workers}"),
            );
        }
    }
}

/// The unpruned path: the entity-based weighting job reproduces the edge
/// slab exactly.
#[test]
fn entity_partitioned_weighted_edges_match_the_slab() {
    let world = generate(&profiles::center_dense(120, 29));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let graph = BlockingGraph::build(&blocks);
    for workers in [1, 3, 8] {
        for scheme in WeightingScheme::ALL {
            assert_bit_identical(
                &mapreduce(&blocks, scheme, Pruning::None, workers),
                &oracle::none(&graph, scheme),
                &format!("{scheme:?}/w={workers}"),
            );
        }
    }
}

/// The edge-based (per-occurrence shuffle) baseline reproduces the edge
/// slab — pairs, order and weight bits — under every scheme, including
/// ECBS/EJS with their zero-weight edges.
#[test]
fn edge_based_baseline_matches_serial_on_every_scheme() {
    let world = generate(&profiles::center_dense(180, 13));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let cleaned = filter::clean(&blocks);
    let graph = BlockingGraph::build(&cleaned);
    let engine = Engine::new(4);
    for scheme in WeightingScheme::ALL {
        let weighted = parallel::parallel_edge_weights(&cleaned, scheme, &engine);
        common::assert_pairs_bit_identical(
            &weighted,
            &oracle::none(&graph, scheme).pairs,
            &format!("edge-based weights/{scheme:?}"),
        );
    }
}

#[test]
fn parallel_cnp_reciprocal_variants_match_serial() {
    let world = generate(&profiles::periphery_sparse(150, 17));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let graph = BlockingGraph::build(&blocks);
    for reciprocal in [false, true] {
        let k = Some(4);
        assert_bit_identical(
            &mapreduce(
                &blocks,
                WeightingScheme::Ecbs,
                Pruning::Cnp { reciprocal, k },
                3,
            ),
            &oracle::cnp(&graph, WeightingScheme::Ecbs, reciprocal, k),
            &format!("cnp/r={reciprocal}"),
        );
    }
}

/// The entity-partitioned strategy's whole point: its shuffle volume is
/// bounded by the entity count, not the pair-occurrence count.
#[test]
fn entity_based_shuffle_volume_is_per_entity_not_per_occurrence() {
    let world = generate(&profiles::center_dense(200, 41));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let engine = Engine::new(4);
    let (_, edge_stats) =
        parallel::parallel_edge_weights_with_stats(&blocks, WeightingScheme::Arcs, &engine);
    for (label, pruning) in [
        ("wnp", Pruning::Wnp { reciprocal: false }),
        ("wep", Pruning::Wep),
        ("cep", Pruning::Cep(Some(50))),
    ] {
        let report = Session::new(&blocks)
            .scheme(WeightingScheme::Arcs)
            .pruning(pruning)
            .backend(ExecutionBackend::MapReduce)
            .workers(4)
            .run()
            .report;
        for (job, stats) in &report.jobs {
            // The vote-combination job shuffles the (small) kept set; every
            // other job is bounded by one record per entity neighbourhood.
            if job.ends_with("votes") {
                continue;
            }
            assert!(
                stats.intermediate_pairs <= blocks.num_entities(),
                "{label}/{job}: weighting jobs shuffle at most one record per entity \
                 ({} vs {} entities)",
                stats.intermediate_pairs,
                blocks.num_entities()
            );
        }
        assert!(
            report.shuffled_records() < edge_stats.intermediate_pairs,
            "{label}: {} entity-based records vs {} per-occurrence records",
            report.shuffled_records(),
            edge_stats.intermediate_pairs
        );
    }
}

#[test]
fn full_pipeline_on_parallel_blocks_equals_serial_blocks() {
    let world = generate(&profiles::center_dense(150, 19));
    let serial_blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let parallel_blocks =
        parallel_token_blocking(&world.dataset, ErMode::CleanClean, &Engine::new(8));
    let pipeline = Pipeline::new(PipelineConfig::default());
    let cs = pipeline.meta_block(&pipeline.clean_blocks(serial_blocks));
    let cp = pipeline.meta_block(&pipeline.clean_blocks(parallel_blocks));
    assert_eq!(cs.len(), cp.len());
    for (s, p) in cs.iter().zip(&cp) {
        assert_eq!((s.0, s.1), (p.0, p.1));
        assert!((s.2 - p.2).abs() < 1e-9);
    }
}

/// Pins the MapReduce shuffle volume per family on one fixed fixture:
/// the exact `(job label, shuffled records)` list of every entity-based
/// run. These counts carry the paper's shuffle-volume claim (the
/// `mapreduce_results` rows of `BENCH_metablocking.json`), so a refactor
/// of the jobs may not move a single record.
#[test]
fn mapreduce_job_labels_and_shuffle_counts_are_pinned() {
    use minoan::metablocking::{FeatureExtractor, Perceptron, TrainingSet};
    let world = generate(&profiles::center_dense(200, 41));
    let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
    let graph = BlockingGraph::build(&blocks);
    let extractor = FeatureExtractor::fit(&graph);
    let set = TrainingSet::sample(&graph, &extractor, |a, b| world.truth.is_match(a, b), 40, 7);
    let model = Perceptron::train(&set, 12);
    // `(job label, shuffled records)` per job, in execution order.
    type Jobs = &'static [(&'static str, usize)];
    let pinned: [(&str, Pruning, Jobs); 6] = [
        (
            "wnp",
            Pruning::Wnp { reciprocal: false },
            &[("wnp/neighbourhoods", 363), ("wnp/votes", 5156)],
        ),
        (
            "cnp",
            Pruning::Cnp {
                reciprocal: false,
                k: None,
            },
            &[
                ("count", 363),
                ("cnp/neighbourhoods", 363),
                ("cnp/votes", 5445),
            ],
        ),
        (
            "wep",
            Pruning::Wep,
            &[("wep/partial-sums", 183), ("wep/filter", 183)],
        ),
        ("cep", Pruning::Cep(None), &[("cep/local-topk", 9)]),
        (
            "blast",
            Pruning::blast(),
            &[("blast/local-maxima", 363), ("blast/filter", 183)],
        ),
        (
            "supervised",
            Pruning::Supervised(model),
            &[
                ("count", 363),
                ("supervised/feature-maxima", 9),
                ("supervised/score", 154),
            ],
        ),
    ];
    for (family, pruning, expect) in pinned {
        let out = Session::new(&blocks)
            .scheme(WeightingScheme::Arcs)
            .pruning(pruning)
            .backend(ExecutionBackend::MapReduce)
            .workers(4)
            .run();
        let got: Vec<(&str, usize)> = out
            .report
            .jobs
            .iter()
            .map(|(label, stats)| (*label, stats.intermediate_pairs))
            .collect();
        assert_eq!(got, expect, "{family}: job labels and shuffled records");
    }
}
