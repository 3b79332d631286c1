//! Property test: the streaming meta-blocking backend produces
//! **bit-identical** pruned pair sets to the reference implementations
//! over the materialised CSR graph (`common::oracle`) for every pruning
//! family — edge-centric WEP/CEP as well as node-centric WNP/CNP (and
//! BLAST) — under all five weighting schemes, on random generated worlds,
//! for both the union and reciprocal variants, at thread counts 1/2/4/8.

use minoan::blocking::{builders, ErMode};
use minoan::metablocking::{BlockingGraph, ExecutionBackend};
use minoan::prelude::*;
use proptest::prelude::*;

mod common;
use common::{assert_bit_identical, oracle};

/// One streaming session run at `threads` workers.
fn streaming(
    blocks: &BlockCollection,
    scheme: WeightingScheme,
    pruning: Pruning,
    threads: usize,
) -> minoan::metablocking::PrunedComparisons {
    common::run(
        blocks,
        scheme,
        pruning,
        ExecutionBackend::Streaming,
        threads,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// WNP and CNP agree bitwise with the reference for every scheme,
    /// variant and thread count.
    #[test]
    fn streaming_equals_materialised(seed in 0u64..500, n in 40usize..120, threads in 1usize..5) {
        let world = generate(&profiles::center_periphery(n, seed));
        let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
        let graph = BlockingGraph::build(&blocks);
        for scheme in WeightingScheme::ALL {
            for reciprocal in [false, true] {
                let label = format!("{}/r={reciprocal}/t={threads}", scheme.name());
                assert_bit_identical(
                    &streaming(&blocks, scheme, Pruning::Wnp { reciprocal }, threads),
                    &oracle::wnp(&graph, scheme, reciprocal),
                    &format!("wnp/{label}"),
                );
                for k in [None, Some(2)] {
                    assert_bit_identical(
                        &streaming(&blocks, scheme, Pruning::Cnp { reciprocal, k }, threads),
                        &oracle::cnp(&graph, scheme, reciprocal, k),
                        &format!("cnp{k:?}/{label}"),
                    );
                }
            }
        }
    }

    /// Edge-centric WEP and CEP agree bitwise with the reference for every
    /// scheme at thread counts 1/2/4/8 — WEP's global mean comes from a
    /// fixed-shape pairwise reduction, CEP's global top-k from merged
    /// per-thread heaps, so neither may drift with the partitioning.
    #[test]
    fn streaming_wep_cep_equal_materialised(seed in 0u64..500, n in 40usize..120) {
        let world = generate(&profiles::center_periphery(n, seed));
        let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
        let graph = BlockingGraph::build(&blocks);
        for threads in [1usize, 2, 4, 8] {
            for scheme in WeightingScheme::ALL {
                let label = format!("{}/t={threads}", scheme.name());
                assert_bit_identical(
                    &streaming(&blocks, scheme, Pruning::Wep, threads),
                    &oracle::wep(&graph, scheme),
                    &format!("wep/{label}"),
                );
                for k in [None, Some(7)] {
                    assert_bit_identical(
                        &streaming(&blocks, scheme, Pruning::Cep(k), threads),
                        &oracle::cep(&graph, scheme, k),
                        &format!("cep{k:?}/{label}"),
                    );
                }
            }
        }
    }

    /// The unpruned streaming edge enumeration reproduces the edge slab
    /// (pairs, order and weight bits) without building it.
    #[test]
    fn streaming_weighted_edges_equal_the_slab(seed in 0u64..500, n in 40usize..100) {
        let world = generate(&profiles::lod_cloud(n, seed));
        let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
        let graph = BlockingGraph::build(&blocks);
        for threads in [1usize, 4] {
            for scheme in WeightingScheme::ALL {
                let stream = streaming(&blocks, scheme, Pruning::None, threads);
                prop_assert_eq!(stream.input_edges, graph.num_edges());
                prop_assert_eq!(stream.pairs.len(), graph.num_edges());
                for (s, e) in stream.pairs.iter().zip(graph.edges()) {
                    prop_assert_eq!((s.a, s.b), (e.a, e.b));
                    prop_assert_eq!(s.weight.to_bits(), scheme.weight(&graph, e).to_bits());
                }
            }
        }
    }

    /// BLAST agrees bitwise with the reference across keep ratios.
    #[test]
    fn streaming_blast_equals_materialised(seed in 0u64..500, ratio in 0.1f64..1.0) {
        let world = generate(&profiles::center_dense(80, seed));
        let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
        let graph = BlockingGraph::build(&blocks);
        for threads in [1usize, 4] {
            assert_bit_identical(
                &streaming(&blocks, WeightingScheme::Arcs, Pruning::Blast { ratio }, threads),
                &oracle::blast(&graph, ratio),
                &format!("blast/ratio={ratio:.2}/t={threads}"),
            );
        }
    }

    /// The CSR graph build itself is thread-count invariant on random
    /// worlds (offsets, adjacency and edge stats all bitwise equal).
    #[test]
    fn graph_build_is_thread_invariant(seed in 0u64..500, n in 40usize..120) {
        let world = generate(&profiles::lod_cloud(n, seed));
        let blocks = builders::token_blocking(&world.dataset, ErMode::CleanClean);
        let serial = BlockingGraph::build_with_threads(&blocks, 1);
        let par = BlockingGraph::build_with_threads(&blocks, 4);
        prop_assert_eq!(serial.num_edges(), par.num_edges());
        for (s, p) in serial.edges().iter().zip(par.edges()) {
            prop_assert_eq!((s.a, s.b, s.common_blocks), (p.a, p.b, p.common_blocks));
            prop_assert_eq!(s.arcs.to_bits(), p.arcs.to_bits());
        }
        for v in 0..serial.num_nodes() as u32 {
            prop_assert_eq!(serial.incident(EntityId(v)), par.incident(EntityId(v)));
        }
    }
}
