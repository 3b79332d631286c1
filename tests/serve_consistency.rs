//! Consistency suite for the resolution service: any interleaving of
//! `RESOLVE` and `INGEST` — sequential or concurrent, cache on or off,
//! over the wire or in-process — must answer every resolve bit-identical
//! to the incident slice of a from-scratch reference run (`common::oracle`)
//! over the corpus at the answer's stamped version (the admission point). Run under
//! `RUST_TEST_THREADS=1` and `4` in CI; per-worker identity is also
//! asserted in-process.

mod common;

use common::{assert_pairs_bit_identical, oracle};
use minoan::blocking::ErMode;
use minoan::datagen::{generate, profiles, ArrivalOrder, GeneratedWorld};
use minoan::metablocking::{
    BlockingGraph, IncrementalSession, Pruning, WeightedPair, WeightingScheme,
};
use minoan::rdf::EntityId;
use minoan_server::{Client, ResolveService, Server};
use std::collections::BTreeMap;

fn world() -> GeneratedWorld {
    generate(&profiles::center_dense(120, 17))
}

/// Arrival batches as raw u32 ids (the service's wire-level currency).
fn id_batches(g: &GeneratedWorld, batch: usize) -> Vec<Vec<u32>> {
    ArrivalOrder::Shuffled { seed: 3 }
        .batches(&g.dataset, &g.truth, batch)
        .into_iter()
        .map(|b| b.iter().map(|e| e.0).collect())
        .collect()
}

/// The from-scratch reference at one version: a fresh incremental
/// session fed the first `version` batches in one go, snapshotted, and
/// pruned by the reference implementation over the snapshot's blocking
/// graph (`common::oracle`); an entity's answer is its incident slice
/// (`version` counts ingests, so version v = the first v batches).
struct Reference<'d> {
    g: &'d GeneratedWorld,
    batches: &'d [Vec<u32>],
    scheme: WeightingScheme,
    pruning: Pruning,
    outcomes: BTreeMap<u64, Vec<WeightedPair>>,
}

impl<'d> Reference<'d> {
    fn new(
        g: &'d GeneratedWorld,
        batches: &'d [Vec<u32>],
        scheme: WeightingScheme,
        pruning: Pruning,
    ) -> Self {
        Self {
            g,
            batches,
            scheme,
            pruning,
            outcomes: BTreeMap::new(),
        }
    }

    fn resolve(&mut self, version: u64, entity: u32) -> Vec<WeightedPair> {
        let (g, batches, scheme, pruning) = (self.g, self.batches, self.scheme, self.pruning);
        let pairs = self.outcomes.entry(version).or_insert_with(|| {
            if version == 0 {
                return Vec::new();
            }
            let mut inc = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
            let merged: Vec<EntityId> = batches
                .iter()
                .take(version as usize)
                .flat_map(|b| b.iter().map(|&e| EntityId(e)))
                .collect();
            inc.ingest(&merged);
            let snap = inc.snapshot().expect("ingest leaves a snapshot behind");
            oracle::prune(&BlockingGraph::build(snap), scheme, pruning).pairs
        });
        let e = EntityId(entity);
        pairs
            .iter()
            .filter(|p| p.a == e || p.b == e)
            .copied()
            .collect()
    }
}

fn check_reply(
    reference: &mut Reference<'_>,
    entity: u32,
    version: u64,
    pairs: &[(u32, u32, u64)],
    label: &str,
) {
    let got: Vec<WeightedPair> = pairs
        .iter()
        .map(|&(a, b, bits)| WeightedPair {
            a: EntityId(a),
            b: EntityId(b),
            weight: f64::from_bits(bits),
        })
        .collect();
    let want = reference.resolve(version, entity);
    assert_pairs_bit_identical(&got, &want, &format!("{label}/v={version}/e={entity}"));
}

/// One recorded answer: `(entity, stamped version, pairs as raw bits)`.
type RecordedAnswer = (u32, u64, Vec<(u32, u32, u64)>);

/// Scheme × pruning mix covering the delta row-cache path, the global
/// criteria (whole-cache clears) and the per-request fallback path.
fn combos() -> Vec<(&'static str, WeightingScheme, Pruning)> {
    vec![
        (
            "js/wnp",
            WeightingScheme::Js,
            Pruning::Wnp { reciprocal: false },
        ),
        ("js/wep", WeightingScheme::Js, Pruning::Wep),
        ("arcs/cep", WeightingScheme::Arcs, Pruning::Cep(None)),
        (
            "ecbs/wnp",
            WeightingScheme::Ecbs,
            Pruning::Wnp { reciprocal: true },
        ),
    ]
}

/// Sequential interleaving: resolve a probe set, ingest a batch, resolve
/// again — every answer re-derived from scratch at its stamped version.
#[test]
fn interleaved_resolves_match_from_scratch_at_the_admission_point() {
    let g = world();
    let batches = id_batches(&g, 31);
    let n = g.dataset.len() as u32;
    // Hot probes repeat every round (cache-hit path); cold probes rotate.
    let hot = [3u32, 7, 11];
    for (label, scheme, pruning) in combos() {
        for cache in [0usize, 64] {
            let service =
                ResolveService::new(&g.dataset, ErMode::CleanClean, scheme, pruning, cache);
            let mut reference = Reference::new(&g, &batches, scheme, pruning);
            let tag = format!("{label}/cache={cache}");
            for (i, batch) in batches.iter().enumerate() {
                let r = service.ingest(batch).expect("valid batch");
                assert_eq!(r.version, i as u64 + 1, "{tag}: version counts ingests");
                // Twice per round: the second pass answers from the
                // cache at the same version (global criteria clear the
                // whole cache on every ingest, so only the intra-version
                // repeat is a guaranteed hit).
                for _ in 0..2 {
                    for &e in &hot {
                        let reply = service.resolve(e).expect("in range");
                        check_reply(&mut reference, e, reply.version, &reply.pairs, &tag);
                    }
                }
                let cold = (i as u32 * 13) % n;
                let reply = service.resolve(cold).expect("in range");
                check_reply(&mut reference, cold, reply.version, &reply.pairs, &tag);
            }
            let stats = service.stats();
            if cache > 0 {
                assert!(stats.cache_hits > 0, "{tag}: hot probes must hit the cache");
            } else {
                assert_eq!(stats.cache_hits, 0, "{tag}: capacity 0 cannot hit");
            }
        }
    }
}

/// Concurrent clients against the in-process service while the main
/// thread keeps ingesting: every recorded answer re-derived from scratch
/// at its stamped version, for sweep worker counts 1/2/4.
#[test]
fn concurrent_resolves_under_ingest_stay_version_consistent() {
    let g = world();
    let batches = id_batches(&g, 29);
    let n = g.dataset.len();
    let (scheme, pruning) = (WeightingScheme::Js, Pruning::Wnp { reciprocal: false });
    for workers in [1usize, 2, 4] {
        let service = ResolveService::new(&g.dataset, ErMode::CleanClean, scheme, pruning, 64);
        service.sweep_workers(workers);
        // Each client's first 40 resolves race the first half of the
        // ingests, its last 40 the second half: the clients meet the
        // ingesting thread at the midpoint, and resume only once one more
        // batch has landed — so answers span at least two versions however
        // fast the resolves run.
        let mid = batches.len() / 2;
        let midpoint = std::sync::Barrier::new(5);
        let ingested = std::sync::atomic::AtomicUsize::new(0);
        let recorded: Vec<RecordedAnswer> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..4)
                .map(|c| {
                    let (service, midpoint, ingested) = (&service, &midpoint, &ingested);
                    s.spawn(move || {
                        let mut mix = minoan::common::QueryMix::new(n, 1.0, 900 + c as u64);
                        let mut seen = Vec::new();
                        for i in 0..80 {
                            if i == 40 {
                                midpoint.wait();
                                while ingested.load(std::sync::atomic::Ordering::Acquire) <= mid {
                                    std::thread::yield_now();
                                }
                            }
                            let e = mix.next_entity();
                            let r = service.resolve(e).expect("in range");
                            seen.push((e, r.version, r.pairs));
                        }
                        seen
                    })
                })
                .collect();
            for (i, batch) in batches.iter().enumerate() {
                if i == mid {
                    midpoint.wait();
                }
                service.ingest(batch).expect("valid batch");
                ingested.fetch_add(1, std::sync::atomic::Ordering::Release);
            }
            clients
                .into_iter()
                .flat_map(|h| h.join().expect("client finishes"))
                .collect()
        });
        let stats = service.stats();
        assert_eq!(stats.resolves, 320, "w={workers}: all resolves counted");
        let mut reference = Reference::new(&g, &batches, scheme, pruning);
        let mut versions = std::collections::BTreeSet::new();
        for (entity, version, pairs) in &recorded {
            check_reply(
                &mut reference,
                *entity,
                *version,
                pairs,
                &format!("concurrent/w={workers}"),
            );
            versions.insert(*version);
        }
        assert!(
            versions.len() > 1,
            "w={workers}: interleaving must observe multiple versions, got {versions:?}"
        );
    }
}

/// The same contract over the wire: a TCP round trip must not change a
/// bit relative to the from-scratch reference.
#[test]
fn over_the_wire_answers_are_bit_identical_too() {
    let g = world();
    let batches = id_batches(&g, 41);
    let (scheme, pruning) = (WeightingScheme::Js, Pruning::Wnp { reciprocal: false });
    let service = ResolveService::new(&g.dataset, ErMode::CleanClean, scheme, pruning, 32);
    let server = Server::bind("127.0.0.1:0", service, 2).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let mut reference = Reference::new(&g, &batches, scheme, pruning);
    std::thread::scope(|s| {
        let running = s.spawn(|| server.run());
        let mut client = Client::connect(addr).expect("connect");
        for (i, batch) in batches.iter().enumerate() {
            client.ingest(batch).expect("valid batch");
            for e in [2u32, 5, 19] {
                let reply = client.resolve(e).expect("in range");
                check_reply(
                    &mut reference,
                    e,
                    reply.version,
                    &reply.pairs,
                    &format!("wire/batch={i}"),
                );
            }
        }
        client.shutdown().expect("clean shutdown");
        running
            .join()
            .expect("server thread exits")
            .expect("run returns ok");
    });
}
