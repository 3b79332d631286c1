//! The `serve` bench family: query-time resolution over the TCP server,
//! cached vs uncached, under concurrent ingest.
//!
//! The question the family answers: what does a `RESOLVE` cost when the
//! corpus is live? Both variants replay the *same* Zipf-skewed query
//! streams (seeded [`QueryMix`] per client) against the same world while
//! an ingest client keeps feeding arrival batches:
//!
//! * **cached** — the hot-neighbourhood cache enabled; ingests
//!   invalidate through the dirty sets (the bench combination, JS × WNP,
//!   is locally invalidatable), so hot entities are answered without a
//!   sweep until an arrival actually touches their neighbourhood;
//! * **uncached** — capacity 0; every resolve sweeps.
//!
//! Latency is measured per request at the client (full round trip over
//! loopback), so coalescing and lock contention are inside the measured
//! path, exactly as a caller would see them. The smoke mode replays
//! interleaved resolves and ingests, records every `(entity, version,
//! pairs)` answer, and re-derives each one from a fresh
//! [`IncrementalSession`] fed the same batch prefix — bitwise equality,
//! cache hits and misses alike — before any timing is trusted.

use crate::incremental::bench_world;
use minoan_blocking::ErMode;
use minoan_common::stats::percentile;
use minoan_common::QueryMix;
use minoan_datagen::generate;
use minoan_metablocking::{IncrementalSession, Pruning, WeightingScheme};
use minoan_rdf::{Dataset, EntityId};
use minoan_server::{Client, ResolveService, Server, StatsReply};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The scheme × pruning the family serves: JS × WNP delta-sweeps on
/// ingest *and* is locally invalidatable, so the cached variant shows
/// the dirty-set invalidation path rather than clearing wholesale.
pub const BENCH_SCHEME: WeightingScheme = WeightingScheme::Js;
/// See [`BENCH_SCHEME`].
pub const BENCH_PRUNING: Pruning = Pruning::Wnp { reciprocal: false };

/// One served answer as recorded by a query client: `(entity, stamped
/// version, pairs as raw bits)` — exactly what the smoke re-derives.
type RecordedAnswer = (u32, u64, Vec<(u32, u32, u64)>);

/// Share of the corpus ingested before the query run starts.
const PRELOAD_PERMILLE: usize = 550;
/// Arrival batch size for the concurrent ingest client.
const INGEST_BATCH: usize = 256;
/// Query skew (Zipf exponent) — a hot head with a long tail.
const SKEW: f64 = 1.0;

/// One measured variant of one configuration.
pub struct ServeRow {
    /// World size (entities parameter of the generator).
    pub world: usize,
    /// Descriptions in the generated corpus.
    pub descriptions: usize,
    /// `cached` or `uncached`.
    pub variant: &'static str,
    /// Concurrent query clients.
    pub clients: usize,
    /// Total resolves issued across all clients.
    pub requests: usize,
    /// Median round-trip resolve latency.
    pub p50_nanos: u128,
    /// Tail round-trip resolve latency.
    pub p99_nanos: u128,
    /// Wall clock of the query phase.
    pub total_nanos: u128,
    /// Resolves per second across all clients.
    pub qps: f64,
    /// Cache hits / (hits + misses) server-side.
    pub hit_rate: f64,
    /// Resolves that piggybacked on an in-flight duplicate.
    pub coalesced: u64,
    /// Arrival batches the concurrent ingest client applied mid-run.
    pub ingested_batches: usize,
}

struct VariantOutcome {
    latencies: Vec<f64>,
    wall_nanos: u128,
    stats: StatsReply,
    ingested_batches: usize,
}

/// Runs one server variant: preload, then `clients` query threads
/// replaying seeded mixes while one ingest thread feeds the remaining
/// corpus in batches. Returns client-side latencies and the server's own
/// counters.
fn run_variant(
    dataset: &Dataset,
    preload: &[u32],
    rest: &[Vec<u32>],
    cache: usize,
    clients: usize,
    requests_per_client: usize,
    workers: usize,
) -> VariantOutcome {
    let service = ResolveService::new(
        dataset,
        ErMode::CleanClean,
        BENCH_SCHEME,
        BENCH_PRUNING,
        cache,
    );
    service.ingest(preload).expect("preload batch is valid");
    let server = Server::bind("127.0.0.1:0", service, workers).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let done = AtomicBool::new(false);
    let n = dataset.len();
    std::thread::scope(|s| {
        let running = s.spawn(|| server.run());
        let ingester = s.spawn(|| {
            let mut client = Client::connect(addr).expect("ingest client connects");
            let mut batches = 0usize;
            for batch in rest {
                if done.load(Ordering::Relaxed) {
                    break;
                }
                client.ingest(batch).expect("ingest batch is valid");
                batches += 1;
            }
            batches
        });
        let wall = Instant::now();
        let query_threads: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("query client connects");
                    // Seed depends on the client index only, so the
                    // cached and uncached variants replay identical
                    // per-client streams.
                    let mut mix = QueryMix::new(n, SKEW, 1000 + c as u64);
                    let mut latencies = Vec::with_capacity(requests_per_client);
                    for _ in 0..requests_per_client {
                        let entity = mix.next_entity();
                        let t = Instant::now();
                        black_box(client.resolve(entity).expect("resolve in range"));
                        latencies.push(t.elapsed().as_nanos() as f64);
                    }
                    latencies
                })
            })
            .collect();
        let mut latencies = Vec::with_capacity(clients * requests_per_client);
        for handle in query_threads {
            latencies.extend(handle.join().expect("query client finishes"));
        }
        let wall_nanos = wall.elapsed().as_nanos();
        done.store(true, Ordering::Relaxed);
        let ingested_batches = ingester.join().expect("ingest client finishes");
        let stats = server.service().stats();
        Client::connect(addr)
            .and_then(|mut c| c.shutdown())
            .expect("clean shutdown");
        running
            .join()
            .expect("server thread exits")
            .expect("server run ok");
        VariantOutcome {
            latencies,
            wall_nanos,
            stats,
            ingested_batches,
        }
    })
}

/// Splits the corpus into the preload prefix and the ingest batches the
/// concurrent ingester feeds during the query phase.
fn split_corpus(descriptions: usize) -> (Vec<u32>, Vec<Vec<u32>>) {
    let preload_n = (descriptions * PRELOAD_PERMILLE / 1000).max(1);
    let preload: Vec<u32> = (0..preload_n as u32).collect();
    let rest: Vec<Vec<u32>> = (preload_n as u32..descriptions as u32)
        .collect::<Vec<u32>>()
        .chunks(INGEST_BATCH)
        .map(|c| c.to_vec())
        .collect();
    (preload, rest)
}

/// Runs the family: `cached` (capacity `cache`) vs `uncached` (capacity
/// 0) on the same world, same query streams, same arrival stream.
pub fn run_family(world: usize, requests: usize, clients: usize, cache: usize) -> Vec<ServeRow> {
    let g = generate(&bench_world(world));
    let descriptions = g.dataset.len();
    let (preload, rest) = split_corpus(descriptions);
    let per_client = (requests / clients.max(1)).max(1);
    let workers = clients.max(2);
    println!(
        "serve: world {world} ({descriptions} descriptions, {} preloaded, {} ingest batches), \
         {clients} clients × {per_client} resolves, cache {cache}",
        preload.len(),
        rest.len()
    );
    let mut rows = Vec::new();
    for (variant, capacity) in [("cached", cache), ("uncached", 0usize)] {
        let out = run_variant(
            &g.dataset, &preload, &rest, capacity, clients, per_client, workers,
        );
        let issued = out.latencies.len();
        let answered = out.stats.cache_hits + out.stats.cache_misses;
        let row = ServeRow {
            world,
            descriptions,
            variant,
            clients,
            requests: issued,
            p50_nanos: percentile(&out.latencies, 50.0) as u128,
            p99_nanos: percentile(&out.latencies, 99.0) as u128,
            total_nanos: out.wall_nanos,
            qps: issued as f64 / (out.wall_nanos as f64 / 1e9),
            hit_rate: if answered == 0 {
                0.0
            } else {
                out.stats.cache_hits as f64 / answered as f64
            },
            coalesced: out.stats.coalesced,
            ingested_batches: out.ingested_batches,
        };
        println!(
            "  {:<9} p50 {:>9.1} µs  p99 {:>9.1} µs  {:>9.0} qps  hit rate {:.3}  \
             coalesced {}  ({} ingest batches mid-run)",
            row.variant,
            row.p50_nanos as f64 / 1e3,
            row.p99_nanos as f64 / 1e3,
            row.qps,
            row.hit_rate,
            row.coalesced,
            row.ingested_batches
        );
        rows.push(row);
    }
    rows
}

/// Smoke gate: interleaved resolves and ingests over the live server,
/// every recorded `(entity, version, pairs)` answer re-derived from a
/// fresh [`IncrementalSession`] fed the same batch prefix — bitwise.
pub fn smoke() {
    let g = generate(&bench_world(400));
    let descriptions = g.dataset.len();
    let (preload, rest) = split_corpus(descriptions);
    let service = ResolveService::new(
        &g.dataset,
        ErMode::CleanClean,
        BENCH_SCHEME,
        BENCH_PRUNING,
        128,
    );
    service.ingest(&preload).expect("preload batch is valid");
    let server = Server::bind("127.0.0.1:0", service, 2).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");

    // Interleave: one ingest client applies batches in order while two
    // query clients hammer a shared Zipf mix; every answer is recorded.
    let recorded: Vec<RecordedAnswer> = std::thread::scope(|s| {
        let running = s.spawn(|| server.run());
        let queriers: Vec<_> = (0..2)
            .map(|c| {
                let rest = &rest;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("query client connects");
                    let mut mix = QueryMix::new(descriptions, SKEW, 77 + c as u64);
                    let mut seen = Vec::new();
                    // More resolves than batches, so hits, misses and
                    // invalidations all occur between version bumps.
                    for _ in 0..rest.len() * 8 + 40 {
                        let entity = mix.next_entity();
                        let r = client.resolve(entity).expect("resolve in range");
                        seen.push((r.entity, r.version, r.pairs));
                    }
                    seen
                })
            })
            .collect();
        let mut ingest = Client::connect(addr).expect("ingest client connects");
        for batch in &rest {
            ingest.ingest(batch).expect("ingest batch is valid");
        }
        let mut recorded = Vec::new();
        for q in queriers {
            recorded.extend(q.join().expect("query client finishes"));
        }
        let stats = server.service().stats();
        assert!(stats.cache_hits > 0, "smoke must exercise the cache");
        assert!(stats.cache_misses > 0, "smoke must exercise sweeps");
        ingest.shutdown().expect("clean shutdown");
        running
            .join()
            .expect("server thread exits")
            .expect("server run ok");
        recorded
    });

    // Reference: version v means preload + the first v-1 ingest batches
    // (the single ingest connection applies them in order).
    let mut references: BTreeMap<u64, IncrementalSession<'_>> = BTreeMap::new();
    let mut versions_checked = std::collections::BTreeSet::new();
    for (entity, version, pairs) in &recorded {
        let session = references.entry(*version).or_insert_with(|| {
            let mut session = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
            session.scheme(BENCH_SCHEME).pruning(BENCH_PRUNING);
            let mut ids: Vec<EntityId> = preload.iter().map(|&e| EntityId(e)).collect();
            for batch in rest.iter().take(*version as usize - 1) {
                ids.extend(batch.iter().map(|&e| EntityId(e)));
            }
            session.ingest(&ids);
            session
        });
        let want = session.resolve_entity(EntityId(*entity));
        let want_bits: Vec<(u32, u32, u64)> = want
            .matches
            .iter()
            .map(|p| (p.a.0, p.b.0, p.weight.to_bits()))
            .collect();
        assert_eq!(
            *pairs, want_bits,
            "entity {entity} at version {version}: served answer diverged"
        );
        versions_checked.insert(*version);
    }
    assert!(
        versions_checked.len() > 1,
        "smoke must observe more than one corpus version, got {versions_checked:?}"
    );
    println!(
        "serve smoke: {} answers across {} corpus versions re-derived bit-identically — OK",
        recorded.len(),
        versions_checked.len()
    );
}

/// Formats the rows as the `serve` JSON section body.
pub fn rows_json(rows: &[ServeRow], threads: usize) -> String {
    let mut out = String::new();
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"world_entities\": {}, \"descriptions\": {}, \"variant\": \"{}\", \
             \"clients\": {}, \"requests\": {}, \"p50_nanos\": {}, \"p99_nanos\": {}, \
             \"total_nanos\": {}, \"qps\": {:.1}, \"cache_hit_rate\": {:.4}, \
             \"coalesced\": {}, \"ingested_batches\": {}, \"threads\": {}}}{}\n",
            r.world,
            r.descriptions,
            r.variant,
            r.clients,
            r.requests,
            r.p50_nanos,
            r.p99_nanos,
            r.total_nanos,
            r.qps,
            r.hit_rate,
            r.coalesced,
            r.ingested_batches,
            threads,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_rederives_every_answer() {
        smoke();
    }

    #[test]
    fn run_family_measures_both_variants() {
        let rows = run_family(300, 400, 2, 512);
        let [cached, uncached] = rows.as_slice() else {
            panic!("expected 2 rows, got {}", rows.len());
        };
        assert_eq!(cached.variant, "cached");
        assert_eq!(uncached.variant, "uncached");
        assert_eq!(cached.requests, uncached.requests, "same replayed streams");
        assert!(cached.hit_rate > 0.0, "cached variant must hit");
        assert_eq!(uncached.hit_rate, 0.0, "capacity 0 cannot hit");
        assert!(cached.p50_nanos > 0 && uncached.p50_nanos > 0);
        assert!(cached.p99_nanos >= cached.p50_nanos);
    }
}
