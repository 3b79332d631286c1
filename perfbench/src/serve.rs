//! `serve-mixed`: the `minoan serve` stack (`ResolveService` behind a
//! `Server`) under reads beside writes, over loopback.
//!
//! Each round builds a fresh service on the seeded bench world, preloads
//! most of it, and runs a closed loop from two client connections:
//!
//! * the **reader** issues as many seeded Zipf `RESOLVE`s back to back as
//!   the writer does;
//! * the **writer** repeats `WRITER_RESOLVES` seeded Zipf `RESOLVE`s
//!   followed by one `INGEST` of the next arrival batch, until every
//!   remaining description has arrived. The ingest cadence is tied to the
//!   writer's own request count, so every round applies the same batches
//!   at the same points of the writer's stream.
//!
//! Answers are recorded as `(entity, version)`; a seeded sample is
//! re-derived bit for bit from a from-scratch `IncrementalSession`
//! rebuilt at the answer's stamped version.

use crate::measure::{self, median, EndToEnd, Metrics, Stopwatch, Tally};
use crate::trace::Tracer;
use crate::{Context, RunConfig, RunOutput};
use minoan_blocking::ErMode;
use minoan_common::QueryMix;
use minoan_datagen::{generate, ArrivalOrder, GeneratedWorld};
use minoan_metablocking::{IncrementalSession, Pruning, WeightingScheme};
use minoan_rdf::EntityId;
use minoan_server::{Client, IngestReply, ResolveService, Server};
use std::time::Instant;

const NAME: &str = "serve-mixed";
const DESCRIBE: &str = "minoan serve stack (ARCS x WNP, cache 1024, 2 workers) on the bench \
                        world; one reader and one writer connection, closed loop, Zipf \
                        RESOLVEs with an INGEST after every fixed number of writer RESOLVEs";
/// Entities parameter of the generator.
const WORLD: usize = 4_000;
const SCHEME: WeightingScheme = WeightingScheme::Arcs;
const PRUNING: Pruning = Pruning::Wnp { reciprocal: false };
const CACHE: usize = 1024;
const SERVER_WORKERS: usize = 2;
/// Descriptions per `INGEST`.
const INGEST_BATCH: usize = 16;
/// `INGEST`s per round; everything else is preloaded.
const INGESTS: usize = 16;
/// Writer `RESOLVE`s between two of its `INGEST`s.
const WRITER_RESOLVES: usize = 300;
/// Query skew (Zipf exponent) over the preloaded descriptions.
const SKEW: f64 = 1.0;
/// Rounds per run at the least: the median round then has ten beyond it.
const MIN_ROUNDS: usize = 20;
/// Rounds whose sampled answers are re-derived from scratch.
const CHECKED_ROUNDS: u64 = 2;
/// Lowest acceptable pairwise F1 of the final candidate set.
const F1_FLOOR: f64 = 0.05;

/// The seeded arrival split of one world.
struct Plan {
    preload: Vec<u32>,
    batches: Vec<Vec<u32>>,
}

fn plan(g: &GeneratedWorld, seed: u64) -> Plan {
    let order: Vec<u32> = ArrivalOrder::Shuffled { seed }
        .order(&g.dataset, &g.truth)
        .into_iter()
        .map(|e| e.0)
        .collect();
    let split = order.len() - INGESTS * INGEST_BATCH;
    Plan {
        preload: order[..split].to_vec(),
        batches: order[split..]
            .chunks(INGEST_BATCH)
            .map(<[u32]>::to_vec)
            .collect(),
    }
}

/// One served answer: entity, stamped version, pairs as raw bits.
type Answer = (u32, u64, Vec<(u32, u32, u64)>);

/// What one connection saw.
#[derive(Default)]
struct Connection {
    /// `(entity, stamped version)` of every answer, in order.
    answers: Vec<(u32, u64)>,
    /// The full answer at the connection's sampled request index.
    sampled: Option<Answer>,
    resolve_us: Vec<f64>,
    ingest_ms: Vec<f64>,
    ingests: Vec<IngestReply>,
    errors: u64,
}

struct Round {
    reader: Connection,
    writer: Connection,
    wall: f64,
    cpu: f64,
    hit_ratio: f64,
    coalesced: u64,
    reader_tracer: Tracer,
    writer_tracer: Tracer,
}

fn resolve(
    client: &mut Client,
    entity: u32,
    tr: &mut Tracer,
    id: u64,
    sample: u64,
    conn: &mut Connection,
) {
    let span = tr.begin("server.resolve", id);
    let t = Instant::now();
    let reply = client.resolve(entity);
    conn.resolve_us.push(t.elapsed().as_secs_f64() * 1e6);
    tr.end(span);
    match reply {
        Ok(r) => {
            conn.answers.push((r.entity, r.version));
            if id == sample {
                conn.sampled = Some((r.entity, r.version, r.pairs));
            }
        }
        Err(e) => {
            eprintln!("resolve {entity}: {e}");
            conn.errors += 1;
        }
    }
}

/// The request id each connection keeps in full for the check: a
/// seeded pick among its `RESOLVE`s (the writer's ids also count its
/// `INGEST`s, one after every `WRITER_RESOLVES`).
fn sample_ids(seed: u64, round: u64) -> (u64, u64) {
    let h = seed
        .wrapping_add(round)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29);
    let resolves = (INGESTS * WRITER_RESOLVES) as u64;
    let (reader, writer) = (h % resolves, (h >> 32) % resolves);
    (reader, writer + writer / WRITER_RESOLVES as u64)
}

fn run_round(g: &GeneratedWorld, p: &Plan, seed: u64, round: u64, tr: &Tracer) -> (Round, f64) {
    let t = Instant::now();
    let service = ResolveService::new(&g.dataset, ErMode::CleanClean, SCHEME, PRUNING, CACHE);
    service.ingest(&p.preload).expect("preload batch is valid");
    let server = Server::bind("127.0.0.1:0", service, SERVER_WORKERS).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let setup = t.elapsed().as_secs_f64();

    let n = p.preload.len();
    let (reader_sample, writer_sample) = sample_ids(seed, round);
    let out = std::thread::scope(|s| {
        let running = s.spawn(|| server.run());
        let mut reader_tr = tr.fork();
        let mut writer_tr = tr.fork();
        let mut reader_client = Client::connect(addr).expect("reader connects");
        let mut writer_client = Client::connect(addr).expect("writer connects");
        let sw = Stopwatch::start();
        let reader = s.spawn(move || {
            let mut conn = Connection::default();
            let mut mix = QueryMix::new(n, SKEW, seed.wrapping_mul(2).wrapping_add(1));
            let root = reader_tr.begin("connection", round);
            for i in 0..(INGESTS * WRITER_RESOLVES) as u64 {
                let entity = p.preload[mix.next_entity() as usize];
                resolve(
                    &mut reader_client,
                    entity,
                    &mut reader_tr,
                    i,
                    reader_sample,
                    &mut conn,
                );
            }
            reader_tr.end(root);
            (conn, reader_tr, reader_client)
        });
        let writer = s.spawn(move || {
            let mut conn = Connection::default();
            let mut mix = QueryMix::new(n, SKEW, seed.wrapping_mul(2).wrapping_add(2));
            let root = writer_tr.begin("connection", round);
            let mut i = 0u64;
            for batch in &p.batches {
                for _ in 0..WRITER_RESOLVES {
                    let entity = p.preload[mix.next_entity() as usize];
                    resolve(
                        &mut writer_client,
                        entity,
                        &mut writer_tr,
                        i,
                        writer_sample,
                        &mut conn,
                    );
                    i += 1;
                }
                let span = writer_tr.begin("server.ingest", i);
                let t = Instant::now();
                let reply = writer_client.ingest(batch);
                conn.ingest_ms.push(t.elapsed().as_secs_f64() * 1e3);
                writer_tr.end(span);
                i += 1;
                match reply {
                    Ok(r) => conn.ingests.push(r),
                    Err(e) => {
                        eprintln!("ingest: {e}");
                        conn.errors += 1;
                    }
                }
            }
            writer_tr.end(root);
            (conn, writer_tr, writer_client)
        });
        let (reader, reader_tracer, reader_client) = reader.join().expect("reader thread");
        let (writer, writer_tracer, mut writer_client) = writer.join().expect("writer thread");
        let (wall, cpu) = sw.stop();
        let stats = writer_client.stats().expect("STATS");
        writer_client.shutdown().expect("SHUTDOWN");
        drop(reader_client);
        running.join().expect("server thread").expect("server run");
        let answered = (stats.cache_hits + stats.cache_misses).max(1);
        Round {
            reader,
            writer,
            wall,
            cpu,
            hit_ratio: stats.cache_hits as f64 / answered as f64,
            coalesced: stats.coalesced,
            reader_tracer,
            writer_tracer,
        }
    });
    (out, setup)
}

/// A session built from scratch at `version`: the preload, then the
/// first `version - 1` batches, ingested as one batch.
fn session_at<'d>(g: &'d GeneratedWorld, p: &Plan, version: u64) -> IncrementalSession<'d> {
    let mut session = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
    session.scheme(SCHEME).pruning(PRUNING);
    let mut ids: Vec<EntityId> = p.preload.iter().map(|&e| EntityId(e)).collect();
    for batch in p.batches.iter().take(version as usize - 1) {
        ids.extend(batch.iter().map(|&e| EntityId(e)));
    }
    session.ingest(&ids);
    session
}

fn bits(resolved: &minoan_metablocking::ResolvedEntity) -> Vec<(u32, u32, u64)> {
    resolved
        .matches
        .iter()
        .map(|m| (m.a.0, m.b.0, m.weight.to_bits()))
        .collect()
}

/// Replays a round's answers in version order: every answer stamped
/// `v` is asked again before batch `v` is ingested.
fn replay_order(round: &Round) -> Vec<Vec<u32>> {
    let mut by_version = vec![Vec::new(); INGESTS + 1];
    for conn in [&round.reader, &round.writer] {
        for (entity, version) in &conn.answers {
            by_version[*version as usize - 1].push(*entity);
        }
    }
    by_version
}

pub fn run(cfg: &RunConfig) -> RunOutput {
    let mut tr = Tracer::new(false, cfg.epoch);
    let mut tally = Tally::default();
    let mut e2e = EndToEnd::default();
    let mut traced_walls = Vec::new();
    let mut resolve_us = Vec::new();
    let mut ingest_ms = Vec::new();
    let mut hit_ratios = Vec::new();
    let mut coalesced = Vec::new();
    let mut invalidated = Vec::new();
    let mut last_traced: Option<Round> = None;
    let mut sample: Vec<Answer> = Vec::new();
    let mut world = None;

    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed().as_secs_f64() < cfg.seconds || (round as usize) < MIN_ROUNDS {
        round += 1;
        let traced = cfg.trace && round.is_multiple_of(2);
        tr.set_enabled(traced);
        let t = Instant::now();
        let g = bench_world(cfg.seed);
        let p = plan(&g, cfg.seed);
        let gen = t.elapsed().as_secs_f64();
        let (mut r, setup) = run_round(&g, &p, cfg.seed, round, &tr);
        e2e.first_peak_rss();
        world = Some((g, p));

        for conn in [&r.reader, &r.writer] {
            tally.attempted += (conn.resolve_us.len() + conn.ingest_ms.len()) as u64;
            tally.failed += conn.errors;
            if round <= CHECKED_ROUNDS {
                sample.extend(conn.sampled.clone());
            }
        }
        tally.check(r.writer.ingests.len() == INGESTS, || {
            format!(
                "round {round}: {} of {INGESTS} ingests applied",
                r.writer.ingests.len()
            )
        });
        let round_resolves = r.reader.resolve_us.len() + r.writer.resolve_us.len();
        if traced == cfg.trace {
            resolve_us.extend(r.reader.resolve_us.iter().chain(&r.writer.resolve_us));
            ingest_ms.extend(&r.writer.ingest_ms);
        }
        if traced {
            traced_walls.push(r.wall);
            hit_ratios.push(r.hit_ratio);
            coalesced.push(r.coalesced as f64);
            invalidated.extend(r.writer.ingests.iter().map(|i| i.invalidated as f64));
            tr.absorb(std::mem::replace(&mut r.reader_tracer, tr.fork()));
            tr.absorb(std::mem::replace(&mut r.writer_tracer, tr.fork()));
            last_traced = Some(r);
        } else {
            e2e.round(Some(gen + setup), r.wall, r.cpu, round_resolves as f64);
        }
    }
    let (world, p) = world.expect("at least one round");

    // Served answers against from-scratch sessions at their versions.
    tally.check(sample.len() as u64 == 2 * CHECKED_ROUNDS, || {
        format!(
            "{} of {} sampled answers recorded",
            sample.len(),
            2 * CHECKED_ROUNDS
        )
    });
    for (entity, version, pairs) in &sample {
        let mut session = session_at(&world, &p, *version);
        let want = bits(&session.resolve_entity(EntityId(*entity)));
        tally.check(*pairs == want, || {
            format!("entity {entity} at version {version}: served answer differs")
        });
    }
    // Quality of what the service answers from at the final version.
    let mut last = session_at(&world, &p, INGESTS as u64 + 1);
    let outcome = last.outcome();
    let tp = outcome
        .pairs()
        .iter()
        .filter(|m| world.truth.is_match(m.a, m.b))
        .count() as u64;
    let f1 = measure::f1(
        tp,
        outcome.pairs().len() as u64,
        world.truth.matching_pairs(),
    );
    tally.check(f1 >= F1_FLOOR, || {
        format!("f1 {f1:.4} below the floor {F1_FLOOR}")
    });

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mut m = Metrics::default();
    let mut context = Context::new(NAME, DESCRIBE, cfg);
    e2e.report(f1, &mut m, &mut context);

    let p50 = median(&resolve_us);
    let p99 = measure::tail(&resolve_us, 99.0);
    // Reads that waited behind an ingest sit far above the median; p99
    // must not fall on the knee between the two regimes.
    let blocked_us: Vec<f64> = resolve_us
        .iter()
        .copied()
        .filter(|&us| us > 20.0 * p50)
        .collect();
    let blocked = blocked_us.len() as f64 / resolve_us.len() as f64;
    let blocked_p50_ms = if blocked_us.is_empty() {
        0.0
    } else {
        median(&blocked_us) / 1e3
    };
    if cfg.trace {
        let r = last_traced.as_ref().expect("a traced round");
        let replay = replay(&world, &p, r, &mut tr, round + 1);
        m.set("client.resolve_p50_us", p50);
        m.set("client.resolve_p99_us", p99);
        m.set("client.resolve_samples", resolve_us.len() as f64);
        m.set("client.blocked_share", blocked);
        m.set("client.blocked_p50_ms", blocked_p50_ms);
        m.set("client.ingest_p50_ms", median(&ingest_ms));
        m.set("server.cache_hit_ratio", mean(&hit_ratios));
        m.set("server.coalesced", mean(&coalesced));
        m.set("server.invalidated_per_ingest", mean(&invalidated));
        m.set("server.service_resolve_us", replay.service_resolve_us);
        m.set("server.wire_us", p50 - replay.service_resolve_us);
        m.set("server.ingest_ms", replay.service_ingest_ms);
        m.set("metablocking.resolve_entity_us", replay.session_resolve_us);
        m.set("metablocking.ingest_ms", replay.session_ingest_ms);
        m.set("metablocking.swept_per_arrived", replay.swept_per_arrived);
        m.set("metablocking.delta_share", replay.delta_share);
        m.set(
            "trace.overhead_s",
            mean(&traced_walls) - e2e.mean_raw_wall(),
        );
    }

    context.num("world", WORLD as f64);
    context.num("descriptions", world.dataset.len() as f64);
    context.num("preloaded", p.preload.len() as f64);
    context.num("server_workers", SERVER_WORKERS as f64);
    context.num("sweep_workers", minoan_common::default_threads() as f64);
    context.num("client_connections", 2.0);
    context.num("ingests_per_round", INGESTS as f64);
    context.num("writer_resolves_per_ingest", WRITER_RESOLVES as f64);
    context.num("traced_rounds", traced_walls.len() as f64);
    context.num("resolve_samples", resolve_us.len() as f64);
    context.num("resolve_p50_us", p50);
    context.num("resolve_p99_us", p99);
    context.text("resolve_histogram_us", &histogram(&resolve_us));
    context.num("blocked_share", blocked);
    context.num("blocked_samples", blocked_us.len() as f64);
    context.num("blocked_p50_ms", blocked_p50_ms);
    context.num("ingest_samples", ingest_ms.len() as f64);
    context.num("ingest_p50_ms", median(&ingest_ms));
    context.num("checked_answers", sample.len() as f64);
    RunOutput {
        metrics: m,
        tally,
        context,
        tracer: tr,
        root: "connection",
    }
}

/// Round trips per power-of-two bucket of microseconds, as
/// `"upper:count"` pairs — the shape the knee check reads.
fn histogram(us: &[f64]) -> String {
    let mut buckets = [0usize; 32];
    for &v in us {
        buckets[(v.max(1.0).log2().ceil() as usize).min(31)] += 1;
    }
    let cells: Vec<String> = buckets
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(b, n)| format!("{}:{n}", 1u64 << b))
        .collect();
    cells.join(" ")
}

fn bench_world(seed: u64) -> GeneratedWorld {
    let mut c = minoan_bench::incremental::bench_world(WORLD);
    c.seed = seed;
    generate(&c)
}

struct Replay {
    service_resolve_us: f64,
    service_ingest_ms: f64,
    session_resolve_us: f64,
    session_ingest_ms: f64,
    swept_per_arrived: f64,
    delta_share: f64,
}

/// Replays a traced round's requests in process, once through a
/// `ResolveService` (the server layer without the wire) and once through
/// a bare `IncrementalSession` (the meta-blocking layer alone).
fn replay(g: &GeneratedWorld, p: &Plan, r: &Round, tr: &mut Tracer, id: u64) -> Replay {
    let order = replay_order(r);
    tr.set_enabled(true);
    let root = tr.begin("replay", id);

    let service = ResolveService::new(&g.dataset, ErMode::CleanClean, SCHEME, PRUNING, CACHE);
    service.ingest(&p.preload).expect("preload batch is valid");
    let mut svc_resolve = Vec::new();
    let mut svc_ingest = Vec::new();
    for (v, entities) in order.iter().enumerate() {
        for &e in entities {
            let span = tr.begin("server.service_resolve", v as u64);
            let t = Instant::now();
            let _ = service.resolve(e).expect("entity in range");
            svc_resolve.push(t.elapsed().as_secs_f64() * 1e6);
            tr.end(span);
        }
        if let Some(batch) = p.batches.get(v) {
            let span = tr.begin("server.service_ingest", v as u64);
            let t = Instant::now();
            service.ingest(batch).expect("batch is valid");
            svc_ingest.push(t.elapsed().as_secs_f64() * 1e3);
            tr.end(span);
        }
    }
    drop(service);

    let mut session = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
    session.scheme(SCHEME).pruning(PRUNING);
    let preload: Vec<EntityId> = p.preload.iter().map(|&e| EntityId(e)).collect();
    session.ingest(&preload);
    let mut ses_resolve = Vec::new();
    let mut ses_ingest = Vec::new();
    let (mut swept, mut arrived, mut deltas) = (0usize, 0usize, 0usize);
    for (v, entities) in order.iter().enumerate() {
        for &e in entities {
            let span = tr.begin("metablocking.resolve_entity", v as u64);
            let t = Instant::now();
            std::hint::black_box(session.resolve_entity(EntityId(e)));
            ses_resolve.push(t.elapsed().as_secs_f64() * 1e6);
            tr.end(span);
        }
        if let Some(batch) = p.batches.get(v) {
            let ids: Vec<EntityId> = batch.iter().map(|&e| EntityId(e)).collect();
            let span = tr.begin("metablocking.ingest", v as u64);
            let t = Instant::now();
            let report = session.ingest(&ids);
            ses_ingest.push(t.elapsed().as_secs_f64() * 1e3);
            tr.count(span, "swept", report.swept_entities as f64);
            tr.end(span);
            swept += report.swept_entities;
            arrived += report.arrived;
            deltas += usize::from(report.delta);
        }
    }
    tr.end(root);
    Replay {
        service_resolve_us: median(&svc_resolve),
        service_ingest_ms: median(&svc_ingest),
        session_resolve_us: median(&ses_resolve),
        session_ingest_ms: median(&ses_ingest),
        swept_per_arrived: swept as f64 / arrived.max(1) as f64,
        delta_share: deltas as f64 / INGESTS as f64,
    }
}
