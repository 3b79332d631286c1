//! `stream-arrivals`: the `minoan stream` path. Descriptions arrive in
//! a seeded shuffled order, in fixed-size batches, through
//! `IncrementalResolver::arrive_batch`; every batch is timed.

use crate::measure::{self, median, EndToEnd, Metrics, Stopwatch, Tally};
use crate::trace::Tracer;
use crate::{Context, RunConfig, RunOutput};
use minoan_blocking::{ErMode, IncrementalCollection};
use minoan_datagen::{generate, profiles, ArrivalOrder, GeneratedWorld};
use minoan_er::{IncrementalConfig, IncrementalResolver, Matcher, MatcherConfig};
use minoan_rdf::EntityId;
use std::time::Instant;

const NAME: &str = "stream-arrivals";
const DESCRIBE: &str = "center_dense world arriving in a seeded shuffled order, \
                        fixed-size batches through IncrementalResolver::arrive_batch";
/// Entities parameter of the generator.
const WORLD: usize = 6_500;
const BATCH: usize = 10;
/// Rounds per run at the least (each replays every arrival): the
/// median round then has ten beyond it.
const MIN_ROUNDS: usize = 20;
const F1_FLOOR: f64 = 0.80;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Totals of one round, for the identity and quality checks.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
struct Totals {
    arrived: usize,
    candidates: usize,
    comparisons: u64,
    matches: usize,
    true_positives: u64,
}

/// The inputs of one run: the world, its matcher and the arrival
/// batches.
struct Inputs {
    world: GeneratedWorld,
    matcher: Matcher,
    batches: Vec<Vec<EntityId>>,
}

fn set_up(seed: u64) -> Inputs {
    let world = generate(&profiles::center_dense(WORLD, seed));
    let matcher = Matcher::new(&world.dataset, MatcherConfig::default());
    let batches = ArrivalOrder::Shuffled { seed }.batches(&world.dataset, &world.truth, BATCH);
    Inputs {
        world,
        matcher,
        batches,
    }
}

/// Every batch arrives at a fresh resolver; returns the round's totals,
/// per-batch milliseconds, wall and CPU seconds.
fn round(inputs: &Inputs, tr: &mut Tracer, id: u64) -> (Totals, Vec<f64>, f64, f64) {
    let dataset = &inputs.world.dataset;
    let mut resolver =
        IncrementalResolver::new(dataset, &inputs.matcher, IncrementalConfig::default());
    let mut totals = Totals::default();
    let mut times = Vec::with_capacity(inputs.batches.len());
    let sw = Stopwatch::start();
    let root = tr.begin("round", id);
    for (i, batch) in inputs.batches.iter().enumerate() {
        let span = tr.begin("core.arrive_batch", i as u64);
        let t = Instant::now();
        let report = resolver.arrive_batch(batch);
        times.push(t.elapsed().as_secs_f64() * 1e3);
        tr.count(span, "candidates", report.candidates as f64);
        tr.count(span, "comparisons", report.comparisons as f64);
        tr.count(span, "matches", report.matches.len() as f64);
        tr.end(span);
        totals.arrived += batch.len();
        totals.candidates += report.candidates;
        totals.comparisons += report.comparisons;
    }
    tr.end(root);
    let (wall, cpu) = sw.stop();
    totals.matches = resolver.matches().len();
    totals.true_positives = resolver
        .matches()
        .iter()
        .filter(|&&(a, b, _)| inputs.world.truth.is_match(a, b))
        .count() as u64;
    (totals, times, wall, cpu)
}

pub fn run(cfg: &RunConfig) -> RunOutput {
    let mut tr = Tracer::new(false, cfg.epoch);
    let mut tally = Tally::default();
    let mut e2e = EndToEnd::default();
    let mut inputs = set_up(cfg.seed);
    let descriptions = inputs.world.dataset.len();
    // Warm-up round; the peak RSS is read before any calibration ran.
    let (reference, _, _, _) = round(&inputs, &mut tr, 0);
    e2e.first_peak_rss();
    for _ in 0..SETUPS {
        let t = Instant::now();
        inputs = set_up(cfg.seed);
        e2e.setup(t.elapsed().as_secs_f64());
    }
    tally.check(reference.arrived == descriptions, || {
        format!("{} of {descriptions} arrived", reference.arrived)
    });

    let mut batch_ms = Vec::new();
    let mut traced_batch_ms = Vec::new();
    let start = Instant::now();
    let mut id = 0u64;
    while start.elapsed().as_secs_f64() < cfg.seconds || (id as usize) < MIN_ROUNDS {
        id += 1;
        let traced = cfg.trace && id.is_multiple_of(2);
        tr.set_enabled(traced);
        let (totals, times, wall, cpu) = round(&inputs, &mut tr, id);
        tally.check(totals == reference, || {
            format!("round {id} totals {totals:?} differ from {reference:?}")
        });
        if traced {
            traced_batch_ms.extend(times);
        } else {
            batch_ms.extend(times);
            e2e.round(None, wall, cpu, descriptions as f64);
        }
    }
    let r = reference;
    let f1 = measure::f1(
        r.true_positives,
        r.matches as u64,
        inputs.world.truth.matching_pairs(),
    );
    tally.check(f1 >= F1_FLOOR, || {
        format!("f1 {f1:.4} below the floor {F1_FLOOR}")
    });

    let mut m = Metrics::default();
    let mut context = Context::new(NAME, DESCRIBE, cfg);
    e2e.report(f1, &mut m, &mut context);
    if cfg.trace {
        // The blocking layer alone: a replica collection absorbing the
        // same batches, outside any round.
        tr.set_enabled(true);
        let mut replica = IncrementalCollection::new(&inputs.world.dataset, ErMode::CleanClean);
        let mut absorb_ms = Vec::with_capacity(inputs.batches.len());
        let replica_root = tr.begin("replica", id + 1);
        for (i, batch) in inputs.batches.iter().enumerate() {
            let span = tr.begin("blocking.absorb", i as u64);
            let t = Instant::now();
            replica.absorb(batch);
            absorb_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tr.end(span);
        }
        tr.end(replica_root);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        m.set("blocking.delta_ms", mean(&absorb_ms));
        m.set(
            "core.candidates_per_arrival",
            r.candidates as f64 / r.arrived as f64,
        );
        m.set(
            "core.arrival_yield",
            r.matches as f64 / r.comparisons.max(1) as f64,
        );
        m.set("core.arrival_ms", mean(&traced_batch_ms));
        m.set("core.matches", r.matches as f64);
        m.set("core.comparisons", r.comparisons as f64);
        m.set("client.arrival_p50_ms", median(&traced_batch_ms));
        m.set(
            "client.arrival_p99_ms",
            measure::tail(&traced_batch_ms, 99.0),
        );
        m.set("client.arrival_samples", traced_batch_ms.len() as f64);
        m.set(
            "trace.overhead_s",
            tr.mean_seconds("round") - e2e.mean_raw_wall(),
        );
    }

    context.num("world", WORLD as f64);
    context.num("descriptions", descriptions as f64);
    context.num("batch_size", BATCH as f64);
    context.num("threads", 1.0);
    context.num("arrival_samples", batch_ms.len() as f64);
    context.num("arrival_p50_ms", median(&batch_ms));
    context.num("arrival_p99_ms", measure::tail(&batch_ms, 99.0));
    RunOutput {
        metrics: m,
        tally,
        context,
        tracer: tr,
        root: "round",
    }
}
