//! `resolve-clean` and `resolve-dirty-budget`: the batch path a
//! `minoan resolve` run takes, from N-Triples files to a progressive
//! resolution, driven stage by stage through the public APIs.

use crate::measure::{self, EndToEnd, Metrics, Stopwatch, Tally};
use crate::trace::{SpanId, Tracer};
use crate::{Context, RunConfig, RunOutput};
use minoan_blocking::ErMode;
use minoan_datagen::{generate, profiles, WorldConfig};
use minoan_er::{Matcher, Pipeline, PipelineConfig, ProgressiveResolver};
use minoan_metablocking::ExecutionBackend;
use minoan_rdf::KbId;
use minoan_store::TripleStore;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// One of the two batch workloads.
pub struct Spec {
    pub name: &'static str,
    pub describe: &'static str,
    pub profile: fn(usize, u64) -> WorldConfig,
    /// Entities parameter of the generator.
    pub world: usize,
    pub mode: ErMode,
    pub backend: ExecutionBackend,
    pub workers: usize,
    /// Comparison budget as a share of the meta-blocking candidates
    /// (`None` = run to exhaustion).
    pub budget_share: Option<f64>,
    /// Lowest acceptable pairwise F1 of the resolved matches.
    pub f1_floor: f64,
}

pub const CLEAN: Spec = Spec {
    name: "resolve-clean",
    describe: "center_dense clean-clean world from N-Triples files; materialised \
               ARCS x WNP; progressive resolution to exhaustion",
    profile: profiles::center_dense,
    world: 5_000,
    mode: ErMode::CleanClean,
    backend: ExecutionBackend::Materialized,
    workers: 2,
    budget_share: None,
    f1_floor: 0.80,
};

pub const DIRTY_BUDGET: Spec = Spec {
    name: "resolve-dirty-budget",
    describe: "dirty_single world from N-Triples files in dirty mode; streaming \
               ARCS x WNP; comparison budget of a third of the candidates",
    profile: profiles::dirty_single,
    world: 5_000,
    mode: ErMode::Dirty,
    backend: ExecutionBackend::Streaming,
    workers: 1,
    budget_share: Some(1.0 / 3.0),
    f1_floor: 0.30,
};

/// Set-ups made per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Timed iterations per run at the least: the median then has ten
/// samples beyond it.
const MIN_ITERATIONS: usize = 20;

/// The generated inputs of one run.
struct Inputs {
    files: Vec<(String, PathBuf)>,
    /// Subject URI → world entity, for F1 after parsing.
    world_of_uri: HashMap<String, u32>,
    truth_pairs: u64,
    descriptions: usize,
}

fn set_up(spec: &Spec, seed: u64, dir: &std::path::Path) -> Inputs {
    let g = generate(&(spec.profile)(spec.world, seed));
    std::fs::create_dir_all(dir).expect("create input directory");
    let mut files = Vec::new();
    for kb in 0..g.dataset.kb_count() {
        let id = KbId(kb as u16);
        let name = g.dataset.kb(id).name.to_string();
        let path = dir.join(format!("{name}.nt"));
        std::fs::write(&path, g.dataset.to_ntriples(id)).expect("write N-Triples");
        files.push((name, path));
    }
    let world_of_uri = g
        .dataset
        .entities()
        .map(|e| (g.dataset.uri(e).to_string(), g.truth.world_of(e)))
        .collect();
    Inputs {
        files,
        world_of_uri,
        truth_pairs: g.truth.matching_pairs(),
        descriptions: g.dataset.len(),
    }
}

/// What one iteration produced, for the identity and quality checks.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Counts {
    triples: usize,
    comparisons_raw: u64,
    comparisons_clean: u64,
    input_edges: usize,
    candidates: usize,
    comparisons: u64,
    matches: usize,
    true_positives: u64,
}

/// Per-stage peak RSS over the traced iterations, MB.
#[derive(Default)]
struct StagePeaks {
    store: f64,
    blocking: f64,
    metablocking: f64,
    core: f64,
}

/// Runs `f` inside span `name`. While tracing, `VmHWM` is reset before
/// and read into `peak` after, so the peak is this stage's.
fn stage<T>(
    tr: &mut Tracer,
    name: &'static str,
    it: u64,
    peak: &mut f64,
    f: impl FnOnce() -> T,
) -> (T, SpanId) {
    if tr.enabled() {
        measure::reset_peak_rss();
    }
    let span = tr.begin(name, it);
    let out = f();
    tr.end(span);
    if tr.enabled() {
        *peak = peak.max(measure::peak_rss_mb());
    }
    (out, span)
}

/// One pass from the N-Triples files to a resolution: its counts, wall
/// and CPU seconds.
fn iterate(
    config: &PipelineConfig,
    inputs: &Inputs,
    tr: &mut Tracer,
    it: u64,
    peaks: &mut StagePeaks,
) -> (Counts, f64, f64) {
    let pipeline = Pipeline::new(config.clone());
    let sw = Stopwatch::start();
    let root = tr.begin("iteration", it);
    let (store, _) = stage(tr, "store.load", it, &mut peaks.store, || {
        let mut store = TripleStore::new();
        for (name, path) in &inputs.files {
            let doc = std::fs::read_to_string(path).expect("read N-Triples input");
            store
                .load_ntriples(name, &doc)
                .expect("generated N-Triples parse");
        }
        store
    });
    let ((frozen, dataset), span) = stage(tr, "store.dataset", it, &mut peaks.store, || {
        let frozen = store.freeze();
        let dataset = frozen.to_dataset();
        (frozen, dataset)
    });
    tr.count(span, "triples", frozen.len() as f64);
    let (raw, span) = stage(tr, "blocking.build", it, &mut peaks.blocking, || {
        pipeline.block(&dataset)
    });
    let comparisons_raw = raw.total_comparisons();
    tr.count(span, "comparisons", comparisons_raw as f64);
    let (clean, span) = stage(tr, "blocking.clean", it, &mut peaks.blocking, || {
        pipeline.clean_blocks(raw)
    });
    let comparisons_clean = clean.total_comparisons();
    tr.count(span, "comparisons", comparisons_clean as f64);
    let (outcome, span) = stage(tr, "metablocking.run", it, &mut peaks.metablocking, || {
        pipeline.meta_block_session(&clean).run()
    });
    let input_edges = outcome.input_edges();
    let candidates = outcome.into_candidates();
    tr.count(span, "input_edges", input_edges as f64);
    tr.count(span, "candidates", candidates.len() as f64);
    let (matcher, _) = stage(tr, "core.matcher_new", it, &mut peaks.core, || {
        Matcher::new(&dataset, config.matcher.clone())
    });
    let (resolution, span) = stage(tr, "core.resolve", it, &mut peaks.core, || {
        ProgressiveResolver::new(&dataset, matcher, config.resolver.clone()).run(&candidates)
    });
    tr.count(span, "comparisons", resolution.comparisons as f64);
    tr.count(span, "matches", resolution.matches.len() as f64);
    tr.end(root);
    let (wall, cpu) = sw.stop();

    // Quality, outside the timed span: matches are mapped back to world
    // entities through their URIs, so parsing must have kept them.
    let world = |e: minoan_rdf::EntityId| inputs.world_of_uri.get(dataset.uri(e)).copied();
    let true_positives = resolution
        .matches
        .iter()
        .filter(|&&(a, b, _)| matches!((world(a), world(b)), (Some(x), Some(y)) if x == y))
        .count() as u64;
    let counts = Counts {
        triples: frozen.len(),
        comparisons_raw,
        comparisons_clean,
        input_edges,
        candidates: candidates.len(),
        comparisons: resolution.comparisons,
        matches: resolution.matches.len(),
        true_positives,
    };
    (counts, wall, cpu)
}

pub fn run(spec: &Spec, cfg: &RunConfig) -> RunOutput {
    let dir = cfg.scratch.join("inputs");
    let mut e2e = EndToEnd::default();
    let mut inputs = set_up(spec, cfg.seed, &dir);

    let mut config = PipelineConfig {
        mode: spec.mode,
        backend: spec.backend,
        workers: Some(spec.workers),
        ..PipelineConfig::default()
    };
    let mut tr = Tracer::new(false, cfg.epoch);
    // Warm-up: page in the inputs and size the budget from the
    // candidates the seed yields.
    let mut peaks = StagePeaks::default();
    let (warm, _, _) = iterate(&config, &inputs, &mut tr, 0, &mut peaks);
    if let Some(share) = spec.budget_share {
        config.resolver.budget = ((warm.candidates as f64 * share) as u64).max(1);
    }
    let (reference, _, _) = iterate(&config, &inputs, &mut tr, 0, &mut peaks);
    // Peak RSS before any calibration kernel ran; then the timed set-ups.
    e2e.first_peak_rss();
    for _ in 0..SETUPS {
        let t = Instant::now();
        inputs = set_up(spec, cfg.seed, &dir);
        e2e.setup(t.elapsed().as_secs_f64());
    }

    let mut tally = Tally::default();
    let start = Instant::now();
    let mut it = 0u64;
    while start.elapsed().as_secs_f64() < cfg.seconds || (it as usize) < MIN_ITERATIONS {
        it += 1;
        // The traced run alternates traced and untraced iterations; the
        // difference of their means is the tracing overhead.
        let traced = cfg.trace && it.is_multiple_of(2);
        tr.set_enabled(traced);
        let (counts, wall, cpu) = iterate(&config, &inputs, &mut tr, it, &mut peaks);
        tally.check(counts == reference, || {
            format!("iteration {it} counts {counts:?} differ from {reference:?}")
        });
        if !traced {
            e2e.round(None, wall, cpu, inputs.descriptions as f64);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let f1 = measure::f1(
        reference.true_positives,
        reference.matches as u64,
        inputs.truth_pairs,
    );
    tally.check(f1 >= spec.f1_floor, || {
        format!("f1 {f1:.4} below the floor {}", spec.f1_floor)
    });

    let mut m = Metrics::default();
    let mut context = Context::new(spec.name, spec.describe, cfg);
    e2e.report(f1, &mut m, &mut context);
    if cfg.trace {
        let load = tr.mean_seconds("store.load");
        let resolve = tr.mean_seconds("core.resolve");
        m.set("store.load_s", load);
        m.set("store.dataset_s", tr.mean_seconds("store.dataset"));
        m.set("store.triples_per_s", reference.triples as f64 / load);
        m.set("store.peak_rss_mb", peaks.store);
        m.set("blocking.build_s", tr.mean_seconds("blocking.build"));
        m.set("blocking.clean_s", tr.mean_seconds("blocking.clean"));
        m.set("blocking.comparisons_raw", reference.comparisons_raw as f64);
        m.set(
            "blocking.comparisons_clean",
            reference.comparisons_clean as f64,
        );
        m.set("blocking.peak_rss_mb", peaks.blocking);
        m.set("metablocking.run_s", tr.mean_seconds("metablocking.run"));
        m.set("metablocking.input_edges", reference.input_edges as f64);
        m.set("metablocking.candidates", reference.candidates as f64);
        m.set(
            "metablocking.retention",
            reference.candidates as f64 / reference.input_edges.max(1) as f64,
        );
        m.set("metablocking.peak_rss_mb", peaks.metablocking);
        m.set("core.matcher_new_s", tr.mean_seconds("core.matcher_new"));
        m.set("core.resolve_s", resolve);
        m.set("core.comparisons", reference.comparisons as f64);
        m.set("core.matches", reference.matches as f64);
        m.set(
            "core.match_yield",
            reference.matches as f64 / reference.comparisons.max(1) as f64,
        );
        m.set(
            "core.comparisons_per_s",
            reference.comparisons as f64 / resolve,
        );
        m.set("core.peak_rss_mb", peaks.core);
        let traced = tr.mean_seconds("iteration");
        m.set("trace.overhead_s", traced - e2e.mean_raw_wall());
    }

    context.num("world", spec.world as f64);
    context.num("descriptions", inputs.descriptions as f64);
    context.num("workers", spec.workers as f64);
    if spec.budget_share.is_some() {
        context.num("budget", config.resolver.budget as f64);
    }
    RunOutput {
        metrics: m,
        tally,
        context,
        tracer: tr,
        root: "iteration",
    }
}
