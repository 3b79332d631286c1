//! End-to-end and per-layer benchmark of the MinoanER workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload resolve-clean --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each workload makes its inputs from `--seed`, sets up several times,
//! measures for at least `--seconds`, checks its outputs and prints, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end list; with `--trace 1` a traced run reports the
//! per-layer list and writes its spans under `perfbench/out/`. See
//! `perfbench/README.md` for what each metric means on each workload.

mod measure;
mod resolve;
mod serve;
mod stream;
mod trace;

use measure::{Metrics, Tally};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// `(name, unit)` of every end-to-end metric, printed by every workload
/// with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("f1", "ratio"),
    ("resolve_per_s", "1/s"),
];

/// `(name, unit)` of every per-layer metric, printed by every workload
/// with tracing on; a layer a workload does not use reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("store.load_s", "s"),
    ("store.dataset_s", "s"),
    ("store.triples_per_s", "1/s"),
    ("store.peak_rss_mb", "MB"),
    ("store.self_s", "s"),
    ("blocking.build_s", "s"),
    ("blocking.clean_s", "s"),
    ("blocking.comparisons_raw", "count"),
    ("blocking.comparisons_clean", "count"),
    ("blocking.delta_ms", "ms"),
    ("blocking.peak_rss_mb", "MB"),
    ("blocking.self_s", "s"),
    ("metablocking.run_s", "s"),
    ("metablocking.input_edges", "count"),
    ("metablocking.candidates", "count"),
    ("metablocking.retention", "ratio"),
    ("metablocking.peak_rss_mb", "MB"),
    ("metablocking.resolve_entity_us", "us"),
    ("metablocking.ingest_ms", "ms"),
    ("metablocking.swept_per_arrived", "ratio"),
    ("metablocking.delta_share", "ratio"),
    ("metablocking.self_s", "s"),
    ("core.matcher_new_s", "s"),
    ("core.resolve_s", "s"),
    ("core.comparisons", "count"),
    ("core.matches", "count"),
    ("core.match_yield", "ratio"),
    ("core.comparisons_per_s", "1/s"),
    ("core.candidates_per_arrival", "count"),
    ("core.arrival_yield", "ratio"),
    ("core.arrival_ms", "ms"),
    ("core.peak_rss_mb", "MB"),
    ("core.self_s", "s"),
    ("server.service_resolve_us", "us"),
    ("server.wire_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.coalesced", "count"),
    ("server.invalidated_per_ingest", "count"),
    ("server.ingest_ms", "ms"),
    ("server.self_s", "s"),
    ("client.resolve_p50_us", "us"),
    ("client.resolve_p99_us", "us"),
    ("client.resolve_samples", "count"),
    ("client.blocked_share", "ratio"),
    ("client.blocked_p50_ms", "ms"),
    ("client.ingest_p50_ms", "ms"),
    ("client.arrival_p50_ms", "ms"),
    ("client.arrival_p99_ms", "ms"),
    ("client.arrival_samples", "count"),
    ("trace.uncovered_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

const WORKLOADS: &[&str] = &[
    "resolve-clean",
    "resolve-dirty-budget",
    "serve-mixed",
    "stream-arrivals",
];

/// What a run was asked to do.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Process-private directory for generated inputs.
    pub scratch: PathBuf,
    /// Time origin of every span.
    pub epoch: Instant,
}

/// Facts a result must carry besides its metrics: host, threads, world
/// and sample counts.
pub struct Context {
    fields: Vec<(String, String)>,
}

impl Context {
    pub fn new(workload: &str, describe: &str, cfg: &RunConfig) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut c = Self { fields: Vec::new() };
        c.text("workload", workload);
        c.text("description", describe);
        c.num("seed", cfg.seed as f64);
        c.num("seconds", cfg.seconds);
        c.num("trace", u8::from(cfg.trace) as f64);
        c.num("nproc", nproc as f64);
        c
    }

    pub fn num(&mut self, key: &str, value: f64) {
        self.fields.push((key.to_string(), format!("{value}")));
    }

    pub fn text(&mut self, key: &str, value: &str) {
        self.fields.push((key.to_string(), format!("\"{value}\"")));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Everything a workload hands back to be reported.
pub struct RunOutput {
    pub metrics: Metrics,
    pub tally: Tally,
    pub context: Context,
    pub tracer: Tracer,
    /// Name of the root spans (one per iteration or round).
    pub root: &'static str,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        let pos = argv
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        argv.get(pos + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Adds the traced run's per-layer self times, uncovered time and span
/// count, as means over the root spans.
fn add_breakdown(out: &mut RunOutput) {
    let b = out.tracer.breakdown(out.root);
    if b.totals.is_empty() {
        return;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    for (layer, secs) in &b.layers {
        let name = match *layer {
            "store" => "store.self_s",
            "blocking" => "blocking.self_s",
            "metablocking" => "metablocking.self_s",
            "core" => "core.self_s",
            "server" => "server.self_s",
            _ => continue,
        };
        out.metrics.set(name, mean(secs));
    }
    out.metrics.set("trace.uncovered_s", mean(&b.uncovered));
    out.metrics
        .set("trace.spans", out.tracer.spans().len() as f64);
    out.context.num("traced_roots", b.totals.len() as f64);
    out.context.num("traced_root_mean_s", mean(&b.totals));
}

fn result_line(out: &RunOutput, trace: bool) -> String {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in list.iter().enumerate() {
        let value = match out.metrics.get(name) {
            Some(v) => v,
            None if trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = out.tally.failed == 0 && out.tally.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.tally.attempted, out.tally.failed
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: out_dir.join(format!("scratch-{}", std::process::id())),
        epoch: Instant::now(),
    };
    let mut out = match args.workload.as_str() {
        "resolve-clean" => resolve::run(&resolve::CLEAN, &cfg),
        "resolve-dirty-budget" => resolve::run(&resolve::DIRTY_BUDGET, &cfg),
        "serve-mixed" => serve::run(&cfg),
        "stream-arrivals" => stream::run(&cfg),
        _ => unreachable!("workload validated by parse_args"),
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    if args.trace {
        add_breakdown(&mut out);
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        out.tracer.write_jsonl(&path).expect("write spans");
        out.context.text("spans_file", &path.display().to_string());
    }
    println!("{}", out.context.json());
    println!("{}", result_line(&out, args.trace));
}
