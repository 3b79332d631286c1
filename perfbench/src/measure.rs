//! Clocks, memory readings, percentiles and the result record.

use std::time::Instant;

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: user + system time of every
/// thread of the process, live or exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds (user + system, all threads) the process has used so far.
fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on x86-64 and aarch64 Linux) and the clock id is a constant
    // the kernel accepts; `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU time of one measured span.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// `(wall seconds, cpu seconds)` since [`Stopwatch::start`].
    pub fn stop(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_seconds() - self.cpu)
    }
}

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Peak resident set size (`VmHWM`) in MB since start or the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Resets `VmHWM` to the current RSS, so the next [`peak_rss_mb`] reads
/// the peak of what runs in between.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("write /proc/self/clear_refs");
}

/// Linear-interpolated percentile (`q` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The tail percentile `q` of `samples`, checked to have at least ten
/// samples beyond it.
pub fn tail(samples: &[f64], q: f64) -> f64 {
    let beyond = samples.len() as f64 * (1.0 - q / 100.0);
    assert!(
        beyond >= 10.0,
        "p{q} of {} samples has fewer than ten beyond it",
        samples.len()
    );
    percentile(samples, q)
}

/// Pairwise precision/recall F1 from counts.
pub fn f1(true_positives: u64, emitted: u64, truth_pairs: u64) -> f64 {
    if true_positives == 0 {
        return 0.0;
    }
    let p = true_positives as f64 / emitted as f64;
    let r = true_positives as f64 / truth_pairs as f64;
    2.0 * p * r / (p + r)
}

/// Named metric values of one run, in insertion order.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|p| p.1)
    }
}

/// Outcome counts of the operations a run attempted.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one checked operation, reporting it on stderr if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// What the calibration kernel takes on the reference host, seconds.
/// Normalised times are raw times scaled by this over the kernel's
/// time measured next to them.
pub const REFERENCE_KERNEL_S: f64 = 0.2;

/// A fixed, repository-independent CPU and memory kernel: hashing,
/// random access over 16 MB, and sorting integers and short strings.
/// It takes about [`REFERENCE_KERNEL_S`] on the reference host; its time
/// measures how fast the host runs right now.
///
/// The host this benchmark was built on drifts in speed by ±20% over
/// tens of seconds (wall and CPU time alike, within and across
/// processes), which no median over one run removes. Each iteration or
/// round is paired with one [`calibrate`] right after it, and reported
/// times are `raw × REFERENCE_KERNEL_S / kernel`: the drift cancels,
/// while a change to the code under test moves `raw` alone.
fn calibration_kernel() -> f64 {
    use std::collections::HashMap;
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let keys: Vec<u64> = (0..600_000).map(|_| next() % 400_000).collect();
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for &k in &keys {
        *counts.entry(k).or_default() += 1;
    }
    let mut table = vec![0u32; 1 << 22];
    let mut acc = 0u64;
    for &k in &keys {
        let i = (k.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 42) as usize;
        table[i] = table[i].wrapping_add(counts[&k]);
        acc = acc.wrapping_add(table[(i * 7) & ((1 << 22) - 1)] as u64);
    }
    let mut sorted = keys;
    sorted.sort_unstable();
    let mut strings: Vec<String> = sorted
        .iter()
        .step_by(4)
        .map(|k| format!("tok{k}"))
        .collect();
    strings.sort_unstable();
    std::hint::black_box((acc, sorted[sorted.len() / 2], strings.len()));
    t.elapsed().as_secs_f64()
}

/// A raw time and the calibration kernel time measured right after it.
#[derive(Clone, Copy)]
struct Paired {
    raw: f64,
    kernel: f64,
}

fn normalised_median(samples: &[Paired]) -> f64 {
    let v: Vec<f64> = samples
        .iter()
        .map(|p| p.raw * REFERENCE_KERNEL_S / p.kernel)
        .collect();
    median(&v)
}

/// Copies of [`calibration_kernel`] run at once by [`calibrate`]: one per
/// core of the 2-core host the benchmark was built on. The scheduler
/// moves a workload's threads between cores whose speeds drift apart,
/// so the mean over both tracks the workload better than one core does.
const KERNEL_THREADS: usize = 2;

/// Runs [`KERNEL_THREADS`] copies of [`calibration_kernel`] at once and
/// returns their mean time.
fn calibrate() -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..KERNEL_THREADS)
            .map(|_| s.spawn(calibration_kernel))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// The untraced samples behind the end-to-end metrics.
#[derive(Default)]
pub struct EndToEnd {
    setups: Vec<Paired>,
    walls: Vec<Paired>,
    cpus: Vec<Paired>,
    rates: Vec<Paired>,
    peak_rss_mb: Option<f64>,
}

impl EndToEnd {
    /// Records the process's peak RSS once, at the end of the first
    /// iteration or round and before any calibration ran: later rounds
    /// reuse memory the allocator kept, so only the first one shows what
    /// the workload needs from a fresh process.
    pub fn first_peak_rss(&mut self) {
        if self.peak_rss_mb.is_none() {
            self.peak_rss_mb = Some(peak_rss_mb());
        }
    }

    /// Records one set-up of `secs`, and calibrates.
    pub fn setup(&mut self, secs: f64) {
        let kernel = calibrate();
        self.setups.push(Paired { raw: secs, kernel });
    }

    /// Records one iteration or round — its set-up if it had its own,
    /// its wall and CPU time and the entities it resolved — and
    /// calibrates.
    pub fn round(&mut self, setup: Option<f64>, wall: f64, cpu: f64, resolved: f64) {
        let kernel = calibrate();
        if let Some(raw) = setup {
            self.setups.push(Paired { raw, kernel });
        }
        self.walls.push(Paired { raw: wall, kernel });
        self.cpus.push(Paired { raw: cpu, kernel });
        // Seconds per entity, so the median rate pairs like the times.
        self.rates.push(Paired {
            raw: wall / resolved,
            kernel,
        });
    }

    /// Mean raw wall seconds of the recorded rounds.
    pub fn mean_raw_wall(&self) -> f64 {
        self.walls.iter().map(|p| p.raw).sum::<f64>() / self.walls.len() as f64
    }

    /// Sets every end-to-end metric, and the raw medians as context.
    pub fn report(&self, f1: f64, m: &mut Metrics, context: &mut crate::Context) {
        m.set("setup_s", normalised_median(&self.setups));
        m.set("wall_s", normalised_median(&self.walls));
        m.set("cpu_s", normalised_median(&self.cpus));
        m.set(
            "peak_rss_mb",
            self.peak_rss_mb.expect("first round recorded its peak"),
        );
        m.set("f1", f1);
        m.set("resolve_per_s", 1.0 / normalised_median(&self.rates));
        let raw = |v: &[Paired]| median(&v.iter().map(|p| p.raw).collect::<Vec<_>>());
        let kernels: Vec<f64> = self
            .setups
            .iter()
            .chain(&self.walls)
            .map(|p| p.kernel)
            .collect();
        context.num("setups", self.setups.len() as f64);
        context.num("rounds", self.walls.len() as f64);
        context.num("raw_setup_s", raw(&self.setups));
        context.num("raw_wall_s", raw(&self.walls));
        context.num("raw_cpu_s", raw(&self.cpus));
        context.num("kernel_s", median(&kernels));
        context.num("kernel_threads", KERNEL_THREADS as f64);
    }
}
