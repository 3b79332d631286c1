//! In-memory spans around the calls into each layer.
//!
//! A [`Tracer`] belongs to one thread. Each span records its name
//! (`layer.operation`), start and end, the span that was open when it
//! began (its parent) and the id of the iteration, round or request it
//! serves. Counts taken at the same boundary ride on the span. Nothing
//! is written until the run ends; a disabled tracer records nothing.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trace_id: u64,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread, sharing this one's epoch and switch.
    pub fn fork(&self) -> Self {
        Self::new(self.enabled, self.epoch)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "cannot switch tracing inside a span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, trace_id: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            trace_id,
            counts: Vec::new(),
        });
        self.open.push(idx);
        Some(idx)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(idx) = id {
            let top = self.open.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Attaches a count to an open or closed span.
    pub fn count(&mut self, id: SpanId, name: &'static str, value: f64) {
        if let Some(idx) = id {
            self.spans[idx].counts.push((name, value));
        }
    }

    /// Moves another thread's spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracer has open spans");
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean duration of the spans named `name`, seconds (0 if none).
    pub fn mean_seconds(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0usize, 0.0), |(n, t), s| (n + 1, t + s.seconds()));
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }

    /// Self time of every span: its duration minus its direct children's
    /// (children run on the span's own thread, one after another).
    fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.seconds();
            }
        }
        own
    }

    /// For each root span named `root`: the self seconds summed per
    /// layer over the spans under it, the root's own uncovered seconds,
    /// and the root's duration. Layers come back sorted by name.
    pub fn breakdown(&self, root: &str) -> Breakdown {
        let own = self.self_seconds();
        let root_of = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            i
        };
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none() && self.spans[i].name == root)
            .collect();
        let mut layers: Vec<&'static str> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some())
            .map(Span::layer)
            .collect();
        layers.sort_unstable();
        layers.dedup();
        let mut per_layer = vec![vec![0.0; roots.len()]; layers.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() {
                continue;
            }
            if let Ok(r) = roots.binary_search(&root_of(i)) {
                let l = layers.binary_search(&s.layer()).expect("layer listed");
                per_layer[l][r] += own[i];
            }
        }
        Breakdown {
            layers: layers.into_iter().zip(per_layer).collect(),
            uncovered: roots.iter().map(|&r| own[r]).collect(),
            totals: roots.iter().map(|&r| self.spans[r].seconds()).collect(),
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}",
                s.name,
                s.trace_id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            );
            for (k, v) in &s.counts {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Per-root self times, see [`Tracer::breakdown`].
pub struct Breakdown {
    pub layers: Vec<(&'static str, Vec<f64>)>,
    pub uncovered: Vec<f64>,
    pub totals: Vec<f64>,
}
