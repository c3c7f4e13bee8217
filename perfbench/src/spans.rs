//! The benchmark's own span recorder: spans around calls into each layer's
//! public functions, kept in memory during the traced run and written out
//! once it ends. The program itself carries no extra tracing for this.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layers a traced run times, by this repository's module names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// `serde_json::from_str::<proto::Request>`.
    Parse,
    /// `ServiceCore::get`.
    Route,
    /// `Tenant::submit` (coalescer queue wait + batch plan).
    Submit,
    /// `IndexSnapshot::query_min_power` / `query_batch` on the same loads.
    Plan,
    /// `Reply::encode`.
    Encode,
    /// `ServiceCore::register_scenario`.
    Register,
    /// `ServiceCore::stats_doc`.
    Stats,
    /// `telemetry::render_prometheus`.
    Metrics,
    /// `Tsdb::query_matching`.
    TsdbQuery,
    /// `profiling::run_grid`.
    Grid,
    /// `fit_power_model` + `fit_thermal_models` + `fit_cooling_model`.
    Fit,
    /// `Planner::plan`.
    AllocPlan,
    /// `harness::run_method_with`.
    Run,
}

impl Layer {
    /// The layer's name in span files.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Parse => "proto.parse",
            Layer::Route => "core.route",
            Layer::Submit => "tenant.submit",
            Layer::Plan => "snapshot.plan",
            Layer::Encode => "proto.encode",
            Layer::Register => "registry.register",
            Layer::Stats => "stats.scrape",
            Layer::Metrics => "metrics.scrape",
            Layer::TsdbQuery => "tsdb.query",
            Layer::Grid => "profiling.grid",
            Layer::Fit => "profiling.fit",
            Layer::AllocPlan => "alloc.plan",
            Layer::Run => "harness.run",
        }
    }
}

/// One recorded span: layer, start and duration in ns since the recorder
/// was created.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start_ns: u64,
    dur_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Runs `f` inside a span of `layer`, returning its result.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            layer,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
        out
    }

    /// The durations of every `layer` span, µs, in record order.
    pub fn durations_us(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as `layer<TAB>start_ns<TAB>dur_ns` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "layer\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            writeln!(out, "{}\t{}\t{}", s.layer.name(), s.start_ns, s.dur_ns)?;
        }
        out.flush()
    }
}
