//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rack_burst --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload for about `--seconds`, checks every answer, prints the
//! metrics as a table on stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, with `--trace 1` the
//! per-layer set. Run from the repository root; see `perfbench/README.md`.

mod census;
mod check;
mod control;
mod harness;
mod layers;
mod openloop;
mod pin;
mod pipeline;
mod server;
mod spans;
mod stats;
mod wire;

use harness::Tally;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("reply_bytes_per_plan", "B"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 48] = [
    ("plans_per_s", "1/s"),
    ("req_p50_us", "us"),
    ("req_p99_us", "us"),
    ("open_p50_us", "us"),
    ("proto.parse_p50_us", "us"),
    ("proto.parse_p99_us", "us"),
    ("proto.encode_p50_us", "us"),
    ("proto.encode_p99_us", "us"),
    ("proto.reply_bytes", "B"),
    ("core.route_p50_us", "us"),
    ("tenant.submit_p50_us", "us"),
    ("tenant.submit_p99_us", "us"),
    ("snapshot.plan_p50_us", "us"),
    ("snapshot.plan_p99_us", "us"),
    ("coalesce.queue_wait_p99_us", "us"),
    ("coalesce.mean_batch", "count"),
    ("coalesce.shed_share", "share"),
    ("hier.refinements_per_query", "count"),
    ("index.rows_per_query", "count"),
    ("open.max_rate_rps", "1/s"),
    ("open.p99_us", "us"),
    ("open.p99_pooled_us", "us"),
    ("wire.rtt_us", "us"),
    ("inproc.handle_line_p50_us", "us"),
    ("reconcile.ratio", "ratio"),
    ("reconcile.inproc_ratio", "ratio"),
    ("reconcile.server_ratio", "ratio"),
    ("reconcile.miss", "flag"),
    ("trace.overhead_share", "share"),
    ("registry.register_p50_us", "us"),
    ("registry.register_p99_us", "us"),
    ("register_p99_us", "us"),
    ("stats.scrape_us", "us"),
    ("metrics.scrape_us", "us"),
    ("tsdb.query_us", "us"),
    ("scrape_p99_us", "us"),
    ("tsdb.series", "count"),
    ("rss_growth_mb", "MB"),
    ("profiling.grid_ms", "ms"),
    ("profiling.fit_ms", "ms"),
    ("alloc.plan_us", "us"),
    ("harness.run_ms", "ms"),
    ("pipeline_s", "s"),
    ("gen.late_p99_us", "us"),
    ("gen.backlog", "count"),
    ("gen.lagged", "flag"),
    ("fail_share", "share"),
    ("audit.plan_mismatch_share", "share"),
];

/// The workloads.
const WORKLOADS: [&str; 4] = [
    "rack_burst",
    "fleet_single",
    "control_mix",
    "paper_pipeline",
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, s.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

impl Args {
    /// The measurement budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad)?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
                "--trace" => args.trace = value == "1",
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("--workload must be one of {WORKLOADS:?}"));
        }
        if !(args.seconds.is_finite() && args.seconds > 0.0) {
            return Err("--seconds must be positive".to_string());
        }
        Ok(args)
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Measured values.
    pub metrics: Metrics,
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "rack_burst" => wire::run(&wire::RACK_BURST, &args),
        "fleet_single" => wire::run(&wire::FLEET_SINGLE, &args),
        "control_mix" => control::run(&args),
        _ => pipeline::run(&args),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let tally = &outcome.tally;
    let fail_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    outcome.metrics.insert("fail_share", fail_share);
    let mismatch_share = tally.mismatched as f64 / tally.audited.max(1) as f64;
    outcome
        .metrics
        .insert("audit.plan_mismatch_share", mismatch_share);
    if tally.mismatched > 0 {
        eprintln!(
            "perfbench: KNOWN DEFECT: {} of {} plans report a t their ON set does not give",
            tally.mismatched, tally.audited
        );
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = String::new();
    eprintln!(
        "perfbench: {} seed {} ({}), {} attempted, {} failed",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "end to end" },
        tally.attempted,
        tally.failed
    );
    for (name, unit) in wanted {
        let Some(&value) = outcome.metrics.get(name) else {
            eprintln!("perfbench: internal error: {name} was not measured");
            return ExitCode::FAILURE;
        };
        eprintln!("  {name:<28} {value:>14.4} {unit}");
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    ExitCode::SUCCESS
}
