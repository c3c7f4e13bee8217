//! `paper_pipeline`: per seed, `Testbed::build` (profile + fit) and
//! `scenario_planner` (index build), then every method at every load point
//! (plan + simulate), as `run_sweep` does serially.

use crate::census;
use crate::harness::{self, Tally};
use crate::layers::{self, Target};
use crate::openloop::{self, OpenLoopReport};
use crate::spans::{Layer, Spans};
use crate::stats;
use crate::wire;
use crate::{Args, Metrics, Outcome};
use coolopt_alloc::{Method, Planner};
use coolopt_core::PowerTerms;
use coolopt_experiments::harness::{
    run_method_with, scenario_planner, MethodRun, Sweep, SweepOptions,
};
use coolopt_experiments::{savings_summary, Testbed};
use coolopt_profiling::{
    default_grid, fit_cooling_model, fit_power_model, fit_thermal_models, measure_t_ac_max,
    run_grid, ProfileOptions,
};
use coolopt_service::ServiceCore;
use std::sync::Arc;
use std::time::Instant;

/// Seeds (testbeds) per run; `setup_s` is the median of their set-ups.
const SEEDS: u64 = 8;

/// Fixed open-loop rate, method runs per second.
pub const MIDDLE_RATE: f64 = 100.0;

/// Rate ladder, runs/s: `20 · 1.06^i`.
pub const LADDER: (f64, f64, usize) = (20.0, 1.06, 48);

/// Every `(method, load %)` point of the paper's sweep.
fn grid(options: &SweepOptions) -> Vec<(Method, f64)> {
    Method::all()
        .into_iter()
        .flat_map(|m| options.load_percents.iter().map(move |&p| (m, p)))
        .collect()
}

/// A profiled testbed with its planner.
struct Bed {
    testbed: Testbed,
    planner: Planner,
    sweep: Sweep,
}

/// Checks one method run: planned, under `T_max`, throughput kept.
fn check_run(run: &Result<MethodRun, String>) -> Result<(), String> {
    match run {
        Ok(r) if r.temps_ok && r.throughput_ok => Ok(()),
        Ok(r) => Err(format!(
            "{:?} at {} %: temps_ok {} throughput_ok {}",
            r.plan.method, r.load_percent, r.temps_ok, r.throughput_ok
        )),
        Err(e) => Err(e.clone()),
    }
}

/// Method 8 must save energy against method 7 on average over the sweep.
fn check_savings(sweep: &Sweep) -> Result<(), String> {
    match savings_summary(sweep, Method::numbered(8), Method::numbered(7)) {
        Some(s) if s.mean > 0.0 => Ok(()),
        Some(s) => Err(format!("method 8 vs 7 saves {s}")),
        None => Err("no shared load points for methods 8 and 7".to_string()),
    }
}

fn one_run(bed: &Bed, point: (Method, f64), options: &SweepOptions) -> Result<MethodRun, String> {
    let mut testbed = bed.testbed.clone();
    run_method_with(&bed.planner, &mut testbed, point.0, point.1, options)
        .map_err(|e| e.to_string())
}

/// Method runs issued open loop at `rate` for `duration`, cycling over the
/// testbeds and the sweep's points; every run is checked.
fn open_runs(
    beds: &[Bed],
    points: &[(Method, f64)],
    options: &SweepOptions,
    rate: f64,
    duration: std::time::Duration,
    tally: &mut Tally,
) -> OpenLoopReport {
    let mut runs = Vec::new();
    let (ticks, end) = harness::inline_open_loop(
        rate,
        duration,
        |k| {
            runs.push(one_run(
                &beds[k % beds.len()],
                points[(k * 7) % points.len()],
                options,
            ))
        },
        || false,
    );
    for run in &runs {
        tally.record(check_run(run));
    }
    openloop::account(&ticks, end, harness::LAG_LIMIT_NS)
}

/// Runs the paper pipeline workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let options = SweepOptions::default();
    let points = grid(&options);
    let mut tally = Tally::default();
    let mut metrics = Metrics::new();
    let budget = args.budget();
    let seeds: Vec<u64> = (0..SEEDS).map(|i| args.seed * 1000 + i).collect();
    let rss_start = harness::self_status_mb("VmRSS:");

    let mut beds = Vec::new();
    let mut setups = Vec::new();
    for &seed in &seeds[..if args.trace { 1 } else { seeds.len() }] {
        let t0 = Instant::now();
        let testbed = Testbed::build(seed).map_err(|e| e.to_string())?;
        let planner = scenario_planner(&testbed, &options);
        setups.push(t0.elapsed().as_secs_f64());
        beds.push(Bed {
            testbed,
            planner,
            sweep: Sweep::default(),
        });
    }

    if args.trace {
        let mut spans = Spans::with_capacity(1 << 16);
        let pipelines: Vec<f64> = seeds
            .iter()
            .map(|&s| traced_seed(s, &mut spans, &mut tally))
            .collect::<Result<_, _>>()?;
        metrics.insert("pipeline_s", stats::median(&pipelines));
        layer_metrics(&mut metrics, &spans);
        // The closed-loop figures of a traced run: its method runs, one
        // request each, back to back.
        let runs = spans.durations_us(Layer::Run);
        metrics.insert(
            "plans_per_s",
            runs.len() as f64 * 1e6 / runs.iter().sum::<f64>(),
        );
        metrics.insert("req_p50_us", stats::pct(&runs, 0.5));
        metrics.insert("req_p99_us", stats::pct(&runs, harness::P99));
        let open = open_runs(
            &beds,
            &points,
            &options,
            MIDDLE_RATE,
            budget.mul_f64(0.1),
            &mut tally,
        );
        census::gen_metrics(&mut metrics, &open);
        metrics.insert("open_p50_us", open.p50_us);
        served_census(&mut metrics, args, &beds[0].testbed, &mut spans, &mut tally)?;
        let max_rate = census::max_rate(LADDER, |rate| {
            open_runs(
                &beds,
                &points,
                &options,
                rate,
                budget.mul_f64(0.04),
                &mut tally,
            )
        });
        metrics.insert("open.max_rate_rps", max_rate);
        metrics.insert(
            "rss_growth_mb",
            harness::self_status_mb("VmRSS:") - rss_start,
        );
        census::write_spans(&spans, args)?;
        return Ok(Outcome { tally, metrics });
    }

    // Closed loop: whole sweeps, testbed after testbed; the first sweep of
    // each testbed feeds its savings check.
    let mut i = 0usize;
    let closed = harness::closed_loop(budget.mul_f64(0.5), || {
        let count = beds.len();
        let bed = &mut beds[(i / points.len()) % count];
        let point = points[i % points.len()];
        let first_sweep = i < points.len() * SEEDS as usize;
        i += 1;
        let t0 = Instant::now();
        let run = one_run(bed, point, &options);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        tally.record(check_run(&run));
        if let (true, Ok(run)) = (first_sweep, run) {
            bed.sweep.insert(point.0, point.1, run);
        }
        (us, 1)
    });
    // Complete any first sweep the closed loop did not reach.
    while i < points.len() * SEEDS as usize {
        let bed = &mut beds[i / points.len()];
        let point = points[i % points.len()];
        let run = one_run(bed, point, &options);
        tally.record(check_run(&run));
        if let Ok(run) = run {
            bed.sweep.insert(point.0, point.1, run);
        }
        i += 1;
    }
    for bed in &beds {
        tally.record(check_savings(&bed.sweep));
    }

    let open = open_runs(
        &beds,
        &points,
        &options,
        MIDDLE_RATE,
        budget.mul_f64(0.4),
        &mut tally,
    );
    census::warn_open_loop("middle rate", &open);
    metrics.insert("setup_s", stats::median(&setups));
    metrics.insert(
        "reply_bytes_per_plan",
        reply_bytes_per_plan(&beds[0].testbed, args.seed)?,
    );
    metrics.insert("plans_per_s", closed.plans_per_s);
    metrics.insert("req_p50_us", closed.p50_us);
    metrics.insert("req_p99_us", closed.p99_us);
    metrics.insert("open_p50_us", open.p50_us);
    metrics.insert("peak_rss_mb", harness::self_status_mb("VmHWM:"));
    Ok(Outcome { tally, metrics })
}

/// One seed of the pipeline with every layer in a span: the profiling grid
/// and the fits on the testbed's room (timed on their own), then the
/// pipeline proper — `Testbed::build`, `scenario_planner`, and the sweep
/// with `Planner::plan` and `run_method_with` per point. Returns the
/// pipeline's wall time, s.
pub fn traced_seed(seed: u64, spans: &mut Spans, tally: &mut Tally) -> Result<f64, String> {
    let profile = ProfileOptions::default();
    let mut room = coolopt_room::presets::parametric_rack_with(coolopt_scenario::RackOptions {
        machines: 20,
        seed,
        ..Default::default()
    });
    let grid_points = default_grid(room.len(), &profile.set_points);
    let records = spans.time(Layer::Grid, || {
        run_grid(&mut room, &grid_points, profile.settle_max, profile.window)
    });
    let t_ac_max = measure_t_ac_max(&mut room, profile.ceiling_probe_load, profile.settle_max);
    let fitted = spans.time(Layer::Fit, || {
        fit_power_model(&records).is_ok()
            && fit_thermal_models(&records).is_ok()
            && fit_cooling_model(&records, t_ac_max).is_ok()
    });
    tally.record(if fitted {
        Ok(())
    } else {
        Err(format!("seed {seed}: a fit failed"))
    });

    let options = SweepOptions::default();
    let t0 = Instant::now();
    let testbed = Testbed::build(seed).map_err(|e| e.to_string())?;
    let planner = scenario_planner(&testbed, &options);
    let mut sweep = Sweep::default();
    for (method, percent) in grid(&options) {
        let load = testbed.load_from_percent(percent);
        let planned = spans.time(Layer::AllocPlan, || planner.plan(method, load));
        tally.record(planned.map(|_| ()).map_err(|e| e.to_string()));
        let mut scenario = testbed.clone();
        let run = spans
            .time(Layer::Run, || {
                run_method_with(&planner, &mut scenario, method, percent, &options)
            })
            .map_err(|e| e.to_string());
        tally.record(check_run(&run));
        if let Ok(run) = run {
            sweep.insert(method, percent, run);
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    tally.record(check_savings(&sweep));
    Ok(elapsed)
}

/// The pipeline layers' medians from the spans.
pub fn layer_metrics(m: &mut Metrics, spans: &Spans) {
    let med = |l: Layer| stats::median(&spans.durations_us(l));
    m.insert("profiling.grid_ms", med(Layer::Grid) / 1e3);
    m.insert("profiling.fit_ms", med(Layer::Fit) / 1e3);
    m.insert("alloc.plan_us", med(Layer::AllocPlan));
    m.insert("harness.run_ms", med(Layer::Run) / 1e3);
}

/// The testbed's fitted rack served by an in-process core.
struct ServedRack {
    core: Arc<ServiceCore>,
    targets: [Target; 1],
    /// 1024 generated 64-load lines for the rack.
    lines: Vec<layers::Line>,
}

fn served_rack(testbed: &Testbed, seed: u64) -> Result<ServedRack, String> {
    let model = &testbed.profile.model;
    let pairs = model.consolidation_pairs();
    let core = Arc::new(ServiceCore::default());
    let key = "paper_pipeline/rack";
    let tenant = core
        .register_parts(key, &pairs, PowerTerms::from_model(model))
        .map_err(|e| e.to_string())?;
    let targets = [Target {
        key: key.to_string(),
        truth: crate::check::Truth {
            pairs,
            snapshot: tenant.snapshot().ok_or("no engine")?,
        },
    }];
    let lines = wire::make_lines(&[(key, 1)], &targets, 64, seed, 1024);
    Ok(ServedRack {
        core,
        targets,
        lines,
    })
}

/// Reply bytes per plan when the first testbed's fitted rack is served:
/// the median reply of its lines through `proto::handle_line`, per load.
fn reply_bytes_per_plan(testbed: &Testbed, seed: u64) -> Result<f64, String> {
    let ServedRack { core, lines, .. } = served_rack(testbed, seed)?;
    let bytes: Vec<f64> = lines
        .iter()
        .map(|l| (coolopt_service::proto::handle_line(&core, l.text.trim_end()).len() + 1) as f64)
        .collect();
    Ok(stats::median(&bytes) / 64.0)
}

/// The request layers for the pipeline: `testbed`'s fitted model served by
/// an in-process core, asked for 64-load bursts across the rack;
/// registration of the rack's scenario file; transport from a fresh server.
fn served_census(
    m: &mut Metrics,
    args: &Args,
    testbed: &Testbed,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<(), String> {
    let ServedRack {
        core,
        targets,
        lines,
    } = served_rack(testbed, args.seed)?;
    let scenario = layers::load_scenarios(&["scenarios/testbed_rack20.json"])?;
    let collector = census::start_collector(&core);
    census::traced_service(
        m,
        &core,
        &scenario,
        &lines,
        &targets,
        args.budget().mul_f64(0.1),
        spans,
        tally,
    );
    collector.stop();
    let rtt = census::rtt_from_fresh_server(args.budget().mul_f64(0.05), tally)?;
    census::request_metrics(m, spans);
    census::reconcile_inproc(m, spans, rtt);
    m.insert(
        "tsdb.series",
        coolopt_telemetry::tsdb().stats().series as f64,
    );
    m.insert("reply_bytes_per_plan", m["proto.reply_bytes"] / 64.0);
    Ok(())
}
