//! `control_mix`: rack bursts through `proto::handle_line` on an in-process
//! `ServiceCore` (registration has no wire command) while a second thread
//! churns the control plane at fixed rates, beside the same background
//! collector `coolopt-serve` runs.

use crate::census;
use crate::check::Truth;
use crate::harness::{self, Tally};
use crate::layers::{self, Line, Target};
use crate::openloop;
use crate::spans::Spans;
use crate::stats;
use crate::wire::{self, RACK_BURST};
use crate::{Args, Metrics, Outcome};
use coolopt_service::proto;
use coolopt_service::ServiceCore;
use coolopt_telemetry as telemetry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed open-loop rate, lines/s.
const MIDDLE_RATE: f64 = 500.0;

/// Rate ladder, lines/s: `500 · 1.06^i`.
const LADDER: (f64, f64, usize) = (500.0, 1.06, 48);

/// Set-ups whose median is `setup_s`.
const SETUPS: usize = 7;

/// The churn thread's tick; every event rate below is a multiple of it.
const TICK: Duration = Duration::from_millis(5);

/// Ticks between fresh registrations (20/s), perturbed re-registrations
/// of the first rack tenant (10/s) and scrapes (5/s, rotating stats /
/// metrics / query). Heavier churn made the burst thread's figures swing
/// by twice as much from run to run on a 2-core host.
const FRESH_EVERY: u64 = 10;
const SWAP_EVERY: u64 = 20;
const SCRAPE_EVERY: u64 = 40;

/// Fresh tenants kept registered; older ones are evicted. Fresh keys are
/// never reused, so each one costs whatever eviction leaves behind.
const LIVE_FRESH: u64 = 32;

/// What the churn thread measured.
#[derive(Debug, Default)]
struct Churn {
    register_us: Vec<f64>,
    scrape_us: Vec<f64>,
    tally: Tally,
}

/// Churns `core` until `stop`: fresh register/evict, model swaps of
/// `swapped` between its base and perturbed pairs, and scrapes.
fn churn(core: &ServiceCore, swapped: &Target, alt: &Truth, seed: u64, stop: &AtomicBool) -> Churn {
    let mut out = Churn::default();
    let terms = *swapped.truth.snapshot.terms();
    let start = Instant::now();
    let mut k = 0u64;
    let mut fresh = 0u64;
    while !stop.load(Ordering::Relaxed) {
        k += 1;
        let due = start + TICK * k as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        if k.is_multiple_of(FRESH_EVERY) {
            let key = format!("churn-{seed}-{fresh}");
            let pairs = layers::perturbed(&swapped.truth.pairs, 1e-3, fresh);
            let t0 = Instant::now();
            let result = core.register_parts(&key, &pairs, terms);
            out.register_us.push(t0.elapsed().as_secs_f64() * 1e6);
            out.tally
                .record(result.map(|_| ()).map_err(|e| e.to_string()));
            if fresh >= LIVE_FRESH {
                let old = format!("churn-{seed}-{}", fresh - LIVE_FRESH);
                out.tally.record(
                    core.evict(&old)
                        .map(|_| ())
                        .ok_or(format!("{old} not registered")),
                );
            }
            fresh += 1;
        }
        if k.is_multiple_of(SWAP_EVERY) {
            let pairs = if (k / SWAP_EVERY) % 2 == 1 {
                &alt.pairs
            } else {
                &swapped.truth.pairs
            };
            let t0 = Instant::now();
            let result = core.register_parts(&swapped.key, pairs, terms);
            out.register_us.push(t0.elapsed().as_secs_f64() * 1e6);
            out.tally
                .record(result.map(|_| ()).map_err(|e| e.to_string()));
        }
        if k.is_multiple_of(SCRAPE_EVERY) {
            let us = layers::scrape_once(core, (k / SCRAPE_EVERY) as usize, &mut out.tally);
            out.scrape_us.push(us);
        }
    }
    // Leave the swapped tenant on its base model.
    let result = core.register_parts(&swapped.key, &swapped.truth.pairs, terms);
    out.tally
        .record(result.map(|_| ()).map_err(|e| e.to_string()));
    out
}

/// Checks a reply against the tenant's truth; the swapped tenant may
/// answer from either of its two models.
fn check(tally: &mut Tally, reply: &str, line: &Line, targets: &[Target], alt: &Target) {
    let target = &targets[line.tenant];
    match layers::verify_line(reply, line, target) {
        Err(_) if line.tenant == 0 => {
            layers::record_line(tally, layers::verify_line(reply, line, alt), alt);
        }
        verdict => {
            layers::record_line(tally, verdict, target);
        }
    }
}

/// Runs the control-plane mix.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let scenarios = layers::load_scenarios(RACK_BURST.scenarios)?;
    let keys: Vec<&str> = RACK_BURST.tenants.iter().map(|t| t.0).collect();
    let budget = args.budget();
    let mut tally = Tally::default();
    let mut metrics = Metrics::new();

    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(live.take()); // the previous core's collector stops here
        let t0 = Instant::now();
        let core = Arc::new(ServiceCore::default());
        let targets = layers::register_targets(&core, &scenarios, &keys)?;
        let collector = census::start_collector(&core);
        setups.push(t0.elapsed().as_secs_f64());
        live = Some((core, targets, collector));
    }
    let (core, targets, collector) = live.expect("at least one setup");
    let lines = wire::make_lines(RACK_BURST.tenants, &targets, 64, args.seed, 4096);
    let alt = Target {
        key: targets[0].key.clone(),
        truth: Truth::new(
            layers::perturbed(&targets[0].truth.pairs, 1e-3, 1),
            *targets[0].truth.snapshot.terms(),
        ),
    };
    let rss_start = harness::self_status_mb("VmRSS:");
    let series_start = telemetry::tsdb().stats().series;

    let stop = AtomicBool::new(false);
    let churned = std::thread::scope(|scope| {
        let churner = scope.spawn(|| churn(&core, &targets[0], &alt.truth, args.seed, &stop));
        let result = drive(
            args,
            budget,
            &core,
            &lines,
            &targets,
            &alt,
            &mut tally,
            &mut metrics,
        );
        stop.store(true, Ordering::Relaxed);
        let churned = churner.join().expect("churn thread");
        result.map(|()| churned)
    })?;
    collector.stop();
    tally.merge(churned.tally);
    eprintln!(
        "perfbench: churn: {} registrations, {} scrapes; store grew from {series_start} to {} series",
        churned.register_us.len(),
        churned.scrape_us.len(),
        telemetry::tsdb().stats().series
    );

    if args.trace {
        metrics.insert(
            "register_p99_us",
            stats::pct(&churned.register_us, harness::P99),
        );
        metrics.insert(
            "scrape_p99_us",
            stats::pct(&churned.scrape_us, harness::P99),
        );
        metrics.insert("tsdb.series", telemetry::tsdb().stats().series as f64);
        metrics.insert(
            "rss_growth_mb",
            harness::self_status_mb("VmRSS:") - rss_start,
        );
    } else {
        metrics.insert("setup_s", stats::median(&setups));
        metrics.insert("peak_rss_mb", harness::self_status_mb("VmHWM:"));
    }
    Ok(Outcome { tally, metrics })
}

/// The burst thread's phases, beside the churn.
#[allow(clippy::too_many_arguments)]
fn drive(
    args: &Args,
    budget: Duration,
    core: &Arc<ServiceCore>,
    lines: &[Line],
    targets: &[Target],
    alt: &Target,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let mut i = 0usize;
    let mut step = |tally: &mut Tally| {
        let line = &lines[i % lines.len()];
        i += 1;
        let t0 = Instant::now();
        let reply = proto::handle_line(core, line.text.trim_end());
        let us = t0.elapsed().as_secs_f64() * 1e6;
        check(tally, &reply, line, targets, alt);
        (us, line.loads.len(), reply.len() + 1)
    };
    let warm = Instant::now();
    while warm.elapsed() < budget.mul_f64(0.03) {
        step(&mut Tally::default());
    }
    let (mut bytes, mut plans) = (0usize, 0usize);
    let share = if args.trace { 0.15 } else { 0.5 };
    let closed = harness::closed_loop(budget.mul_f64(share), || {
        let (us, loads, reply_bytes) = step(tally);
        bytes += reply_bytes;
        plans += loads;
        (us, loads)
    });
    metrics.insert("reply_bytes_per_plan", bytes as f64 / plans.max(1) as f64);
    metrics.insert("plans_per_s", closed.plans_per_s);
    metrics.insert("req_p50_us", closed.p50_us);
    metrics.insert("req_p99_us", closed.p99_us);

    let open_loop = |rate: f64, share: f64, tally: &mut Tally| {
        let mut pending: VecDeque<(usize, String)> = VecDeque::new();
        let checked = |pending: &mut VecDeque<(usize, String)>, tally: &mut Tally| {
            let Some((k, reply)) = pending.pop_front() else {
                return false;
            };
            check(tally, &reply, &lines[k % lines.len()], targets, alt);
            !pending.is_empty()
        };
        let cell = std::cell::RefCell::new((&mut pending, &mut *tally));
        let (ticks, end) = harness::inline_open_loop(
            rate,
            budget.mul_f64(share),
            |k| {
                let reply = proto::handle_line(core, lines[k % lines.len()].text.trim_end());
                cell.borrow_mut().0.push_back((k, reply));
            },
            || {
                let (pending, tally) = &mut *cell.borrow_mut();
                checked(pending, tally)
            },
        );
        let (pending, tally) = cell.into_inner();
        while checked(pending, tally) {}
        openloop::account(&ticks, end, harness::LAG_LIMIT_NS)
    };

    if args.trace {
        let open = open_loop(MIDDLE_RATE, 0.1, tally);
        census::gen_metrics(metrics, &open);
        metrics.insert("open_p50_us", open.p50_us);
        let max_rate = census::max_rate(LADDER, |rate| open_loop(rate, 0.04, tally));
        metrics.insert("open.max_rate_rps", max_rate);
        let mut spans = Spans::with_capacity(1 << 20);
        // Replay only the tenants the churn leaves alone: a swapped model
        // would make the traced and untraced replies differ.
        let steady: Vec<Line> = lines.iter().filter(|l| l.tenant != 0).cloned().collect();
        let scenarios = layers::load_scenarios(RACK_BURST.scenarios)?;
        census::traced_service(
            metrics,
            core,
            &scenarios,
            &steady,
            targets,
            budget.mul_f64(0.25),
            &mut spans,
            tally,
        );
        let rtt = census::rtt_from_fresh_server(budget.mul_f64(0.05), tally)?;
        census::request_metrics(metrics, &spans);
        census::reconcile_inproc(metrics, &spans, rtt);
        census::pipeline_census(metrics, args.seed, &mut spans, tally)?;
        census::write_spans(&spans, args)?;
    } else {
        let open = open_loop(MIDDLE_RATE, 0.4, tally);
        census::warn_open_loop("middle rate", &open);
        metrics.insert("open_p50_us", open.p50_us);
    }
    Ok(())
}
