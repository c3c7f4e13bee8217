//! The traced run's per-layer metrics. Each workload measures the layers
//! it reaches on its own inputs; the remaining layers are measured by the
//! same functions on small fixed inputs, so every traced run reports every
//! layer (the README lists which inputs each workload uses).

use crate::harness::{self, Tally};
use crate::layers::{self, Line, Target};
use crate::openloop::OpenLoopReport;
use crate::server::{self, Conn, Server};
use crate::spans::{Layer, Spans};
use crate::stats;
use crate::{Args, Metrics};
use coolopt_scenario::Scenario;
use coolopt_service::ServiceCore;
use coolopt_telemetry as telemetry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reconciliation tolerance (ROADMAP: layers add up within 10 %).
pub const RECONCILE_TOLERANCE: f64 = 0.10;

/// Open-loop honesty: generator lateness and end backlog; logs a warning
/// when the generator lagged.
pub fn gen_metrics(m: &mut Metrics, open: &OpenLoopReport) {
    warn_open_loop("middle rate", open);
    m.insert("gen.late_p99_us", open.late_p99_us);
    m.insert("open.p99_us", open.p99_us);
    m.insert("open.p99_pooled_us", open.p99_pooled_us);
    m.insert("gen.backlog", open.backlog as f64);
    m.insert("gen.lagged", f64::from(u8::from(open.lagged)));
}

/// Flags an open-loop run whose generator lost its schedule.
pub fn warn_open_loop(what: &str, open: &OpenLoopReport) {
    eprintln!(
        "perfbench: open loop at {what}: {} lines, p50 {:.1} us and p99 {:.1} us from due time (whole run {:.1} us), generator late p99 {:.1} us, backlog {}",
        open.latencies_us.len(), open.p50_us, open.p99_us, open.p99_pooled_us, open.late_p99_us, open.backlog
    );
    if open.lagged {
        eprintln!("perfbench: WARNING: the generator lagged its schedule; open-loop figures understate the tail");
    }
}

/// The open-loop capacity on a fixed rate ladder `(base, ratio, steps)`:
/// the achieved rate of the highest rung whose run keeps up (tail within
/// the SLO latency limit, no growing backlog, generator on schedule), by
/// binary search; `run` performs one open-loop run at a rate. Zero when no
/// rung keeps up.
pub fn max_rate(ladder: (f64, f64, usize), mut run: impl FnMut(f64) -> OpenLoopReport) -> f64 {
    let limit = harness::latency_limit_us();
    let rungs = crate::openloop::ladder(ladder.0, ladder.1, ladder.2);
    crate::openloop::search_ladder(&rungs, |rate| {
        let report = run(rate);
        report.keeps_up(rate, limit).then_some(report.achieved_rps)
    })
    .map_or(0.0, |(_, achieved)| achieved)
}

/// Round trip of a minimal line the server refuses (`{}`: no loads), µs
/// at the median — transport measured on its own. Up to 2000 round trips
/// or `budget`, whichever ends first (at least 21).
pub fn rtt_us(conn: &mut Conn, budget: Duration, tally: &mut Tally) -> f64 {
    let mut reply = String::new();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 2000 && (start.elapsed() < budget || samples.len() < 21) {
        match conn.round_trip("{}\n", &mut reply) {
            Ok(d) if reply.contains("\"ok\":false") => {
                samples.push(d.as_secs_f64() * 1e6);
                tally.record(Ok(()));
            }
            Ok(_) => tally.record(Err(format!("minimal line answered {}", reply.trim_end()))),
            Err(e) => {
                tally.record(Err(e.to_string()));
                break;
            }
        }
    }
    stats::median(&samples)
}

/// `wire.rtt_us` for in-process workloads: a `coolopt-serve` child with
/// the rack scenario, used only for the transport round trip.
pub fn rtt_from_fresh_server(budget: Duration, tally: &mut Tally) -> Result<f64, String> {
    let bin = server::build()?;
    let probe = "{\"tenant\":\"testbed_rack20/rack\",\"load\":5.0}\n";
    let (server, _) = Server::spawn(&bin, &["scenarios/testbed_rack20.json"], probe, None)?;
    let mut conn = server.connect().map_err(|e| e.to_string())?;
    Ok(rtt_us(&mut conn, budget, tally))
}

/// Series in the server's time-series store, from a `query` scrape.
pub fn server_series(conn: &mut Conn, tally: &mut Tally) -> f64 {
    let mut reply = String::new();
    let line = "{\"cmd\":\"query\",\"series\":\"none-such\",\"limit\":1}\n";
    let parsed = conn
        .round_trip(line, &mut reply)
        .map_err(|e| e.to_string())
        .and_then(|_| {
            serde_json::from_str::<coolopt_service::proto::QueryReply>(&reply)
                .map_err(|e| format!("query reply: {e}"))
        });
    match parsed {
        Ok(q) => {
            tally.record(Ok(()));
            q.total_series as f64
        }
        Err(e) => {
            tally.record(Err(e));
            0.0
        }
    }
}

/// Traces the service layers in process: replays `lines` layer by layer,
/// then times scrapes, cold registration of `scenarios` and the swap of a
/// perturbed model for the first target. The caller runs the collector.
#[allow(clippy::too_many_arguments)]
pub fn traced_service(
    m: &mut Metrics,
    core: &ServiceCore,
    scenarios: &[Scenario],
    lines: &[Line],
    targets: &[Target],
    replay_for: Duration,
    spans: &mut Spans,
    tally: &mut Tally,
) {
    let report = layers::replay(core, lines, targets, replay_for, usize::MAX, spans, tally);
    replay_metrics(m, &report);
    coalesce_metrics(m, core, targets);
    scrape_metrics(m, core, spans, tally);
    layers::register_layers(scenarios, replay_for / 4, spans, tally);
    let (p50, p99) = layers::p50_p99(&spans.durations_us(Layer::Register));
    m.insert("registry.register_p50_us", p50);
    m.insert("registry.register_p99_us", p99);
    m.insert("register_p99_us", reregister_p99(core, &targets[0], tally));
}

/// The background collector `coolopt-serve` runs, at its default period:
/// registry metrics plus the core's service-level series.
pub fn start_collector(core: &Arc<ServiceCore>) -> telemetry::CollectorHandle {
    let core = Arc::clone(core);
    telemetry::Collector::new(0.25)
        .sample_registry(true)
        .source(move |now_ms, db| core.sample_into(db, now_ms))
        .start()
}

fn replay_metrics(m: &mut Metrics, r: &layers::ReplayReport) {
    m.insert("proto.reply_bytes", stats::median(&r.reply_bytes));
    m.insert("index.rows_per_query", r.rows_per_query);
    m.insert("hier.refinements_per_query", r.refinements_per_query);
    let untraced = stats::median(&r.untraced_us);
    m.insert(
        "trace.overhead_share",
        if untraced > 0.0 {
            stats::median(&r.traced_us) / untraced - 1.0
        } else {
            0.0
        },
    );
    m.insert("inproc.handle_line_p50_us", untraced);
}

/// Layer medians and tails of the request path, from the spans.
pub fn request_metrics(m: &mut Metrics, spans: &Spans) {
    let layer = |l: Layer| layers::p50_p99(&spans.durations_us(l));
    let (parse50, parse99) = layer(Layer::Parse);
    let (route50, _) = layer(Layer::Route);
    let (submit50, submit99) = layer(Layer::Submit);
    let (plan50, plan99) = layer(Layer::Plan);
    let (encode50, encode99) = layer(Layer::Encode);
    m.insert("proto.parse_p50_us", parse50);
    m.insert("proto.parse_p99_us", parse99);
    m.insert("core.route_p50_us", route50);
    m.insert("tenant.submit_p50_us", submit50);
    m.insert("tenant.submit_p99_us", submit99);
    m.insert("snapshot.plan_p50_us", plan50);
    m.insert("snapshot.plan_p99_us", plan99);
    m.insert("proto.encode_p50_us", encode50);
    m.insert("proto.encode_p99_us", encode99);
}

/// The medians of the layers `proto::handle_line` runs, in request order.
fn layer_parts(spans: &Spans) -> [(&'static str, f64); 4] {
    [Layer::Parse, Layer::Route, Layer::Submit, Layer::Encode]
        .map(|l| (l.name(), layers::p50_p99(&spans.durations_us(l)).0))
}

/// The three reconciliation ratios of one measurement.
#[derive(Debug, Clone, Copy)]
struct Ratios {
    /// (Σ layers + transport) / client.
    whole: f64,
    /// Σ layers / (client − transport).
    server: f64,
    /// Σ layers / `handle_line`.
    inproc: f64,
}

fn ratios(parts: &[(&str, f64)], inproc: f64, client: f64, transport: f64) -> Ratios {
    let sums: Vec<f64> = parts.iter().map(|p| p.1).collect();
    Ratios {
        whole: stats::reconcile_ratio(&sums, transport, client),
        server: stats::reconcile_server_ratio(&sums, transport, client),
        inproc: stats::reconcile_ratio(&sums, 0.0, inproc),
    }
}

/// Reconciliation for an in-process workload, whose client is
/// `handle_line` itself: every ratio compares the layers with its median.
/// `rtt` (from a separate server) is reported as `wire.rtt_us` only.
pub fn reconcile_inproc(m: &mut Metrics, spans: &Spans, rtt: f64) {
    m.insert("wire.rtt_us", rtt);
    let parts = layer_parts(spans);
    let inproc = m["inproc.handle_line_p50_us"];
    let r = ratios(&parts, inproc, inproc, 0.0);
    report_reconcile(m, r, &parts, inproc, inproc, 0.0);
}

/// Lines per paired reconciliation round.
const ROUND_LINES: usize = 64;

/// `wire.rtt_us` and the reconciliation of a wire workload, in paired
/// rounds. A round sends 64 consecutive pool lines over `conn` (closed
/// loop; the replies are checked after the round), times 21 round trips of
/// `{}`, then replays the same lines on the in-process `core` layer by
/// layer. Each ratio is the median of its per-round values. Host speed
/// drifts over seconds, far slower than a round, so the drift cancels
/// within a round; phases minutes apart would not reconcile on a shared
/// host. At least five rounds, then until `budget` has passed.
pub fn reconcile_wire(
    m: &mut Metrics,
    conn: &mut Conn,
    core: &ServiceCore,
    lines: &[Line],
    targets: &[Target],
    budget: Duration,
    tally: &mut Tally,
) {
    struct Round {
        ratios: Ratios,
        parts: [(&'static str, f64); 4],
        inproc: f64,
        client: f64,
        rtt: f64,
    }
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < 5 || start.elapsed() < budget {
        let at = (rounds.len() * ROUND_LINES) % lines.len();
        let block = &lines[at..(at + ROUND_LINES).min(lines.len())];
        let mut client = Vec::with_capacity(block.len());
        let mut replies = Vec::with_capacity(block.len());
        for line in block {
            let mut reply = String::new();
            match conn.round_trip(&line.text, &mut reply) {
                Ok(d) => {
                    client.push(d.as_secs_f64() * 1e6);
                    replies.push((line, reply));
                }
                Err(e) => tally.record(Err(e.to_string())),
            }
        }
        for (line, reply) in &replies {
            layers::check_line(tally, reply, line, &targets[line.tenant]);
        }
        let rtt = rtt_us(conn, Duration::ZERO, tally);
        let mut spans = Spans::with_capacity(block.len() * 8);
        let replay = layers::replay(
            core,
            block,
            targets,
            Duration::MAX,
            block.len(),
            &mut spans,
            tally,
        );
        let parts = layer_parts(&spans);
        let inproc = layers::p50_p99(&replay.untraced_us).0;
        let client = stats::median(&client);
        rounds.push(Round {
            ratios: ratios(&parts, inproc, client, rtt),
            parts,
            inproc,
            client,
            rtt,
        });
    }
    let med = |f: &dyn Fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    let r = Ratios {
        whole: med(&|x| x.ratios.whole),
        server: med(&|x| x.ratios.server),
        inproc: med(&|x| x.ratios.inproc),
    };
    let parts: [(&str, f64); 4] =
        std::array::from_fn(|j| (rounds[0].parts[j].0, med(&|x| x.parts[j].1)));
    let rtt = med(&|x| x.rtt);
    m.insert("wire.rtt_us", rtt);
    eprintln!(
        "perfbench: reconcile: {} paired rounds of {ROUND_LINES} lines; medians over rounds follow",
        rounds.len()
    );
    report_reconcile(m, r, &parts, med(&|x| x.inproc), med(&|x| x.client), rtt);
}

/// Inserts the ratios and the miss flag; logs them and, on a miss, where
/// the gap points.
fn report_reconcile(
    m: &mut Metrics,
    r: Ratios,
    parts: &[(&'static str, f64)],
    inproc: f64,
    client: f64,
    transport: f64,
) {
    m.insert("reconcile.ratio", r.whole);
    m.insert("reconcile.server_ratio", r.server);
    m.insert("reconcile.inproc_ratio", r.inproc);
    let misses = |ratio: f64| stats::reconcile_misses(ratio, RECONCILE_TOLERANCE);
    let miss = misses(r.whole) || misses(r.server) || misses(r.inproc);
    m.insert("reconcile.miss", f64::from(u8::from(miss)));
    let layers = parts.iter().map(|p| p.1).sum::<f64>();
    eprintln!(
        "perfbench: reconcile: layers {layers:.1} + transport {transport:.1} us vs client p50 {client:.1} us = {:.3}; layers vs client - transport = {:.3}; layers vs handle_line p50 {inproc:.1} us = {:.3}",
        r.whole, r.server, r.inproc
    );
    if miss {
        let (largest, time) = parts
            .iter()
            .copied()
            .fold(("", 0.0), |a, b| if b.1 > a.1 { b } else { a });
        let bytes = m.get("proto.reply_bytes").copied().unwrap_or(0.0);
        eprintln!(
            "perfbench: RECONCILE MISS: of the client p50 {client:.1} us, the layer medians explain {layers:.1} us (largest {largest} at {time:.1} us); handle_line's median adds {:.1} us beyond them; {:.1} us lies between handle_line and the client beyond the {transport:.1} us round trip (socket writes and reads of a {bytes:.0} B reply, and the wake-ups around them)",
            inproc - layers,
            client - transport - inproc
        );
    }
}

/// Coalescer figures: the driven tenants' windowed queue-wait p99 (worst
/// tenant) and the core's batch statistics.
pub fn coalesce_metrics(m: &mut Metrics, core: &ServiceCore, targets: &[Target]) {
    let windows = core.config().slo_windows;
    let wait = targets
        .iter()
        .filter_map(|t| core.get(&t.key))
        .filter_map(|t| t.queue_wait_windowed(windows).quantile(0.99))
        .fold(0.0f64, f64::max);
    let snapshot = core.stats().snapshot();
    m.insert("coalesce.queue_wait_p99_us", wait * 1e6);
    m.insert("coalesce.mean_batch", snapshot.mean_batch_size());
    m.insert("coalesce.shed_share", snapshot.shed_rate());
}

/// Scrape layers (`stats_doc`, `render_prometheus`, `query_matching`) and
/// the wire-form scrapes through `handle_line`.
pub fn scrape_metrics(m: &mut Metrics, core: &ServiceCore, spans: &mut Spans, tally: &mut Tally) {
    let [s, p, q] = layers::scrape_layers(core, 30, spans);
    m.insert("stats.scrape_us", s);
    m.insert("metrics.scrape_us", p);
    m.insert("tsdb.query_us", q);
    let samples: Vec<f64> = (0..90)
        .map(|i| layers::scrape_once(core, i, tally))
        .collect();
    m.insert("scrape_p99_us", stats::pct(&samples, harness::P99));
}

/// p99 of swapping a perturbed model into `target` and back (each swap
/// rebuilds the engine), µs; bounded to about one second.
pub fn reregister_p99(core: &ServiceCore, target: &Target, tally: &mut Tally) -> f64 {
    let base = &target.truth.pairs;
    let moved = layers::perturbed(base, 1e-3, 7);
    let terms = *target.truth.snapshot.terms();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 40 && (start.elapsed() < Duration::from_secs(1) || samples.len() < 2) {
        let pairs = if samples.len() % 2 == 0 { &moved } else { base };
        let t0 = Instant::now();
        let result = core.register_parts(&target.key, pairs, terms);
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        tally.record(result.map(|_| ()).map_err(|e| e.to_string()));
    }
    if samples.len() % 2 == 1 {
        // Leave the tenant on its original model.
        let result = core.register_parts(&target.key, base, terms);
        tally.record(result.map(|_| ()).map_err(|e| e.to_string()));
    }
    stats::pct(&samples, harness::P99)
}

/// Per-layer metrics of the paper pipeline on one seed, for workloads that
/// do not run the pipeline themselves.
pub fn pipeline_census(
    m: &mut Metrics,
    seed: u64,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<(), String> {
    let traced = crate::pipeline::traced_seed(seed, spans, tally)?;
    m.insert("pipeline_s", traced);
    crate::pipeline::layer_metrics(m, spans);
    Ok(())
}

/// Writes the traced run's spans under the target directory.
pub fn write_spans(spans: &Spans, args: &Args) -> Result<(), String> {
    let path = server::target_dir()
        .join("perfbench")
        .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    spans
        .write_tsv(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        spans.len(),
        path.display()
    );
    Ok(())
}
