//! `rack_burst` and `fleet_single`: plan lines over loopback TCP to a
//! `coolopt-serve` child.

use crate::census;
use crate::check;
use crate::harness::{self, Tally};
use crate::layers::{self, Line, Target};
use crate::openloop::{self, OpenLoopReport, Tick};
use crate::pin::{self, CpuSet, Pinned};
use crate::server::{self, Conn, Server};
use crate::spans::Spans;
use crate::stats;
use crate::{Args, Metrics, Outcome};
use coolopt_service::proto::PlanReply;
use coolopt_service::ServiceCore;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A wire workload.
#[derive(Debug)]
pub struct Spec {
    /// Scenario files the server registers.
    pub scenarios: &'static [&'static str],
    /// Driven tenants and how many lines of each rotation cycle each gets.
    pub tenants: &'static [(&'static str, usize)],
    /// Loads per request line.
    pub loads_per_line: usize,
    /// The fixed open-loop rate, lines/s: about half the median
    /// `open.max_rate_rps` measured on a 2-vCPU host (see the README).
    pub middle_rate: f64,
    /// The rate ladder `base · ratio^i`, lines/s: `(base, ratio, steps)`.
    /// It starts at the middle rate, so its first rung passes.
    pub ladder: (f64, f64, usize),
    /// Server spawns whose median is `setup_s`.
    pub setups: usize,
    /// Hierarchical answers certified against the oracle per run, by
    /// tenant key.
    pub certify: &'static [(&'static str, usize)],
}

/// 64-load bursts to the three rack-scale tenants (flat engine).
pub const RACK_BURST: Spec = Spec {
    scenarios: &[
        "scenarios/testbed_rack20.json",
        "scenarios/two_zone_hetero.json",
    ],
    tenants: &[
        ("testbed_rack20/rack", 1),
        ("two_zone_hetero/near", 1),
        ("two_zone_hetero/far", 1),
    ],
    loads_per_line: 64,
    middle_rate: 1900.0,
    ladder: (1900.0, 1.06, 32),
    setups: 21,
    certify: &[],
};

/// Single loads to the fleets (hierarchical engine), one line in eight to
/// the 100k hall.
pub const FLEET_SINGLE: Spec = Spec {
    scenarios: &["scenarios/fleet_10k.json", "scenarios/fleet_100k.json"],
    tenants: &[("fleet_10k/hall", 7), ("fleet_100k/hall", 1)],
    loads_per_line: 1,
    middle_rate: 70.0,
    ladder: (70.0, 1.06, 32),
    setups: 11,
    certify: &[("fleet_10k/hall", 4), ("fleet_100k/hall", 1)],
};

/// Lines in a generated pool (cycled through).
const POOL: usize = 4096;

/// One line in this many is compared in depth.
const SAMPLE_ONE_IN: f64 = 8.0;

/// Generates the request pool from `seed`: tenants in a fixed rotation (so
/// every seed has the same mix), loads uniform over 5–95 % of the tenant's
/// machines.
pub fn make_lines(
    tenants: &[(&str, usize)],
    targets: &[Target],
    loads_per_line: usize,
    seed: u64,
    count: usize,
) -> Vec<Line> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let rotation: Vec<usize> = tenants
        .iter()
        .enumerate()
        .flat_map(|(i, t)| std::iter::repeat_n(i, t.1))
        .collect();
    (0..count)
        .map(|i| {
            let tenant = rotation[i % rotation.len()];
            let n = targets[tenant].truth.pairs.len() as f64;
            let loads: Vec<f64> = (0..loads_per_line)
                .map(|_| n * (0.05 + 0.9 * rng.random::<f64>()))
                .collect();
            Line {
                tenant,
                text: layers::line_text(&targets[tenant].key, &loads),
                loads,
                sampled: rng.random::<f64>() * SAMPLE_ONE_IN < 1.0,
            }
        })
        .collect()
}

/// Hierarchical answers kept for certification after the timed phases.
struct Certify {
    wanted: Vec<usize>,
    got: Vec<(usize, PlanReply)>,
}

impl Certify {
    fn new(spec: &Spec, targets: &[Target]) -> Self {
        let wanted = targets
            .iter()
            .map(|t| {
                spec.certify
                    .iter()
                    .find(|c| c.0 == t.key)
                    .map_or(0, |c| c.1)
            })
            .collect();
        Certify {
            wanted,
            got: Vec::new(),
        }
    }

    /// Keeps nothing (for the warm-up).
    fn none(targets: &[Target]) -> Self {
        Certify {
            wanted: vec![0; targets.len()],
            got: Vec::new(),
        }
    }

    fn offer(&mut self, line: &Line, reply: PlanReply) {
        if line.sampled && self.wanted[line.tenant] > 0 {
            self.wanted[line.tenant] -= 1;
            self.got.push((line.tenant, reply));
        }
    }

    fn run(self, targets: &[Target], tally: &mut Tally) {
        for (tenant, reply) in self.got {
            tally.record(check::check_certified(&reply, &targets[tenant].truth));
        }
    }
}

/// Runs one wire workload.
pub fn run(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let bin = server::build()?;
    let scenarios = layers::load_scenarios(spec.scenarios)?;
    let core = Arc::new(ServiceCore::default());
    let keys: Vec<&str> = spec.tenants.iter().map(|t| t.0).collect();
    let targets = layers::register_targets(&core, &scenarios, &keys)?;
    let lines = make_lines(spec.tenants, &targets, spec.loads_per_line, args.seed, POOL);
    let mut tally = Tally::default();
    let mut certify = Certify::new(spec, &targets);
    let mut metrics = Metrics::new();

    let placement = pin::Placement::plan();
    let (closed_cpu, open_cpus) = (placement.map(|p| p.closed), placement.map(|p| p.open));
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..if args.trace { 1 } else { spec.setups } {
        // Each spawn replaces (kills and reaps) the previous server.
        drop(server.take());
        let (s, setup_s) = Server::spawn(&bin, spec.scenarios, &lines[0].text, closed_cpu)?;
        setups.push(setup_s);
        server = Some(s);
    }
    let server = server.expect("at least one setup");
    let rss_setup = harness::proc_status_mb(server.pid(), "VmRSS:");

    // This thread shares the server's CPU, except in open-loop phases.
    let _pinned = Pinned::to(closed_cpu);
    let mut conn = server.connect().map_err(|e| e.to_string())?;
    let mut reply = String::new();
    // Warm-up: each tenant's largest request first (so the server's peak
    // memory does not depend on which loads the seed drew), then the pool.
    for (tenant, target) in targets.iter().enumerate() {
        let n = target.truth.pairs.len() as f64;
        let loads = vec![0.95 * n; spec.loads_per_line];
        let line = Line {
            tenant,
            text: layers::line_text(&target.key, &loads),
            loads,
            sampled: false,
        };
        let verdict = conn
            .round_trip(&line.text, &mut reply)
            .map_err(|e| e.to_string())
            .and_then(|_| layers::verify_line(&reply, &line, target));
        layers::record_line(&mut tally, verdict, target);
    }
    let mut pending = Pending::default();
    let mut i = 0usize;
    let mut closed_step = |tally: &mut Tally, certify: &mut Certify| {
        let index = i % lines.len();
        i += 1;
        let mut reply = pending.buffer();
        let result = conn.round_trip(&lines[index].text, &mut reply);
        let loads = lines[index].loads.len();
        let step = match result {
            Ok(d) => (d.as_secs_f64() * 1e6, loads, reply.len()),
            Err(e) => {
                tally.record(Err(e.to_string()));
                reply.clear();
                (0.0, loads, 0)
            }
        };
        if pending.push(index, reply) {
            pending.check(&lines, &targets, tally, certify);
        }
        step
    };

    let budget = args.budget();
    let warm = Instant::now();
    let (mut warm_tally, mut warm_certify) = (Tally::default(), Certify::none(&targets));
    while warm.elapsed() < budget.mul_f64(0.03) {
        closed_step(&mut warm_tally, &mut warm_certify);
    }

    let mut reply_bytes = 0usize;
    let mut loads = 0usize;
    let closed_share = if args.trace { 0.15 } else { 0.5 };
    let closed = harness::closed_loop(budget.mul_f64(closed_share), || {
        let (us, n, bytes) = closed_step(&mut tally, &mut certify);
        reply_bytes += bytes;
        loads += n;
        (us, n)
    });
    pending.check(&lines, &targets, &mut tally, &mut certify);
    let open_share = if args.trace { 0.1 } else { 0.4 };
    let open = open_phase(
        &mut conn,
        &lines,
        &targets,
        spec.middle_rate,
        budget.mul_f64(open_share),
        open_cpus,
        &mut tally,
    );

    metrics.insert("open_p50_us", open.p50_us);
    if args.trace {
        census::gen_metrics(&mut metrics, &open);
        let probe = budget.mul_f64(0.04);
        let max_rate = census::max_rate(spec.ladder, |rate| {
            open_phase(
                &mut conn, &lines, &targets, rate, probe, open_cpus, &mut tally,
            )
        });
        metrics.insert("open.max_rate_rps", max_rate);
        let mut spans = Spans::with_capacity(1 << 20);
        let collector = census::start_collector(&core);
        census::traced_service(
            &mut metrics,
            &core,
            &scenarios,
            &lines,
            &targets,
            budget.mul_f64(0.25),
            &mut spans,
            &mut tally,
        );
        census::request_metrics(&mut metrics, &spans);
        census::reconcile_wire(
            &mut metrics,
            &mut conn,
            &core,
            &lines,
            &targets,
            budget.mul_f64(0.15),
            &mut tally,
        );
        collector.stop();
        census::pipeline_census(&mut metrics, args.seed, &mut spans, &mut tally)?;
        metrics.insert("tsdb.series", census::server_series(&mut conn, &mut tally));
        metrics.insert(
            "rss_growth_mb",
            harness::proc_status_mb(server.pid(), "VmRSS:") - rss_setup,
        );
        census::write_spans(&spans, args)?;
    } else {
        census::warn_open_loop("middle rate", &open);
        metrics.insert("setup_s", stats::median(&setups));
        metrics.insert(
            "peak_rss_mb",
            harness::proc_status_mb(server.pid(), "VmHWM:"),
        );
    }
    metrics.insert(
        "reply_bytes_per_plan",
        reply_bytes as f64 / loads.max(1) as f64,
    );
    metrics.insert("plans_per_s", closed.plans_per_s);
    metrics.insert("req_p50_us", closed.p50_us);
    metrics.insert("req_p99_us", closed.p99_us);
    drop(server);
    certify.run(&targets, &mut tally);
    Ok(Outcome { tally, metrics })
}

/// Replies of the closed loop awaiting their checks. They are checked in
/// batches of [`CHECK_BATCH`], not after each request: checking a rack
/// reply costs the client about half of what the server spends on it, and
/// with that work between every two requests the timed requests ran about
/// 50 % slower (on a 2-vCPU VM the server's idle vCPU is slow to wake).
#[derive(Default)]
struct Pending {
    replies: Vec<(usize, String)>,
    spare: Vec<String>,
}

/// Closed-loop replies held before they are checked.
const CHECK_BATCH: usize = 128;

impl Pending {
    /// An empty reply buffer.
    fn buffer(&mut self) -> String {
        self.spare.pop().unwrap_or_default()
    }

    /// Holds the reply to `lines[index]`; true when a batch is full.
    fn push(&mut self, index: usize, reply: String) -> bool {
        self.replies.push((index, reply));
        self.replies.len() >= CHECK_BATCH
    }

    /// Checks every held reply (an empty one is a failed round trip,
    /// already counted).
    fn check(
        &mut self,
        lines: &[Line],
        targets: &[Target],
        tally: &mut Tally,
        certify: &mut Certify,
    ) {
        for (index, mut reply) in self.replies.drain(..) {
            let line = &lines[index];
            if !reply.is_empty() {
                let checked = layers::check_line(tally, &reply, line, &targets[line.tenant]);
                if let Some(first) = checked.and_then(|mut r| r.results.drain(..).next()) {
                    certify.offer(line, first);
                }
            }
            reply.clear();
            self.spare.push(reply);
        }
    }
}

/// Longest single open-loop run. A longer phase is a series of these, with
/// the replies of each checked before the next starts, so the replies held
/// stay within a few tens of MB.
const OPEN_WINDOW: Duration = Duration::from_secs(2);

/// An open-loop phase of `duration` at `rate` on `conn`, run on `cpus`
/// as consecutive windows of at most [`OPEN_WINDOW`] and accounted as one
/// run: each window's times are shifted by the windows before it, and the
/// backlog is the final window's.
pub fn open_phase(
    conn: &mut Conn,
    lines: &[Line],
    targets: &[Target],
    rate: f64,
    duration: Duration,
    cpus: Option<CpuSet>,
    tally: &mut Tally,
) -> OpenLoopReport {
    let _pinned = Pinned::to(cpus);
    let mut ticks = Vec::new();
    let mut offset = 0u64;
    let mut left = duration;
    while !left.is_zero() {
        let window = left.min(OPEN_WINDOW);
        left -= window;
        let first = ticks.len();
        let run = wire_open_loop(conn, lines, targets, first, rate, window, tally);
        ticks.extend(run.into_iter().map(|t| Tick {
            due: t.due + offset,
            late: t.late,
            done: t.done.map(|d| d + offset),
        }));
        offset += window.as_nanos() as u64;
    }
    openloop::account(&ticks, offset, harness::LAG_LIMIT_NS)
}

/// One open-loop run on `conn` (the connection the closed loop used, so
/// the server serves every phase from the same thread), sending the lines
/// from `lines[first]` on: this thread writes each line at its due time, a
/// second thread timestamps the replies. Every reply is checked afterwards.
fn wire_open_loop(
    conn: &mut Conn,
    lines: &[Line],
    targets: &[Target],
    first: usize,
    rate: f64,
    duration: Duration,
    tally: &mut Tally,
) -> Vec<Tick> {
    let (reader, writer) = (&mut conn.reader, &mut conn.writer);
    let end_ns = duration.as_nanos() as u64;
    let n = openloop::lines_due(rate, end_ns);
    let line = |i: usize| &lines[(first + i) % lines.len()];
    let start = Instant::now() + Duration::from_millis(2);
    let replies = std::thread::scope(|scope| {
        let reads = scope.spawn(move || {
            let mut out: Vec<(u64, String)> = Vec::with_capacity(n);
            for _ in 0..n {
                let mut text = String::new();
                match reader.read_line(&mut text) {
                    Ok(k) if k > 0 => out.push((start.elapsed().as_nanos() as u64, text)),
                    _ => break,
                }
            }
            out
        });
        let mut late = Vec::with_capacity(n);
        for i in 0..n {
            let due = start + Duration::from_nanos(openloop::due_ns(i, rate));
            harness::wait_until(due);
            late.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
            if writer.write_all(line(i).text.as_bytes()).is_err() {
                break;
            }
        }
        (late, reads.join().expect("reader thread"))
    });
    let (late, replies) = replies;
    for i in 0..n {
        match replies.get(i) {
            Some((_, text)) => {
                layers::check_line(tally, text, line(i), &targets[line(i).tenant]);
            }
            None => tally.record(Err(format!("no reply to open-loop line {i}"))),
        }
    }
    (0..n)
        .map(|i| Tick {
            due: openloop::due_ns(i, rate),
            late: late.get(i).copied().unwrap_or(u64::MAX / 2),
            done: replies.get(i).map(|r| r.0),
        })
        .collect()
}
