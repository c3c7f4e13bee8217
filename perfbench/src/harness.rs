//! Load loops shared by every workload: the closed loop, the
//! single-thread open loop, and the failure tally.

use crate::openloop::{self, Tick};
use crate::stats;
use std::time::{Duration, Instant};

/// Tail percentile every `*_p99_*` metric asks for (see
/// [`stats::supported_quantile`] for what is reported with few samples).
pub const P99: f64 = 0.99;

/// The latency limit from the service's default SLO, µs.
pub fn latency_limit_us() -> f64 {
    coolopt_service::ServiceConfig::default()
        .slo
        .latency_threshold_seconds
        * 1e6
}

/// A generator more than this late at p99 has lost its schedule.
pub const LAG_LIMIT_NS: u64 = 1_000_000;

/// Counts attempted operations and failures; logs the first few failures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (requests, registrations, scrapes, runs).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Plans audited for ON-set / `t` consistency.
    pub audited: u64,
    /// Audited plans whose ON set does not give their `t`.
    pub mismatched: u64,
}

impl Tally {
    /// Records one attempted operation and its verdict.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: FAILED: {e}");
            }
        }
    }

    /// Records one plan audit (a known engine defect, counted apart from
    /// wrong answers).
    pub fn audit(&mut self, result: Result<(), String>) {
        self.audited += 1;
        if let Err(e) = result {
            self.mismatched += 1;
            if self.mismatched <= 2 {
                eprintln!("perfbench: AUDIT: {e}");
            }
        }
    }

    /// Folds another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.audited += other.audited;
        self.mismatched += other.mismatched;
    }
}

/// Closed-loop results. The central figures are the fastest chunk's (see
/// [`stats::chunked_best`]), the tail is over the whole run.
#[derive(Debug, Clone, Default)]
pub struct ClosedReport {
    /// Loads answered per second of request time, in the fastest chunk.
    pub plans_per_s: f64,
    /// p50 latency of the fastest chunk, µs.
    pub p50_us: f64,
    /// p99 latency over the run (or the highest percentile it supports), µs.
    pub p99_us: f64,
}

/// Runs a closed loop for `duration`: `step` performs one request (and,
/// after its own timing, any checks) and returns its latency in µs and the
/// loads it answered. Throughput is loads per second of request time, so
/// checks between requests do not count against it.
pub fn closed_loop(duration: Duration, mut step: impl FnMut() -> (f64, usize)) -> ClosedReport {
    let start = Instant::now();
    let (mut lat, mut loads) = (Vec::new(), Vec::new());
    while start.elapsed() < duration || lat.is_empty() {
        let (us, answered) = step();
        lat.push(us);
        loads.push(answered as f64);
    }
    let rates: Vec<f64> = stats::chunks(lat.len(), stats::chunk_min(0.5))
        .into_iter()
        .map(|r| loads[r.clone()].iter().sum::<f64>() * 1e6 / lat[r].iter().sum::<f64>())
        .collect();
    let report = ClosedReport {
        plans_per_s: rates.iter().copied().fold(0.0, f64::max),
        p50_us: stats::chunked_best(&lat, 0.5),
        p99_us: stats::pct(&lat, P99),
    };
    eprintln!(
        "perfbench: closed loop: {} requests in {} chunks: p50 {:.1} us (fastest chunk), p{:.1} {:.1} us (whole run), {:.1} loads/s (fastest chunk)",
        lat.len(),
        rates.len(),
        report.p50_us,
        100.0 * stats::supported_quantile(lat.len(), P99),
        report.p99_us,
        report.plans_per_s
    );
    report
}

/// How long before a due time [`wait_until`] stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(300);

/// Waits until `due`: sleeps to within [`SPIN`] of it, then spins, because
/// a sleep alone wakes up to milliseconds late on a busy host. The spin
/// yields, so a thread sharing the CPU (the open loop's reply reader) still
/// runs: a reader held off until the next line went out would hold back
/// its ACK, and the server's Nagle-delayed newline with it.
pub fn wait_until(due: Instant) {
    let now = Instant::now();
    if now + SPIN < due {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// A single-thread open loop: line `i` is due at `i / rate` and starts at
/// the later of its due time and the previous line's end, so a slow line
/// delays every line behind it and that delay counts from the due time.
/// While ahead of schedule the thread runs `idle` (which must return
/// quickly; it is called until the due time is near). Returns the ticks
/// and the window length in ns.
pub fn inline_open_loop(
    rate: f64,
    duration: Duration,
    mut exec: impl FnMut(usize),
    mut idle: impl FnMut() -> bool,
) -> (Vec<Tick>, u64) {
    let end_ns = duration.as_nanos() as u64;
    let n = openloop::lines_due(rate, end_ns);
    let mut ticks = Vec::with_capacity(n);
    let start = Instant::now();
    for i in 0..n {
        let due_ns = openloop::due_ns(i, rate);
        let due = start + Duration::from_nanos(due_ns);
        let mut late = 0;
        if Instant::now() < due {
            // Ahead of schedule: idle work until close to the due time,
            // then wait. Waking late is the generator's own lag.
            while Instant::now() + SPIN < due && idle() {}
            wait_until(due);
            late = Instant::now().saturating_duration_since(due).as_nanos() as u64;
        }
        exec(i);
        ticks.push(Tick {
            due: due_ns,
            late,
            done: Some(start.elapsed().as_nanos() as u64),
        });
    }
    (ticks, end_ns)
}

/// Reads one field (in kB) of `/proc/<pid>/status`, in MB.
pub fn proc_status_mb(pid: u32, field: &str) -> f64 {
    let path = format!("/proc/{pid}/status");
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `VmHWM` / `VmRSS` of this process, MB.
pub fn self_status_mb(field: &str) -> f64 {
    proc_status_mb(std::process::id(), field)
}
