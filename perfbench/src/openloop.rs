//! Open-loop accounting: every line is timed from when it was *due*, not
//! from when it was sent, so a stall in the server (or in the generator)
//! shows up in the latency of every line queued behind it instead of being
//! hidden by coordinated omission.

use crate::stats;

/// One line of an open-loop run; times are nanoseconds since the run's
/// start.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tick {
    /// When the line was due by the fixed-rate schedule.
    pub due: u64,
    /// How late the generator issued it (its own lag, not queueing).
    pub late: u64,
    /// When its answer was complete, if it ever was.
    pub done: Option<u64>,
}

/// The due time of line `i` at `rate` lines per second.
pub fn due_ns(i: usize, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate) as u64
}

/// Lines due strictly before `end_ns` at `rate`.
pub fn lines_due(rate: f64, end_ns: u64) -> usize {
    (end_ns as f64 * rate / 1e9).ceil() as usize
}

/// What one open-loop run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopReport {
    /// `done − due` of every completed line, µs.
    pub latencies_us: Vec<f64>,
    /// Median latency from due time (median over chunks of the run), µs.
    pub p50_us: f64,
    /// Tail latency from due time: the median over consecutive chunks of
    /// the run of each chunk's p99 (see [`stats::chunked_pct`]), µs. Steady
    /// on a noisy host; a stall confined to one chunk shows in
    /// `p99_pooled_us` instead.
    pub p99_us: f64,
    /// Tail latency from due time over the whole run, µs.
    pub p99_pooled_us: f64,
    /// The generator's own lateness at the same percentile, µs.
    pub late_p99_us: f64,
    /// Lines due before the window ended but not answered by then.
    pub backlog: usize,
    /// The generator itself fell behind its schedule.
    pub lagged: bool,
    /// Answered lines per second over the run.
    pub achieved_rps: f64,
}

impl OpenLoopReport {
    /// Whether the run kept up at the latency `limit_us`: whole-run tail
    /// latency within the limit, no more backlog than clears within the
    /// limit, and a generator that kept its schedule.
    pub fn keeps_up(&self, rate: f64, limit_us: f64) -> bool {
        let clearable = (rate * limit_us * 1e-6).ceil() as usize;
        self.p99_pooled_us <= limit_us && self.backlog <= clearable.max(1) && !self.lagged
    }
}

/// Accounts a finished open-loop run whose schedule window ended at
/// `end_ns`. The generator counts as lagged when its p99 lateness exceeds
/// `lag_limit_ns`.
pub fn account(ticks: &[Tick], end_ns: u64, lag_limit_ns: u64) -> OpenLoopReport {
    let latencies_us: Vec<f64> = ticks
        .iter()
        .filter_map(|t| t.done.map(|d| d.saturating_sub(t.due) as f64 / 1e3))
        .collect();
    let late: Vec<f64> = ticks.iter().map(|t| t.late as f64 / 1e3).collect();
    let backlog = ticks
        .iter()
        .filter(|t| t.due < end_ns && t.done.is_none_or(|d| d > end_ns))
        .count();
    let last_done = ticks.iter().filter_map(|t| t.done).max().unwrap_or(0);
    let late_p99_us = stats::pct(&late, 0.99);
    OpenLoopReport {
        p50_us: stats::chunked_pct(&latencies_us, 0.5),
        p99_us: stats::chunked_pct(&latencies_us, 0.99),
        p99_pooled_us: stats::pct(&latencies_us, 0.99),
        achieved_rps: if last_done > 0 {
            latencies_us.len() as f64 * 1e9 / last_done as f64
        } else {
            0.0
        },
        latencies_us,
        late_p99_us,
        backlog,
        lagged: late_p99_us * 1e3 > lag_limit_ns as f64,
    }
}

/// A fixed geometric rate ladder: `base · ratio^i` for `i < steps`.
pub fn ladder(base: f64, ratio: f64, steps: usize) -> Vec<f64> {
    (0..steps).map(|i| base * ratio.powi(i as i32)).collect()
}

/// Binary search for the highest rung that `probe` passes (it returns the
/// achieved rate on a pass). Assumes passing is monotone in the rate.
/// Returns the rung index and its achieved rate.
pub fn search_ladder(
    rungs: &[f64],
    mut probe: impl FnMut(f64) -> Option<f64>,
) -> Option<(usize, f64)> {
    let (mut lo, mut hi) = (0usize, rungs.len());
    let mut best = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match probe(rungs[mid]) {
            Some(achieved) => {
                best = Some((mid, achieved));
                lo = mid + 1;
            }
            None => hi = mid,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        // A 50 ms stall: the line due at 0 was answered at 51 ms, and the
        // four lines due behind it (every 1 ms) waited for it.
        let mut ticks: Vec<Tick> = (0..100)
            .map(|i| Tick {
                due: i * MS,
                late: 0,
                done: Some(i * MS + MS / 2),
            })
            .collect();
        for (i, tick) in ticks.iter_mut().take(5).enumerate() {
            tick.done = Some(51 * MS + i as u64 * MS / 10);
        }
        let report = account(&ticks, 100 * MS, MS);
        assert_eq!(report.latencies_us[0], 51_000.0);
        assert_eq!(report.latencies_us[4], 47_400.0);
        assert_eq!(report.latencies_us[5], 500.0);
        assert!(!report.lagged);
        assert_eq!(report.backlog, 0);
    }

    #[test]
    fn stall_shows_in_the_tail_and_fails_the_limit() {
        let ticks: Vec<Tick> = (0..2000)
            .map(|i| Tick {
                due: i * MS,
                late: 0,
                // Lines 0..30 wait behind a 40 ms stall.
                done: Some(if i < 30 { 40 * MS + i } else { i * MS + MS / 4 }),
            })
            .collect();
        let report = account(&ticks, 2000 * MS, MS);
        assert!(
            report.p99_pooled_us > 10_000.0,
            "p99 {}",
            report.p99_pooled_us
        );
        assert!(!report.keeps_up(1000.0, 10_000.0));
    }

    #[test]
    fn backlog_counts_due_but_unanswered_lines_at_the_end() {
        let ticks = [
            Tick {
                due: 0,
                late: 0,
                done: Some(MS),
            },
            Tick {
                due: 5 * MS,
                late: 0,
                done: Some(12 * MS),
            },
            Tick {
                due: 8 * MS,
                late: 0,
                done: None,
            },
            Tick {
                due: 9 * MS,
                late: 0,
                done: Some(10 * MS),
            },
        ];
        let report = account(&ticks, 10 * MS, MS);
        assert_eq!(report.backlog, 2);
        assert_eq!(report.latencies_us, vec![1000.0, 7000.0, 1000.0]);
        assert!((report.achieved_rps - 3.0 / 0.012).abs() < 1e-6);
    }

    #[test]
    fn a_late_generator_is_flagged() {
        let ticks: Vec<Tick> = (0..100)
            .map(|i| Tick {
                due: i * MS,
                late: if i % 2 == 0 { 3 * MS } else { 0 },
                done: Some(i * MS + 3 * MS + 10),
            })
            .collect();
        let report = account(&ticks, 100 * MS, MS);
        assert!(report.lagged);
        assert!(!report.keeps_up(1000.0, 10_000.0));
    }

    #[test]
    fn schedule_and_ladder_arithmetic() {
        assert_eq!(due_ns(3, 1000.0), 3 * MS);
        assert_eq!(lines_due(1000.0, 10 * MS), 10);
        let rungs = ladder(100.0, 2.0, 4);
        assert_eq!(rungs, vec![100.0, 200.0, 400.0, 800.0]);
        let found = search_ladder(&ladder(100.0, 1.1, 30), |r| (r < 1000.0).then_some(r));
        let (idx, rate) = found.unwrap();
        assert!(
            rate < 1000.0 && rate * 1.1 >= 1000.0,
            "rung {idx} at {rate}"
        );
        assert_eq!(search_ladder(&rungs, |_| None), None);
    }
}
