//! Plain time-series query data and aggregation (always compiled — the
//! query surface works identically whether the storage core is enabled or
//! not, exactly like [`crate::render`] does for metrics and
//! [`crate::tracefmt`] for traces). The compressed store itself lives in
//! the `enabled`-gated `tsdb` module; without the feature every query
//! simply answers over zero retained points.

use std::time::{SystemTime, UNIX_EPOCH};

/// How the samples of one aligned step bucket collapse to a single value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Agg {
    /// Smallest value in the bucket.
    Min,
    /// Largest value in the bucket.
    Max,
    /// Arithmetic mean of the bucket.
    #[default]
    Mean,
    /// Newest value in the bucket.
    Last,
}

impl Agg {
    /// Parses the wire spelling (`"min"`, `"max"`, `"mean"`, `"last"`).
    pub fn parse(s: &str) -> Option<Agg> {
        match s {
            "min" => Some(Agg::Min),
            "max" => Some(Agg::Max),
            "mean" => Some(Agg::Mean),
            "last" => Some(Agg::Last),
            _ => None,
        }
    }

    /// The wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            Agg::Min => "min",
            Agg::Max => "max",
            Agg::Mean => "mean",
            Agg::Last => "last",
        }
    }
}

/// One range query: an optional half-open-ish time window (both bounds
/// inclusive, in the series' own millisecond timestamp domain) plus an
/// optional alignment step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RangeQuery {
    /// Oldest timestamp to include (unbounded when absent).
    pub start_ms: Option<i64>,
    /// Newest timestamp to include (unbounded when absent).
    pub end_ms: Option<i64>,
    /// Step alignment in milliseconds; `<= 0` returns raw points.
    pub step_ms: i64,
    /// How each step bucket aggregates.
    pub agg: Agg,
}

/// Storage accounting for one series, the raw material of the compression
/// claim: `retained_points + down_points` samples would cost 16 bytes each
/// as plain `(i64, f64)` pairs; the store holds them in `stored_bytes +
/// down_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeriesStats {
    /// Raw samples ever appended (evicted ones included).
    pub appended: u64,
    /// Raw-tier samples currently decodable.
    pub retained_points: u64,
    /// Raw-tier bytes held (block headers + compressed payload).
    pub stored_bytes: u64,
    /// Downsampled-tier samples currently decodable.
    pub down_points: u64,
    /// Downsampled-tier bytes held.
    pub down_bytes: u64,
}

impl SeriesStats {
    /// What the retained samples would cost uncompressed.
    pub fn raw_bytes(&self) -> u64 {
        (self.retained_points + self.down_points) * 16
    }

    /// `raw_bytes / (stored_bytes + down_bytes)`; zero for an empty series.
    pub fn compression_ratio(&self) -> f64 {
        let stored = self.stored_bytes + self.down_bytes;
        if stored == 0 {
            return 0.0;
        }
        self.raw_bytes() as f64 / stored as f64
    }
}

/// One answered range query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// The series name.
    pub name: String,
    /// `(t_ms, value)` samples, aggregated per [`RangeQuery::step_ms`].
    pub points: Vec<(i64, f64)>,
    /// Storage accounting at answer time.
    pub stats: SeriesStats,
}

/// Whole-store accounting (every series summed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TsdbStats {
    /// Distinct series.
    pub series: u64,
    /// Decodable samples across both tiers.
    pub points: u64,
    /// Bytes held across both tiers.
    pub stored_bytes: u64,
    /// What those samples would cost as plain `(i64, f64)` pairs.
    pub raw_bytes: u64,
}

impl TsdbStats {
    /// `raw_bytes / stored_bytes`; zero for an empty store.
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            return 0.0;
        }
        self.raw_bytes as f64 / self.stored_bytes as f64
    }
}

/// Sizing of the compressed store (per series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsdbConfig {
    /// Samples per compressed block (block headers amortize over this).
    pub points_per_block: usize,
    /// Sealed raw-tier blocks retained per series (ring; oldest evicted).
    pub raw_blocks: usize,
    /// Raw samples folded into one downsampled point.
    pub downsample_every: usize,
    /// Sealed downsampled-tier blocks retained per series.
    pub down_blocks: usize,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        // 256-point blocks × 64 raw blocks ≈ 16 k raw samples per series;
        // the 16:1 downsampled tier then reaches ~1 M samples back.
        TsdbConfig {
            points_per_block: 256,
            raw_blocks: 64,
            downsample_every: 16,
            down_blocks: 64,
        }
    }
}

impl TsdbConfig {
    /// Clamps every knob to a sane floor so a zeroed config cannot divide
    /// by zero or retain nothing.
    pub fn sanitized(self) -> Self {
        TsdbConfig {
            points_per_block: self.points_per_block.clamp(2, 1 << 20),
            raw_blocks: self.raw_blocks.clamp(1, 1 << 20),
            downsample_every: self.downsample_every.clamp(2, 1 << 20),
            down_blocks: self.down_blocks.clamp(1, 1 << 20),
        }
    }
}

/// Milliseconds since the Unix epoch — the timestamp domain background
/// collectors stamp samples with (simulation-driven series use sim time
/// instead; the store never reads a clock itself).
pub fn wall_ms() -> i64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as i64)
        .unwrap_or(0)
}

/// Collapses `points` (ascending timestamps, already range-filtered) into
/// `query`-aligned buckets. Bucket `i` covers
/// `[origin + i·step, origin + (i+1)·step)` and carries the bucket-start
/// timestamp. `origin` is `query.start_ms` when the query has a start;
/// an unbounded start is step-aligned — the multiple of `step` at or
/// below the first point — so bucket timestamps are multiples of the
/// step, as Prometheus range queries report them. A non-positive step
/// returns the points unchanged.
pub fn aggregate(points: &[(i64, f64)], query: &RangeQuery) -> Vec<(i64, f64)> {
    let step = query.step_ms;
    if step <= 0 || points.is_empty() {
        return points.to_vec();
    }
    let origin = query
        .start_ms
        .unwrap_or_else(|| points[0].0.div_euclid(step).wrapping_mul(step));
    let mut out: Vec<(i64, f64)> = Vec::new();
    let mut bucket: Option<(i64, f64, f64, f64, f64, u64)> = None; // (idx, min, max, sum, last, n)
    for &(t, v) in points {
        let idx = t.wrapping_sub(origin).div_euclid(step);
        match &mut bucket {
            Some((cur, min, max, sum, last, n)) if *cur == idx => {
                *min = min.min(v);
                *max = max.max(v);
                *sum += v;
                *last = v;
                *n += 1;
            }
            _ => {
                if let Some(b) = bucket.take() {
                    out.push(flush_bucket(b, origin, step, query.agg));
                }
                bucket = Some((idx, v, v, v, v, 1));
            }
        }
    }
    if let Some(b) = bucket {
        out.push(flush_bucket(b, origin, step, query.agg));
    }
    out
}

fn flush_bucket(
    (idx, min, max, sum, last, n): (i64, f64, f64, f64, f64, u64),
    origin: i64,
    step: i64,
    agg: Agg,
) -> (i64, f64) {
    let t = origin.wrapping_add(idx.wrapping_mul(step));
    let v = match agg {
        Agg::Min => min,
        Agg::Max => max,
        Agg::Mean => sum / n as f64,
        Agg::Last => last,
    };
    (t, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_spellings_round_trip() {
        for agg in [Agg::Min, Agg::Max, Agg::Mean, Agg::Last] {
            assert_eq!(Agg::parse(agg.name()), Some(agg));
        }
        assert_eq!(Agg::parse("median"), None);
    }

    #[test]
    fn zero_step_returns_raw_points() {
        let pts = vec![(0, 1.0), (5, 2.0)];
        let q = RangeQuery::default();
        assert_eq!(aggregate(&pts, &q), pts);
    }

    #[test]
    fn step_buckets_align_to_start_and_aggregate() {
        let pts = vec![(0, 1.0), (4, 3.0), (10, 5.0), (14, 7.0), (20, 2.0)];
        let q = RangeQuery {
            start_ms: Some(0),
            end_ms: None,
            step_ms: 10,
            agg: Agg::Mean,
        };
        assert_eq!(aggregate(&pts, &q), vec![(0, 2.0), (10, 6.0), (20, 2.0)]);
        let q = RangeQuery { agg: Agg::Max, ..q };
        assert_eq!(aggregate(&pts, &q), vec![(0, 3.0), (10, 7.0), (20, 2.0)]);
        let q = RangeQuery { agg: Agg::Min, ..q };
        assert_eq!(aggregate(&pts, &q), vec![(0, 1.0), (10, 5.0), (20, 2.0)]);
        let q = RangeQuery {
            agg: Agg::Last,
            ..q
        };
        assert_eq!(aggregate(&pts, &q), vec![(0, 3.0), (10, 7.0), (20, 2.0)]);
    }

    #[test]
    fn unbounded_start_anchors_on_the_step_grid() {
        let pts = vec![(103, 1.0), (104, 2.0), (111, 3.0)];
        let q = RangeQuery {
            step_ms: 10,
            agg: Agg::Mean,
            ..RangeQuery::default()
        };
        assert_eq!(aggregate(&pts, &q), vec![(100, 1.5), (110, 3.0)]);
        let before_zero = vec![(-7, 1.0), (-1, 3.0), (2, 5.0)];
        assert_eq!(aggregate(&before_zero, &q), vec![(-10, 2.0), (0, 5.0)]);
    }

    #[test]
    fn compression_ratio_counts_both_tiers() {
        let s = SeriesStats {
            appended: 100,
            retained_points: 80,
            stored_bytes: 100,
            down_points: 20,
            down_bytes: 60,
        };
        assert_eq!(s.raw_bytes(), 1600);
        assert!((s.compression_ratio() - 10.0).abs() < 1e-12);
        assert_eq!(SeriesStats::default().compression_ratio(), 0.0);
    }

    #[test]
    fn config_sanitizes_zeroes() {
        let c = TsdbConfig {
            points_per_block: 0,
            raw_blocks: 0,
            downsample_every: 0,
            down_blocks: 0,
        }
        .sanitized();
        assert!(c.points_per_block >= 2 && c.raw_blocks >= 1);
        assert!(c.downsample_every >= 2 && c.down_blocks >= 1);
    }
}
