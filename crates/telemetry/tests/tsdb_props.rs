//! Property tests of the Gorilla time-series store: arbitrary series —
//! irregular timestamps, NaN payloads, infinities, subnormals — must
//! round-trip bit-exactly through the compressed blocks, and every range
//! query must equal a straightforward uncompressed oracle over the same
//! samples. Only meaningful with the storage core compiled in.
#![cfg(feature = "enabled")]

use coolopt_telemetry::{Agg, RangeQuery, Tsdb, TsdbConfig};
use proptest::prelude::*;

/// Value patterns that stress the XOR coder: raw bit patterns (NaN
/// payloads and subnormals included), explicit specials, and ordinary
/// magnitudes.
fn arb_value() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX, 0u64..12).prop_map(|(bits, kind)| match kind {
        0..=3 => f64::from_bits(bits),
        4 => f64::NAN,
        5 => f64::INFINITY,
        6 => f64::NEG_INFINITY,
        7 => -0.0,
        8 => f64::from_bits(bits % 0x000f_ffff_ffff_ffff), // subnormal-ish, tiny exponent
        9 => (bits % 2_000_000_001) as f64 - 1e9,
        _ => (bits % 1000) as f64 * 0.25,
    })
}

/// Ascending-but-irregular timestamp deltas, hitting every delta-of-delta
/// encoding class: steady cadence, jitter, medium and huge gaps, repeats.
fn arb_delta() -> impl Strategy<Value = u64> {
    (0u64..12, 0u64..10_000_000).prop_map(|(class, raw)| match class {
        0..=4 => 250,
        5 | 6 => 1 + raw % 99,
        7 => 100 + raw % 4_900,
        8 => 5_000 + raw,
        9 => 0, // repeated timestamp
        _ => 1,
    })
}

/// A whole series: a signed start plus accumulated deltas.
fn arb_series(max_len: usize) -> impl Strategy<Value = Vec<(i64, f64)>> {
    (
        -1_000_000_000i64..1_000_000_000,
        prop::collection::vec((arb_delta(), arb_value()), 1..max_len),
    )
        .prop_map(|(start, deltas)| {
            let mut t = start;
            deltas
                .into_iter()
                .map(|(dt, v)| {
                    t += dt as i64;
                    (t, v)
                })
                .collect()
        })
}

/// The uncompressed oracle: filter to the window, then bucket exactly as
/// documented (buckets of `step` ms anchored at `start`, or at the step
/// multiple at or below the first sample when unbounded, carrying the
/// bucket-start timestamp).
fn oracle(samples: &[(i64, f64)], q: &RangeQuery) -> Vec<(i64, f64)> {
    let start = q.start_ms.unwrap_or(i64::MIN);
    let end = q.end_ms.unwrap_or(i64::MAX);
    let in_range: Vec<(i64, f64)> = samples
        .iter()
        .copied()
        .filter(|&(t, _)| t >= start && t <= end)
        .collect();
    if q.step_ms <= 0 || in_range.is_empty() {
        return in_range;
    }
    let origin = q
        .start_ms
        .unwrap_or(in_range[0].0.div_euclid(q.step_ms) * q.step_ms);
    let mut out: Vec<(i64, Vec<f64>)> = Vec::new();
    for (t, v) in in_range {
        let bucket_t = origin + (t - origin).div_euclid(q.step_ms) * q.step_ms;
        match out.last_mut() {
            Some((bt, vs)) if *bt == bucket_t => vs.push(v),
            _ => out.push((bucket_t, vec![v])),
        }
    }
    out.into_iter()
        .map(|(t, vs)| {
            // Fold from the first element (not an identity), mirroring the
            // store's bucket accumulator bit-for-bit even under NaN.
            let v = match q.agg {
                Agg::Min => vs.iter().copied().reduce(f64::min).expect("non-empty"),
                Agg::Max => vs.iter().copied().reduce(f64::max).expect("non-empty"),
                Agg::Mean => {
                    vs.iter().copied().reduce(|a, b| a + b).expect("non-empty") / vs.len() as f64
                }
                Agg::Last => *vs.last().expect("non-empty bucket"),
            };
            (t, v)
        })
        .collect()
}

/// Bit-level equality (NaN == NaN when the payload matches).
fn same_points(a: &[(i64, f64)], b: &[(i64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&(t0, v0), &(t1, v1))| t0 == t1 && v0.to_bits() == v1.to_bits())
}

/// Like [`same_points`], but any-NaN matches any-NaN: payloads of NaNs
/// *produced by aggregation arithmetic* (e.g. `-inf + inf` inside a mean)
/// are unspecified by LLVM, so only stored — not computed — NaNs can be
/// compared by bits.
fn same_points_agg(a: &[(i64, f64)], b: &[(i64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(&(t0, v0), &(t1, v1))| {
            t0 == t1 && (v0.to_bits() == v1.to_bits() || (v0.is_nan() && v1.is_nan()))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every appended sample comes back bit-exactly through a raw-range
    /// query, however irregular the timestamps or hostile the values.
    #[test]
    fn series_round_trip_bit_exactly(samples in arb_series(400)) {
        // Blocks small enough that sealing happens mid-series; rings big
        // enough that nothing is evicted.
        let db = Tsdb::new(TsdbConfig {
            points_per_block: 16,
            raw_blocks: 1024,
            downsample_every: 8,
            down_blocks: 1024,
        });
        for &(t, v) in &samples {
            db.append("s", t, v);
        }
        let got = db.query("s", &RangeQuery::default()).expect("series exists");
        prop_assert!(
            same_points(&got.points, &samples),
            "decoded {} points, appended {}",
            got.points.len(),
            samples.len()
        );
        // The storage accounting must agree with what is decodable.
        prop_assert_eq!(got.stats.retained_points, samples.len() as u64);
        prop_assert_eq!(got.stats.appended, samples.len() as u64);
        prop_assert!(got.stats.stored_bytes > 0);
    }

    /// Arbitrary query windows (any bounds, any step, any aggregator)
    /// answer exactly what the uncompressed oracle computes.
    #[test]
    fn range_queries_match_the_uncompressed_oracle(
        samples in arb_series(300),
        anchors in (0.0f64..1.0, 0.0f64..1.0),
        step in 0i64..10_000,
        flags in 0u64..64,
    ) {
        let db = Tsdb::new(TsdbConfig {
            points_per_block: 32,
            raw_blocks: 1024,
            downsample_every: 8,
            down_blocks: 1024,
        });
        for &(t, v) in &samples {
            db.append("s", t, v);
        }
        // A window anchored on (perturbed) sampled timestamps, so bounds
        // land inside, between and outside blocks; low flag bits pick the
        // aggregator and which bounds stay open.
        let a = ((anchors.0 * samples.len() as f64) as usize).min(samples.len() - 1);
        let b = ((anchors.1 * samples.len() as f64) as usize).min(samples.len() - 1);
        let (lo, hi) = (samples[a.min(b)].0 - 1, samples[a.max(b)].0 + 1);
        let agg = match flags & 0b11 {
            0 => Agg::Min,
            1 => Agg::Max,
            2 => Agg::Mean,
            _ => Agg::Last,
        };
        let q = RangeQuery {
            start_ms: (flags & 0b100 == 0).then_some(lo),
            end_ms: (flags & 0b1000 == 0).then_some(hi),
            step_ms: step,
            agg,
        };
        let got = db.query("s", &q).expect("series exists");
        let want = oracle(&samples, &q);
        // Raw windows (step 0) must match bit-exactly — those values came
        // straight out of the codec. Aggregated ones compare NaN-agnostic.
        let same = if q.step_ms == 0 {
            same_points(&got.points, &want)
        } else {
            same_points_agg(&got.points, &want)
        };
        prop_assert!(
            same,
            "query {:?}: got {} points, oracle {}",
            q,
            got.points.len(),
            want.len()
        );
    }
}
