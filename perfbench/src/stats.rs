//! Sample statistics: the tail-percentile rule, medians over chunks, and the
//! reconciliation arithmetic.

/// A tail percentile is reported only with at least this many samples
/// beyond it; with fewer, the highest percentile that has them is
/// reported instead (and named in the log).
pub const MIN_TAIL: usize = 10;

/// The percentile actually reportable for a requested `q` from `n`
/// samples: `q` itself when at least [`MIN_TAIL`] samples lie beyond it,
/// otherwise the highest percentile that leaves exactly that many beyond.
pub fn supported_quantile(n: usize, q: f64) -> f64 {
    if n <= MIN_TAIL {
        return 0.0;
    }
    q.min(1.0 - MIN_TAIL as f64 / n as f64)
}

/// Nearest-rank value at quantile `q` of `sorted` (ascending).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The value at the reportable percentile for `q` (see
/// [`supported_quantile`]) and that percentile. `None` when empty.
pub fn tail(samples: &[f64], q: f64) -> Option<(f64, f64)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let used = supported_quantile(sorted.len(), q);
    Some((nearest_rank(&sorted, used), used))
}

/// [`tail`] without the percentile used; `0.0` when empty.
pub fn pct(samples: &[f64], q: f64) -> f64 {
    tail(samples, q).map_or(0.0, |(v, _)| v)
}

/// Most chunks a run's samples are split into.
pub const MAX_CHUNKS: usize = 20;

/// Samples a chunk needs for quantile `q`: enough that `q` is reportable
/// (see [`supported_quantile`]; 1000 for p99), and at least 20. A run with
/// fewer samples than that is one chunk, at the highest percentile it
/// supports.
pub fn chunk_min(q: f64) -> usize {
    ((MIN_TAIL as f64 / (1.0 - q)).ceil() as usize).max(20)
}

/// Splits `0..n` into as many consecutive, near-equal chunks of at least
/// `min_len` as `n` allows, at most [`MAX_CHUNKS`], and at least one.
pub fn chunks(n: usize, min_len: usize) -> Vec<std::ops::Range<usize>> {
    let count = (n / min_len.max(1)).clamp(1, MAX_CHUNKS);
    (0..count)
        .map(|c| c * n / count..(c + 1) * n / count)
        .collect()
}

/// The median over [`chunks`] of quantile `q` of each chunk — robust to a
/// burst of interference in one part of the run, with every chunk large
/// enough to support `q`.
pub fn chunked_pct(samples: &[f64], q: f64) -> f64 {
    let per_chunk: Vec<f64> = chunks(samples.len(), chunk_min(q))
        .into_iter()
        .map(|r| pct(&samples[r], q))
        .collect();
    median(&per_chunk)
}

/// The lowest over [`chunks`] of quantile `q` of each chunk: the figure of
/// the run's least disturbed stretch. On a shared VM the host's speed
/// changes by up to 1.5× for seconds to minutes at a time. Interference only
/// adds time, so the fastest chunk moved least between runs, while a median
/// over chunks followed the mix of fast and slow stretches in the run. A
/// slower program moves every chunk, the fastest too.
pub fn chunked_best(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    chunks(samples.len(), chunk_min(q))
        .into_iter()
        .map(|r| pct(&samples[r], q))
        .fold(f64::INFINITY, f64::min)
}

/// Median (mean of the middle pair for even counts); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// How the per-layer medians account for the client-observed latency:
/// `(Σ layer medians + transport) / client median`.
pub fn reconcile_ratio(layer_medians: &[f64], transport: f64, client_median: f64) -> f64 {
    if client_median <= 0.0 {
        return 0.0;
    }
    (layer_medians.iter().sum::<f64>() + transport) / client_median
}

/// How the per-layer medians account for the part of the client-observed
/// latency that is not transport: `Σ layer medians / (client − transport)`.
/// Unlike [`reconcile_ratio`], a large transport term cannot hide layers
/// that explain too little. `0.0` when transport takes the whole median.
pub fn reconcile_server_ratio(layer_medians: &[f64], transport: f64, client_median: f64) -> f64 {
    let server = client_median - transport;
    if server <= 0.0 {
        return 0.0;
    }
    layer_medians.iter().sum::<f64>() / server
}

/// Whether a reconciliation ratio misses 1.0 by more than `tolerance`.
pub fn reconcile_misses(ratio: f64, tolerance: f64) -> bool {
    (ratio - 1.0).abs() > tolerance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: exactly 10 lie beyond p99, so p99 is reportable.
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        // 500 samples: p99 has 5 beyond it; p98 is the highest with 10.
        assert!((supported_quantile(500, 0.99) - 0.98).abs() < 1e-12);
        // The median never needs lowering once there are enough samples.
        assert_eq!(supported_quantile(500, 0.5), 0.5);
        assert_eq!(supported_quantile(10, 0.99), 0.0);
    }

    #[test]
    fn tail_value_leaves_exactly_min_tail_samples_beyond() {
        let samples: Vec<f64> = (1..=500).map(f64::from).collect();
        let (value, used) = tail(&samples, 0.99).unwrap();
        assert!((used - 0.98).abs() < 1e-12);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), MIN_TAIL);
        let (value, used) = tail(&(1..=2000).map(f64::from).collect::<Vec<_>>(), 0.99).unwrap();
        assert_eq!((value, used), (1980.0, 0.99));
        assert_eq!(pct(&[], 0.5), 0.0);
    }

    #[test]
    fn chunks_are_large_enough_for_their_quantile() {
        assert_eq!(chunk_min(0.99), 1000);
        assert_eq!(chunk_min(0.5), 20);
        assert_eq!(chunks(10, 20), vec![0..10]);
        assert_eq!(chunks(45, 20), vec![0..22, 22..45]);
        assert_eq!(chunks(100_000, 1000).len(), MAX_CHUNKS);
        // From 1000 samples on, every chunk gives a true p99; below that
        // the run is one chunk at the highest percentile it supports.
        let p99_chunks = chunks(3200, chunk_min(0.99));
        assert_eq!(p99_chunks.len(), 3);
        assert!(p99_chunks
            .iter()
            .all(|r| supported_quantile(r.len(), 0.99) == 0.99));
        assert_eq!(chunks(500, chunk_min(0.99)), vec![0..500]);
        // One slow chunk of four moves the chunked median, not a pooled tail.
        let mut samples = vec![1.0; 4000];
        samples[..1000].iter_mut().for_each(|s| *s = 50.0);
        assert_eq!(chunked_pct(&samples, 0.99), 1.0);
        assert_eq!(pct(&samples, 0.99), 50.0);
    }

    #[test]
    fn a_slow_stretch_does_not_move_the_best_chunk() {
        // 20 chunks of 100: one in the fast state (100 µs), the rest slow
        // (150 µs). The median over chunks follows the slow majority; the
        // best chunk keeps the program's own speed.
        let samples: Vec<f64> = (0..2000)
            .map(|i| {
                if (600..700).contains(&i) {
                    100.0
                } else {
                    150.0
                }
            })
            .collect();
        assert_eq!(chunked_pct(&samples, 0.5), 150.0);
        assert_eq!(chunked_best(&samples, 0.5), 100.0);
        // A program twice as slow doubles it.
        let slower: Vec<f64> = samples.iter().map(|s| 2.0 * s).collect();
        assert_eq!(chunked_best(&slower, 0.5), 200.0);
        assert_eq!(chunked_best(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn reconciliation_adds_layers_and_transport() {
        // 10 + 30 + 150 µs of layers plus a 20 µs round trip against a
        // 200 µs client median accounts for 105 %.
        let ratio = reconcile_ratio(&[10.0, 30.0, 150.0], 20.0, 200.0);
        assert!((ratio - 1.05).abs() < 1e-12);
        assert!(!reconcile_misses(ratio, 0.10));
        // Layers that explain only 80 % of the client latency miss.
        let ratio = reconcile_ratio(&[100.0, 50.0], 10.0, 200.0);
        assert!((ratio - 0.8).abs() < 1e-12);
        assert!(reconcile_misses(ratio, 0.10));
        assert_eq!(reconcile_ratio(&[1.0], 1.0, 0.0), 0.0);
    }

    #[test]
    fn transport_cannot_hide_layers_that_explain_too_little() {
        // A 900 µs round trip against a 1000 µs client median: layers of
        // 50 µs explain half of the 100 µs that is not transport, yet the
        // whole-path ratio looks fine.
        let ratio = reconcile_ratio(&[30.0, 20.0], 900.0, 1000.0);
        assert!(!reconcile_misses(ratio, 0.10), "ratio {ratio}");
        let server = reconcile_server_ratio(&[30.0, 20.0], 900.0, 1000.0);
        assert!((server - 0.5).abs() < 1e-12);
        assert!(reconcile_misses(server, 0.10));
        // Layers that explain the non-transport part pass both.
        let server = reconcile_server_ratio(&[60.0, 38.0], 900.0, 1000.0);
        assert!(!reconcile_misses(server, 0.10));
        assert_eq!(reconcile_server_ratio(&[1.0], 5.0, 5.0), 0.0);
    }
}
