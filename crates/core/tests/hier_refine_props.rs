//! The streamed exact refinement of the hierarchical index, checked from
//! outside: on jittered fleets the refined answer's ON set is ascending,
//! its ratio is the exact sum over that set (to within the rounding that
//! summing in another order can cause — the bitwise walk-order pin is a
//! unit test in `hier.rs`), its power is the objective at that ratio, and
//! the refinement counter rises by one per re-evaluated candidate — at
//! least one for every refined answer, at most the refinement cap, none in
//! coreset mode.
//!
//! One test in this binary, so no other query moves the global counter
//! while a delta is being read.

use coolopt_core::{HierConfig, HierIndex, PowerTerms};
use coolopt_telemetry as telemetry;
use proptest::prelude::*;

/// Candidates the refined mode re-evaluates at most per query.
const REFINE_CAP: u64 = 32;

/// Up to 6 machine classes of 10–120 members each, interleaved by machine
/// index, with per-machine jitter of relative scale `jit` — wide enough
/// that clusters carry a nonzero radius.
fn jittered_fleet() -> impl Strategy<Value = Vec<(f64, f64)>> {
    let classes = prop::collection::vec((0.5f64..25.0, 0.3f64..6.0, 10usize..120), 1..7);
    (classes, 0.0f64..0.05, 0u64..u64::MAX).prop_map(|(classes, jit, salt)| {
        let n: usize = classes.iter().map(|c| c.2).sum();
        let mut left: Vec<usize> = classes.iter().map(|c| c.2).collect();
        let mut pairs = Vec::with_capacity(n);
        let mut h = salt;
        while pairs.len() < n {
            for (c, &(a, b, _)) in classes.iter().enumerate() {
                if left[c] == 0 {
                    continue;
                }
                left[c] -= 1;
                h = h
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                pairs.push((a * (1.0 + jit * u), b * (1.0 + jit * 0.7 * u)));
            }
        }
        pairs
    })
}

fn terms_strategy() -> impl Strategy<Value = PowerTerms> {
    (1.0f64..80.0, 50.0f64..2000.0, prop::option::of(0.5f64..8.0)).prop_map(|(w2, rho, cap)| {
        PowerTerms {
            w2,
            rho,
            t_cap: cap,
        }
    })
}

/// Relative bound on how far `t = (Σa − L)/Σb` can move when the same `k`
/// positive terms are summed in another order: the engine sums `on` in its
/// walk order, the test in ascending order.
///
/// Recursive summation of `k` positive terms lands within `γ·s` of the
/// exact sum `s`, with `γ = (k−1)·u / (1 − (k−1)·u)` and `u = 2⁻⁵³` (Higham,
/// *Accuracy and Stability of Numerical Algorithms*, §4.2). Two orders
/// therefore differ by at most `2γ·s ≤ 2γ·Σa/(1−γ)` in `Σa` (`Σa` being
/// the ascending sum the test computed), and likewise in `Σb`. Through `t`:
///
/// * numerator `Σa − L`: relative change `e1 = 2γ·Σa / ((1−γ)·|Σa − L|)`,
///   the cancellation factor `Σa/|Σa − L|` times the sum error; the
///   computed `Σa − L` is itself within `(1+u)` of the true difference,
///   which the extra `(1+u)` factor covers;
/// * denominator `Σb`: quotient of two sums each within `γ` of the exact
///   one, relative change `e2 = 2γ/(1−γ)`;
/// * the subtraction and the division round once each on both sides:
///   `e3 = ((1+u)/(1−u))² − 1 = 4u/(1−u)²`.
///
/// The factors compose multiplicatively: `(1+e1)(1+e2)(1+e3) − 1`.
fn reordering_bound(k: usize, sum_a: f64, load: f64) -> f64 {
    let u = f64::EPSILON / 2.0;
    let gamma = (k - 1) as f64 * u / (1.0 - (k - 1) as f64 * u);
    let e1 = 2.0 * gamma * sum_a * (1.0 + u) / ((1.0 - gamma) * (sum_a - load).abs());
    let e2 = 2.0 * gamma / (1.0 - gamma);
    let e3 = 4.0 * u / ((1.0 - u) * (1.0 - u));
    (1.0 + e1) * (1.0 + e2) * (1.0 + e3) - 1.0
}

fn refinements() -> u64 {
    telemetry::counter("coolopt_hier_refinements_total").get()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn refined_answers_are_their_own_exact_sums(
        pairs in jittered_fleet(),
        terms in terms_strategy(),
        fractions in prop::collection::vec(0.0f64..1.0, 1..6),
    ) {
        let config = HierConfig::auto(&pairs);
        let hier = HierIndex::build(&pairs, config).unwrap();
        let coreset = HierIndex::build(&pairs, config.coreset()).unwrap();
        let n = pairs.len() as f64;
        for &f in &fractions {
            let load = f * n;
            let before = refinements();
            let answer = hier.query_min_power(&terms, load, None).unwrap();
            let refined = refinements() - before;
            prop_assert!(refined <= REFINE_CAP, "{refined} refinements at load {load}");
            if telemetry::metrics_enabled() && answer.is_some() {
                prop_assert!(refined >= 1, "a refined answer without a refinement");
            }
            let before = refinements();
            coreset.query_min_power(&terms, load, None).unwrap();
            prop_assert_eq!(refinements(), before, "coreset mode refined a candidate");

            let Some(c) = answer else { continue };
            prop_assert_eq!(c.on.len(), c.k);
            prop_assert!(c.on.windows(2).all(|w| w[0] < w[1]), "on is not strictly ascending");
            let (mut sa, mut sb) = (0.0f64, 0.0f64);
            for &i in &c.on {
                sa += pairs[i].0;
                sb += pairs[i].1;
            }
            let t = (sa - load) / sb;
            let err = (c.t - t).abs();
            let bound = reordering_bound(c.k, sa, load) * t.abs();
            prop_assert!(err <= bound, "t = {} but the ON set gives {t} (bound {bound})", c.t);
            prop_assert_eq!(
                c.relative_power.to_bits(),
                terms.relative_power(c.k, c.t).to_bits()
            );
        }
    }
}
