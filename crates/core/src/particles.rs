//! The kinetic-particle view of consolidation (the paper's §III-B, Fig. 1).
//!
//! Each machine `i` becomes a particle at coordinate `x_i(t) = a_i − b_i·t`
//! with `a_i = K_i` and `b_i = α_i/β_i`. For any fixed `t`, the best
//! size-`k` subset (largest `Σ x_i(t)`) is simply the `k` particles with the
//! largest coordinates — and the coordinate *order* only changes at the
//! `O(n²)` pairwise crossing events. Enumerating the order after every event
//! therefore covers every subset the optimum can ever be.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error for malformed particle systems.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidParticles {
    what: String,
}

impl fmt::Display for InvalidParticles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid particle system: {}", self.what)
    }
}

impl std::error::Error for InvalidParticles {}

/// A crossing event: particles `p` and `q` meet at time `t`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Event time (`> 0`).
    pub t: f64,
    /// One particle (the paper's convention: `p < q`).
    pub p: usize,
    /// The other particle.
    pub q: usize,
}

/// The coordinate order holding on a time interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderSnapshot {
    /// Start of the interval on which this order holds (0 for the initial
    /// order, an event time plus ε otherwise).
    pub since: f64,
    /// Particle indices sorted by decreasing coordinate.
    pub order: Vec<usize>,
}

/// The one-dimensional kinetic system over pairs `(a_i, b_i)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParticleSystem {
    a: Vec<f64>,
    b: Vec<f64>,
}

impl ParticleSystem {
    /// Builds the system from `(a_i, b_i)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParticles`] when empty, when any value is not
    /// finite, or when any speed `b_i` is non-positive (in the paper's
    /// reduction `b_i = α_i/β_i > 0` always).
    pub fn new(pairs: &[(f64, f64)]) -> Result<Self, InvalidParticles> {
        Self::validate(pairs)?;
        Ok(ParticleSystem {
            a: pairs.iter().map(|&(a, _)| a).collect(),
            b: pairs.iter().map(|&(_, b)| b).collect(),
        })
    }

    /// The checks of [`ParticleSystem::new`], in place: lets a builder
    /// reject bad pairs without copying them into a system it never uses.
    ///
    /// # Errors
    ///
    /// As [`ParticleSystem::new`].
    pub(crate) fn validate(pairs: &[(f64, f64)]) -> Result<(), InvalidParticles> {
        if pairs.is_empty() {
            return Err(InvalidParticles {
                what: "no particles".into(),
            });
        }
        for (i, &(a, b)) in pairs.iter().enumerate() {
            if !a.is_finite() || !b.is_finite() {
                return Err(InvalidParticles {
                    what: format!("particle {i} has non-finite parameters ({a}, {b})"),
                });
            }
            if b <= 0.0 {
                return Err(InvalidParticles {
                    what: format!("particle {i} has non-positive speed {b}"),
                });
            }
        }
        Ok(())
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.a.len()
    }

    /// `true` for the empty system (impossible after construction).
    pub fn is_empty(&self) -> bool {
        self.a.is_empty()
    }

    /// Coordinate of particle `i` at time `t`: `x_i(t) = a_i − b_i·t`.
    pub fn coordinate(&self, i: usize, t: f64) -> f64 {
        self.a[i] - self.b[i] * t
    }

    /// All pairwise crossing events with `t > 0`, sorted by time.
    ///
    /// Particles with equal speeds never cross; a pair already ordered the
    /// "final" way at `t = 0` has its crossing in the past (`t ≤ 0`) and is
    /// skipped, exactly as in the paper's Algorithm 1 (line: "if
    /// passTime ≤ 0 then continue").
    pub fn events(&self) -> Vec<Event> {
        let n = self.len();
        let mut events = Vec::new();
        for p in 0..n {
            for q in (p + 1)..n {
                if self.b[p] == self.b[q] {
                    continue; // parallel: never meet
                }
                let t = (self.a[q] - self.a[p]) / (self.b[q] - self.b[p]);
                if t > 0.0 && t.is_finite() {
                    events.push(Event { t, p, q });
                }
            }
        }
        events.sort_by(|x, y| x.t.partial_cmp(&y.t).expect("event times are finite"));
        events
    }

    /// Particle indices sorted by decreasing coordinate at time `t`
    /// (deterministic tie-break by index).
    pub fn order_at(&self, t: f64) -> Vec<usize> {
        let mut order = Vec::new();
        self.order_into(t, &mut order);
        order
    }

    /// [`order_at`] into a caller-owned buffer, so hot paths (the capacity
    /// query's ON-set reconstruction, the incremental build's resort
    /// fallback) reorder without allocating.
    ///
    /// [`order_at`]: ParticleSystem::order_at
    pub fn order_into(&self, t: f64, buf: &mut Vec<usize>) {
        buf.clear();
        buf.extend(0..self.len());
        buf.sort_by(|&i, &j| {
            self.coordinate(j, t)
                .partial_cmp(&self.coordinate(i, t))
                .expect("coordinates are finite")
                .then(i.cmp(&j))
        });
    }

    /// Every distinct coordinate order over `t ≥ 0`: the initial order plus
    /// the order just after each event time.
    ///
    /// Consecutive duplicate orders (from simultaneous events) are
    /// collapsed. Instead of maintaining the order incrementally with
    /// adjacent swaps (which is fragile when several events coincide), each
    /// snapshot re-sorts the coordinates slightly *after* the event — same
    /// output, same `O(n³ log n)` bound over the full Algorithm 1.
    pub fn orders(&self) -> Vec<OrderSnapshot> {
        let mut snapshots = vec![OrderSnapshot {
            since: 0.0,
            order: self.order_at(0.0),
        }];
        let events = self.events();
        for (idx, e) in events.iter().enumerate() {
            if idx + 1 < events.len() && events[idx + 1].t == e.t {
                continue; // coalesce simultaneous events; sample once after
            }
            // Sample just after the event; half-way to the next event is
            // immune to floating-point epsilon choices.
            let t_next = events
                .iter()
                .map(|f| f.t)
                .find(|&ft| ft > e.t)
                .unwrap_or(e.t + 2.0);
            let sample = 0.5 * (e.t + t_next);
            let order = self.order_at(sample);
            if snapshots.last().map(|s| &s.order) != Some(&order) {
                snapshots.push(OrderSnapshot { since: e.t, order });
            }
        }
        snapshots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reconstruction of the paper's Fig. 1 scenario: four particles, two
    /// events — particle 0 passes particle 2 at t = 1 and particle 3 passes
    /// particle 2 at t = 3 — producing exactly three distinct orders.
    pub(crate) fn fig1_system() -> ParticleSystem {
        // (a, b): p0 = (4, 1), p1 = (1, 3), p2 = (5, 2), p3 = (3.5, 1.5).
        ParticleSystem::new(&[(4.0, 1.0), (1.0, 3.0), (5.0, 2.0), (3.5, 1.5)]).unwrap()
    }

    #[test]
    fn fig1_has_exactly_two_events_at_t1_and_t3() {
        let sys = fig1_system();
        let events = sys.events();
        assert_eq!(events.len(), 2, "events: {events:?}");
        assert!((events[0].t - 1.0).abs() < 1e-12);
        assert_eq!((events[0].p, events[0].q), (0, 2));
        assert!((events[1].t - 3.0).abs() < 1e-12);
        assert_eq!((events[1].p, events[1].q), (2, 3));
    }

    #[test]
    fn fig1_order_sequence_matches_the_figure() {
        let sys = fig1_system();
        let orders = sys.orders();
        assert_eq!(orders.len(), 3);
        // Initial: (2, 0, 3, 1) — the figure's (3, 1, 4, 2) in 1-based ids.
        assert_eq!(orders[0].order, vec![2, 0, 3, 1]);
        // After t = 1: (0, 2, 3, 1).
        assert_eq!(orders[1].order, vec![0, 2, 3, 1]);
        assert!((orders[1].since - 1.0).abs() < 1e-12);
        // After t = 3: (0, 3, 2, 1).
        assert_eq!(orders[2].order, vec![0, 3, 2, 1]);
        assert!((orders[2].since - 3.0).abs() < 1e-12);
    }

    #[test]
    fn order_is_stable_between_events() {
        let sys = fig1_system();
        assert_eq!(sys.order_at(1.2), sys.order_at(2.8));
        assert_ne!(sys.order_at(0.5), sys.order_at(1.5));
    }

    #[test]
    fn equal_speeds_never_cross() {
        let sys = ParticleSystem::new(&[(5.0, 1.0), (3.0, 1.0)]).unwrap();
        assert!(sys.events().is_empty());
        assert_eq!(sys.orders().len(), 1);
    }

    #[test]
    fn simultaneous_events_coalesce() {
        // Three particles meeting pairwise at the same instant t = 1.
        let sys = ParticleSystem::new(&[(3.0, 2.0), (2.0, 1.0), (2.5, 1.5)]).unwrap();
        let events = sys.events();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| (e.t - 1.0).abs() < 1e-12));
        let orders = sys.orders();
        // Initial order plus one fully reversed order after the pile-up.
        assert_eq!(orders.len(), 2);
        assert_eq!(orders[0].order, vec![0, 2, 1]);
        assert_eq!(orders[1].order, vec![1, 2, 0]);
    }

    #[test]
    fn at_most_n_choose_2_snapshots() {
        // Random-ish system; property: #orders ≤ 1 + n(n−1)/2.
        let pairs: Vec<(f64, f64)> = (0..8)
            .map(|i| {
                let x = (i * 2654435761u64 % 97) as f64;
                (10.0 + x % 13.0, 0.5 + (x % 7.0) / 3.0)
            })
            .collect();
        let sys = ParticleSystem::new(&pairs).unwrap();
        assert!(sys.orders().len() <= 1 + 8 * 7 / 2);
    }

    #[test]
    fn validation_rejects_bad_particles() {
        assert!(ParticleSystem::new(&[]).is_err());
        assert!(ParticleSystem::new(&[(1.0, 0.0)]).is_err());
        assert!(ParticleSystem::new(&[(1.0, -2.0)]).is_err());
        assert!(ParticleSystem::new(&[(f64::NAN, 1.0)]).is_err());
    }
}
