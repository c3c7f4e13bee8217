//! Output checks: every plan reply is parsed and checked against what the
//! request asked for, and sampled answers against an in-process answer.

use coolopt_bench::oracle_min_power;
use coolopt_core::{Consolidation, IndexSnapshot, PowerTerms};
use coolopt_service::proto::{PlanReply, Response};
use std::sync::Arc;

/// What the checker knows about one tenant: its consolidation pairs and
/// an engine built in this process from the same inputs as the server's.
#[derive(Debug, Clone)]
pub struct Truth {
    /// Per-machine `(a_i, b_i)` pairs.
    pub pairs: Vec<(f64, f64)>,
    /// The in-process engine for the same pairs and terms.
    pub snapshot: Arc<IndexSnapshot>,
}

impl Truth {
    /// Builds the in-process engine for `pairs` and `terms`.
    pub fn new(pairs: Vec<(f64, f64)>, terms: PowerTerms) -> Self {
        let snapshot = IndexSnapshot::for_parts(&pairs, terms).expect("shipped models are valid");
        Truth { pairs, snapshot }
    }

    fn terms(&self) -> &PowerTerms {
        self.snapshot.terms()
    }
}

/// Relative closeness for values recomputed in another summation order.
fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()))
}

/// Parses one plan reply line and checks it answers the request: `ok`,
/// the echoed tenant, one result per requested load (bit-equal loads), a
/// feasibility flag that agrees with the plan, and no per-load error.
pub fn check_reply(line: &str, tenant: &str, loads: &[f64]) -> Result<Response, String> {
    let response: Response =
        serde_json::from_str(line).map_err(|e| format!("reply does not parse: {e}"))?;
    if !response.ok {
        return Err(format!("ok:false ({:?})", response.error));
    }
    if response.tenant != tenant {
        return Err(format!("tenant echo {:?} != {tenant:?}", response.tenant));
    }
    if response.results.len() != loads.len() {
        return Err(format!(
            "{} results for {} loads",
            response.results.len(),
            loads.len()
        ));
    }
    for (reply, &load) in response.results.iter().zip(loads) {
        if reply.load.to_bits() != load.to_bits() {
            return Err(format!("load echo {} != {load}", reply.load));
        }
        if let Some(error) = &reply.error {
            return Err(format!("load {load}: {error}"));
        }
        if reply.plan.is_some() != reply.feasible {
            return Err(format!("load {load}: feasible flag disagrees with plan"));
        }
    }
    Ok(response)
}

/// Audits one plan against the tenant's model: `k` distinct in-range ON
/// machines, and `t` and `relative_power` equal to what that ON set gives
/// (`t = (Σa − L)/Σb`, Eq. 23 for the power). The flat engine at this
/// commit fails it for a few loads per rack (its ON set and its `t` come
/// from different subsets), so audit failures are counted and reported
/// apart from wrong answers; see the README's known defects.
pub fn check_plan(plan: &Consolidation, load: f64, truth: &Truth) -> Result<(), String> {
    let n = truth.pairs.len();
    if plan.on.len() != plan.k || plan.k == 0 {
        return Err(format!(
            "load {load}: k = {} with {} ON",
            plan.k,
            plan.on.len()
        ));
    }
    let mut on = plan.on.clone();
    on.sort_unstable();
    on.dedup();
    if on.len() != plan.k || on.last().is_some_and(|&i| i >= n) {
        return Err(format!("load {load}: ON set repeats or leaves the room"));
    }
    let (sum_a, sum_b) = on.iter().fold((0.0, 0.0), |(a, b), &i| {
        (a + truth.pairs[i].0, b + truth.pairs[i].1)
    });
    let t = (sum_a - load) / sum_b;
    if !close(t, plan.t) {
        return Err(format!(
            "load {load}: t = {} but the ON set gives {t}",
            plan.t
        ));
    }
    let power = truth.terms().relative_power(plan.k, plan.t);
    if !close(power, plan.relative_power) {
        return Err(format!(
            "load {load}: relative_power {} but Eq. 23 gives {power}",
            plan.relative_power
        ));
    }
    Ok(())
}

/// The served answers must equal the in-process engine's for the same
/// loads exactly: same `on`, same `k`, bit-equal `t` and power.
pub fn check_exact(replies: &[PlanReply], truth: &Truth) -> Result<(), String> {
    let loads: Vec<f64> = replies.iter().map(|r| r.load).collect();
    let expected = truth
        .snapshot
        .query_batch(&loads, None)
        .map_err(|e| e.to_string())?;
    for (reply, want) in replies.iter().zip(&expected) {
        let same = match (&reply.plan, want) {
            (None, None) => true,
            (Some(got), Some(want)) => {
                got.on == want.on
                    && got.k == want.k
                    && got.t.to_bits() == want.t.to_bits()
                    && got.relative_power.to_bits() == want.relative_power.to_bits()
            }
            _ => false,
        };
        if !same {
            return Err(format!(
                "load {}: served plan differs from the in-process answer",
                reply.load
            ));
        }
    }
    Ok(())
}

/// Hierarchical engines: the served plan's power may exceed the
/// Dinkelbach oracle's optimum by at most the engine's declared
/// certificate for that load.
pub fn check_certified(reply: &PlanReply, truth: &Truth) -> Result<(), String> {
    let hier = truth
        .snapshot
        .hier()
        .ok_or("certificate check needs a hierarchical engine")?;
    let certified = hier
        .query_min_power_bounded(truth.terms(), reply.load, None)
        .map_err(|e| e.to_string())?;
    let hint = reply.plan.as_ref().map(|p| p.k);
    let oracle = oracle_min_power(&truth.pairs, truth.terms(), reply.load, hint);
    match (&reply.plan, certified, oracle) {
        (None, None, None) => Ok(()),
        (Some(plan), Some((_, bound)), Some((_, best))) => {
            let error = plan.relative_power - best;
            if error <= bound + 1e-9 * best.abs().max(1.0) {
                Ok(())
            } else {
                Err(format!(
                    "load {}: {error} W above the oracle, certificate {bound} W",
                    reply.load
                ))
            }
        }
        _ => Err(format!(
            "load {}: feasibility disagrees with the oracle",
            reply.load
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolopt_service::{proto, ServiceCore};

    fn served(loads: &[f64]) -> (String, Truth) {
        let pairs = coolopt_bench::synthetic_pairs(20, 7);
        let terms = PowerTerms::unbounded(40.0, 150.0 * 45.0);
        let core = ServiceCore::default();
        core.register_parts("room", &pairs, terms).unwrap();
        let list: Vec<String> = loads.iter().map(|l| format!("{l:?}")).collect();
        let line = format!("{{\"tenant\":\"room\",\"loads\":[{}]}}", list.join(","));
        (proto::handle_line(&core, &line), Truth::new(pairs, terms))
    }

    #[test]
    fn a_served_reply_passes_every_check() {
        let loads = [2.5, 7.25, 13.0];
        let (reply, truth) = served(&loads);
        let response = check_reply(&reply, "room", &loads).unwrap();
        check_exact(&response.results, &truth).unwrap();
        for result in &response.results {
            check_plan(result.plan.as_ref().unwrap(), result.load, &truth).unwrap();
        }
    }

    #[test]
    fn a_doctored_plan_is_rejected() {
        let loads = [2.5, 7.25, 13.0];
        let (reply, truth) = served(&loads);
        let response = check_reply(&reply, "room", &loads).unwrap();
        let doctored = |edit: &dyn Fn(&mut Consolidation)| {
            let mut copy = response.clone();
            edit(copy.results[1].plan.as_mut().unwrap());
            let line = serde_json::to_string(&copy).unwrap();
            let parsed = check_reply(&line, "room", &loads).unwrap();
            (
                check_exact(&parsed.results, &truth),
                parsed.results[1].clone(),
            )
        };

        // Swap one ON machine for an OFF one.
        let on = response.results[1].plan.as_ref().unwrap().on.clone();
        let off = (0..20).find(|i| !on.contains(i)).unwrap();
        let (verdict, swapped) = doctored(&|p| p.on[0] = off);
        assert!(verdict.is_err());
        assert!(check_plan(swapped.plan.as_ref().unwrap(), 7.25, &truth).is_err());
        // Nudge t in its last digits, or report another load's plan.
        let (verdict, nudged) = doctored(&|p| p.t *= 1.0 + 1e-12);
        assert!(verdict.is_err());
        assert!(check_plan(nudged.plan.as_ref().unwrap(), 7.25, &truth).is_ok());
        let other = response.results[2].plan.clone().unwrap();
        assert!(doctored(&|p| *p = other.clone()).0.is_err());
        // Claim the plan for a k it does not have.
        assert!(doctored(&|p| p.k += 1).0.is_err());

        // A dropped result, an ok:false, a wrong echo or a broken line fail
        // the reply itself.
        let mut short = response.clone();
        short.results.pop();
        let line = serde_json::to_string(&short).unwrap();
        assert!(check_reply(&line, "room", &loads).is_err());
        let refused = reply.replacen("\"ok\":true", "\"ok\":false", 1);
        assert!(check_reply(&refused, "room", &loads).is_err());
        assert!(check_reply(&reply, "other", &loads).is_err());
        assert!(check_reply("{not json", "room", &loads).is_err());
    }

    #[test]
    fn certificate_check_accepts_the_served_answer_and_rejects_a_worse_one() {
        let pairs = coolopt_bench::clustered_fleet(8, 4000, 3);
        let terms = PowerTerms::unbounded(40.0, 150.0 * 45.0);
        let truth = Truth::new(pairs, terms);
        assert!(truth.snapshot.is_hierarchical());
        let load = 1234.5;
        let plan = truth.snapshot.query_min_power(load, None).unwrap();
        let mut reply = PlanReply {
            load,
            feasible: plan.is_some(),
            plan,
            error: None,
        };
        check_certified(&reply, &truth).unwrap();
        reply.plan.as_mut().unwrap().relative_power += 1e6;
        assert!(check_certified(&reply, &truth).is_err());
    }
}
