//! `zone_parts` streams each zone's declared machines instead of
//! collecting them. Pinned here against the collected derivation it
//! replaced: for every shipped scenario and the presets, the pairs and the
//! `PowerTerms` must be bit-identical, and the errors must be the same.

use coolopt_core::PowerTerms;
use coolopt_scenario::{presets, zone_machines, RackOptions, Scenario};
use coolopt_service::tenant::{zone_parts, ZoneParts};
use coolopt_service::ServiceError;
use std::path::PathBuf;

/// The collected derivation: every machine of a zone in one vector, then
/// the pairs and the `w1`/`w2` means from that vector.
fn oracle(scenario: &Scenario) -> Result<Vec<ZoneParts>, ServiceError> {
    let t_max = scenario.policy.planning_t_max();
    scenario
        .zones
        .iter()
        .map(|spec| {
            let machines =
                zone_machines(scenario, spec).map_err(|e| ServiceError::Scenario(e.to_string()))?;
            if machines.is_empty() {
                return Err(ServiceError::Scenario(format!(
                    "zone {:?} declares no machines",
                    spec.name
                )));
            }
            let pairs: Vec<(f64, f64)> = machines
                .iter()
                .map(|m| {
                    (
                        m.thermal.k_coefficient(t_max, &m.power),
                        m.thermal.alpha_over_beta(),
                    )
                })
                .collect();
            let n = machines.len() as f64;
            let mean_w1 = machines
                .iter()
                .map(|m| m.power.w1().as_watts())
                .sum::<f64>()
                / n;
            let mean_w2 = machines
                .iter()
                .map(|m| m.power.w2().as_watts())
                .sum::<f64>()
                / n;
            let mut terms =
                PowerTerms::unbounded(mean_w2, spec.cooling.cf_watts_per_kelvin * mean_w1);
            terms.t_cap = spec.cooling.t_ac_cap.map(|t| t.as_kelvin() / mean_w1);
            Ok(ZoneParts {
                zone: spec.name.clone(),
                pairs,
                terms,
            })
        })
        .collect()
}

fn terms_bits(t: &PowerTerms) -> (u64, u64, Option<u64>) {
    (t.w2.to_bits(), t.rho.to_bits(), t.t_cap.map(f64::to_bits))
}

fn assert_same_parts(name: &str, scenario: &Scenario) {
    let got = zone_parts(scenario).unwrap_or_else(|e| panic!("{name}: {e}"));
    let want = oracle(scenario).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(got.len(), want.len(), "{name}: zone count");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.zone, w.zone, "{name}");
        assert_eq!(g.pairs.len(), w.pairs.len(), "{name}/{}: machines", g.zone);
        for (i, (gp, wp)) in g.pairs.iter().zip(&w.pairs).enumerate() {
            assert_eq!(
                (gp.0.to_bits(), gp.1.to_bits()),
                (wp.0.to_bits(), wp.1.to_bits()),
                "{name}/{}: pair {i}",
                g.zone
            );
        }
        assert_eq!(
            terms_bits(&g.terms),
            terms_bits(&w.terms),
            "{name}/{}: terms",
            g.zone
        );
    }
}

#[test]
fn streamed_parts_equal_the_collected_derivation_bit_for_bit() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut shipped = 0;
    for entry in std::fs::read_dir(&dir).expect("scenarios/ exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let scenario = Scenario::load(&path).expect("shipped scenarios load");
        assert_same_parts(&path.display().to_string(), &scenario);
        shipped += 1;
    }
    assert!(
        shipped >= 4,
        "expected the four shipped scenarios, found {shipped}"
    );
    for seed in [0, 7] {
        assert_same_parts("testbed_rack20", &presets::testbed_rack20(seed));
        assert_same_parts("two_zone_hetero", &presets::two_zone_hetero(seed));
        assert_same_parts("large_fleet", &presets::large_fleet(5, 1003, seed));
    }
    let rack = presets::single_zone(RackOptions {
        machines: 7,
        ..RackOptions::default()
    });
    assert_same_parts("single_zone", &rack);
}

#[test]
fn unknown_classes_and_empty_zones_are_still_errors() {
    let mut scenario = presets::two_zone_hetero(0);
    scenario.zones[1].machines[0].class = "no-such-class".to_string();
    let got = zone_parts(&scenario).expect_err("unknown class");
    let want = oracle(&scenario).expect_err("unknown class");
    assert_eq!(got.to_string(), want.to_string());
    assert!(got.to_string().contains("unknown class"), "{got}");

    let mut scenario = presets::testbed_rack20(0);
    scenario.zones[0].machines.clear();
    let got = zone_parts(&scenario).expect_err("empty zone");
    assert_eq!(got.to_string(), oracle(&scenario).unwrap_err().to_string());
}
