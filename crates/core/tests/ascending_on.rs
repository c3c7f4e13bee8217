//! The answer form of both engines: every `Consolidation` lists `on`
//! strictly ascending with `len == k`, whichever query produced it —
//! exact, batched, online, budget search, coreset or capacity-aware — and
//! a batched answer equals the single answer for the same load.

use coolopt_core::{Consolidation, ConsolidationIndex, HierConfig, HierIndex, PowerTerms};
use coolopt_model::{CoolingModel, PowerModel, RoomModel, ThermalModel};
use coolopt_units::{Temperature, Watts};
use proptest::prelude::*;
use std::ops::Range;

/// A room of 2–4 machine classes interleaved by machine index, each
/// machine jittered around its class by up to `jit` (relative), so the
/// hierarchical engine's clusters are non-contiguous and carry a radius.
fn room(machines: Range<usize>) -> impl Strategy<Value = RoomModel> {
    let classes = prop::collection::vec((0.75f64..0.95, 0.4f64..0.6, 0.0f64..4.0), 2..5);
    (classes, machines, 0.0f64..1e-3, 0u64..u64::MAX).prop_map(|(classes, n, jit, salt)| {
        let mut h = salt;
        let thermal = (0..n)
            .map(|i| {
                let (alpha, beta, warm) = classes[i % classes.len()];
                h = h
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                let alpha = alpha * (1.0 + jit * u);
                let beta = beta * (1.0 - jit * u);
                ThermalModel::new(alpha, beta, 290.0 + warm - alpha * 290.0).unwrap()
            })
            .collect();
        let power = PowerModel::new(Watts::new(45.0), Watts::new(40.0)).unwrap();
        let cooling = CoolingModel::new(1000.0, Temperature::from_celsius(45.0)).unwrap();
        RoomModel::new(power, thermal, cooling, Temperature::from_celsius(70.0))
            .unwrap()
            .with_t_ac_max(Temperature::from_celsius(20.0))
    })
}

fn assert_answer_form(c: &Consolidation, n: usize, what: &str) {
    assert_eq!(c.on.len(), c.k, "{what}: on and k disagree");
    assert!(
        c.on.windows(2).all(|w| w[0] < w[1]),
        "{what}: on is not strictly ascending: {:?}",
        c.on
    );
    assert!(
        c.on.last().is_none_or(|&i| i < n),
        "{what}: machine out of range"
    );
}

/// Single and batched exact answers at `loads`, with and without the
/// capacity model, through one engine's query functions.
fn assert_exact_answers(
    n: usize,
    loads: &[f64],
    model: &RoomModel,
    single: impl Fn(f64, Option<&RoomModel>) -> Option<Consolidation>,
    batch: impl Fn(&[f64], Option<&RoomModel>) -> Vec<Option<Consolidation>>,
    what: &str,
) {
    for capacity in [None, Some(model)] {
        let batched = batch(loads, capacity);
        for (&load, b) in loads.iter().zip(&batched) {
            let s = single(load, capacity);
            assert_eq!(b, &s, "{what}: batch differs from single at load {load}");
            if let Some(c) = &s {
                assert_answer_form(c, n, what);
            }
        }
    }
}

/// Loads at the given fractions of the fleet's capacity, with a
/// duplicate so the batched paths clone an answer too.
fn loads_of(fractions: &[f64], n: usize) -> Vec<f64> {
    let mut loads: Vec<f64> = fractions.iter().map(|f| f * n as f64).collect();
    loads.push(loads[0]);
    loads
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn flat_answers_are_ascending(
        model in room(1..65),
        fractions in prop::collection::vec(0.0f64..1.0, 1..6),
    ) {
        let pairs = model.consolidation_pairs();
        let n = pairs.len();
        let terms = PowerTerms::from_model(&model);
        let index = ConsolidationIndex::build(&pairs).unwrap();
        let loads = loads_of(&fractions, n);
        assert_exact_answers(
            n,
            &loads,
            &model,
            |load, cap| index.query_min_power(&terms, load, cap).unwrap(),
            |loads, cap| index.query_batch(&terms, loads, cap).unwrap(),
            "flat",
        );
        for &load in &loads {
            if let Some(c) = index.query_online(load) {
                assert_answer_form(&c, n, "flat online");
            }
            if let Some(c) = index.query_budget_search(&terms, load) {
                assert_answer_form(&c, n, "flat budget search");
            }
        }
    }

    #[test]
    fn hier_answers_are_ascending(
        model in room(40..400),
        fractions in prop::collection::vec(0.0f64..1.0, 1..6),
    ) {
        let pairs = model.consolidation_pairs();
        let n = pairs.len();
        let terms = PowerTerms::from_model(&model);
        let loads = loads_of(&fractions, n);
        let config = HierConfig::auto(&pairs);
        for (config, what) in [(config, "hier refined"), (config.coreset(), "hier coreset")] {
            let hier = HierIndex::build(&pairs, config).unwrap();
            assert_exact_answers(
                n,
                &loads,
                &model,
                |load, cap| hier.query_min_power(&terms, load, cap).unwrap(),
                |loads, cap| hier.query_batch(&terms, loads, cap).unwrap(),
                what,
            );
            for &load in &loads {
                if let Some(c) = hier.query_online(load) {
                    assert_answer_form(&c, n, "hier online");
                }
            }
        }
    }
}
