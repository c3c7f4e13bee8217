//! The plan-reply wire form: the direct writer behind `Reply::encode` is
//! byte-identical to the hand-written `Serialize` of `PlanReply`, the run
//! form of `on` decodes losslessly and is never longer than the plain
//! list, and `serve_lines` answers every line with exactly one write.

use coolopt_core::Consolidation;
use coolopt_scenario::{presets, Scenario};
use coolopt_service::proto::{self, PlanReply, Reply, Response};
use coolopt_service::ServiceCore;
use proptest::prelude::*;
use proptest::TestRng;
use std::io::{Cursor, Write};

/// Indices stay below this bound.
const MAX_INDEX: u64 = 1_000_000;

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// NaN, ±∞, ±0.0, round numbers and arbitrary bit patterns.
fn any_f64(rng: &mut TestRng) -> f64 {
    match below(rng, 8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => below(rng, 1000) as f64,
        5 => f64::from_bits(rng.next_u64()),
        _ => (rng.unit_f64() - 0.5) * 10f64.powi(below(rng, 40) as i32 - 20),
    }
}

/// Strings mixing plain text with every character the writer escapes.
fn any_string(rng: &mut TestRng) -> String {
    const POOL: [char; 14] = [
        'a', 'Z', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '😀',
    ];
    (0..below(rng, 12))
        .map(|_| POOL[below(rng, POOL.len() as u64) as usize])
        .collect()
}

/// ON sets in any order: ascending and descending runs, lone indices,
/// duplicates, and empty sets.
fn any_on(rng: &mut TestRng) -> Vec<usize> {
    let mut on: Vec<usize> = Vec::new();
    for _ in 0..below(rng, 8) {
        let longest = if below(rng, 2) == 0 { 6 } else { 40 };
        let len = 1 + below(rng, longest);
        let start = if below(rng, 3) == 0 {
            // Straddle a power of ten, where the digit count changes.
            10u64
                .pow(1 + below(rng, 5) as u32)
                .saturating_sub(1 + below(rng, len))
        } else {
            below(rng, MAX_INDEX - len)
        };
        match below(rng, 5) {
            0 => on.extend((start..start + len).map(|i| i as usize)),
            1 => on.extend((start..start + len).rev().map(|i| i as usize)),
            2 => on.extend(on.last().copied()),
            3 => on.push(below(rng, 10) as usize),
            _ => on.push(start as usize),
        }
    }
    on
}

fn any_plan(rng: &mut TestRng) -> Consolidation {
    let on = any_on(rng);
    Consolidation {
        k: if below(rng, 4) == 0 {
            below(rng, MAX_INDEX) as usize
        } else {
            on.len()
        },
        on,
        t: any_f64(rng),
        relative_power: any_f64(rng),
    }
}

fn any_option<T>(rng: &mut TestRng, f: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    (below(rng, 3) != 0).then(|| f(rng))
}

/// Arbitrary [`Consolidation`]s.
struct AnyPlan;

impl Strategy for AnyPlan {
    type Value = Consolidation;

    fn generate(&self, rng: &mut TestRng) -> Consolidation {
        any_plan(rng)
    }
}

/// Arbitrary [`Response`]s, planned or refused.
struct AnyResponse;

impl Strategy for AnyResponse {
    type Value = Response;

    fn generate(&self, rng: &mut TestRng) -> Response {
        let results = (0..below(rng, 5))
            .map(|_| PlanReply {
                load: any_f64(rng),
                feasible: below(rng, 2) == 0,
                plan: any_option(rng, any_plan),
                error: any_option(rng, any_string),
            })
            .collect();
        Response {
            tenant: any_string(rng),
            ok: below(rng, 2) == 0,
            error: any_option(rng, any_string),
            results,
        }
    }
}

/// Float equality through the wire: same bits, or non-finite written as
/// `null` and read back as NaN.
fn same_f64(sent: f64, got: f64) -> bool {
    sent.to_bits() == got.to_bits() || (!sent.is_finite() && got.is_nan())
}

fn same_response(sent: &Response, got: &Response) -> bool {
    sent.tenant == got.tenant
        && sent.ok == got.ok
        && sent.error == got.error
        && sent.results.len() == got.results.len()
        && sent.results.iter().zip(&got.results).all(|(s, g)| {
            same_f64(s.load, g.load)
                && s.feasible == g.feasible
                && s.error == g.error
                && match (&s.plan, &g.plan) {
                    (None, None) => true,
                    (Some(s), Some(g)) => {
                        s.on == g.on
                            && s.k == g.k
                            && same_f64(s.t, g.t)
                            && same_f64(s.relative_power, g.relative_power)
                    }
                    _ => false,
                }
        })
}

/// One plan reply in the run form and with `on` as a plain index list
/// (what `Consolidation`'s own derive writes).
fn run_and_plain(plan: &Consolidation) -> (String, String) {
    let reply = PlanReply {
        load: 1.0,
        feasible: true,
        plan: Some(plan.clone()),
        error: None,
    };
    let runs = serde_json::to_string(&reply).unwrap();
    let plain = format!(
        "{{\"load\":1.0,\"feasible\":true,\"plan\":{},\"error\":null}}",
        serde_json::to_string(plan).unwrap()
    );
    (runs, plain)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn direct_writer_matches_serialize_and_round_trips(response in AnyResponse) {
        let encoded = Reply::Plan(response.clone()).encode();
        prop_assert_eq!(&encoded, &serde_json::to_string(&response).unwrap());
        let decoded: Response = serde_json::from_str(&encoded).unwrap();
        prop_assert!(
            same_response(&response, &decoded),
            "{response:?} -> {encoded} -> {decoded:?}"
        );
    }

    #[test]
    fn run_form_is_never_longer_than_the_plain_list(plan in AnyPlan) {
        let (runs, plain) = run_and_plain(&plan);
        prop_assert!(runs.len() <= plain.len(), "{runs} longer than {plain}");
        // An old plain-list document still decodes to the same plan.
        let old: PlanReply = serde_json::from_str(&plain).unwrap();
        prop_assert_eq!(&old.plan.unwrap().on, &plan.on);
    }
}

#[test]
fn runs_of_four_or_more_become_pairs_in_engine_order() {
    let plan = Consolidation {
        on: vec![
            9, 10, 11, 12, 3, 4, 5, 7, 7, 100, 99, 98, 97, 20, 21, 22, 23, 24,
        ],
        k: 18,
        t: 0.5,
        relative_power: -1.0,
    };
    let (runs, _) = run_and_plain(&plan);
    assert!(
        runs.contains("\"on\":[[9,13],3,4,5,7,7,100,99,98,97,[20,25]]"),
        "{runs}"
    );
    let decoded: PlanReply = serde_json::from_str(&runs).unwrap();
    assert_eq!(decoded.plan.unwrap().on, plan.on);

    // A run ending at the largest index still has a representable end.
    let top = Consolidation {
        on: ((usize::MAX - 5)..=usize::MAX).collect(),
        ..plan
    };
    let (runs, _) = run_and_plain(&top);
    let decoded: PlanReply = serde_json::from_str(&runs).unwrap();
    assert_eq!(decoded.plan.unwrap().on, top.on);
}

#[test]
fn malformed_runs_are_rejected() {
    let huge = format!("[[0,{}]]", u64::MAX);
    for on in ["[[5,3]]", "[[1,2,3]]", "[[1]]", "[-1]", "[\"4\"]", &huge] {
        let line = format!(
            "{{\"load\":1.0,\"feasible\":true,\"plan\":{{\"on\":{on},\"k\":1,\"t\":0.0,\
             \"relative_power\":0.0}}}}"
        );
        assert!(serde_json::from_str::<PlanReply>(&line).is_err(), "{on}");
    }
}

/// A 50 %-load fleet_10k reply fits in 1 KiB and decodes to the engine's
/// own ON set, element for element.
#[test]
fn fleet_10k_reply_is_under_a_kibibyte_and_decodes_to_the_engine_answer() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/fleet_10k.json"
    );
    let scenario = Scenario::load(path).expect("shipped scenario loads");
    let core = ServiceCore::default();
    core.register_scenario(&scenario).unwrap();
    let load = 5000.0;
    let line = proto::handle_line(&core, r#"{"tenant":"fleet_10k/hall","load":5000.0}"#);
    assert!(line.len() + 1 < 1024, "{} B: {line}", line.len() + 1);
    let response: Response = serde_json::from_str(&line).unwrap();
    let served = response.results[0].plan.as_ref().expect("feasible");
    let snapshot = core.get("fleet_10k/hall").unwrap().snapshot().unwrap();
    let want = snapshot.query_min_power(load, None).unwrap().unwrap();
    assert_eq!(served.on, want.on);
    assert_eq!(served.k, want.on.len());
}

/// Counts `write` calls and keeps what was written.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn rack_core() -> ServiceCore {
    let core = ServiceCore::default();
    core.register_scenario(&presets::testbed_rack20(0)).unwrap();
    core
}

fn serve(core: &ServiceCore, input: &[u8]) -> CountingWriter {
    let mut out = CountingWriter::default();
    proto::serve_lines(core, Cursor::new(input), &mut out).unwrap();
    out
}

#[test]
fn serve_lines_writes_each_reply_once() {
    let core = rack_core();
    let input = b"{\"tenant\":\"testbed_rack20/rack\",\"loads\":[1.0,9.0,14.5]}\n\
                  \n\
                  {\"cmd\":\"stats\"}\r\n\
                  {\"tenant\":\"testbed_rack20/rack\",\"load\":3.0}";
    let out = serve(&core, input);
    let text = String::from_utf8(out.bytes).unwrap();
    let replies: Vec<&str> = text.lines().collect();
    assert_eq!(replies.len(), 3, "{text}");
    assert_eq!(out.writes, 3, "one write per reply");
    assert!(text.ends_with('\n'));
    assert!(replies[1].contains("coolopt-service-stats-v1"));
}

#[test]
fn invalid_utf8_is_answered_and_serving_goes_on() {
    let core = rack_core();
    let mut input = b"{\"tenant\":\"testbed_rack20/rack\",\"load\":2.0}\n".to_vec();
    input.extend_from_slice(b"{\"tenant\":\"\xff\xfe\",\"load\":2.0}\n");
    input.extend_from_slice(b"{\"tenant\":\"testbed_rack20/rack\",\"load\":4.0}\n");
    let out = serve(&core, &input);
    let text = String::from_utf8(out.bytes).unwrap();
    let replies: Vec<Response> = text
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(replies.len(), 3, "{text}");
    assert!(replies[0].ok && replies[2].ok);
    assert!(!replies[1].ok);
    assert_eq!(
        replies[1].error.as_deref(),
        Some("malformed request: invalid UTF-8")
    );
}

#[test]
fn deeply_nested_line_is_refused_and_serving_goes_on() {
    let core = rack_core();
    let mut input = "[".repeat(100_000).into_bytes();
    input.push(b'\n');
    input.extend_from_slice(b"{\"tenant\":\"testbed_rack20/rack\",\"load\":4.0}\n");
    let out = serve(&core, &input);
    let text = String::from_utf8(out.bytes).unwrap();
    let replies: Vec<Response> = text
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(replies.len(), 2, "{text}");
    assert!(!replies[0].ok);
    let error = replies[0].error.as_deref().unwrap_or_default();
    assert!(error.contains("recursion limit"), "{error}");
    assert!(replies[1].ok, "{text}");
}
