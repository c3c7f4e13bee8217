//! The traced per-layer split of a plan request, and the scrape and
//! registration layers, each timed around the layer's public function.

use crate::check::{self, Truth};
use crate::harness::{Tally, P99};
use crate::spans::{Layer, Spans};
use crate::stats;
use coolopt_scenario::Scenario;
use coolopt_service::proto::{self, PlanReply, Reply, Request, Response};
use coolopt_service::{PlanResult, ServiceCore};
use coolopt_telemetry as telemetry;
use std::time::{Duration, Instant};

/// One generated request line.
#[derive(Debug, Clone)]
pub struct Line {
    /// Index of the target tenant in the workload's tenant list.
    pub tenant: usize,
    /// The loads it asks for.
    pub loads: Vec<f64>,
    /// The wire text, newline-terminated.
    pub text: String,
    /// Whether this line's answers are compared in depth.
    pub sampled: bool,
}

/// The wire text of a plan request for `loads` on `key`.
pub fn line_text(key: &str, loads: &[f64]) -> String {
    if let [load] = loads {
        return format!("{{\"tenant\":{key:?},\"load\":{load:?}}}\n");
    }
    let list: Vec<String> = loads.iter().map(|l| format!("{l:?}")).collect();
    format!("{{\"tenant\":{key:?},\"loads\":[{}]}}\n", list.join(","))
}

/// A registered tenant the benchmark drives: its key and its truth.
#[derive(Debug, Clone)]
pub struct Target {
    /// Registration key, `"{scenario}/{zone}"`.
    pub key: String,
    /// What the checker compares answers to.
    pub truth: Truth,
}

/// Loads every scenario file of `paths`.
pub fn load_scenarios(paths: &[&str]) -> Result<Vec<Scenario>, String> {
    paths
        .iter()
        .map(|p| Scenario::load(p).map_err(|e| format!("{p}: {e}")))
        .collect()
}

/// Registers `scenarios` in `core` and returns the targets named `keys`,
/// each with the pairs the engine was built from.
pub fn register_targets(
    core: &ServiceCore,
    scenarios: &[Scenario],
    keys: &[&str],
) -> Result<Vec<Target>, String> {
    let mut all = Vec::new();
    for scenario in scenarios {
        core.register_scenario(scenario)
            .map_err(|e| e.to_string())?;
        let parts = coolopt_service::tenant::zone_parts(scenario).map_err(|e| e.to_string())?;
        for part in parts {
            let key = format!("{}/{}", scenario.name, part.zone);
            let snapshot = core
                .get(&key)
                .and_then(|t| t.snapshot())
                .ok_or_else(|| format!("{key} has no engine"))?;
            all.push(Target {
                key,
                truth: Truth {
                    pairs: part.pairs,
                    snapshot,
                },
            });
        }
    }
    keys.iter()
        .map(|k| {
            all.iter()
                .find(|t| t.key == *k)
                .cloned()
                .ok_or_else(|| format!("no tenant {k}"))
        })
        .collect()
}

/// Checks one plan reply for `line`: the reply in full, then its answers
/// exactly against the in-process engine — every line on flat engines,
/// sampled lines on hierarchical ones (whose answers are also certified
/// separately).
pub fn verify_line(reply: &str, line: &Line, target: &Target) -> Result<Response, String> {
    let response = check::check_reply(reply, &target.key, &line.loads)?;
    if line.sampled || !target.truth.snapshot.is_hierarchical() {
        check::check_exact(&response.results, &target.truth)?;
    }
    Ok(response)
}

/// Records a [`verify_line`] verdict, and audits each plan's ON set
/// against its `t` (see [`check::check_plan`]).
pub fn record_line(
    tally: &mut Tally,
    verdict: Result<Response, String>,
    target: &Target,
) -> Option<Response> {
    match verdict {
        Ok(response) => {
            tally.record(Ok(()));
            for result in &response.results {
                if let Some(plan) = &result.plan {
                    tally.audit(check::check_plan(plan, result.load, &target.truth));
                }
            }
            Some(response)
        }
        Err(e) => {
            tally.record(Err(e));
            None
        }
    }
}

/// [`verify_line`] then [`record_line`].
pub fn check_line(
    tally: &mut Tally,
    reply: &str,
    line: &Line,
    target: &Target,
) -> Option<Response> {
    record_line(tally, verify_line(reply, line, target), target)
}

fn plan_reply(load: f64, result: PlanResult) -> PlanReply {
    match result {
        Ok(plan) => PlanReply {
            load,
            feasible: plan.is_some(),
            plan,
            error: None,
        },
        Err(e) => PlanReply {
            load,
            feasible: false,
            plan: None,
            error: Some(e.to_string()),
        },
    }
}

/// Telemetry counters read before and after a replay.
fn engine_counters() -> [u64; 5] {
    [
        telemetry::counter("coolopt_index_queries_total").get(),
        telemetry::counter("coolopt_index_eval_rows_total").get(),
        telemetry::counter("coolopt_hier_queries_total").get(),
        telemetry::counter("coolopt_hier_rows_evaluated_total").get(),
        telemetry::counter("coolopt_hier_refinements_total").get(),
    ]
}

/// Per-layer results of a request replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// `proto::handle_line` per line, untraced, µs.
    pub untraced_us: Vec<f64>,
    /// parse + route + submit + encode per line, traced, µs.
    pub traced_us: Vec<f64>,
    /// Reply bytes per line.
    pub reply_bytes: Vec<f64>,
    /// Engine rows evaluated per planned load.
    pub rows_per_query: f64,
    /// Hierarchical refinements per hierarchical query (0 with none).
    pub refinements_per_query: f64,
}

/// Replays `lines` (cycling) for `duration`, but at most `max_lines` lines
/// (and at least one), against `core`. Each line runs
/// once untraced through `proto::handle_line`, then once through the same
/// public functions `handle_line` calls, each in its own span; the plan
/// layer runs the engine on the same loads outside the request total.
pub fn replay(
    core: &ServiceCore,
    lines: &[Line],
    targets: &[Target],
    duration: Duration,
    max_lines: usize,
    spans: &mut Spans,
    tally: &mut Tally,
) -> ReplayReport {
    let mut report = ReplayReport::default();
    let before = engine_counters();
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || (i < max_lines && start.elapsed() < duration) {
        let line = &lines[i % lines.len()];
        let text = line.text.trim_end();
        let t0 = Instant::now();
        let untraced = proto::handle_line(core, text);
        report.untraced_us.push(t0.elapsed().as_secs_f64() * 1e6);

        let t0 = Instant::now();
        let request: Request = spans
            .time(Layer::Parse, || serde_json::from_str(text))
            .expect("generated lines parse");
        let mut loads = request.loads.unwrap_or_default();
        loads.extend(request.load);
        let tenant = spans
            .time(Layer::Route, || core.get(&request.tenant))
            .expect("driven tenants are registered");
        let results = spans.time(Layer::Submit, || tenant.submit(&loads));
        let traced_mid = t0.elapsed();
        if let Some(snapshot) = tenant.snapshot() {
            let _ = spans.time(Layer::Plan, || {
                if let [load] = loads[..] {
                    snapshot.query_min_power(load, None).map(|p| vec![p])
                } else {
                    snapshot.query_batch(&loads, None)
                }
            });
        }
        let t1 = Instant::now();
        let response = match results {
            Ok(results) => Response {
                tenant: request.tenant,
                ok: true,
                error: None,
                results: loads
                    .iter()
                    .zip(results)
                    .map(|(&l, r)| plan_reply(l, r))
                    .collect(),
            },
            Err(e) => Response {
                tenant: request.tenant,
                ok: false,
                error: Some(e.to_string()),
                results: Vec::new(),
            },
        };
        let encoded = spans.time(Layer::Encode, || Reply::Plan(response).encode());
        report
            .traced_us
            .push((traced_mid + t1.elapsed()).as_secs_f64() * 1e6);
        report.reply_bytes.push(encoded.len() as f64 + 1.0);

        // The traced path must be the request path: same reply bytes.
        if i < lines.len() {
            let target = &targets[line.tenant];
            let verdict = if encoded == untraced {
                verify_line(&encoded, line, target)
            } else {
                Err(format!(
                    "traced reply for {} differs from handle_line",
                    target.key
                ))
            };
            record_line(tally, verdict, target);
        }
        i += 1;
    }
    let after = engine_counters();
    let d: Vec<f64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let queries = d[0] + d[2];
    report.rows_per_query = if queries > 0.0 {
        (d[1] + d[3]) / queries
    } else {
        0.0
    };
    report.refinements_per_query = if d[2] > 0.0 { d[4] / d[2] } else { 0.0 };
    report
}

/// Scrape-layer medians, µs: `stats_doc`, `render_prometheus`,
/// `Tsdb::query_matching` over every series.
pub fn scrape_layers(core: &ServiceCore, reps: usize, spans: &mut Spans) -> [f64; 3] {
    let everything = telemetry::RangeQuery::default();
    for _ in 0..reps {
        spans.time(Layer::Stats, || core.stats_doc());
        spans.time(Layer::Metrics, telemetry::render_prometheus);
        spans.time(Layer::TsdbQuery, || {
            telemetry::tsdb().query_matching("*", &everything)
        });
    }
    [Layer::Stats, Layer::Metrics, Layer::TsdbQuery].map(|l| stats::median(&spans.durations_us(l)))
}

/// The wire scrapes, in rotation: request line and the schema its reply
/// must carry.
pub const SCRAPES: [(&str, &str); 3] = [
    ("{\"cmd\":\"stats\"}", "coolopt-service-stats-v1"),
    ("{\"cmd\":\"metrics\"}", "coolopt-service-metrics-v1"),
    (
        "{\"cmd\":\"query\",\"series\":\"coolopt_service.*\",\"limit\":64}",
        "coolopt-service-query-v1",
    ),
];

/// Runs scrape `i` (in [`SCRAPES`] rotation) through `handle_line`, checks
/// its schema, and returns its latency, µs.
pub fn scrape_once(core: &ServiceCore, i: usize, tally: &mut Tally) -> f64 {
    let (line, schema) = SCRAPES[i % SCRAPES.len()];
    let t0 = Instant::now();
    let reply = proto::handle_line(core, line);
    let us = t0.elapsed().as_secs_f64() * 1e6;
    tally.record(if reply.contains(schema) {
        Ok(())
    } else {
        Err(format!("scrape {line} answered without {schema}"))
    });
    us
}

/// Cold registration of `scenarios` into fresh cores, each timed: 21 cores
/// (enough samples for a median), or fewer once `budget` is spent.
pub fn register_layers(
    scenarios: &[Scenario],
    budget: Duration,
    spans: &mut Spans,
    tally: &mut Tally,
) {
    let start = Instant::now();
    for rep in 0..21 {
        if rep >= 2 && start.elapsed() > budget {
            break;
        }
        let core = ServiceCore::default();
        for scenario in scenarios {
            let result = spans.time(Layer::Register, || core.register_scenario(scenario));
            tally.record(result.map(|_| ()).map_err(|e| e.to_string()));
        }
    }
}

/// Perturbs every `a_i` by a relative `scale · u`, `u` uniform in ±1
/// from `seed` — a refitted model of the same room.
pub fn perturbed(pairs: &[(f64, f64)], scale: f64, seed: u64) -> Vec<(f64, f64)> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    pairs
        .iter()
        .map(|&(a, b)| (a * (1.0 + scale * (2.0 * rng.random::<f64>() - 1.0)), b))
        .collect()
}

/// p50 and p99 of a sample, in that order.
pub fn p50_p99(samples: &[f64]) -> (f64, f64) {
    (stats::pct(samples, 0.5), stats::pct(samples, P99))
}
