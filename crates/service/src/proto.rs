//! Line-delimited JSON wire protocol for `coolopt-serve`.
//!
//! One request per line, one response line per request:
//!
//! ```json
//! {"tenant": "testbed_rack20/rack", "load": 12.0}
//! {"tenant": "testbed_rack20/rack", "loads": [1.0, 2.5, 14.0]}
//! {"cmd": "stats"}
//! {"cmd": "metrics"}
//! ```
//!
//! A tenant may be addressed by its registration key
//! (`"{scenario name}/{zone name}"`) or by its content-hash alias
//! (`"{content_hash}/{zone name}"`). Responses echo the tenant and carry
//! one [`PlanReply`] per requested load; service-level failures (unknown
//! tenant, shed by backpressure, malformed request or a line that is not
//! UTF-8) set `ok = false` with a human-readable `error` and no results.
//!
//! A plan's `on` set travels **run-length encoded**: each element is
//! either one machine index or a half-open pair `[start, end]` standing
//! for `start, start+1, …, end-1`. Every ascending stretch of four or more
//! consecutive indices is written as a pair (four is the shortest run
//! whose pair is never longer than the plain list). The engines list `on`
//! ascending, so a plan's runs are ascending and disjoint:
//!
//! ```json
//! {"tenant":"fleet_10k/hall","ok":true,"error":null,"results":[{"load":5000.0,
//!  "feasible":true,"plan":{"on":[[1668,2502],[2919,4587],[5004,5421],[6255,7088],
//!  [7504,7920],[8336,8752],[9584,10000]],"k":5000,"t":6.312693541302276,
//!  "relative_power":-155447568.26148757},"error":null}]}
//! ```
//!
//! Decoding is lossless for any order, duplicates included, and a plain
//! list of indices is still a valid `on`.
//!
//! The observability plane is in-protocol: `{"cmd": "stats"}` answers one
//! [`ServiceStatsDoc`] line (schema `coolopt-service-stats-v1` — per-tenant
//! windowed quantiles, SLO verdicts, burn rates), `{"cmd": "metrics"}`
//! answers a [`MetricsReply`] wrapping the Prometheus text exposition,
//! `{"cmd": "query"}` answers a [`QueryReply`] of compressed metric
//! *history* from the embedded time-series store (series selection by
//! exact name or `prefix*`, optional `start_ms`/`end_ms` window, optional
//! `step_ms` + `agg` alignment), and `{"cmd": "trace"}` ships the newest
//! flight-recorder spans as an embedded Chrome-trace fragment (bounded by
//! `limit`). All are safe concurrent with planning traffic,
//! re-registration and eviction — no scrape ever blocks a batch.

use crate::core::ServiceCore;
use crate::stats::ServiceStatsDoc;
use crate::{PlanResult, ServiceError};
use coolopt_core::Consolidation;
use coolopt_telemetry as telemetry;
use coolopt_telemetry::{Agg, RangeQuery};
use serde::{Deserialize, Error, Serialize, Value};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One wire request: a planning submission (a single `load`, a burst of
/// `loads`, or both — the single load is planned after the burst), or an
/// observability command (`"cmd": "stats"` / `"cmd": "metrics"` /
/// `"cmd": "query"` / `"cmd": "trace"`, which need no tenant).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Command selector: absent or `"plan"` plans loads; `"stats"`,
    /// `"metrics"`, `"query"` and `"trace"` scrape the observability
    /// plane.
    #[serde(default)]
    pub cmd: Option<String>,
    /// Tenant key or content-hash alias (planning requests only).
    #[serde(default)]
    pub tenant: String,
    /// A single load to plan.
    #[serde(default)]
    pub load: Option<f64>,
    /// A burst of loads to plan as one submission.
    #[serde(default)]
    pub loads: Option<Vec<f64>>,
    /// `query` only: series selector — exact name, `prefix*`, or absent /
    /// `"*"` for every series.
    #[serde(default)]
    pub series: Option<String>,
    /// `query` only: oldest timestamp to include (ms; unbounded when
    /// absent).
    #[serde(default)]
    pub start_ms: Option<i64>,
    /// `query` only: newest timestamp to include (ms; unbounded when
    /// absent).
    #[serde(default)]
    pub end_ms: Option<i64>,
    /// `query` only: step alignment in ms (absent or `<= 0` returns raw
    /// points).
    #[serde(default)]
    pub step_ms: Option<i64>,
    /// `query` only: bucket aggregator — `"min"`, `"max"`, `"mean"`
    /// (default) or `"last"`.
    #[serde(default)]
    pub agg: Option<String>,
    /// `query`: newest points kept per series (default 2048).
    /// `trace`: newest records shipped (default 256). Clamped to 4096.
    #[serde(default)]
    pub limit: Option<usize>,
}

/// The answer for one requested load. Its (de)serialization is written by
/// hand so that the plan's `on` set takes the run form of the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReply {
    /// The load as requested.
    pub load: f64,
    /// Whether any machine subset can carry the load (`plan` is present
    /// exactly when this is `true`).
    pub feasible: bool,
    /// The minimum-power consolidation, when feasible (may be absent).
    pub plan: Option<Consolidation>,
    /// Engine-level rejection for this load (e.g. negative or non-finite),
    /// mirroring the sequential error text (may be absent).
    pub error: Option<String>,
}

impl PlanReply {
    fn from_result(load: f64, result: PlanResult) -> Self {
        match result {
            Ok(Some(plan)) => PlanReply {
                load,
                feasible: true,
                plan: Some(plan),
                error: None,
            },
            Ok(None) => PlanReply {
                load,
                feasible: false,
                plan: None,
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
}

/// Shortest ascending stretch of `on` written as a `[start, end]` pair:
/// four is the shortest run whose pair is never longer than the plain list.
const MIN_RUN: usize = 4;

/// One element of the run-length `on` array.
#[derive(Debug, Clone, Copy)]
enum Run {
    /// A single machine index.
    One(usize),
    /// The half-open index range `start..end`.
    Span(usize, usize),
}

/// Splits `on` into its wire elements, in order: a [`Run::Span`] for every
/// maximal stretch of [`MIN_RUN`] or more consecutive ascending indices, a
/// [`Run::One`] for everything else.
fn runs(on: &[usize]) -> impl Iterator<Item = Run> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        let start = *on.get(i)?;
        let mut len = 1;
        // `next < usize::MAX` keeps the exclusive end representable.
        while let Some(&next) = on.get(i + len) {
            if start.checked_add(len) != Some(next) || next == usize::MAX {
                break;
            }
            len += 1;
        }
        if len >= MIN_RUN {
            i += len;
            Some(Run::Span(start, start + len))
        } else {
            i += 1;
            Some(Run::One(start))
        }
    })
}

fn plan_to_value(plan: &Consolidation) -> Value {
    let on = runs(&plan.on)
        .map(|run| match run {
            Run::One(i) => i.to_value(),
            Run::Span(start, end) => Value::Array(vec![start.to_value(), end.to_value()]),
        })
        .collect();
    Value::Object(vec![
        ("on".to_string(), Value::Array(on)),
        ("k".to_string(), plan.k.to_value()),
        ("t".to_string(), plan.t.to_value()),
        ("relative_power".to_string(), plan.relative_power.to_value()),
    ])
}

/// Most machines a decoded `on` may expand to, so that a hostile or
/// corrupt `[start, end]` pair cannot make a reader allocate without bound.
const MAX_ON_LEN: usize = 1 << 24;

fn on_from_value(value: &Value) -> Result<Vec<usize>, Error> {
    let items = value
        .as_array()
        .ok_or_else(|| Error::invalid_type("array", value))?;
    let mut on = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Value::Array(_) => {
                let (start, end) = <(usize, usize)>::from_value(item)?;
                if end < start || end - start > MAX_ON_LEN.saturating_sub(on.len()) {
                    return Err(Error::custom(format!(
                        "`on` run [{start}, {end}] is reversed or expands past \
                         {MAX_ON_LEN} machines"
                    )));
                }
                on.extend(start..end);
            }
            index => on.push(usize::from_value(index)?),
        }
    }
    Ok(on)
}

fn required<'a>(fields: &'a [(String, Value)], ty: &str, name: &str) -> Result<&'a Value, Error> {
    serde::get_field(fields, name).ok_or_else(|| Error::missing_field(ty, name))
}

fn plan_from_value(value: &Value) -> Result<Consolidation, Error> {
    let fields = value
        .as_object()
        .ok_or_else(|| Error::invalid_type("object", value))?;
    let field = |name| required(fields, "Consolidation", name);
    Ok(Consolidation {
        on: on_from_value(field("on")?)?,
        k: Deserialize::from_value(field("k")?)?,
        t: Deserialize::from_value(field("t")?)?,
        relative_power: Deserialize::from_value(field("relative_power")?)?,
    })
}

impl Serialize for PlanReply {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("load".to_string(), self.load.to_value()),
            ("feasible".to_string(), self.feasible.to_value()),
            (
                "plan".to_string(),
                self.plan.as_ref().map_or(Value::Null, plan_to_value),
            ),
            ("error".to_string(), self.error.to_value()),
        ])
    }
}

impl Deserialize for PlanReply {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let fields = value
            .as_object()
            .ok_or_else(|| Error::invalid_type("object", value))?;
        let optional = |name| serde::get_field(fields, name).unwrap_or(&Value::Null);
        Ok(PlanReply {
            load: Deserialize::from_value(required(fields, "PlanReply", "load")?)?,
            feasible: Deserialize::from_value(required(fields, "PlanReply", "feasible")?)?,
            plan: match optional("plan") {
                Value::Null => None,
                plan => Some(plan_from_value(plan)?),
            },
            error: Deserialize::from_value(optional("error"))?,
        })
    }
}

/// One wire response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Echo of the requested tenant (empty when the request line did not
    /// even parse).
    pub tenant: String,
    /// Whether the submission was served. Per-load failures (an
    /// infeasible or rejected load) still count as served; `false` means
    /// the service refused the submission as a whole.
    pub ok: bool,
    /// Service-level failure, when `ok` is `false`.
    #[serde(default)]
    pub error: Option<String>,
    /// One reply per requested load, in request order.
    #[serde(default)]
    pub results: Vec<PlanReply>,
}

impl Response {
    fn refused(tenant: &str, error: &ServiceError) -> Self {
        Response {
            tenant: tenant.to_string(),
            ok: false,
            error: Some(error.to_string()),
            results: Vec::new(),
        }
    }

    /// A request line that could not be read as a request.
    fn malformed(what: impl std::fmt::Display) -> Self {
        Response {
            tenant: String::new(),
            ok: false,
            error: Some(format!("malformed request: {what}")),
            results: Vec::new(),
        }
    }
}

/// Schema tag stamped on every [`MetricsReply`].
pub const METRICS_REPLY_SCHEMA: &str = "coolopt-service-metrics-v1";

/// The `{"cmd": "metrics"}` answer: Prometheus text exposition wrapped in
/// one JSON line (empty exposition without the `telemetry` feature).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReply {
    /// Always [`METRICS_REPLY_SCHEMA`].
    pub schema: String,
    /// Whether the metrics core is compiled in.
    pub metrics_enabled: bool,
    /// Flight-recorder records lost to ring lap or contention.
    pub flight_dropped: u64,
    /// Prometheus text exposition of the full metrics registry.
    pub prometheus: String,
}

/// Schema tag stamped on every [`QueryReply`].
pub const QUERY_REPLY_SCHEMA: &str = "coolopt-service-query-v1";

/// Schema tag stamped on every [`TraceReply`].
pub const TRACE_REPLY_SCHEMA: &str = "coolopt-service-trace-v1";

/// One series in a [`QueryReply`]: the answered points plus the storage
/// accounting behind them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesDoc {
    /// The series name.
    pub name: String,
    /// `[t_ms, value]` samples (newest `limit` kept; non-finite values
    /// are dropped — the vendored JSON writer would render them `null`).
    pub points: Vec<(i64, f64)>,
    /// Samples ever appended (evicted ones included).
    pub appended: u64,
    /// Samples currently decodable across both retention tiers.
    pub retained_points: u64,
    /// Compressed bytes held across both tiers.
    pub stored_bytes: u64,
    /// Uncompressed-pair bytes over compressed bytes for this series.
    pub compression_ratio: f64,
}

/// The `{"cmd": "query"}` answer: compressed metric history out of the
/// embedded time-series store (empty without the `telemetry` feature).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryReply {
    /// Always [`QUERY_REPLY_SCHEMA`].
    pub schema: String,
    /// Whether the storage core is compiled in.
    pub tsdb_enabled: bool,
    /// Echo of the effective series selector.
    pub pattern: String,
    /// Echo of the effective aggregator spelling.
    pub agg: String,
    /// Echo of the effective step (ms; `0` means raw points).
    pub step_ms: i64,
    /// Matched series, in name order.
    pub series: Vec<SeriesDoc>,
    /// Distinct series in the whole store (not just the matches).
    pub total_series: u64,
    /// Decodable samples in the whole store.
    pub total_points: u64,
    /// Compressed bytes held by the whole store.
    pub total_stored_bytes: u64,
    /// What those samples would cost as plain `(i64, f64)` pairs.
    pub total_raw_bytes: u64,
    /// `total_raw_bytes / total_stored_bytes` (zero when empty).
    pub compression_ratio: f64,
}

/// The `{"cmd": "trace"}` answer: the newest flight-recorder records as an
/// embedded Chrome-trace fragment. Encoded by hand — `chrome_json` is
/// spliced into the reply line verbatim, so `reply.chrome_json` can be cut
/// out and loaded straight into `chrome://tracing` / Perfetto.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReply {
    /// Always [`TRACE_REPLY_SCHEMA`].
    pub schema: String,
    /// Whether the tracing core is compiled in.
    pub trace_enabled: bool,
    /// Records in the full snapshot before the `limit` cut.
    pub total_records: u64,
    /// Records shipped in `chrome_json`.
    pub returned: u64,
    /// Records lost to ring lap or contention since recorder start.
    pub dropped: u64,
    /// Chrome `traceEvents` JSON object for the shipped records.
    pub chrome_json: String,
}

/// One wire reply of any kind. [`Reply::encode`] renders the line to
/// write back.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A planning response (also carries request-level errors).
    Plan(Response),
    /// A `stats` snapshot.
    Stats(ServiceStatsDoc),
    /// A `metrics` exposition.
    Metrics(MetricsReply),
    /// A `query` range-query answer.
    Query(QueryReply),
    /// A `trace` flight-recorder scrape.
    Trace(TraceReply),
}

impl Reply {
    /// Renders the reply as its one-line JSON wire form.
    pub fn encode(&self) -> String {
        match self {
            Reply::Plan(response) => {
                let mut out = String::with_capacity(128 + 160 * response.results.len());
                write_response(&mut out, response);
                return out;
            }
            Reply::Stats(doc) => serde_json::to_string(doc),
            Reply::Metrics(reply) => serde_json::to_string(reply),
            Reply::Query(reply) => serde_json::to_string(reply),
            // The vendored serde_json has no raw-value passthrough, so the
            // trace line is assembled by hand to embed `chrome_json`
            // unescaped.
            Reply::Trace(reply) => {
                let mut out = String::with_capacity(128 + reply.chrome_json.len());
                let _ = write!(
                    out,
                    "{{\"schema\":{:?},\"trace_enabled\":{},\"total_records\":{},\
                     \"returned\":{},\"dropped\":{},\"chrome_json\":",
                    reply.schema,
                    reply.trace_enabled,
                    reply.total_records,
                    reply.returned,
                    reply.dropped,
                );
                out.push_str(&reply.chrome_json);
                out.push('}');
                return out;
            }
        }
        .expect("wire replies always encode")
    }
}

/// Appends `response` to `out` as one JSON line (without the newline).
///
/// Byte-identical to `serde_json::to_string(response)` — same field
/// order, string escaping and float printing — but written straight into
/// `out` instead of through an intermediate value tree.
fn write_response(out: &mut String, response: &Response) {
    out.push_str("{\"tenant\":");
    push_str(out, &response.tenant);
    out.push_str(",\"ok\":");
    push_bool(out, response.ok);
    out.push_str(",\"error\":");
    push_opt_str(out, response.error.as_deref());
    out.push_str(",\"results\":[");
    for (i, reply) in response.results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"load\":");
        push_f64(out, reply.load);
        out.push_str(",\"feasible\":");
        push_bool(out, reply.feasible);
        out.push_str(",\"plan\":");
        match &reply.plan {
            None => out.push_str("null"),
            Some(plan) => {
                out.push_str("{\"on\":[");
                for (j, run) in runs(&plan.on).enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    match run {
                        Run::One(index) => push_usize(out, index),
                        Run::Span(start, end) => {
                            out.push('[');
                            push_usize(out, start);
                            out.push(',');
                            push_usize(out, end);
                            out.push(']');
                        }
                    }
                }
                out.push_str("],\"k\":");
                push_usize(out, plan.k);
                out.push_str(",\"t\":");
                push_f64(out, plan.t);
                out.push_str(",\"relative_power\":");
                push_f64(out, plan.relative_power);
                out.push('}');
            }
        }
        out.push_str(",\"error\":");
        push_opt_str(out, reply.error.as_deref());
        out.push('}');
    }
    out.push_str("]}");
}

fn push_bool(out: &mut String, value: bool) {
    out.push_str(if value { "true" } else { "false" });
}

fn push_usize(out: &mut String, mut value: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// `{:?}` (the shortest round-trip form) for finite values, `null` else.
fn push_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value:?}");
    } else {
        out.push_str("null");
    }
}

fn push_opt_str(out: &mut String, value: Option<&str>) {
    match value {
        Some(s) => push_str(out, s),
        None => out.push_str("null"),
    }
}

/// A JSON string literal, escaped exactly as the vendored `serde_json`
/// writer escapes it.
fn push_str(out: &mut String, s: &str) {
    out.push('"');
    let mut clean = 0;
    for (at, c) in s.char_indices() {
        let escape = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            c if (c as u32) < 0x20 => None,
            _ => continue,
        };
        out.push_str(&s[clean..at]);
        match escape {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
        }
        clean = at + c.len_utf8();
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

/// Serves one request line against `core`, returning the typed reply.
/// Never panics on malformed input.
pub fn handle_request(core: &ServiceCore, line: &str) -> Reply {
    let request: Request = match serde_json::from_str(line) {
        Ok(request) => request,
        Err(e) => return Reply::Plan(Response::malformed(e)),
    };
    match request.cmd.as_deref() {
        None | Some("plan") => Reply::Plan(handle_plan(core, request)),
        Some("stats") => Reply::Stats(core.stats_doc()),
        Some("metrics") => {
            // Surface the drop count in the exposition itself too, so a
            // plain Prometheus scrape sees recorder health.
            let dropped = telemetry::flight_dropped();
            telemetry::gauge("coolopt_flight_records_dropped").set(dropped as f64);
            Reply::Metrics(MetricsReply {
                schema: METRICS_REPLY_SCHEMA.to_string(),
                metrics_enabled: telemetry::metrics_enabled(),
                flight_dropped: dropped,
                prometheus: telemetry::render_prometheus(),
            })
        }
        Some("query") => match handle_query(&request) {
            Ok(reply) => Reply::Query(reply),
            Err(error) => Reply::Plan(Response {
                tenant: request.tenant,
                ok: false,
                error: Some(error),
                results: Vec::new(),
            }),
        },
        Some("trace") => Reply::Trace(handle_trace(&request)),
        Some(other) => Reply::Plan(Response {
            tenant: request.tenant,
            ok: false,
            error: Some(format!("unknown command {other:?}")),
            results: Vec::new(),
        }),
    }
}

/// Points kept per series when a `query` names no `limit`.
const DEFAULT_QUERY_LIMIT: usize = 2048;

/// Records shipped when a `trace` names no `limit`.
const DEFAULT_TRACE_LIMIT: usize = 256;

/// Hard ceiling on `limit` — one reply stays one bounded line.
const MAX_LIMIT: usize = 4096;

fn handle_query(request: &Request) -> Result<QueryReply, String> {
    let agg = match request.agg.as_deref() {
        None | Some("") => Agg::default(),
        Some(s) => Agg::parse(s)
            .ok_or_else(|| format!("unknown agg {s:?} (expected min, max, mean or last)"))?,
    };
    let range = RangeQuery {
        start_ms: request.start_ms,
        end_ms: request.end_ms,
        step_ms: request.step_ms.unwrap_or(0).max(0),
        agg,
    };
    let limit = request
        .limit
        .unwrap_or(DEFAULT_QUERY_LIMIT)
        .clamp(1, MAX_LIMIT);
    let pattern = request.series.clone().unwrap_or_else(|| "*".to_string());
    let db = telemetry::tsdb();
    let series = db
        .query_matching(&pattern, &range)
        .into_iter()
        .map(|result| {
            let mut points: Vec<(i64, f64)> = result
                .points
                .into_iter()
                .filter(|&(_, v)| v.is_finite())
                .collect();
            let skip = points.len().saturating_sub(limit);
            points.drain(..skip);
            SeriesDoc {
                name: result.name,
                points,
                appended: result.stats.appended,
                retained_points: result.stats.retained_points + result.stats.down_points,
                stored_bytes: result.stats.stored_bytes + result.stats.down_bytes,
                compression_ratio: result.stats.compression_ratio(),
            }
        })
        .collect();
    let totals = db.stats();
    Ok(QueryReply {
        schema: QUERY_REPLY_SCHEMA.to_string(),
        tsdb_enabled: telemetry::metrics_enabled(),
        pattern,
        agg: agg.name().to_string(),
        step_ms: range.step_ms,
        series,
        total_series: totals.series,
        total_points: totals.points,
        total_stored_bytes: totals.stored_bytes,
        total_raw_bytes: totals.raw_bytes,
        compression_ratio: totals.compression_ratio(),
    })
}

fn handle_trace(request: &Request) -> TraceReply {
    let limit = request
        .limit
        .unwrap_or(DEFAULT_TRACE_LIMIT)
        .clamp(1, MAX_LIMIT);
    let snapshot = telemetry::flight_snapshot();
    let total_records = snapshot.records.len() as u64;
    let tail = snapshot.tail(limit);
    TraceReply {
        schema: TRACE_REPLY_SCHEMA.to_string(),
        trace_enabled: telemetry::metrics_enabled(),
        total_records,
        returned: tail.records.len() as u64,
        dropped: tail.dropped,
        chrome_json: tail.to_chrome_json(),
    }
}

/// Serves one request line against `core`, returning the reply line to
/// write back (the string form of [`handle_request`]).
pub fn handle_line(core: &ServiceCore, line: &str) -> String {
    handle_request(core, line).encode()
}

/// The longest request line [`serve_lines`] reads, its newline not
/// counted: about 700 times a 64-load line. A longer line is refused, so a
/// stream without newlines cannot grow the read buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Serves request lines from `reader` against `core` until end of input.
/// Each reply goes to `writer` with its newline in one `write_all` call
/// (so a socket sends it as one segment), then `writer` is flushed. Blank
/// lines are skipped; a line that is not UTF-8 or is longer than
/// [`MAX_LINE_BYTES`] is answered `ok: false` like any other malformed
/// request (the rest of an over-long line is skipped without being
/// stored), and serving goes on. A failed write (the peer hung up) ends serving
/// with `Ok`.
///
/// # Errors
///
/// Returns the first read error.
pub fn serve_lines(
    core: &ServiceCore,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> std::io::Result<()> {
    let mut line = Vec::new();
    loop {
        line.clear();
        let cap = MAX_LINE_BYTES as u64 + 1;
        if (&mut reader).take(cap).read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        let mut reply = if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') {
            reader.skip_until(b'\n')?;
            let what = format!("request line exceeds {MAX_LINE_BYTES} bytes");
            Reply::Plan(Response::malformed(what)).encode()
        } else {
            match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => handle_line(core, text.trim_end_matches(['\n', '\r'])),
                Err(_) => Reply::Plan(Response::malformed("invalid UTF-8")).encode(),
            }
        };
        reply.push('\n');
        if writer
            .write_all(reply.as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            return Ok(());
        }
    }
}

/// Serves line-delimited requests over TCP: one thread per accepted
/// connection, each running [`serve_lines`] with `TCP_NODELAY` on, and at
/// most `max_connections` of them at once. A connection over the cap is
/// answered one `ok: false` line and closed, so a flood of connections
/// cannot exhaust the process's threads. Accept errors are reported on
/// stderr and serving goes on; this returns only if the listener's
/// accept stream ends.
pub fn serve_tcp(core: &Arc<ServiceCore>, listener: TcpListener, max_connections: usize) {
    let open = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        let mut stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("coolopt-serve: accept: {e}");
                continue;
            }
        };
        if open.fetch_add(1, Ordering::AcqRel) >= max_connections {
            open.fetch_sub(1, Ordering::AcqRel);
            let mut reply = Reply::Plan(Response {
                tenant: String::new(),
                ok: false,
                error: Some(format!(
                    "connection refused: {max_connections} connections already open"
                )),
                results: Vec::new(),
            })
            .encode();
            reply.push('\n');
            let _ = stream.write_all(reply.as_bytes());
            let _ = stream.shutdown(Shutdown::Write);
            continue;
        }
        let slot = OpenSlot(Arc::clone(&open));
        let core = Arc::clone(core);
        let spawned = std::thread::Builder::new().spawn(move || {
            let _slot = slot;
            // Replies go out as soon as they are written, not when the
            // client acknowledges the previous segment.
            let writer = match stream.set_nodelay(true).and_then(|()| stream.try_clone()) {
                Ok(writer) => writer,
                Err(e) => {
                    let peer = stream
                        .peer_addr()
                        .map_or_else(|_| "?".to_string(), |a| a.to_string());
                    eprintln!("coolopt-serve: {peer}: {e}");
                    return;
                }
            };
            // A read error is the client's connection failing; it ends
            // only this connection.
            let _ = serve_lines(&core, BufReader::new(stream), writer);
        });
        if let Err(e) = spawned {
            eprintln!("coolopt-serve: connection thread: {e}");
        }
    }
}

/// One open connection's share of [`serve_tcp`]'s cap, given back when
/// the connection's thread ends (or was never started).
struct OpenSlot(Arc<AtomicUsize>);

impl Drop for OpenSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn handle_plan(core: &ServiceCore, request: Request) -> Response {
    let mut loads = request.loads.unwrap_or_default();
    if let Some(load) = request.load {
        loads.push(load);
    }
    if loads.is_empty() {
        return Response {
            tenant: request.tenant,
            ok: false,
            error: Some("request carries neither `load` nor `loads`".to_string()),
            results: Vec::new(),
        };
    }
    match core.submit(&request.tenant, &loads) {
        Ok(results) => Response {
            tenant: request.tenant,
            ok: true,
            error: None,
            results: loads
                .iter()
                .zip(results)
                .map(|(&load, result)| PlanReply::from_result(load, result))
                .collect(),
        },
        Err(e) => Response::refused(&request.tenant, &e),
    }
}
