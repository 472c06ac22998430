//! The newline-delimited JSON wire protocol.
//!
//! Every line is one JSON object with a `"type"` field. Client → server:
//!
//! ```json
//! {"type":"submit","tenant":"acme","job":"j1","task":"prob000_and2",
//!  "lang":"verilog","flow":"aivril2"}
//! {"type":"ping"}
//! {"type":"stats"}
//! {"type":"shutdown"}
//! ```
//!
//! Server → client (`hello` greets each connection; then per job one
//! `ack` *or* `reject`, and for admitted jobs `progress` frames
//! followed by one `result`):
//!
//! ```json
//! {"type":"hello","schema":"aivril.serve","version":1,...}
//! {"type":"ack","tenant":"acme","job":"j1","seed":"0x..."}
//! {"type":"reject","tenant":"acme","job":"j9","reason":"queue_full",
//!  "retry_after_s":2.000000}
//! ```
//!
//! `reject.reason` is one of `queue_full` (the tenant's own budget is
//! exhausted), `server_full` (the global job cap is hit), `tenant_limit`
//! (no state slot for a new tenant name), `breaker_open` (the tenant's
//! admission breaker is open or probing) or `shutting_down`.
//!
//! ```json
//! {"type":"progress","tenant":"acme","job":"j1","seq":0,"event":{...}}
//! {"type":"result","tenant":"acme","job":"j1",...,"rtl":"..."}
//! ```
//!
//! Rendering rules match every other exporter in the workspace: fixed
//! field order, [`json::number`]'s fixed six-decimal floats, seeds as
//! hex strings (JSON numbers lose `u64` precision past 2^53). All
//! `ack`/`progress`/`result` fields are derived from job identity and
//! modeled time, so a replayed job's frames are byte-identical; the
//! volatile field of the schedule-dependent `reject` frame is
//! `retry_after_s` alone.

use crate::queue::QueueStats;
use aivril_bench::{Flow, JobRun};
use aivril_obs::{codec, json};

/// Current protocol schema version, carried by the `hello` frame.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on tenant/job/task name length — names become file
/// names and journal context values, so they stay short and printable.
const MAX_NAME: usize = 64;

/// One `submit` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitRequest {
    /// Tenant the job belongs to (admission-control scope).
    pub tenant: String,
    /// Job identifier, unique per tenant by convention; resubmitting
    /// the same `(tenant, job)` replays the same run bit-identically.
    pub job: String,
    /// Benchmark task name (e.g. `prob000_and2`).
    pub task: String,
    /// `true` for Verilog, `false` for VHDL.
    pub verilog: bool,
    /// Which pipeline to run.
    pub flow: Flow,
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a job.
    Submit(SubmitRequest),
    /// Liveness probe; answered with `pong`.
    Ping,
    /// Service counters; answered with a `stats` frame.
    Stats,
    /// Graceful shutdown: drain admitted jobs, then exit.
    Shutdown,
}

/// `true` for names safe to use as file names and journal context
/// values: non-empty, bounded, `[A-Za-z0-9._-]`.
fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= MAX_NAME
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// Parses one request line. Total: malformed input yields a
/// human-readable error (sent back as an `error` frame), never a panic.
///
/// # Errors
///
/// Returns a description of the malformation: invalid JSON, unknown
/// `type`, missing or ill-formed fields.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line.trim()).ok_or_else(|| "invalid JSON".to_string())?;
    let typ = v
        .get("type")
        .and_then(json::Value::str)
        .ok_or_else(|| "missing \"type\"".to_string())?;
    match typ {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "submit" => {
            let field = |key: &str| -> Result<String, String> {
                let s = v
                    .get(key)
                    .and_then(json::Value::str)
                    .ok_or_else(|| format!("submit: missing \"{key}\""))?;
                if key == "task" || valid_name(s) {
                    Ok(s.to_string())
                } else {
                    Err(format!(
                        "submit: \"{key}\" must be 1..={MAX_NAME} chars of [A-Za-z0-9._-]"
                    ))
                }
            };
            let verilog = match v.get("lang").and_then(json::Value::str) {
                None | Some("verilog") => true,
                Some("vhdl") => false,
                Some(other) => {
                    return Err(format!(
                        "submit: \"lang\" must be verilog|vhdl, got {other:?}"
                    ))
                }
            };
            let flow = match v.get("flow").and_then(json::Value::str) {
                None => Flow::Aivril2,
                Some(label) => Flow::from_label(label).ok_or_else(|| {
                    format!("submit: \"flow\" must be aivril2|baseline, got {label:?}")
                })?,
            };
            Ok(Request::Submit(SubmitRequest {
                tenant: field("tenant")?,
                job: field("job")?,
                task: field("task")?,
                verilog,
                flow,
            }))
        }
        other => Err(format!("unknown request type {other:?}")),
    }
}

/// Renders a client request line (the `aivril-submit` write side).
#[must_use]
pub fn render_request(req: &Request) -> String {
    match req {
        Request::Ping => json::object(&[("type", json::string("ping"))]),
        Request::Stats => json::object(&[("type", json::string("stats"))]),
        Request::Shutdown => json::object(&[("type", json::string("shutdown"))]),
        Request::Submit(s) => json::object(&[
            ("type", json::string("submit")),
            ("tenant", json::string(&s.tenant)),
            ("job", json::string(&s.job)),
            ("task", json::string(&s.task)),
            ("lang", json::string(lang_label(s.verilog))),
            ("flow", json::string(s.flow.label())),
        ]),
    }
}

/// Stable label for the HDL of a request.
#[must_use]
pub fn lang_label(verilog: bool) -> &'static str {
    if verilog {
        "verilog"
    } else {
        "vhdl"
    }
}

fn seed_hex(seed: u64) -> String {
    json::string(&format!("0x{seed:016x}"))
}

/// The per-connection greeting: schema, version, model and the
/// admission limits in force.
#[must_use]
pub fn hello_frame(model: &str, max_inflight: usize, max_queue: usize) -> String {
    json::object(&[
        ("type", json::string("hello")),
        ("schema", json::string("aivril.serve")),
        ("version", PROTOCOL_VERSION.to_string()),
        ("model", json::string(model)),
        ("max_inflight", max_inflight.to_string()),
        ("max_queue", max_queue.to_string()),
    ])
}

/// Admission acknowledgement for an accepted job.
#[must_use]
pub fn ack_frame(tenant: &str, job: &str, seed: u64) -> String {
    json::object(&[
        ("type", json::string("ack")),
        ("tenant", json::string(tenant)),
        ("job", json::string(job)),
        ("seed", seed_hex(seed)),
    ])
}

/// Structured admission rejection: the job will *not* run; the caller
/// should retry after `retry_after_s` wall seconds.
#[must_use]
pub fn reject_frame(tenant: &str, job: &str, reason: &str, retry_after_s: f64) -> String {
    json::object(&[
        ("type", json::string("reject")),
        ("tenant", json::string(tenant)),
        ("job", json::string(job)),
        ("reason", json::string(reason)),
        ("retry_after_s", json::number(retry_after_s)),
    ])
}

/// One streamed journal event (`seq` counts from 0 within the job);
/// `event` is a pre-rendered [`aivril_obs::render_event`] line,
/// embedded verbatim.
#[must_use]
pub fn progress_frame(tenant: &str, job: &str, seq: usize, event: &str) -> String {
    json::object(&[
        ("type", json::string("progress")),
        ("tenant", json::string(tenant)),
        ("job", json::string(job)),
        ("seq", seq.to_string()),
        ("event", event.to_string()),
    ])
}

/// The job's terminal frame: verdicts, modeled latencies, resilience
/// counters and the final sources. Every field is deterministic — a
/// function of the job's identity, never of scheduling.
#[must_use]
pub fn result_frame(spec: &SubmitRequest, seed: u64, run: &JobRun) -> String {
    let o = &run.record.outcome;
    let r = &run.record.resilience;
    let resilience = json::object(&[
        ("llm_faults", r.llm_faults.to_string()),
        ("retries", r.retries.to_string()),
        ("backoff_s", json::number(r.backoff_s)),
        ("breaker_opens", r.breaker_opens.to_string()),
        ("degraded", r.degraded.to_string()),
        ("sim_diverged", r.sim_diverged.to_string()),
    ]);
    json::object(&[
        ("type", json::string("result")),
        ("tenant", json::string(&spec.tenant)),
        ("job", json::string(&spec.job)),
        ("task", json::string(&spec.task)),
        ("lang", json::string(lang_label(spec.verilog))),
        ("flow", json::string(spec.flow.label())),
        ("seed", seed_hex(seed)),
        ("syntax", o.syntax.to_string()),
        ("functional", o.functional.to_string()),
        ("syntax_iters", o.syntax_iters.to_string()),
        ("functional_iters", o.functional_iters.to_string()),
        ("modeled_seconds", json::number(o.total_latency)),
        ("llm_seconds", json::number(run.record.llm_seconds)),
        ("tool_seconds", json::number(run.record.tool_seconds)),
        ("crashed", o.crashed.to_string()),
        ("resilience", resilience),
        (
            "rtl_fnv",
            json::string(&format!("0x{:016x}", codec::fnv64(run.rtl.as_bytes()))),
        ),
        ("rtl", json::string(&run.rtl)),
        ("tb", json::string(&run.tb)),
    ])
}

/// Terminal frame for an admitted job that was cancelled without
/// running — e.g. `reason = "deadline_exceeded"` when a worker claimed
/// it past its per-job deadline. Replaces the `progress`/`result`
/// stream entirely: an expired job produces exactly this one frame
/// after its `ack`.
#[must_use]
pub fn expired_frame(tenant: &str, job: &str, reason: &str) -> String {
    json::object(&[
        ("type", json::string("expired")),
        ("tenant", json::string(tenant)),
        ("job", json::string(job)),
        ("reason", json::string(reason)),
    ])
}

/// Error frame for malformed or unserviceable requests.
#[must_use]
pub fn error_frame(message: &str) -> String {
    json::object(&[
        ("type", json::string("error")),
        ("message", json::string(message)),
    ])
}

/// Liveness answer.
#[must_use]
pub fn pong_frame() -> String {
    json::object(&[("type", json::string("pong"))])
}

/// Shutdown acknowledgement.
#[must_use]
pub fn bye_frame() -> String {
    json::object(&[("type", json::string("bye"))])
}

/// Service counters (volatile by nature; diagnostic only).
#[must_use]
pub fn stats_frame(stats: &QueueStats, cache: Option<&aivril_eda::CacheStats>) -> String {
    let cache = match cache {
        None => "null".to_string(),
        Some(c) => json::object(&[
            ("hits", c.hits.to_string()),
            ("misses", c.misses.to_string()),
            ("entries", c.entries.to_string()),
        ]),
    };
    json::object(&[
        ("type", json::string("stats")),
        ("completed", stats.completed.to_string()),
        ("rejected", stats.rejected.to_string()),
        ("queued", stats.queued.to_string()),
        ("inflight", stats.inflight.to_string()),
        ("tenants", stats.tenants.to_string()),
        ("eda_cache", cache),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Submit(SubmitRequest {
                tenant: "acme".into(),
                job: "j-1".into(),
                task: "prob000_and2".into(),
                verilog: true,
                flow: Flow::Aivril2,
            }),
            Request::Submit(SubmitRequest {
                tenant: "globex".into(),
                job: "nightly.42".into(),
                task: "prob001_or2".into(),
                verilog: false,
                flow: Flow::Baseline,
            }),
        ] {
            let line = render_request(&req);
            assert_eq!(parse_request(&line), Ok(req.clone()), "line: {line}");
        }
    }

    #[test]
    fn submit_defaults_lang_and_flow() {
        let r = parse_request(
            "{\"type\":\"submit\",\"tenant\":\"t\",\"job\":\"j\",\"task\":\"prob000_and2\"}",
        )
        .unwrap();
        match r {
            Request::Submit(s) => {
                assert!(s.verilog);
                assert_eq!(s.flow, Flow::Aivril2);
            }
            other => panic!("not a submit: {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_described_not_panicked() {
        for (line, needle) in [
            ("", "invalid JSON"),
            ("{}", "missing \"type\""),
            ("{\"type\":\"warp\"}", "unknown request type"),
            ("{\"type\":\"submit\",\"job\":\"j\",\"task\":\"t\"}", "tenant"),
            (
                "{\"type\":\"submit\",\"tenant\":\"has space\",\"job\":\"j\",\"task\":\"t\"}",
                "tenant",
            ),
            (
                "{\"type\":\"submit\",\"tenant\":\"t\",\"job\":\"j\",\"task\":\"t\",\"lang\":\"ada\"}",
                "lang",
            ),
            (
                "{\"type\":\"submit\",\"tenant\":\"t\",\"job\":\"j\",\"task\":\"t\",\"flow\":\"warp\"}",
                "flow",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "line {line:?} -> {err}");
        }
    }

    #[test]
    fn frames_are_stable_json() {
        let ack = ack_frame("acme", "j1", 0xdead_beef);
        assert_eq!(
            ack,
            "{\"type\":\"ack\",\"tenant\":\"acme\",\"job\":\"j1\",\
             \"seed\":\"0x00000000deadbeef\"}"
        );
        let rej = reject_frame("acme", "j9", "queue_full", 2.0);
        assert!(rej.contains("\"reason\":\"queue_full\""), "{rej}");
        assert!(rej.contains("\"retry_after_s\":2.000000"), "{rej}");
        let prog = progress_frame("acme", "j1", 3, "{\"span\":\"llm.chat\"}");
        assert!(prog.contains("\"seq\":3"), "{prog}");
        assert!(prog.contains("\"event\":{\"span\":\"llm.chat\"}"), "{prog}");
        // Frames parse back with the total reader.
        for frame in [
            ack,
            rej,
            prog,
            hello_frame("m", 2, 8),
            pong_frame(),
            bye_frame(),
        ] {
            assert!(aivril_obs::json::parse(&frame).is_some(), "{frame}");
        }
    }
}
