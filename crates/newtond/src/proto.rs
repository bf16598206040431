//! The newtond wire protocol: newline-delimited JSON requests and
//! responses over a local TCP socket.
//!
//! One request per line, one response line per request:
//!
//! ```text
//! -> {"id":1,"op":"install","name":"scan","intent":"filter(proto == 6) | ..."}
//! <- {"id":1,"ok":true,"result":{"query":0,"slot":0,...}}
//! -> {"id":2,"op":"install","name":"fifth","intent":"..."}
//! <- {"id":2,"ok":false,"error":{"kind":"slots_exhausted","detail":"..."}}
//! ```
//!
//! `subscribe` flips the connection into a one-way event stream: the
//! server acknowledges, then pushes `{"stream":"journal","event":{...}}`
//! lines (telemetry [`Event`](newton::telemetry::Event)s, same bytes as
//! the journal's JSONL) until the client disconnects or the daemon shuts
//! down. A streaming connection reads no further requests. A subscriber
//! that falls behind the configured buffer loses events rather than
//! wedging the daemon; the loss is reported in-stream as a
//! `{"stream":"journal","truncated":<n>}` marker once it catches up.

use crate::json::{self, Value};
use crate::server::MAX_RUN_SEGMENTS;
use newton::net::NetworkEvent;
use newton::telemetry::QueryId;
use std::fmt;

/// One request line, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    pub op: Op,
}

/// The operations the daemon serves. Every mutation is serialized through
/// the core loop that owns the [`NewtonSystem`](newton::NewtonSystem), so
/// concurrent clients cannot interleave mid-pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Liveness probe.
    Ping,
    /// Parse → validate → compile → place → install a textual intent.
    Install { name: String, intent: String },
    /// Replace a live query in place (same id, same register slot).
    Update { query: QueryId, name: String, intent: String },
    /// Remove a live query everywhere.
    Remove { query: QueryId },
    /// Move a live query's report threshold without reinstalling.
    Retune { query: QueryId, threshold: u64 },
    /// Inventory of live queries with their register slots.
    List,
    /// Apply a network dynamic now (fail/restore a switch or link).
    Inject { event: NetworkEvent },
    /// Run a controller repair pass now.
    Repair,
    /// Replay the configured workload stream through the live system.
    Run { segments: Option<u64>, seed: Option<u64> },
    /// Summary of the most recent `run`.
    Report,
    /// Live operational metrics snapshot (counters, gauges, histogram
    /// quantiles); `prometheus` selects the text exposition format.
    Metrics { prometheus: bool },
    /// Turn this connection into a journal event stream.
    Subscribe,
    /// Stop the daemon (all connections close).
    Shutdown,
}

/// A malformed request line. Distinct from domain errors (slot
/// exhaustion, unknown query): those arrive as `ok:false` responses with
/// their own kinds; `BadRequest` means the line itself could not be
/// understood.
#[derive(Debug, Clone, PartialEq)]
pub struct BadRequest {
    /// Echoed id when one was readable, 0 otherwise.
    pub id: u64,
    pub detail: String,
}

impl fmt::Display for BadRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad request: {}", self.detail)
    }
}

impl std::error::Error for BadRequest {}

/// Decode one request line.
pub fn parse_request(line: &str) -> Result<Request, BadRequest> {
    let v = json::parse(line)
        .map_err(|e| BadRequest { id: 0, detail: format!("invalid JSON: {e}") })?;
    let id = v.get("id").and_then(Value::as_u64).unwrap_or(0);
    let fail = |detail: String| BadRequest { id, detail };
    let op_name = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| fail("missing string field \"op\"".into()))?;
    let need_str = |field: &str| {
        v.get(field)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| fail(format!("op {op_name:?} needs string field {field:?}")))
    };
    let need_u64 = |field: &str| {
        v.get(field)
            .and_then(Value::as_u64)
            .ok_or_else(|| fail(format!("op {op_name:?} needs non-negative integer {field:?}")))
    };
    // An optional integer field: absent is `None`, anything else must be
    // a non-negative integer.
    let opt_u64 = |field: &str| {
        v.get(field)
            .map(|x| {
                x.as_u64().ok_or_else(|| {
                    fail(format!("op {op_name:?} field {field:?} must be a non-negative integer"))
                })
            })
            .transpose()
    };
    let need_query = || {
        let raw = need_u64("query")?;
        QueryId::try_from(raw).map_err(|_| fail(format!("query id {raw} exceeds u32")))
    };
    let op = match op_name {
        "ping" => Op::Ping,
        "install" => Op::Install { name: need_str("name")?, intent: need_str("intent")? },
        "update" => Op::Update {
            query: need_query()?,
            name: need_str("name")?,
            intent: need_str("intent")?,
        },
        "remove" => Op::Remove { query: need_query()? },
        "retune" => Op::Retune { query: need_query()?, threshold: need_u64("threshold")? },
        "list" => Op::List,
        "inject" => Op::Inject { event: parse_event(&v, &fail)? },
        "repair" => Op::Repair,
        "run" => {
            let segments = opt_u64("segments")?;
            if let Some(n) = segments.filter(|&n| n > MAX_RUN_SEGMENTS) {
                return Err(fail(format!("segments {n} exceeds {MAX_RUN_SEGMENTS}")));
            }
            Op::Run { segments, seed: opt_u64("seed")? }
        }
        "report" => Op::Report,
        "metrics" => Op::Metrics {
            prometheus: v.get("format").and_then(Value::as_str) == Some("prometheus"),
        },
        "subscribe" => Op::Subscribe,
        "shutdown" => Op::Shutdown,
        other => return Err(fail(format!("unknown op {other:?}"))),
    };
    Ok(Request { id, op })
}

fn parse_event(
    v: &Value,
    fail: &impl Fn(String) -> BadRequest,
) -> Result<NetworkEvent, BadRequest> {
    let kind = v
        .get("event")
        .and_then(Value::as_str)
        .ok_or_else(|| fail("op \"inject\" needs string field \"event\"".into()))?;
    let node = |field: &str| {
        v.get(field)
            .and_then(Value::as_u64)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| fail(format!("event {kind:?} needs switch index {field:?}")))
    };
    Ok(match kind {
        "fail_switch" => NetworkEvent::FailSwitch { s: node("switch")? },
        "restore_switch" => NetworkEvent::RestoreSwitch { s: node("switch")? },
        "fail_link" => NetworkEvent::FailLink { a: node("a")?, b: node("b")? },
        "restore_link" => NetworkEvent::RestoreLink { a: node("a")?, b: node("b")? },
        other => return Err(fail(format!("unknown event {other:?}"))),
    })
}

/// Machine-readable failure kinds carried in `error.kind`. Stable strings:
/// clients dispatch on these, not on `detail` prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line itself was malformed.
    BadRequest,
    /// The intent text failed to parse.
    Parse,
    /// The intent parsed but failed semantic validation.
    Validate,
    /// All register slots are held by live queries (§4.1 invariant).
    SlotsExhausted,
    /// A switch rejected the compiled rules; the install rolled back.
    Switch,
    /// The query id is not installed.
    UnknownQuery,
    /// Retune threshold exceeds the 32-bit register range.
    ThresholdOutOfRange,
    /// An update's new definition was rejected; the old query was
    /// restored (or scrubbed when even the restore failed).
    Rejected,
    /// The op needs state the daemon does not have (e.g. `report` before
    /// any `run`).
    Unavailable,
}

impl ErrorKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Parse => "parse",
            ErrorKind::Validate => "validate",
            ErrorKind::SlotsExhausted => "slots_exhausted",
            ErrorKind::Switch => "switch",
            ErrorKind::UnknownQuery => "unknown_query",
            ErrorKind::ThresholdOutOfRange => "threshold_out_of_range",
            ErrorKind::Rejected => "rejected",
            ErrorKind::Unavailable => "unavailable",
        }
    }
}

/// Render a success response line (no trailing newline).
pub fn ok_line(id: u64, result: Value) -> String {
    json::obj(vec![("id", json::num(id as f64)), ("ok", Value::Bool(true)), ("result", result)])
        .to_string()
}

/// Render a failure response line (no trailing newline).
pub fn err_line(id: u64, kind: ErrorKind, detail: &str) -> String {
    json::obj(vec![
        ("id", json::num(id as f64)),
        ("ok", Value::Bool(false)),
        (
            "error",
            json::obj(vec![("kind", json::str(kind.as_str())), ("detail", json::str(detail))]),
        ),
    ])
    .to_string()
}

/// Render one journal event as a stream line (no trailing newline). The
/// embedded event bytes are exactly what `Journal::to_jsonl` emits.
pub fn stream_line(event_json: &str) -> String {
    format!("{{\"stream\":\"journal\",\"event\":{event_json}}}")
}

/// Render a journal-truncation marker (no trailing newline): the daemon
/// dropped `n` events for this subscriber because its backlog exceeded
/// the configured buffer. Delivered in-stream, before the next event the
/// subscriber does receive, once it catches up.
pub fn truncated_line(n: u64) -> String {
    format!("{{\"stream\":\"journal\",\"truncated\":{n}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_the_full_op_set() {
        let r =
            parse_request(r#"{"id":3,"op":"retune","query":5,"threshold":4294967295}"#).unwrap();
        assert_eq!(r, Request { id: 3, op: Op::Retune { query: 5, threshold: u32::MAX as u64 } });
        let r =
            parse_request(r#"{"id":4,"op":"inject","event":"fail_switch","switch":2}"#).unwrap();
        assert_eq!(r.op, Op::Inject { event: NetworkEvent::FailSwitch { s: 2 } });
        assert_eq!(parse_request(r#"{"id":1,"op":"list"}"#).unwrap().op, Op::List);
    }

    #[test]
    fn bad_lines_echo_the_id_when_readable() {
        let e = parse_request(r#"{"id":9,"op":"install","name":"x"}"#).unwrap_err();
        assert_eq!(e.id, 9);
        assert!(e.detail.contains("intent"));
        assert_eq!(parse_request("not json").unwrap_err().id, 0);
    }

    #[test]
    fn run_fields_must_be_bounded_non_negative_integers() {
        let run = |fields: &str| parse_request(&format!(r#"{{"id":5,"op":"run"{fields}}}"#));
        assert_eq!(run("").unwrap().op, Op::Run { segments: None, seed: None });
        let max = MAX_RUN_SEGMENTS;
        assert_eq!(
            run(&format!(r#","segments":{max},"seed":0"#)).unwrap().op,
            Op::Run { segments: Some(max), seed: Some(0) }
        );
        for bad in [
            r#","segments":"many""#,
            r#","segments":-1"#,
            r#","segments":1.5"#,
            r#","segments":null"#,
            r#","segments":1000000000000"#,
            r#","seed":"x""#,
            r#","seed":-1"#,
            r#","seed":0.5"#,
            r#","seed":[7]"#,
        ] {
            let e = run(bad).unwrap_err();
            assert_eq!(e.id, 5, "{bad}");
            let field = if bad.contains("seed") { "seed" } else { "segments" };
            assert!(e.detail.contains(field), "{bad}: {}", e.detail);
        }
        assert!(run(&format!(r#","segments":{}"#, max + 1)).is_err());
    }

    #[test]
    fn response_lines_are_single_json_objects() {
        let line = err_line(7, ErrorKind::SlotsExhausted, "all 4 slots in use");
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("error").unwrap().get("kind").unwrap().as_str(), Some("slots_exhausted"));
    }
}
