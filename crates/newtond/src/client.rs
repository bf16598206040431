//! A small blocking client for the newtond socket protocol.
//!
//! One TCP connection, one request in flight at a time (the daemon
//! supports pipelining; this client keeps it simple). A second
//! connection turned into a [`Subscription`] streams journal events.

use crate::json::{self, Value};
use crate::proto::{self, ErrorKind};
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Duration;

/// Client-side failure: transport, protocol, or a daemon-reported error.
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    /// The daemon sent something that is not a valid response line.
    Protocol(String),
    /// The daemon answered `ok:false`.
    Daemon {
        kind: String,
        detail: String,
    },
}

impl ClientError {
    /// The machine-readable kind of a daemon-reported error, if that is
    /// what this is.
    pub fn kind(&self) -> Option<&str> {
        match self {
            ClientError::Daemon { kind, .. } => Some(kind),
            _ => None,
        }
    }

    /// Whether the daemon reported exactly `kind`.
    pub fn is_kind(&self, kind: ErrorKind) -> bool {
        self.kind() == Some(kind.as_str())
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(s) => write!(f, "protocol error: {s}"),
            ClientError::Daemon { kind, detail } => write!(f, "{kind}: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected request/response client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connect to a daemon, with a read timeout so a wedged daemon fails
    /// the call instead of hanging the caller.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Client, ClientError> {
        let sock = TcpStream::connect(addr)?;
        sock.set_read_timeout(Some(timeout))?;
        sock.set_nodelay(true)?;
        let reader = BufReader::new(sock.try_clone()?);
        Ok(Client { reader, writer: BufWriter::new(sock), next_id: 1 })
    }

    /// Send one op with extra members, await its response, and return the
    /// `result` value. Daemon-side failures come back as
    /// [`ClientError::Daemon`] with the structured kind.
    pub fn request(&mut self, op: &str, fields: Vec<(&str, Value)>) -> Result<Value, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut members = vec![("id", json::num(id as f64)), ("op", json::str(op))];
        members.extend(fields);
        proto::write_line(&mut self.writer, json::obj(members).to_string())?;

        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(ClientError::Protocol("connection closed mid-request".into()));
        }
        let v = json::parse(resp.trim())
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
        let echoed = v.get("id").and_then(Value::as_u64);
        if echoed != Some(id) {
            return Err(ClientError::Protocol(format!(
                "response id {echoed:?} does not match request id {id}"
            )));
        }
        match v.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(v.get("result").cloned().unwrap_or(Value::Null)),
            Some(false) => {
                let err = v.get("error").cloned().unwrap_or(Value::Null);
                Err(ClientError::Daemon {
                    kind: err.get("kind").and_then(Value::as_str).unwrap_or("unknown").to_string(),
                    detail: err
                        .get("detail")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                })
            }
            None => Err(ClientError::Protocol("response missing \"ok\"".into())),
        }
    }

    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request("ping", vec![]).map(|_| ())
    }

    /// Install a textual intent; returns the result object (`query`,
    /// `slot`, `offset`, receipt fields).
    pub fn install(&mut self, name: &str, intent: &str) -> Result<Value, ClientError> {
        self.request("install", vec![("name", json::str(name)), ("intent", json::str(intent))])
    }

    pub fn update(&mut self, query: u32, name: &str, intent: &str) -> Result<Value, ClientError> {
        self.request(
            "update",
            vec![
                ("query", json::num(query)),
                ("name", json::str(name)),
                ("intent", json::str(intent)),
            ],
        )
    }

    pub fn remove(&mut self, query: u32) -> Result<Value, ClientError> {
        self.request("remove", vec![("query", json::num(query))])
    }

    pub fn retune(&mut self, query: u32, threshold: u64) -> Result<Value, ClientError> {
        self.request(
            "retune",
            vec![("query", json::num(query)), ("threshold", json::num(threshold as f64))],
        )
    }

    pub fn list(&mut self) -> Result<Value, ClientError> {
        self.request("list", vec![])
    }

    pub fn fail_switch(&mut self, s: usize) -> Result<Value, ClientError> {
        self.request(
            "inject",
            vec![("event", json::str("fail_switch")), ("switch", json::num(s as f64))],
        )
    }

    pub fn restore_switch(&mut self, s: usize) -> Result<Value, ClientError> {
        self.request(
            "inject",
            vec![("event", json::str("restore_switch")), ("switch", json::num(s as f64))],
        )
    }

    pub fn repair(&mut self) -> Result<Value, ClientError> {
        self.request("repair", vec![])
    }

    /// Replay the daemon's workload stream; `segments`/`seed` override
    /// the template when given. The daemon answers `bad_request` for more
    /// than [`MAX_RUN_SEGMENTS`](crate::server::MAX_RUN_SEGMENTS) segments,
    /// and for a value above 2^53, which a JSON number cannot carry
    /// exactly.
    pub fn run(&mut self, segments: Option<u64>, seed: Option<u64>) -> Result<Value, ClientError> {
        let mut fields = Vec::new();
        if let Some(n) = segments {
            fields.push(("segments", json::num(n as f64)));
        }
        if let Some(s) = seed {
            fields.push(("seed", json::num(s as f64)));
        }
        self.request("run", fields)
    }

    pub fn report(&mut self) -> Result<Value, ClientError> {
        self.request("report", vec![])
    }

    /// Live metrics snapshot: `{"counters":{...},"gauges":{...},
    /// "histograms":{name:{count,sum,max,p50,p90,p99}}}`.
    pub fn metrics(&mut self) -> Result<Value, ClientError> {
        self.request("metrics", vec![])
    }

    /// Live metrics in the Prometheus text exposition format.
    pub fn metrics_prometheus(&mut self) -> Result<String, ClientError> {
        let v = self.request("metrics", vec![("format", json::str("prometheus"))])?;
        v.get("prometheus")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("metrics response missing \"prometheus\"".into()))
    }

    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request("shutdown", vec![]).map(|_| ())
    }

    /// Turn this connection into a journal event stream.
    pub fn subscribe(mut self) -> Result<Subscription, ClientError> {
        self.request("subscribe", vec![])?;
        Ok(Subscription { reader: self.reader })
    }
}

/// One line of a journal stream: an event, or a truncation notice (the
/// daemon dropped `n` events for this subscriber because it fell behind
/// its buffer).
#[derive(Debug, Clone, PartialEq)]
pub enum StreamItem {
    Event(Value),
    Truncated(u64),
}

/// A connection in streaming mode: yields journal events as they happen.
pub struct Subscription {
    reader: BufReader<TcpStream>,
}

impl Subscription {
    /// The next stream line, marker-aware. `Ok(None)` means the daemon
    /// closed the stream (shutdown); a read timeout surfaces as `Err`.
    pub fn next_item(&mut self) -> Result<Option<StreamItem>, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        let v = json::parse(line.trim())
            .map_err(|e| ClientError::Protocol(format!("unparseable stream line: {e}")))?;
        if let Some(event) = v.get("event") {
            return Ok(Some(StreamItem::Event(event.clone())));
        }
        if let Some(n) = v.get("truncated").and_then(Value::as_u64) {
            return Ok(Some(StreamItem::Truncated(n)));
        }
        Err(ClientError::Protocol("stream line missing \"event\"".into()))
    }

    /// The next stream line's `event` object, skipping truncation markers
    /// (use [`next_item`](Self::next_item) to observe losses). `Ok(None)`
    /// means the daemon closed the stream (shutdown).
    pub fn next_event(&mut self) -> Result<Option<Value>, ClientError> {
        loop {
            match self.next_item()? {
                Some(StreamItem::Event(event)) => return Ok(Some(event)),
                Some(StreamItem::Truncated(_)) => continue,
                None => return Ok(None),
            }
        }
    }

    /// Read events until `pred` matches one (returning it) or the stream
    /// ends (`Ok(None)`).
    pub fn wait_for(
        &mut self,
        mut pred: impl FnMut(&Value) -> bool,
    ) -> Result<Option<Value>, ClientError> {
        while let Some(event) = self.next_event()? {
            if pred(&event) {
                return Ok(Some(event));
            }
        }
        Ok(None)
    }
}
