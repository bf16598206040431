//! The resident controller service.
//!
//! One **core thread** owns the [`NewtonSystem`] and serializes every
//! operation; one **acceptor thread** takes TCP connections and spawns a
//! thread per client. Connection threads never touch the system: they
//! decode request lines, forward them over an mpsc channel, and write
//! back whatever line the core sends — so N concurrent clients get
//! interleaving at request granularity, never mid-pipeline (the
//! compile → place → install transaction stays atomic per request).
//!
//! Subscribers are connection threads that traded their request loop for
//! a one-way stream: the core pushes every new telemetry journal event to
//! them as it is recorded (installs, removes, repairs, state loss, epoch
//! summaries during `run`). The journal is flushed incrementally and
//! truncated once drained, so a long-lived daemon holds O(subscriber
//! backlog) telemetry, not O(lifetime).
//!
//! The threads start and stop in one fixed order. The core builds its
//! system, then starts the acceptor, and only then does
//! [`Daemon::start`] return. At shutdown the acceptor ends every
//! connection and joins its thread; the core joins the acceptor and is
//! the last daemon thread to exit. So once [`Daemon::join`] returns, no
//! thread of that daemon runs. A process that starts daemons one after
//! another sees the same thread order each time, so its peak memory
//! does not depend on which thread of the previous daemon exited last.

use crate::proto::{self, ErrorKind, Op, Request};
use crate::{json, json::Value};
use newton::compiler::CompilerConfig;
use newton::controller::{InstallError, InstallReceipt, RepairOutcome, RetuneError, UpdateError};
use newton::dataplane::PipelineConfig;
use newton::metrics::{self, Counter, Gauge, MaxGauge, MetricsRegistry};
use newton::net::{Network, NetworkEvent, Topology};
use newton::query::{parse_query, validate};
use newton::telemetry::QueryId;
use newton::trace::{ReplayOptions, StreamConfig};
use newton::{NewtonSystem, RunReport};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Journal events kept buffered after the last subscriber flush before
/// the core truncates the journal (bounds daemon memory on long
/// lifetimes).
const JOURNAL_TRUNCATE_AT: usize = 4096;

/// How long shutdown lets connection threads finish on their own (a
/// subscriber writing its last events, the requester flushing its
/// acknowledgement) before it closes their sockets.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Longest request line, in bytes without the newline, a connection may
/// send. Requests are a few hundred bytes; a longer line is answered with
/// `bad_request` and closes its connection, so no client can make a
/// connection thread buffer without bound.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Most segments one `run` may replay: 100 s of modeled traffic at the
/// default 100 ms segment. A replay holds the core thread, so a larger
/// `segments` is answered with `bad_request` rather than blocking every
/// other client, and `shutdown`, for the whole replay.
pub const MAX_RUN_SEGMENTS: u64 = 1_000;

/// Everything the daemon needs to build and drive its system.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    pub topology: Topology,
    /// Concurrent-query register slots (§4.1): the N+1th install fails
    /// with a structured `slots_exhausted` error.
    pub register_slots: u32,
    pub stages_per_switch: usize,
    /// Epoch window for `run` replays.
    pub epoch_ms: u64,
    /// The workload template `run` replays (bounded-memory streaming;
    /// `segments`/`seed` are overridable per request).
    pub workload: StreamConfig,
    pub replay: ReplayOptions,
    /// Journal-stream lines a subscriber may have in flight (queued
    /// behind its socket) before the core drops events for it instead of
    /// buffering without bound. Dropped spans surface in-stream as a
    /// `{"stream":"journal","truncated":<n>}` marker once the subscriber
    /// catches up, and in `daemon_subscriber_dropped_events_total`.
    pub subscriber_buffer: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            topology: Topology::chain(4),
            register_slots: 8,
            stages_per_switch: 12,
            epoch_ms: 100,
            workload: StreamConfig::default(),
            replay: ReplayOptions::default(),
            subscriber_buffer: JOURNAL_TRUNCATE_AT,
        }
    }
}

/// One in-flight client request, as the core thread sees it.
enum Cmd {
    Request {
        req: Request,
        /// Where the response line goes (this request's reply channel).
        reply: Sender<String>,
        /// Present on `subscribe`: the same channel, to be retained by the
        /// core as a journal stream sink, plus the connection's in-flight
        /// line counter (the core increments per line queued, the
        /// connection thread decrements per line written to the socket —
        /// the backpressure signal behind bounded subscriber buffering).
        stream: Option<(Sender<String>, Arc<AtomicUsize>)>,
        /// Present on `shutdown`: fires once the connection thread has
        /// flushed the response to the socket, so the core does not tear
        /// the process down underneath the final write.
        fence: Option<Receiver<()>>,
    },
}

/// A running daemon. Dropping the handle does NOT stop it; send a
/// `shutdown` request (or use [`Client::shutdown`](crate::Client)) and
/// then [`join`](Daemon::join).
pub struct Daemon {
    addr: SocketAddr,
    core: JoinHandle<()>,
}

impl Daemon {
    /// Bind `addr` (use port 0 for an OS-assigned port) and start serving.
    /// Returns once the core thread has built its system and started the
    /// acceptor.
    pub fn start(cfg: DaemonConfig, addr: &str) -> io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (ready_tx, ready_rx) = channel::<io::Result<()>>();
        let core = thread::Builder::new()
            .name("newtond-core".into())
            .spawn(move || core_loop(cfg, listener, addr, ready_tx))?;
        match ready_rx.recv() {
            Ok(Ok(())) => Ok(Daemon { addr, core }),
            Ok(Err(e)) => {
                let _ = core.join();
                Err(e)
            }
            Err(_) => Err(io::Error::other("the core thread died while starting")),
        }
    }

    /// The bound address (read the OS-assigned port here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the daemon to stop (it stops on a `shutdown` request).
    /// Every daemon thread has exited when this returns.
    pub fn join(self) {
        let _ = self.core.join();
    }
}

/// The acceptor: a thread per client connection until the core sets
/// `stopping` and connects once to wake it. Then it shuts the read half
/// of every open connection, which ends its request loop, waits up to
/// [`SHUTDOWN_GRACE`] for the connection threads to finish, closes any
/// socket still open and joins every thread.
///
/// It keeps only weak handles on the sockets, so a connection closes as
/// soon as its own thread lets go of it.
fn accept_loop(
    listener: TcpListener,
    tx: Sender<Cmd>,
    connections: Gauge,
    stopping: Arc<AtomicBool>,
) {
    let mut open: Vec<(Weak<TcpStream>, JoinHandle<()>)> = Vec::new();
    for conn in listener.incoming() {
        if stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(sock) = conn else { continue };
        open.retain(|(_, thread)| !thread.is_finished());
        let sock = Arc::new(sock);
        let handle = Arc::downgrade(&sock);
        let tx = tx.clone();
        let gauge = connections.clone();
        if let Ok(thread) = thread::Builder::new()
            .name("newtond-conn".into())
            .spawn(move || serve_connection(sock, tx, gauge))
        {
            open.push((handle, thread));
        }
    }
    let shut = |sock: &Weak<TcpStream>, how| {
        if let Some(sock) = sock.upgrade() {
            let _ = sock.shutdown(how);
        }
    };
    for (sock, _) in &open {
        shut(sock, Shutdown::Read);
    }
    let deadline = Instant::now() + SHUTDOWN_GRACE;
    while Instant::now() < deadline && open.iter().any(|(_, thread)| !thread.is_finished()) {
        thread::sleep(Duration::from_millis(1));
    }
    for (sock, thread) in open {
        shut(&sock, Shutdown::Both);
        let _ = thread.join();
    }
}

/// Decrements the connection gauge however its thread exits.
struct ConnGuard(Gauge);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// Per-connection loop: decode lines, round-trip them through the core.
/// Each request carries a reply channel of its own, which the core alone
/// holds, so a request the core drops unanswered (it stopped first) ends
/// the connection instead of leaving this thread waiting. On `subscribe`
/// the reply channel becomes the event stream and this thread
/// degenerates into a forwarding pump. A line longer than
/// [`MAX_REQUEST_LINE`] is answered and ends the connection.
fn serve_connection(sock: Arc<TcpStream>, tx: Sender<Cmd>, connections: Gauge) {
    connections.add(1);
    let _guard = ConnGuard(connections);
    let mut reader = BufReader::new(&*sock);
    let mut writer = BufWriter::new(&*sock);
    let pending = Arc::new(AtomicUsize::new(0));
    let mut line = Vec::new();
    loop {
        line.clear();
        let cap = MAX_REQUEST_LINE as u64 + 1;
        match (&mut reader).take(cap).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return, // client closed
            Ok(_) => {}
        }
        if line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n') {
            let detail = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
            let _ = write_line(&mut writer, &proto::err_line(0, ErrorKind::BadRequest, &detail));
            return;
        }
        let parsed = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => proto::parse_request(text.trim()),
            Err(_) => Err(proto::BadRequest { id: 0, detail: "request line is not UTF-8".into() }),
        };
        let req = match parsed {
            Ok(req) => req,
            Err(bad) => {
                let resp = proto::err_line(bad.id, ErrorKind::BadRequest, &bad.detail);
                if write_line(&mut writer, &resp).is_err() {
                    return;
                }
                continue;
            }
        };
        let subscribing = req.op == Op::Subscribe;
        let mut fence_tx = None;
        let fence = (req.op == Op::Shutdown).then(|| {
            let (ftx, frx) = channel::<()>();
            fence_tx = Some(ftx);
            frx
        });
        let (outbox, inbox) = channel::<String>();
        let cmd = Cmd::Request {
            req,
            stream: subscribing.then(|| (outbox.clone(), Arc::clone(&pending))),
            reply: outbox,
            fence,
        };
        if tx.send(cmd).is_err() {
            return; // daemon stopping
        }
        let Ok(resp) = inbox.recv() else { return };
        if write_line(&mut writer, &resp).is_err() {
            return;
        }
        if let Some(ftx) = fence_tx {
            let _ = ftx.send(());
            return; // daemon is coming down
        }
        if subscribing {
            // One-way from here: forward journal events until the core
            // drops its sender (shutdown) or the client disconnects.
            while let Ok(event_line) = inbox.recv() {
                let wrote = write_line(&mut writer, &event_line);
                // Decrement only after the socket write: a slow client
                // keeps its backlog visible to the core until the bytes
                // actually leave, which is what the drop bound measures.
                pending.fetch_sub(1, Ordering::Relaxed);
                if wrote.is_err() {
                    return;
                }
            }
            return;
        }
    }
}

fn write_line(w: &mut impl Write, line: &str) -> io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// One retained journal-stream sink with its flow-control state.
struct Subscriber {
    sink: Sender<String>,
    /// Lines queued to this connection but not yet written to its socket.
    pending: Arc<AtomicUsize>,
    /// Events dropped since the last truncation marker was delivered.
    truncated: u64,
}

/// The daemon's own instruments (the system/controller/stream families
/// register themselves through [`NewtonSystem::enable_metrics`]).
struct DaemonMetrics {
    journal_events: Counter,
    subscribers: Gauge,
    dropped_events: Counter,
    max_lag: MaxGauge,
    peak_rss: MaxGauge,
}

impl DaemonMetrics {
    fn register(reg: &MetricsRegistry) -> DaemonMetrics {
        DaemonMetrics {
            journal_events: reg
                .counter("daemon_journal_events_total", "Journal events flushed to the stream"),
            subscribers: reg.gauge("daemon_subscribers", "Live journal-stream subscribers"),
            dropped_events: reg.counter(
                "daemon_subscriber_dropped_events_total",
                "Journal events dropped because a subscriber exceeded its buffer",
            ),
            max_lag: reg.max_gauge(
                "daemon_subscriber_max_lag_events",
                "High-water mark of any subscriber's in-flight line backlog",
            ),
            peak_rss: reg
                .max_gauge("process_peak_rss_bytes", "Peak resident set size of the daemon"),
        }
    }
}

/// The state the core thread threads through requests.
struct Core {
    sys: NewtonSystem,
    cfg: DaemonConfig,
    /// Journal index of the first event not yet pushed to subscribers.
    flushed: usize,
    subscribers: Vec<Subscriber>,
    last_report: Option<RunReport>,
    runs: u64,
    registry: MetricsRegistry,
    dm: DaemonMetrics,
}

/// The `daemon_request_ns_*` histogram family key for an op.
fn op_kind(op: &Op) -> &'static str {
    match op {
        Op::Ping => "ping",
        Op::Install { .. } => "install",
        Op::Update { .. } => "update",
        Op::Remove { .. } => "remove",
        Op::Retune { .. } => "retune",
        Op::List => "list",
        Op::Inject { .. } => "inject",
        Op::Repair => "repair",
        Op::Run { .. } => "run",
        Op::Report => "report",
        Op::Metrics { .. } => "metrics",
        Op::Subscribe => "subscribe",
        Op::Shutdown => "shutdown",
    }
}

/// The core thread: builds the system, starts the acceptor, reports to
/// `ready`, serves requests until `shutdown`, then stops the acceptor
/// and joins it (the order is in the module docs).
fn core_loop(
    cfg: DaemonConfig,
    listener: TcpListener,
    addr: SocketAddr,
    ready: Sender<io::Result<()>>,
) {
    // One registry for the daemon's lifetime: the core feeds the
    // system/controller/stream families into it, connection threads feed
    // the connection gauge, and the `metrics` op scrapes it.
    let registry = MetricsRegistry::new();
    let connections =
        registry.gauge("daemon_active_connections", "Open client connections right now");
    let mut sys = NewtonSystem::with_config_slots(
        cfg.topology.clone(),
        PipelineConfig::default(),
        CompilerConfig::default(),
        cfg.stages_per_switch,
        cfg.register_slots,
    );
    sys.enable_recorder();
    sys.enable_metrics(&registry);
    let dm = DaemonMetrics::register(&registry);
    let mut core = Core {
        sys,
        cfg,
        flushed: 0,
        subscribers: Vec::new(),
        last_report: None,
        runs: 0,
        registry,
        dm,
    };
    let (tx, rx) = channel::<Cmd>();
    let stopping = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let stopping = Arc::clone(&stopping);
        thread::Builder::new()
            .name("newtond-accept".into())
            .spawn(move || accept_loop(listener, tx, connections, stopping))
    };
    let acceptor = match acceptor {
        Ok(acceptor) => acceptor,
        Err(e) => {
            let _ = ready.send(Err(e));
            return;
        }
    };
    let _ = ready.send(Ok(()));

    while let Ok(Cmd::Request { req, reply, stream, fence }) = rx.recv() {
        let shutdown = req.op == Op::Shutdown;
        let started = Instant::now();
        let resp = match req.op {
            Op::Subscribe => {
                if let Some((sink, pending)) = stream {
                    core.subscribers.push(Subscriber { sink, pending, truncated: 0 });
                    core.dm.subscribers.add(1);
                }
                proto::ok_line(req.id, json::obj(vec![("subscribed", Value::Bool(true))]))
            }
            _ => match handle(&mut core, &req.op) {
                Ok(result) => proto::ok_line(req.id, result),
                Err((kind, detail)) => proto::err_line(req.id, kind, &detail),
            },
        };
        // Per-op request latency (registration is idempotent, so looking
        // the histogram up by name each time shares one storage cell).
        core.registry
            .histogram(
                &format!("daemon_request_ns_{}", op_kind(&req.op)),
                "Wall-clock nanoseconds handling one request in the core thread",
            )
            .observe(started.elapsed().as_nanos() as u64);
        let _ = reply.send(resp);
        flush_journal(&mut core);
        if shutdown {
            // Wait (bounded) for the requester's connection thread to
            // flush the acknowledgement before tearing everything down.
            if let Some(fence) = fence {
                let _ = fence.recv_timeout(SHUTDOWN_GRACE);
            }
            break;
        }
    }

    // Dropping the queue answers every request still in it with a closed
    // reply channel, and closing the subscriber senders ends every stream
    // connection; the dummy connect unblocks the acceptor so it can
    // observe the flag and wind the connections down.
    stopping.store(true, Ordering::SeqCst);
    drop(rx);
    core.subscribers.clear();
    let _ = TcpStream::connect(addr);
    let _ = acceptor.join();
}

/// Push journal events recorded since the last flush to every subscriber,
/// dropping subscribers whose connection has gone away, then truncate the
/// journal once the backlog exceeds [`JOURNAL_TRUNCATE_AT`].
///
/// Per subscriber the push is *bounded*: once its in-flight backlog
/// reaches [`DaemonConfig::subscriber_buffer`] lines, further events are
/// dropped for it (counted, and reported in-stream as a truncation
/// marker when it catches up) instead of queueing without bound — one
/// wedged client can no longer grow the daemon's memory or stall the
/// stream for everyone else.
fn flush_journal(core: &mut Core) {
    let Some(rec) = core.sys.recorder() else { return };
    let events = rec.journal.events();
    if core.flushed < events.len() {
        let lines: Vec<String> =
            events[core.flushed..].iter().map(|e| proto::stream_line(&e.to_json())).collect();
        core.flushed = events.len();
        core.dm.journal_events.add(lines.len() as u64);
        let limit = core.cfg.subscriber_buffer.max(1);
        let dm = &core.dm;
        let before = core.subscribers.len();
        core.subscribers.retain_mut(|sub| {
            for l in &lines {
                let backlog = sub.pending.load(Ordering::Relaxed);
                dm.max_lag.observe(backlog as u64);
                if sub.truncated > 0 && backlog < limit {
                    // Caught up: tell the subscriber what it missed,
                    // before the next event it does receive.
                    if sub.sink.send(proto::truncated_line(sub.truncated)).is_err() {
                        return false;
                    }
                    sub.pending.fetch_add(1, Ordering::Relaxed);
                    sub.truncated = 0;
                }
                if sub.pending.load(Ordering::Relaxed) >= limit {
                    sub.truncated += 1;
                    dm.dropped_events.inc();
                    continue;
                }
                if sub.sink.send(l.clone()).is_err() {
                    return false;
                }
                sub.pending.fetch_add(1, Ordering::Relaxed);
            }
            true
        });
        core.dm.subscribers.sub((before - core.subscribers.len()) as u64);
    }
    if core.flushed >= JOURNAL_TRUNCATE_AT {
        core.sys.enable_recorder().journal.clear();
        core.flushed = 0;
    }
}

type OpError = (ErrorKind, String);

fn handle(core: &mut Core, op: &Op) -> Result<Value, OpError> {
    match op {
        Op::Ping => Ok(json::obj(vec![("pong", Value::Bool(true))])),
        Op::Install { name, intent } => {
            let query = compile_intent(name, intent)?;
            let receipt = core.sys.install(&query).map_err(install_error)?;
            Ok(receipt_result(core, &receipt, name))
        }
        Op::Update { query: id, name, intent } => {
            let query = compile_intent(name, intent)?;
            let receipt = core.sys.update(*id, &query).map_err(update_error)?;
            Ok(receipt_result(core, &receipt, name))
        }
        Op::Remove { query: id } => {
            let receipt = core
                .sys
                .remove(*id)
                .ok_or_else(|| (ErrorKind::UnknownQuery, format!("query {id} is not installed")))?;
            Ok(json::obj(vec![
                ("query", json::num(receipt.id)),
                ("rules", json::num(receipt.rules as f64)),
                ("switches", json::num(receipt.switches as f64)),
                ("delay_ms", json::num(receipt.delay_ms)),
            ]))
        }
        Op::Retune { query: id, threshold } => {
            let receipt = core.sys.retune_threshold(*id, *threshold).map_err(|e| match e {
                RetuneError::UnknownQuery(_) => (ErrorKind::UnknownQuery, e.to_string()),
                RetuneError::ThresholdOutOfRange { .. } => {
                    (ErrorKind::ThresholdOutOfRange, e.to_string())
                }
            })?;
            Ok(json::obj(vec![
                ("query", json::num(receipt.id)),
                ("rules", json::num(receipt.rules as f64)),
                ("delay_ms", json::num(receipt.delay_ms)),
            ]))
        }
        Op::List => Ok(list_result(core)),
        Op::Inject { event } => {
            check_event(core.sys.network(), event)?;
            let outcome = core.sys.inject_event(*event);
            Ok(json::obj(vec![
                ("fired", json::num(outcome.fired as f64)),
                ("state_loss", json::num(outcome.state_loss as f64)),
            ]))
        }
        Op::Repair => {
            let outcome = core.sys.repair_now();
            Ok(repair_result(&outcome))
        }
        Op::Run { segments, seed } => {
            let mut workload = core.cfg.workload.clone();
            if let Some(n) = segments {
                workload.segments = *n;
            }
            // Unseeded runs draw fresh (but reproducible) traffic: the
            // run ordinal perturbs the template seed.
            workload.seed = seed.unwrap_or(workload.seed.wrapping_add(core.runs));
            let epoch_ms = core.cfg.epoch_ms;
            let replay = core.cfg.replay;
            let report = core.sys.run_stream(&workload, epoch_ms, &replay);
            core.runs += 1;
            core.dm.peak_rss.observe(metrics::peak_rss_bytes());
            let result = report_result(core, &report, core.runs - 1);
            core.last_report = Some(report);
            Ok(result)
        }
        Op::Report => {
            let report = core
                .last_report
                .take()
                .ok_or_else(|| (ErrorKind::Unavailable, "no run has completed yet".to_string()))?;
            let result = report_result(core, &report, core.runs.saturating_sub(1));
            core.last_report = Some(report);
            Ok(result)
        }
        Op::Metrics { prometheus } => {
            core.dm.peak_rss.observe(metrics::peak_rss_bytes());
            if *prometheus {
                Ok(json::obj(vec![("prometheus", json::str(core.registry.render_prometheus()))]))
            } else {
                json::parse(&core.registry.render_json()).map_err(|e| {
                    (ErrorKind::Unavailable, format!("metrics snapshot unrenderable: {e}"))
                })
            }
        }
        Op::Shutdown => Ok(json::obj(vec![("stopping", Value::Bool(true))])),
        // Subscribe is intercepted by the core loop (it needs the sink).
        Op::Subscribe => unreachable!("subscribe handled by the core loop"),
    }
}

/// Reject an event naming a switch or link the daemon's topology lacks,
/// before it reaches the network: a switch id past the end would index
/// out of bounds on the core thread.
fn check_event(net: &Network, event: &NetworkEvent) -> Result<(), OpError> {
    let known = match *event {
        NetworkEvent::FailSwitch { s } | NetworkEvent::RestoreSwitch { s } => {
            s < net.switch_count()
        }
        NetworkEvent::FailLink { a, b } | NetworkEvent::RestoreLink { a, b } => {
            net.router().link_id(a, b).is_some()
        }
    };
    if known {
        Ok(())
    } else {
        Err((ErrorKind::BadRequest, format!("{event:?} is not in the topology")))
    }
}

/// Textual intent → validated [`Query`](newton::query::ast::Query).
fn compile_intent(name: &str, intent: &str) -> Result<newton::query::Query, OpError> {
    let query = parse_query(name, intent).map_err(|e| (ErrorKind::Parse, e.to_string()))?;
    let problems = validate(&query);
    if !problems.is_empty() {
        let detail = problems.iter().map(ToString::to_string).collect::<Vec<_>>().join("; ");
        return Err((ErrorKind::Validate, detail));
    }
    Ok(query)
}

fn install_error(e: InstallError) -> OpError {
    match e {
        InstallError::SlotsExhausted { .. } => (ErrorKind::SlotsExhausted, e.to_string()),
        InstallError::Switch(_) => (ErrorKind::Switch, e.to_string()),
    }
}

fn update_error(e: UpdateError) -> OpError {
    match e {
        UpdateError::UnknownQuery(_) => (ErrorKind::UnknownQuery, e.to_string()),
        UpdateError::Rejected { .. } => (ErrorKind::Rejected, e.to_string()),
    }
}

fn receipt_result(core: &Core, receipt: &InstallReceipt, name: &str) -> Value {
    json::obj(vec![
        ("query", json::num(receipt.id)),
        ("name", json::str(name)),
        ("slot", slot_num(core, receipt.id, |s, id| s.register_slot(id))),
        ("offset", slot_num(core, receipt.id, |s, id| s.register_offset(id))),
        ("rules", json::num(receipt.rules as f64)),
        ("switches", json::num(receipt.switches as f64)),
        ("slices", json::num(receipt.slices as f64)),
        ("overflow_slices", json::num(receipt.overflow_slices as f64)),
        ("diff", Value::Bool(receipt.diff)),
        ("delay_ms", json::num(receipt.delay_ms)),
        ("software", Value::Bool(core.sys.runs_in_software(receipt.id))),
    ])
}

fn slot_num(
    core: &Core,
    id: QueryId,
    read: impl Fn(&newton::controller::Controller, QueryId) -> Option<u32>,
) -> Value {
    read(core.sys.controller(), id).map_or(Value::Null, json::num)
}

fn list_result(core: &Core) -> Value {
    let controller = core.sys.controller();
    let mut ids: Vec<QueryId> = controller.installed().keys().copied().collect();
    ids.sort_unstable();
    let queries = ids
        .into_iter()
        .map(|id| {
            let iq = &controller.installed()[&id];
            json::obj(vec![
                ("query", json::num(id)),
                ("name", json::str(iq.query.name.as_str())),
                ("slot", slot_num(core, id, |c, id| c.register_slot(id))),
                ("offset", slot_num(core, id, |c, id| c.register_offset(id))),
                ("slices", json::num(iq.slices.len() as f64)),
                ("software", Value::Bool(core.sys.runs_in_software(id))),
            ])
        })
        .collect();
    json::obj(vec![
        ("slots", json::num(controller.register_slots())),
        ("in_use", json::num(controller.installed().len() as f64)),
        ("queries", Value::Arr(queries)),
    ])
}

fn repair_result(outcome: &RepairOutcome) -> Value {
    let ids = |ids: &[QueryId]| Value::Arr(ids.iter().map(|&id| json::num(id)).collect());
    json::obj(vec![
        ("examined", json::num(outcome.examined as f64)),
        ("repaired", ids(&outcome.repaired)),
        ("degraded", ids(&outcome.degraded)),
        ("rules_installed", json::num(outcome.rules_installed as f64)),
        ("switches_touched", json::num(outcome.switches_touched as f64)),
        ("delay_ms", json::num(outcome.delay_ms)),
    ])
}

fn report_result(core: &Core, report: &RunReport, run: u64) -> Value {
    let mut reported: Vec<(QueryId, usize)> =
        report.reported.iter().map(|(&id, keys)| (id, keys.len())).collect();
    reported.sort_unstable();
    let reported = reported
        .into_iter()
        .map(|(id, keys)| {
            json::obj(vec![("query", json::num(id)), ("keys", json::num(keys as f64))])
        })
        .collect();
    // Controller-side accounting rides along so operators see compile-
    // cache effectiveness and rule-channel traffic without a separate op.
    let cache = core.sys.controller().cache_stats();
    let channel = core.sys.controller().channel_stats();
    json::obj(vec![
        ("run", json::num(run as f64)),
        ("packets", json::num(report.packets as f64)),
        ("messages", json::num(report.messages as f64)),
        ("overhead_ratio", json::num(report.overhead_ratio())),
        ("epochs", json::num(report.epoch_count as f64)),
        ("unrouted", json::num(report.unrouted as f64)),
        ("repairs", json::num(report.repairs as f64)),
        ("repair_delay_ms", json::num(report.repair_delay_ms)),
        ("degraded_query_epochs", json::num(report.degraded_query_epochs as f64)),
        ("state_loss_events", json::num(report.state_loss_events as f64)),
        ("reported", Value::Arr(reported)),
        (
            "cache",
            json::obj(vec![
                ("hits", json::num(cache.hits as f64)),
                ("misses", json::num(cache.misses as f64)),
            ]),
        ),
        (
            "channel",
            json::obj(vec![
                ("rules_installed", json::num(channel.rules_installed as f64)),
                ("rules_removed", json::num(channel.rules_removed as f64)),
                ("rules_modified", json::num(channel.rules_modified as f64)),
                ("messages", json::num(channel.messages as f64)),
                ("bytes", json::num(channel.bytes as f64)),
            ]),
        ),
    ])
}
