//! The `churn` workload: one operator session against an in-process
//! `newtond` over `fat_tree(4)`, closed loop on one client connection, with
//! the data-plane packet path idle; and its traced in-process replay.

use std::time::{Duration, Instant};

use newton::compiler::{compile, CompilerConfig};
use newton::dataplane::{PipelineConfig, QueryId};
use newton::metrics::{peak_rss_bytes, MetricsRegistry};
use newton::net::Topology;
use newton::query::{catalog, parse_query, to_text, validate, Primitive, Query};
use newton::trace::zipf::Zipf;
use newton::NewtonSystem;
use newtond::json::Value;
use newtond::{Client, ClientError, Daemon, DaemonConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spans::Spans;
use crate::stats::{fastest_per_item, median};
use crate::{Run, ROUNDS};

/// Base population: renamed Q1–Q9 intents, one register slot each.
const POPULATION: usize = 128;
/// Threshold shifts the `update` ops cycle through (structure-preserving).
const DELTAS: [u64; 4] = [0, 5, 10, 15];
/// Ops per daemon session: the same op-stream prefix in every session and
/// every run, short enough that a run holds about ten sessions.
const SESSION_OPS: usize = 400;
/// Pipeline stages per switch (the daemon's default).
const STAGES: usize = 12;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);
/// Query id of the standalone compile used by the table-write probe.
const PROBE_ID: QueryId = u32::MAX - 1;
/// Most intents the compile/install probes run on per traced run.
const PROBE_OPS: usize = 200;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Re-submit member `rank` as its `DELTAS[preset]` threshold variant.
    Update { rank: usize, preset: usize },
    /// Retune member `rank`'s reporting threshold in place.
    Retune { rank: usize, threshold: u64 },
    /// Remove member `rank` and install it again.
    Cycle { rank: usize },
}

impl Op {
    fn kind(self) -> usize {
        match self {
            Op::Update { .. } => 0,
            Op::Retune { .. } => 1,
            Op::Cycle { .. } => 2,
        }
    }
}

/// The op stream of one seed: Zipf(1.1)-ranked members, 4/7 update, 2/7
/// retune, 1/7 remove + install. Every session replays it from the start.
struct Ops {
    zipf: Zipf,
    rng: StdRng,
}

impl Ops {
    fn new(seed: u64) -> Ops {
        Ops { zipf: Zipf::new(POPULATION, 1.1), rng: StdRng::seed_from_u64(seed) }
    }
}

impl Iterator for Ops {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let rank = self.zipf.sample(&mut self.rng);
        Some(match self.rng.gen_range(0..7u8) {
            0..=3 => {
                Op::Update { rank, preset: self.rng.gen_range(0..DELTAS.len() as u32) as usize }
            }
            4 | 5 => Op::Retune { rank, threshold: 15 + self.rng.gen_range(0..45u32) as u64 },
            _ => Op::Cycle { rank },
        })
    }
}

/// The generated intents, as the text an operator submits.
struct Intents {
    names: Vec<String>,
    base: Vec<String>,
    variants: Vec<Vec<String>>,
}

fn with_threshold_delta(query: &Query, delta: u64) -> Query {
    let mut q = query.clone();
    for b in &mut q.branches {
        for p in &mut b.primitives {
            if let Primitive::ResultFilter { value, .. } = p {
                *value += delta;
            }
        }
    }
    q
}

fn intents() -> Intents {
    let structures = catalog::all_queries();
    let pop: Vec<Query> = (0..POPULATION)
        .map(|i| {
            let mut q = structures[i % structures.len()].clone();
            q.name = format!("{}#{i}", q.name);
            q
        })
        .collect();
    Intents {
        names: pop.iter().map(|q| q.name.clone()).collect(),
        base: pop.iter().map(to_text).collect(),
        variants: pop
            .iter()
            .map(|q| DELTAS.iter().map(|&d| to_text(&with_threshold_delta(q, d))).collect())
            .collect(),
    }
}

fn num(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

/// One live population member as the daemon acknowledged it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Member {
    id: QueryId,
    slot: u64,
}

fn member(ack: &Value) -> Result<Member, String> {
    match (num(ack, "query"), num(ack, "slot")) {
        (Some(id), Some(slot)) => Ok(Member { id: id as QueryId, slot }),
        _ => Err(format!("install acknowledgement without query/slot: {ack}")),
    }
}

/// One op through the client; checks the acknowledgement.
fn client_op(client: &mut Client, it: &Intents, live: &mut [Member], op: Op) -> Result<(), String> {
    let e = |e: ClientError| e.to_string();
    match op {
        Op::Update { rank, preset } => {
            let m = live[rank];
            let ack =
                client.update(m.id, &it.names[rank], &it.variants[rank][preset]).map_err(e)?;
            if member(&ack)? != m {
                return Err(format!("update of {m:?} moved it: {ack}"));
            }
        }
        Op::Retune { rank, threshold } => {
            let ack = client.retune(live[rank].id, threshold).map_err(e)?;
            if num(&ack, "query") != Some(live[rank].id as u64) {
                return Err(format!("retune of {:?} acknowledged as {ack}", live[rank]));
            }
        }
        Op::Cycle { rank } => {
            let ack = client.remove(live[rank].id).map_err(e)?;
            if num(&ack, "query") != Some(live[rank].id as u64) {
                return Err(format!("remove of {:?} acknowledged as {ack}", live[rank]));
            }
            live[rank] = member(&client.install(&it.names[rank], &it.base[rank]).map_err(e)?)?;
        }
    }
    Ok(())
}

/// The final `list` must hold exactly the live population.
fn check_list(client: &mut Client, it: &Intents, live: &[Member]) -> Result<(), String> {
    let list = client.list().map_err(|e| e.to_string())?;
    let mut listed: Vec<(u64, u64, String)> = list
        .get("queries")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .map(|q| {
            let name = q.get("name").and_then(Value::as_str).unwrap_or_default().to_string();
            (num(q, "query").unwrap_or(u64::MAX), num(q, "slot").unwrap_or(u64::MAX), name)
        })
        .collect();
    let mut expected: Vec<(u64, u64, String)> =
        live.iter().zip(&it.names).map(|(m, n)| (m.id as u64, m.slot, n.clone())).collect();
    listed.sort();
    expected.sort();
    if listed != expected {
        return Err(format!(
            "list holds {} queries, the population {}",
            listed.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// One daemon session: its set-up time and per-op round trips.
struct Session {
    setup_s: f64,
    /// (op kind, round trip in ms) per completed op, in stream order.
    rtts: Vec<(usize, f64)>,
}

/// Start a daemon, install the base population, play the first `ops` ops
/// of the stream, check the final `list`, and shut the daemon down.
fn session(it: &Intents, seed: u64, ops: usize, run: &mut Run) -> Option<Session> {
    let start = Instant::now();
    let cfg = DaemonConfig {
        topology: Topology::fat_tree(4),
        register_slots: POPULATION as u32,
        ..DaemonConfig::default()
    };
    let daemon = match Daemon::start(cfg, "127.0.0.1:0") {
        Ok(d) => d,
        Err(e) => {
            run.attempt(vec![format!("daemon did not start: {e}")]);
            return None;
        }
    };
    let mut client = match Client::connect(&daemon.addr().to_string(), CLIENT_TIMEOUT) {
        Ok(c) => c,
        Err(e) => {
            run.attempt(vec![format!("cannot connect: {e}")]);
            return None;
        }
    };
    let mut live = Vec::with_capacity(POPULATION);
    for rank in 0..POPULATION {
        match client.install(&it.names[rank], &it.base[rank]).map_err(|e| e.to_string()) {
            Ok(ack) => match member(&ack) {
                Ok(m) => live.push(m),
                Err(e) => run.attempt(vec![e]),
            },
            Err(e) => run.attempt(vec![format!("base install {rank}: {e}")]),
        }
    }
    let setup_s = start.elapsed().as_secs_f64();
    let ok = live.len() == POPULATION;
    let mut rtts = Vec::with_capacity(ops);
    for op in Ops::new(seed).take(if ok { ops } else { 0 }) {
        let t = Instant::now();
        let result = client_op(&mut client, it, &mut live, op);
        rtts.push((op.kind(), t.elapsed().as_secs_f64() * 1e3));
        run.attempt(result.err().into_iter().collect());
    }
    if ok {
        run.attempt(check_list(&mut client, it, &live).err().into_iter().collect());
    }
    if let Err(e) = client.shutdown() {
        run.attempt(vec![format!("shutdown: {e}")]);
    }
    daemon.join();
    Some(Session { setup_s, rtts })
}

fn latencies(rtts: &[(usize, f64)], kind: usize) -> Vec<f64> {
    rtts.iter().filter(|&&(k, _)| k == kind).map(|&(_, ms)| ms).collect()
}

fn context(run: &mut Run, sessions: usize, ops: usize) {
    run.context("population", POPULATION as f64);
    run.context("sessions", sessions as f64);
    run.context("clients", 1.0);
    run.context("ops", ops as f64);
}

/// The untraced run: end-to-end metrics. Daemon sessions of
/// `SESSION_OPS` ops each repeat until the run's time is up (at least
/// `ROUNDS` of them).
pub fn run(seed: u64, seconds: f64, run: &mut Run) {
    let it = intents();
    let mut setups = Vec::new();
    let mut rtts = Vec::new();
    let start = Instant::now();
    while rtts.len() < ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let Some(s) = session(&it, seed, SESSION_OPS, run) else { return };
        setups.push(s.setup_s);
        rtts.push(s.rtts);
    }
    context(run, rtts.len(), rtts.len() * SESSION_OPS);
    // Every session replays the op stream from its start, so op `j` is the
    // same op in every session: keep each op's fastest round trip.
    let kinds = rtts[0].iter().map(|&(kind, _)| kind);
    let times: Vec<Vec<f64>> = rtts.iter().map(|s| s.iter().map(|&(_, ms)| ms).collect()).collect();
    let fastest: Vec<(usize, f64)> = kinds.zip(fastest_per_item(&times)).collect();
    let updates = latencies(&fastest, 0);
    if updates.is_empty() {
        run.attempt(vec!["no update completed".into()]);
        return;
    }
    let retunes = latencies(&fastest, 1);
    if !retunes.is_empty() {
        println!("retune round trip p50 {:.4} ms over {} ops", median(&retunes), retunes.len());
    }
    let total_ms: f64 = fastest.iter().map(|&(_, ms)| ms).sum();
    run.metric("throughput", fastest.len() as f64 * 1e3 / total_ms);
    run.metric("latency_p50_ms", median(&updates));
    run.metric("setup_s", median(&setups));
    run.metric("peak_rss_mib", peak_rss_bytes() as f64 / (1u64 << 20) as f64);
}

/// The daemon core's view of the system: same constructor, recorder and
/// metrics registry, base population installed from text.
fn in_process(it: &Intents) -> Result<(NewtonSystem, Vec<Member>), String> {
    let mut sys = NewtonSystem::with_config_slots(
        Topology::fat_tree(4),
        PipelineConfig::default(),
        CompilerConfig::default(),
        STAGES,
        POPULATION as u32,
    );
    sys.enable_recorder();
    sys.enable_metrics(&MetricsRegistry::new());
    let mut live = Vec::with_capacity(POPULATION);
    for rank in 0..POPULATION {
        let q = intent(&it.names[rank], &it.base[rank])?;
        let id = sys.install(&q).map_err(|e| e.to_string())?.id;
        let slot = sys.controller().register_slot(id).unwrap_or(u32::MAX) as u64;
        live.push(Member { id, slot });
    }
    Ok((sys, live))
}

/// Parse and validate an intent, as the daemon does before every op.
fn intent(name: &str, text: &str) -> Result<Query, String> {
    let q = parse_query(name, text).map_err(|e| e.to_string())?;
    let problems = validate(&q);
    if !problems.is_empty() {
        return Err(format!("{name}: {} validation problems", problems.len()));
    }
    Ok(q)
}

/// Totals of one in-process replay.
#[derive(Default)]
struct Replay {
    wall_ns: u64,
    /// In-process time of each op (parse + system call), ns, stream order.
    op_ns: Vec<u64>,
    /// Rules the ops touched (`InstallReceipt::rules`).
    rules: u64,
    cache_hits: u64,
    cache_lookups: u64,
    channel_bytes: u64,
}

/// Time `f` as a span of `layer` when tracing, else just run it.
fn timed<T>(spans: &mut Option<&mut Spans>, layer: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(layer, 1, f),
        None => f(),
    }
}

/// Replay the first `n` ops of the stream in process, making the calls the
/// daemon's core thread makes for them. With `spans`, every parse and every
/// system call is a span.
fn replay(
    it: &Intents,
    seed: u64,
    n: usize,
    mut spans: Option<&mut Spans>,
) -> Result<(NewtonSystem, Replay), String> {
    let (mut sys, mut live) = in_process(it)?;
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let (cache, channel) = (sys.controller().cache_stats(), sys.controller().channel_stats());
    let mut out = Replay::default();
    let start = Instant::now();
    for op in Ops::new(seed).take(n) {
        let t0 = Instant::now();
        let rules = match op {
            Op::Update { rank, preset } => {
                let text = &it.variants[rank][preset];
                let q = timed(&mut spans, "query.parse", || intent(&it.names[rank], text))?;
                let id = live[rank].id;
                let r = timed(&mut spans, "controller.update", || sys.update(id, &q))
                    .map_err(|e| err(&e))?;
                if r.id != id {
                    return Err(format!("update of {id} came back as {}", r.id));
                }
                r.rules
            }
            Op::Retune { rank, threshold } => {
                let id = live[rank].id;
                timed(&mut spans, "controller.retune", || sys.retune_threshold(id, threshold))
                    .map_err(|e| err(&e))?
                    .rules
            }
            Op::Cycle { rank } => {
                let q =
                    timed(&mut spans, "query.parse", || intent(&it.names[rank], &it.base[rank]))?;
                let id = live[rank].id;
                let (removed, installed) =
                    timed(&mut spans, "controller.cycle", || (sys.remove(id), sys.install(&q)));
                let removed = removed.ok_or(format!("remove of {id}: not installed"))?;
                let installed = installed.map_err(|e| err(&e))?;
                let slot = sys.controller().register_slot(installed.id).unwrap_or(u32::MAX);
                live[rank] = Member { id: installed.id, slot: slot as u64 };
                removed.rules + installed.rules
            }
        };
        out.rules += rules as u64;
        out.op_ns.push(t0.elapsed().as_nanos() as u64);
    }
    out.wall_ns = start.elapsed().as_nanos() as u64;
    let (cache_end, channel_end) =
        (sys.controller().cache_stats(), sys.controller().channel_stats());
    out.cache_hits = cache_end.hits - cache.hits;
    out.cache_lookups = out.cache_hits + cache_end.misses - cache.misses;
    out.channel_bytes = channel_end.bytes - channel.bytes;
    Ok((sys, out))
}

/// Probe the compiler and the switch tables on the first `n` intents the
/// op stream submits: a standalone `compile`, then `Switch::install` +
/// `Switch::remove_query` of the result on a clone of the busiest switch.
fn probe_compile_install(
    sys: &NewtonSystem,
    it: &Intents,
    seed: u64,
    n: usize,
    spans: &mut Spans,
) -> Result<(), String> {
    let net = sys.network();
    let busiest = (0..net.switch_count())
        .max_by_key(|&s| net.switch(s).total_rule_count())
        .ok_or("network without switches")?;
    let mut switch = net.switch(busiest).clone();
    let cfg = CompilerConfig::default();
    let submitted = Ops::new(seed).take(n).filter_map(|op| match op {
        Op::Update { rank, preset } => Some((rank, &it.variants[rank][preset])),
        Op::Cycle { rank } => Some((rank, &it.base[rank])),
        Op::Retune { .. } => None,
    });
    for (rank, text) in submitted {
        let q = intent(&it.names[rank], text)?;
        let compiled = spans.time("compiler.compile", 1, || compile(&q, PROBE_ID, &cfg));
        let installed = spans.time("dataplane.install", 1, || {
            let r = switch.install(&compiled.rules);
            switch.remove_query(PROBE_ID);
            r
        });
        installed.map_err(|e| format!("probe install on switch {busiest}: {e}"))?;
    }
    Ok(())
}

/// The traced run: per-layer metrics. One daemon session fixes the op
/// count; the same ops then replay in process untraced, traced, and
/// untraced again (the two untraced replays bracket the traced one, so
/// warm-up does not read as tracing overhead), and the compile/install
/// probes run on the traced replay's final state.
pub fn run_traced(seed: u64, seconds: f64, run: &mut Run) {
    let it = intents();
    // One session plus three replays of its ops fill about the run's time.
    let n = SESSION_OPS * (seconds as usize / 10).max(1);
    let Some(s) = session(&it, seed, n, run) else { return };
    let mut spans = Spans::default();
    let mut probes = Spans::default();
    let replays = replay(&it, seed, n, None).and_then(|(_, before)| {
        let (sys, traced) = replay(&it, seed, n, Some(&mut spans))?;
        let (_, after) = replay(&it, seed, n, None)?;
        probe_compile_install(&sys, &it, seed, n.min(PROBE_OPS), &mut probes)?;
        let plain_wall_ns = (before.wall_ns + after.wall_ns) / 2;
        let plain_op_ns = before.op_ns.iter().zip(&after.op_ns).map(|(a, b)| (a + b) / 2).collect();
        Ok((sys, Replay { wall_ns: plain_wall_ns, op_ns: plain_op_ns, ..before }, traced))
    });
    let (sys, plain, traced) = match replays {
        Ok(r) => r,
        Err(e) => {
            run.attempt(vec![format!("in-process replay: {e}")]);
            return;
        }
    };
    run.attempt(Vec::new());
    spans.add_wall(traced.wall_ns);
    context(run, 1, n);

    let span_p50 = |layer: &str, scale: f64| {
        let v: Vec<f64> = spans.of(layer).map(|s| s.ns() as f64 / scale).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let overhead_us: Vec<f64> = s
        .rtts
        .iter()
        .zip(&plain.op_ns)
        .map(|(&(_, rtt_ms), &ns)| rtt_ms * 1e3 - ns as f64 / 1e3)
        .collect();
    run.metric("query.parse_us", spans.ns_per_item("query.parse") / 1e3);
    run.metric("compiler.compile_us", probes.ns_per_item("compiler.compile") / 1e3);
    run.metric(
        "compiler.cache_hit_ratio",
        traced.cache_hits as f64 / traced.cache_lookups.max(1) as f64,
    );
    run.metric("controller.update_ms_p50", span_p50("controller.update", 1e6));
    run.metric("controller.retune_us_p50", span_p50("controller.retune", 1e3));
    run.metric("controller.cycle_ms_p50", span_p50("controller.cycle", 1e6));
    run.metric("controller.rules_per_op", traced.rules as f64 / n.max(1) as f64);
    run.metric("controller.channel_bytes_per_op", traced.channel_bytes as f64 / n.max(1) as f64);
    run.metric("dataplane.install_ms", probes.ns_per_item("dataplane.install") / 1e6);
    run.metric("dataplane.rules_held", sys.network().total_rules() as f64);
    if !overhead_us.is_empty() {
        run.metric("newtond.overhead_us_p50", median(&overhead_us));
    }
    run.metric("trace.coverage", spans.coverage());
    run.metric("trace.overhead", plain.wall_ns as f64 / traced.wall_ns as f64);
}
