//! The `stream` and `epochs` workloads: Q1–Q9 monitoring network-wide on
//! `fat_tree(4)`, driven through `NewtonSystem::run_stream` with the
//! shipped defaults, and the traced re-composition of the same driver loop
//! from public per-layer calls.

use std::time::Instant;

use newton::analyzer::Analyzer;
use newton::compiler::CompilerConfig;
use newton::dataplane::{ModuleAddr, PipelineConfig, QueryId, Report};
use newton::metrics::peak_rss_bytes;
use newton::net::{effective_parallelism, NodeId, RouteScratch, Topology};
use newton::packet::{Packet, SnapshotHeader};
use newton::query::catalog;
use newton::sketch::{FastMap, FastSet};
use newton::trace::{
    AttackKind, PulseSpec, ReplayOptions, StreamConfig, StreamReplay, TraceConfig,
};
use newton::{NewtonSystem, RunReport};

use crate::spans::Spans;
use crate::stats::{fastest_per_item, median};
use crate::{Run, ROUNDS};

/// One packet workload's traffic shape. Each segment is one epoch.
pub struct Shape {
    pub segment_packets: usize,
    pub flows: usize,
    pub epoch_ms: u64,
    /// Segments per `run_stream` call (one job).
    pub job_segments: u64,
    /// Attack events per pulse firing.
    pub pulse_intensity: u32,
}

/// Steady-state monitoring: 50 000-packet / 100 ms epochs, the soak shape.
/// A job is four segments, the shape of a default `newtond` `run`. The
/// pulses are twice the soak's so that the spoofed-source floods, which
/// split over all eight ingress switches, still cross Q5's and Q6's
/// thresholds.
pub const STREAM: Shape = Shape {
    segment_packets: 50_000,
    flows: 2_000,
    epoch_ms: 100,
    job_segments: 4,
    pulse_intensity: 600,
};

/// The same traffic mix (25 packets per flow) cut into 2 500-packet / 5 ms
/// epochs, so per-batch and per-epoch costs dominate. Pulses keep the
/// stream's size and land whole inside one epoch, so each crosses its
/// threshold within that epoch.
pub const EPOCHS: Shape = Shape {
    segment_packets: 2_500,
    flows: 100,
    epoch_ms: 5,
    job_segments: 40,
    pulse_intensity: 600,
};

/// Pulse kinds, round-robin over segments, with the catalog query (index
/// into `catalog::all_queries`) that must report each one's guilty key.
const PULSES: [(AttackKind, usize); 3] =
    [(AttackKind::PortScan, 3), (AttackKind::SynFlood, 5), (AttackKind::UdpDdos, 4)];

/// Pipeline stages per switch (`NewtonSystem::new`'s value).
const STAGES: usize = 12;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Mirror of the run driver's rule for delivery threads: batches below
/// this size run on the caller's thread.
const PAR_BATCH_MIN: usize = 256;

fn stream_cfg(shape: &Shape, seed: u64) -> StreamConfig {
    StreamConfig {
        seed,
        segments: shape.job_segments,
        segment: TraceConfig {
            packets: shape.segment_packets,
            flows: shape.flows,
            duration_ms: shape.epoch_ms,
            ..TraceConfig::default()
        },
        pulses: PULSES
            .iter()
            .enumerate()
            .map(|(k, &(kind, _))| PulseSpec {
                kind,
                intensity: shape.pulse_intensity,
                period: PULSES.len() as u64,
                phase: k as u64,
            })
            .collect(),
    }
}

/// The set-up being timed: build the system and install Q1–Q9, one
/// register slot per query. Returns the catalog queries' ids in order.
fn build_system() -> (NewtonSystem, Vec<QueryId>) {
    let queries = catalog::all_queries();
    let mut sys = NewtonSystem::with_config_slots(
        Topology::fat_tree(4),
        PipelineConfig::default(),
        CompilerConfig::default(),
        STAGES,
        queries.len() as u32,
    );
    let ids = queries.iter().map(|q| sys.install(q).expect("Q1-Q9 fit fat_tree(4)").id).collect();
    (sys, ids)
}

/// What a run reports, reduced to what the output checks compare.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    reported: FastMap<QueryId, FastSet<u64>>,
    messages: u64,
    packets: u64,
    epochs: u64,
}

impl From<RunReport> for Outcome {
    fn from(r: RunReport) -> Self {
        Outcome {
            reported: r.reported,
            messages: r.messages,
            packets: r.packets,
            epochs: r.epoch_count,
        }
    }
}

/// Everything one job's output must satisfy; returns the violations.
fn check(out: &Outcome, cfg: &StreamConfig, expected_packets: u64, ids: &[QueryId]) -> Vec<String> {
    let mut bad = Vec::new();
    if out.packets != expected_packets {
        bad.push(format!("{} packets delivered, {expected_packets} generated", out.packets));
    }
    if out.epochs != cfg.segments {
        bad.push(format!("{} epochs closed, {} expected", out.epochs, cfg.segments));
    }
    for &(kind, query) in &PULSES {
        let guilty = cfg.guilty(kind).expect("every pulse kind is configured") as u64;
        if !out.reported.get(&ids[query]).is_some_and(|keys| keys.contains(&guilty)) {
            bad.push(format!("{kind:?} source {guilty:#x} not reported by Q{}", query + 1));
        }
    }
    bad
}

/// Generate every segment of the job on this thread: the exact packet
/// count the job must deliver, and the generation time.
fn generate_all(cfg: &StreamConfig) -> (u64, u64) {
    let mut buf = Vec::new();
    let start = Instant::now();
    let mut packets = 0u64;
    for i in 0..cfg.segments {
        cfg.segment_into(i, &mut buf);
        packets += buf.len() as u64;
    }
    (packets, start.elapsed().as_nanos() as u64)
}

fn delivery_threads(sys: &NewtonSystem, batch: usize) -> usize {
    if batch < PAR_BATCH_MIN {
        1
    } else {
        sys.parallelism().threads.min(effective_parallelism())
    }
}

/// Shared context lines of both packet workloads.
fn context(run: &mut Run, sys: &NewtonSystem, shape: &Shape, expected_packets: u64, jobs: usize) {
    let opts = ReplayOptions::default();
    run.context("delivery_threads", delivery_threads(sys, shape.segment_packets) as f64);
    run.context("producers", opts.producers as f64);
    run.context("queue_depth", opts.queue_depth as f64);
    run.context("batch_lanes", sys.network().batch_lanes() as f64);
    run.context("epoch_ms", shape.epoch_ms as f64);
    run.context("job_packets", expected_packets as f64);
    run.context("jobs", jobs as f64);
}

/// One `run_stream` job with the shipped defaults; returns its outcome and
/// wall time in seconds.
fn stream_job(sys: &mut NewtonSystem, cfg: &StreamConfig, shape: &Shape) -> (Outcome, f64) {
    let start = Instant::now();
    let report = sys.run_stream(cfg, shape.epoch_ms, &ReplayOptions::default());
    let secs = start.elapsed().as_secs_f64();
    (Outcome::from(report), secs)
}

/// Check a job and, after the first, that it repeats the first exactly.
fn account(
    run: &mut Run,
    out: &Outcome,
    reference: &mut Option<Outcome>,
    cfg: &StreamConfig,
    expected_packets: u64,
    ids: &[QueryId],
    what: &str,
) {
    let mut bad = check(out, cfg, expected_packets, ids);
    match reference {
        Some(r) if r != out => bad.push(format!(
            "{what} differs from the first job: {} vs {} messages, key sets equal: {}",
            out.messages,
            r.messages,
            out.reported == r.reported
        )),
        Some(_) => {}
        None => *reference = Some(Outcome { reported: out.reported.clone(), ..*out }),
    }
    run.attempt(bad);
}

/// The untraced run: end-to-end metrics.
pub fn run(shape: &Shape, seed: u64, seconds: f64, run: &mut Run) {
    let cfg = stream_cfg(shape, seed);
    let (expected_packets, _) = generate_all(&cfg);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        built = Some(build_system());
        setups.push(start.elapsed().as_secs_f64());
    }
    let (mut sys, ids) = built.expect("at least one set-up");

    // Every job replays the same seed; the run is ROUNDS rounds of equal
    // length, and each job slot keeps its fastest round.
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut reference = None;
    let start = Instant::now();
    for r in 1..=ROUNDS {
        let mut secs = Vec::new();
        while secs.is_empty() || start.elapsed().as_secs_f64() < seconds * r as f64 / ROUNDS as f64
        {
            let (out, s) = stream_job(&mut sys, &cfg, shape);
            secs.push(s);
            account(run, &out, &mut reference, &cfg, expected_packets, &ids, "job");
        }
        rounds.push(secs);
    }
    context(run, &sys, shape, expected_packets, rounds.iter().map(Vec::len).sum());

    let fastest = fastest_per_item(&rounds);
    let total: f64 = fastest.iter().sum();
    run.metric("throughput", expected_packets as f64 * fastest.len() as f64 / total);
    run.metric("latency_p50_ms", median(&fastest) * 1e3);
    run.metric("setup_s", median(&setups));
    run.metric("peak_rss_mib", peak_rss_bytes() as f64 / (1u64 << 20) as f64);
}

/// The run driver rebuilt from public calls (`begin_run` → `ingest_slice`
/// → `close_epoch`), with a span around every call into a layer.
struct Recomposed<'a> {
    sys: &'a mut NewtonSystem,
    analyzer: &'a mut Analyzer,
    spans: &'a mut Spans,
    /// Deliver hop by hop (`Router::path_into` + `Switch::process`) instead
    /// of `Network::deliver_batch_parallel`, to split routing from the
    /// pipeline.
    hop_walk: bool,
    epoch_ns: u64,
    window: Option<u64>,
    out: Outcome,
    route: RouteScratch,
    path: Vec<NodeId>,
    nodes: Vec<NodeId>,
    ranges: Vec<(usize, usize)>,
}

impl<'a> Recomposed<'a> {
    fn flush(&mut self, batch: &mut Vec<(&Packet, NodeId, NodeId)>) {
        if batch.is_empty() {
            return;
        }
        let reports = if self.hop_walk {
            self.walk_hops(batch)
        } else {
            let threads = delivery_threads(self.sys, batch.len());
            let t = self.spans.now();
            let out = self.sys.network_mut().deliver_batch_parallel(batch, threads);
            self.spans.record("net.deliver", t, batch.len() as u64);
            out.reports
        };
        self.out.packets += batch.len() as u64;
        self.out.messages += reports.len() as u64;
        let t = self.spans.now();
        for (_, r) in &reports {
            self.analyzer.ingest(r);
        }
        self.spans.record("analyzer.ingest", t, reports.len() as u64);
        batch.clear();
    }

    /// Route every packet of the batch, then walk every path: routing
    /// reads only liveness, never switch state, so routing first is the
    /// same computation the batch executor performs.
    fn walk_hops(&mut self, batch: &[(&Packet, NodeId, NodeId)]) -> Vec<(NodeId, Report)> {
        let net = self.sys.network_mut();
        let t = self.spans.now();
        self.nodes.clear();
        self.ranges.clear();
        for &(pkt, ingress, egress) in batch {
            let lo = self.nodes.len();
            if net.router().path_into(
                ingress,
                egress,
                &pkt.flow_key(),
                &mut self.route,
                &mut self.path,
            ) {
                self.nodes.extend_from_slice(&self.path);
            }
            self.ranges.push((lo, self.nodes.len()));
        }
        self.spans.record("net.route", t, batch.len() as u64);

        let t = self.spans.now();
        let mut reports = Vec::new();
        let mut hops = 0u64;
        for (&(pkt, _, _), &(lo, hi)) in batch.iter().zip(&self.ranges) {
            let mut snapshot: Option<SnapshotHeader> = None;
            for &hop in &self.nodes[lo..hi] {
                if net.newton_enabled(hop) && net.router().switch_up(hop) {
                    let out = net.switch_mut(hop).process(pkt, snapshot.as_ref());
                    reports.extend(out.reports.into_iter().map(|r| (hop, r)));
                    snapshot = out.snapshot;
                    hops += 1;
                }
            }
        }
        self.spans.record("dataplane.pipeline", t, hops);
        reports
    }

    fn close_epoch(&mut self) {
        let t = self.spans.now();
        let net = self.sys.network();
        let read = |query: QueryId, slice: usize, addr: ModuleAddr, idx: usize| {
            let mut total: Option<u32> = None;
            for sw in 0..net.switch_count() {
                if let Some(v) = net.switch(sw).read_slice_register(query, slice as u8, addr, idx) {
                    total = Some(total.unwrap_or(0).saturating_add(v));
                }
            }
            total
        };
        let keys = self.analyzer.end_epoch(&read);
        self.spans.record("analyzer.probe", t, 1);
        for (id, k) in keys {
            self.out.reported.entry(id).or_default().extend(k);
        }
        let threads = self.sys.parallelism().threads;
        let t = self.spans.now();
        self.sys.network_mut().clear_state_parallel(threads);
        self.spans.record("net.clear", t, 1);
        self.out.epochs += 1;
    }

    fn ingest_slice(&mut self, pkts: &[Packet]) {
        let mut batch: Vec<(&Packet, NodeId, NodeId)> = Vec::with_capacity(pkts.len());
        let mut t = self.spans.now();
        let mut mapped = 0u64;
        for pkt in pkts {
            let w = pkt.ts_ns / self.epoch_ns;
            if self.window != Some(w) {
                self.spans.record("core.endpoints", t, mapped);
                if self.window.is_some() {
                    self.flush(&mut batch);
                    self.close_epoch();
                }
                self.window = Some(w);
                t = self.spans.now();
                mapped = 0;
            }
            let (ingress, egress) = self.sys.endpoints(pkt);
            batch.push((pkt, ingress, egress));
            mapped += 1;
        }
        self.spans.record("core.endpoints", t, mapped);
        self.flush(&mut batch);
    }
}

/// One traced job; returns its outcome and wall time in seconds.
fn traced_job(
    sys: &mut NewtonSystem,
    analyzer: &mut Analyzer,
    spans: &mut Spans,
    cfg: &StreamConfig,
    shape: &Shape,
    hop_walk: bool,
) -> (Outcome, f64) {
    let start = spans.now();
    let lanes = sys.network().batch_lanes();
    for s in 0..sys.network().switch_count() {
        sys.network_mut().switch_mut(s).reserve_batch(lanes, lanes * 2);
    }
    let mut driver = Recomposed {
        sys,
        analyzer,
        spans,
        hop_walk,
        epoch_ns: shape.epoch_ms * 1_000_000,
        window: None,
        out: Outcome::default(),
        route: RouteScratch::default(),
        path: Vec::new(),
        nodes: Vec::new(),
        ranges: Vec::new(),
    };
    let mut replay = StreamReplay::start(cfg.clone(), &ReplayOptions::default());
    loop {
        let t = driver.spans.now();
        let seg = replay.next_segment();
        driver.spans.record("replay.wait", t, 1);
        let Some(seg) = seg else { break };
        driver.ingest_slice(seg.packets());
        replay.recycle(seg);
    }
    drop(replay);
    driver.close_epoch();
    let out = std::mem::take(&mut driver.out);
    let wall = spans.now() - start;
    spans.add_wall(wall);
    (out, wall as f64 / 1e9)
}

/// The traced run: per-layer metrics. Untraced `run_stream` jobs, traced
/// re-composed jobs and hop-by-hop jobs alternate on one system; every
/// traced job must reproduce the untraced jobs' reports exactly.
pub fn run_traced(shape: &Shape, seed: u64, seconds: f64, run: &mut Run) {
    let cfg = stream_cfg(shape, seed);
    let (expected_packets, _) = generate_all(&cfg);
    let (mut sys, ids) = build_system();
    if let Some(id) = ids.iter().find(|&&id| sys.runs_in_software(id)) {
        // The re-composition has no software-fallback loop.
        run.attempt(vec![format!(
            "query {id} runs in software; the re-composition cannot trace it"
        )]);
        return;
    }
    let mut analyzer = Analyzer::new();
    for &id in &ids {
        analyzer.register(id, sys.controller().installed()[&id].plan.clone());
    }

    let mut traced = Spans::default();
    let mut hops = Spans::default();
    let (mut plain_secs, mut traced_secs) = (Vec::new(), Vec::new());
    let mut reference = None;
    let deadline = Instant::now();
    while plain_secs.is_empty() || deadline.elapsed().as_secs_f64() < seconds {
        let (out, s) = stream_job(&mut sys, &cfg, shape);
        plain_secs.push(s);
        account(run, &out, &mut reference, &cfg, expected_packets, &ids, "run_stream job");
        let (out, s) = traced_job(&mut sys, &mut analyzer, &mut traced, &cfg, shape, false);
        traced_secs.push(s);
        account(run, &out, &mut reference, &cfg, expected_packets, &ids, "traced job");
        let (out, _) = traced_job(&mut sys, &mut analyzer, &mut hops, &cfg, shape, true);
        account(run, &out, &mut reference, &cfg, expected_packets, &ids, "hop-by-hop job");
    }
    let (generated, gen_ns) = generate_all(&cfg);
    context(run, &sys, shape, expected_packets, plain_secs.len());

    let (packets, reports) = (traced.total("net.deliver").1, traced.total("analyzer.ingest").1);
    let epochs = traced.total("net.clear").1;
    let batches: Vec<f64> = traced.of("net.deliver").map(|s| s.items as f64).collect();
    run.metric("trace.generate_ns_per_pkt", gen_ns as f64 / generated as f64);
    run.metric("replay.wait_share", traced.total("replay.wait").0 as f64 / traced.wall_ns() as f64);
    run.metric("core.endpoints_ns_per_pkt", traced.ns_per_item("core.endpoints"));
    run.metric("net.deliver_ns_per_pkt", traced.ns_per_item("net.deliver"));
    run.metric("net.batch_pkts_p50", median(&batches));
    run.metric("net.route_ns_per_pkt", hops.ns_per_item("net.route"));
    run.metric("net.clear_us_per_epoch", traced.total("net.clear").0 as f64 / 1e3 / epochs as f64);
    run.metric("dataplane.pipeline_ns_per_hop", hops.ns_per_item("dataplane.pipeline"));
    run.metric(
        "dataplane.hops_per_pkt",
        hops.total("dataplane.pipeline").1 as f64 / hops.total("net.route").1 as f64,
    );
    run.metric("dataplane.rules_held", sys.network().total_rules() as f64);
    run.metric("analyzer.ingest_ns_per_report", traced.ns_per_item("analyzer.ingest"));
    run.metric("analyzer.reports_per_kpkt", reports as f64 * 1e3 / packets as f64);
    run.metric(
        "analyzer.probe_us_per_epoch",
        traced.total("analyzer.probe").0 as f64 / 1e3 / epochs as f64,
    );
    run.metric("trace.coverage", traced.coverage());
    run.metric("trace.overhead", median(&plain_secs) / median(&traced_secs));
}
