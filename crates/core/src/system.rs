//! [`NewtonSystem`]: the whole stack behind one handle.
//!
//! Wires together a simulated [`Network`], the [`Controller`]
//! (compile → place → install), and the software [`Analyzer`]
//! (report collection + epoch-end register probing), and drives traces
//! through them in epochs — the loop every evaluation experiment and
//! production deployment shares:
//!
//! ```text
//! per epoch: deliver packets → collect mirrored reports → at the boundary,
//!            probe registers for deferred query parts → reset state
//! ```

use newton_analyzer::{Analyzer, IncidentLog};
use newton_compiler::CompilerConfig;
use newton_controller::{Controller, InstallReceipt, RepairOutcome};
use newton_dataplane::{BankStats, PipelineConfig, QueryId};
use newton_metrics::{Counter, Histogram, MetricsRegistry};
use newton_net::{LinkKey, LinkLoad, Network, NodeId, Parallelism, Topology};
use newton_packet::FieldVector;
use newton_packet::Packet;
use newton_query::ast::Primitive;
use newton_query::{Interpreter, Query};
use newton_sketch::hash::mix64;
use newton_sketch::{FastMap, FastSet};
use newton_telemetry::{Event, Recorder};
use newton_trace::stream::{ReplayOptions, StreamConfig, StreamMetrics, StreamReplay};
use newton_trace::Trace;
use std::collections::BTreeMap;

/// How packets map to (ingress, egress) edge switches.
pub enum HostMapping {
    /// Hash src/dst IPs over the edge switches (deterministic per host).
    ByAddress,
    /// A fixed pair — the paper's linear-testbed style.
    Fixed { ingress: NodeId, egress: NodeId },
}

/// One epoch's counters in the [`RunReport`] time series — the per-window
/// view the paper's figures plot (message overhead over time, failure
/// timelines), derived deterministically from modeled time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochReport {
    /// Epoch index (0-based) within the run.
    pub index: u64,
    /// Raw packets the window carried.
    pub packets: u64,
    /// Monitoring messages emitted during the window.
    pub messages: u64,
    pub message_bytes: u64,
    /// Packets dropped for lack of a route during the window.
    pub unrouted: u64,
    /// Snapshot-header bytes added on internal links during the window.
    pub snapshot_bytes: u64,
    /// Reported-key count per query this epoch, sorted by query id.
    pub reported: Vec<(QueryId, u64)>,
}

/// Results of running one trace through the system.
///
/// `PartialEq` compares every field (including the f64 repair delay
/// exactly): two runs are equal iff they are the *same deterministic
/// execution* — the relation the streamed-vs-materialized equivalence
/// tests pin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Per query: the union of finally-reported keys across epochs.
    pub reported: FastMap<QueryId, FastSet<u64>>,
    /// Monitoring messages vs raw packets.
    pub messages: u64,
    pub packets: u64,
    /// Per-epoch time series. Normally `epochs.len()` is the epoch count,
    /// but [`NewtonSystem::set_epoch_retention`] may trim the head for
    /// soak-length runs — `epoch_count` is always the true total.
    pub epochs: Vec<EpochReport>,
    /// Total epochs the run closed (immune to retention trimming).
    pub epoch_count: u64,
    /// Extra bytes the snapshot header put on internal links.
    pub snapshot_bytes: u64,
    /// Per-(query, key) incidents with first/last epoch timing.
    pub incidents: IncidentLog,
    /// Packets dropped for lack of a route (failures, partitions) —
    /// traffic no query could observe on the data plane.
    pub unrouted: u64,
    /// Queries that had missing slices re-placed by the controller's
    /// repair loop, summed over repair passes.
    pub repairs: u64,
    /// Modelled rule-channel wall clock spent on repairs, summed over
    /// passes (each pass's delay is the max over its switches).
    pub repair_delay_ms: f64,
    /// (query, epoch) pairs that ran on the software interpreter because a
    /// failure left the live data plane unable to execute the query.
    pub degraded_query_epochs: u64,
    /// Switch failures that destroyed installed rules — each is a
    /// detection gap until the repair loop re-places the lost slices.
    pub state_loss_events: u64,
}

impl RunReport {
    /// Messages per raw packet (the Fig. 12 metric).
    pub fn overhead_ratio(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.messages as f64 / self.packets as f64
        }
    }

    /// Add one epoch's traffic counters to the run totals.
    fn tally(&mut self, ep: &EpochReport) {
        self.packets += ep.packets;
        self.messages += ep.messages;
        self.unrouted += ep.unrouted;
        self.snapshot_bytes += ep.snapshot_bytes;
    }
}

impl EpochReport {
    /// Count `n` monitoring messages of `bytes` bytes each.
    fn add_messages(&mut self, n: u64, bytes: u64) {
        self.messages += n;
        self.message_bytes += n * bytes;
    }
}

/// In-flight state of one run of the packet-driven epoch driver
/// (`begin_run` → `ingest_slice`* → `end_run`): everything the old
/// monolithic trace loop kept on its stack, lifted into a cursor so
/// materialized traces and streamed segments share the same loop.
struct RunCursor {
    report: RunReport,
    /// The open epoch's counters. Its `index` is the ordinal of the open
    /// epoch among non-empty windows, the `current_epoch` stamp while it
    /// executes; [`close_epoch`](NewtonSystem::close_epoch) adds it to the
    /// run totals and files it.
    epoch: EpochReport,
    /// Each link's cumulative load at the previous epoch boundary (at
    /// `begin_run` for the first epoch), for the journal's per-epoch deltas.
    prev_links: FastMap<LinkKey, LinkLoad>,
    /// Global arrival index of the next packet (the trace-packet hook key).
    pkt_index: u64,
    epoch_ns: u64,
    /// Timestamp window id (`ts_ns / epoch_ns`) of the open epoch, if any.
    window: Option<u64>,
}

/// A query the analyzer runs in software on mirrored traffic (§5.2): the
/// data plane forwards, the interpreter executes, at per-packet mirroring
/// cost.
struct SoftwareTwin {
    interp: Interpreter,
    cause: TwinCause,
}

/// Why a query runs in software, which decides how long its twin lives.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TwinCause {
    /// Its slices exceed the network's reachable depth: the twin lives as
    /// long as the query.
    Overflow,
    /// A failure left the live data plane unable to execute it. `listed`
    /// tells whether the latest repair pass still lists the query as
    /// degraded; an unlisted twin retires at the next epoch boundary, or
    /// when the next run begins.
    Degraded { listed: bool },
}

impl SoftwareTwin {
    fn new(query: &Query, cause: TwinCause) -> Self {
        SoftwareTwin { interp: Interpreter::new(query.clone()), cause }
    }
}

/// Live operational metrics of the control path, registered under one
/// [`MetricsRegistry`] by [`NewtonSystem::enable_metrics`].
///
/// Two flavours of instrument live here. The `controller_*_ns` histograms
/// time real wall clock around each control-plane operation — data that is
/// nondeterministic by nature and therefore lives strictly outside the
/// telemetry journal (the journal byte-identity tests pin that metrics
/// on/off changes nothing the journal records). The `compile_cache_*` and
/// `channel_*` counters mirror the controller's own cumulative stats
/// structs ([`Controller::cache_stats`], [`Controller::channel_stats`])
/// into the registry via [`Counter::store_total`] after every operation,
/// so a scrape always sees the same totals the structs would report.
struct SystemMetrics {
    registry: MetricsRegistry,
    install_ns: Histogram,
    update_ns: Histogram,
    remove_ns: Histogram,
    retune_ns: Histogram,
    repair_ns: Histogram,
    cache_hits: Counter,
    cache_misses: Counter,
    channel_rules_installed: Counter,
    channel_rules_removed: Counter,
    channel_rules_modified: Counter,
    channel_messages: Counter,
    channel_bytes: Counter,
}

impl SystemMetrics {
    fn register(reg: &MetricsRegistry) -> Self {
        SystemMetrics {
            registry: reg.clone(),
            install_ns: reg
                .histogram("controller_install_ns", "Wall-clock nanoseconds per query install"),
            update_ns: reg
                .histogram("controller_update_ns", "Wall-clock nanoseconds per in-place update"),
            remove_ns: reg
                .histogram("controller_remove_ns", "Wall-clock nanoseconds per query removal"),
            retune_ns: reg
                .histogram("controller_retune_ns", "Wall-clock nanoseconds per threshold retune"),
            repair_ns: reg
                .histogram("controller_repair_ns", "Wall-clock nanoseconds per repair pass"),
            cache_hits: reg.counter("compile_cache_hits_total", "Compilation-cache lookups served"),
            cache_misses: reg
                .counter("compile_cache_misses_total", "Compilation-cache lookups compiled fresh"),
            channel_rules_installed: reg
                .counter("channel_rules_installed_total", "Rules shipped over the rule channel"),
            channel_rules_removed: reg
                .counter("channel_rules_removed_total", "Rule removals over the rule channel"),
            channel_rules_modified: reg
                .counter("channel_rules_modified_total", "In-place rule edits over the channel"),
            channel_messages: reg
                .counter("channel_messages_total", "Per-switch rule-channel batches issued"),
            channel_bytes: reg.counter("channel_bytes_total", "Modelled rule-channel bytes"),
        }
    }

    /// Mirror the controller's cumulative stats into the registry.
    fn sync_controller(&self, controller: &Controller) {
        let cache = controller.cache_stats();
        self.cache_hits.store_total(cache.hits);
        self.cache_misses.store_total(cache.misses);
        let ch = controller.channel_stats();
        self.channel_rules_installed.store_total(ch.rules_installed);
        self.channel_rules_removed.store_total(ch.rules_removed);
        self.channel_rules_modified.store_total(ch.rules_modified);
        self.channel_messages.store_total(ch.messages);
        self.channel_bytes.store_total(ch.bytes);
    }
}

/// The full Newton stack: network + controller + analyzer.
pub struct NewtonSystem {
    net: Network,
    controller: Controller,
    analyzer: Analyzer,
    mapping: HostMapping,
    stages_per_switch: usize,
    /// Every query that runs in software, in id order: install-time
    /// overflow and failure degradation alike.
    twins: BTreeMap<QueryId, SoftwareTwin>,
    /// Whether scheduled events trigger the controller's repair loop.
    repair_enabled: bool,
    /// Journal writer: `None` (the default) records nothing; a
    /// [`Recorder`] journals deterministic per-epoch events.
    recorder: Option<Recorder>,
    /// Global packet index to journal a full execution trace for
    /// (the `NEWTON_TRACE_PACKET` hook).
    trace_packet_idx: Option<u64>,
    /// Modeled-time cursor: the epoch currently executing, stamped onto
    /// controller spans and dynamics events.
    current_epoch: u64,
    /// Keep only this many trailing entries of `RunReport::epochs`
    /// (`None` keeps all): bounds a soak run's only per-epoch growth.
    epoch_retention: Option<usize>,
    /// Capacity high-water mark of the per-slice delivery batch, carried
    /// across slices so streamed segments reuse one steady allocation.
    batch_hint: usize,
    /// Live operational metrics (`None`, the default, costs nothing on any
    /// path; see [`NewtonSystem::enable_metrics`]).
    metrics: Option<SystemMetrics>,
}

impl NewtonSystem {
    /// Build a system over `topo` with default pipelines and compiler.
    pub fn new(topo: Topology) -> Self {
        Self::with_config(topo, PipelineConfig::default(), CompilerConfig::default(), 12)
    }

    /// Full-control constructor (8 concurrent-query register slots).
    pub fn with_config(
        topo: Topology,
        pipeline: PipelineConfig,
        compiler: CompilerConfig,
        stages_per_switch: usize,
    ) -> Self {
        Self::with_config_slots(topo, pipeline, compiler, stages_per_switch, 8)
    }

    /// [`with_config`](Self::with_config) with an explicit concurrent-query
    /// slot budget: installs beyond it fail with
    /// [`InstallError::SlotsExhausted`](newton_controller::InstallError)
    /// instead of aliasing register ranges.
    pub fn with_config_slots(
        topo: Topology,
        pipeline: PipelineConfig,
        compiler: CompilerConfig,
        stages_per_switch: usize,
        register_slots: u32,
    ) -> Self {
        NewtonSystem {
            net: Network::new(topo, pipeline),
            controller: Controller::with_slots(compiler, 0xA11CE, register_slots),
            analyzer: Analyzer::new(),
            mapping: HostMapping::ByAddress,
            stages_per_switch,
            twins: BTreeMap::new(),
            repair_enabled: true,
            recorder: None,
            trace_packet_idx: std::env::var("NEWTON_TRACE_PACKET")
                .ok()
                .and_then(|v| v.parse().ok()),
            current_epoch: 0,
            epoch_retention: None,
            batch_hint: 0,
            metrics: None,
        }
    }

    /// Attach a live [`MetricsRegistry`]: control-plane operations time
    /// themselves into `controller_*_ns` histograms, streamed replays feed
    /// `stream_*`, and the controller's cache/channel stats mirror into
    /// counters.
    ///
    /// Metrics are wall-clock observations and therefore live strictly
    /// outside the telemetry journal: enabling them never changes a byte
    /// of what the [`Recorder`] journals (test-pinned). With no registry
    /// attached every instrument is a no-op handle — one pointer test on
    /// the slow (per-op, per-batch) paths, nothing on the per-packet path.
    pub fn enable_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(SystemMetrics::register(registry));
    }

    /// The attached metrics registry, if any.
    pub fn metrics_registry(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref().map(|m| &m.registry)
    }

    /// Attach (or fetch) the telemetry recorder: subsequent installs,
    /// removes, and trace runs journal into it. With no recorder attached
    /// (the default) telemetry costs nothing.
    pub fn enable_recorder(&mut self) -> &mut Recorder {
        self.recorder.get_or_insert_with(Recorder::new)
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Detach and return the recorder, leaving the system telemetry-free
    /// again.
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.recorder.take()
    }

    /// Journal one packet's full execution trace at its ingress switch
    /// during the next run (`None` disables). Defaults from the
    /// `NEWTON_TRACE_PACKET` environment variable; the packet index is
    /// global across the trace. Requires an attached recorder.
    pub fn set_trace_packet(&mut self, idx: Option<u64>) {
        self.trace_packet_idx = idx;
    }

    /// Enable/disable the controller's failure-repair loop (on by
    /// default). With repair off, a switch that crashes and reboots blank
    /// stays blank — the before/after comparison of the Fig. 9 failure
    /// experiments.
    pub fn set_repair(&mut self, enabled: bool) {
        self.repair_enabled = enabled;
    }

    /// Whether the repair loop runs after scheduled events.
    pub fn repair_enabled(&self) -> bool {
        self.repair_enabled
    }

    /// Select the packet → edge-switch mapping.
    pub fn set_mapping(&mut self, mapping: HostMapping) {
        self.mapping = mapping;
    }

    /// Delivery's thread budget: always one thread. Its only caller is
    /// `perfbench/`.
    pub fn parallelism(&self) -> Parallelism {
        Parallelism { threads: 1 }
    }

    /// Keep only the trailing `cap` entries of [`RunReport::epochs`]
    /// (`None`, the default, keeps the full time series). The per-epoch
    /// series is the only run output that grows with modeled time, so
    /// capping it makes a soak run's footprint independent of trace
    /// length; [`RunReport::epoch_count`] still counts every epoch, and
    /// the cumulative totals are unaffected.
    pub fn set_epoch_retention(&mut self, cap: Option<usize>) {
        self.epoch_retention = cap;
    }

    /// The underlying network (failure injection, inspection).
    pub fn network(&self) -> &Network {
        &self.net
    }

    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// The controller (timing receipts, installed-query inventory).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Mutable controller access (diff-install toggle, channel-stats
    /// resets in benches and equivalence tests).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    /// Run one controller operation. With a registry attached it is timed
    /// into the histogram `hist` picks, failed operations included (a
    /// scrape should see the cost of rejected work, not only the happy
    /// path), and the controller's stats are mirrored afterwards.
    fn timed<R>(
        &mut self,
        hist: fn(&SystemMetrics) -> &Histogram,
        op: impl FnOnce(&mut Controller, &mut Network) -> R,
    ) -> R {
        let start = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let out = op(&mut self.controller, &mut self.net);
        if let (Some(m), Some(t)) = (self.metrics.as_ref(), start) {
            hist(m).observe(t.elapsed().as_nanos() as u64);
            m.sync_controller(&self.controller);
        }
        out
    }

    /// Install a query network-wide; the analyzer learns its plan.
    pub fn install(
        &mut self,
        query: &Query,
    ) -> Result<InstallReceipt, newton_controller::InstallError> {
        let stages = self.stages_per_switch;
        let receipt = self.timed(|m| &m.install_ns, |c, net| c.install(query, net, stages))?;
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(Event::Install {
                epoch: self.current_epoch,
                query: receipt.id,
                rules: receipt.rules,
                switches: receipt.switches,
                slices: receipt.slices,
                overflow_slices: receipt.overflow_slices,
                delay_ms: receipt.delay_ms,
            });
        }
        let plan = self.controller.installed()[&receipt.id].plan.clone();
        self.analyzer.register(receipt.id, plan);
        if receipt.overflow_slices > 0 {
            // The query needs more switches than any path offers; its
            // remainder cannot execute on the data plane, so the analyzer
            // runs the whole query in software on mirrored traffic.
            self.twins.insert(receipt.id, SoftwareTwin::new(query, TwinCause::Overflow));
        }
        Ok(receipt)
    }

    /// Remove a query everywhere.
    pub fn remove(&mut self, id: QueryId) -> Option<InstallReceipt> {
        self.analyzer.unregister(id);
        self.twins.remove(&id);
        let receipt = self.timed(|m| &m.remove_ns, |c, net| c.remove(id, net));
        if let (Some(r), Some(rec)) = (&receipt, self.recorder.as_mut()) {
            rec.record(Event::Remove {
                epoch: self.current_epoch,
                query: r.id,
                rules: r.rules,
                switches: r.switches,
                delay_ms: r.delay_ms,
            });
        }
        receipt
    }

    /// Update a live query in place: same [`QueryId`], same register
    /// slot, diff-based rule push when the placement shape is unchanged
    /// (see [`Controller::update`]). The analyzer re-learns the plan and
    /// the query's software twin, if any, is refreshed under the stable
    /// id, so incident attribution and journal spans stay continuous.
    pub fn update(
        &mut self,
        id: QueryId,
        query: &Query,
    ) -> Result<InstallReceipt, newton_controller::UpdateError> {
        let stages = self.stages_per_switch;
        let receipt = self.timed(|m| &m.update_ns, |c, net| c.update(id, query, net, stages))?;
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(Event::Update {
                epoch: self.current_epoch,
                query: receipt.id,
                rules: receipt.rules,
                switches: receipt.switches,
                slices: receipt.slices,
                diff: receipt.diff,
                delay_ms: receipt.delay_ms,
            });
        }
        let plan = self.controller.installed()[&receipt.id].plan.clone();
        self.analyzer.unregister(id);
        self.analyzer.register(receipt.id, plan);
        // An overflow twin follows the new receipt; a degraded twin runs
        // the new query until the next repair pass says otherwise.
        let degraded =
            self.twins.remove(&id).map(|t| t.cause).filter(|&c| c != TwinCause::Overflow);
        let overflow = (receipt.overflow_slices > 0).then_some(TwinCause::Overflow);
        if let Some(cause) = overflow.or(degraded) {
            self.twins.insert(id, SoftwareTwin::new(query, cause));
        }
        Ok(receipt)
    }

    /// Retune a live query's report threshold in place (a handful of rule
    /// modifications; epoch state survives — see
    /// [`Controller::retune_threshold`]).
    pub fn retune_threshold(
        &mut self,
        id: QueryId,
        new_threshold: u64,
    ) -> Result<InstallReceipt, newton_controller::RetuneError> {
        self.timed(|m| &m.retune_ns, |c, net| c.retune_threshold(id, new_threshold, net))
    }

    /// Whether a query runs in software because its slices exceed the
    /// network's reachable depth.
    pub fn runs_in_software(&self, id: QueryId) -> bool {
        self.twins.get(&id).is_some_and(|t| t.cause == TwinCause::Overflow)
    }

    /// One mirrored message per packet matching any branch's front
    /// filters — what the fallback costs the monitoring plane.
    fn fallback_mirrors(query: &Query, pkt: &Packet) -> bool {
        let v = FieldVector::from_packet(pkt);
        query.branches.iter().any(|b| {
            b.primitives.iter().take_while(|p| matches!(p, Primitive::Filter(_))).all(|p| match p {
                Primitive::Filter(preds) => preds.iter().all(|q| q.eval(v)),
                _ => true,
            })
        })
    }

    /// The (ingress, egress) edge switches a packet enters and leaves
    /// through under the configured [`HostMapping`]. Public so external
    /// harnesses (the soak bench's sequential-delivery baseline) can
    /// replay a trace through [`Network::deliver`] on exactly the routes
    /// the system itself would use.
    pub fn endpoints(&self, pkt: &Packet) -> (NodeId, NodeId) {
        match self.mapping {
            HostMapping::Fixed { ingress, egress } => (ingress, egress),
            HostMapping::ByAddress => {
                let edges = self.net.topology().edge_switches();
                let pick = |ip: u32, salt: u64| {
                    edges[(mix64(ip as u64 ^ salt) % edges.len() as u64) as usize]
                };
                (pick(pkt.src_ip, 0x11), pick(pkt.dst_ip, 0x22))
            }
        }
    }

    /// Run a trace in `epoch_ms` windows; returns the per-query final
    /// report sets and overhead accounting. Data-plane state resets at
    /// every epoch boundary.
    pub fn run_trace(&mut self, trace: &Trace, epoch_ms: u64) -> RunReport {
        self.run_trace_with_events(trace, epoch_ms, &mut newton_net::EventSchedule::new())
    }

    /// [`run_trace`](Self::run_trace) with scheduled network dynamics: each
    /// event fires once simulated time passes its timestamp (Fig. 9's
    /// failure scenarios, scripted). After every advance that fired, the
    /// controller's repair loop re-places slices lost to switch crashes
    /// and degrades unexecutable queries to the software interpreter for
    /// the remainder of the epoch (unless [`set_repair`](Self::set_repair)
    /// disabled it). The schedule is also advanced at each epoch boundary
    /// and drained past trace end, so every event fires exactly once and
    /// `events.pending()` is 0 when this returns.
    pub fn run_trace_with_events(
        &mut self,
        trace: &Trace,
        epoch_ms: u64,
        events: &mut newton_net::EventSchedule,
    ) -> RunReport {
        let mut cur = self.begin_run(epoch_ms);
        self.ingest_slice(trace.packets(), &mut cur, events);
        self.end_run(cur, events)
    }

    /// Run a [`StreamConfig`]'s segments through the epoch loop without
    /// ever materializing the trace: segments are generated on the fly by
    /// [`StreamReplay`]'s bounded producer pool and their buffers recycled
    /// after delivery, so peak memory is `O(producers × queue_depth ×
    /// segment size)` — independent of the stream length. The run is
    /// byte-identical (reports and telemetry journal) to
    /// [`run_trace`](Self::run_trace) over
    /// [`StreamConfig::materialize`]'s trace, at every pool shape: the
    /// driver below is the same code for both, and segment boundaries only
    /// add extra delivery-batch flushes, which are invisible because
    /// [`Network::deliver_batch`] is per-packet delivery in order.
    pub fn run_stream(
        &mut self,
        cfg: &StreamConfig,
        epoch_ms: u64,
        opts: &ReplayOptions,
    ) -> RunReport {
        self.run_stream_with_events(cfg, epoch_ms, opts, &mut newton_net::EventSchedule::new())
    }

    /// [`run_stream`](Self::run_stream) with scheduled network dynamics —
    /// the streamed twin of
    /// [`run_trace_with_events`](Self::run_trace_with_events).
    pub fn run_stream_with_events(
        &mut self,
        cfg: &StreamConfig,
        epoch_ms: u64,
        opts: &ReplayOptions,
        events: &mut newton_net::EventSchedule,
    ) -> RunReport {
        let mut cur = self.begin_run(epoch_ms);
        // With a registry attached the replay reports lane occupancy,
        // backpressure stalls, and buffer-recycle hit rates; the packets
        // it yields are byte-identical either way.
        let stream_metrics = match self.metrics.as_ref() {
            Some(m) => {
                // Same lane count `start_observed` derives, so the gauge
                // family matches the pool exactly (0 lanes = inline mode).
                let lanes = opts.producers.min(cfg.segments as usize);
                StreamMetrics::register(&m.registry, lanes)
            }
            None => StreamMetrics::default(),
        };
        let mut replay = StreamReplay::start_observed(cfg.clone(), opts, stream_metrics);
        while let Some(seg) = replay.next_segment() {
            self.ingest_slice(seg.packets(), &mut cur, events);
            replay.recycle(seg);
        }
        self.end_run(cur, events)
    }

    /// Set up a run of the packet-driven epoch driver and return a fresh
    /// [`RunCursor`]. Degraded twins that the latest repair pass no longer
    /// lists retire; the listed ones keep running, since the failure that
    /// degraded them still stands. The driver is `begin_run` →
    /// [`ingest_slice`](Self::ingest_slice) (any number of
    /// timestamp-ordered slices) → [`end_run`](Self::end_run); epoch
    /// boundaries are detected per packet from its timestamp window, so
    /// materialized traces and streamed segments share every line of the
    /// loop.
    fn begin_run(&mut self, epoch_ms: u64) -> RunCursor {
        self.twins.retain(|_, t| t.cause != TwinCause::Degraded { listed: false });
        self.current_epoch = 0;
        RunCursor {
            report: RunReport::default(),
            epoch: EpochReport::default(),
            // Link counters are cumulative over the network's lifetime:
            // the first epoch's deltas start from where the last run left
            // them.
            prev_links: self.net.link_loads_sorted().into_iter().collect(),
            pkt_index: 0,
            epoch_ns: epoch_ms.max(1) * 1_000_000,
            window: None,
        }
    }

    /// Drive one timestamp-ordered slice of packets through the run:
    /// every epoch boundary the slice crosses gets its full boundary work
    /// ([`close_epoch`](Self::close_epoch)), exactly as the materialized
    /// loop performed between `Trace::epochs` windows. The delivery batch
    /// is local to the slice (its `&Packet` borrows must end before a
    /// streamed segment's buffer is recycled) and is flushed on exit; a
    /// segment boundary mid-epoch therefore only splits a delivery batch,
    /// which is unobservable.
    fn ingest_slice(
        &mut self,
        pkts: &[Packet],
        cur: &mut RunCursor,
        events: &mut newton_net::EventSchedule,
    ) {
        let mut batch: Vec<(&Packet, NodeId, NodeId)> =
            Vec::with_capacity(self.batch_hint.min(pkts.len()));
        for pkt in pkts {
            let w = pkt.ts_ns / cur.epoch_ns;
            match cur.window {
                Some(open) if open == w => {}
                Some(_) => {
                    // The slice crossed into a later window (packets are
                    // sorted): boundary work for the open epoch, then the
                    // new window opens under the next ordinal.
                    self.flush_batch(&mut batch, &mut cur.epoch);
                    self.close_epoch(cur, events);
                    cur.window = Some(w);
                    self.current_epoch = cur.epoch.index;
                }
                None => cur.window = Some(w),
            }
            cur.epoch.packets += 1;
            // Packets queued so far must route under the pre-event
            // state: flush the batch before any scheduled dynamic
            // fires, then advance the schedule and repair.
            if events.next_ts().is_some_and(|t| pkt.ts_ns >= t) {
                self.flush_batch(&mut batch, &mut cur.epoch);
                let adv = events.advance_network(pkt.ts_ns, &mut self.net);
                self.apply_dynamics(adv, cur);
            }
            let (ingress, egress) = self.endpoints(pkt);
            if self.trace_packet_idx == Some(cur.pkt_index) && self.recorder.is_some() {
                // Flush so the traced packet sees exactly the ingress
                // state it would meet in delivery order, then walk a
                // cloned switch — the real one is untouched.
                self.flush_batch(&mut batch, &mut cur.epoch);
                let traces: Vec<String> =
                    newton_dataplane::debug::trace_packet(self.net.switch(ingress), pkt)
                        .iter()
                        .map(|t| t.to_string())
                        .collect();
                if let Some(rec) = self.recorder.as_mut() {
                    rec.record(Event::PacketTrace {
                        index: cur.pkt_index,
                        switch: ingress,
                        traces,
                    });
                }
            }
            cur.pkt_index += 1;
            batch.push((pkt, ingress, egress));
            for twin in self.twins.values_mut() {
                if Self::fallback_mirrors(twin.interp.query(), pkt) {
                    cur.epoch.add_messages(1, pkt.wire_len as u64);
                    twin.interp.observe(pkt);
                }
            }
        }
        self.flush_batch(&mut batch, &mut cur.epoch);
        self.batch_hint = self.batch_hint.max(batch.capacity());
    }

    /// The boundary work of the open epoch: fire in-window trailing
    /// events, probe-and-finalize the analyzer, file every query's keys,
    /// retire healed software twins, add the epoch to the run totals and
    /// file it, journal the epoch telemetry, and reset data-plane state.
    /// The delivery batch must already be flushed.
    fn close_epoch(&mut self, cur: &mut RunCursor, events: &mut newton_net::EventSchedule) {
        let Some(window) = cur.window else { return };
        // Epochs are timestamp windows; the window's own end, not the
        // last packet's timestamp, is when boundary work happens.
        // Events timestamped after the epoch's last packet still
        // belong to this window: fire them before the boundary probes,
        // exactly as wall-clock hardware would lose state before the
        // epoch read-out.
        let epoch_end_ns = (window + 1) * cur.epoch_ns;
        if events.next_ts().is_some_and(|t| t <= epoch_end_ns) {
            let adv = events.advance_network(epoch_end_ns, &mut self.net);
            self.apply_dynamics(adv, cur);
        }
        let next = EpochReport { index: cur.epoch.index + 1, ..EpochReport::default() };
        let mut ep = std::mem::replace(&mut cur.epoch, next);
        let report = &mut cur.report;
        let mut counts: BTreeMap<QueryId, u64> = BTreeMap::new();
        for (id, keys) in self.finish_epoch() {
            file_keys(report, &mut counts, id, keys.iter().copied());
        }
        // Software twins report in id order. A degraded twin that the
        // latest repair pass no longer lists retires here: degradation
        // lasts "the remainder of the epoch".
        let Self { twins, recorder, .. } = self;
        twins.retain(|&id, twin| {
            let keys = twin.interp.end_epoch().reported;
            file_keys(report, &mut counts, id, keys.iter().copied());
            let TwinCause::Degraded { listed } = twin.cause else { return true };
            report.degraded_query_epochs += 1;
            if let (false, Some(rec)) = (listed, recorder.as_mut()) {
                rec.record(Event::QueryHealed { epoch: ep.index, query: id });
            }
            listed
        });
        report.incidents.end_epoch();
        ep.reported = counts.into_iter().collect();
        report.tally(&ep);
        if self.recorder.is_some() {
            self.emit_epoch_telemetry(&ep, &mut cur.prev_links);
        }
        cur.report.epoch_count += 1;
        if let Some(cap) = self.epoch_retention {
            let excess = (cur.report.epochs.len() + 1).saturating_sub(cap.max(1));
            cur.report.epochs.drain(..excess);
        }
        cur.report.epochs.push(ep);
        self.net.clear_state();
    }

    /// Close the final epoch, drain the event schedule past the trace end
    /// (schedules always finish empty — replays would otherwise see stale
    /// cursors), and finalize the run totals: repair messages that trailing
    /// events cost belong to no epoch, but count toward the run.
    fn end_run(&mut self, mut cur: RunCursor, events: &mut newton_net::EventSchedule) -> RunReport {
        self.close_epoch(&mut cur, events);
        self.current_epoch = cur.report.epoch_count;
        let adv = events.advance_network(u64::MAX, &mut self.net);
        self.apply_dynamics(adv, &mut cur);
        cur.report.tally(&cur.epoch);
        cur.report
    }

    /// Journal the epoch-boundary telemetry: the epoch summary, then each
    /// switch's state-bank counters and occupied stage gauges (switch-id
    /// order), then the epoch's per-link load deltas (canonical link
    /// order). Every value derives from modeled state, so the journal is
    /// byte-identical from run to run.
    fn emit_epoch_telemetry(
        &mut self,
        ep: &EpochReport,
        prev_links: &mut FastMap<LinkKey, LinkLoad>,
    ) {
        let Some(rec) = self.recorder.as_mut() else { return };
        rec.record(Event::EpochSummary {
            epoch: ep.index,
            packets: ep.packets,
            messages: ep.messages,
            message_bytes: ep.message_bytes,
            unrouted: ep.unrouted,
            snapshot_bytes: ep.snapshot_bytes,
            reported: ep.reported.clone(),
        });
        for sw in 0..self.net.switch_count() {
            // Drained before the epoch reset, so the counters cover exactly
            // this window.
            let stats = self.net.switch_mut(sw).take_bank_stats();
            if stats != BankStats::default() {
                rec.record(Event::StateBank {
                    epoch: ep.index,
                    switch: sw,
                    insertions: stats.insertions,
                    collisions: stats.collisions,
                    evictions: stats.evictions,
                });
            }
            let stages = self.net.switch(sw).config().stages;
            for stage in 0..stages {
                let u = self.net.switch(sw).stage_utilization(stage);
                if u.rules == 0 {
                    continue;
                }
                rec.record(Event::StageGauge {
                    epoch: ep.index,
                    switch: sw,
                    stage,
                    modules: u.modules,
                    rules: u.rules,
                    sram: u.resources.sram,
                    tcam: u.resources.tcam,
                    hash_bits: u.resources.hash_bits,
                    salus: u.resources.salu,
                });
            }
        }
        for (key, load) in self.net.link_loads_sorted() {
            let delta = prev_links.get(&key).map_or(load, |p| load.since(p));
            if delta.is_empty() {
                continue;
            }
            let (a, b) = key.endpoints();
            rec.record(Event::LinkLoad {
                epoch: ep.index,
                a,
                b,
                packets: delta.packets,
                payload_bytes: delta.payload_bytes,
                snapshot_bytes: delta.snapshot_bytes,
            });
            prev_links.insert(key, load);
        }
    }

    /// Deliver and drain the queued batch into the open epoch's counters
    /// (each mirrored report is one 32-byte message).
    fn flush_batch(&mut self, batch: &mut Vec<(&Packet, NodeId, NodeId)>, ep: &mut EpochReport) {
        let out = self.net.deliver_batch(batch);
        batch.clear();
        ep.snapshot_bytes += out.snapshot_bytes as u64;
        ep.unrouted += out.unrouted as u64;
        ep.add_messages(out.reports.len() as u64, 32);
        for (_, r) in out.reports {
            self.analyzer.ingest(&r);
        }
    }

    /// Bookkeeping after an [`EventSchedule`](newton_net::EventSchedule)
    /// advance: account state loss, then run the controller's repair pass
    /// and refresh the software twins. Repair rule pushes are charged to
    /// the open epoch as 64-byte control-channel messages and to the
    /// report as modelled rule-channel delay.
    fn apply_dynamics(&mut self, adv: newton_net::AdvanceOutcome, cur: &mut RunCursor) {
        if adv.fired == 0 {
            return;
        }
        let report = &mut cur.report;
        report.state_loss_events += adv.state_loss as u64;
        if adv.state_loss > 0 {
            if let Some(rec) = self.recorder.as_mut() {
                rec.record(Event::StateLoss {
                    epoch: self.current_epoch,
                    switches: adv.state_loss,
                });
            }
        }
        if !self.repair_enabled {
            return;
        }
        let outcome = self.repair_pass();
        cur.report.repairs += outcome.repaired.len() as u64;
        cur.report.repair_delay_ms += outcome.delay_ms;
        cur.epoch.add_messages(outcome.rules_installed as u64, 64);
    }

    /// One controller repair pass over the live topology, with full
    /// telemetry and degraded-twin bookkeeping: re-places slices lost to
    /// switch crashes, journals the span, starts a software twin for each
    /// newly degraded query and marks every degraded twin listed or not.
    /// Shared by the in-run event path
    /// ([`apply_dynamics`](Self::apply_dynamics)) and the live service path
    /// ([`repair_now`](Self::repair_now)).
    fn repair_pass(&mut self) -> RepairOutcome {
        let outcome = self.timed(|m| &m.repair_ns, |c, net| c.repair(net));
        if let Some(rec) = self.recorder.as_mut() {
            // `repaired`/`degraded` come out sorted (the repair pass walks
            // query ids in order), so the span is canonical as-is.
            rec.record(Event::Repair {
                epoch: self.current_epoch,
                examined: outcome.examined,
                repaired: outcome.repaired.clone(),
                degraded: outcome.degraded.clone(),
                rules_installed: outcome.rules_installed,
                switches_touched: outcome.switches_touched,
                delay_ms: outcome.delay_ms,
            });
        }
        for (id, twin) in &mut self.twins {
            if let TwinCause::Degraded { listed } = &mut twin.cause {
                *listed = outcome.degraded.contains(id);
            }
        }
        for &id in &outcome.degraded {
            // A query with a twin already runs in software: an overflow
            // query whole, a degraded one since an earlier pass.
            if self.twins.contains_key(&id) {
                continue;
            }
            if let Some(entry) = self.controller.installed().get(&id) {
                let twin = SoftwareTwin::new(&entry.query, TwinCause::Degraded { listed: true });
                self.twins.insert(id, twin);
                if let Some(rec) = self.recorder.as_mut() {
                    rec.record(Event::QueryDegraded { epoch: self.current_epoch, query: id });
                }
            }
        }
        outcome
    }

    /// Apply one network dynamic **now** — the live service path (no open
    /// trace run): `newtond` routes operator-injected failures/restores
    /// through here. State loss is journaled exactly as a scheduled event
    /// would be; the caller decides whether to follow with
    /// [`repair_now`](Self::repair_now).
    pub fn inject_event(&mut self, event: newton_net::NetworkEvent) -> newton_net::AdvanceOutcome {
        let mut once = newton_net::EventSchedule::new().at(0, event);
        let adv = once.advance_network(u64::MAX, &mut self.net);
        if adv.state_loss > 0 {
            if let Some(rec) = self.recorder.as_mut() {
                rec.record(Event::StateLoss {
                    epoch: self.current_epoch,
                    switches: adv.state_loss,
                });
            }
        }
        adv
    }

    /// Run a controller repair pass **now** — the live service twin of the
    /// in-run repair triggered by scheduled events. Journals the repair
    /// span and maintains the degraded-query software twins. Software
    /// twins observe traffic only inside a `run_*` call: a query this pass
    /// lists as degraded runs in software through the next run (until an
    /// in-run repair pass stops listing it), and one it no longer lists
    /// retires when that run begins.
    pub fn repair_now(&mut self) -> RepairOutcome {
        self.repair_pass()
    }

    /// Probe-and-finalize the current epoch without resetting state.
    ///
    /// A key's per-branch counts may split across the switches holding the
    /// probed slice (one per traffic entry point), so register reads SUM
    /// over holders — partial counters add up to the network-wide
    /// aggregate, and Bloom bits saturate harmlessly.
    pub fn finish_epoch(&mut self) -> FastMap<QueryId, FastSet<u64>> {
        let net = &self.net;
        let read = move |query: QueryId,
                         slice: usize,
                         addr: newton_dataplane::ModuleAddr,
                         idx: usize| {
            let mut total: Option<u32> = None;
            for sw in 0..net.switch_count() {
                if let Some(v) = net.switch(sw).read_slice_register(query, slice as u8, addr, idx) {
                    total = Some(total.unwrap_or(0).saturating_add(v));
                }
            }
            total
        };
        self.analyzer.end_epoch(&read)
    }
}

/// File one query's reported keys for the closing epoch: its per-query
/// count, its incidents, and the run's union of reported keys.
fn file_keys(
    report: &mut RunReport,
    counts: &mut BTreeMap<QueryId, u64>,
    id: QueryId,
    keys: impl ExactSizeIterator<Item = u64> + Clone,
) {
    *counts.entry(id).or_default() += keys.len() as u64;
    report.incidents.observe_epoch(id, keys.clone());
    report.reported.entry(id).or_default().extend(keys);
}

#[cfg(test)]
mod tests {
    use super::*;
    use newton_query::catalog;
    use newton_trace::attacks::InjectSpec;
    use newton_trace::background::TraceConfig;
    use newton_trace::AttackKind;

    fn attack_trace(kind: AttackKind) -> (Trace, u32) {
        let mut trace = Trace::background(&TraceConfig {
            packets: 8_000,
            flows: 500,
            duration_ms: 200,
            ..Default::default()
        });
        let guilty = trace
            .inject(
                kind,
                &InjectSpec { intensity: 150, window_ns: 90_000_000, ..Default::default() },
            )
            .guilty;
        (trace, guilty)
    }

    #[test]
    fn end_to_end_detection_on_fat_tree() {
        // A port scan has ONE source, so all its packets enter the fabric
        // at one edge switch and the per-ingress query state stays whole.
        // (A many-source flood would fragment across ingresses — the
        // distributed-state limitation §7 acknowledges.)
        let (trace, scanner) = attack_trace(AttackKind::PortScan);
        let mut sys = NewtonSystem::new(Topology::fat_tree(4));
        let receipt = sys.install(&catalog::q4_port_scan()).unwrap();
        let report = sys.run_trace(&trace, 100);
        assert!(report.packets > 0);
        assert!(
            report.reported.get(&receipt.id).is_some_and(|k| k.contains(&(scanner as u64))),
            "scanner {scanner:#x} not reported: {:?}",
            report.reported
        );
        assert!(report.overhead_ratio() < 0.01, "precise exportation expected");
    }

    #[test]
    fn deferred_q9_completes_through_system_probing() {
        // Q9's conjunction resolves by epoch-end register probes routed
        // through the placement — the full production loop.
        let (trace, silent) = attack_trace(AttackKind::DnsNoTcp);
        let mut sys = NewtonSystem::new(Topology::chain(3));
        let receipt = sys.install(&catalog::q9_dns_no_tcp()).unwrap();
        let report = sys.run_trace(&trace, 100);
        let keys = report.reported.get(&receipt.id).cloned().unwrap_or_default();
        assert!(keys.contains(&(silent as u64)), "silent DNS host not flagged: {keys:?}");
    }

    #[test]
    fn install_remove_lifecycle() {
        let mut sys = NewtonSystem::new(Topology::chain(2));
        let r = sys.install(&catalog::q1_new_tcp()).unwrap();
        assert!(sys.network().total_rules() > 0);
        assert!(sys.remove(r.id).is_some());
        assert_eq!(sys.network().total_rules(), 0);
        assert!(sys.remove(r.id).is_none());
    }

    #[test]
    fn overflowing_query_falls_back_to_software() {
        // Two switches with 4-stage budgets cannot host Q4's 4 slices
        // (reachable depth = 2), so the system runs it in software —
        // correct answers, but per-packet mirroring cost.
        let (trace, scanner) = attack_trace(AttackKind::PortScan);
        let mut sys = NewtonSystem::with_config(
            Topology::chain(2),
            PipelineConfig::default(),
            CompilerConfig::default(),
            4,
        );
        let receipt = sys.install(&catalog::q4_port_scan()).unwrap();
        assert!(receipt.overflow_slices > 0, "expected overflow on a 2-switch chain");
        assert!(sys.runs_in_software(receipt.id));
        let report = sys.run_trace(&trace, 100);
        assert!(report.reported[&receipt.id].contains(&(scanner as u64)));
        assert!(
            report.overhead_ratio() > 0.05,
            "software fallback must cost per-packet mirroring (got {:.4})",
            report.overhead_ratio()
        );
    }

    #[test]
    fn fixed_mapping_pins_the_path() {
        let (trace, victim) = attack_trace(AttackKind::SynFlood);
        let mut sys = NewtonSystem::new(Topology::chain(3));
        sys.set_mapping(HostMapping::Fixed { ingress: 0, egress: 2 });
        let receipt = sys.install(&catalog::q6_syn_flood()).unwrap();
        let report = sys.run_trace(&trace, 100);
        assert!(report.reported[&receipt.id].contains(&(victim as u64)));
    }
}
