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

use newton_analyzer::{Analyzer, IncidentLog, OverheadMeter};
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
use newton_telemetry::{Event, Recorder, Telemetry};
use newton_trace::stream::{ReplayOptions, StreamConfig, StreamMetrics, StreamReplay};
use newton_trace::Trace;
use std::collections::HashMap;

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
}

/// In-flight state of one run of the packet-driven epoch driver
/// (`begin_run` → `ingest_slice`* → `end_run`): everything the old
/// monolithic trace loop kept on its stack, lifted into a cursor so
/// materialized traces and streamed segments share the same loop.
struct RunCursor {
    report: RunReport,
    meter: OverheadMeter,
    /// Cumulative-counter checkpoint of the previous epoch boundary that
    /// turns the run meter into the per-epoch time series.
    prev: EpochReport,
    prev_links: FastMap<LinkKey, LinkLoad>,
    /// Global arrival index of the next packet (the trace-packet hook key).
    pkt_index: u64,
    epoch_ns: u64,
    /// Timestamp window id (`ts_ns / epoch_ns`) of the open epoch, if any.
    window: Option<u64>,
    /// Ordinal of the open epoch among non-empty windows — the
    /// `current_epoch` stamp while it executes and its
    /// [`EpochReport::index`].
    ordinal: u64,
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
    /// Queries whose slices exceed the network's reachable depth run their
    /// logic on the analyzer instead (§5.2): the data plane forwards, the
    /// software executes — at per-packet mirroring cost.
    software_fallback: HashMap<QueryId, (Query, Interpreter)>,
    /// Queries a failure has degraded below data-plane coverage: their
    /// software twins run until a repair pass restores full placement.
    /// Cleared at the start of every trace run.
    degraded: HashMap<QueryId, (Query, Interpreter)>,
    /// The ids the *latest* repair pass still lists as degraded; entries of
    /// `degraded` absent from this set retire at the next epoch boundary.
    degraded_ids: FastSet<QueryId>,
    /// Whether scheduled events trigger the controller's repair loop.
    repair_enabled: bool,
    /// Telemetry sink: `None` (the default) costs nothing; a [`Recorder`]
    /// journals deterministic per-epoch events.
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
            software_fallback: HashMap::new(),
            degraded: HashMap::new(),
            degraded_ids: FastSet::default(),
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

    /// Install a query network-wide; the analyzer learns its plan.
    pub fn install(
        &mut self,
        query: &Query,
    ) -> Result<InstallReceipt, newton_controller::InstallError> {
        let start = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let result = self.controller.install(query, &mut self.net, self.stages_per_switch);
        if let (Some(m), Some(t)) = (self.metrics.as_ref(), start) {
            // Failed installs are timed too: a scrape should see the cost
            // of rejected work, not only the happy path.
            m.install_ns.observe(t.elapsed().as_nanos() as u64);
            m.sync_controller(&self.controller);
        }
        let receipt = result?;
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
            self.software_fallback
                .insert(receipt.id, (query.clone(), Interpreter::new(query.clone())));
        }
        Ok(receipt)
    }

    /// Remove a query everywhere.
    pub fn remove(&mut self, id: QueryId) -> Option<InstallReceipt> {
        self.analyzer.unregister(id);
        self.software_fallback.remove(&id);
        let start = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let receipt = self.controller.remove(id, &mut self.net);
        if let (Some(m), Some(t)) = (self.metrics.as_ref(), start) {
            m.remove_ns.observe(t.elapsed().as_nanos() as u64);
            m.sync_controller(&self.controller);
        }
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
    /// the software-fallback twin is refreshed under the stable id, so
    /// incident attribution and journal spans stay continuous.
    pub fn update(
        &mut self,
        id: QueryId,
        query: &Query,
    ) -> Result<InstallReceipt, newton_controller::UpdateError> {
        let start = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let result = self.controller.update(id, query, &mut self.net, self.stages_per_switch);
        if let (Some(m), Some(t)) = (self.metrics.as_ref(), start) {
            m.update_ns.observe(t.elapsed().as_nanos() as u64);
            m.sync_controller(&self.controller);
        }
        let receipt = result?;
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
        self.software_fallback.remove(&id);
        if receipt.overflow_slices > 0 {
            self.software_fallback
                .insert(receipt.id, (query.clone(), Interpreter::new(query.clone())));
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
        let start = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let result = self.controller.retune_threshold(id, new_threshold, &mut self.net);
        if let (Some(m), Some(t)) = (self.metrics.as_ref(), start) {
            m.retune_ns.observe(t.elapsed().as_nanos() as u64);
            m.sync_controller(&self.controller);
        }
        result
    }

    /// Whether a query fell back to software execution.
    pub fn runs_in_software(&self, id: QueryId) -> bool {
        self.software_fallback.contains_key(&id)
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

    /// Set up a run of the packet-driven epoch driver: degraded-set reset
    /// and a fresh [`RunCursor`]. The driver
    /// is `begin_run` → [`ingest_slice`](Self::ingest_slice) (any number
    /// of timestamp-ordered slices) → [`end_run`](Self::end_run); epoch
    /// boundaries are detected per packet from its timestamp window, so
    /// materialized traces and streamed segments share every line of the
    /// loop.
    fn begin_run(&mut self, epoch_ms: u64) -> RunCursor {
        self.degraded.clear();
        self.degraded_ids.clear();
        self.current_epoch = 0;
        RunCursor {
            report: RunReport::default(),
            meter: OverheadMeter::new(),
            prev: EpochReport::default(),
            prev_links: FastMap::default(),
            pkt_index: 0,
            epoch_ns: epoch_ms.max(1) * 1_000_000,
            window: None,
            ordinal: 0,
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
                    self.flush_batch(&mut batch, &mut cur.report, &mut cur.meter);
                    self.close_epoch(cur, events);
                    cur.window = Some(w);
                    cur.ordinal += 1;
                    self.current_epoch = cur.ordinal;
                }
                None => cur.window = Some(w),
            }
            cur.meter.packet();
            // Packets queued so far must route under the pre-event
            // state: flush the batch before any scheduled dynamic
            // fires, then advance the schedule and repair.
            if events.next_ts().is_some_and(|t| pkt.ts_ns >= t) {
                self.flush_batch(&mut batch, &mut cur.report, &mut cur.meter);
                let adv = events.advance_network(pkt.ts_ns, &mut self.net);
                self.apply_dynamics(adv, &mut cur.report, &mut cur.meter);
            }
            let (ingress, egress) = self.endpoints(pkt);
            if self.trace_packet_idx == Some(cur.pkt_index) && self.recorder.is_some() {
                // Flush so the traced packet sees exactly the ingress
                // state it would meet in delivery order, then walk a
                // cloned switch — the real one is untouched.
                self.flush_batch(&mut batch, &mut cur.report, &mut cur.meter);
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
            for (query, interp) in
                self.software_fallback.values_mut().chain(self.degraded.values_mut())
            {
                if Self::fallback_mirrors(query, pkt) {
                    cur.meter.message(pkt.wire_len as u64);
                    interp.observe(pkt);
                }
            }
        }
        self.flush_batch(&mut batch, &mut cur.report, &mut cur.meter);
        self.batch_hint = self.batch_hint.max(batch.capacity());
    }

    /// The boundary work of the open epoch: fire in-window trailing
    /// events, probe-and-finalize the analyzer, retire healed software
    /// twins, checkpoint the per-epoch time-series entry, journal the
    /// epoch telemetry, and reset data-plane state. The delivery batch
    /// must already be flushed.
    fn close_epoch(&mut self, cur: &mut RunCursor, events: &mut newton_net::EventSchedule) {
        let Some(window) = cur.window else { return };
        let epoch_idx = cur.ordinal;
        // Epochs are timestamp windows; the window's own end, not the
        // last packet's timestamp, is when boundary work happens.
        // Events timestamped after the epoch's last packet still
        // belong to this window: fire them before the boundary probes,
        // exactly as wall-clock hardware would lose state before the
        // epoch read-out.
        let epoch_end_ns = (window + 1) * cur.epoch_ns;
        if events.next_ts().is_some_and(|t| t <= epoch_end_ns) {
            let adv = events.advance_network(epoch_end_ns, &mut self.net);
            self.apply_dynamics(adv, &mut cur.report, &mut cur.meter);
        }
        let report = &mut cur.report;
        let mut epoch_reported: FastMap<QueryId, u64> = FastMap::default();
        for (id, keys) in self.finish_epoch() {
            *epoch_reported.entry(id).or_default() += keys.len() as u64;
            report.incidents.observe_epoch(id, keys.iter().copied());
            report.reported.entry(id).or_default().extend(keys);
        }
        for (&id, (_, interp)) in &mut self.software_fallback {
            let keys = interp.end_epoch().reported;
            *epoch_reported.entry(id).or_default() += keys.len() as u64;
            report.incidents.observe_epoch(id, keys.iter().copied());
            report.reported.entry(id).or_default().extend(keys);
        }
        // Degraded queries report from their software twins; twins the
        // latest repair pass cleared retire here — degradation lasts
        // "the remainder of the epoch".
        let mut healed: Vec<QueryId> = Vec::new();
        for (&id, (_, interp)) in &mut self.degraded {
            report.degraded_query_epochs += 1;
            let keys = interp.end_epoch().reported;
            *epoch_reported.entry(id).or_default() += keys.len() as u64;
            report.incidents.observe_epoch(id, keys.iter().copied());
            report.reported.entry(id).or_default().extend(keys);
            if !self.degraded_ids.contains(&id) {
                healed.push(id);
            }
        }
        // Sorted so heal events journal in a canonical order (the
        // degraded map iterates in hash order).
        healed.sort_unstable();
        for id in healed {
            self.degraded.remove(&id);
            if let Some(rec) = self.recorder.as_mut() {
                rec.record(Event::QueryHealed { epoch: epoch_idx, query: id });
            }
        }
        report.incidents.end_epoch();
        // The epoch's time-series entry: deltas of the cumulative run
        // counters since the previous boundary.
        let mut reported: Vec<(QueryId, u64)> = epoch_reported.into_iter().collect();
        reported.sort_unstable_by_key(|&(q, _)| q);
        let ep = EpochReport {
            index: epoch_idx,
            packets: cur.meter.raw_packets() - cur.prev.packets,
            messages: cur.meter.messages() - cur.prev.messages,
            message_bytes: cur.meter.message_bytes() - cur.prev.message_bytes,
            unrouted: cur.meter.unrouted_packets() - cur.prev.unrouted,
            snapshot_bytes: report.snapshot_bytes - cur.prev.snapshot_bytes,
            reported,
        };
        cur.prev = EpochReport {
            packets: cur.meter.raw_packets(),
            messages: cur.meter.messages(),
            message_bytes: cur.meter.message_bytes(),
            unrouted: cur.meter.unrouted_packets(),
            snapshot_bytes: cur.report.snapshot_bytes,
            ..EpochReport::default()
        };
        if self.recorder.is_some() {
            self.emit_epoch_telemetry(&ep, &mut cur.prev_links);
        }
        cur.report.epoch_count += 1;
        if let Some(cap) = self.epoch_retention {
            while cur.report.epochs.len() >= cap.max(1) {
                cur.report.epochs.remove(0);
            }
        }
        cur.report.epochs.push(ep);
        self.net.clear_state();
    }

    /// Close the final epoch, drain the event schedule past the trace end
    /// (schedules always finish empty — replays would otherwise see stale
    /// cursors), and finalize the run totals.
    fn end_run(&mut self, mut cur: RunCursor, events: &mut newton_net::EventSchedule) -> RunReport {
        self.close_epoch(&mut cur, events);
        self.current_epoch = cur.report.epoch_count;
        let adv = events.advance_network(u64::MAX, &mut self.net);
        self.apply_dynamics(adv, &mut cur.report, &mut cur.meter);
        cur.report.messages = cur.meter.messages();
        cur.report.packets = cur.meter.raw_packets();
        cur.report.unrouted = cur.meter.unrouted_packets();
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

    /// Deliver and drain the queued batch into the report and meter.
    fn flush_batch(
        &mut self,
        batch: &mut Vec<(&Packet, NodeId, NodeId)>,
        report: &mut RunReport,
        meter: &mut OverheadMeter,
    ) {
        let out = self.net.deliver_batch(batch);
        batch.clear();
        report.snapshot_bytes += out.snapshot_bytes as u64;
        meter.unrouted(out.unrouted as u64);
        for (_, r) in out.reports {
            meter.message(32);
            self.analyzer.ingest(&r);
        }
    }

    /// Bookkeeping after an [`EventSchedule`](newton_net::EventSchedule)
    /// advance: account state loss, then run the controller's repair pass
    /// and refresh the degraded set. Repair rule pushes are charged to the
    /// meter as control-channel messages and to the report as modelled
    /// rule-channel delay.
    fn apply_dynamics(
        &mut self,
        adv: newton_net::AdvanceOutcome,
        report: &mut RunReport,
        meter: &mut OverheadMeter,
    ) {
        if adv.fired == 0 {
            return;
        }
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
        report.repairs += outcome.repaired.len() as u64;
        report.repair_delay_ms += outcome.delay_ms;
        for _ in 0..outcome.rules_installed {
            meter.message(64);
        }
    }

    /// One controller repair pass over the live topology, with full
    /// telemetry and degraded-twin bookkeeping: re-places slices lost to
    /// switch crashes, journals the span, and swaps software interpreters
    /// in (or marks them for retirement) for queries the live data plane
    /// can or cannot execute. Shared by the in-run event path
    /// ([`apply_dynamics`](Self::apply_dynamics)) and the live service path
    /// ([`repair_now`](Self::repair_now)).
    fn repair_pass(&mut self) -> RepairOutcome {
        let start = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let outcome = self.controller.repair(&mut self.net);
        if let (Some(m), Some(t)) = (self.metrics.as_ref(), start) {
            m.repair_ns.observe(t.elapsed().as_nanos() as u64);
            m.sync_controller(&self.controller);
        }
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
        self.degraded_ids.clear();
        for &id in &outcome.degraded {
            // Overflow queries already run whole in software; no second
            // interpreter.
            if self.software_fallback.contains_key(&id) {
                continue;
            }
            self.degraded_ids.insert(id);
            if !self.degraded.contains_key(&id) {
                if let Some(entry) = self.controller.installed().get(&id) {
                    self.degraded
                        .insert(id, (entry.query.clone(), Interpreter::new(entry.query.clone())));
                    if let Some(rec) = self.recorder.as_mut() {
                        rec.record(Event::QueryDegraded { epoch: self.current_epoch, query: id });
                    }
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
    /// span and maintains the degraded-query software twins. Note the live
    /// path caveat: software twins only observe traffic inside a
    /// subsequent `run_*` call, and `begin_run` re-derives nothing — a
    /// failure left standing across runs should be repaired (or scheduled
    /// as an in-run event) before the next run starts.
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
