//! Live metrics stay strictly outside the determinism contract: attaching
//! a `MetricsRegistry` to a run must not move the telemetry journal by a
//! byte. Wall-clock facts (operation latencies, throughput counters, lane
//! occupancy) live only in the registry, which is explicitly
//! nondeterministic.
//!
//! Also covered here:
//! * the controller op histograms count exactly one observation per
//!   control-plane call, and the cache/channel mirror counters equal the
//!   controller's own structs;
//! * the streamed replay registers its lane/recycle family and the
//!   recycle counters balance against segments produced.

use newton::metrics::MetricsRegistry;
use newton::net::Topology;
use newton::query::catalog;
use newton::trace::attacks::InjectSpec;
use newton::trace::background::TraceConfig;
use newton::trace::{AttackKind, ReplayOptions, StreamConfig, Trace};
use newton::NewtonSystem;

/// Thousands of packets per 50 ms epoch.
fn busy_trace() -> Trace {
    let mut trace = Trace::background(&TraceConfig {
        packets: 6_000,
        flows: 400,
        duration_ms: 100,
        ..Default::default()
    });
    trace.inject(
        AttackKind::PortScan,
        &InjectSpec { intensity: 150, window_ns: 90_000_000, ..Default::default() },
    );
    trace
}

/// A streamed twin of [`busy_trace`]'s shape: 3 segments of background
/// traffic replayed through the bounded-memory producer/consumer path.
fn stream_config() -> StreamConfig {
    StreamConfig {
        segments: 3,
        segment: TraceConfig { packets: 2_000, flows: 200, duration_ms: 100, ..Default::default() },
        ..Default::default()
    }
}

fn fresh_system(metrics: Option<&MetricsRegistry>) -> NewtonSystem {
    let mut sys = NewtonSystem::new(Topology::fat_tree(4));
    if let Some(reg) = metrics {
        sys.enable_metrics(reg);
    }
    sys.install(&catalog::q4_port_scan()).unwrap();
    sys.install(&catalog::q1_new_tcp()).unwrap();
    sys
}

#[test]
fn journal_bytes_are_identical_with_and_without_metrics() {
    let trace = busy_trace();
    let journal = |metrics: Option<&MetricsRegistry>| {
        let mut sys = fresh_system(metrics);
        sys.enable_recorder();
        sys.run_trace(&trace, 50);
        sys.take_recorder().expect("recorder attached").journal.to_jsonl()
    };
    let plain = journal(None);
    assert!(!plain.is_empty(), "a busy run journals events");
    let registry = MetricsRegistry::new();
    let observed = journal(Some(&registry));
    assert_eq!(observed, plain, "attaching metrics moved journal bytes");
    // The comparison is non-vacuous: the registry really recorded the run
    // it rode along on.
    assert_eq!(
        registry.histogram_snapshot("controller_install_ns").map(|h| h.count()),
        Some(2),
        "one observation per install"
    );
}

#[test]
fn streamed_journal_bytes_are_identical_with_and_without_metrics() {
    let cfg = stream_config();
    let journal = |producers: usize, metrics: Option<&MetricsRegistry>| {
        let mut sys = fresh_system(metrics);
        sys.enable_recorder();
        sys.run_stream(&cfg, 50, &ReplayOptions { producers, queue_depth: 2 });
        sys.take_recorder().expect("recorder attached").journal.to_jsonl()
    };
    for producers in [0usize, 2] {
        let plain = journal(producers, None);
        assert!(!plain.is_empty());
        let registry = MetricsRegistry::new();
        let observed = journal(producers, Some(&registry));
        assert_eq!(observed, plain, "streamed journal diverged at {producers} producers");
        // The stream family registered and balanced: every segment the
        // replay handed out came from either a recycled or a fresh buffer.
        let hits = registry.value("stream_recycle_hits_total").unwrap_or(0);
        let misses = registry.value("stream_recycle_misses_total").unwrap_or(0);
        assert_eq!(hits + misses, cfg.segments, "recycle hits+misses covers every segment");
    }
}

#[test]
fn controller_op_histograms_and_mirrors_track_the_control_plane() {
    let registry = MetricsRegistry::new();
    let mut sys = NewtonSystem::new(Topology::fat_tree(4));
    sys.enable_metrics(&registry);

    let a = sys.install(&catalog::q4_port_scan()).unwrap();
    let b = sys.install(&catalog::q1_new_tcp()).unwrap();
    sys.retune_threshold(a.id, 40).unwrap();
    sys.update(b.id, &catalog::q2_ssh_brute()).unwrap();
    sys.remove(a.id).unwrap();

    let count = |name: &str| {
        registry.histogram_snapshot(name).unwrap_or_else(|| panic!("{name} registered")).count()
    };
    assert_eq!(count("controller_install_ns"), 2);
    assert_eq!(count("controller_retune_ns"), 1);
    assert_eq!(count("controller_update_ns"), 1);
    assert_eq!(count("controller_remove_ns"), 1);

    // Latency histograms are sane: every op took measurable time and the
    // quantiles are ordered.
    let h = registry.histogram_snapshot("controller_install_ns").unwrap();
    assert!(h.sum > 0, "installs take nonzero wall-clock");
    assert!(h.p50() <= h.p90() && h.p90() <= h.p99() && h.p99() <= h.max);

    // The live mirrors equal the controller's own structs, lazily synced
    // after every timed op.
    let cache = sys.controller().cache_stats();
    assert_eq!(registry.value("compile_cache_hits_total"), Some(cache.hits));
    assert_eq!(registry.value("compile_cache_misses_total"), Some(cache.misses));
    let ch = sys.controller().channel_stats();
    assert_eq!(registry.value("channel_rules_installed_total"), Some(ch.rules_installed));
    assert_eq!(registry.value("channel_rules_removed_total"), Some(ch.rules_removed));
    assert_eq!(registry.value("channel_rules_modified_total"), Some(ch.rules_modified));
    assert_eq!(registry.value("channel_messages_total"), Some(ch.messages));
    assert_eq!(registry.value("channel_bytes_total"), Some(ch.bytes));
    assert!(ch.rules_installed > 0, "the mirror comparison is non-trivial");
}
