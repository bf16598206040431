//! Library performance: single-switch pipeline throughput (compiled
//! `ExecPlan` path vs the per-packet reference path, plus the telemetry
//! sinks on the compiled path) and network delivery throughput
//! (per-packet `deliver` vs `deliver_batch`), on the full Q1–Q9 workload.
//!
//! Prints a table and writes machine-readable results to `BENCH_perf.json`
//! at the repository root.
//!
//! ## Honest measurement
//!
//! Every path is timed as **fastest-of-N passes after one untimed warm-up
//! pass**: the minimum pass time is the best estimator of the code's true
//! cost on a shared machine, where scheduler noise, frequency scaling and
//! cold caches only ever make a pass *slower*. All compared paths run the
//! same pass count, so the report-count equality checks still pin them to
//! bit-identical behaviour.
//!
//! Acceptance bars asserted here: the ExecPlan pipeline is ≥2× the
//! reference path, and the telemetry sinks stay cheap on the pipeline hot
//! path.
//!
//! Set `NEWTON_PERF_SMOKE=1` for a CI-sized run: a small trace, fewer
//! passes, loosened wall-clock margins (the tiny trace is noisier than
//! the full one; each gate re-measures once before failing, so
//! shared-runner noise can't flake the job), and no JSON output.

use std::time::Instant;

use newton::compiler::{compile, CompilerConfig};
use newton::dataplane::{PipelineConfig, Switch};
use newton::net::{Network, NodeId, Topology};
use newton::packet::Packet;
use newton::query::catalog;
use newton::telemetry::{NoopSink, Recorder};
use newton_bench::{evaluation_traces, peak_rss_json, print_table};

/// Timed passes over the trace; small enough to keep the bench under a
/// minute, large enough that per-packet costs dominate setup.
const PIPELINE_REPS: usize = 5;
const DELIVERY_REPS: usize = 4;

fn q19_switch() -> Switch {
    let mut sw = Switch::new(PipelineConfig::default());
    for (i, q) in catalog::all_queries().iter().enumerate() {
        let compiled = compile(q, i as u32 + 1, &CompilerConfig::default());
        sw.install(&compiled.rules).unwrap();
    }
    sw
}

/// Fastest-pass packets/sec over `passes` timed passes of `pass` (after
/// one untimed warm-up pass that faults in pages and grows maps), plus the report-count sink across **all** passes so the
/// work is observable and comparable across paths.
fn best_rate(packets: usize, passes: usize, mut pass: impl FnMut() -> usize) -> (f64, usize) {
    let mut sink = pass();
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let start = Instant::now();
        sink += pass();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (packets as f64 / best, sink)
}

fn q19_network() -> (Network, Vec<NodeId>) {
    let topo = Topology::fat_tree(4);
    let edges: Vec<NodeId> = topo.edge_switches().to_vec();
    let mut net = Network::new(topo, PipelineConfig::default());
    for (i, q) in catalog::all_queries().iter().enumerate() {
        let compiled = compile(q, i as u32 + 1, &CompilerConfig::default());
        let sw = edges[i % edges.len()];
        net.switch_mut(sw).install(&compiled.rules).unwrap();
    }
    (net, edges)
}

fn endpoints(edges: &[NodeId], n: usize) -> Vec<(NodeId, NodeId)> {
    (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (
                edges[(x % edges.len() as u64) as usize],
                edges[((x >> 32) % edges.len() as u64) as usize],
            )
        })
        .collect()
}

fn fmt_rate(r: f64) -> String {
    format!("{:.2} Mpkt/s", r / 1e6)
}

fn main() {
    let smoke = std::env::var_os("NEWTON_PERF_SMOKE").is_some();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Smoke passes stay cheap (~ms each on the small trace) but there must
    // be several of them: fastest-of-1 on a shared CI runner is noise, and
    // the wall-clock gates below would flake on it.
    let (trace_len, pipeline_reps, delivery_reps): (usize, usize, usize) =
        if smoke { (8_000, 3, 3) } else { (40_000, PIPELINE_REPS, DELIVERY_REPS) };

    // One evaluation trace with all nine attack behaviours injected, so
    // every query has work to do.
    let traces = evaluation_traces(trace_len);
    let packets = traces[0].1.packets();

    // --- Single-switch pipeline: ExecPlan path vs reference path. ---
    let mut sw = q19_switch();
    let (ref_rate, ref_sink) = best_rate(packets.len(), pipeline_reps, || {
        packets.iter().map(|p| sw.process_reference(p, None).reports.len()).sum()
    });
    let mut sw = q19_switch();
    let (plan_rate, plan_sink) = best_rate(packets.len(), pipeline_reps, || {
        packets.iter().map(|p| sw.process(p, None).reports.len()).sum()
    });
    assert_eq!(plan_sink, ref_sink, "planned and reference paths must emit equal report counts");
    let pipeline_speedup = plan_rate / ref_rate;

    // --- Telemetry sinks on the same hot path. `process_sink::<NoopSink>`
    // must monomorphize to the plain `process` (the `if T::ENABLED` guard
    // compiles the sink branch away), so its rate is gated within 2% of
    // the ExecPlan rate; the recording sink pays for event pushes and is
    // gated within 15%.
    let mut sw = q19_switch();
    let mut noop = NoopSink;
    let (noop_rate, noop_sink) = best_rate(packets.len(), pipeline_reps, || {
        packets.iter().map(|p| sw.process_sink(p, None, &mut noop).reports.len()).sum()
    });
    assert_eq!(noop_sink, plan_sink, "the no-op sink must not change pipeline behaviour");
    let mut sw = q19_switch();
    let mut recorder = Recorder::new();
    let (recorder_rate, recorder_sink) = best_rate(packets.len(), pipeline_reps, || {
        recorder.clear();
        packets.iter().map(|p| sw.process_sink(p, None, &mut recorder).reports.len()).sum()
    });
    assert_eq!(recorder_sink, plan_sink, "the recorder sink must not change pipeline behaviour");

    // --- Network delivery: per-packet deliver vs deliver_batch, timed
    // identically (fastest of N passes).
    let pairs = endpoints(&q19_network().1, packets.len());
    let triples: Vec<(&Packet, NodeId, NodeId)> =
        packets.iter().zip(&pairs).map(|(p, &(ig, eg))| (p, ig, eg)).collect();

    let (mut net, _) = q19_network();
    let (seq_rate, seq_reports) = best_rate(triples.len(), delivery_reps, || {
        triples.iter().map(|&(p, ig, eg)| net.deliver(p, ig, eg).reports.len()).sum()
    });

    let (mut net, _) = q19_network();
    let (batch_rate, batch_reports) =
        best_rate(triples.len(), delivery_reps, || net.deliver_batch(&triples).reports.len());
    assert_eq!(
        batch_reports, seq_reports,
        "batch and sequential delivery must emit equal report counts"
    );
    let delivery_speedup = batch_rate / seq_rate;

    let rows = vec![
        vec!["Switch::process_reference".into(), fmt_rate(ref_rate), "1.00x".into()],
        vec![
            "Switch::process (ExecPlan)".into(),
            fmt_rate(plan_rate),
            format!("{pipeline_speedup:.2}x"),
        ],
        vec![
            "Switch::process_sink (NoopSink)".into(),
            fmt_rate(noop_rate),
            format!("{:.2}x", noop_rate / plan_rate),
        ],
        vec![
            "Switch::process_sink (Recorder)".into(),
            fmt_rate(recorder_rate),
            format!("{:.2}x", recorder_rate / plan_rate),
        ],
        vec!["Network::deliver (sequential)".into(), fmt_rate(seq_rate), "1.00x".into()],
        vec![
            "Network::deliver_batch".into(),
            fmt_rate(batch_rate),
            format!("{delivery_speedup:.2}x"),
        ],
    ];
    print_table(
        "Pipeline & delivery throughput (Q1–Q9 workload)",
        &["Path", "Throughput", "Speedup"],
        &rows,
    );

    // Smoke gates run on shared CI runners with a deliberately tiny trace;
    // their margins are loosened so only a real regression — not
    // noisy-neighbor scheduling — fails the job. The full run keeps the
    // publication bars.
    let pipeline_floor = if smoke { 1.5 } else { 2.0 };
    assert!(
        pipeline_speedup >= pipeline_floor,
        "acceptance: ExecPlan pipeline must be >= {pipeline_floor}x reference \
         (got {pipeline_speedup:.2}x)"
    );
    // Telemetry overhead gates. The no-op sink runs the *same machine
    // code* as `process`, so a measured gap is pure scheduler noise —
    // re-measure both sides once before failing. Smoke margins are
    // loosened like the pipeline bar above: the tiny smoke trace swings
    // ±15% under noisy neighbors.
    let (noop_floor, recorder_floor) = if smoke { (0.85, 0.70) } else { (0.98, 0.85) };
    let mut noop_ratio = noop_rate / plan_rate;
    let mut recorder_ratio = recorder_rate / plan_rate;
    if noop_ratio < noop_floor || recorder_ratio < recorder_floor {
        println!(
            "note: telemetry gate at noop {noop_ratio:.3}x / recorder {recorder_ratio:.3}x \
             on first measurement, re-measuring once"
        );
        let mut sw = q19_switch();
        let (plan2, _) = best_rate(packets.len(), pipeline_reps, || {
            packets.iter().map(|p| sw.process(p, None).reports.len()).sum()
        });
        let mut sw = q19_switch();
        let (noop2, _) = best_rate(packets.len(), pipeline_reps, || {
            packets.iter().map(|p| sw.process_sink(p, None, &mut noop).reports.len()).sum()
        });
        let mut sw = q19_switch();
        let (rec2, _) = best_rate(packets.len(), pipeline_reps, || {
            recorder.clear();
            packets.iter().map(|p| sw.process_sink(p, None, &mut recorder).reports.len()).sum()
        });
        noop_ratio = noop_ratio.max(noop2 / plan2);
        recorder_ratio = recorder_ratio.max(rec2 / plan2);
    }
    assert!(
        noop_ratio >= noop_floor,
        "acceptance: NoopSink pipeline rate must stay within 2% of process \
         (smoke: 15%) — got {noop_ratio:.3}x"
    );
    assert!(
        recorder_ratio >= recorder_floor,
        "acceptance: Recorder pipeline rate must stay within 15% of process \
         (smoke: 30%) — got {recorder_ratio:.3}x"
    );
    if smoke {
        println!("\nsmoke mode: equality + perf gates passed, skipping BENCH_perf.json");
        return;
    }

    let json = format!(
        "{{\n  \"workload\": \"Q1-Q9, CAIDA-like trace, {} packets\",\n  \
         \"timing\": \"fastest of {delivery_reps} passes after 1 warm-up pass\",\n  \
         \"pipeline_reference_pkts_per_sec\": {ref_rate:.0},\n  \
         \"pipeline_execplan_pkts_per_sec\": {plan_rate:.0},\n  \
         \"pipeline_speedup\": {pipeline_speedup:.3},\n  \
         \"pipeline_noop_sink_pkts_per_sec\": {noop_rate:.0},\n  \
         \"pipeline_recorder_pkts_per_sec\": {recorder_rate:.0},\n  \
         \"delivery_sequential_pkts_per_sec\": {seq_rate:.0},\n  \
         \"delivery_batch_pkts_per_sec\": {batch_rate:.0},\n  \
         \"delivery_speedup\": {delivery_speedup:.3},\n  \
         \"delivery_note\": \"deliver_batch is per-packet deliver over the batch minus \
         per-call allocations; delivery_speedup measures only that saving\",\n  \
         \"peak_rss_bytes\": {},\n  \
         \"benched_on_cores\": {cores}\n}}\n",
        packets.len(),
        peak_rss_json(),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
    std::fs::write(out, &json).expect("write BENCH_perf.json");
    println!("\nwrote {out}");
}
