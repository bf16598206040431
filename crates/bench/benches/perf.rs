//! Library performance: single-switch pipeline throughput (compiled
//! `ExecPlan` path vs the per-packet reference path), the ingress walk's
//! cost per query (each of Q1–Q9 alone against an empty switch, and Q3
//! against the same sketch updates made directly through `newton-sketch`),
//! and network delivery throughput (per-packet `deliver` vs
//! `deliver_batch`), on the full Q1–Q9 workload.
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
//! Acceptance bar asserted here: the ExecPlan pipeline is ≥2× the
//! reference path.
//!
//! Set `NEWTON_PERF_SMOKE=1` for a CI-sized run: a small trace, fewer
//! passes, a loosened wall-clock margin (the tiny trace is noisier than
//! the full one), and no JSON output.

use std::time::Instant;

use newton::compiler::{compile, CompilerConfig};
use newton::dataplane::{PipelineConfig, Switch};
use newton::net::{Network, NodeId, Topology};
use newton::packet::{Field, FieldVector, Packet};
use newton::query::catalog;
use newton::sketch::{BloomFilter, CountMinSketch};
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
    // the wall-clock gate below would flake on it.
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

    // --- Ingress walk per query: `Switch::process` with no snapshot on an
    // empty switch and on a default switch holding one query, and Q3's
    // floor — the 3 Bloom inserts and, for fresh (sip, dip) pairs, the 2
    // Count-Min updates its rules model, made directly through
    // `newton-sketch`, field parse included. No gate: the rows show how
    // far the rule interpreter sits above the work it models.
    let ingress_ns = |sw: &mut Switch| {
        let (rate, _) = best_rate(packets.len(), pipeline_reps, || {
            packets.iter().map(|p| sw.process(p, None).reports.len()).sum()
        });
        1e9 / rate
    };
    let empty_ns = ingress_ns(&mut Switch::new(PipelineConfig::default()));
    let per_query_ns: Vec<(String, f64)> = catalog::all_queries()
        .iter()
        .map(|q| {
            let mut sw = Switch::new(PipelineConfig::default());
            sw.install(&compile(q, 1, &CompilerConfig::default()).rules).unwrap();
            (q.name.clone(), ingress_ns(&mut sw))
        })
        .collect();
    let registers = PipelineConfig::default().registers_per_array as u32;
    let (pair, src) = (Field::SrcIp.mask() | Field::DstIp.mask(), Field::SrcIp.mask());
    let mut bloom = BloomFilter::new(3, registers, 11);
    let mut cms = CountMinSketch::new(2, registers, 13);
    let (floor_rate, _) = best_rate(packets.len(), pipeline_reps, || {
        packets
            .iter()
            .map(|p| {
                let fields = FieldVector::from_packet(p);
                if bloom.insert(fields.masked(pair).0) {
                    cms.update(fields.masked(src).0, 1) as usize
                } else {
                    0
                }
            })
            .sum()
    });
    let q3_floor_ns = 1e9 / floor_rate;
    let q3_ns = per_query_ns[2].1;
    let mut ingress_rows = vec![vec!["empty switch".into(), format!("{empty_ns:.0}"), "-".into()]];
    for (name, ns) in &per_query_ns {
        ingress_rows.push(vec![name.clone(), format!("{ns:.0}"), format!("+{:.0}", ns - empty_ns)]);
    }
    ingress_rows.push(vec![
        "Q1–Q9 together".into(),
        format!("{:.0}", 1e9 / plan_rate),
        format!("+{:.0}", 1e9 / plan_rate - empty_ns),
    ]);
    ingress_rows.push(vec![
        "Q3 floor (newton-sketch: 3 Bloom + 2 CM)".into(),
        format!("{q3_floor_ns:.0}"),
        format!("Q3 increment = {:.1}x floor", (q3_ns - empty_ns) / q3_floor_ns),
    ]);
    print_table(
        "Ingress walk per query (Switch::process, no snapshot)",
        &["Switch", "ns/pkt", "Increment over empty (ns)"],
        &ingress_rows,
    );

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

    // The smoke gate runs on shared CI runners with a deliberately tiny
    // trace; its margin is loosened so only a real regression — not
    // noisy-neighbor scheduling — fails the job. The full run keeps the
    // publication bar.
    let pipeline_floor = if smoke { 1.5 } else { 2.0 };
    assert!(
        pipeline_speedup >= pipeline_floor,
        "acceptance: ExecPlan pipeline must be >= {pipeline_floor}x reference \
         (got {pipeline_speedup:.2}x)"
    );
    if smoke {
        println!("\nsmoke mode: equality checks + perf gate passed, skipping BENCH_perf.json");
        return;
    }

    let per_query_json: Vec<String> =
        per_query_ns.iter().map(|(name, ns)| format!("\"{name}\": {ns:.1}")).collect();
    let json = format!(
        "{{\n  \"workload\": \"Q1-Q9, CAIDA-like trace, {} packets\",\n  \
         \"timing\": \"fastest of {delivery_reps} passes after 1 warm-up pass\",\n  \
         \"pipeline_reference_pkts_per_sec\": {ref_rate:.0},\n  \
         \"pipeline_execplan_pkts_per_sec\": {plan_rate:.0},\n  \
         \"pipeline_speedup\": {pipeline_speedup:.3},\n  \
         \"ingress_empty_ns_per_pkt\": {empty_ns:.1},\n  \
         \"ingress_ns_per_pkt\": {{{}}},\n  \
         \"ingress_q3_sketch_floor_ns_per_pkt\": {q3_floor_ns:.1},\n  \
         \"delivery_sequential_pkts_per_sec\": {seq_rate:.0},\n  \
         \"delivery_batch_pkts_per_sec\": {batch_rate:.0},\n  \
         \"delivery_speedup\": {delivery_speedup:.3},\n  \
         \"delivery_note\": \"deliver_batch is per-packet deliver over the batch minus \
         per-call allocations; delivery_speedup measures only that saving\",\n  \
         \"peak_rss_bytes\": {},\n  \
         \"benched_on_cores\": {cores}\n}}\n",
        packets.len(),
        per_query_json.join(", "),
        peak_rss_json(),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
    std::fs::write(out, &json).expect("write BENCH_perf.json");
    println!("\nwrote {out}");
}
