//! Benchmark of the Newton reproduction: end-to-end metrics of three
//! workloads run with the shipped defaults, and a traced run that
//! attributes them to layers. See `README.md` for the workloads, the
//! metric → layer → workload map and the recorded baseline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Human-readable lines come first, then a `context` line (core count,
//! seed, run length, thread and producer counts). The last line of
//! standard output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}` where `metrics` holds every end-to-end metric (`--trace 0`)
//! or every per-layer metric (`--trace 1`) declared in `BENCHMARK.json`,
//! each as `{"value", "unit"}`. Per-layer metrics of a layer the workload
//! does not call read 0.

mod churn;
mod packets;
mod schema;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use newtond::json::{self, Value};

/// End-to-end metrics every workload reports, in declaration order.
pub const END_TO_END: [&str; 4] = ["throughput", "latency_p50_ms", "setup_s", "peak_rss_mib"];

/// Rounds an untraced run repeats its work in. Timing metrics keep each
/// item's fastest round (`stats::fastest_per_item`).
pub const ROUNDS: usize = 3;

/// Per-layer metrics of the traced run, in declaration order.
pub const PER_LAYER: [&str; 25] = [
    "trace.generate_ns_per_pkt",
    "replay.wait_share",
    "core.endpoints_ns_per_pkt",
    "net.deliver_ns_per_pkt",
    "net.batch_pkts_p50",
    "net.route_ns_per_pkt",
    "net.clear_us_per_epoch",
    "dataplane.pipeline_ns_per_hop",
    "dataplane.hops_per_pkt",
    "dataplane.install_ms",
    "dataplane.rules_held",
    "analyzer.ingest_ns_per_report",
    "analyzer.reports_per_kpkt",
    "analyzer.probe_us_per_epoch",
    "query.parse_us",
    "compiler.compile_us",
    "compiler.cache_hit_ratio",
    "controller.update_ms_p50",
    "controller.retune_us_p50",
    "controller.cycle_ms_p50",
    "controller.rules_per_op",
    "controller.channel_bytes_per_op",
    "newtond.overhead_us_p50",
    "trace.coverage",
    "trace.overhead",
];

/// One run's results: metrics, context, and output-check accounting.
#[derive(Default)]
pub struct Run {
    metrics: BTreeMap<&'static str, f64>,
    context: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
}

impl Run {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn context(&mut self, key: &'static str, value: f64) {
        self.context.push((key, value));
    }

    /// Count one checked result; a non-empty list of violations fails it.
    pub fn attempt(&mut self, violations: Vec<String>) {
        self.attempted += 1;
        if !violations.is_empty() {
            self.failed += 1;
            for v in violations {
                eprintln!("output check failed: {v}");
            }
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: {value:?} is not a number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
    })
}

/// `--summarize`: read result lines (the last line of several runs) from
/// standard input and print each metric's median, quartiles and spread,
/// against a third of its bound where it has one — the stability check
/// applied to a set of runs with different seeds.
fn summarize() -> ExitCode {
    let spec = schema::spec();
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut failed = 0;
    for line in std::io::stdin().lines().map_while(Result::ok) {
        let Ok(result) = json::parse(line.trim()) else { continue };
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            failed += 1;
        }
        let Some(Value::Obj(metrics)) = result.get("metrics") else { continue };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                values.entry(name.clone()).or_default().push(v);
            }
        }
    }
    println!(
        "{:<34} {:>3} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "metric", "n", "median", "q1", "q3", "spread", "bound/3"
    );
    for (name, v) in &values {
        let bound = spec.end_to_end.iter().find(|m| &m.name == name).and_then(|m| m.bound);
        let [q1, q2, q3] = if v.len() >= 2 { stats::quartiles(v) } else { [v[0]; 3] };
        let spread = if v.len() >= 2 { stats::spread(v) } else { 0.0 };
        let limit = bound.map_or(String::from("-"), |b| format!("{:.4}", b / 3.0));
        println!(
            "{name:<34} {:>3} {q2:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {limit:>8}",
            v.len()
        );
    }
    println!("runs with a failed output check: {failed}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--summarize") {
        return summarize();
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = schema::spec();
    let Some(workload) = spec.workload(&args.workload) else {
        eprintln!("unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    println!("workload {}: {}", workload.name, workload.why);

    let mut run = Run::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    run.context("nproc", nproc as f64);
    run.context("seed", args.seed as f64);
    run.context("seconds", args.seconds as f64);
    let (seed, secs) = (args.seed, args.seconds as f64);
    match (workload.name.as_str(), args.trace) {
        ("stream", false) => packets::run(&packets::STREAM, seed, secs, &mut run),
        ("stream", true) => packets::run_traced(&packets::STREAM, seed, secs, &mut run),
        ("epochs", false) => packets::run(&packets::EPOCHS, seed, secs, &mut run),
        ("epochs", true) => packets::run_traced(&packets::EPOCHS, seed, secs, &mut run),
        ("churn", false) => churn::run(seed, secs, &mut run),
        ("churn", true) => churn::run_traced(seed, secs, &mut run),
        (other, _) => {
            eprintln!("workload {other:?} is declared but not implemented");
            return ExitCode::from(2);
        }
    }

    let context: Vec<(&str, Value)> = run.context.iter().map(|&(k, v)| (k, json::num(v))).collect();
    println!("context {}", json::obj(context));
    let declared = if args.trace { &spec.per_layer } else { &spec.end_to_end };
    let mut metrics = Vec::with_capacity(declared.len());
    for m in declared {
        let value = match run.metrics.get(m.name.as_str()) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                run.attempt(vec![format!("end-to-end metric {} was not measured", m.name)]);
                continue;
            }
        };
        println!("{:<34} {value:>16.6} {}", m.name, m.unit);
        metrics.push((
            m.name.as_str(),
            json::obj(vec![("value", json::num(value)), ("unit", json::str(m.unit.as_str()))]),
        ));
    }
    let result = json::obj(vec![
        ("correct", Value::Bool(run.failed == 0 && run.attempted > 0)),
        ("attempted", json::num(run.attempted.max(1) as f64)),
        ("failed", json::num(run.failed as f64)),
        ("metrics", json::obj(metrics)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
