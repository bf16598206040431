//! Bounded-memory streamed replay: monitor a trace that is generated
//! *while it replays*, never materialized.
//!
//! ```sh
//! cargo run --release --example streaming_soak                  # 10⁶ packets
//! cargo run --release --example streaming_soak -- --packets 20000000
//! cargo run --release --example streaming_soak -- --producers 2 --queue-depth 8
//! ```
//!
//! A [`StreamConfig`] describes the workload as fixed-shape segments —
//! segment `i` is a pure function of `(seed, i)` — so a producer pool can
//! generate them on the fly through bounded queues while the epoch loop
//! consumes them in order. Peak memory is the pool shape
//! (`producers × (queue_depth + 2)` segment buffers, recycled), not the
//! trace length; epoch reports are checkpointed to a rolling window. The
//! full-scale version of this, with RSS and throughput gates, is
//! `cargo bench -p newton-bench --bench soak`.

use newton::net::Topology;
use newton::query::catalog;
use newton::trace::stream::{PulseSpec, ReplayOptions, StreamConfig};
use newton::trace::{AttackKind, TraceConfig};
use newton::NewtonSystem;
use std::time::Instant;

fn arg(name: &str) -> Option<u64> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            return Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                panic!("{name} expects a positive integer");
            }));
        }
    }
    None
}

fn main() {
    const SEGMENT_PACKETS: usize = 50_000;
    const EPOCH_MS: u64 = 100;
    let total = arg("--packets").unwrap_or(1_000_000);
    let opts = ReplayOptions {
        producers: arg("--producers").unwrap_or(1) as usize,
        queue_depth: arg("--queue-depth").unwrap_or(4) as usize,
    };

    // The workload: an endless-shape stream of background traffic with a
    // port scan pulsing every third 100 ms segment.
    let cfg = StreamConfig {
        seed: 7,
        segments: (total / SEGMENT_PACKETS as u64).max(1),
        segment: TraceConfig {
            packets: SEGMENT_PACKETS,
            flows: 2_000,
            duration_ms: EPOCH_MS,
            ..TraceConfig::default()
        },
        pulses: vec![PulseSpec { kind: AttackKind::PortScan, intensity: 300, period: 3, phase: 0 }],
    };

    let mut sys = NewtonSystem::new(Topology::fat_tree(4));
    let receipt = sys.install(&catalog::q4_port_scan()).expect("install");
    println!(
        "installed q4_port_scan — {} rules on {} switches; streaming {} packets \
         through {} producer(s) × depth-{} queues",
        receipt.rules,
        receipt.switches,
        cfg.segments * SEGMENT_PACKETS as u64,
        opts.producers,
        opts.queue_depth,
    );

    // Keep only the newest 64 closed epochs: the report stays a window,
    // however long the stream runs.
    sys.set_epoch_retention(Some(64));

    let start = Instant::now();
    let report = sys.run_stream(&cfg, EPOCH_MS, &opts);
    let secs = start.elapsed().as_secs_f64();
    println!(
        "\nreplayed {} packets in {:.1}s ({:.2} Mpkt/s): {} epochs closed, {} held in the report",
        report.packets,
        secs,
        report.packets as f64 / secs / 1e6,
        report.epoch_count,
        report.epochs.len(),
    );

    let scanner = cfg.guilty(AttackKind::PortScan).expect("scan pulse") as u64;
    let caught = report.reported.values().any(|keys| keys.contains(&scanner));
    assert!(caught, "the pulsed port scanner must be reported");
    println!("pulsed port scanner detected; nothing was ever materialized.");
}
