//! A monitoring service in five lines per intent: the [`NewtonSystem`]
//! facade drives the whole stack — network, controller, analyzer — while
//! the operator only writes queries and reads incidents. Also exports the
//! workload as a pcap for inspection with standard tools.
//!
//! ```sh
//! cargo run --example monitoring_service
//! cargo run --example monitoring_service -- --report            # epoch table
//! cargo run --example monitoring_service -- --json run.jsonl    # telemetry journal
//! cargo run --example monitoring_service -- --stream            # streamed ingestion
//! ```
//!
//! `--report` renders the per-epoch time series; `--json PATH` writes the
//! deterministic telemetry journal as JSONL. `--stream` replaces the
//! materialized trace with a streamed one — segments generated by a
//! producer thread through a bounded queue while the epochs execute
//! (DESIGN.md, "Streaming ingestion") — so no pcap is exported: the
//! workload never exists in memory at once. Delivery itself runs on the
//! calling thread (DESIGN.md, "Delivery is single-threaded").
//!
//! [`NewtonSystem`]: newton::NewtonSystem

use newton::net::Topology;
use newton::packet::flow::fmt_ipv4;
use newton::query::catalog;
use newton::report::ReportOptions;
use newton::trace::attacks::InjectSpec;
use newton::trace::background::TraceConfig;
use newton::trace::pcap;
use newton::trace::stream::{PulseSpec, ReplayOptions, StreamConfig};
use newton::trace::{AttackKind, Trace};
use newton::{HostMapping, NewtonSystem};

fn main() {
    // One fabric, one system handle.
    let mut sys = NewtonSystem::new(Topology::fat_tree(4));
    sys.set_mapping(HostMapping::Fixed { ingress: 6, egress: 19 });
    let opts = ReportOptions::from_args();
    if opts.wants_recorder() {
        sys.enable_recorder();
    }

    // The operator's standing intents.
    let intents = [
        catalog::q1_new_tcp(),
        catalog::q4_port_scan(),
        catalog::q6_syn_flood(),
        catalog::q9_dns_no_tcp(),
    ];
    let mut names = std::collections::HashMap::new();
    for q in &intents {
        let receipt = sys.install(q).expect("install");
        println!(
            "installed {:<18} — {} rules on {} switches in {:.1} ms{}",
            q.name,
            receipt.rules,
            receipt.switches,
            receipt.delay_ms,
            if receipt.slices > 1 {
                format!(" ({} CQE slices)", receipt.slices)
            } else {
                String::new()
            },
        );
        names.insert(receipt.id, q.name.clone());
    }

    let streamed = std::env::args().skip(1).any(|a| a == "--stream");

    // Today's traffic: background plus three incidents. In `--stream`
    // mode the same shape is expressed as 100 ms segments with the
    // attacks as recurring pulses, generated while the epochs execute.
    let (report, guilty): (_, Vec<u32>) = if streamed {
        let cfg = StreamConfig {
            seed: 11,
            segments: 4,
            segment: TraceConfig {
                packets: 10_000,
                flows: 2_000,
                duration_ms: 100,
                ..Default::default()
            },
            pulses: vec![
                PulseSpec { kind: AttackKind::PortScan, intensity: 200, period: 4, phase: 0 },
                PulseSpec { kind: AttackKind::SynFlood, intensity: 200, period: 4, phase: 1 },
                PulseSpec { kind: AttackKind::DnsNoTcp, intensity: 200, period: 4, phase: 2 },
            ],
        };
        let guilty = [AttackKind::PortScan, AttackKind::SynFlood, AttackKind::DnsNoTcp]
            .into_iter()
            .filter_map(|k| cfg.guilty(k))
            .collect();
        println!(
            "\nstreaming {} packets (4 segments, bounded queue, nothing materialized)",
            cfg.segments * cfg.segment_packets() as u64
        );
        (sys.run_stream(&cfg, 100, &ReplayOptions::default()), guilty)
    } else {
        let mut trace = Trace::background(&TraceConfig {
            packets: 40_000,
            flows: 2_000,
            duration_ms: 400,
            ..Default::default()
        });
        for (kind, start) in [
            (AttackKind::PortScan, 0u64),
            (AttackKind::SynFlood, 100_000_000),
            (AttackKind::DnsNoTcp, 200_000_000),
        ] {
            trace.inject(
                kind,
                &InjectSpec {
                    intensity: 200,
                    start_ns: start,
                    window_ns: 80_000_000,
                    ..Default::default()
                },
            );
        }

        // Keep an auditable capture of what was monitored.
        let path = std::env::temp_dir().join("newton_monitoring_service.pcap");
        let file = std::fs::File::create(&path).expect("create pcap");
        pcap::write_pcap(std::io::BufWriter::new(file), trace.packets()).expect("write pcap");
        println!("\nworkload captured to {} ({} packets)", path.display(), trace.packets().len());

        let guilty = [AttackKind::PortScan, AttackKind::SynFlood, AttackKind::DnsNoTcp]
            .into_iter()
            .flat_map(|k| trace.guilty(k))
            .collect();
        (sys.run_trace(&trace, 100), guilty)
    };

    // Run the day.
    println!("\n{}", newton::report::render_summary(&report));
    newton::report::emit(&mut sys, &report, &opts);

    println!("\nincidents (with epoch spans):");
    let incidents = report.incidents.incidents();
    for i in &incidents {
        println!(
            "  [{}] {} — epochs {}..{} ({} epoch(s) reported)",
            names[&i.query],
            fmt_ipv4(i.key as u32),
            i.first_epoch,
            i.last_epoch,
            i.epochs_reported
        );
    }
    assert!(incidents.len() >= 3, "all three injected incidents must surface");

    // Verify the injected identities were all caught.
    for g in &guilty {
        let caught = report.reported.values().any(|keys| keys.contains(&(*g as u64)));
        assert!(caught, "culprit {} missed", fmt_ipv4(*g));
    }
    println!("\nall injected incidents detected; forwarding was never touched.");
}
