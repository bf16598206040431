//! Intents as text: operators write queries in the textual intent
//! language (parse → validate → compile → install), no Rust required.
//!
//! ```sh
//! cargo run --example text_intents
//! cargo run --example text_intents -- --report          # epoch table
//! cargo run --example text_intents -- --json run.jsonl  # telemetry journal
//! ```

use newton::net::Topology;
use newton::packet::flow::fmt_ipv4;
use newton::query::{parse_query, to_text, validate};
use newton::report::ReportOptions;
use newton::trace::attacks::InjectSpec;
use newton::trace::background::TraceConfig;
use newton::trace::{AttackKind, Trace};
use newton::{HostMapping, NewtonSystem};

/// The operator's intent file (e.g. loaded from disk or an API call).
const INTENTS: &[(&str, &str)] = &[
    (
        "web_conn_burst",
        "filter(proto == 6) | filter(tcp.flags == 2) | map(dip) \
         | reduce(dip, count) | where >= 40",
    ),
    (
        "port_scanners",
        "filter(proto == 6) | filter(tcp.flags == 2) | map(sip, dport) \
         | distinct(sip, dport) | map(sip) | reduce(sip, count) | where >= 30",
    ),
    ("jumbo_senders", "map(sip) | reduce(sip, max(len)) | where >= 1200"),
];

/// An intent with a bug, to show the validator at work.
const BROKEN: &str = "filter(proto == 999) | where >= 0";

fn main() {
    let mut sys = NewtonSystem::new(Topology::chain(3));
    sys.set_mapping(HostMapping::Fixed { ingress: 0, egress: 2 });
    let opts = ReportOptions::from_args().unwrap_or_else(|err| {
        eprintln!("text_intents: {err}");
        eprintln!("usage: text_intents [--report] [--json PATH]");
        std::process::exit(2)
    });
    if opts.wants_recorder() {
        sys.enable_recorder();
    }

    let mut names = std::collections::HashMap::new();
    for (name, text) in INTENTS {
        let query = parse_query(name, text).expect("intent parses");
        let problems = validate(&query);
        assert!(problems.is_empty(), "{name}: {problems:?}");
        let receipt = sys.install(&query).expect("install");
        println!("installed `{name}` ({} rules, {:.1} ms):", receipt.rules, receipt.delay_ms);
        println!("    {}", to_text(&query).replace('\n', "\n    "));
        names.insert(receipt.id, name.to_string());
    }

    // The broken intent is rejected BEFORE it reaches any switch.
    let broken = parse_query("broken", BROKEN).expect("syntactically fine");
    let problems = validate(&broken);
    println!("\nrejected `broken` with {} problem(s):", problems.len());
    for p in &problems {
        println!("    {p}");
    }
    assert!(!problems.is_empty());

    // Traffic with a port scan and some jumbo frames.
    let mut trace = Trace::background(&TraceConfig {
        packets: 20_000,
        flows: 1_000,
        duration_ms: 300,
        ..Default::default()
    });
    trace.inject(
        AttackKind::PortScan,
        &InjectSpec { intensity: 120, window_ns: 250_000_000, ..Default::default() },
    );

    let report = sys.run_trace(&trace, 100);
    println!("\n{}", newton::report::render_summary(&report));
    println!("findings:");
    for i in report.incidents.incidents() {
        println!("  [{}] {}", names[&i.query], fmt_ipv4(i.key as u32));
    }
    newton::report::emit(&mut sys, &report, &opts);
    let scanner = *trace.guilty(AttackKind::PortScan).iter().next().unwrap();
    assert!(
        report.reported.values().any(|k| k.contains(&(scanner as u64))),
        "scanner must be found"
    );
    println!("\ntext intents end to end: parse → validate → compile → detect.");
}
