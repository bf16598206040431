//! Quickstart: express an intent, compile it to table rules, install it
//! into a running switch, and watch it fire on a synthetic trace.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use newton::analyzer::OverheadMeter;
use newton::compiler::{compile, stats_for, CompilerConfig};
use newton::dataplane::{PipelineConfig, Switch};
use newton::packet::flow::fmt_ipv4;
use newton::packet::FieldVector;
use newton::query::catalog;
use newton::telemetry::{render_table, Event, Recorder};
use newton::trace::attacks::InjectSpec;
use newton::trace::background::TraceConfig;
use newton::trace::{AttackKind, Trace};

fn main() {
    // 1. The intent: "monitor hosts receiving many new TCP connections"
    //    (the paper's Q1), written with the Spark-flavoured builder API in
    //    `newton::query::catalog::q1_new_tcp`.
    let query = catalog::q1_new_tcp();
    println!("intent:\n{query}");

    // 2. Compile: primitives decompose into 𝕂/ℍ/𝕊/ℝ module rules
    //    (Algorithm 1 applies Opt.1–3).
    let compiled = compile(&query, 1, &CompilerConfig::default());
    println!(
        "compiled: {} module rules + {} newton_init entries, {} stages (naive would use {})",
        compiled.rules.module_rule_count(),
        compiled.rules.init.len(),
        compiled.composition.stages(),
        stats_for(&query, &CompilerConfig::default()).naive_stages(),
    );

    // 3. Install into a live switch — a pure table-rule operation.
    let mut switch = Switch::new(PipelineConfig::default());
    switch.install(&compiled.rules).expect("rules fit the pipeline");

    // 4. A workload: CAIDA-like background with a burst of new connections
    //    against one server.
    let mut trace = Trace::background(&TraceConfig {
        packets: 40_000,
        flows: 2_000,
        duration_ms: 500,
        ..Default::default()
    });
    let injection = trace
        .inject(
            AttackKind::NewTcpBurst,
            &InjectSpec {
                intensity: 300,
                start_ns: 120_000_000,
                window_ns: 60_000_000,
                ..Default::default()
            },
        )
        .clone();
    let stats = trace.stats();
    println!(
        "trace: {} packets, {} flows; injected {} connection attempts against {}",
        stats.packets,
        stats.flows,
        injection.packets,
        fmt_ipv4(injection.guilty),
    );
    let victim = injection.guilty;

    // 5. Run the trace through the pipeline in 100 ms epochs, journaling
    //    every report the switch emits into a telemetry recorder.
    let mut meter = OverheadMeter::new();
    let mut recorder = Recorder::new();
    let report_field = compiled.plan.branches[0].report_field;
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (e, epoch) in trace.epochs(100).enumerate() {
        for pkt in epoch {
            meter.packet();
            for report in switch.process(pkt, None).reports {
                meter.message(32);
                recorder.record(Event::SwitchReport {
                    query: report.query,
                    branch: report.branch,
                    hash: report.hash_result,
                    state: report.state_result,
                });
                let key = FieldVector(report.op_keys).get(report_field);
                rows.push(vec![
                    e.to_string(),
                    fmt_ipv4(key as u32),
                    report.state_result.to_string(),
                ]);
                assert_eq!(key as u32, victim, "the reported victim is the injected one");
            }
        }
        switch.clear_state();
    }
    print!("{}", render_table("detections", &["epoch", "victim", "new connections"], &rows));

    let journaled = recorder
        .journal
        .events()
        .iter()
        .filter(|e| matches!(e, Event::SwitchReport { .. }))
        .count();
    println!(
        "monitoring overhead: {} messages / {} packets = {:.6} (per-packet exporters sit \
         near 1.0); telemetry journaled {journaled} report event(s)",
        meter.messages(),
        meter.raw_packets(),
        meter.ratio()
    );
    assert_eq!(journaled as u64, meter.messages(), "the recorder saw every report");
}
