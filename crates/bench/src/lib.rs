//! Shared plumbing for the reproduction harness.
//!
//! Every `benches/figNN.rs` / `benches/table3.rs` target regenerates one
//! table or figure of the paper's evaluation (§6) and prints the same
//! rows/series the paper reports. `cargo bench -p newton-bench` runs them
//! all; see EXPERIMENTS.md for the paper-vs-measured record.

use newton::packet::Packet;
use newton::trace::attacks::InjectSpec;
use newton::trace::{AttackKind, Trace};

/// Print a Markdown-ish table: header row, separator, then rows. The
/// rendering itself lives in `newton-telemetry`, shared with the examples'
/// `--report` output.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    print!("{}", newton::telemetry::render_table(title, header, rows));
}

/// The two evaluation traces (CAIDA-like, MAWI-like) with every attack
/// behaviour injected so all nine queries have signal.
pub fn evaluation_traces(packets: usize) -> Vec<(&'static str, Trace)> {
    let mut out = Vec::new();
    for (name, mut trace) in [
        ("CAIDA-like", newton::trace::caida_like(0xCA1DA, packets)),
        ("MAWI-like", newton::trace::mawi_like(0x3A31, packets)),
    ] {
        for (i, kind) in [
            AttackKind::NewTcpBurst,
            AttackKind::SshBrute,
            AttackKind::SuperSpreader,
            AttackKind::PortScan,
            AttackKind::UdpDdos,
            AttackKind::SynFlood,
            AttackKind::CompletedConns,
            AttackKind::Slowloris,
            AttackKind::DnsNoTcp,
        ]
        .into_iter()
        .enumerate()
        {
            trace.inject(
                kind,
                &InjectSpec {
                    seed: 100 + i as u64,
                    intensity: 150,
                    start_ns: (i as u64 % 5) * 100_000_000,
                    window_ns: 80_000_000,
                },
            );
        }
        out.push((name, trace));
    }
    out
}

/// A many-victim Q1 workload for accuracy experiments: `hosts` servers
/// receive 1..=`max_conns` connection attempts each (uniform spread), so
/// the true heavy-hitter set is dense around the threshold.
pub fn graded_syn_workload(hosts: u32, max_conns: u32, seed: u64) -> Vec<Packet> {
    use newton::packet::{PacketBuilder, TcpFlags};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut packets = Vec::new();
    for h in 0..hosts {
        let conns = 1 + (h * max_conns) / hosts;
        for c in 0..conns {
            packets.push(
                PacketBuilder::new()
                    .src_ip(0x0A00_0000 + rng.gen_range(0..1 << 20))
                    .dst_ip(0xAC10_0000 + h)
                    .src_port(rng.gen_range(1024..u16::MAX))
                    .dst_port(443)
                    .tcp_flags(TcpFlags::SYN)
                    .ts_ns((h as u64 * 131 + c as u64 * 7919) % 99_000_000)
                    .build(),
            );
        }
    }
    packets.sort_by_key(|p| p.ts_ns);
    packets
}

/// The process's peak resident set size in bytes (Linux `VmHWM` from
/// `/proc/self/status`), or `None` where that interface doesn't exist.
/// Benches report this as JSON `null` rather than guessing. One shared
/// reader lives in `newton-metrics` (the daemon polls it into a live
/// `process_peak_rss_bytes` gauge; the soak bench does the same during
/// runs); this wrapper only adds the `Option` for JSON `null`.
pub fn peak_rss_bytes() -> Option<u64> {
    match newton::metrics::peak_rss_bytes() {
        0 => None,
        b => Some(b),
    }
}

/// [`peak_rss_bytes`] rendered for hand-rolled JSON: the number, or
/// `null` on platforms without the procfs interface.
pub fn peak_rss_json() -> String {
    peak_rss_bytes().map_or_else(|| "null".into(), |b| b.to_string())
}

/// Pretty format a ratio in scientific-ish notation.
pub fn fmt_ratio(r: f64) -> String {
    if r == 0.0 {
        "0".into()
    } else if r >= 0.01 {
        format!("{r:.4}")
    } else {
        format!("{r:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(0.0), "0");
        assert_eq!(fmt_ratio(0.0438), "0.0438");
        assert!(fmt_ratio(0.00047).contains('e'), "small ratios use scientific notation");
    }

    #[test]
    fn graded_workload_is_deterministic_and_graded() {
        let a = graded_syn_workload(100, 50, 9);
        let b = graded_syn_workload(100, 50, 9);
        assert_eq!(a, b);
        // Host h receives 1 + h*max/hosts connections: strictly graded.
        let count = |host: u32| a.iter().filter(|p| p.dst_ip == 0xAC10_0000 + host).count();
        assert!(count(99) > count(0));
        assert_eq!(count(0), 1);
    }

    #[test]
    fn peak_rss_is_sane_on_linux() {
        match peak_rss_bytes() {
            // A running test process owns at least a megabyte and well
            // under a terabyte.
            Some(b) => {
                assert!(b > 1 << 20, "VmHWM {b} implausibly small");
                assert!(b < 1 << 40, "VmHWM {b} implausibly large");
                // The two reads have no order: on some kernels a later
                // VmHWM read is lower than an earlier one.
                let json = peak_rss_json();
                let later: u64 = json.parse().unwrap_or_else(|_| panic!("not a count: {json}"));
                assert!(later > 1 << 20, "VmHWM {later} implausibly small");
                assert!(later < 1 << 40, "VmHWM {later} implausibly large");
            }
            None => assert_eq!(peak_rss_json(), "null"),
        }
    }

    #[test]
    fn evaluation_traces_cover_all_attacks() {
        let traces = evaluation_traces(2_000);
        assert_eq!(traces.len(), 2);
        for (_, t) in &traces {
            assert_eq!(t.injections().len(), 9, "all nine attack kinds injected");
        }
    }
}
