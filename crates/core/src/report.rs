//! Shared run-report rendering for examples and benches.
//!
//! Every example used to print its own ad-hoc summary; this module gives
//! them one renderer: a run-totals line, a per-epoch time-series table
//! (`--report`), and an optional JSONL telemetry journal (`--json PATH`).
//! The table builds on [`newton_telemetry::render_table`], so example
//! output and bench output share one look.

use crate::system::RunReport;
use crate::NewtonSystem;
use newton_telemetry::render_table;
use std::path::PathBuf;

/// Output switches shared by the examples' command lines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportOptions {
    /// `--report`: render the per-epoch time-series table.
    pub table: bool,
    /// `--json PATH`: write the telemetry journal (JSONL) to `PATH`.
    /// Implies attaching a recorder before the run.
    pub json: Option<PathBuf>,
}

impl ReportOptions {
    /// Scan the process command line for `--report` and `--json PATH`.
    /// Unknown flags are ignored (examples parse their own, e.g.
    /// `--stream`).
    pub fn from_args() -> Self {
        let mut opts = ReportOptions::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--report" => opts.table = true,
                "--json" => {
                    let path = args.next().expect("--json expects a file path");
                    opts.json = Some(PathBuf::from(path));
                }
                _ => {}
            }
        }
        opts
    }

    /// Whether the run needs a recorder attached (journal export).
    pub fn wants_recorder(&self) -> bool {
        self.json.is_some()
    }
}

/// One line of run totals — the line every example used to hand-roll.
pub fn render_summary(report: &RunReport) -> String {
    format!(
        "processed {} packets over {} epochs; {} monitoring messages \
         ({:.6} msgs/pkt), {} snapshot bytes, {} unrouted",
        report.packets,
        report.epochs.len(),
        report.messages,
        report.overhead_ratio(),
        report.snapshot_bytes,
        report.unrouted,
    )
}

/// The per-epoch time series as a right-aligned markdown table.
pub fn render_epochs(report: &RunReport) -> String {
    let rows: Vec<Vec<String>> = report
        .epochs
        .iter()
        .map(|e| {
            let reported: u64 = e.reported.iter().map(|&(_, n)| n).sum();
            vec![
                e.index.to_string(),
                e.packets.to_string(),
                e.messages.to_string(),
                e.message_bytes.to_string(),
                e.unrouted.to_string(),
                e.snapshot_bytes.to_string(),
                reported.to_string(),
            ]
        })
        .collect();
    render_table(
        "per-epoch time series",
        &["epoch", "packets", "messages", "msg bytes", "unrouted", "snapshot bytes", "reported"],
        &rows,
    )
}

/// Per-query final report counts, sorted by query id.
pub fn render_queries(report: &RunReport) -> String {
    let mut rows: Vec<(u32, usize)> =
        report.reported.iter().map(|(&q, keys)| (q, keys.len())).collect();
    rows.sort_unstable_by_key(|&(q, _)| q);
    let rows: Vec<Vec<String>> =
        rows.into_iter().map(|(q, n)| vec![q.to_string(), n.to_string()]).collect();
    render_table("reported keys per query", &["query", "keys"], &rows)
}

/// Print the selected outputs and, when `--json` asked for it, drain the
/// system's recorder to a JSONL journal file.
pub fn emit(sys: &mut NewtonSystem, report: &RunReport, opts: &ReportOptions) {
    if opts.table {
        print!("{}", render_epochs(report));
        print!("{}", render_queries(report));
    }
    if let Some(path) = &opts.json {
        let Some(rec) = sys.take_recorder() else {
            eprintln!("--json: no recorder attached, journal is empty");
            return;
        };
        std::fs::write(path, rec.journal.to_jsonl()).expect("write --json journal");
        println!("telemetry journal written to {}", path.display());
    }
}
