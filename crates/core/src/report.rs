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
    /// Parse `--report` and `--json PATH` from a command line, program
    /// name excluded. Unknown flags are ignored (examples parse their own,
    /// e.g. `--stream`). A `--json` with nothing after it, or followed by
    /// another flag (`--json --stream`), is an error: taking the flag as
    /// the path would write the journal to a file named after it.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = ReportOptions::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--report" => opts.table = true,
                "--json" => match args.next() {
                    Some(path) if !path.starts_with("--") => opts.json = Some(PathBuf::from(path)),
                    Some(flag) => return Err(format!("--json expects a file path, got {flag}")),
                    None => return Err("--json expects a file path".into()),
                },
                _ => {}
            }
        }
        Ok(opts)
    }

    /// [`parse`](Self::parse) over the process command line.
    pub fn from_args() -> Result<Self, String> {
        Self::parse(std::env::args().skip(1))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ReportOptions, String> {
        ReportOptions::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn json_without_a_path_is_an_error() {
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--report", "--json"]).is_err());
    }

    #[test]
    fn json_followed_by_a_flag_is_an_error() {
        let err = parse(&["--json", "--stream"]).unwrap_err();
        assert!(err.contains("--stream"), "{err}");
    }

    #[test]
    fn report_and_json_path_parse() {
        let opts = parse(&["--report", "--json", "out.jsonl"]).unwrap();
        assert_eq!(opts, ReportOptions { table: true, json: Some(PathBuf::from("out.jsonl")) });
        assert!(opts.wants_recorder());
        assert_eq!(parse(&["--stream"]).unwrap(), ReportOptions::default());
    }
}
