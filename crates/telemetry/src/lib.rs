//! Deterministic metrics/event layer for the Newton reproduction.
//!
//! The paper's whole evaluation is a set of *time series* — per-stage
//! resource curves (Figs. 10–13), message overhead over epochs, failure
//! timelines (Fig. 9) — so the runtime needs first-class counters instead
//! of one end-of-run aggregate. This crate provides the [`Recorder`]: a
//! structured, **deterministic** [`Journal`] keyed by modeled time (epoch
//! index / modeled ms, never wall clock). A component that journals holds
//! an `Option<Recorder>`; with none attached it records nothing.
//!
//! The journal's hard guarantee: for a fixed trace and event schedule it
//! is byte-identical from run to run. Anything that cannot promise that
//! (wall-clock durations) belongs in the `newton-metrics` registry, never
//! here.

use std::fmt::Write as _;

/// Query identifier (mirrors `newton-dataplane`'s `QueryId`; kept as a
/// plain `u32` so this crate stays dependency-free).
pub type QueryId = u32;
/// Network node identifier (mirrors `newton-net`'s `NodeId`).
pub type NodeId = usize;

/// One deterministic journal event. Every variant is keyed by modeled
/// time — an epoch index or a modeled rule-channel delay — never by wall
/// clock.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Core: one epoch's aggregate traffic/report counters.
    EpochSummary {
        epoch: u64,
        packets: u64,
        messages: u64,
        message_bytes: u64,
        unrouted: u64,
        snapshot_bytes: u64,
        /// Reported-key count per query this epoch, sorted by query id.
        reported: Vec<(QueryId, u64)>,
    },
    /// Dataplane: per-switch per-stage occupancy and resource
    /// utilization gauge (absolute units, same categories as
    /// `ResourceVector`).
    StageGauge {
        epoch: u64,
        switch: NodeId,
        stage: usize,
        /// Module instances resident in the stage.
        modules: usize,
        /// Table rules installed across those instances.
        rules: usize,
        sram: f64,
        tcam: f64,
        hash_bits: f64,
        salus: f64,
    },
    /// Dataplane: per-switch state-bank counters accumulated over the
    /// epoch (sketch insertions, hash collisions, value evictions).
    StateBank { epoch: u64, switch: NodeId, insertions: u64, collisions: u64, evictions: u64 },
    /// Net: per-link traffic counters for the epoch (canonical link
    /// order `a <= b`, emitted sorted by link key).
    LinkLoad {
        epoch: u64,
        a: NodeId,
        b: NodeId,
        packets: u64,
        payload_bytes: u64,
        snapshot_bytes: u64,
    },
    /// Controller span: a query install (or the install half of an
    /// update), carrying the modeled rule-channel delay.
    Install {
        epoch: u64,
        query: QueryId,
        rules: usize,
        switches: usize,
        slices: usize,
        overflow_slices: usize,
        delay_ms: f64,
    },
    /// Controller span: a query removal.
    Remove { epoch: u64, query: QueryId, rules: usize, switches: usize, delay_ms: f64 },
    /// Controller span: an in-place query update. Keyed to the query's
    /// **stable** id (updates never mint a new one), so a query's journal
    /// trail reads install → update* → remove under a single key.
    /// `diff` tells whether the diff-install path served it; `rules`
    /// counts rules actually moved (removed + installed, 0 for a no-op
    /// diff such as a rename).
    Update {
        epoch: u64,
        query: QueryId,
        rules: usize,
        switches: usize,
        slices: usize,
        diff: bool,
        delay_ms: f64,
    },
    /// Controller span: one repair pass over the live topology.
    Repair {
        epoch: u64,
        examined: usize,
        repaired: Vec<QueryId>,
        degraded: Vec<QueryId>,
        rules_installed: usize,
        switches_touched: usize,
        delay_ms: f64,
    },
    /// A query fell back to the software interpreter (placement no
    /// longer executes on the live data plane).
    QueryDegraded { epoch: u64, query: QueryId },
    /// A degraded query's hardware placement was restored; the software
    /// twin retires at this epoch boundary.
    QueryHealed { epoch: u64, query: QueryId },
    /// Switch failures that destroyed installed rules this epoch.
    StateLoss { epoch: u64, switches: usize },
    /// Dataplane hot path: one report emitted by the PHV walk, for a
    /// caller that journals a switch's reports itself.
    SwitchReport { query: QueryId, branch: u8, hash: u32, state: u32 },
    /// One packet's full execution trace (the `NEWTON_TRACE_PACKET`
    /// hook), rendered per query.
    PacketTrace { index: u64, switch: NodeId, traces: Vec<String> },
}

impl Event {
    /// One event as a single JSON object — the same bytes
    /// [`Journal::to_jsonl`] would emit for it (fixed key order, shortest
    /// round-trip floats). Lets streaming consumers (`newtond`
    /// subscribers) forward events one at a time without re-serializing
    /// the whole journal.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_event_json(&mut out, self);
        out
    }
}

/// The journal writer: records events into a deterministic [`Journal`].
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    pub journal: Journal,
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event.
    pub fn record(&mut self, event: Event) {
        self.journal.push(event);
    }

    /// Drop everything recorded so far.
    pub fn clear(&mut self) {
        self.journal.clear();
    }
}

/// The deterministic event journal: an append-only list of [`Event`]s in
/// emission order, exportable as JSONL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    events: Vec<Event>,
}

impl Journal {
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    pub fn events(&self) -> &[Event] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Serialize the journal as JSON Lines: one event per line, keys in
    /// fixed order, floats in Rust's shortest round-trip representation.
    /// Identical event sequences produce identical bytes — this string is
    /// what the run-to-run determinism tests compare.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            write_event_json(&mut out, e);
            out.push('\n');
        }
        out
    }
}

fn write_event_json(out: &mut String, e: &Event) {
    match e {
        Event::EpochSummary {
            epoch,
            packets,
            messages,
            message_bytes,
            unrouted,
            snapshot_bytes,
            reported,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"epoch\",\"epoch\":{epoch},\"packets\":{packets},\
                 \"messages\":{messages},\"message_bytes\":{message_bytes},\
                 \"unrouted\":{unrouted},\"snapshot_bytes\":{snapshot_bytes},\"reported\":["
            );
            for (i, (q, n)) in reported.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"query\":{q},\"keys\":{n}}}");
            }
            out.push_str("]}");
        }
        Event::StageGauge {
            epoch,
            switch,
            stage,
            modules,
            rules,
            sram,
            tcam,
            hash_bits,
            salus,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"stage_gauge\",\"epoch\":{epoch},\"switch\":{switch},\
                 \"stage\":{stage},\"modules\":{modules},\"rules\":{rules},\
                 \"sram\":{sram},\"tcam\":{tcam},\"hash_bits\":{hash_bits},\"salus\":{salus}}}"
            );
        }
        Event::StateBank { epoch, switch, insertions, collisions, evictions } => {
            let _ = write!(
                out,
                "{{\"type\":\"state_bank\",\"epoch\":{epoch},\"switch\":{switch},\
                 \"insertions\":{insertions},\"collisions\":{collisions},\
                 \"evictions\":{evictions}}}"
            );
        }
        Event::LinkLoad { epoch, a, b, packets, payload_bytes, snapshot_bytes } => {
            let _ = write!(
                out,
                "{{\"type\":\"link_load\",\"epoch\":{epoch},\"a\":{a},\"b\":{b},\
                 \"packets\":{packets},\"payload_bytes\":{payload_bytes},\
                 \"snapshot_bytes\":{snapshot_bytes}}}"
            );
        }
        Event::Install { epoch, query, rules, switches, slices, overflow_slices, delay_ms } => {
            let _ = write!(
                out,
                "{{\"type\":\"install\",\"epoch\":{epoch},\"query\":{query},\"rules\":{rules},\
                 \"switches\":{switches},\"slices\":{slices},\
                 \"overflow_slices\":{overflow_slices},\"delay_ms\":{delay_ms}}}"
            );
        }
        Event::Remove { epoch, query, rules, switches, delay_ms } => {
            let _ = write!(
                out,
                "{{\"type\":\"remove\",\"epoch\":{epoch},\"query\":{query},\"rules\":{rules},\
                 \"switches\":{switches},\"delay_ms\":{delay_ms}}}"
            );
        }
        Event::Update { epoch, query, rules, switches, slices, diff, delay_ms } => {
            let _ = write!(
                out,
                "{{\"type\":\"update\",\"epoch\":{epoch},\"query\":{query},\"rules\":{rules},\
                 \"switches\":{switches},\"slices\":{slices},\"diff\":{diff},\
                 \"delay_ms\":{delay_ms}}}"
            );
        }
        Event::Repair {
            epoch,
            examined,
            repaired,
            degraded,
            rules_installed,
            switches_touched,
            delay_ms,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"repair\",\"epoch\":{epoch},\"examined\":{examined},\"repaired\":"
            );
            write_id_list(out, repaired);
            out.push_str(",\"degraded\":");
            write_id_list(out, degraded);
            let _ = write!(
                out,
                ",\"rules_installed\":{rules_installed},\
                 \"switches_touched\":{switches_touched},\"delay_ms\":{delay_ms}}}"
            );
        }
        Event::QueryDegraded { epoch, query } => {
            let _ = write!(out, "{{\"type\":\"degraded\",\"epoch\":{epoch},\"query\":{query}}}");
        }
        Event::QueryHealed { epoch, query } => {
            let _ = write!(out, "{{\"type\":\"healed\",\"epoch\":{epoch},\"query\":{query}}}");
        }
        Event::StateLoss { epoch, switches } => {
            let _ = write!(
                out,
                "{{\"type\":\"state_loss\",\"epoch\":{epoch},\"switches\":{switches}}}"
            );
        }
        Event::SwitchReport { query, branch, hash, state } => {
            let _ = write!(
                out,
                "{{\"type\":\"report\",\"query\":{query},\"branch\":{branch},\
                 \"hash\":{hash},\"state\":{state}}}"
            );
        }
        Event::PacketTrace { index, switch, traces } => {
            let _ = write!(
                out,
                "{{\"type\":\"packet_trace\",\"index\":{index},\"switch\":{switch},\"traces\":["
            );
            for (i, t) in traces.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(out, t);
            }
            out.push_str("]}");
        }
    }
}

fn write_id_list(out: &mut String, ids: &[QueryId]) {
    out.push('[');
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    out.push(']');
}

/// Append `s` as a JSON string literal (quotes + escapes).
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render a Markdown-ish table (right-aligned cells) as a `String`: the
/// shared presentation layer behind every example's `--report` output and
/// the bench harness tables.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n## {title}\n");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| rows.iter().map(|r| r[i].len()).chain([h.len()]).max().unwrap_or(4))
        .collect();
    let fmt_row = |out: &mut String, cells: &[String]| {
        let cells: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
        let _ = writeln!(out, "| {} |", cells.join(" | "));
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    fmt_row(&mut out, &header_cells);
    let _ = writeln!(
        out,
        "|{}|",
        widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|")
    );
    for r in rows {
        fmt_row(&mut out, r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_is_deterministic_and_escaped() {
        let mut j = Journal::default();
        j.push(Event::EpochSummary {
            epoch: 0,
            packets: 10,
            messages: 2,
            message_bytes: 64,
            unrouted: 0,
            snapshot_bytes: 24,
            reported: vec![(1, 3), (4, 1)],
        });
        j.push(Event::PacketTrace {
            index: 7,
            switch: 0,
            traces: vec!["line1\nline2 \"quoted\"".into()],
        });
        let a = j.to_jsonl();
        let b = j.clone().to_jsonl();
        assert_eq!(a, b, "same events, same bytes");
        assert_eq!(a.lines().count(), 2);
        assert!(a.contains("\"reported\":[{\"query\":1,\"keys\":3},{\"query\":4,\"keys\":1}]"));
        assert!(a.contains("line1\\nline2 \\\"quoted\\\""), "strings are JSON-escaped: {a}");
    }

    #[test]
    fn float_fields_round_trip_shortest_repr() {
        let mut j = Journal::default();
        j.push(Event::Install {
            epoch: 0,
            query: 1,
            rules: 12,
            switches: 3,
            slices: 1,
            overflow_slices: 0,
            delay_ms: 0.1 + 0.2,
        });
        // Rust's shortest round-trip float formatting is deterministic:
        // the exact bits 0.1+0.2 always print as 0.30000000000000004.
        assert!(j.to_jsonl().contains("\"delay_ms\":0.30000000000000004"));
    }

    #[test]
    fn table_renderer_right_aligns() {
        let s = render_table(
            "Demo",
            &["name", "rate"],
            &[vec!["a".into(), "10".into()], vec!["long-name".into(), "9".into()]],
        );
        assert!(s.contains("## Demo"));
        assert!(s.contains("|      name | rate |"), "header right-aligned to widest cell: {s}");
        assert!(s.contains("| long-name |    9 |"));
    }
}
