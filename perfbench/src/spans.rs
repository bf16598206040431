//! In-memory span recording for the traced runs.
//!
//! A span is one timed call into a layer's public function, recorded from
//! the benchmark's side of the call: layer name, start and end (ns since
//! the recorder's origin), and how many items (packets, reports, hops,
//! ops) the call handled. The traced driver loops make their calls one
//! after another, so spans never nest. They stay in memory until the run
//! ends; per-packet and per-hop work is never timed one call at a time but
//! folded into the item count of the batch span around it.

use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub items: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    /// Wall time of the traced sections (what coverage is a share of).
    wall_ns: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new(), wall_ns: 0 }
    }
}

impl Spans {
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span of `layer` that started at `start_ns` and ends now.
    pub fn record(&mut self, layer: &'static str, start_ns: u64, items: u64) {
        let end_ns = self.now();
        self.spans.push(Span { layer, start_ns, end_ns, items });
    }

    /// Time `f` as one span of `layer` handling `items` items.
    pub fn time<T>(&mut self, layer: &'static str, items: u64, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.record(layer, start, items);
        out
    }

    /// Count one traced section's wall time into the coverage base.
    pub fn add_wall(&mut self, ns: u64) {
        self.wall_ns += ns;
    }

    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Every span of `layer`.
    pub fn of<'a>(&'a self, layer: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.layer == layer)
    }

    /// Summed duration and item count of a layer's spans.
    pub fn total(&self, layer: &str) -> (u64, u64) {
        self.of(layer).fold((0, 0), |(ns, items), s| (ns + s.ns(), items + s.items))
    }

    /// Nanoseconds per item of a layer (0 when it handled nothing).
    pub fn ns_per_item(&self, layer: &str) -> f64 {
        let (ns, items) = self.total(layer);
        if items == 0 {
            0.0
        } else {
            ns as f64 / items as f64
        }
    }

    /// Share of the traced wall time that named spans cover.
    pub fn coverage(&self) -> f64 {
        let covered: u64 = self.spans.iter().map(Span::ns).sum();
        if self.wall_ns == 0 {
            0.0
        } else {
            covered as f64 / self.wall_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_coverage_fold_spans() {
        let mut s = Spans::default();
        s.spans.push(Span { layer: "a", start_ns: 0, end_ns: 100, items: 4 });
        s.spans.push(Span { layer: "b", start_ns: 100, end_ns: 130, items: 2 });
        s.spans.push(Span { layer: "a", start_ns: 150, end_ns: 190, items: 1 });
        s.add_wall(200);
        assert_eq!(s.total("a"), (140, 5));
        assert_eq!(s.ns_per_item("a"), 28.0);
        assert_eq!(s.ns_per_item("missing"), 0.0);
        assert_eq!(s.of("b").count(), 1);
        assert!((s.coverage() - 0.85).abs() < 1e-12);
    }
}
