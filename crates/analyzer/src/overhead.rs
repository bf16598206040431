//! Monitoring-overhead accounting (Figs. 12/13).
//!
//! The paper's metric is "the ratio of the number of monitoring messages
//! against the number of raw packets". Every system — Newton and the
//! baselines — feeds its message count into an [`OverheadMeter`] so the
//! figures compare like for like.

/// Counts raw packets and monitoring messages for one (system, workload)
/// cell of Fig. 12.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverheadMeter {
    raw_packets: u64,
    messages: u64,
    message_bytes: u64,
}

impl OverheadMeter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one raw (forwarded) packet.
    pub fn packet(&mut self) {
        self.raw_packets += 1;
    }

    /// Count `n` raw packets.
    pub fn packets(&mut self, n: u64) {
        self.raw_packets += n;
    }

    /// Count one monitoring message of `bytes` bytes.
    pub fn message(&mut self, bytes: u64) {
        self.messages += 1;
        self.message_bytes += bytes;
    }

    pub fn raw_packets(&self) -> u64 {
        self.raw_packets
    }

    pub fn messages(&self) -> u64 {
        self.messages
    }

    pub fn message_bytes(&self) -> u64 {
        self.message_bytes
    }

    /// Messages per raw packet — Fig. 12's y-axis.
    pub fn ratio(&self) -> f64 {
        if self.raw_packets == 0 {
            0.0
        } else {
            self.messages as f64 / self.raw_packets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_is_messages_over_packets() {
        let mut m = OverheadMeter::new();
        m.packets(1000);
        for _ in 0..10 {
            m.message(64);
        }
        assert!((m.ratio() - 0.01).abs() < 1e-12);
        assert_eq!(m.message_bytes(), 640);
    }

    #[test]
    fn empty_meter_is_zero() {
        // A meter that saw no packets must not divide by zero, even if
        // messages somehow arrived (e.g. a repair span with no traffic).
        let mut m = OverheadMeter::new();
        assert_eq!(m.ratio(), 0.0);
        m.message(64);
        assert_eq!(m.ratio(), 0.0, "messages with zero packets still yield a finite ratio");
    }

    #[test]
    fn mirrored_report_bytes_integrate_with_the_meter() {
        // The 32-byte mirror format is what the meter should be fed.
        let report = newton_dataplane::Report {
            query: 1,
            branch: 0,
            op_keys: 7,
            hash_result: 0,
            state_result: 40,
            global_result: 40,
        };
        let bytes = newton_dataplane::mirror::encode(&report);
        let mut m = OverheadMeter::new();
        m.packets(100);
        m.message(bytes.len() as u64);
        assert_eq!(m.message_bytes(), 32);
        assert!((m.ratio() - 0.01).abs() < 1e-12);
    }
}
