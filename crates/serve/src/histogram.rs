//! Per-verb latency histograms for the service's `METRICS` exposition.
//!
//! The histogram type is [`qprac_obs::hist::Histogram`]: the same
//! log2-bucket layout backs the bench runner's phase profiles and the
//! cluster-wide `METRICS` merge. Each verb is exported as the
//! Prometheus histogram `qprac_lat_<verb>_us`.

use qprac_obs::hist::Histogram;

/// One histogram per request verb that is timed.
#[derive(Debug, Default)]
pub struct VerbHistograms {
    /// `RUNB` resolves (includes simulation time on a cold cell).
    pub runb: Histogram,
    /// `PING` round-trips (server-side cost only).
    pub ping: Histogram,
    /// `METRICS` renders (the scrape cost itself is observable).
    pub metrics: Histogram,
}

impl VerbHistograms {
    /// Verb-name/histogram pairs, in rendering order.
    pub fn verbs(&self) -> [(&'static str, &Histogram); 3] {
        [
            ("runb", &self.runb),
            ("ping", &self.ping),
            ("metrics", &self.metrics),
        ]
    }
}
