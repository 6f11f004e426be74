//! Per-verb latency histograms for the service's `STATS`/`HEALTH`
//! output.
//!
//! The histogram type is [`qprac_obs::hist::Histogram`]: the same
//! log2-bucket layout backs the bench runner's phase profiles and the
//! cluster-wide `METRICS` merge, and both the `name=value` rendering
//! here and the Prometheus exposition are derived from one
//! [`qprac_obs::HistSnapshot`] so they can never drift.

use qprac_obs::hist::Histogram;

/// One histogram per request verb.
#[derive(Debug, Default)]
pub struct VerbHistograms {
    /// `RUNB` resolves (includes simulation time on a cold cell).
    pub runb: Histogram,
    /// `STATS` renders.
    pub stats: Histogram,
    /// `HEALTH` renders.
    pub health: Histogram,
    /// `PING` round-trips (server-side cost only).
    pub ping: Histogram,
    /// `METRICS` renders (the scrape cost itself is observable).
    pub metrics: Histogram,
}

impl VerbHistograms {
    /// Verb-name/histogram pairs, in rendering order.
    pub fn verbs(&self) -> [(&'static str, &Histogram); 5] {
        [
            ("runb", &self.runb),
            ("stats", &self.stats),
            ("health", &self.health),
            ("ping", &self.ping),
            ("metrics", &self.metrics),
        ]
    }

    /// Append every non-empty verb's latency lines.
    pub fn render(&self, out: &mut String) {
        for (verb, hist) in self.verbs() {
            hist.render(verb, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_emits_count_and_quantiles_only_when_nonempty() {
        let v = VerbHistograms::default();
        let mut out = String::new();
        v.render(&mut out);
        assert!(out.is_empty(), "no observations, no lines");
        v.runb.record_us(100);
        v.runb.record_us(200);
        v.render(&mut out);
        assert!(out.contains("lat_runb_count=2"), "{out}");
        assert!(out.contains("lat_runb_p50_us=127"), "{out}");
        assert!(out.contains("lat_runb_p99_us=255"), "{out}");
        assert!(!out.contains("lat_ping"), "{out}");
    }

    #[test]
    fn render_includes_the_metrics_verb() {
        let v = VerbHistograms::default();
        v.metrics.record_us(50);
        let mut out = String::new();
        v.render(&mut out);
        assert!(out.contains("lat_metrics_count=1"), "{out}");
    }
}
