//! The in-DRAM mitigation tracker interface.
//!
//! Every Rowhammer tracker in this suite — QPRAC's priority-based service
//! queue, Panopticon's FIFO, MOAT's single entry, UPRAC, Mithril, PrIDE —
//! implements [`InDramMitigation`]. The trait captures exactly the
//! interactions a tracker has with its host bank under the PRAC
//! specification:
//!
//! 1. It observes every activation together with the post-increment PRAC
//!    count ([`InDramMitigation::on_activate`]).
//! 2. It may request an Alert ([`InDramMitigation::needs_alert`]); the
//!    host's ABO engine decides when the Alert may actually be asserted
//!    (ABO_Delay gating is a *protocol* property, not a tracker property).
//! 3. On each RFM it nominates at most one aggressor row to mitigate
//!    ([`InDramMitigation::on_rfm`]).
//! 4. On each REF it may nominate a proactive mitigation
//!    ([`InDramMitigation::on_ref`]).
//! 5. It observes victim refreshes so transitive (Half-Double style)
//!    aggressors can re-enter the tracker
//!    ([`InDramMitigation::on_victim_refresh`]).
//! 6. It may report how many further activations of a row it would
//!    ignore ([`InDramMitigation::quiet_acts`]), so an activation-level
//!    host can apply that run in one step. The answer must be
//!    conservative: every activation it covers must leave the tracker's
//!    state and `needs_alert` unchanged. Answering `0` is always correct.
//!
//! The host performs the actual mitigation: refreshing the blast-radius
//! victims (incrementing their PRAC counters) and resetting the
//! aggressor's counter.

use crate::counters::CounterAccess;
use crate::types::RowId;
use qprac_obs::TraceHandle;

/// Context for an RFM callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RfmContext {
    /// True when this bank's own alert condition triggered the RFM
    /// sequence. Opportunistic designs mitigate even when this is false.
    pub alerting: bool,
    /// True when the RFM is part of an Alert service sequence (as opposed
    /// to a controller-scheduled periodic RFM).
    pub alert_service: bool,
}

/// An in-DRAM Rowhammer mitigation tracker for a single bank.
///
/// Implementations must be deterministic given their inputs (PrIDE's
/// sampling uses an internally seeded generator).
pub trait InDramMitigation: std::fmt::Debug + Send {
    /// Short human-readable identifier (used in experiment output).
    fn name(&self) -> &'static str;

    /// Observe an activation of `row`; `count` is the post-increment PRAC
    /// counter value.
    fn on_activate(&mut self, row: RowId, count: u32);

    /// How many further activations of `row`, whose PRAC count is now
    /// `count`, [`InDramMitigation::on_activate`] would ignore: each of
    /// them leaves the tracker's state and
    /// [`InDramMitigation::needs_alert`] unchanged. A host may skip the
    /// `on_activate` calls for that many activations, provided no other
    /// callback intervenes. Default: `0` (no activation may be skipped).
    fn quiet_acts(&self, row: RowId, count: u32) -> u32 {
        let _ = (row, count);
        0
    }

    /// Observe a mitigative refresh of a victim `row`; `count` is the
    /// post-increment PRAC counter value. Default: ignore (trackers
    /// without transitive-attack handling).
    fn on_victim_refresh(&mut self, row: RowId, count: u32) {
        let _ = (row, count);
    }

    /// Whether this bank currently wants an Alert. The host asserts
    /// Alert_n once the ABO_Delay constraint allows.
    fn needs_alert(&self) -> bool;

    /// Nominate at most one aggressor row to mitigate during an RFM.
    /// Returning `None` leaves the RFM unused for this bank.
    fn on_rfm(&mut self, counters: &mut dyn CounterAccess, ctx: RfmContext) -> Option<RowId>;

    /// Nominate at most one aggressor row to mitigate proactively during a
    /// REF. Default: no proactive mitigation.
    fn on_ref(&mut self, counters: &mut dyn CounterAccess) -> Option<RowId> {
        let _ = counters;
        None
    }

    /// Notify the tracker that the channel's Alert_n state changed. Used
    /// by the Panopticon variant of Appendix A that suppresses t-bit
    /// toggles during the non-blocking ABO window. Default: ignored.
    fn on_alert_state(&mut self, asserted: bool) {
        let _ = asserted;
    }

    /// SRAM storage this tracker requires per bank, in bits (paper §VI-F
    /// and Table IV).
    fn storage_bits(&self) -> u64;

    /// Hand the tracker a tracing handle and its flat bank index so it
    /// can emit tracker-internal events (QPRAC's PSQ offers, evictions
    /// and pops). Default: discard — most trackers have nothing
    /// tracker-internal worth tracing; the host device already traces
    /// alerts, RFMs and refreshes.
    fn attach_trace(&mut self, trace: TraceHandle, bank: u32) {
        let _ = (trace, bank);
    }
}

/// A tracker that never mitigates: the insecure baseline the paper
/// normalizes against ("baseline DRAM that also uses DDR5 PRAC timings but
/// without the Alert Back-Off based mitigations").
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMitigation;

impl InDramMitigation for NoMitigation {
    fn name(&self) -> &'static str {
        "none"
    }

    fn on_activate(&mut self, _row: RowId, _count: u32) {}

    fn needs_alert(&self) -> bool {
        false
    }

    fn on_rfm(&mut self, _counters: &mut dyn CounterAccess, _ctx: RfmContext) -> Option<RowId> {
        None
    }

    fn storage_bits(&self) -> u64 {
        0
    }
}

/// Factory closure type used by hosts to build one tracker per bank.
pub type TrackerFactory<'a> = dyn Fn(usize) -> Box<dyn InDramMitigation> + 'a;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::PracCounters;

    #[test]
    fn no_mitigation_never_alerts_or_mitigates() {
        let mut m = NoMitigation;
        let mut ctrs = PracCounters::new(8, false);
        for _ in 0..1000 {
            let c = ctrs.increment(RowId(0));
            m.on_activate(RowId(0), c);
        }
        assert!(!m.needs_alert());
        assert_eq!(
            m.on_rfm(
                &mut ctrs,
                RfmContext {
                    alerting: false,
                    alert_service: true
                }
            ),
            None
        );
        assert_eq!(m.on_ref(&mut ctrs), None);
        assert_eq!(m.storage_bits(), 0);
        assert_eq!(m.name(), "none");
    }
}
