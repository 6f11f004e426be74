//! Panopticon (Bennett et al., DRAMSec 2021) — the design that inspired
//! PRAC — with the three variants analyzed by the paper:
//!
//! - [`PanopticonVariant::TbitToggle`]: the original design. A row is
//!   queued for mitigation only when its counter's threshold bit toggles
//!   (i.e. the count crosses a multiple of `2^t`). With a full FIFO the
//!   toggle is *lost* and the row escapes mitigation for another `2^t`
//!   activations — the `Toggle+Forget` vulnerability (§II-E1, Fig 2).
//! - [`PanopticonVariant::FullCounter`]: strawman fix comparing the full
//!   counter against the threshold every activation. Still insecure: the
//!   non-blocking ABO window lets an attacker hammer a row exclusively
//!   while the queue is full — `Fill+Escape` (§II-E1, Fig 3).
//! - [`PanopticonVariant::BlockedToggle`]: Appendix A strawman that
//!   suppresses queue insertions during the ABO window; breaks with the
//!   Fig 23 attack.
//!
//! The FIFO raises an Alert when full; RFMs and REFs pop the head.

use std::collections::VecDeque;

use dram_core::{CounterAccess, InDramMitigation, RfmContext, RowId};

/// Behavioral variant (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PanopticonVariant {
    /// Insert on threshold-bit toggle only (original Panopticon).
    #[default]
    TbitToggle,
    /// Insert whenever `count >= threshold` and the row is not queued.
    FullCounter,
    /// Like `TbitToggle`, but insertions are suppressed while Alert_n is
    /// asserted (Appendix A).
    BlockedToggle,
}

/// Panopticon tracker: per-row counters (hosted by the bank) feeding a
/// FIFO service queue.
#[derive(Debug, Clone)]
pub struct Panopticon {
    variant: PanopticonVariant,
    /// Mitigation threshold (`2^t` for the t-bit variants).
    threshold: u32,
    queue: VecDeque<RowId>,
    capacity: usize,
    alert_window: bool,
    /// Toggles that found the queue full and were dropped (observability
    /// for the attack experiments).
    pub lost_insertions: u64,
}

impl Panopticon {
    /// Create a tracker with the given FIFO `capacity` and mitigation
    /// `threshold` (use a power of two for the t-bit variants).
    pub fn new(variant: PanopticonVariant, capacity: usize, threshold: u32) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(threshold >= 2, "mitigation threshold must be at least 2");
        Panopticon {
            variant,
            threshold,
            queue: VecDeque::with_capacity(capacity),
            capacity,
            alert_window: false,
            lost_insertions: 0,
        }
    }

    /// Original Panopticon with threshold `2^tbit`.
    pub fn tbit(capacity: usize, tbit: u32) -> Self {
        Self::new(PanopticonVariant::TbitToggle, capacity, 1 << tbit)
    }

    /// Queue occupancy.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether `row` is currently queued.
    pub fn queued(&self, row: RowId) -> bool {
        self.queue.contains(&row)
    }

    fn try_insert(&mut self, row: RowId) {
        if self.queue.len() < self.capacity {
            self.queue.push_back(row);
        } else {
            // FIFO full: the insertion is silently lost — the root cause
            // of both Panopticon attacks.
            self.lost_insertions += 1;
        }
    }
}

impl InDramMitigation for Panopticon {
    fn name(&self) -> &'static str {
        match self.variant {
            PanopticonVariant::TbitToggle => "panopticon",
            PanopticonVariant::FullCounter => "panopticon-fullctr",
            PanopticonVariant::BlockedToggle => "panopticon-blocked-tbit",
        }
    }

    fn on_activate(&mut self, row: RowId, count: u32) {
        match self.variant {
            PanopticonVariant::TbitToggle => {
                if count.is_multiple_of(self.threshold) {
                    self.try_insert(row);
                }
            }
            PanopticonVariant::FullCounter => {
                if count >= self.threshold && !self.queued(row) {
                    self.try_insert(row);
                }
            }
            PanopticonVariant::BlockedToggle => {
                if count.is_multiple_of(self.threshold) && !self.alert_window {
                    self.try_insert(row);
                }
            }
        }
    }

    /// Activations before the next one that could touch the queue. The
    /// t-bit variants only act at multiples of the threshold (the blocked
    /// variant may ignore more while Alert_n is asserted; this answer
    /// does not count on that). The full-counter variant ignores every
    /// activation while the row is queued, and every one below the
    /// threshold.
    fn quiet_acts(&self, row: RowId, count: u32) -> u32 {
        match self.variant {
            // A saturated counter repeats its value; if that value is a
            // multiple of the threshold, every activation is a toggle.
            PanopticonVariant::TbitToggle | PanopticonVariant::BlockedToggle
                if count == u32::MAX =>
            {
                0
            }
            PanopticonVariant::TbitToggle | PanopticonVariant::BlockedToggle => {
                self.threshold - 1 - count % self.threshold
            }
            PanopticonVariant::FullCounter => {
                if self.queued(row) {
                    u32::MAX
                } else {
                    (self.threshold - 1).saturating_sub(count)
                }
            }
        }
    }

    fn needs_alert(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    fn on_rfm(&mut self, _counters: &mut dyn CounterAccess, _ctx: RfmContext) -> Option<RowId> {
        self.queue.pop_front()
    }

    fn on_ref(&mut self, _counters: &mut dyn CounterAccess) -> Option<RowId> {
        // Panopticon also drains one entry per REF (§II-E1).
        self.queue.pop_front()
    }

    fn on_alert_state(&mut self, asserted: bool) {
        self.alert_window = asserted;
    }

    /// FIFO of row ids (17 bits each); counters live in DRAM per PRAC.
    fn storage_bits(&self) -> u64 {
        self.capacity as u64 * 17
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::PracCounters;

    fn ctx() -> RfmContext {
        RfmContext {
            alerting: true,
            alert_service: true,
        }
    }

    fn drive(t: &mut Panopticon, c: &mut PracCounters, row: RowId, n: u32) {
        for _ in 0..n {
            let count = c.increment(row);
            t.on_activate(row, count);
        }
    }

    #[test]
    fn tbit_inserts_on_threshold_multiples() {
        let mut t = Panopticon::tbit(4, 3); // threshold 8
        let mut c = PracCounters::new(64, false);
        drive(&mut t, &mut c, RowId(1), 7);
        assert_eq!(t.queue_len(), 0);
        drive(&mut t, &mut c, RowId(1), 1); // count hits 8
        assert_eq!(t.queue_len(), 1);
        // Next insertion only after another 8 activations.
        drive(&mut t, &mut c, RowId(1), 7);
        assert_eq!(t.queue_len(), 1);
        drive(&mut t, &mut c, RowId(1), 1); // 16
        assert_eq!(t.queue_len(), 2);
    }

    #[test]
    fn full_fifo_drops_insertions() {
        let mut t = Panopticon::tbit(2, 3);
        let mut c = PracCounters::new(64, false);
        drive(&mut t, &mut c, RowId(1), 8);
        drive(&mut t, &mut c, RowId(2), 8);
        assert!(t.needs_alert(), "full queue raises the alert");
        // Row 3's toggle is lost — the Toggle+Forget bypass.
        drive(&mut t, &mut c, RowId(3), 8);
        assert!(!t.queued(RowId(3)));
        assert_eq!(t.lost_insertions, 1);
        // Row 3 will not be offered again until count 16.
        drive(&mut t, &mut c, RowId(3), 7);
        assert_eq!(t.lost_insertions, 1);
    }

    #[test]
    fn full_counter_retries_after_bypass() {
        let mut t = Panopticon::new(PanopticonVariant::FullCounter, 1, 8);
        let mut c = PracCounters::new(64, false);
        drive(&mut t, &mut c, RowId(1), 8); // fills the 1-entry queue
        drive(&mut t, &mut c, RowId(2), 9); // lost while full
        assert!(!t.queued(RowId(2)));
        // Drain the queue; the very next ACT of row 2 re-inserts it.
        assert_eq!(t.on_rfm(&mut c, ctx()), Some(RowId(1)));
        drive(&mut t, &mut c, RowId(2), 1);
        assert!(t.queued(RowId(2)));
    }

    #[test]
    fn blocked_toggle_ignores_abo_window_toggles() {
        let mut t = Panopticon::new(PanopticonVariant::BlockedToggle, 4, 8);
        let mut c = PracCounters::new(64, false);
        t.on_alert_state(true);
        drive(&mut t, &mut c, RowId(1), 8);
        assert_eq!(t.queue_len(), 0, "toggle suppressed during alert");
        t.on_alert_state(false);
        drive(&mut t, &mut c, RowId(2), 8);
        assert_eq!(t.queue_len(), 1);
    }

    #[test]
    fn rfm_and_ref_pop_fifo_order() {
        let mut t = Panopticon::tbit(4, 3);
        let mut c = PracCounters::new(64, false);
        drive(&mut t, &mut c, RowId(1), 8);
        drive(&mut t, &mut c, RowId(2), 8);
        assert_eq!(t.on_rfm(&mut c, ctx()), Some(RowId(1)));
        assert_eq!(t.on_ref(&mut c), Some(RowId(2)));
        assert_eq!(t.on_ref(&mut c), None);
    }

    #[test]
    fn storage_is_queue_of_row_ids() {
        assert_eq!(Panopticon::tbit(4, 3).storage_bits(), 4 * 17);
    }
}
