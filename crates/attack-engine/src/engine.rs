//! Activation-granularity security engine.
//!
//! Rowhammer security is a property of the *activation stream* a bank
//! serves, not of the full system timing, so attacks are evaluated on a
//! fast single-bank engine that models exactly the pieces the security
//! analysis cares about (paper §IV):
//!
//! - per-row PRAC counters (reset on mitigation, incremented on victim
//!   refreshes — transitive attack coverage);
//! - the hosted mitigation tracker (QPRAC, Panopticon, ... — anything
//!   implementing [`InDramMitigation`]);
//! - ABO semantics: alert assertion gated by `ABO_Delay`, the
//!   non-blocking window of `ABO_ACT` activations, `N_mit` RFMs per
//!   alert;
//! - REF cadence (one REF per 67 activations at Table II timings) with
//!   optional REF-shadow mitigation;
//! - the tREFW time budget (activation, RFM and REF time all accounted).
//!
//! Attackers drive [`ActEngine::activate`] and read
//! [`EngineStats::max_count_ever`] — the maximum unmitigated activation
//! count any row reached, the universal insecurity metric of Figs 2/3
//! and the wave-attack validation of §IV-B.
//!
//! Attacks that march a row toward its next threshold use
//! [`ActEngine::activate_run`] instead. It applies, in one step, a run of
//! activations that the tracker reports it would ignore
//! ([`InDramMitigation::quiet_acts`]), with results bit-identical to
//! calling `activate` once per activation. A run never crosses an event,
//! so it ends at the first of four boundaries:
//!
//! 1. a pending alert — no run starts while Alert_n is asserted;
//! 2. the next REF — a run stops at the activation before the REF is due;
//! 3. the activation that asserts an alert (the tracker already wants
//!    one and `ABO_Delay` is about to allow it);
//! 4. the activation that exhausts the tREFW budget.
//!
//! When no run of two or more activations is possible it issues one
//! plain `activate`.

use dram_core::counters::{CounterAccess, PracCounters};
use dram_core::mitigation::{InDramMitigation, RfmContext};
use dram_core::types::RowId;

/// Engine configuration (defaults follow the paper's Table I/II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Rows in the bank.
    pub rows: u32,
    /// RFMs per alert.
    pub nmit: u32,
    /// Max attacker activations inside the non-blocking alert window.
    pub abo_act: u32,
    /// Min activations after an alert service before the next alert.
    pub abo_delay: u32,
    /// Blast radius of a mitigation.
    pub br: u32,
    /// Activations per tREFI (67 at Table II timings).
    pub acts_per_trefi: u32,
    /// Whether REFs invoke the tracker's proactive/queue-drain hook.
    pub ref_mitigation: bool,
    /// Row-cycle time (ns) — cost of one activation.
    pub trc_ns: f64,
    /// RFM duration (ns).
    pub trfm_ns: f64,
    /// REF duration (ns).
    pub trfc_ns: f64,
    /// Attack budget (ns): one refresh window.
    pub trefw_ns: f64,
}

impl EngineConfig {
    /// Table I/II defaults for a given PRAC level.
    pub fn paper_default(nmit: u32) -> Self {
        assert!(matches!(nmit, 1 | 2 | 4));
        EngineConfig {
            rows: 128 * 1024,
            nmit,
            abo_act: 3,
            abo_delay: nmit,
            br: 2,
            acts_per_trefi: 67,
            ref_mitigation: true,
            trc_ns: 52.0,
            trfm_ns: 350.0,
            trfc_ns: 410.0,
            trefw_ns: 32_000_000.0,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::paper_default(1)
    }
}

/// Counters accumulated by the engine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Attacker activations issued.
    pub acts: u64,
    /// Alerts asserted.
    pub alerts: u64,
    /// RFMs serviced.
    pub rfms: u64,
    /// REF commands elapsed.
    pub refs: u64,
    /// Mitigations performed (alert + proactive).
    pub mitigations: u64,
    /// Maximum PRAC count any row ever reached — i.e. the maximum
    /// activations a row absorbed without mitigation.
    pub max_count_ever: u32,
    /// Elapsed attack time in nanoseconds.
    pub elapsed_ns: f64,
}

/// Single-bank activation-level engine hosting one mitigation tracker.
pub struct ActEngine {
    cfg: EngineConfig,
    counters: PracCounters,
    tracker: Box<dyn InDramMitigation>,
    stats: EngineStats,
    /// Alert currently asserted.
    alert: bool,
    /// Attacker activations used inside the current alert window.
    abo_used: u32,
    /// Activations since the last alert service (ABO_Delay gate).
    acts_since_service: u64,
    /// Activations since the last REF.
    acts_since_ref: u32,
    /// Rows mitigated since the last [`ActEngine::drain_mitigated`] call.
    mitigated_log: Vec<RowId>,
}

impl std::fmt::Debug for ActEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActEngine")
            .field("tracker", &self.tracker.name())
            .field("alert", &self.alert)
            .field("stats", &self.stats)
            .finish()
    }
}

impl ActEngine {
    /// Build an engine hosting `tracker`.
    pub fn new(cfg: EngineConfig, tracker: Box<dyn InDramMitigation>) -> Self {
        ActEngine {
            counters: PracCounters::new(cfg.rows, false),
            cfg,
            tracker,
            stats: EngineStats::default(),
            alert: false,
            abo_used: 0,
            acts_since_service: u64::MAX / 2,
            acts_since_ref: 0,
            mitigated_log: Vec::new(),
        }
    }

    /// Engine configuration.
    pub fn cfg(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Current PRAC count of `row` (resets to 0 when mitigated).
    pub fn count(&self, row: RowId) -> u32 {
        self.counters.count(row)
    }

    /// Whether Alert_n is currently asserted.
    pub fn alert_pending(&self) -> bool {
        self.alert
    }

    /// Attacker activations still allowed inside the current window.
    pub fn abo_acts_left(&self) -> u32 {
        if self.alert {
            self.cfg.abo_act - self.abo_used
        } else {
            0
        }
    }

    /// Whether the tREFW attack budget is exhausted.
    pub fn budget_exhausted(&self) -> bool {
        self.stats.elapsed_ns >= self.cfg.trefw_ns
    }

    /// Activations remaining before the next REF is processed. Attackers
    /// use this to avoid REF-induced queue drains racing their bursts
    /// (a real attacker knows the tREFI cadence).
    pub fn acts_until_ref(&self) -> u32 {
        self.cfg.acts_per_trefi.saturating_sub(self.acts_since_ref)
    }

    /// Rows mitigated since the last call (attack pool bookkeeping).
    pub fn drain_mitigated(&mut self) -> Vec<RowId> {
        std::mem::take(&mut self.mitigated_log)
    }

    /// Issue one activation to `row`.
    ///
    /// If an alert is pending and the non-blocking window is already
    /// spent, the engine services the alert first (the controller cannot
    /// delay past `ABO_ACT` activations / 180 ns). REFs due by the
    /// activation cadence are processed first.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn activate(&mut self, row: RowId) {
        assert!(row.0 < self.cfg.rows, "row out of range");
        if self.alert && self.abo_used >= self.cfg.abo_act {
            self.service_alert();
        }
        if self.acts_since_ref >= self.cfg.acts_per_trefi {
            self.refresh();
        }
        let count = self.counters.increment(row);
        self.tracker.on_activate(row, count);
        self.stats.elapsed_ns += self.cfg.trc_ns;
        self.account(count, 1);
    }

    /// Issue up to `n` activations to `row` and return how many were
    /// issued: a run of `k ≤ n` activations the tracker ignores, applied
    /// in one step (see the module docs for where a run must end), or
    /// else one plain [`ActEngine::activate`]. Returns 0 only when `n`
    /// is 0. Callers loop until their own exit condition holds, checking
    /// it after every call as they would after every `activate`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn activate_run(&mut self, row: RowId, n: u32) -> u32 {
        assert!(row.0 < self.cfg.rows, "row out of range");
        if n == 0 {
            return 0;
        }
        let mut k = if self.alert {
            0
        } else {
            let count = self.counters.count(row);
            n.min(self.tracker.quiet_acts(row, count))
                .min(self.acts_until_ref())
        };
        if self.tracker.needs_alert() {
            // Quiet activations keep `needs_alert`, so the alert asserts
            // at the activation that satisfies ABO_Delay.
            let gate = (self.cfg.abo_delay as u64).saturating_sub(self.acts_since_service);
            k = k.min(gate.clamp(1, u32::MAX as u64) as u32);
        }
        if k <= 1 {
            self.activate(row);
            return 1;
        }
        // One addition per activation keeps `elapsed_ns` bit-identical to
        // `activate`; stop at the activation that exhausts the budget.
        let mut issued = 0;
        while issued < k {
            self.stats.elapsed_ns += self.cfg.trc_ns;
            issued += 1;
            if self.budget_exhausted() {
                break;
            }
        }
        let count = self.counters.add(row, issued);
        self.account(count, issued);
        issued
    }

    /// Bookkeeping after `k` activations whose last count was `count`:
    /// cadence counters, the ABO window and the ABO_Delay-gated alert.
    fn account(&mut self, count: u32, k: u32) {
        self.stats.max_count_ever = self.stats.max_count_ever.max(count);
        self.stats.acts += k as u64;
        self.acts_since_ref += k;
        self.acts_since_service = self.acts_since_service.saturating_add(k as u64);
        if self.alert {
            self.abo_used += k;
        } else if self.tracker.needs_alert() && self.acts_since_service >= self.cfg.abo_delay as u64
        {
            self.alert = true;
            self.abo_used = 0;
            self.stats.alerts += 1;
            self.tracker.on_alert_state(true);
        }
    }

    /// Service the pending alert immediately (a benign controller issues
    /// the RFMs without exploiting the window). No-op when no alert is
    /// pending.
    pub fn service_alert(&mut self) {
        if !self.alert {
            return;
        }
        for _ in 0..self.cfg.nmit {
            let alerting = self.tracker.needs_alert();
            let ctx = RfmContext {
                alerting,
                alert_service: true,
            };
            if let Some(row) = self.tracker.on_rfm(&mut self.counters, ctx) {
                self.apply_mitigation(row);
            }
            self.stats.rfms += 1;
            self.stats.elapsed_ns += self.cfg.trfm_ns;
        }
        self.alert = false;
        self.abo_used = 0;
        self.acts_since_service = 0;
        self.tracker.on_alert_state(false);
    }

    fn refresh(&mut self) {
        self.acts_since_ref = 0;
        self.stats.refs += 1;
        self.stats.elapsed_ns += self.cfg.trfc_ns;
        if self.cfg.ref_mitigation {
            if let Some(row) = self.tracker.on_ref(&mut self.counters) {
                self.apply_mitigation(row);
            }
        }
    }

    fn apply_mitigation(&mut self, row: RowId) {
        let br = self.cfg.br as i64;
        let rows = self.cfg.rows as i64;
        for d in 1..=br {
            for sign in [-1i64, 1] {
                let v = row.0 as i64 + sign * d;
                if (0..rows).contains(&v) {
                    let victim = RowId(v as u32);
                    let c = self.counters.increment(victim);
                    self.stats.max_count_ever = self.stats.max_count_ever.max(c);
                    self.tracker.on_victim_refresh(victim, c);
                }
            }
        }
        self.counters.reset(row);
        self.stats.mitigations += 1;
        self.mitigated_log.push(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprac::{Qprac, QpracConfig};

    fn engine_with_qprac(nbo: u32) -> ActEngine {
        let cfg = EngineConfig {
            rows: 4096,
            ..EngineConfig::paper_default(1)
        };
        ActEngine::new(
            cfg,
            Box::new(Qprac::new(QpracConfig::paper_default().with_nbo(nbo))),
        )
    }

    #[test]
    fn alert_fires_at_nbo_and_mitigates() {
        let mut e = engine_with_qprac(8);
        for _ in 0..7 {
            e.activate(RowId(100));
        }
        assert!(!e.alert_pending());
        e.activate(RowId(100));
        assert!(e.alert_pending());
        e.service_alert();
        assert!(!e.alert_pending());
        assert_eq!(e.count(RowId(100)), 0, "aggressor reset");
        assert_eq!(e.count(RowId(99)), 1, "victim refreshed");
        assert_eq!(e.stats().mitigations, 1);
        assert_eq!(e.drain_mitigated(), vec![RowId(100)]);
    }

    #[test]
    fn abo_window_allows_exactly_three_acts() {
        let mut e = engine_with_qprac(8);
        for _ in 0..8 {
            e.activate(RowId(100));
        }
        assert_eq!(e.abo_acts_left(), 3);
        // Hammer a different row inside the window.
        e.activate(RowId(200));
        e.activate(RowId(200));
        e.activate(RowId(200));
        assert_eq!(e.abo_acts_left(), 0);
        assert!(e.alert_pending());
        // The 4th activation forces the service first.
        e.activate(RowId(200));
        assert!(!e.alert_pending());
        assert_eq!(e.count(RowId(100)), 0, "alert mitigated the hot row");
        assert_eq!(e.count(RowId(200)), 4);
    }

    #[test]
    fn abo_delay_gates_back_to_back_alerts() {
        let cfg = EngineConfig {
            rows: 4096,
            ..EngineConfig::paper_default(4)
        };
        let mut e = ActEngine::new(
            cfg,
            Box::new(Qprac::new(QpracConfig::paper_default().with_nbo(4))),
        );
        // Two rows both at N_BO: first alert services row A (nmit=4 pops
        // drain the PSQ), then refill row B...
        for _ in 0..4 {
            e.activate(RowId(10));
        }
        assert!(e.alert_pending());
        e.service_alert();
        // Row 20 reaches N_BO in its 4 activations; ABO_Delay = 4 means
        // the alert may assert at the 4th activation after service.
        for _ in 0..3 {
            e.activate(RowId(20));
        }
        assert!(!e.alert_pending(), "delay-gated");
        e.activate(RowId(20));
        assert!(e.alert_pending());
    }

    #[test]
    fn refs_follow_activation_cadence() {
        let mut e = engine_with_qprac(1_000_000);
        for i in 0..(67 * 3 + 1) {
            e.activate(RowId(i % 64));
        }
        assert_eq!(e.stats().refs, 3);
    }

    #[test]
    fn proactive_ref_mitigation_runs_when_enabled() {
        let cfg = EngineConfig {
            rows: 4096,
            ..EngineConfig::paper_default(1)
        };
        let mut e = ActEngine::new(
            cfg,
            Box::new(Qprac::new(QpracConfig::proactive().with_nbo(1_000_000))),
        );
        for i in 0..68 {
            e.activate(RowId(i % 8));
        }
        assert!(
            e.stats().mitigations >= 1,
            "REF-shadow proactive mitigation"
        );
    }

    #[test]
    fn budget_tracks_act_rfm_and_ref_time() {
        let mut e = engine_with_qprac(4);
        for _ in 0..4 {
            e.activate(RowId(0));
        }
        e.service_alert();
        let expect = 4.0 * 52.0 + 350.0;
        assert!((e.stats().elapsed_ns - expect).abs() < 1e-9);
        assert!(!e.budget_exhausted());
    }

    #[test]
    fn max_count_ever_survives_reset() {
        let mut e = engine_with_qprac(16);
        for _ in 0..16 {
            e.activate(RowId(7));
        }
        e.service_alert();
        assert_eq!(e.count(RowId(7)), 0);
        assert_eq!(e.stats().max_count_ever, 16);
    }
}
