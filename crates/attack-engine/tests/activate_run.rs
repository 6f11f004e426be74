//! `ActEngine::activate_run` must be indistinguishable from issuing the
//! same activations one `activate` at a time, and the Panopticon
//! `quiet_acts` answers it relies on must be exact (or conservative where
//! documented). Both properties are checked against brute force.

use attack_engine::engine::{ActEngine, EngineConfig};
use dram_core::{InDramMitigation, NoMitigation, PracCounters, RfmContext, RowId};
use mitigations::{Panopticon, PanopticonVariant};
use proptest::prelude::*;
use qprac::{Qprac, QpracConfig};

const VARIANTS: [PanopticonVariant; 3] = [
    PanopticonVariant::TbitToggle,
    PanopticonVariant::FullCounter,
    PanopticonVariant::BlockedToggle,
];

/// Tracker under test: `kind` 0-2 are the Panopticon variants, 3 is
/// QPRAC, 4 is no mitigation.
fn tracker(kind: u32, capacity: usize, threshold: u32) -> Box<dyn InDramMitigation> {
    match kind {
        0..=2 => Box::new(Panopticon::new(
            VARIANTS[kind as usize],
            capacity,
            threshold,
        )),
        3 => Box::new(Qprac::new(
            QpracConfig::paper_default()
                .with_nbo(threshold)
                .with_psq_size(capacity),
        )),
        _ => Box::new(NoMitigation),
    }
}

/// A small bank with a short budget (so it runs out mid-sequence) and a
/// row-cycle time that is not a dyadic fraction (so summing it in a
/// different order would change `elapsed_ns`).
fn config(shape: (u32, usize, u32, u32), timing: (u32, bool, u32, u32)) -> EngineConfig {
    let (rows, nmit_idx, abo_act, abo_delay) = shape;
    let (acts_per_trefi, ref_mitigation, trc_sevenths, budget_acts) = timing;
    let trc_ns = trc_sevenths as f64 / 7.0;
    EngineConfig {
        rows,
        nmit: [1, 2, 4][nmit_idx],
        abo_act,
        abo_delay,
        br: 2,
        acts_per_trefi,
        ref_mitigation,
        trc_ns,
        trfm_ns: 350.0 / 3.0,
        trfc_ns: 410.0 / 3.0,
        trefw_ns: budget_acts as f64 * trc_ns,
    }
}

fn assert_same(batched: &mut ActEngine, reference: &mut ActEngine) {
    assert_eq!(batched.stats(), reference.stats());
    assert_eq!(batched.alert_pending(), reference.alert_pending());
    assert_eq!(batched.abo_acts_left(), reference.abo_acts_left());
    assert_eq!(batched.acts_until_ref(), reference.acts_until_ref());
    for r in 0..batched.cfg().rows {
        assert_eq!(
            batched.count(RowId(r)),
            reference.count(RowId(r)),
            "row {r}"
        );
    }
    assert_eq!(batched.drain_mitigated(), reference.drain_mitigated());
}

proptest! {
    /// Differential test: every `(row, n)` run issued through
    /// `activate_run` leaves the engine exactly where `n` calls of
    /// `activate` leave a twin engine, with both callers stopping on the
    /// budget (and, for most runs, on a pending alert) the same way.
    #[test]
    fn activate_run_matches_repeated_activate(
        shape in (8u32..48, 0usize..3, 1u32..5, 0u32..6),
        timing in (2u32..90, any::<bool>(), 100u32..700, 20u32..4000),
        mitigation in (0u32..5, 1usize..7, 2u32..40),
        ops in collection::vec((0u32..48, 0u32..300, 0u32..10), 1..60),
    ) {
        let cfg = config(shape, timing);
        let (kind, capacity, threshold) = mitigation;
        let mut batched = ActEngine::new(cfg, tracker(kind, capacity, threshold));
        let mut reference = ActEngine::new(cfg, tracker(kind, capacity, threshold));
        for (row, n, roll) in ops {
            let row = RowId(row % cfg.rows);
            if roll == 0 {
                batched.service_alert();
                reference.service_alert();
            } else {
                let stop_on_alert = roll > 3;
                let stop = |e: &ActEngine| {
                    e.budget_exhausted() || (stop_on_alert && e.alert_pending())
                };
                let mut left = n;
                while left > 0 {
                    let k = batched.activate_run(row, left);
                    prop_assert!((1..=left).contains(&k));
                    left -= k;
                    if stop(&batched) {
                        break;
                    }
                }
                let mut issued = 0;
                for _ in 0..n {
                    reference.activate(row);
                    issued += 1;
                    if stop(&reference) {
                        break;
                    }
                }
                prop_assert_eq!(n - left, issued);
            }
            assert_same(&mut batched, &mut reference);
        }
    }

    /// `Panopticon::quiet_acts` equals the number of further activations
    /// that leave a cloned tracker's `Debug` state and `needs_alert`
    /// unchanged. The one deliberate exception is the blocked-toggle
    /// variant inside an alert window, where the answer is conservative.
    #[test]
    fn panopticon_quiet_acts_matches_brute_force(
        tracker_shape in (0usize..3, 1usize..6, 2u32..24),
        history in collection::vec((0u32..6, 0u32..80, 0u32..12), 0..40),
        probe in (0u32..6, 0u32..80),
    ) {
        let (variant, capacity, threshold) = tracker_shape;
        let mut t = Panopticon::new(VARIANTS[variant], capacity, threshold);
        let mut counters = PracCounters::new(8, false);
        let mut window = false;
        for (row, count, roll) in history {
            match roll {
                0 => {
                    let ctx = RfmContext { alerting: true, alert_service: true };
                    t.on_rfm(&mut counters, ctx);
                }
                1 => {
                    window = !window;
                    t.on_alert_state(window);
                }
                _ => t.on_activate(RowId(row), count),
            }
        }
        let (row, count) = probe;
        let row = RowId(row);
        let cap = 3 * threshold + 2;
        let before = format!("{t:?}");
        let mut clone = t.clone();
        let mut brute = 0;
        while brute < cap {
            clone.on_activate(row, count + brute + 1);
            if format!("{clone:?}") != before || clone.needs_alert() != t.needs_alert() {
                break;
            }
            brute += 1;
        }
        let quiet = t.quiet_acts(row, count).min(cap);
        if VARIANTS[variant] == PanopticonVariant::BlockedToggle && window {
            prop_assert!(quiet <= brute, "quiet {} > brute {}", quiet, brute);
        } else {
            prop_assert_eq!(quiet, brute);
        }
    }
}

#[test]
fn zero_length_run_is_a_no_op() {
    let cfg = EngineConfig {
        rows: 64,
        ..EngineConfig::paper_default(1)
    };
    let mut e = ActEngine::new(cfg, Box::new(Panopticon::tbit(4, 4)));
    assert_eq!(e.activate_run(RowId(3), 0), 0);
    assert_eq!(e.stats().acts, 0);
    // A fresh row is 15 quiet activations from its first toggle.
    assert_eq!(e.activate_run(RowId(3), 100), 15);
    assert_eq!(e.count(RowId(3)), 15);
}
