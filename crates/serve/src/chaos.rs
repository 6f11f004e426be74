//! Deterministic fault injection for the service stack.
//!
//! `QPRAC_CHAOS=<seed>:<spec>` arms a seeded fault injector inside the
//! server's event loop: `RUNB` requests can have their connection
//! dropped, their dispatch deferred, or their reply frame truncated,
//! and single-flight *leaders* can be killed mid-simulation (exercising
//! the poison-publication path that keeps followers from hanging). The
//! injector is std-only and driven by one [`SplitMix64`] stream, so a
//! given seed produces a reproducible fault sequence — the chaos
//! integration suite replays the same flaky cluster on every run.
//!
//! `<spec>` is a comma-separated fault list. Faults hit the cell verb
//! `RUNB` only; control verbs (`PING`/`METRICS`/`SHUTDOWN`) are never
//! faulted, so a chaotic server stays observable. Fired faults are
//! counted and exported by `METRICS` as
//! `qprac_chaos_{dropped,delayed,truncated,killed}_total`.
//!
//! | token        | fault                                                      |
//! |--------------|------------------------------------------------------------|
//! | `drop=P`     | close the connection instead of dispatching the `RUNB`     |
//! | `delay=P/MS` | hold the `RUNB` `MS` ms, then dispatch it (nothing sleeps) |
//! | `trunc=P`    | send a strict prefix of the reply frame, then hang up      |
//! | `kill=N`     | panic the first `N` single-flight leaders mid-run          |
//!
//! e.g. `QPRAC_CHAOS=7:drop=0.05,delay=0.1/20,trunc=0.05,kill=1`.
//!
//! Faults are *transient by construction* — every one maps to an error
//! the retry/failover path classifies as retryable, so a chaotic
//! cluster slows clients down but never changes their results (the
//! key-only protocol is idempotent; re-driving a key is always safe).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::backoff::SplitMix64;

/// Parsed `QPRAC_CHAOS` configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosSpec {
    /// PRNG seed for every probabilistic fault decision.
    pub seed: u64,
    /// Probability a `RUNB`'s connection is closed instead of served.
    pub drop_prob: f64,
    /// Probability a `RUNB`'s dispatch is deferred by [`Self::delay`].
    pub delay_prob: f64,
    /// Dispatch deferral injected when the delay fault fires.
    pub delay: Duration,
    /// Probability a `RUNB` reply frame is truncated.
    pub trunc_prob: f64,
    /// Number of single-flight leaders to kill (a budget, not a
    /// probability: tests need "exactly one leader dies").
    pub kill_leaders: u32,
}

impl ChaosSpec {
    /// Parse `<seed>:<spec>` (see the module docs for the grammar).
    pub fn parse(text: &str) -> Result<ChaosSpec, String> {
        let (seed, tokens) = text
            .split_once(':')
            .ok_or_else(|| format!("chaos spec {text:?}: expected <seed>:<faults>"))?;
        let seed: u64 = seed
            .trim()
            .parse()
            .map_err(|_| format!("chaos spec {text:?}: seed must be a u64"))?;
        let mut spec = ChaosSpec {
            seed,
            ..ChaosSpec::default()
        };
        for token in tokens.split(',').filter(|t| !t.trim().is_empty()) {
            let (name, value) = token
                .split_once('=')
                .ok_or_else(|| format!("chaos fault {token:?}: expected name=value"))?;
            let parse_prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("chaos fault {token:?}: bad probability"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("chaos fault {token:?}: probability outside [0,1]"));
                }
                Ok(p)
            };
            match name.trim() {
                "drop" => spec.drop_prob = parse_prob(value)?,
                "trunc" => spec.trunc_prob = parse_prob(value)?,
                "delay" => {
                    let (p, ms) = value
                        .split_once('/')
                        .ok_or_else(|| format!("chaos fault {token:?}: expected delay=P/MS"))?;
                    spec.delay_prob = parse_prob(p)?;
                    let ms: u64 = ms
                        .parse()
                        .map_err(|_| format!("chaos fault {token:?}: bad delay ms"))?;
                    spec.delay = Duration::from_millis(ms);
                }
                "kill" => {
                    spec.kill_leaders = value
                        .parse()
                        .map_err(|_| format!("chaos fault {token:?}: kill takes a count"))?;
                }
                other => return Err(format!("unknown chaos fault {other:?}")),
            }
        }
        Ok(spec)
    }

    /// The `QPRAC_CHAOS` environment knob (unset/empty/`0` = off).
    /// A malformed spec aborts loudly — silently running *without*
    /// requested fault injection would make a chaos CI pass vacuous.
    pub fn from_env() -> Option<ChaosSpec> {
        let text = sim::env_opt("QPRAC_CHAOS")?;
        match ChaosSpec::parse(&text) {
            Ok(spec) => Some(spec),
            Err(e) => panic!("QPRAC_CHAOS: {e}"),
        }
    }
}

/// The armed injector: one shared PRNG stream plus fired-fault counters
/// (exported by the server's `METRICS` output so a chaos CI run can
/// prove faults actually fired).
#[derive(Debug)]
pub struct Chaos {
    spec: ChaosSpec,
    rng: Mutex<SplitMix64>,
    kills_left: AtomicU32,
    /// Connections dropped in place of a `RUNB` dispatch.
    pub dropped: AtomicU64,
    /// `RUNB` dispatches deferred.
    pub delayed: AtomicU64,
    /// `RUNB` reply frames truncated.
    pub truncated: AtomicU64,
    /// Single-flight leaders killed.
    pub killed: AtomicU64,
}

impl Chaos {
    /// Arm a spec.
    pub fn new(spec: ChaosSpec) -> Chaos {
        Chaos {
            rng: Mutex::new(SplitMix64::new(spec.seed)),
            kills_left: AtomicU32::new(spec.kill_leaders),
            spec,
            dropped: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            killed: AtomicU64::new(0),
        }
    }

    fn chance(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false; // no faults armed: skip the lock entirely
        }
        self.rng.lock().unwrap().chance(p)
    }

    /// Should the connection carrying this `RUNB` be dropped?
    pub fn drop_connection(&self) -> bool {
        let fired = self.chance(self.spec.drop_prob);
        if fired {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        fired
    }

    /// How long to hold this `RUNB` before dispatching it, if the delay
    /// fault fires.
    pub fn dispatch_delay(&self) -> Option<Duration> {
        if self.chance(self.spec.delay_prob) {
            self.delayed.fetch_add(1, Ordering::Relaxed);
            Some(self.spec.delay)
        } else {
            None
        }
    }

    /// Should this `RUNB` reply frame be truncated?
    pub fn truncate_reply(&self) -> bool {
        let fired = self.chance(self.spec.trunc_prob);
        if fired {
            self.truncated.fetch_add(1, Ordering::Relaxed);
        }
        fired
    }

    /// Kill the calling single-flight leader if any kill budget
    /// remains. Panics (that is the fault); the server's leader guard
    /// publishes the poison value to followers.
    pub fn kill_leader(&self) {
        let armed = self
            .kills_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |k| k.checked_sub(1))
            .is_ok();
        if armed {
            self.killed.fetch_add(1, Ordering::Relaxed);
            panic!("chaos: single-flight leader killed mid-simulation");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_reject_garbage() {
        let spec = ChaosSpec::parse("7:drop=0.05,delay=0.1/20,trunc=0.5,kill=2").unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.drop_prob, 0.05);
        assert_eq!(spec.delay_prob, 0.1);
        assert_eq!(spec.delay, Duration::from_millis(20));
        assert_eq!(spec.trunc_prob, 0.5);
        assert_eq!(spec.kill_leaders, 2);
        // Seed with no faults = a quiet injector.
        assert_eq!(
            ChaosSpec::parse("42:").unwrap(),
            ChaosSpec {
                seed: 42,
                ..ChaosSpec::default()
            }
        );
        for bad in [
            "no-colon",
            "x:drop=0.1",
            "1:drop=2.0",
            "1:drop=-0.1",
            "1:delay=0.5",
            "1:delay=0.5/ms",
            "1:kill=0.5",
            "1:explode=1",
            "1:drop",
        ] {
            assert!(ChaosSpec::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn fault_decisions_are_deterministic_per_seed() {
        let spec = ChaosSpec::parse("99:drop=0.3,trunc=0.3").unwrap();
        let decisions = |chaos: &Chaos| -> Vec<bool> {
            (0..64)
                .map(|i| {
                    if i % 2 == 0 {
                        chaos.drop_connection()
                    } else {
                        chaos.truncate_reply()
                    }
                })
                .collect()
        };
        let a = decisions(&Chaos::new(spec));
        let b = decisions(&Chaos::new(spec));
        assert_eq!(a, b, "same seed, same fault sequence");
        assert!(a.iter().any(|&f| f), "p=0.3 over 64 draws fires");
        assert!(!a.iter().all(|&f| f), "p=0.3 over 64 draws also misses");
    }

    #[test]
    fn kill_budget_fires_exactly_n_times() {
        let chaos = Chaos::new(ChaosSpec::parse("1:kill=2").unwrap());
        for _ in 0..2 {
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                chaos.kill_leader();
            }));
            assert!(died.is_err(), "armed kill must panic");
        }
        chaos.kill_leader(); // budget exhausted: a no-op, not a panic
        assert_eq!(chaos.killed.load(Ordering::Relaxed), 2);
    }
}
