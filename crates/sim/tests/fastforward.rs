//! Differential tests: the event-driven fast-forward core must produce
//! **identical** `RunStats` to plain cycle-by-cycle stepping, across
//! workloads, mitigations, channel counts, and alert-heavy attack
//! scenarios. Any divergence means a skipped cycle was not actually
//! dead.

mod common;

use common::hammer_system;
use cpu_model::{TraceSource, WorkloadSpec};
use sim::{run_bandwidth_attack_with, MitigationKind, RunStats, System, SystemConfig};

fn run_mode_channels(
    workload: &str,
    kind: MitigationKind,
    instrs: u64,
    channels: usize,
    fast: bool,
) -> RunStats {
    let cfg = SystemConfig::paper_default()
        .with_mitigation(kind)
        .with_channels(channels)
        .with_instruction_limit(instrs);
    let spec = WorkloadSpec::by_name(workload).unwrap();
    let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
        .map(|i| Box::new(spec.source(i as u64)) as Box<dyn TraceSource>)
        .collect();
    System::new(cfg, traces, spec.params.mlp)
        .with_fast_forward(fast)
        .run()
}

fn run_mode(workload: &str, kind: MitigationKind, instrs: u64, fast: bool) -> RunStats {
    run_mode_channels(workload, kind, instrs, 1, fast)
}

#[test]
fn fast_forward_is_bit_exact_across_workloads_and_mitigations() {
    for workload in ["ycsb/a_like", "media/gsm_like", "tpc/tpcc64_like"] {
        for kind in [
            MitigationKind::None,
            MitigationKind::Qprac,
            MitigationKind::QpracProactive,
        ] {
            let fast = run_mode(workload, kind, 3_000, true);
            let slow = run_mode(workload, kind, 3_000, false);
            assert_eq!(
                fast, slow,
                "fast-forward diverged for {workload} under {kind:?}"
            );
            assert!(fast.instructions() >= 12_000, "{workload} ran");
        }
    }
}

fn run_hammer(channels: usize, fast: bool) -> RunStats {
    hammer_system(channels, 4_000).with_fast_forward(fast).run()
}

#[test]
fn fast_forward_is_bit_exact_under_alert_storms() {
    let fast = run_hammer(1, true);
    let slow = run_hammer(1, false);
    assert_eq!(fast, slow, "fast-forward diverged in the alert-storm run");
    assert!(
        fast.device.alerts > 0,
        "scenario must actually exercise alert service: {:?}",
        fast.device
    );
    assert!(
        fast.mc.alert_service_cycles > 0,
        "skipped alert cycles must still be accounted"
    );
}

#[test]
fn fast_forward_is_bit_exact_at_two_and_four_channels() {
    for channels in [2usize, 4] {
        for (workload, kind) in [
            ("ycsb/a_like", MitigationKind::Qprac),
            ("ycsb/a_like", MitigationKind::QpracProactive),
            ("tpc/tpcc64_like", MitigationKind::Qprac),
        ] {
            let fast = run_mode_channels(workload, kind, 3_000, channels, true);
            let slow = run_mode_channels(workload, kind, 3_000, channels, false);
            assert_eq!(
                fast, slow,
                "fast-forward diverged for {workload} under {kind:?} at {channels} channels"
            );
            assert_eq!(fast.channel_device.len(), channels);
            assert!(
                fast.channel_device.iter().all(|d| d.acts > 0),
                "{workload} at {channels} channels left a channel idle"
            );
        }
    }
}

#[test]
fn fast_forward_is_bit_exact_under_a_two_channel_alert_storm() {
    let fast = run_hammer(2, true);
    let slow = run_hammer(2, false);
    assert_eq!(
        fast, slow,
        "fast-forward diverged in the 2-channel alert-storm run"
    );
    for (c, d) in fast.channel_device.iter().enumerate() {
        assert!(
            d.alerts > 0,
            "channel {c} saw no alerts — the storm must hit both channels: {:?}",
            fast.channel_device
        );
    }
    assert!(
        fast.mc.alert_service_cycles > 0,
        "skipped alert cycles must still be accounted"
    );
}

#[test]
fn fast_forward_is_bit_exact_for_the_bandwidth_attack() {
    let cfg = SystemConfig::paper_default()
        .with_mitigation(MitigationKind::Qprac)
        .with_nbo(8);
    let fast = run_bandwidth_attack_with(&cfg, 8, 150_000, true);
    let slow = run_bandwidth_attack_with(&cfg, 8, 150_000, false);
    assert_eq!(fast, slow, "attack fast path diverged");
    assert!(fast.alerts > 0, "attack must trigger alerts");
}
