//! Modelled work: simulator counts summed over a pass's results.
//!
//! These are exact and host-independent. A host-only change must leave
//! them identical; a model change moves them together with the time.
//! They are also the denominators of the `sim.host_ns_per_*` rates.

use sim::{BwAttackStats, CellResult, RunStats};

/// Sums over every unique cell a pass resolved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Modelled {
    pub retired: u64,
    pub stall_cycles: u64,
    pub llc_hits: u64,
    pub llc_misses: u64,
    pub mc_reads: u64,
    pub mc_writes: u64,
    pub mc_alert_service_cycles: u64,
    pub mc_rejected: u64,
    pub dram_acts: u64,
    pub dram_refs: u64,
    pub dram_rfms: u64,
    pub dram_alerts: u64,
    pub mit_alert: u64,
    pub mit_opportunistic: u64,
    pub mit_proactive: u64,
    pub victim_refreshes: u64,
    /// Memory-controller cycles simulated (workload, mix and attack).
    pub mem_cycles: u64,
}

impl Modelled {
    fn add_stats(&mut self, s: &RunStats) {
        self.retired += s.cpu.retired;
        self.stall_cycles += s.cpu.stall_cycles;
        self.llc_hits += s.cache.hits;
        self.llc_misses += s.cache.misses;
        self.mc_reads += s.mc.reads;
        self.mc_writes += s.mc.writes;
        self.mc_alert_service_cycles += s.mc.alert_service_cycles;
        self.mc_rejected += s.mc.rejected;
        let d = &s.device;
        self.dram_acts += d.acts;
        self.dram_refs += d.refs;
        self.dram_rfms += d.rfm_ab + d.rfm_sb + d.rfm_pb;
        self.dram_alerts += d.alerts;
        self.mit_alert += d.mitigations_alert;
        self.mit_opportunistic += d.mitigations_opportunistic;
        self.mit_proactive += d.mitigations_proactive;
        self.victim_refreshes += d.victim_refreshes;
        self.mem_cycles += s.mem_cycles;
    }

    fn add_attack(&mut self, a: &BwAttackStats) {
        self.dram_acts += a.acts;
        self.dram_alerts += a.alerts;
        self.dram_rfms += a.rfms;
        self.mem_cycles += a.mem_cycles;
    }

    /// Add one cell's result (engine counts carry no modelled work).
    pub fn add(&mut self, r: &CellResult) {
        match r {
            CellResult::Stats(s) => self.add_stats(s),
            CellResult::Attack(a) => self.add_attack(a),
            CellResult::Count(_) => {}
        }
    }

    /// The per-layer metrics, named as in `BENCHMARK.json`.
    pub fn metrics(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cpu.retired", self.retired),
            ("cpu.stall_cycles", self.stall_cycles),
            ("llc.hits", self.llc_hits),
            ("llc.misses", self.llc_misses),
            ("mc.reads", self.mc_reads),
            ("mc.writes", self.mc_writes),
            ("mc.alert_service_cycles", self.mc_alert_service_cycles),
            ("mc.rejected", self.mc_rejected),
            ("dram.acts", self.dram_acts),
            ("dram.refs", self.dram_refs),
            ("dram.rfms", self.dram_rfms),
            ("dram.alerts", self.dram_alerts),
            ("mit.mitigations_alert", self.mit_alert),
            ("mit.mitigations_opportunistic", self.mit_opportunistic),
            ("mit.mitigations_proactive", self.mit_proactive),
            ("mit.victim_refreshes", self.victim_refreshes),
        ]
    }
}
