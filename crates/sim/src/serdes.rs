//! [`CellResult`], the value one simulation cell produces, and its
//! human-readable text rendering.
//!
//! Results are stored and sent in one encoding, the binary
//! [`crate::codec`] frame. The text form here is output only: it is
//! what `qprac-client run` prints. A `Stats` payload is
//! [`RunStats::golden_repr`] (one `field=value` line per field, nested
//! structs in their `{:?}` form, floats in Rust's shortest round-trip
//! formatting) plus one `channel_device=[...]` line the golden files
//! deliberately omit. Nothing parses it back.

use crate::attack::BwAttackStats;
use crate::stats::RunStats;

/// The value one simulation cell produces — the unit of the bench run
/// cache and of the `qprac-serve` wire protocol. (`Stats` is boxed: a
/// `RunStats` is an order of magnitude larger than the other variants.)
#[derive(Debug, Clone, PartialEq)]
pub enum CellResult {
    /// A full-system run ([`crate::run_workload`] / [`crate::run_mix`]).
    Stats(Box<RunStats>),
    /// A bandwidth-attack run ([`crate::run_bandwidth_attack`]).
    Attack(BwAttackStats),
    /// A bench-side attack-engine count (client-executed closures).
    Count(u64),
}

impl CellResult {
    /// Short kind tag naming the variant.
    pub fn kind(&self) -> &'static str {
        match self {
            CellResult::Stats(_) => "stats",
            CellResult::Attack(_) => "attack",
            CellResult::Count(_) => "count",
        }
    }

    /// The human-readable text rendering of this result (the `kind()`
    /// tag is not part of it).
    pub fn payload(&self) -> String {
        match self {
            CellResult::Stats(s) => {
                format!("{}\nchannel_device={:?}", s.golden_repr(), s.channel_device)
            }
            CellResult::Attack(a) => format!(
                "acts={}\nmem_cycles={}\nalerts={}\nrfms={}",
                a.acts, a.mem_cycles, a.alerts, a.rfms
            ),
            CellResult::Count(c) => c.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_workload, MitigationKind, SystemConfig};

    #[test]
    fn payload_renders_golden_repr_then_channel_devices() {
        let cfg = SystemConfig::paper_default()
            .with_mitigation(MitigationKind::Qprac)
            .with_channels(2)
            .with_instruction_limit(200);
        let w = cpu_model::WorkloadSpec::by_name("ycsb/a_like").unwrap();
        let stats = run_workload(&cfg, &w);
        let text = CellResult::Stats(Box::new(stats.clone())).payload();
        let (head, last) = text.rsplit_once('\n').unwrap();
        assert_eq!(head, stats.golden_repr());
        assert!(
            last.starts_with("channel_device=[DeviceStats { acts: "),
            "{last}"
        );
        assert_eq!(last.matches("DeviceStats").count(), 2, "{last}");
        let attack = CellResult::Attack(BwAttackStats {
            acts: 1,
            mem_cycles: 2,
            alerts: 3,
            rfms: 4,
        });
        assert_eq!(attack.payload(), "acts=1\nmem_cycles=2\nalerts=3\nrfms=4");
        assert_eq!(CellResult::Count(99).payload(), "99");
    }
}
