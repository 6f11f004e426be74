//! The workload seed.
//!
//! [`CANONICAL_SEED`] reproduces the population the recorded digests
//! pin. Any other seed is XORed into every `WorkloadSpec::seed`, which
//! gives a held-out input with the same workload mix. A run key names
//! a workload but not its seed, so seeded cells must never meet a run
//! cache or a shard: a seeded run uses `RunCache::disabled()` and the
//! local pool only.

use cpu_model::WorkloadSpec;

/// The seed that reproduces the canonical population.
pub const CANONICAL_SEED: u64 = 0;

/// `workloads` with `seed` XORed into each generator seed (unchanged
/// for [`CANONICAL_SEED`]).
pub fn seeded(workloads: &[WorkloadSpec], seed: u64) -> Vec<WorkloadSpec> {
    workloads
        .iter()
        .map(|w| WorkloadSpec {
            seed: w.seed ^ seed,
            ..w.clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(ws: &[WorkloadSpec]) -> Vec<u64> {
        ws.iter().map(|w| w.seed).collect()
    }

    #[test]
    fn the_canonical_seed_is_the_identity() {
        let all = cpu_model::all57();
        assert_eq!(seeds(&seeded(&all, CANONICAL_SEED)), seeds(&all));
    }

    #[test]
    fn another_seed_changes_every_workload_and_nothing_else() {
        let all = cpu_model::all57();
        let s = seeded(&all, 7);
        assert_eq!(s.len(), all.len());
        for (a, b) in all.iter().zip(&s) {
            assert_eq!(a.name, b.name);
            assert_eq!(b.seed, a.seed ^ 7);
            assert_ne!(a.seed, b.seed);
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_inputs_and_the_mapping_inverts() {
        let all = cpu_model::all57();
        assert_ne!(seeds(&seeded(&all, 1)), seeds(&seeded(&all, 2)));
        assert_eq!(seeds(&seeded(&seeded(&all, 99), 99)), seeds(&all));
    }
}
