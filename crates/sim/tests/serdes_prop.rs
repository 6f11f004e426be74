//! Property test for canonical `RunKey` text, the identity every cache
//! entry and wire request is addressed by. It iterates the mitigation
//! registry, so every registered design (including ones added after
//! this test was written) gets render → parse → render coverage at
//! random knobs. Result values travel in the binary codec, whose
//! round-trip properties live in `codec_prop.rs`.

use dram_core::RfmKind;
use proptest::prelude::*;
use sim::{RunKey, SystemConfig};

proptest! {
    /// Registry-driven key property: for EVERY registered mitigation
    /// and arbitrary knob values, the rendered canonical key parses
    /// back to a spec that re-renders byte-identically. This is the
    /// wire/caching contract `qprac-serve` relies on, proven for the
    /// whole zoo instead of a hand-listed variant array.
    #[test]
    fn every_registry_key_renders_parses_and_re_renders(
        pick in 0usize..usize::MAX,
        trh in 25u32..2_000,
        nbo in 1u32..256,
        nmit_pick in 0usize..3,
        psq in 1usize..9,
        pro in 1u32..8,
        channels_pow in 0u32..3,
        instr in 1u64..1_000_000,
        seed in 0u64..u64::MAX,
        rfm_pick in 0usize..3,
        plain in any::<bool>(),
    ) {
        let specs = mitigations::registry();
        let spec = &specs[pick % specs.len()];
        let nmit = [1u8, 2, 4][nmit_pick];
        let rfm = [RfmKind::AllBank, RfmKind::SameBank, RfmKind::PerBank][rfm_pick];
        // Exercise the trh-parameterized token form when the design
        // has one (mithril@{trh} / pride@{trh}).
        let kind = match spec.at_trh {
            Some(at) => at(trh),
            None => spec.default_kind,
        };
        let cfg = SystemConfig {
            plain_timing: plain,
            seed,
            ..SystemConfig::paper_default()
                .with_mitigation(kind)
                .with_nbo(nbo)
                .with_nmit(nmit)
                .with_psq_size(psq)
                .with_proactive_per_refs(pro)
                .with_channels(1 << channels_pow)
                .with_instruction_limit(instr)
                .with_alert_rfm_kind(rfm)
        };
        for key in [
            RunKey::workload(&cfg, "ycsb/a_like"),
            RunKey::mix(&cfg, "mix/hot_quad"),
            RunKey::attack(&cfg, 8, 60_000),
        ] {
            let parsed = RunKey::parse_text(key.as_str())
                .unwrap_or_else(|e| panic!("{key} failed to parse: {e}"));
            prop_assert_eq!(parsed.key(), key);
        }
    }
}
