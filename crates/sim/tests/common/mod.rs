//! Helpers shared by the `sim` integration-test binaries.

use std::collections::BTreeMap;

use cpu_model::{LoopTrace, TraceEntry, TraceSource};
use dram_core::AddressMapper;
use sim::{MitigationKind, System, SystemConfig};

/// Build a hammering trace for one core: a cyclic working set of lines
/// that (a) all fall into the same LLC set, so with more lines than
/// ways every access misses, and (b) contains same-bank different-row
/// pairs, so the DRAM sees a steady stream of row conflicts and the
/// PRAC counters climb to N_BO. With a small N_BO this drives the
/// device through alert assertion and RFM service — exactly the code
/// paths fast-forward must not skip over. In multi-channel
/// configurations core `i` hammers channel `i % channels` only, so
/// every channel sees its own alert storm.
fn hammer_trace(cfg: &SystemConfig, core: u64) -> LoopTrace {
    let dram = cfg.dram_config();
    let mapper = AddressMapper::new(&dram, cfg.mapping);
    let want_channel = (core % cfg.channels as u64) as u8;
    // The paper LLC has 16384 sets; lines 2^14 apart share a set.
    let set = 911 + core * 131;
    let stride = 16_384u64;
    let mut by_bank: BTreeMap<(u8, u8, u8), Vec<(u64, u32)>> = BTreeMap::new();
    for j in 0..1024u64 {
        let line = set + j * stride;
        let a = mapper.decode(line % mapper.num_lines());
        if a.channel != want_channel {
            continue;
        }
        let key = (a.coord.rank, a.coord.bank_group, a.coord.bank);
        let rows = by_bank.entry(key).or_default();
        if rows.iter().all(|&(_, r)| r != a.row.0) {
            rows.push((line, a.row.0));
        }
    }
    // Take the distinct-row lines of the richest banks: cycling them
    // makes every DRAM access a row conflict in those banks.
    let mut banks: Vec<&Vec<(u64, u32)>> = by_bank.values().collect();
    banks.sort_by_key(|rows| std::cmp::Reverse(rows.len()));
    let mut lines = Vec::new();
    for rows in banks {
        lines.extend(rows.iter().take(12).map(|&(line, _)| line));
        if lines.len() >= 12 {
            lines.truncate(12);
            break;
        }
    }
    assert!(lines.len() >= 10, "probe found too few conflict rows");
    LoopTrace::new(
        lines
            .into_iter()
            .map(|line| TraceEntry {
                bubbles: 0,
                line,
                is_store: false,
            })
            .collect(),
    )
}

/// A 4-core QPRAC system with N_BO = 8 in which every core runs its
/// [`hammer_trace`]: an alert storm on every channel.
pub fn hammer_system(channels: usize, instrs: u64) -> System {
    let cfg = SystemConfig::paper_default()
        .with_mitigation(MitigationKind::Qprac)
        .with_nbo(8)
        .with_channels(channels)
        .with_instruction_limit(instrs);
    let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
        .map(|i| Box::new(hammer_trace(&cfg, i as u64)) as Box<dyn TraceSource>)
        .collect();
    System::new(cfg, traces, 4)
}
