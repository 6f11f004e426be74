//! # cpu-model
//!
//! The processor-side substrate of the QPRAC reproduction (paper
//! Table II):
//!
//! - [`core`] — trace-driven out-of-order cores: 4 GHz, 4-wide,
//!   352-entry ROB, bounded memory-level parallelism;
//! - [`cache`] — the shared LLC: 8 MB, 8-way, 64 B lines, LRU,
//!   write-back/write-allocate with MSHRs;
//! - [`trace`] — the Ramulator2-style trace format (synthetic and file
//!   sources);
//! - [`workloads`] — the 57-workload synthetic suite standing in for the
//!   paper's SPEC/TPC/Hadoop/MediaBench/YCSB traces (DESIGN.md §3.6);
//! - [`mix`] — named heterogeneous 4-slot mixes over that suite, scored
//!   by weighted speedup in the `mix_speedup` experiment.
//!
//! The full-system binding (cores + LLC + memory controller + DRAM)
//! lives in the `sim` crate.

pub mod cache;
pub mod core;
pub mod mix;
pub mod trace;
pub mod workloads;

pub use crate::core::{Core, CoreConfig, CoreMem, CoreStats};
pub use cache::{CacheConfig, CacheStats, Llc, LlcAccess};
pub use mix::{mixes8, WorkloadMix};
pub use trace::{LoopTrace, TraceEntry, TraceSource};
pub use workloads::{all57, GenParams, Pattern, SyntheticTrace, WorkloadSpec};
