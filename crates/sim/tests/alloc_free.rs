//! The simulated cycle loop is allocation-free in steady state: the
//! number of heap allocations made inside `System::run` must not grow
//! with the instruction count. Warm-up growth (queues, heaps and maps
//! reaching their working size) and the end-of-run statistics are a
//! fixed cost, so a run four times longer may allocate only a small
//! constant more.
//!
//! This is its own test binary because it installs a counting global
//! allocator; the count is per thread, so the harness running other
//! tests in parallel cannot disturb it.

mod common;

use std::alloc::{GlobalAlloc, Layout, System as SysAlloc};
use std::cell::Cell;

use common::hammer_system;
use cpu_model::{TraceSource, WorkloadSpec};
use sim::{MitigationKind, System, SystemConfig};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local `Cell` with no destructor,
// so touching it cannot allocate or re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        SysAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        SysAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        SysAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SysAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by `run()` alone (construction is not counted).
fn allocs_in_run(system: System) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let stats = system.run();
    let after = ALLOCS.with(Cell::get);
    assert!(stats.instructions() > 0);
    after - before
}

fn workload_system(workload: &str, instrs: u64) -> System {
    let cfg = SystemConfig::paper_default()
        .with_mitigation(MitigationKind::Qprac)
        .with_instruction_limit(instrs);
    let spec = WorkloadSpec::by_name(workload).expect("known workload");
    let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
        .map(|i| Box::new(spec.source(i as u64)) as Box<dyn TraceSource>)
        .collect();
    System::new(cfg, traces, spec.params.mlp)
}

fn assert_flat(name: &str, short: u64, long: u64) {
    eprintln!("{name}: {short} allocations at 5K instr, {long} at 20K");
    assert!(
        long <= short + SLACK,
        "{name}: run() allocated {short} times at 5K instr but {long} at 20K; \
         the per-cycle path must not allocate"
    );
}

/// Extra warm-up growth a longer run may still hit (one more doubling
/// of a queue or map that had not reached its working size yet).
const SLACK: u64 = 16;

#[test]
fn memory_bound_run_does_not_allocate_per_cycle() {
    let short = allocs_in_run(workload_system("ycsb/a_like", 5_000));
    let long = allocs_in_run(workload_system("ycsb/a_like", 20_000));
    assert_flat("ycsb/a_like under QPRAC", short, long);
}

#[test]
fn alert_storm_does_not_allocate_per_cycle() {
    let short = allocs_in_run(hammer_system(1, 5_000));
    let long = allocs_in_run(hammer_system(1, 20_000));
    assert_flat("alert storm", short, long);
}
