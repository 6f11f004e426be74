//! End-to-end simulator throughput: instructions simulated per second
//! for a memory-bound and a compute-bound workload under the default
//! QPRAC configuration. This is the number that determines figure
//! regeneration time.

use cpu_model::WorkloadSpec;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sim::{run_workload, MitigationKind, SystemConfig};

fn bench_system(c: &mut Criterion) {
    let mut g = c.benchmark_group("full_system");
    g.sample_size(10);
    for (name, workload) in [
        ("memory_bound", "ycsb/a_like"),
        ("compute_bound", "media/mp3_like"),
    ] {
        let spec = WorkloadSpec::by_name(workload).unwrap();
        g.bench_function(format!("{name}_10k_instr"), |b| {
            b.iter(|| {
                let cfg = SystemConfig::paper_default()
                    .with_mitigation(MitigationKind::QpracProactiveEa)
                    .with_instruction_limit(10_000);
                black_box(run_workload(&cfg, &spec).ipc_sum())
            });
        });
    }
    // The 4-channel memory-bound variant: four controller lanes per
    // memory cycle instead of one.
    let spec = WorkloadSpec::by_name("ycsb/a_like").unwrap();
    g.bench_function("memory_bound_4ch_10k_instr", |b| {
        b.iter(|| {
            let cfg = SystemConfig::paper_default()
                .with_mitigation(MitigationKind::QpracProactiveEa)
                .with_channels(4)
                .with_instruction_limit(10_000);
            black_box(run_workload(&cfg, &spec).ipc_sum())
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_system
}
criterion_main!(benches);
