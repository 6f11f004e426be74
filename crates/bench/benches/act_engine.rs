//! Throughput of the activation-level security engine — what bounds the
//! wall-clock of the attack experiments (Figs 2, 3, 23, wave sweeps):
//! per-activation streams, and one whole batched Toggle+Forget cell.

use attack_engine::engine::{ActEngine, EngineConfig};
use attack_engine::toggle_forget;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dram_core::RowId;
use mitigations::Panopticon;
use qprac::{Qprac, QpracConfig};

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("act_engine");
    g.bench_function("qprac_activation_stream", |b| {
        let cfg = EngineConfig {
            rows: 4096,
            ..EngineConfig::paper_default(1)
        };
        let mut e = ActEngine::new(cfg, Box::new(Qprac::new(QpracConfig::paper_default())));
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 512;
            e.activate(RowId(i * 8 % 4096));
            black_box(e.alert_pending());
        });
    });
    g.bench_function("panopticon_activation_stream", |b| {
        let cfg = EngineConfig {
            rows: 4096,
            ..EngineConfig::paper_default(1)
        };
        let mut e = ActEngine::new(cfg, Box::new(Panopticon::tbit(8, 8)));
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 512;
            e.activate(RowId(i * 8 % 4096));
            black_box(e.alert_pending());
        });
    });
    g.bench_function("full_trefw_hammer", |b| {
        b.iter(|| {
            let cfg = EngineConfig {
                rows: 4096,
                trefw_ns: 100_000.0, // truncated window for the bench
                ..EngineConfig::paper_default(1)
            };
            let mut e = ActEngine::new(cfg, Box::new(Qprac::new(QpracConfig::paper_default())));
            while !e.budget_exhausted() {
                e.activate(RowId(0));
            }
            black_box(e.stats().mitigations)
        });
    });
    g.bench_function("panopticon_toggle_forget_cell", |b| {
        // One Fig 2 cell: a full tREFW of Toggle+Forget, mostly quiet
        // marching runs applied through `ActEngine::activate_run`.
        b.iter(|| black_box(toggle_forget::run(8, 8).target_unmitigated));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_engine
}
criterion_main!(benches);
