//! Model inference speed, and the paper's speed claim: "our tool
//! outperforms IACA in both speed and accuracy" — the profiler is
//! benchmarked against each static analyzer on the same blocks.

use bhive_bench::named_blocks;
use bhive_harness::{ProfileConfig, Profiler};
use bhive_models::{BaselineTableModel, IacaModel, McaModel, OsacaModel, ThroughputModel};
use bhive_uarch::{Uarch, UarchKind};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn model_inference(c: &mut Criterion) {
    let models: Vec<Box<dyn ThroughputModel>> = vec![
        Box::new(IacaModel::new(UarchKind::Haswell.desc())),
        Box::new(McaModel::new(UarchKind::Haswell.desc())),
        Box::new(OsacaModel::new(UarchKind::Haswell.desc())),
        Box::new(BaselineTableModel::new(UarchKind::Haswell.desc())),
    ];
    let mut group = c.benchmark_group("model-predict");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(4));
    for model in &models {
        for (name, block) in named_blocks() {
            group.bench_with_input(BenchmarkId::new(model.name(), name), &block, |b, block| {
                b.iter(|| std::hint::black_box(model.predict(block)));
            });
        }
    }
    group.finish();
}

/// Profiler vs. analyzers on the same block: the measurement framework's
/// end-to-end cost against a static prediction.
fn profiler_vs_iaca(c: &mut Criterion) {
    let block = bhive_corpus::special::updcrc();
    let mut group = c.benchmark_group("profiler-vs-analyzers");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive().quiet());
    group.bench_function("profiler", |b| {
        b.iter(|| std::hint::black_box(profiler.profile(&block)));
    });
    let iaca = IacaModel::new(UarchKind::Haswell.desc());
    group.bench_function("iaca", |b| {
        b.iter(|| std::hint::black_box(iaca.predict(&block)));
    });
    let mca = McaModel::new(UarchKind::Haswell.desc());
    group.bench_function("llvm-mca", |b| {
        b.iter(|| std::hint::black_box(mca.predict(&block)));
    });
    group.finish();
}

fn schedules(c: &mut Criterion) {
    let block = bhive_corpus::special::updcrc();
    let mut group = c.benchmark_group("model-schedule");
    group.sample_size(20);
    let iaca = IacaModel::new(UarchKind::Haswell.desc());
    group.bench_function("iaca-schedule", |b| {
        b.iter(|| std::hint::black_box(iaca.schedule(&block)));
    });
    group.finish();
}

criterion_group!(benches, model_inference, profiler_vs_iaca, schedules);
criterion_main!(benches);
