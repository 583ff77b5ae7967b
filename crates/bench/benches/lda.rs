//! Learning-substrate benches: LDA fitting/fold-in and Ithemal training.

use bhive_bench::bench_corpus;
use bhive_eval::{block_document, Classifier};
use bhive_learn::lda::{self, LdaConfig};
use bhive_models::{IthemalConfig, IthemalModel};
use bhive_uarch::{port_vocabulary, UarchKind};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn lda_fit(c: &mut Criterion) {
    let corpus = bench_corpus();
    let uarch = UarchKind::Haswell.desc();
    let vocab = port_vocabulary(uarch);
    let docs: Vec<Vec<usize>> = corpus
        .blocks()
        .iter()
        .map(|b| block_document(&b.block, uarch, &vocab))
        .collect();
    let mut group = c.benchmark_group("lda");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(10));
    group.bench_function("gibbs-fit", |b| {
        b.iter(|| {
            std::hint::black_box(lda::fit(&docs, vocab.len(), LdaConfig::paper(vocab.len())))
        });
    });
    let fit = lda::fit(&docs, vocab.len(), LdaConfig::paper(vocab.len()));
    group.bench_function("fold-in-classify", |b| {
        b.iter(|| {
            for doc in docs.iter().take(200) {
                std::hint::black_box(fit.classify(doc));
            }
        });
    });
    group.finish();
}

fn classifier_end_to_end(c: &mut Criterion) {
    let corpus = bench_corpus();
    let blocks: Vec<_> = corpus.blocks().iter().map(|b| b.block.clone()).collect();
    let mut group = c.benchmark_group("classifier");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(10));
    group.bench_function("fit", |b| {
        b.iter(|| std::hint::black_box(Classifier::fit(&blocks, UarchKind::Haswell)));
    });
    let classifier = Classifier::fit(&blocks, UarchKind::Haswell);
    group.bench_function("classify-200", |b| {
        b.iter(|| {
            for block in blocks.iter().take(200) {
                std::hint::black_box(classifier.classify(block));
            }
        });
    });
    group.finish();
}

fn ithemal_training(c: &mut Criterion) {
    // A synthetic labeled set keeps this bench free of profiling cost.
    let corpus = bench_corpus();
    let data: Vec<_> = corpus
        .blocks()
        .iter()
        .take(300)
        .map(|b| (b.block.clone(), (b.block.len() as f64 / 2.0).max(0.25)))
        .collect();
    let mut group = c.benchmark_group("ithemal");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(10));
    group.bench_function("train-300", |b| {
        b.iter(|| {
            std::hint::black_box(IthemalModel::train(
                &data,
                UarchKind::Haswell.desc(),
                IthemalConfig::default(),
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, lda_fit, classifier_end_to_end, ithemal_training);
criterion_main!(benches);
