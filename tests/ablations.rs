//! Ablations of the design choices DESIGN.md §5 calls out, beyond the
//! Table 1/2 ablations already covered by the experiment drivers.

use bhive::corpus::{generate_block, special, Application, Corpus, Scale};
use bhive::eval::{CorpusKind, EvalRun, Pipeline};
use bhive::harness::{ProfileConfig, Profiler};
use bhive::models::{IthemalConfig, IthemalModel, ThroughputModel};
use bhive::sim::NoiseConfig;
use bhive::uarch::{Uarch, UarchKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The register/memory fill constant matters: with a zero fill, every
/// loaded "pointer" is null and indirect blocks become unmappable
/// (the paper: "If the value of p is too low (e.g. 0) ... we will not be
/// able to map the virtual page pointed by p").
#[test]
fn fill_constant_ablation() {
    let corpus = Corpus::generate(Scale::PerApp(50), 17);
    let blocks = corpus.basic_blocks();
    let rate = |fill: u64| {
        let config = ProfileConfig {
            fill,
            ..ProfileConfig::bhive().quiet()
        };
        bhive::harness::profile_corpus(&Profiler::new(Uarch::haswell(), config), &blocks, 0)
            .success_rate()
    };
    let moderate = rate(0x1234_5600);
    let zero = rate(0);
    assert!(
        moderate > zero + 0.02,
        "the moderately-sized constant must rescue indirect blocks: {moderate} vs {zero}"
    );
    // Too-high fill: pointers beyond user space are unmappable too.
    let huge = rate(0x8000_0000_0000);
    assert!(
        moderate > huge + 0.02,
        "a fill beyond user space must lose blocks: {moderate} vs {huge}"
    );
}

/// The 16-trial / 8-identical filter is what makes measurements
/// trustworthy under OS noise: with a single trial accepted blindly,
/// interrupt-polluted timings leak into the dataset.
#[test]
fn clean_trial_filter_ablation() {
    let block = special::updcrc();
    // Heavy noise to make the effect visible on a small block.
    let noisy = NoiseConfig {
        ctx_switch_per_kcycle: 0.05,
        ctx_switch_cost: 40_000,
        interrupt_per_kcycle: 0.4,
        interrupt_cost: (300, 3_000),
    };
    let filtered = ProfileConfig {
        noise: noisy,
        ..ProfileConfig::bhive()
    };
    let unfiltered = ProfileConfig {
        trials: 1,
        min_clean_identical: 1,
        noise: noisy,
        ..ProfileConfig::bhive()
    };
    // Reference: the quiet machine's truth.
    let truth = Profiler::new(Uarch::haswell(), ProfileConfig::bhive().quiet())
        .profile(&block)
        .expect("quiet measurement")
        .throughput;

    // With filtering, accepted measurements equal the truth (or the block
    // is rejected outright). Without, polluted timings are accepted.
    let mut polluted = 0usize;
    let mut filtered_wrong = 0usize;
    for seed in 0..24u64 {
        // Vary the block trivially so each run draws fresh noise.
        let mut text = block.to_string();
        text.push_str(&format!("\nadd r15, {}", seed + 1));
        let variant = bhive::asm::parse_block(&text).unwrap();
        let truth_v = Profiler::new(Uarch::haswell(), ProfileConfig::bhive().quiet())
            .profile(&variant)
            .expect("quiet")
            .throughput;
        if let Ok(m) = Profiler::new(Uarch::haswell(), unfiltered.clone()).profile(&variant) {
            if (m.throughput - truth_v).abs() / truth_v > 0.05 {
                polluted += 1;
            }
        }
        if let Ok(m) = Profiler::new(Uarch::haswell(), filtered.clone()).profile(&variant) {
            if (m.throughput - truth_v).abs() / truth_v > 0.05 {
                filtered_wrong += 1;
            }
        }
    }
    assert!(
        polluted >= 3,
        "unfiltered trials must be polluted sometimes: {polluted}/24"
    );
    assert!(
        filtered_wrong <= polluted / 3,
        "the 8-identical filter must suppress pollution: {filtered_wrong} vs {polluted}"
    );
    let _ = truth;
}

/// The paper's explanation for Ithemal's Category-2 weakness: training-set
/// imbalance ("the majority of which ... consists of non-vectorized basic
/// blocks"). Training on a vector-rich corpus improves vectorized-block
/// error relative to the same-size scalar-dominated training set.
#[test]
fn ithemal_training_imbalance_ablation() {
    let uarch = UarchKind::Haswell;
    let profiler = Profiler::new(uarch.desc(), ProfileConfig::bhive().quiet());
    let measure = |apps: &[Application], per_app: usize, seed: u64| {
        let corpus = Corpus::for_apps(apps, Scale::PerApp(per_app), seed);
        let mut data = Vec::new();
        for cb in corpus.blocks() {
            if let Ok(m) = profiler.profile(&cb.block) {
                data.push((cb.block.clone(), m.throughput));
            }
        }
        data
    };

    // Two training sets of similar size: scalar-dominated vs vector-rich.
    let scalar_train = measure(
        &[Application::Llvm, Application::Sqlite, Application::Redis],
        120,
        1,
    );
    let vector_train = measure(
        &[
            Application::OpenBlas,
            Application::TensorFlow,
            Application::Embree,
        ],
        120,
        1,
    );
    let scalar_model = IthemalModel::train(&scalar_train, uarch.desc(), IthemalConfig::default());
    let vector_model = IthemalModel::train(&vector_train, uarch.desc(), IthemalConfig::default());

    // Held-out vectorized evaluation set.
    let mut rng = SmallRng::seed_from_u64(99);
    let mut err_scalar = Vec::new();
    let mut err_vector = Vec::new();
    let mut n = 0;
    while n < 60 {
        let block = generate_block(Application::OpenBlas, &mut rng);
        if !block.iter().any(|i| i.mnemonic().is_sse()) {
            continue;
        }
        let Ok(m) = profiler.profile(&block) else {
            continue;
        };
        n += 1;
        if let (Some(a), Some(b)) = (scalar_model.predict(&block), vector_model.predict(&block)) {
            err_scalar.push((a - m.throughput).abs() / m.throughput);
            err_vector.push((b - m.throughput).abs() / m.throughput);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let scalar_err = mean(&err_scalar);
    let vector_err = mean(&err_vector);
    assert!(
        vector_err < scalar_err * 0.9,
        "vector-rich training must help vectorized blocks: {vector_err} vs {scalar_err}"
    );
}

/// Zero-idiom elimination is load-bearing for the vxorps case study: a
/// machine without it would measure ~1.0 like llvm-mca predicts.
#[test]
fn zero_idiom_elimination_matters() {
    // The models disagree on the idiom block by ~4x; the hardware agrees
    // with IACA only because of rename-time elimination — confirmed by
    // comparing against a non-idiom XOR of the same shape.
    let idiom = special::case_study_zero_idiom();
    let non_idiom = bhive::asm::parse_block("vxorps xmm2, xmm2, xmm3").unwrap();
    let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive().quiet());
    let t_idiom = profiler.profile(&idiom).unwrap().throughput;
    let t_real = profiler.profile(&non_idiom).unwrap().throughput;
    assert!(
        t_real >= 2.0 * t_idiom,
        "elimination must be visible: idiom {t_idiom} vs real {t_real}"
    );
}

/// The Google corpora are evaluated out-of-distribution for Ithemal
/// (trained on the open-source suite), mirroring the paper's setup where
/// the production blocks were not in the training set.
#[test]
fn google_blocks_are_out_of_distribution_but_sane() {
    let pipeline = Pipeline::new(Scale::PerApp(25), 42, 0);
    let data = pipeline.measured(CorpusKind::Google, UarchKind::Haswell);
    let classifier = pipeline.classifier();
    let ithemal = pipeline.ithemal(UarchKind::Haswell);
    let run = EvalRun::evaluate(&WrapModel(&ithemal), &data, &classifier);
    let err = run.overall_error();
    assert!(
        (0.05..0.45).contains(&err),
        "OOD error stays bounded: {err}"
    );
}

/// Local adapter: evaluate a borrowed model.
struct WrapModel<'a>(&'a IthemalModel);

impl ThroughputModel for WrapModel<'_> {
    fn name(&self) -> &'static str {
        "ithemal"
    }
    fn uarch(&self) -> UarchKind {
        self.0.uarch()
    }
    fn predict(&self, block: &bhive::asm::BasicBlock) -> Option<f64> {
        self.0.predict(block)
    }
}
