//! Property tests over all models: robustness, determinism, and sane
//! output envelopes on arbitrary corpus blocks.

use bhive_corpus::{generate_block, Application};
use bhive_models::{
    BaselineTableModel, IacaModel, IthemalConfig, IthemalModel, McaModel, OsacaModel,
    ThroughputModel,
};
use bhive_uarch::UarchKind;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn static_models(kind: UarchKind) -> Vec<Box<dyn ThroughputModel>> {
    vec![
        Box::new(IacaModel::new(kind.desc())),
        Box::new(McaModel::new(kind.desc())),
        Box::new(OsacaModel::new(kind.desc())),
        Box::new(BaselineTableModel::new(kind.desc())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every model yields a positive, finite prediction (or a clean None)
    /// on every generated block, on every microarchitecture.
    #[test]
    fn predictions_are_finite_positive(seed in any::<u64>(), app_idx in 0usize..12) {
        let app = Application::ALL[app_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let block = generate_block(app, &mut rng);
        for kind in UarchKind::ALL {
            for model in static_models(kind) {
                if let Some(tp) = model.predict(&block) {
                    prop_assert!(
                        tp.is_finite() && tp >= 0.0,
                        "{} on {kind:?} returned {tp} for\n{block}",
                        model.name()
                    );
                    // A block cannot retire faster than the rename width
                    // allows, minus eliminated instructions.
                    prop_assert!(
                        tp < 1_000_000.0,
                        "{} runaway prediction {tp}",
                        model.name()
                    );
                }
            }
        }
    }

    /// Model predictions are deterministic.
    #[test]
    fn predictions_are_deterministic(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let block = generate_block(Application::Llvm, &mut rng);
        for model in static_models(UarchKind::Haswell) {
            prop_assert_eq!(model.predict(&block), model.predict(&block));
        }
    }

    /// IACA's schedule is consistent with its throughput: the dispatch
    /// distance between consecutive iterations approximates the reported
    /// steady-state throughput.
    #[test]
    fn schedule_matches_throughput(seed in 0u64..200) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let block = generate_block(Application::Redis, &mut rng);
        let model = IacaModel::new(UarchKind::Haswell.desc());
        let (Some(tp), Some(schedule)) = (model.predict(&block), model.schedule(&block))
        else {
            return Ok(());
        };
        prop_assert!((schedule.throughput - tp).abs() < 1e-9);
        let all_eliminated = block
            .iter()
            .all(|i| bhive_uarch::decompose(i, UarchKind::Haswell.desc()).eliminated);
        prop_assert!(!schedule.uops.is_empty() || all_eliminated);
    }
}

#[test]
fn ithemal_generalizes_across_apps() {
    // Train on one mix, predict on another: predictions stay in the
    // sanity envelope even off-distribution.
    let mut rng = SmallRng::seed_from_u64(42);
    let train: Vec<_> = (0..200)
        .map(|_| {
            let block = generate_block(Application::Llvm, &mut rng);
            let target = (block.len() as f64 * 0.6).max(0.3);
            (block, target)
        })
        .collect();
    let model = IthemalModel::train(&train, UarchKind::Haswell.desc(), IthemalConfig::default());
    for app in [
        Application::OpenBlas,
        Application::Ffmpeg,
        Application::Spanner,
    ] {
        for _ in 0..50 {
            let block = generate_block(app, &mut rng);
            if let Some(tp) = model.predict(&block) {
                assert!(tp.is_finite() && tp > 0.0, "{app}: {tp}");
                assert!(tp < 10_000.0, "{app}: runaway {tp}");
            }
        }
    }
}

#[test]
fn avx2_refusal_is_uniform() {
    let block = bhive_asm::parse_block("vfmadd231ps ymm0, ymm1, ymm2").unwrap();
    for model in static_models(UarchKind::IvyBridge) {
        assert!(
            model.predict(&block).is_none(),
            "{} must refuse AVX2 on Ivy Bridge",
            model.name()
        );
    }
    for model in static_models(UarchKind::Haswell) {
        assert!(
            model.predict(&block).is_some(),
            "{} handles AVX2 on Haswell",
            model.name()
        );
    }
}
