//! The kernels fork across the rayon thread budget, and the whole pipeline
//! must not notice: Phase-1 training and every informed souping strategy
//! give bit-identical parameters and validation accuracy at budget 1 and
//! at the full budget (at least 2, so the fork runs on any host).
//!
//! The dataset is sized so the dominant kernels clear `par_threshold()`
//! (1,560 nodes × 16 hidden units, 41 classes): at budget N they really
//! split their work.

use enhanced_soups::prelude::*;
use enhanced_soups::soup::{SoupCtx, StrategySpec};
use enhanced_soups::tensor::parallel::{current_num_threads, ThreadPoolBuilder};

fn at_budget<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("a thread budget")
        .install(op)
}

/// The budgets compared: one thread, and the full budget (at least 2).
fn budgets() -> [usize; 2] {
    [1, current_num_threads().max(2)]
}

fn setup() -> (Dataset, ModelConfig, TrainConfig) {
    let dataset = DatasetKind::Reddit.generate_scaled(21, 0.3);
    let cfg = ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(16);
    let tc = TrainConfig {
        epochs: 3,
        ..TrainConfig::quick()
    };
    (dataset, cfg, tc)
}

fn param_bits(params: &enhanced_soups::gnn::ParamSet) -> Vec<u32> {
    params
        .flat()
        .flat_map(|t| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        .collect()
}

#[test]
fn phase1_training_is_bit_identical_at_any_budget() {
    let (dataset, cfg, tc) = setup();
    // One worker, so the worker's kernels get the whole budget.
    let opts = TrainOpts::default().with_workers(1).with_seed(5);
    let runs: Vec<TrainRun> = budgets()
        .into_iter()
        .map(|b| {
            at_budget(b, || {
                train_ingredients_opts(&dataset, &cfg, &tc, 2, &opts).expect("phase 1")
            })
        })
        .collect();
    assert_eq!(runs[1].reports[0].kernel_threads, budgets()[1]);
    for (a, b) in runs[0].ingredients.iter().zip(&runs[1].ingredients) {
        assert_eq!(a.val_accuracy.to_bits(), b.val_accuracy.to_bits());
        assert!(
            param_bits(&a.params) == param_bits(&b.params),
            "ingredient {} differs across budgets",
            a.id
        );
    }
}

#[test]
fn ls_pls_and_gis_are_bit_identical_at_any_budget() {
    let (dataset, cfg, tc) = setup();
    let ingredients = train_ingredients(&dataset, &cfg, &tc, 3, 1, 9);
    let specs = {
        let mut ls = StrategySpec::new("ls");
        ls.epochs = 3;
        let mut pls = StrategySpec::new("pls");
        pls.epochs = 3;
        pls.pls_k = 4;
        pls.pls_r = 2;
        let mut gis = StrategySpec::new("gis");
        gis.granularity = 4;
        [ls, pls, gis]
    };
    for spec in specs {
        let outcomes: Vec<SoupOutcome> = budgets()
            .into_iter()
            .map(|b| {
                at_budget(b, || {
                    let strategy = spec.build().expect("strategy");
                    strategy
                        .try_soup(&SoupCtx::new(&ingredients, &dataset, &cfg, 17))
                        .expect("souping")
                        .expect("not interrupted")
                })
            })
            .collect();
        assert_eq!(
            outcomes[0].val_accuracy.to_bits(),
            outcomes[1].val_accuracy.to_bits(),
            "{}: validation accuracy differs across budgets",
            spec.name
        );
        assert!(
            param_bits(&outcomes[0].params) == param_bits(&outcomes[1].params),
            "{}: soup parameters differ across budgets",
            spec.name
        );
    }
}
