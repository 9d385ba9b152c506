//! Learned Souping (LS) — Algorithm 3, the paper's first contribution.
//!
//! LS treats the per-layer interpolation ratios `α_i^l` as *learnable
//! parameters*: each epoch builds the soup `W_soup^l = Σ_i α_i^l W_i^l`
//! (Eq. 3, with α softmax-normalised across ingredients per layer), runs a
//! forward pass on the validation set, and backpropagates the loss into the
//! α's only (Eq. 4) — the ingredient weights stay frozen. Optimisation uses
//! SGD with momentum under cosine annealing and Xavier-normal α
//! initialisation, exactly as §III-B prescribes.
//!
//! Cost: `O(e · (F_v + B_v))` — e epochs of one forward + one (α-only)
//! backward each, versus GIS's `N·g` forwards (§III-E).

use crate::ingredient::{validate_ingredients, Ingredient};
use crate::resume::{Phase2Persist, Phase2Session, RunShape};
use crate::strategy::{measure_soup_try, MixReport, SoupCtx, SoupOutcome, SoupStrategy};
use soup_error::SoupError;
use soup_gnn::cache::PropCache;
use soup_gnn::model::PropOps;
use soup_gnn::params::{LayerParams, ParamVars};
use soup_gnn::{ModelConfig, ParamSet};
use soup_graph::Dataset;
use soup_tensor::optim::{CosineAnnealing, Sgd};
use soup_tensor::tape::{Tape, Var};
use soup_tensor::{SplitMix64, Tensor};

/// Hyperparameters shared by LS and PLS.
#[derive(Debug, Clone, Copy)]
pub struct LearnedHyper {
    /// Optimisation epochs `e`.
    pub epochs: usize,
    /// Base learning rate of the cosine schedule. The paper observes that
    /// "relatively large base learning rates often yielded the best
    /// results" (§VI-A).
    pub base_lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay on the raw α parameters.
    pub weight_decay: f32,
    /// Cosine-annealing floor.
    pub eta_min: f32,
    /// Fraction of the validation set held out from α-fitting (§IV-C:
    /// hyperparameters are tuned "by randomly splitting the validation
    /// set"). 0.0 fits on the whole validation set.
    pub holdout_ratio: f64,
    /// §VI-A: "standard techniques to combat overfitting, such as early
    /// stopping, may prove valuable" — stop LS when the monitored split's
    /// accuracy has not improved for this many epochs, restoring the best
    /// α's. (LS only; PLS's per-epoch subgraphs make full-graph monitoring
    /// defeat its memory savings.)
    pub early_stop_patience: Option<usize>,
    /// §VI-A future work: "techniques like minibatching to stabilize
    /// training" — fit each epoch on a random subsample of this many
    /// validation nodes instead of all of them.
    pub val_batch: Option<usize>,
    /// §VIII future work: "methods ... to more easily 'drop-out' poor
    /// performing ingredients" — halfway through training, ingredients
    /// whose mean softmax ratio is below this threshold are hard-dropped
    /// (raw α pushed to −∞ territory so softmax assigns ≈0, which the
    /// smooth optimisation cannot do on its own, §V-A).
    pub prune_threshold: Option<f32>,
    /// Cache the weight-independent first-hop aggregation (`op·X`) across
    /// epochs via a [`PropCache`] — every LS epoch (and PLS epoch, per
    /// cached subgraph) saves one SpMM, with bit-identical results. GAT is
    /// unaffected (its first hop is weight-dependent).
    pub prop_cache: bool,
    /// Numeric-watchdog retry budget: on a NaN/Inf epoch loss the loop
    /// restores the pre-epoch α/optimizer/RNG snapshot, halves the
    /// effective learning rate, and retries the epoch — at most this many
    /// times per epoch before surfacing [`soup_error::SoupError::Numeric`]
    /// through the fallible souping entry points.
    pub nan_retry_budget: u32,
    /// Chaos knob for the watchdog tests: `(epoch, times)` poisons the
    /// loss (and the α state, as a diverged step would) on the first
    /// `times` attempts of that epoch. `None` in production.
    pub nan_inject: Option<(usize, u32)>,
}

impl Default for LearnedHyper {
    fn default() -> Self {
        Self {
            epochs: 50,
            base_lr: 1.0,
            momentum: 0.9,
            weight_decay: 0.0,
            eta_min: 1e-2,
            holdout_ratio: 0.0,
            early_stop_patience: None,
            val_batch: None,
            prune_threshold: None,
            prop_cache: true,
            nan_retry_budget: 4,
            nan_inject: None,
        }
    }
}

/// Per-layer raw interpolation parameters (pre-softmax), `(N, 1)` each.
#[derive(Debug, Clone)]
pub struct AlphaState {
    pub raw: Vec<Tensor>,
}

impl AlphaState {
    /// Xavier-normal initialisation over the `(N, 1)` fan (Alg. 3 line 1).
    pub fn init(num_ingredients: usize, num_layers: usize, rng: &mut SplitMix64) -> Self {
        let sigma = (2.0 / (num_ingredients + 1) as f32).sqrt();
        let raw = (0..num_layers)
            .map(|_| Tensor::randn(num_ingredients, 1, sigma, rng))
            .collect();
        Self { raw }
    }

    /// The softmax-normalised ratios of layer `l` (diagnostics / tests).
    pub fn ratios(&self, l: usize) -> Vec<f32> {
        let raw = self.raw[l].data();
        let m = raw.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let exps: Vec<f32> = raw.iter().map(|&v| (v - m).exp()).collect();
        let total: f32 = exps.iter().sum();
        exps.iter().map(|e| e / total).collect()
    }
}

/// Record the soup construction (Eq. 3) on a tape: returns the mixed
/// parameter variables and the raw-α variables to optimise.
pub(crate) fn build_soup_on_tape(
    tape: &Tape,
    ingredients: &[Ingredient],
    alphas: &AlphaState,
) -> (ParamVars, Vec<Var>) {
    let num_layers = ingredients[0].params.num_layers();
    debug_assert_eq!(alphas.raw.len(), num_layers);
    let mut raw_vars = Vec::with_capacity(num_layers);
    let mut layers = Vec::with_capacity(num_layers);
    for l in 0..num_layers {
        let raw_var = tape.param(alphas.raw[l].clone());
        raw_vars.push(raw_var);
        let slots = ingredients[0].params.layers[l].tensors.len();
        let layer_vars: Vec<Var> = (0..slots)
            .map(|t| {
                let weights: Vec<Tensor> = ingredients
                    .iter()
                    .map(|i| i.params.layers[l].tensors[t].clone())
                    .collect();
                tape.soup_layer(&weights, raw_var)
            })
            .collect();
        layers.push(layer_vars);
    }
    (ParamVars { layers }, raw_vars)
}

/// Materialise the soup parameters for the current α values (no tape) —
/// one fused N-way blend per tensor instead of an axpy chain.
pub(crate) fn materialize_soup(ingredients: &[Ingredient], alphas: &AlphaState) -> ParamSet {
    let template = &ingredients[0].params;
    let layers = template
        .layers
        .iter()
        .enumerate()
        .map(|(l, layer)| {
            let ratios = alphas.ratios(l);
            LayerParams {
                name: layer.name.clone(),
                tensors: (0..layer.tensors.len())
                    .map(|t| {
                        let parts: Vec<&Tensor> = ingredients
                            .iter()
                            .map(|i| &i.params.layers[l].tensors[t])
                            .collect();
                        soup_tensor::ops::soup::blend(&ratios, &parts)
                    })
                    .collect(),
            }
        })
        .collect();
    ParamSet { layers }
}

/// Hard-drop weak ingredients (§VIII): any ingredient whose mean softmax
/// ratio across layers falls below `threshold` gets its raw α shifted by
/// −30, which saturates the softmax to ≈0 — something gradient descent
/// alone cannot reach (§V-A). The best ingredient is always kept.
#[allow(clippy::needless_range_loop)] // parallel-array walk over n ingredients
pub(crate) fn prune_weak_ingredients(alphas: &mut AlphaState, threshold: f32) -> usize {
    let n = alphas.raw[0].rows();
    let mean_ratio = mean_ratios(alphas);
    let best = mean_ratio
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut pruned = 0usize;
    for i in 0..n {
        if i != best && mean_ratio[i] < threshold {
            for raw in alphas.raw.iter_mut() {
                raw.make_mut()[i] -= 30.0;
            }
            pruned += 1;
        }
    }
    pruned
}

/// Mean softmax ratio of each ingredient across layers — the per-epoch
/// soup-weight telemetry emitted into traces by LS and PLS.
pub(crate) fn mean_ratios(alphas: &AlphaState) -> Vec<f32> {
    let num_layers = alphas.raw.len();
    let n = alphas.raw[0].rows();
    let mut mean = vec![0.0f32; n];
    for l in 0..num_layers {
        for (i, r) in alphas.ratios(l).into_iter().enumerate() {
            mean[i] += r / num_layers as f32;
        }
    }
    mean
}

/// One α-optimisation step on prepared epoch data. Returns the loss.
///
/// When `cache` is provided it must have been built from `features` — the
/// forward consumes the cached first-hop aggregation (the soup evaluation
/// runs in eval mode, where that hop is weight-independent; α gradients
/// flow through the downstream transform only, so caching does not touch
/// the backward pass).
#[allow(clippy::too_many_arguments)]
pub(crate) fn learned_step(
    ingredients: &[Ingredient],
    alphas: &mut AlphaState,
    cfg: &ModelConfig,
    ops: &PropOps,
    cache: Option<&PropCache>,
    features: &Tensor,
    labels: &[u32],
    mask: &[usize],
    opt: &mut Sgd,
) -> f32 {
    let tape = Tape::new();
    let (soup_vars, raw_vars) = build_soup_on_tape(&tape, ingredients, alphas);
    let x = tape.constant(features.clone());
    // Eval-mode forward: the soup evaluation of Alg. 3 has no dropout.
    let mut no_rng = SplitMix64::new(0);
    let logits =
        soup_gnn::model::forward_cached(&tape, cfg, ops, cache, x, &soup_vars, false, &mut no_rng);
    let loss = tape.cross_entropy_masked(logits, labels, mask);
    let loss_val = tape.value(loss).item();
    let grads = tape.backward(loss);
    let grad_list: Vec<Option<Tensor>> = raw_vars.iter().map(|&v| grads.get(v).cloned()).collect();
    opt.step(&mut alphas.raw, &grad_list);
    loss_val
}

/// Learned Souping (Algorithm 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct LearnedSouping {
    pub hyper: LearnedHyper,
}

impl LearnedSouping {
    pub fn new(hyper: LearnedHyper) -> Self {
        Self { hyper }
    }

    /// The Alg. 3 epoch loop (full validation graph every epoch).
    fn mix_loop(
        &self,
        ingredients: &[Ingredient],
        dataset: &Dataset,
        cfg: &ModelConfig,
        seed: u64,
        persist: Option<&Phase2Persist>,
    ) -> crate::Result<Option<MixReport>> {
        let h = self.hyper;
        let _ls_span = soup_obs::span!("soup.ls");
        let shape = RunShape {
            strategy: "ls",
            seed,
            total_epochs: h.epochs,
            num_ingredients: ingredients.len(),
            partitions: 0,
            budget: 0,
        };
        let mut session = Phase2Session::begin(persist, shape)?;
        let mut rng = SplitMix64::new(seed).derive(0x15);
        let mut alphas = AlphaState::init(
            ingredients.len(),
            ingredients[0].params.num_layers(),
            &mut rng,
        );
        let (fit_mask, monitor_mask): (Vec<usize>, Vec<usize>) = if h.holdout_ratio > 0.0 {
            let (fit, holdout) = dataset.splits.split_val(h.holdout_ratio, seed);
            (fit, holdout)
        } else {
            (dataset.splits.val.clone(), dataset.splits.val.clone())
        };
        let ops = PropOps::prepare(cfg.arch, &dataset.graph);
        let cache = h
            .prop_cache
            .then(|| PropCache::new(&ops, &dataset.features));
        let sched = CosineAnnealing::new(h.base_lr, h.eta_min, h.epochs);
        let mut opt = Sgd::new(sched.lr(0).max(h.eta_min), h.momentum, h.weight_decay);
        let mut best: Option<(f64, AlphaState)> = None;
        let mut since_best = 0usize;
        let mut forwards = 0usize;
        let mut epochs_run = 0usize;
        let mut lr_scale = 1.0f32;
        let mut nan_retries = 0u64;
        let mut epoch = 0usize;
        if let Some(state) = session.take_resumed() {
            epoch = state.next_epoch as usize;
            epochs_run = state.epochs_run as usize;
            forwards = state.forwards as usize;
            rng = SplitMix64::from_snapshot(state.rng_state, state.rng_gauss_spare);
            alphas = AlphaState { raw: state.alphas };
            opt.set_velocity(state.velocity);
            best = match (state.best_acc, state.best_alphas) {
                (Some(acc), Some(raw)) => Some((acc, AlphaState { raw })),
                _ => None,
            };
            since_best = state.since_best as usize;
            lr_scale = state.lr_scale;
            nan_retries = state.nan_retries;
        }
        let mut attempts = 0u32;
        let mut stopped_early = false;
        while epoch < h.epochs {
            // Watchdog snapshot: taken before the epoch consumes any
            // randomness, so a retry replays the epoch deterministically.
            let snap_alphas = alphas.clone();
            let snap_velocity = opt.velocity().to_vec();
            let (snap_rng, snap_spare) = rng.snapshot();
            // §VI-A minibatched validation: subsample the fit nodes.
            let epoch_fit: Vec<usize> = match h.val_batch {
                Some(b) if b < fit_mask.len() => rng
                    .sample_indices(fit_mask.len(), b)
                    .into_iter()
                    .map(|k| fit_mask[k])
                    .collect(),
                _ => fit_mask.clone(),
            };
            opt.lr = (sched.lr(epoch) * lr_scale).max(1e-6);
            let mut loss = learned_step(
                ingredients,
                &mut alphas,
                cfg,
                &ops,
                cache.as_ref(),
                &dataset.features,
                &dataset.labels,
                &epoch_fit,
                &mut opt,
            );
            forwards += 1;
            if let Some((e, times)) = h.nan_inject {
                if epoch == e && attempts < times {
                    // Poison both the loss and the α state, as a genuinely
                    // diverged step would.
                    loss = f32::NAN;
                    alphas.raw[0].make_mut()[0] = f32::NAN;
                }
            }
            if !loss.is_finite() {
                if attempts >= h.nan_retry_budget {
                    return Err(SoupError::numeric(format!(
                        "LS epoch {epoch}: non-finite loss persisted after {attempts} \
                         watchdog retries (lr_scale {lr_scale})"
                    )));
                }
                attempts += 1;
                nan_retries += 1;
                alphas = snap_alphas;
                opt.set_velocity(snap_velocity);
                rng = SplitMix64::from_snapshot(snap_rng, snap_spare);
                lr_scale *= 0.5;
                soup_obs::counter!("soup.watchdog.retries").inc();
                soup_obs::warn!(
                    "LS epoch {epoch}: non-finite loss; restored last good α, \
                     retrying with lr_scale {lr_scale} (attempt {attempts}/{})",
                    h.nan_retry_budget
                );
                continue;
            }
            attempts = 0;
            epochs_run += 1;
            soup_obs::counter!("soup.ls.epochs").inc();
            soup_obs::gauge!("soup.ls.epoch").set(epochs_run as f64);
            soup_obs::trace_event!("soup.ls.epoch",
                "epoch" => epoch as u64,
                "loss" => loss,
                "lr" => opt.lr,
                "mean_ratios" => mean_ratios(&alphas));
            // §VIII ingredient drop-out at the half-way point.
            if let Some(threshold) = h.prune_threshold {
                if epoch + 1 == h.epochs / 2 {
                    prune_weak_ingredients(&mut alphas, threshold);
                }
            }
            // §VI-A early stopping on the monitored split.
            if let Some(patience) = h.early_stop_patience {
                let soup = materialize_soup(ingredients, &alphas);
                forwards += 1;
                let acc = match &cache {
                    Some(c) => soup_gnn::evaluate_accuracy_cached(
                        cfg,
                        &ops,
                        c,
                        &soup,
                        &dataset.labels,
                        &monitor_mask,
                    ),
                    None => soup_gnn::evaluate_accuracy(
                        cfg,
                        &ops,
                        &soup,
                        &dataset.features,
                        &dataset.labels,
                        &monitor_mask,
                    ),
                };
                match &best {
                    Some((b, _)) if acc <= *b => {
                        since_best += 1;
                        if since_best >= patience {
                            stopped_early = true;
                        }
                    }
                    _ => {
                        best = Some((acc, alphas.clone()));
                        since_best = 0;
                    }
                }
            }
            epoch += 1;
            let capture = |next_epoch: usize| {
                shape.capture(
                    next_epoch,
                    epochs_run,
                    forwards,
                    &rng,
                    &alphas.raw,
                    opt.velocity(),
                    best.as_ref().map(|(a, s)| (*a, s.raw.as_slice())),
                    since_best,
                    lr_scale,
                    nan_retries,
                )
            };
            if stopped_early {
                // Mark the run complete so a later resume reproduces the
                // restored-best soup without replaying the patience window.
                session.save(h.epochs, capture(h.epochs))?;
                break;
            }
            if session.after_epoch(epoch, || capture(epoch))? {
                return Ok(None);
            }
        }
        if let Some((_, a)) = best {
            alphas = a;
        }
        let spmm_saved = cache.as_ref().map_or(0, |c| c.hits().saturating_sub(1));
        Ok(Some(MixReport {
            params: materialize_soup(ingredients, &alphas),
            forward_passes: forwards,
            epochs: epochs_run,
            spmm_saved,
        }))
    }
}

impl SoupStrategy for LearnedSouping {
    fn name(&self) -> &'static str {
        "LS"
    }

    /// Fallible, resumable LS entry point. With `ctx.persist` set the loop
    /// checkpoints its optimizer state through the crash-safe store and can
    /// continue bit-identically from the last durable epoch
    /// (`Ok(None)` reports a deliberate [`Phase2Persist::stop_after`]
    /// kill). Numeric-watchdog exhaustion surfaces as
    /// [`SoupError::Numeric`] instead of panicking. A precomputed
    /// `ctx.partitioning` is PLS preprocessing and ignored here.
    fn try_soup(&self, ctx: &SoupCtx<'_>) -> crate::Result<Option<SoupOutcome>> {
        let (ingredients, dataset, cfg) = (ctx.ingredients, ctx.dataset, ctx.cfg);
        validate_ingredients(ingredients);
        assert!(self.hyper.epochs > 0, "LS needs at least one epoch");
        // A partial pool needs no special handling: the softmax over the
        // R' surviving ingredients renormalises the ratios by construction.
        measure_soup_try(ingredients, dataset, cfg, || {
            self.mix_loop(ingredients, dataset, cfg, ctx.seed, ctx.persist)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soup_gnn::model::init_params;
    use soup_gnn::{train_single, TrainConfig};
    use soup_graph::DatasetKind;

    fn trained_ingredients(n: usize, seed: u64) -> (Dataset, ModelConfig, Vec<Ingredient>) {
        let d = DatasetKind::Flickr.generate_scaled(seed, 0.15);
        let cfg = ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(12);
        let mut rng = SplitMix64::new(seed);
        let init = init_params(&cfg, &mut rng);
        let tc = TrainConfig {
            epochs: 15,
            ..TrainConfig::quick()
        };
        let ingredients = (0..n)
            .map(|i| {
                let tm = train_single(&d, &cfg, &tc, &init, 90 + i as u64);
                Ingredient::new(i, tm.params, tm.val_accuracy, 90 + i as u64)
            })
            .collect();
        (d, cfg, ingredients)
    }

    #[test]
    fn alpha_init_statistics() {
        let mut rng = SplitMix64::new(1);
        let a = AlphaState::init(50, 3, &mut rng);
        assert_eq!(a.raw.len(), 3);
        assert_eq!(a.raw[0].rows(), 50);
        let sigma = (2.0f32 / 51.0).sqrt();
        assert!(a.raw[0].max_abs() < 6.0 * sigma);
    }

    #[test]
    fn ratios_sum_to_one_and_positive() {
        let mut rng = SplitMix64::new(2);
        let a = AlphaState::init(8, 2, &mut rng);
        for l in 0..2 {
            let r = a.ratios(l);
            assert!((r.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            // §V-A: softmax can never assign exactly zero.
            assert!(r.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn materialized_soup_is_convex_combination() {
        let (_, _, ingredients) = trained_ingredients(3, 7);
        let mut rng = SplitMix64::new(3);
        let alphas = AlphaState::init(3, ingredients[0].params.num_layers(), &mut rng);
        let soup = materialize_soup(&ingredients, &alphas);
        // Every soup entry lies within the convex hull of ingredient entries.
        for (slot, s) in soup.flat().enumerate() {
            let parts: Vec<&Tensor> = ingredients
                .iter()
                .map(|i| i.params.flat().nth(slot).unwrap())
                .collect();
            for e in 0..s.len() {
                let lo = parts
                    .iter()
                    .map(|t| t.data()[e])
                    .fold(f32::INFINITY, f32::min);
                let hi = parts
                    .iter()
                    .map(|t| t.data()[e])
                    .fold(f32::NEG_INFINITY, f32::max);
                assert!(s.data()[e] >= lo - 1e-4 && s.data()[e] <= hi + 1e-4);
            }
        }
    }

    #[test]
    fn tape_soup_matches_materialized() {
        let (_, _, ingredients) = trained_ingredients(3, 8);
        let mut rng = SplitMix64::new(4);
        let alphas = AlphaState::init(3, ingredients[0].params.num_layers(), &mut rng);
        let tape = Tape::new();
        let (vars, _) = build_soup_on_tape(&tape, &ingredients, &alphas);
        let materialized = materialize_soup(&ingredients, &alphas);
        let mut mat_iter = materialized.flat();
        for layer in &vars.layers {
            for &v in layer {
                let expect = mat_iter.next().unwrap();
                assert!(tape.value(v).allclose(expect, 1e-5));
            }
        }
    }

    #[test]
    fn ls_reduces_validation_loss() {
        let (d, cfg, ingredients) = trained_ingredients(4, 9);
        let ops = PropOps::prepare(cfg.arch, &d.graph);
        let mut rng = SplitMix64::new(5);
        let mut alphas = AlphaState::init(4, ingredients[0].params.num_layers(), &mut rng);
        let mut opt = Sgd::new(0.5, 0.9, 0.0);
        let cache = PropCache::new(&ops, &d.features);
        let first = learned_step(
            &ingredients,
            &mut alphas,
            &cfg,
            &ops,
            Some(&cache),
            &d.features,
            &d.labels,
            &d.splits.val,
            &mut opt,
        );
        let mut last = first;
        for _ in 0..20 {
            last = learned_step(
                &ingredients,
                &mut alphas,
                &cfg,
                &ops,
                Some(&cache),
                &d.features,
                &d.labels,
                &d.splits.val,
                &mut opt,
            );
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert_eq!(cache.hits(), 21, "every step should consume the cache");
    }

    #[test]
    fn cached_step_matches_uncached_bitwise() {
        let (d, cfg, ingredients) = trained_ingredients(3, 16);
        let ops = PropOps::prepare(cfg.arch, &d.graph);
        let cache = PropCache::new(&ops, &d.features);
        let mut rng = SplitMix64::new(6);
        let init = AlphaState::init(3, ingredients[0].params.num_layers(), &mut rng);
        let run = |cache: Option<&PropCache>| {
            let mut alphas = init.clone();
            let mut opt = Sgd::new(0.5, 0.9, 0.0);
            let mut losses = Vec::new();
            for _ in 0..5 {
                losses.push(learned_step(
                    &ingredients,
                    &mut alphas,
                    &cfg,
                    &ops,
                    cache,
                    &d.features,
                    &d.labels,
                    &d.splits.val,
                    &mut opt,
                ));
            }
            (losses, alphas)
        };
        let (la, aa) = run(Some(&cache));
        let (lb, ab) = run(None);
        for (x, y) in la.iter().zip(&lb) {
            assert_eq!(x.to_bits(), y.to_bits(), "losses diverge");
        }
        for (x, y) in aa.raw.iter().zip(&ab.raw) {
            assert_eq!(x, y, "alpha trajectories diverge");
        }
    }

    #[test]
    fn ls_soups_competitively() {
        let (d, cfg, ingredients) = trained_ingredients(4, 10);
        let outcome = LearnedSouping::default().soup(&ingredients, &d, &cfg, 1);
        let best = ingredients
            .iter()
            .map(|i| i.val_accuracy)
            .fold(0.0, f64::max);
        // LS is not monotone like greedy, but must stay in the ballpark of
        // the best ingredient on validation data.
        assert!(
            outcome.val_accuracy >= best - 0.05,
            "LS {} far below best ingredient {best}",
            outcome.val_accuracy
        );
        assert_eq!(outcome.stats.epochs, LearnedHyper::default().epochs);
    }

    #[test]
    fn deterministic_given_seed() {
        let (d, cfg, ingredients) = trained_ingredients(3, 11);
        let a = LearnedSouping::default().soup(&ingredients, &d, &cfg, 5);
        let b = LearnedSouping::default().soup(&ingredients, &d, &cfg, 5);
        assert_eq!(a.val_accuracy, b.val_accuracy);
        for (x, y) in a.params.flat().zip(b.params.flat()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn early_stopping_halts_and_counts_extra_forwards() {
        let (d, cfg, ingredients) = trained_ingredients(3, 13);
        let h = LearnedHyper {
            epochs: 200,
            early_stop_patience: Some(3),
            holdout_ratio: 0.3,
            ..Default::default()
        };
        let outcome = LearnedSouping::new(h).soup(&ingredients, &d, &cfg, 3);
        assert!(
            outcome.stats.epochs < 200,
            "never stopped ({})",
            outcome.stats.epochs
        );
        // One monitoring forward per epoch on top of the fitting forward.
        assert_eq!(outcome.stats.forward_passes, 2 * outcome.stats.epochs);
    }

    #[test]
    fn val_batch_subsamples_fit_nodes() {
        let (d, cfg, ingredients) = trained_ingredients(3, 14);
        let h = LearnedHyper {
            epochs: 10,
            val_batch: Some(8),
            ..Default::default()
        };
        let outcome = LearnedSouping::new(h).soup(&ingredients, &d, &cfg, 4);
        assert!((0.0..=1.0).contains(&outcome.val_accuracy));
        assert_eq!(outcome.stats.epochs, 10);
    }

    #[test]
    fn pruning_zeroes_weak_ingredients() {
        let mut rng = SplitMix64::new(20);
        let mut alphas = AlphaState::init(4, 2, &mut rng);
        // Bias ingredient 2 to dominate.
        for raw in alphas.raw.iter_mut() {
            raw.make_mut()[2] += 5.0;
        }
        let pruned = prune_weak_ingredients(&mut alphas, 0.2);
        assert_eq!(pruned, 3, "all non-dominant ingredients below threshold");
        for l in 0..2 {
            let r = alphas.ratios(l);
            assert!(r[2] > 0.999, "dominant ingredient kept: {r:?}");
            for (i, &v) in r.iter().enumerate() {
                if i != 2 {
                    assert!(v < 1e-6, "ingredient {i} not pruned: {r:?}");
                }
            }
        }
    }

    #[test]
    fn pruning_always_keeps_the_best() {
        let mut rng = SplitMix64::new(21);
        let mut alphas = AlphaState::init(3, 1, &mut rng);
        // Threshold of 1.0 would prune everything — best must survive.
        prune_weak_ingredients(&mut alphas, 1.0);
        let r = alphas.ratios(0);
        assert!(
            r.iter().any(|&v| v > 0.99),
            "no surviving ingredient: {r:?}"
        );
    }

    #[test]
    fn ls_with_pruning_still_soups() {
        let (d, cfg, ingredients) = trained_ingredients(4, 15);
        let h = LearnedHyper {
            epochs: 20,
            prune_threshold: Some(0.05),
            ..Default::default()
        };
        let outcome = LearnedSouping::new(h).soup(&ingredients, &d, &cfg, 5);
        let best = ingredients
            .iter()
            .map(|i| i.val_accuracy)
            .fold(0.0, f64::max);
        assert!(
            outcome.val_accuracy >= best - 0.08,
            "{}",
            outcome.val_accuracy
        );
    }

    #[test]
    fn holdout_fitting_uses_subset() {
        let (d, cfg, ingredients) = trained_ingredients(3, 12);
        let h = LearnedHyper {
            holdout_ratio: 0.5,
            epochs: 10,
            ..Default::default()
        };
        let outcome = LearnedSouping::new(h).soup(&ingredients, &d, &cfg, 2);
        assert!((0.0..=1.0).contains(&outcome.val_accuracy));
    }

    #[test]
    fn watchdog_recovers_from_injected_nans() {
        let (d, cfg, ingredients) = trained_ingredients(3, 16);
        let clean_h = LearnedHyper {
            epochs: 8,
            ..Default::default()
        };
        let clean = LearnedSouping::new(clean_h).soup(&ingredients, &d, &cfg, 6);
        // Poison epoch 3 twice; the watchdog restores the snapshot and
        // retries with a halved LR, so the run completes.
        let chaotic_h = LearnedHyper {
            nan_inject: Some((3, 2)),
            ..clean_h
        };
        let chaotic = SoupStrategy::try_soup(
            &LearnedSouping::new(chaotic_h),
            &SoupCtx::new(&ingredients, &d, &cfg, 6),
        )
        .unwrap()
        .unwrap();
        assert!((0.0..=1.0).contains(&chaotic.val_accuracy));
        // Retries cost extra forwards but epochs_run matches the schedule.
        assert_eq!(chaotic.stats.epochs, clean.stats.epochs);
        assert_eq!(chaotic.stats.forward_passes, clean.stats.forward_passes + 2);
    }

    #[test]
    fn watchdog_exhaustion_is_numeric_error() {
        let (d, cfg, ingredients) = trained_ingredients(3, 17);
        let h = LearnedHyper {
            epochs: 6,
            nan_retry_budget: 2,
            nan_inject: Some((1, u32::MAX)), // never stops firing
            ..Default::default()
        };
        let err = SoupStrategy::try_soup(
            &LearnedSouping::new(h),
            &SoupCtx::new(&ingredients, &d, &cfg, 4),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "numeric");
    }

    #[test]
    fn pls_watchdog_recovers_too() {
        let (d, cfg, ingredients) = trained_ingredients(3, 18);
        let h = LearnedHyper {
            epochs: 8,
            nan_inject: Some((2, 1)),
            ..Default::default()
        };
        let outcome = SoupStrategy::try_soup(
            &crate::pls::PartitionLearnedSouping::new(h, 8, 3),
            &SoupCtx::new(&ingredients, &d, &cfg, 7),
        )
        .unwrap()
        .unwrap();
        assert!((0.0..=1.0).contains(&outcome.val_accuracy));
        let clean = crate::pls::PartitionLearnedSouping::new(
            LearnedHyper {
                nan_inject: None,
                ..h
            },
            8,
            3,
        )
        .soup(&ingredients, &d, &cfg, 7);
        // The retry replays the same draw with a scaled LR; apart from the
        // watchdog detour the schedule is unchanged.
        assert_eq!(outcome.stats.epochs, clean.stats.epochs);
    }
}
