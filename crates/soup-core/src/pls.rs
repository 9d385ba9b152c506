//! Partition Learned Souping (PLS) — Algorithm 4, the paper's second
//! contribution.
//!
//! PLS is Learned Souping with partition sampling: the graph is first
//! partitioned into `K` parts (METIS-like, balancing validation nodes —
//! §III-C), and every epoch draws `R` random partitions, joins them into a
//! subgraph *with their mutual cut edges preserved* (Eq. 5), and runs the
//! α-optimisation step on that subgraph only. Activations therefore scale
//! with `R/K` of the graph — the source of the paper's 76-80% memory
//! reductions — while the random partition mix acts like minibatching and
//! regularises the soup (§V-A).
//!
//! §VI-B analyses the `R/K` ratio: with `binom(K, R)` possible subgraphs,
//! `R=8, K=32` gives >10M combinations, while `R=1` never exercises cut
//! edges and costs 2-3% accuracy.

use crate::ingredient::{validate_ingredients, Ingredient};
use crate::learned::{
    learned_step, materialize_soup, prune_weak_ingredients, AlphaState, LearnedHyper,
};
use crate::resume::{Phase2Persist, Phase2Session, RunShape};
use crate::strategy::{measure_soup_try, MixReport, SoupCtx, SoupOutcome, SoupStrategy};
use crate::subcache::{SubgraphCache, SubgraphEntry};
use soup_error::SoupError;
use soup_gnn::cache::PropCache;
use soup_gnn::model::PropOps;
use soup_gnn::{Arch, ModelConfig};
use soup_graph::subgraph::InducedSubgraph;
use soup_graph::Dataset;
use soup_partition::{
    bfs_partition, partition_graph, partition_val_balanced, random_partition, PartitionConfig,
    Partitioning,
};
use soup_tensor::optim::{CosineAnnealing, Sgd};
use soup_tensor::SplitMix64;

/// Which partitioner prepares PLS's partition pool. The paper prescribes
/// METIS with validation balancing (§III-C); the alternatives exist for
/// the partition-quality ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionerKind {
    /// Multilevel k-way with validation-node-boosted vertex weights
    /// (the paper's setting).
    #[default]
    MultilevelValBalanced,
    /// Multilevel k-way with uniform vertex weights.
    Multilevel,
    /// Cheap BFS block growing (locality, no refinement).
    Bfs,
    /// Structure-blind random assignment (ablation lower bound).
    Random,
}

/// PLS configuration.
#[derive(Debug, Clone, Copy)]
pub struct PartitionLearnedSouping {
    pub hyper: LearnedHyper,
    /// Total number of partitions `K`.
    pub num_partitions: usize,
    /// Partitions selected per epoch `R` (the partition budget).
    pub budget: usize,
    /// Partitioner preparing the pool.
    pub partitioner: PartitionerKind,
    /// Capacity of the LRU subgraph cache memoising prepared epochs by
    /// partition subset (0 disables). Memoisation only engages when every
    /// distinct subset fits — `binom(K, R) <= capacity` — because with a
    /// larger subset space the hit rate is ~`capacity / binom(K, R)` ~ 0
    /// and retained entries would inflate the peak memory PLS exists to
    /// reduce (sizing analysis in DESIGN.md §9).
    pub subgraph_cache: usize,
}

impl Default for PartitionLearnedSouping {
    fn default() -> Self {
        // The paper's practical choice: R=8, K=32 (§VI-B).
        Self {
            hyper: LearnedHyper::default(),
            num_partitions: 32,
            budget: 8,
            partitioner: PartitionerKind::MultilevelValBalanced,
            subgraph_cache: 32,
        }
    }
}

impl PartitionLearnedSouping {
    pub fn new(hyper: LearnedHyper, num_partitions: usize, budget: usize) -> Self {
        assert!(num_partitions >= 1, "K must be >= 1");
        assert!(
            (1..=num_partitions).contains(&budget),
            "R must be in 1..=K (got R={budget}, K={num_partitions})"
        );
        Self {
            hyper,
            num_partitions,
            budget,
            ..Self::default()
        }
    }

    pub fn with_partitioner(mut self, partitioner: PartitionerKind) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Set the LRU subgraph-cache capacity (0 disables memoisation).
    pub fn with_subgraph_cache(mut self, capacity: usize) -> Self {
        self.subgraph_cache = capacity;
        self
    }

    /// The capacity the mixing loop actually hands the LRU: the
    /// configured one when the whole subset space fits (guaranteed recurring
    /// draws), 0 otherwise — see the [`Self::subgraph_cache`] field docs.
    pub fn effective_subgraph_cache(&self) -> usize {
        if self.num_possible_subgraphs() <= self.subgraph_cache as f64 {
            self.subgraph_cache
        } else {
            0
        }
    }

    fn run_partitioner(&self, dataset: &Dataset, seed: u64) -> Partitioning {
        let pcfg = PartitionConfig::new(self.num_partitions).with_seed(seed);
        match self.partitioner {
            PartitionerKind::MultilevelValBalanced => {
                partition_val_balanced(&dataset.graph, &dataset.splits, &pcfg)
            }
            PartitionerKind::Multilevel => {
                partition_graph(&dataset.graph, &vec![1.0; dataset.num_nodes()], &pcfg)
            }
            PartitionerKind::Bfs => bfs_partition(&dataset.graph, self.num_partitions, seed),
            PartitionerKind::Random => {
                random_partition(dataset.num_nodes(), self.num_partitions, seed)
            }
        }
    }

    /// The partition ratio `R/K` (§III-D) — the expected fraction of graph
    /// nodes (and hence activation memory) touched per epoch.
    pub fn partition_ratio(&self) -> f64 {
        self.budget as f64 / self.num_partitions as f64
    }

    /// Number of distinct epoch subgraphs: `binom(K, R)` (§VI-B).
    pub fn num_possible_subgraphs(&self) -> f64 {
        let k = self.num_partitions;
        // Multiplicative formula on the smaller side of the symmetry.
        let r = self.budget.min(k - self.budget);
        let mut acc = 1.0f64;
        for i in 0..r {
            acc *= (k - i) as f64 / (i + 1) as f64;
        }
        acc
    }
}

impl SoupStrategy for PartitionLearnedSouping {
    fn name(&self) -> &'static str {
        "PLS"
    }

    /// Fallible, resumable PLS entry point. With `ctx.persist` set, the
    /// loop checkpoints through the crash-safe store and `Ok(None)` reports
    /// a deliberate [`Phase2Persist::stop_after`] kill. When
    /// `ctx.partitioning` is provided the K-way preprocessing (Fig. 2
    /// step 1) is taken as given — partitioning is "a preprocessing step",
    /// so repeated soups from one dataset amortise it — and the measured
    /// souping time covers only the α-optimisation epochs; otherwise the
    /// configured partitioner runs inside the measured region.
    fn try_soup(&self, ctx: &SoupCtx<'_>) -> crate::Result<Option<SoupOutcome>> {
        let (ingredients, dataset, cfg) = (ctx.ingredients, ctx.dataset, ctx.cfg);
        validate_ingredients(ingredients);
        assert!(self.hyper.epochs > 0, "PLS needs at least one epoch");
        if let Some(partitioning) = ctx.partitioning {
            assert_eq!(
                partitioning.assignment.len(),
                dataset.num_nodes(),
                "partitioning does not match dataset"
            );
            assert_eq!(
                partitioning.k, self.num_partitions,
                "partitioning k != configured K"
            );
            measure_soup_try(ingredients, dataset, cfg, || {
                self.mix_loop(
                    ingredients,
                    dataset,
                    cfg,
                    ctx.seed,
                    partitioning,
                    ctx.persist,
                )
            })
        } else {
            measure_soup_try(ingredients, dataset, cfg, || {
                let partitioning = self.run_partitioner(dataset, ctx.seed);
                self.mix_loop(
                    ingredients,
                    dataset,
                    cfg,
                    ctx.seed,
                    &partitioning,
                    ctx.persist,
                )
            })
        }
    }
}

impl PartitionLearnedSouping {
    /// The Alg. 4 epoch loop over a fixed partition pool.
    fn mix_loop(
        &self,
        ingredients: &[Ingredient],
        dataset: &Dataset,
        cfg: &ModelConfig,
        seed: u64,
        partitioning: &Partitioning,
        persist: Option<&Phase2Persist>,
    ) -> crate::Result<Option<MixReport>> {
        let h = self.hyper;
        let _pls_span = soup_obs::span!("soup.pls");
        let shape = RunShape {
            strategy: "pls",
            seed,
            total_epochs: h.epochs,
            num_ingredients: ingredients.len(),
            partitions: self.num_partitions,
            budget: self.budget,
        };
        let mut session = Phase2Session::begin(persist, shape)?;
        let mut rng = SplitMix64::new(seed).derive(0x915);
        let mut alphas = AlphaState::init(
            ingredients.len(),
            ingredients[0].params.num_layers(),
            &mut rng,
        );
        let fit_mask: Vec<usize> = if h.holdout_ratio > 0.0 {
            dataset.splits.split_val(h.holdout_ratio, seed).0
        } else {
            dataset.splits.val.clone()
        };
        let fit_is_val: Vec<bool> = {
            let mut v = vec![false; dataset.num_nodes()];
            for &i in &fit_mask {
                v[i] = true;
            }
            v
        };
        let sched = CosineAnnealing::new(h.base_lr, h.eta_min, h.epochs);
        let mut opt = Sgd::new(sched.lr(0).max(h.eta_min), h.momentum, h.weight_decay);
        let mut subcache = SubgraphCache::new(self.effective_subgraph_cache());
        let mut epochs_run = 0usize;
        let mut lr_scale = 1.0f32;
        let mut nan_retries = 0u64;
        let mut epoch = 0usize;
        if let Some(state) = session.take_resumed() {
            epoch = state.next_epoch as usize;
            epochs_run = state.epochs_run as usize;
            rng = SplitMix64::from_snapshot(state.rng_state, state.rng_gauss_spare);
            alphas = AlphaState { raw: state.alphas };
            opt.set_velocity(state.velocity);
            lr_scale = state.lr_scale;
            nan_retries = state.nan_retries;
        }
        let mut attempts = 0u32;
        while epoch < h.epochs {
            // Watchdog snapshot: taken before the partition draw consumes
            // randomness, so a retry replays the epoch deterministically.
            let snap_alphas = alphas.clone();
            let snap_velocity = opt.velocity().to_vec();
            let (snap_rng, snap_spare) = rng.snapshot();
            // Select R random partitions (Alg. 4: partitionSelection).
            // The draw happens before any cache lookup, so the rng
            // stream — and hence the α trajectory — is byte-for-byte
            // the same with and without memoisation.
            let selected: Vec<u32> = rng
                .sample_indices(self.num_partitions, self.budget)
                .into_iter()
                .map(|p| p as u32)
                .collect();
            let build = || {
                build_epoch(
                    dataset,
                    cfg,
                    &partitioning.assignment,
                    &selected,
                    &fit_is_val,
                    h.prop_cache,
                )
            };
            let owned;
            let entry: &SubgraphEntry =
                match subcache.get_or_insert_with(soup_graph::subset_key(&selected), build) {
                    Some(e) => e,
                    None => {
                        owned = build_epoch(
                            dataset,
                            cfg,
                            &partitioning.assignment,
                            &selected,
                            &fit_is_val,
                            h.prop_cache,
                        );
                        &owned
                    }
                };
            if entry.local_mask.is_empty() {
                // Degenerate draw: the selected partitions hold no fit
                // nodes (possible at tiny scales or under aggressive
                // holdout). Drop the empty epoch rather than stepping
                // on a lossless subgraph. The epoch index still advances
                // (and checkpoints) so a resumed run replays the same draw
                // sequence.
                soup_obs::counter!("soup.pls.empty_partition_draws").inc();
                attempts = 0;
                epoch += 1;
                if session.after_epoch(epoch, || {
                    shape.capture(
                        epoch,
                        epochs_run,
                        epochs_run,
                        &rng,
                        &alphas.raw,
                        opt.velocity(),
                        None,
                        0,
                        lr_scale,
                        nan_retries,
                    )
                })? {
                    return Ok(None);
                }
                continue;
            }
            opt.lr = (sched.lr(epoch) * lr_scale).max(1e-6);
            let mut loss = learned_step(
                ingredients,
                &mut alphas,
                cfg,
                &entry.ops,
                entry.prop.as_ref(),
                &entry.features,
                &entry.labels,
                &entry.local_mask,
                &mut opt,
            );
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
                        "PLS epoch {epoch}: non-finite loss persisted after {attempts} \
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
                    "PLS epoch {epoch}: non-finite loss; restored last good α, \
                     retrying with lr_scale {lr_scale} (attempt {attempts}/{})",
                    h.nan_retry_budget
                );
                continue;
            }
            attempts = 0;
            epochs_run += 1;
            soup_obs::counter!("soup.pls.epochs").inc();
            soup_obs::gauge!("soup.pls.epoch").set(epochs_run as f64);
            soup_obs::trace_event!("soup.pls.epoch",
                "epoch" => epoch as u64,
                "loss" => loss,
                "lr" => opt.lr,
                "sub_nodes" => entry.sub.local_to_global.len() as u64,
                "selected" => selected,
                "mean_ratios" => crate::learned::mean_ratios(&alphas));
            // §VIII ingredient drop-out at the half-way point.
            if let Some(threshold) = h.prune_threshold {
                if epoch + 1 == h.epochs / 2 {
                    prune_weak_ingredients(&mut alphas, threshold);
                }
            }
            epoch += 1;
            if session.after_epoch(epoch, || {
                shape.capture(
                    epoch,
                    epochs_run,
                    epochs_run,
                    &rng,
                    &alphas.raw,
                    opt.velocity(),
                    None,
                    0,
                    lr_scale,
                    nan_retries,
                )
            })? {
                return Ok(None);
            }
        }
        // Each subgraph-cache hit skipped rebuilding the entry's
        // PropCache — one SpMM — when the propagation cache is on (GAT
        // entries hold no aggregation, so hits save build work only).
        let spmm_saved = if cfg.arch != Arch::Gat && h.prop_cache {
            subcache.hits()
        } else {
            0
        };
        Ok(Some(MixReport {
            params: materialize_soup(ingredients, &alphas),
            forward_passes: epochs_run,
            epochs: epochs_run,
            spmm_saved,
        }))
    }
}

/// Prepare everything one PLS epoch needs from a partition draw.
fn build_epoch(
    dataset: &Dataset,
    cfg: &ModelConfig,
    assignment: &[u32],
    selected: &[u32],
    fit_is_val: &[bool],
    prop_cache: bool,
) -> SubgraphEntry {
    let sub = InducedSubgraph::from_partitions(&dataset.graph, assignment, selected);
    // Validation nodes of the subgraph (local ids).
    let local_mask: Vec<usize> = sub
        .local_to_global
        .iter()
        .enumerate()
        .filter(|&(_, &g)| fit_is_val[g])
        .map(|(l, _)| l)
        .collect();
    let ops = PropOps::prepare(cfg.arch, &sub.graph);
    let features = sub.gather_features(&dataset.features);
    let labels = sub.gather_labels(&dataset.labels);
    let prop = prop_cache.then(|| PropCache::new(&ops, &features));
    SubgraphEntry {
        sub,
        ops,
        features,
        labels,
        local_mask,
        prop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learned::LearnedSouping;
    use soup_gnn::model::init_params;
    use soup_gnn::{train_single, TrainConfig};
    use soup_graph::DatasetKind;

    fn trained_ingredients(
        n: usize,
        seed: u64,
        scale: f64,
    ) -> (Dataset, ModelConfig, Vec<Ingredient>) {
        let d = DatasetKind::Flickr.generate_scaled(seed, scale);
        let cfg = ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(12);
        let mut rng = SplitMix64::new(seed);
        let init = init_params(&cfg, &mut rng);
        let tc = TrainConfig {
            epochs: 15,
            ..TrainConfig::quick()
        };
        let ingredients = (0..n)
            .map(|i| {
                let tm = train_single(&d, &cfg, &tc, &init, 200 + i as u64);
                Ingredient::new(i, tm.params, tm.val_accuracy, 200 + i as u64)
            })
            .collect();
        (d, cfg, ingredients)
    }

    #[test]
    fn partition_ratio_and_combinations() {
        let pls = PartitionLearnedSouping::default();
        assert_eq!(pls.partition_ratio(), 0.25);
        // binom(32, 8) = 10_518_300 — the ">10 million subgraphs" of §VI-B.
        assert!((pls.num_possible_subgraphs() - 10_518_300.0).abs() < 1.0);
    }

    #[test]
    fn binom_edge_cases() {
        let r1 = PartitionLearnedSouping::new(LearnedHyper::default(), 16, 1);
        assert!((r1.num_possible_subgraphs() - 16.0).abs() < 1e-9);
        let all = PartitionLearnedSouping::new(LearnedHyper::default(), 8, 8);
        assert!((all.num_possible_subgraphs() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "R must be")]
    fn budget_above_k_panics() {
        PartitionLearnedSouping::new(LearnedHyper::default(), 4, 5);
    }

    #[test]
    fn pls_produces_reasonable_soup() {
        let (d, cfg, ingredients) = trained_ingredients(4, 20, 0.25);
        let pls = PartitionLearnedSouping::new(
            LearnedHyper {
                epochs: 30,
                ..Default::default()
            },
            8,
            4,
        );
        let outcome = pls.soup(&ingredients, &d, &cfg, 3);
        let best = ingredients
            .iter()
            .map(|i| i.val_accuracy)
            .fold(0.0, f64::max);
        assert!(
            outcome.val_accuracy >= best - 0.08,
            "PLS {} far below best ingredient {best}",
            outcome.val_accuracy
        );
        assert!(outcome.stats.epochs > 0, "every epoch was skipped");
    }

    #[test]
    fn pls_uses_less_memory_than_ls() {
        let (d, cfg, ingredients) = trained_ingredients(4, 21, 0.5);
        let h = LearnedHyper {
            epochs: 15,
            ..Default::default()
        };
        let ls = LearnedSouping::new(h).soup(&ingredients, &d, &cfg, 4);
        let pls = PartitionLearnedSouping::new(h, 16, 2).soup(&ingredients, &d, &cfg, 4);
        assert!(
            pls.stats.peak_mem_bytes < ls.stats.peak_mem_bytes,
            "PLS {} >= LS {}",
            pls.stats.peak_mem_bytes,
            ls.stats.peak_mem_bytes
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (d, cfg, ingredients) = trained_ingredients(3, 22, 0.2);
        let pls = PartitionLearnedSouping::new(
            LearnedHyper {
                epochs: 8,
                ..Default::default()
            },
            8,
            3,
        );
        let a = pls.soup(&ingredients, &d, &cfg, 9);
        let b = pls.soup(&ingredients, &d, &cfg, 9);
        assert_eq!(a.val_accuracy, b.val_accuracy);
    }

    #[test]
    fn prepartitioned_soup_matches_and_is_faster() {
        let (d, cfg, ingredients) = trained_ingredients(3, 24, 0.25);
        let hyper = LearnedHyper {
            epochs: 10,
            ..Default::default()
        };
        let pls = PartitionLearnedSouping::new(hyper, 8, 3);
        let partitioning = pls.run_partitioner(&d, 6);
        let pre = SoupStrategy::try_soup(
            &pls,
            &SoupCtx::new(&ingredients, &d, &cfg, 6).with_partitioning(&partitioning),
        )
        .unwrap()
        .unwrap();
        let full = pls.soup(&ingredients, &d, &cfg, 6);
        // Same seed + same partitioning path => identical soup.
        assert_eq!(pre.val_accuracy, full.val_accuracy);
        for (a, b) in pre.params.flat().zip(full.params.flat()) {
            assert_eq!(a, b);
        }
        // The prepartitioned variant excludes partitioning from its time.
        // Slack absorbs scheduler noise when the suite runs under load.
        assert!(
            pre.stats.wall_time <= full.stats.wall_time * 2 + std::time::Duration::from_millis(50)
        );
    }

    #[test]
    #[should_panic(expected = "partitioning k")]
    fn prepartitioned_k_mismatch_panics() {
        let (d, cfg, ingredients) = trained_ingredients(2, 25, 0.15);
        let hyper = LearnedHyper {
            epochs: 4,
            ..Default::default()
        };
        let pls8 = PartitionLearnedSouping::new(hyper, 8, 2);
        let pls4 = PartitionLearnedSouping::new(hyper, 4, 2);
        let partitioning = pls4.run_partitioner(&d, 1);
        let _ = SoupStrategy::try_soup(
            &pls8,
            &SoupCtx::new(&ingredients, &d, &cfg, 1).with_partitioning(&partitioning),
        );
    }

    #[test]
    fn cache_engages_only_when_subset_space_fits() {
        // binom(5, 2) = 10 <= 32: memoisation on.
        let small = PartitionLearnedSouping::new(LearnedHyper::default(), 5, 2);
        assert_eq!(small.effective_subgraph_cache(), 32);
        // binom(32, 8) > 10M: memoisation would never hit — off.
        assert_eq!(
            PartitionLearnedSouping::default().effective_subgraph_cache(),
            0
        );
        assert_eq!(small.with_subgraph_cache(0).effective_subgraph_cache(), 0);
    }

    #[test]
    fn subgraph_cache_reproduces_uncached_run() {
        // K=5, R=2 -> binom(5,2)=10 distinct subsets; 40 epochs guarantee
        // the LRU (default capacity 32 > 10) serves most draws from cache.
        let (d, cfg, ingredients) = trained_ingredients(3, 26, 0.2);
        let hyper = LearnedHyper {
            epochs: 40,
            ..Default::default()
        };
        let cached = PartitionLearnedSouping::new(hyper, 5, 2).soup(&ingredients, &d, &cfg, 11);
        let uncached = PartitionLearnedSouping::new(
            LearnedHyper {
                prop_cache: false,
                ..hyper
            },
            5,
            2,
        )
        .with_subgraph_cache(0)
        .soup(&ingredients, &d, &cfg, 11);
        // The rng draw precedes the cache lookup, so memoisation leaves the
        // epoch sequence — and hence the soup — byte-for-byte unchanged.
        assert_eq!(cached.val_accuracy, uncached.val_accuracy);
        for (a, b) in cached.params.flat().zip(uncached.params.flat()) {
            assert_eq!(a, b);
        }
        assert!(
            cached.stats.spmm_saved > 0,
            "40 epochs over 10 subsets must hit the subgraph cache"
        );
        assert_eq!(uncached.stats.spmm_saved, 0);
    }

    #[test]
    fn all_partitioner_kinds_run() {
        let (d, cfg, ingredients) = trained_ingredients(3, 23, 0.2);
        for kind in [
            PartitionerKind::MultilevelValBalanced,
            PartitionerKind::Multilevel,
            PartitionerKind::Bfs,
            PartitionerKind::Random,
        ] {
            let pls = PartitionLearnedSouping::new(
                LearnedHyper {
                    epochs: 6,
                    ..Default::default()
                },
                8,
                3,
            )
            .with_partitioner(kind);
            let outcome = pls.soup(&ingredients, &d, &cfg, 2);
            assert!(
                (0.0..=1.0).contains(&outcome.val_accuracy),
                "{kind:?}: {}",
                outcome.val_accuracy
            );
            assert!(outcome.stats.epochs > 0, "{kind:?} ran no epochs");
        }
    }
}
