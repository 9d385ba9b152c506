//! The four workloads: the paper's pipeline (generate → persist → load →
//! Phase-1 → Phase-2 → eval → serve) at a size one run can repeat.
//!
//! Every layer is driven through its crate's public functions and timed
//! from outside; per-layer numbers that the program already publishes are
//! read from the soup-obs registry as deltas around each stage.

use crate::catalog::{median, samples_for_tail, tail_percentile};
use crate::env::{self, MIB};
use crate::trace;
use soup_core::{SoupCtx, SoupStrategy, StrategySpec, UniformSouping};
use soup_distrib::{ShardPlan, TrainOpts, WorkerLaunch};
use soup_gnn::{Arch, ModelConfig, ParamSet, PropCache, PropOps, TrainConfig};
use soup_graph::mmap::MmapDataset;
use soup_graph::{Dataset, DatasetKind};
use soup_serve::{Client, PredictResult, ServeConfig, Server, ZipfSampler};
use soup_tensor::{SplitMix64, Tensor};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["ls-reddit", "pls-products", "shard-products"];

/// Phase-1 learning rate: high enough that the few epochs a run can
/// afford reach a stable accuracy on every workload.
const LR: f32 = 0.05;
/// Phase-1 trainer threads, one per core of the 2-core reference machine.
const TRAIN_WORKERS: usize = 2;
/// PLS partitions `K` and per-epoch budget `R`, the paper's setting.
const PLS_K: usize = 16;
const PLS_R: usize = 4;
/// Set-ups and pipeline passes every run makes at least.
const SETUPS: usize = 3;
const MIN_PASSES: usize = 3;
/// Share of `--seconds` spent repeating the pipeline; serving gets the
/// rest, and at least `SERVE_SHARE`.
const PIPELINE_SHARE: f64 = 0.5;
const SERVE_SHARE: f64 = 0.4;
/// Node ids per PREDICT, and how often client 0 sends a SWAP instead.
const NODES_PER_REQUEST: usize = 16;
const SWAP_EVERY: usize = 50;

/// One workload's sizes. Chosen so that a run repeats the set-up and the
/// pipeline at least three times and still serves for a few seconds.
struct Spec {
    name: &'static str,
    kind: DatasetKind,
    scale: f64,
    arch: Arch,
    hidden: usize,
    /// Ingredients per run (per shard when `shards > 0`).
    ingredients: usize,
    epochs: usize,
    strategy: &'static str,
    soup_epochs: usize,
    /// Shard processes; 0 runs Phase-1 and Phase-2 in this process. An
    /// in-process dataset is persisted as JSON (the `soupctl generate`
    /// default), a sharded one as `soup-graphmmap/1`.
    shards: usize,
    /// Test accuracy the souped model must reach.
    acc_floor_pct: f64,
}

fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "",
        kind: DatasetKind::Reddit,
        scale: 1.0,
        arch: Arch::Gcn,
        hidden: 64,
        ingredients: 4,
        epochs: 8,
        strategy: "ls",
        soup_epochs: 15,
        shards: 0,
        acc_floor_pct: 70.0,
    };
    Some(match name {
        "ls-reddit" => Spec {
            name: "ls-reddit",
            kind: DatasetKind::Reddit,
            scale: 2.0,
            acc_floor_pct: 85.0,
            ..base
        },
        "pls-products" => Spec {
            name: "pls-products",
            kind: DatasetKind::OgbnProducts,
            arch: Arch::Sage,
            epochs: 4,
            strategy: "pls",
            soup_epochs: 12,
            ..base
        },
        "shard-products" => Spec {
            name: "shard-products",
            kind: DatasetKind::OgbnProducts,
            ingredients: 2,
            epochs: 6,
            strategy: "pls",
            soup_epochs: 8,
            shards: 2,
            ..base
        },
        _ => return None,
    })
}

/// Command-line arguments of one measured run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Root of the checkout; all files go under `.bench_work/` there.
    pub root: PathBuf,
}

impl RunArgs {
    /// This run's private directory for datasets, checkpoints and sockets,
    /// relative to the checkout root (the working directory, which shard
    /// workers inherit) so Unix socket paths under it stay within the
    /// 108-byte limit wherever the checkout lives.
    fn work_dir(&self) -> PathBuf {
        PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()))
    }
}

/// What a run reports: metric values by name plus operation accounting.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// An output check failed or a stage returned an error; the run exits
/// non-zero without printing a result.
pub type Failure = String;

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), Failure> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn soup_err(stage: &str) -> impl Fn(soup_error::SoupError) -> Failure + '_ {
    move |e| format!("{stage} failed: {e}")
}

/// Counters and histograms read as deltas around a stage.
const COUNTERS: &[&str] = &[
    "tensor.spmm.flops",
    "tensor.spmm.bytes",
    "tensor.matmul.flops",
    "tensor.matmul.bytes",
    "tensor.pool.hits",
    "tensor.pool.misses",
    "store.writes",
    "store.durable_writes",
    "soup.forward_passes",
    "soup.cache.prop_hits",
    "soup.pls.subgraph_cache_hits",
    "soup.pls.subgraph_cache_misses",
    "serve.requests",
    "serve.batches",
    "serve.rejected",
];

struct Counts {
    values: Vec<u64>,
    claim_wait_ns: u64,
    claims: u64,
}

impl Counts {
    fn now() -> Self {
        let h = soup_obs::registry::histogram("distrib.queue.claim_wait_ns");
        Counts {
            values: COUNTERS
                .iter()
                .map(|n| soup_obs::registry::counter(n).get())
                .collect(),
            claim_wait_ns: h.sum(),
            claims: h.count(),
        }
    }

    fn since(&self, start: &Counts) -> Counts {
        Counts {
            values: self
                .values
                .iter()
                .zip(&start.values)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            claim_wait_ns: self.claim_wait_ns.saturating_sub(start.claim_wait_ns),
            claims: self.claims.saturating_sub(start.claims),
        }
    }

    fn get(&self, name: &str) -> f64 {
        let i = COUNTERS
            .iter()
            .position(|n| *n == name)
            .expect("counter is listed in COUNTERS");
        self.values.get(i).copied().unwrap_or(0) as f64
    }
}

/// Measurements of one pipeline stage.
struct Stage {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mib: f64,
    live_peak_mib: f64,
    pool_idle_mib: f64,
    counts: Counts,
}

impl Stage {
    /// Registry delta of one counter over the stage.
    fn count(&self, name: &str) -> f64 {
        self.counts.get(name)
    }
}

/// Run `f` as one stage: reset the memory watermarks first, then record
/// wall and CPU time, peak RSS, the tensor ledger's peak, the pool's idle
/// bytes at the end, and the registry deltas.
fn stage<T>(span: &'static str, f: impl FnOnce() -> T) -> (T, Stage) {
    env::stage_boundary();
    let c0 = Counts::now();
    let cpu0 = env::cpu_seconds();
    let t0 = Instant::now();
    let out = {
        let _span = trace::enter(span);
        f()
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let st = Stage {
        wall_s,
        cpu_s: env::cpu_seconds() - cpu0,
        peak_rss_mib: env::peak_rss_mib(),
        live_peak_mib: soup_tensor::DEVICE_MEMORY.peak() as f64 / MIB,
        pool_idle_mib: soup_tensor::pool::idle_bytes() as f64 / MIB,
        counts: Counts::now().since(&c0),
    };
    (out, st)
}

fn timed<T>(span: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = trace::enter(span);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Per-run accumulators.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

fn model_config(spec: &Spec, in_dim: usize, classes: usize) -> ModelConfig {
    match spec.arch {
        Arch::Sage => ModelConfig::sage(in_dim, classes),
        _ => ModelConfig::gcn(in_dim, classes),
    }
    .with_hidden(spec.hidden)
}

fn train_config(spec: &Spec) -> TrainConfig {
    TrainConfig {
        epochs: spec.epochs,
        lr: LR,
        early_stop_patience: None,
        ..TrainConfig::quick()
    }
}

fn strategy_spec(spec: &Spec) -> StrategySpec {
    let mut s = StrategySpec::new(spec.strategy);
    s.epochs = spec.soup_epochs;
    s.pls_k = PLS_K;
    s.pls_r = PLS_R;
    s
}

/// Set-up measurements of one repetition.
struct Setup {
    generate_s: f64,
    save_s: f64,
    load_s: f64,
    prepare_s: f64,
    file_mib: f64,
    halo_frac: f64,
    ranges: Vec<(u64, u64)>,
}

impl Setup {
    fn total(&self) -> f64 {
        self.generate_s + self.save_s + self.prepare_s + self.load_s
    }
}

fn file_mib(path: &Path) -> f64 {
    std::fs::metadata(path)
        .map(|m| m.len() as f64 / MIB)
        .unwrap_or(0.0)
}

/// Generate → persist → load. Returns the loaded dataset for in-process
/// workloads; the sharded workload keeps only the shard-ordered file.
fn setup_once(spec: &Spec, seed: u64, work: &Path) -> Result<(Setup, Option<Dataset>), Failure> {
    let (ds, generate_s) = timed("soup-graph.generate_scaled", || {
        spec.kind.generate_scaled(seed, spec.scale)
    });
    let mut setup = Setup {
        generate_s,
        save_s: 0.0,
        load_s: 0.0,
        prepare_s: 0.0,
        file_mib: 0.0,
        halo_frac: 0.0,
        ranges: Vec::new(),
    };
    if spec.shards == 0 {
        let path = work.join("dataset.json");
        let (r, save_s) = timed("soup-graph.save_dataset", || {
            soup_graph::io::save_dataset(&ds, &path)
        });
        r.map_err(soup_err("save_dataset"))?;
        drop(ds);
        setup.save_s = save_s;
        setup.file_mib = file_mib(&path);
        let (loaded, load_s) = timed("soup-graph.load_dataset", || {
            soup_graph::io::load_dataset(&path)
        });
        setup.load_s = load_s;
        return Ok((setup, Some(loaded.map_err(soup_err("load_dataset"))?)));
    }
    let src = work.join("source.gmm");
    let sharded = work.join("sharded.gmm");
    let (r, save_s) = timed("soup-graph.save_mmap_dataset", || {
        soup_graph::mmap::save_mmap_dataset(&ds, &src)
    });
    r.map_err(soup_err("save_mmap_dataset"))?;
    drop(ds);
    setup.save_s = save_s;
    setup.file_mib = file_mib(&src);
    let (report, prepare_s) = timed("soup-distrib.prepare_sharded_dataset", || {
        soup_distrib::prepare_sharded_dataset(&src, spec.shards, &sharded)
    });
    let report = report.map_err(soup_err("prepare_sharded_dataset"))?;
    setup.prepare_s = prepare_s;
    setup.halo_frac = report.quality.halo_fraction;
    setup.ranges = report.ranges;
    let (opened, load_s) = timed("soup-graph.MmapDataset.open", || {
        MmapDataset::open(&sharded).map(|m| m.num_nodes())
    });
    opened.map_err(soup_err("open sharded dataset"))?;
    setup.load_s = load_s;
    Ok((setup, None))
}

/// One pass of the pipeline: Phase-1, Phase-2 and the evaluation of the
/// souped model.
struct Pass {
    /// Whether benchmark-side spans were recorded during this pass.
    traced: bool,
    train: Stage,
    soup: Stage,
    /// From the start of Phase-1 until the souped model is evaluated
    /// (sharded workers evaluate inside `run_sharded`).
    pipeline_s: f64,
    test_acc: f64,
    /// Peak RSS of the process(es) running each stage, MiB.
    train_rss_mib: f64,
    soup_rss_mib: f64,
    /// Wall time of each Phase-1 worker: trainer threads' busy time, or
    /// shard processes' wall time.
    worker_walls_s: Vec<f64>,
    requeues: u64,
    halo_nodes: f64,
}

/// What the last pass leaves for serving.
enum Models {
    /// The souped parameters and the ingredient pool they came from.
    InProcess {
        soup: ParamSet,
        pool: Vec<soup_core::Ingredient>,
    },
    /// The run directory holding the per-shard pools.
    Sharded { out_dir: PathBuf },
}

fn pass_inprocess(
    spec: &Spec,
    ds: &Dataset,
    cfg: &ModelConfig,
    seed: u64,
    ckpt_dir: &Path,
    tally: &mut Tally,
) -> Result<(Pass, Models), Failure> {
    let _ = std::fs::remove_dir_all(ckpt_dir);
    let opts = TrainOpts::default()
        .with_workers(TRAIN_WORKERS)
        .with_seed(seed)
        .with_checkpoint_dir(ckpt_dir);
    let tc = train_config(spec);
    let (run, train) = stage("soup-distrib.train_ingredients_opts", || {
        soup_distrib::train_ingredients_opts(ds, cfg, &tc, spec.ingredients, &opts)
    });
    let run = run.map_err(soup_err("Phase-1 training"))?;
    tally.ops(
        spec.ingredients as u64 + run.retries,
        run.retries + run.failed.len() as u64,
    );
    check(run.failed.is_empty(), || {
        format!(
            "Phase-1: {} ingredients failed permanently",
            run.failed.len()
        )
    })?;

    let strategy = strategy_spec(spec).build().map_err(soup_err("strategy"))?;
    let soup_seed = SplitMix64::new(seed).derive(2).snapshot().0;
    let ctx = SoupCtx::new(&run.ingredients, ds, cfg, soup_seed);
    let (mixed, soup) = stage("soup-core.try_soup", || strategy.try_soup(&ctx));
    tally.ops(1, 0);
    let outcome = mixed
        .map_err(soup_err("Phase-2 souping"))?
        .ok_or("Phase-2 souping stopped early")?;
    check(!outcome.is_degraded(), || {
        format!("soup is degraded: missing {:?}", outcome.missing)
    })?;

    let ((val, test), eval) = stage("soup-gnn.evaluate_accuracy", || {
        let ops = PropOps::prepare(cfg.arch, &ds.graph);
        let acc = |mask: &[usize]| {
            soup_gnn::evaluate_accuracy(cfg, &ops, &outcome.params, &ds.features, &ds.labels, mask)
        };
        (acc(&ds.splits.val), acc(&ds.splits.test))
    });
    tally.ops(1, 0);
    check(val.to_bits() == outcome.val_accuracy.to_bits(), || {
        format!(
            "re-evaluated validation accuracy {val} differs from the strategy's {}",
            outcome.val_accuracy
        )
    })?;
    check_floor(spec, test)?;
    let _ = std::fs::remove_dir_all(ckpt_dir);
    let pass = Pass {
        traced: false,
        pipeline_s: train.wall_s + soup.wall_s + eval.wall_s,
        test_acc: test,
        train_rss_mib: train.peak_rss_mib,
        soup_rss_mib: soup.peak_rss_mib,
        worker_walls_s: run
            .reports
            .iter()
            .map(|r| r.busy_time.as_secs_f64())
            .collect(),
        requeues: run.retries,
        halo_nodes: 0.0,
        train,
        soup,
    };
    let models = Models::InProcess {
        soup: outcome.params,
        pool: run.ingredients,
    };
    Ok((pass, models))
}

fn check_floor(spec: &Spec, test_acc: f64) -> Result<(), Failure> {
    check(test_acc * 100.0 >= spec.acc_floor_pct, || {
        format!(
            "test accuracy {:.2}% is below the {:.1}% floor",
            test_acc * 100.0,
            spec.acc_floor_pct
        )
    })
}

/// One sharded pass: `run_sharded` trains, soups and evaluates inside K
/// worker processes; a second `run_sharded` with `resume` re-runs only
/// the shard-local Phase-2 (and its evaluation) from the durable Phase-1
/// checkpoints, which is what `soup_s` times for this workload.
fn pass_sharded(
    spec: &Spec,
    seed: u64,
    ranges: &[(u64, u64)],
    dataset: &Path,
    out_dir: &Path,
    tally: &mut Tally,
) -> Result<(Pass, Models), Failure> {
    let _ = std::fs::remove_dir_all(out_dir);
    let mut plan = ShardPlan {
        version: 1,
        dataset: dataset.display().to_string(),
        k: spec.shards,
        ranges: ranges.to_vec(),
        seed,
        rounds: spec.ingredients,
        arch: spec.arch.name().to_string(),
        hidden: spec.hidden,
        layers: 2,
        dropout: 0.5,
        epochs: spec.epochs,
        lr: LR,
        strategy: spec.strategy.to_string(),
        soup_epochs: spec.soup_epochs,
        pls_k: PLS_K,
        pls_r: PLS_R,
        out_dir: out_dir.display().to_string(),
        no_shm: false,
        resume: false,
        worker_timeout_ms: 60_000,
        restart_budget: 2,
        chaos: None,
    };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let launch = WorkerLaunch::new(exe, &["shard-worker"]);
    let mut run = |plan: &ShardPlan, span| {
        let (report, st) = stage(span, || soup_distrib::run_sharded(plan, &launch));
        let report = report.map_err(soup_err("run_sharded"))?;
        tally.ops(
            (spec.shards + report.restarts as usize) as u64,
            report.restarts as u64 + report.missing.len() as u64,
        );
        check(!report.is_degraded(), || {
            format!("sharded run degraded: shards {:?} lost", report.missing)
        })?;
        check(report.restarts == 0, || {
            format!("sharded run needed {} worker restarts", report.restarts)
        })?;
        Ok::<_, Failure>((report, st))
    };
    let (first, train) = run(&plan, "soup-distrib.run_sharded")?;
    plan.resume = true;
    let (again, soup) = run(&plan, "soup-distrib.run_sharded.resume")?;
    check(
        again
            .per_shard
            .iter()
            .all(|r| r.resumed == r.ingredients && r.ingredients == spec.ingredients),
        || "the resumed sharded run retrained ingredients".into(),
    )?;
    check(
        again.test_accuracy.to_bits() == first.test_accuracy.to_bits(),
        || {
            format!(
                "re-souped test accuracy {} differs from the first run's {}",
                again.test_accuracy, first.test_accuracy
            )
        },
    )?;
    check_floor(spec, first.test_accuracy)?;
    let pass = Pass {
        traced: false,
        pipeline_s: train.wall_s,
        test_acc: first.test_accuracy,
        train_rss_mib: first.max_worker_peak_rss as f64 / MIB,
        soup_rss_mib: again.max_worker_peak_rss as f64 / MIB,
        worker_walls_s: first
            .per_shard
            .iter()
            .map(|r| r.wall_ms as f64 / 1e3)
            .collect(),
        requeues: 0,
        halo_nodes: first.per_shard.iter().map(|r| r.halo_nodes as f64).sum(),
        train,
        soup,
    };
    let models = Models::Sharded {
        out_dir: out_dir.to_path_buf(),
    };
    Ok((pass, models))
}

/// Serving measurements.
struct Serve {
    latencies_ms: Vec<f64>,
    wall_s: f64,
    swap_ms: Vec<f64>,
    server_p50_ms: f64,
    counts: Counts,
}

/// Start a `Server` on model A and drive it with a closed loop of two
/// clients, each on one connection sending Zipf(1.0) PREDICTs back to back;
/// client 0 swaps to the other version every `SWAP_EVERY`-th request.
/// Every reply is checked against the offline `predict_cached` classes of
/// the version it names (odd versions are A, even versions B).
fn serve(
    args: &RunArgs,
    ds: &Dataset,
    cfg: &ModelConfig,
    models: [&ParamSet; 2],
    budget_s: f64,
    tally: &mut Tally,
) -> Result<Serve, Failure> {
    const CLIENTS: usize = 2;
    let seed = args.seed;
    let work = args.work_dir();
    let paths = [work.join("model-a.ck"), work.join("model-b.ck")];
    for (i, (params, path)) in models.iter().zip(&paths).enumerate() {
        let ck = soup_gnn::Checkpoint::new(i, seed, 0.0, (*params).clone());
        soup_gnn::save_checkpoint(&ck, path).map_err(soup_err("save_checkpoint"))?;
    }
    let expected: Vec<Vec<u32>> = {
        let ops = PropOps::prepare(cfg.arch, &ds.graph);
        let cache = PropCache::new(&ops, &ds.features);
        models
            .iter()
            .map(|p| {
                soup_gnn::predict_cached(cfg, &ops, &cache, p)
                    .into_iter()
                    .map(|c| c as u32)
                    .collect()
            })
            .collect()
    };
    // A batch closes once it holds one request per client, or 20 ms after
    // its first request: the two closed-loop clients stay in step, and a
    // client busy with a SWAP delays the other's batch by that long at
    // most instead of leaving the pair alternating one forward apart.
    let config = ServeConfig {
        workers: CLIENTS,
        max_batch: CLIENTS * NODES_PER_REQUEST,
        max_delay: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let c0 = Counts::now();
    let (server, _) = timed("soup-serve.Server.start", || {
        Server::start(ds.clone(), cfg.clone(), models[0].clone(), config)
    });
    let server = server.map_err(soup_err("Server::start"))?;
    let addr = server.addr();
    let need = samples_for_tail(0.95);
    let samples = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let failure: Mutex<Option<Failure>> = Mutex::new(None);
    let n = ds.num_nodes();
    let zipf = ZipfSampler::new(n, 1.0);
    let t0 = Instant::now();
    // Past this the run is broken, not slow: give up (too few samples
    // fails the run) well inside the 180 s a run may take.
    let hard_cap = Duration::from_secs(120);
    struct ClientLog {
        latencies_ms: Vec<f64>,
        swap_ms: Vec<f64>,
        attempted: u64,
        failed: u64,
    }
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (zipf, samples, stop, failure, expected, paths) =
                    (&zipf, &samples, &stop, &failure, &expected, &paths);
                s.spawn(move || {
                    let mut log = ClientLog {
                        latencies_ms: Vec::new(),
                        swap_ms: Vec::new(),
                        attempted: 0,
                        failed: 0,
                    };
                    let fail = |msg: String| {
                        failure.lock().expect("failure slot").get_or_insert(msg);
                        stop.store(true, Ordering::SeqCst);
                    };
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            fail(format!("client {c}: connect: {e}"));
                            return log;
                        }
                    };
                    let mut rng = SplitMix64::new(seed).derive(0x5e7e + c as u64);
                    let mut version = 1u64;
                    let mut nodes = vec![0u32; NODES_PER_REQUEST];
                    for i in 1usize.. {
                        let elapsed = t0.elapsed();
                        if stop.load(Ordering::SeqCst)
                            || elapsed > hard_cap
                            || (elapsed.as_secs_f64() >= budget_s
                                && samples.load(Ordering::SeqCst) >= need)
                        {
                            break;
                        }
                        log.attempted += 1;
                        if c == 0 && i.is_multiple_of(SWAP_EVERY) {
                            let next = version + 1;
                            let path = &paths[next.is_multiple_of(2) as usize];
                            let t = Instant::now();
                            match client.swap(&path.display().to_string()) {
                                Ok(v) if v == next => {
                                    log.swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
                                    version = v;
                                }
                                Ok(v) => {
                                    fail(format!("SWAP promoted version {v}, expected {next}"));
                                    break;
                                }
                                Err(e) => {
                                    log.failed += 1;
                                    fail(format!("SWAP failed: {e}"));
                                    break;
                                }
                            }
                            continue;
                        }
                        for id in nodes.iter_mut() {
                            *id = zipf.sample(&mut rng) as u32;
                        }
                        let t = Instant::now();
                        match client.predict(&nodes) {
                            Ok(PredictResult::Classes {
                                version: v,
                                classes,
                            }) => {
                                log.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                                samples.fetch_add(1, Ordering::SeqCst);
                                let want = &expected[v.is_multiple_of(2) as usize];
                                let ok = classes.len() == nodes.len()
                                    && nodes
                                        .iter()
                                        .zip(&classes)
                                        .all(|(&id, &cls)| want[id as usize] == cls);
                                if !ok {
                                    fail(format!(
                                        "PREDICT reply for version {v} differs from the offline \
                                         predictions of that version"
                                    ));
                                    break;
                                }
                            }
                            Ok(PredictResult::Overloaded) => log.failed += 1,
                            Err(e) => {
                                log.failed += 1;
                                fail(format!("PREDICT failed: {e}"));
                                break;
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = Client::connect(addr).and_then(|mut c| c.stats());
    server.stop();
    let counts = Counts::now().since(&c0);
    if let Some(msg) = failure.into_inner().expect("failure slot") {
        return Err(msg);
    }
    let stats = stats.map_err(soup_err("STATS"))?;
    let stats: serde::Value =
        serde_json::from_str(&stats).map_err(|e| format!("STATS reply is not JSON: {e}"))?;
    let server_p50_ms = stats
        .get("latency_p50_us")
        .and_then(|v| v.as_f64())
        .ok_or("STATS reply lacks latency_p50_us")?
        / 1e3;
    let mut out = Serve {
        latencies_ms: Vec::new(),
        wall_s,
        swap_ms: Vec::new(),
        server_p50_ms,
        counts,
    };
    for log in logs {
        tally.ops(log.attempted, log.failed);
        out.latencies_ms.extend(log.latencies_ms);
        out.swap_ms.extend(log.swap_ms);
    }
    check(out.latencies_ms.len() >= need, || {
        format!(
            "only {} PREDICT samples, p95 needs {need}",
            out.latencies_ms.len()
        )
    })?;
    Ok(out)
}

/// Calls made only in traced runs, on the workload's dataset and served
/// model.
struct Probes {
    /// Rates of the aggregation SpMM at the hidden width and of the
    /// first-layer GEMM, on this workload's own adjacency and shapes.
    spmm_gflops: f64,
    spmm_gbps: f64,
    gemm_gflops: f64,
    /// One isolated `train_single`: the serial Phase-1 baseline.
    train_single_s: f64,
    /// One `predict_cached` full-graph forward (median of three).
    forward_ms: f64,
    /// One `evaluate_accuracy` on the test split.
    eval_ms: f64,
}

fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| f()).collect::<Vec<_>>())
}

fn probes(spec: &Spec, ds: &Dataset, cfg: &ModelConfig, params: &ParamSet, seed: u64) -> Probes {
    let ops = PropOps::prepare(cfg.arch, &ds.graph);
    let a = match &ops {
        PropOps::Gcn(m) | PropOps::Sage(m) | PropOps::Gin(m) => m,
        PropOps::Gat(_) => unreachable!("the benchmark runs GCN and SAGE only"),
    };
    let mut rng = SplitMix64::new(seed).derive(0x9a0b);
    let x = Tensor::randn(ds.num_nodes(), cfg.hidden, 1.0, &mut rng);
    let w = Tensor::randn(ds.num_features(), cfg.hidden, 0.1, &mut rng);
    let spmm_s = median_of(5, || {
        let (y, s) = timed("soup-tensor.spmm", || a.matvec_dense(&x));
        std::hint::black_box(y);
        s
    });
    let gemm_s = median_of(5, || {
        let (y, s) = timed("soup-tensor.matmul", || ds.features.matmul(&w));
        std::hint::black_box(y);
        s
    });
    let (nnz, rows, c) = (a.nnz() as f64, a.rows() as f64, cfg.hidden as f64);
    // The byte model of the `tensor.spmm.bytes` counter: CSR entries,
    // gathered input rows, and the output.
    let spmm_bytes = nnz * 8.0 + nnz * c * 4.0 + rows * c * 4.0;
    let gemm_flop = 2.0 * rows * ds.num_features() as f64 * c;

    let init = soup_gnn::init_params(cfg, &mut SplitMix64::new(seed).derive(0x1417));
    let (_, train_single_s) = timed("soup-gnn.train_single", || {
        soup_gnn::train_single(ds, cfg, &train_config(spec), &init, seed)
    });
    let cache = PropCache::new(&ops, &ds.features);
    let forward_s = median_of(3, || {
        timed("soup-gnn.predict_cached", || {
            soup_gnn::predict_cached(cfg, &ops, &cache, params)
        })
        .1
    });
    let (_, eval_s) = timed("soup-gnn.evaluate_accuracy", || {
        soup_gnn::evaluate_accuracy(cfg, &ops, params, &ds.features, &ds.labels, &ds.splits.test)
    });
    Probes {
        spmm_gflops: 2.0 * nnz * c / spmm_s / 1e9,
        spmm_gbps: spmm_bytes / spmm_s / 1e9,
        gemm_gflops: gemm_flop / gemm_s / 1e9,
        train_single_s,
        forward_ms: forward_s * 1e3,
        eval_ms: eval_s * 1e3,
    }
}

/// Serving gets what is left of the run, and at least `SERVE_SHARE` of it.
fn serve_budget(seconds: f64, t_run: Instant) -> f64 {
    (seconds - t_run.elapsed().as_secs_f64()).max(SERVE_SHARE * seconds)
}

/// Smallest value over passes of one pass quantity.
fn min_rss(passes: &[Pass], f: fn(&Pass) -> f64) -> f64 {
    passes.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// Median over passes of one pass quantity.
fn med<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Run one workload for `--seconds` and collect its metrics.
pub fn run(args: &RunArgs) -> Result<Outcome, Failure> {
    let spec = spec(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload '{}' (expected one of {})",
            args.workload,
            WORKLOADS.join(", ")
        )
    })?;
    let work = args.work_dir();
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    trace::set_enabled(args.trace);
    let result = run_in(&spec, args);
    if args.trace {
        let path = args
            .root
            .join(".bench_work")
            .join("traces")
            .join(format!("{}-seed{}.jsonl", spec.name, args.seed));
        if let Err(e) = trace::write_jsonl(&path) {
            eprintln!("perfbench: cannot write the span trace: {e}");
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(spec: &Spec, args: &RunArgs) -> Result<Outcome, Failure> {
    let t_run = Instant::now();
    let seed = args.seed;
    let work = &args.work_dir();
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    // ---- set-up, repeated so its median is steady ----
    let mut setups = Vec::new();
    let mut dataset = None;
    for _ in 0..SETUPS {
        // Free the previous repetition's dataset before building the next.
        drop(dataset.take());
        let (s, ds) = setup_once(spec, seed, work)?;
        tally.ops(1, 0);
        setups.push(s);
        dataset = ds;
    }
    let sharded_file = work.join("sharded.gmm");
    let ranges = setups.last().map(|s| s.ranges.clone()).unwrap_or_default();
    let cfg = dataset
        .as_ref()
        .map(|ds| model_config(spec, ds.num_features(), ds.num_classes()));

    // ---- the pipeline, repeated for its share of the run ----
    let t_pipe = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut models = None;
    while passes.len() < MIN_PASSES
        || t_pipe.elapsed().as_secs_f64() < args.seconds * PIPELINE_SHARE
    {
        // Only the last pass's models are kept; drop the previous ones
        // first so they do not count against this pass's peaks.
        drop(models.take());
        // Traced runs record spans on every other pass, so the two halves
        // measure the spans' own overhead.
        let traced = args.trace && passes.len().is_multiple_of(2);
        trace::set_enabled(traced);
        let (mut pass, m) = match (&dataset, &cfg) {
            (Some(ds), Some(cfg)) => {
                pass_inprocess(spec, ds, cfg, seed, &work.join("ckpt"), &mut tally)?
            }
            _ => {
                let out_dir = work.join(format!("run{}", passes.len() % 2));
                pass_sharded(spec, seed, &ranges, &sharded_file, &out_dir, &mut tally)?
            }
        };
        pass.traced = traced;
        passes.push(pass);
        models = Some(m);
    }
    trace::set_enabled(args.trace);
    env::stage_boundary();
    let list = |f: fn(&Pass) -> f64| {
        let v: Vec<_> = passes.iter().map(|p| format!("{:.3}", f(p))).collect();
        v.join(" ")
    };
    notes.push(format!(
        "{}: {} set-ups, {} pipeline passes",
        spec.name,
        setups.len(),
        passes.len()
    ));
    notes.push(format!("train_s per pass: {}", list(|p| p.train.wall_s)));
    notes.push(format!("soup_s per pass: {}", list(|p| p.soup.wall_s)));
    notes.push(format!(
        "soup_peak_rss_mib per pass: {}",
        list(|p| p.soup_rss_mib)
    ));

    // ---- the models to serve: A and B ----
    let (ds, cfg, a, b, pool) = match models.ok_or("no pipeline pass ran")? {
        Models::InProcess { soup, pool } => {
            let ds = dataset.ok_or("set-up produced no dataset")?;
            let cfg = cfg.ok_or("set-up produced no model config")?;
            let uniform = UniformSouping.soup(&pool, &ds, &cfg, seed).params;
            (ds, cfg, soup, uniform, pool)
        }
        // Shard 0's pool served over the whole graph: A is its uniform
        // soup, B its first ingredient.
        Models::Sharded { out_dir } => {
            let (ds, _) = timed("soup-graph.MmapDataset.load", || {
                MmapDataset::open(&sharded_file).and_then(|m| m.load())
            });
            let ds = ds.map_err(soup_err("load sharded dataset"))?;
            let (cfg, pool) = soup_core::load_manifest(&out_dir.join("shard-0"))
                .map_err(soup_err("load shard-0 pool"))?;
            let a = UniformSouping.soup(&pool, &ds, &cfg, seed).params;
            let b = pool[0].params.clone();
            (ds, cfg, a, b, Vec::new())
        }
    };
    let budget_s = serve_budget(args.seconds, t_run);
    let s = serve(args, &ds, &cfg, [&a, &b], budget_s, &mut tally)?;

    // ---- end-to-end metrics ----
    let setup_s = med(&setups, Setup::total);
    notes.push(format!(
        "serve: {} PREDICT samples, {} beyond p95, {} swaps, {:.1}s",
        s.latencies_ms.len(),
        s.latencies_ms.len() - (0.95 * s.latencies_ms.len() as f64).ceil() as usize,
        s.swap_ms.len(),
        s.wall_s
    ));
    let train_s = med(&passes, |p| p.train.wall_s);
    let ok_pct = 100.0 * (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64;
    let mut metrics = vec![
        ("setup_s", setup_s),
        ("train_s", train_s),
        ("soup_s", med(&passes, |p| p.soup.wall_s)),
        ("total_s", setup_s + med(&passes, |p| p.pipeline_s)),
        // Every pass does the same work; a pass that peaks higher than the
        // others carries heap the allocator kept from earlier passes, so
        // the smallest peak is the stage's own.
        ("train_peak_rss_mib", min_rss(&passes, |p| p.train_rss_mib)),
        ("soup_peak_rss_mib", min_rss(&passes, |p| p.soup_rss_mib)),
        ("test_acc_pct", med(&passes, |p| p.test_acc * 100.0)),
        ("serve_p50_ms", median(&s.latencies_ms)),
        ("ok_pct", ok_pct),
    ];

    // ---- per-layer metrics (traced runs) ----
    if args.trace {
        let probe = probes(spec, &ds, &cfg, &a, seed);
        let inprocess_pls = spec.shards == 0 && spec.strategy == "pls";
        let (kway_s, cut_frac) = if inprocess_pls {
            let pcfg = soup_partition::PartitionConfig::new(PLS_K).with_seed(seed);
            let (p, secs) = timed("soup-partition.partition_val_balanced", || {
                soup_partition::partition_val_balanced(&ds.graph, &ds.splits, &pcfg)
            });
            let cut = soup_partition::edge_cut(&ds.graph, &p.assignment);
            (secs, cut as f64 / ds.graph.num_edges().max(1) as f64)
        } else {
            (0.0, 0.0)
        };
        // Souped minus best ingredient test accuracy, on the in-process
        // pool (shard pools are evaluated inside their workers).
        let gain_pp = if pool.is_empty() {
            0.0
        } else {
            let ops = PropOps::prepare(cfg.arch, &ds.graph);
            let best = pool
                .iter()
                .map(|ing| {
                    let acc = soup_gnn::evaluate_accuracy(
                        &cfg,
                        &ops,
                        &ing.params,
                        &ds.features,
                        &ds.labels,
                        &ds.splits.test,
                    );
                    acc * 100.0
                })
                .fold(0.0, f64::max);
            passes.last().map_or(0.0, |p| p.test_acc * 100.0) - best
        };
        let train = |f: fn(&Stage) -> f64| med(&passes, |p| f(&p.train));
        let soup = |f: fn(&Stage) -> f64| med(&passes, |p| f(&p.soup));
        let ratio = |a: f64, b: f64| a / (a + b).max(1.0);
        let nproc = env::nproc() as f64;
        let util = |s: &Stage| s.cpu_s / (s.wall_s * nproc);
        let last_walls = &passes.last().expect("passes ran").worker_walls_s;
        let setup = |f: fn(&Setup) -> f64| med(&setups, f);
        let span_totals = |traced: bool| {
            let v: Vec<f64> = passes
                .iter()
                .filter(|p| p.traced == traced)
                .map(|p| p.pipeline_s)
                .collect();
            median(&v)
        };
        let overhead = if passes.len() < 2 {
            0.0
        } else {
            100.0 * (span_totals(true) / span_totals(false) - 1.0)
        };
        let ingredients = (spec.ingredients * spec.shards.max(1)) as f64;
        metrics = vec![
            ("graph.generate_s", setup(|s| s.generate_s)),
            ("graph.save_s", setup(|s| s.save_s)),
            ("graph.load_s", setup(|s| s.load_s)),
            ("graph.file_mib", setup(|s| s.file_mib)),
            ("partition.kway_s", kway_s),
            ("partition.edge_cut_frac", cut_frac),
            ("partition.prepare_s", setup(|s| s.prepare_s)),
            ("partition.halo_frac", setup(|s| s.halo_frac)),
            (
                "tensor.train.spmm_gflop",
                train(|s| s.count("tensor.spmm.flops") / 1e9),
            ),
            (
                "tensor.train.gemm_gflop",
                train(|s| s.count("tensor.matmul.flops") / 1e9),
            ),
            (
                "tensor.soup.spmm_gflop",
                soup(|s| s.count("tensor.spmm.flops") / 1e9),
            ),
            (
                "tensor.soup.gemm_gflop",
                soup(|s| s.count("tensor.matmul.flops") / 1e9),
            ),
            (
                "tensor.train.spmm_gb",
                train(|s| s.count("tensor.spmm.bytes") / 1e9),
            ),
            (
                "tensor.train.gemm_gb",
                train(|s| s.count("tensor.matmul.bytes") / 1e9),
            ),
            (
                "tensor.soup.spmm_gb",
                soup(|s| s.count("tensor.spmm.bytes") / 1e9),
            ),
            (
                "tensor.soup.gemm_gb",
                soup(|s| s.count("tensor.matmul.bytes") / 1e9),
            ),
            ("tensor.spmm_probe_gflops", probe.spmm_gflops),
            ("tensor.spmm_probe_gbps", probe.spmm_gbps),
            ("tensor.gemm_probe_gflops", probe.gemm_gflops),
            ("tensor.train.live_peak_mib", train(|s| s.live_peak_mib)),
            ("tensor.soup.live_peak_mib", soup(|s| s.live_peak_mib)),
            ("tensor.train.pool_idle_mib", train(|s| s.pool_idle_mib)),
            ("tensor.soup.pool_idle_mib", soup(|s| s.pool_idle_mib)),
            (
                "tensor.pool_hit_ratio",
                ratio(
                    train(|s| s.count("tensor.pool.hits")),
                    train(|s| s.count("tensor.pool.misses")),
                ),
            ),
            ("gnn.forward_ms", probe.forward_ms),
            ("gnn.train_single_s", probe.train_single_s),
            ("gnn.eval_ms", probe.eval_ms),
            (
                "distrib.train_speedup",
                ingredients * probe.train_single_s / train_s,
            ),
            ("distrib.train.cpu_util", med(&passes, |p| util(&p.train))),
            ("distrib.soup.cpu_util", med(&passes, |p| util(&p.soup))),
            (
                "distrib.claim_wait_ms",
                train(|s| s.counts.claim_wait_ns as f64 / s.counts.claims.max(1) as f64 / 1e6),
            ),
            ("distrib.requeues", med(&passes, |p| p.requeues as f64)),
            (
                "shard.worker_wall_max_s",
                last_walls.iter().copied().fold(0.0, f64::max),
            ),
            (
                "shard.worker_wall_min_s",
                last_walls.iter().copied().fold(f64::INFINITY, f64::min),
            ),
            (
                "shard.worker_peak_rss_max_mib",
                if spec.shards > 0 {
                    min_rss(&passes, |p| p.train_rss_mib)
                } else {
                    0.0
                },
            ),
            ("shard.halo_nodes", med(&passes, |p| p.halo_nodes)),
            ("shard.restarts", 0.0),
            (
                "soup.epoch_ms",
                1e3 * med(&passes, |p| p.soup.wall_s) / spec.soup_epochs as f64,
            ),
            (
                "soup.forward_passes",
                soup(|s| s.count("soup.forward_passes")),
            ),
            ("soup.prop_hits", soup(|s| s.count("soup.cache.prop_hits"))),
            (
                "soup.subcache_hit_ratio",
                ratio(
                    soup(|s| s.count("soup.pls.subgraph_cache_hits")),
                    soup(|s| s.count("soup.pls.subgraph_cache_misses")),
                ),
            ),
            ("soup.gain_pp", gain_pp),
            ("store.writes", train(|s| s.count("store.writes"))),
            (
                "store.durable_writes",
                train(|s| s.count("store.durable_writes")),
            ),
            ("serve.rps", s.latencies_ms.len() as f64 / s.wall_s),
            (
                "serve.p95_ms",
                tail_percentile(&s.latencies_ms, 0.95).ok_or("too few samples for p95")?,
            ),
            (
                "serve.requests_per_batch",
                s.counts.get("serve.requests") / s.counts.get("serve.batches").max(1.0),
            ),
            ("serve.server_p50_ms", s.server_p50_ms),
            ("serve.swap_ms", median(&s.swap_ms)),
            ("serve.rejected", s.counts.get("serve.rejected")),
            ("serve.samples", s.latencies_ms.len() as f64),
            ("obs.trace_overhead_pct", overhead),
        ];
        for (name, secs) in trace::self_times() {
            notes.push(format!("span self time {name}: {secs:.4}s"));
        }
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    })
}
