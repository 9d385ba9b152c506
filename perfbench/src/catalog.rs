//! The metric catalog and the statistics the benchmark reports with.
//!
//! Every metric the benchmark can print is declared once here with its
//! unit and direction; `BENCHMARK.json` must list the same names, units
//! and directions (a test checks it). End-to-end metrics come from
//! untraced runs, per-layer metrics from traced runs.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether a metric belongs to the untraced (end-to-end) or the traced
/// (per-layer) result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    EndToEnd,
    Layer,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub scope: Scope,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        scope: Scope::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        scope: Scope::Layer,
    }
}

use Better::{Higher, Lower};

/// Every metric, end-to-end first. Layer metrics of a layer a workload
/// bypasses read 0 on that workload (for example `shard.*` outside
/// `shard-products`); worker-process counters are not visible to the
/// coordinator, so in-process `tensor.*`/`soup.*` counters read 0 on
/// `shard-products` too.
pub const METRICS: &[MetricDef] = &[
    // ---- end to end (untraced runs) ----
    e2e("setup_s", "s", Lower),
    e2e("train_s", "s", Lower),
    e2e("soup_s", "s", Lower),
    e2e("total_s", "s", Lower),
    e2e("train_peak_rss_mib", "MiB", Lower),
    e2e("soup_peak_rss_mib", "MiB", Lower),
    e2e("test_acc_pct", "%", Higher),
    e2e("serve_p50_ms", "ms", Lower),
    e2e("ok_pct", "%", Higher),
    // ---- soup-graph ----
    layer("graph.generate_s", "s", Lower),
    layer("graph.save_s", "s", Lower),
    layer("graph.load_s", "s", Lower),
    layer("graph.file_mib", "MiB", Lower),
    // ---- soup-partition ----
    layer("partition.kway_s", "s", Lower),
    layer("partition.edge_cut_frac", "ratio", Lower),
    layer("partition.prepare_s", "s", Lower),
    layer("partition.halo_frac", "ratio", Lower),
    // ---- soup-tensor ----
    layer("tensor.train.spmm_gflop", "GFLOP", Lower),
    layer("tensor.train.gemm_gflop", "GFLOP", Lower),
    layer("tensor.soup.spmm_gflop", "GFLOP", Lower),
    layer("tensor.soup.gemm_gflop", "GFLOP", Lower),
    layer("tensor.train.spmm_gb", "GB", Lower),
    layer("tensor.train.gemm_gb", "GB", Lower),
    layer("tensor.soup.spmm_gb", "GB", Lower),
    layer("tensor.soup.gemm_gb", "GB", Lower),
    layer("tensor.spmm_probe_gflops", "GFLOP/s", Higher),
    layer("tensor.spmm_probe_gbps", "GB/s", Higher),
    layer("tensor.gemm_probe_gflops", "GFLOP/s", Higher),
    layer("tensor.train.live_peak_mib", "MiB", Lower),
    layer("tensor.soup.live_peak_mib", "MiB", Lower),
    layer("tensor.train.pool_idle_mib", "MiB", Lower),
    layer("tensor.soup.pool_idle_mib", "MiB", Lower),
    layer("tensor.pool_hit_ratio", "ratio", Higher),
    // ---- soup-gnn ----
    layer("gnn.forward_ms", "ms", Lower),
    layer("gnn.train_single_s", "s", Lower),
    layer("gnn.eval_ms", "ms", Lower),
    // ---- soup-distrib ----
    layer("distrib.train_speedup", "x", Higher),
    layer("distrib.train.cpu_util", "ratio", Higher),
    layer("distrib.soup.cpu_util", "ratio", Higher),
    layer("distrib.claim_wait_ms", "ms", Lower),
    layer("distrib.requeues", "count", Lower),
    layer("shard.worker_wall_max_s", "s", Lower),
    layer("shard.worker_wall_min_s", "s", Lower),
    layer("shard.worker_peak_rss_max_mib", "MiB", Lower),
    layer("shard.halo_nodes", "count", Lower),
    layer("shard.restarts", "count", Lower),
    // ---- soup-core ----
    layer("soup.epoch_ms", "ms", Lower),
    layer("soup.forward_passes", "count", Lower),
    layer("soup.prop_hits", "count", Higher),
    layer("soup.subcache_hit_ratio", "ratio", Higher),
    layer("soup.gain_pp", "pp", Higher),
    // ---- soup-store ----
    layer("store.writes", "count", Lower),
    layer("store.durable_writes", "count", Lower),
    // ---- soup-serve ----
    // Throughput and the tail percentile are end-to-end numbers, but on a
    // 2-vCPU host their run-to-run spread (IQR/median 0.14-0.33 over ten
    // seeds) exceeds any usable bound, so they are reported here, unbounded.
    layer("serve.rps", "1/s", Higher),
    layer("serve.p95_ms", "ms", Lower),
    layer("serve.requests_per_batch", "req/batch", Higher),
    layer("serve.server_p50_ms", "ms", Lower),
    layer("serve.swap_ms", "ms", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.samples", "count", Higher),
    // ---- soup-obs ----
    layer("obs.trace_overhead_pct", "%", Lower),
];

/// Look a metric up by name.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// The metrics one result carries: end-to-end for untraced runs,
/// per-layer for traced runs.
pub fn scope_metrics(scope: Scope) -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(move |m| m.scope == scope)
}

/// A metric or workload name: starts with a letter or digit, at most 64
/// of `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Samples a timing distribution must have beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` in `[0, 1]` of `samples`, or `None` when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it — a tail
/// percentile resting on a handful of samples is noise, not a measurement.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Samples needed so that [`tail_percentile`] at `q` is defined.
pub fn samples_for_tail(q: f64) -> usize {
    (MIN_TAIL_SAMPLES..)
        .find(|&n| {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            n - rank >= MIN_TAIL_SAMPLES
        })
        .expect("some sample count supports any q < 1")
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which the acceptance spread uses.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |j: usize| {
        let m = n as f64 + 1.0;
        let pos = j as f64 * m / 4.0;
        let i = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - i as f64;
        sorted[i - 1] + (sorted[i] - sorted[i - 1]) * frac
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let mut seen = HashSet::new();
        for m in METRICS {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        assert!(!valid_name(".leading-dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit(""));
        assert!(!valid_unit("m s"));
    }

    #[test]
    fn setup_time_is_an_end_to_end_metric() {
        let setup = def("setup_s").expect("setup_s declared");
        assert_eq!(
            (setup.unit, setup.better, setup.scope),
            ("s", Better::Lower, Scope::EndToEnd)
        );
        assert!(scope_metrics(Scope::Layer).count() <= 128);
        assert!(scope_metrics(Scope::EndToEnd).count() <= 16);
    }

    /// `BENCHMARK.json` and this catalog must agree name for name, with the
    /// same unit and direction, and in the same order.
    #[test]
    fn benchmark_json_matches_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, scope) in [("end_to_end", Scope::EndToEnd), ("per_layer", Scope::Layer)] {
            let listed = doc.get(key).and_then(|v| v.as_array()).expect(key);
            let declared: Vec<_> = scope_metrics(scope).collect();
            assert_eq!(listed.len(), declared.len(), "{key} length");
            for (entry, m) in listed.iter().zip(declared) {
                let field = |k: &str| entry.get(k).and_then(|v| v.as_str()).unwrap_or("");
                assert_eq!(field("name"), m.name, "{key} order");
                assert_eq!(field("unit"), m.unit, "{} unit", m.name);
                assert_eq!(field("better"), m.better.as_str(), "{} direction", m.name);
                if scope == Scope::EndToEnd {
                    let bound = entry.get("bound").and_then(|v| v.as_f64()).expect("bound");
                    assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
                }
            }
        }
        let workloads = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads");
        let names: Vec<_> = workloads
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap_or(""))
            .collect();
        assert_eq!(names, crate::pipeline::WORKLOADS);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&samples, 0.95),
            None,
            "199 samples leave 9 beyond p95"
        );
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.95), Some(190.0));
        assert_eq!(samples_for_tail(0.95), 200);
        assert_eq!(samples_for_tail(0.5), 20);
        assert_eq!(tail_percentile(&samples[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_quartiles_follow_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
    }
}
