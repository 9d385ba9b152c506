//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <base.json> <new.json> [BENCHMARK.json]
//! perfbench spread <record.json>...
//! ```
//!
//! A run prints its environment fingerprint and notes, then as its last
//! line one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! every end-to-end metric untraced, every per-layer metric traced. It
//! also writes the full record (fingerprint included) under
//! `.bench_work/results/`. An output check that fails exits with code 1
//! and prints no result. `compare` reads two such records and reports
//! each end-to-end metric against its bound, or the pair as incomparable
//! when their machine fingerprints differ. `spread` summarises records of
//! repeated runs: per workload and metric, the median and the distance
//! between the quartiles as a share of the median.
//!
//! Run from the repository root, for example
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload ls-reddit --seed 1 --seconds 30 --trace 0`.

mod catalog;
mod env;
mod pipeline;
mod trace;

use catalog::{Better, Scope};
use serde::{Number, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench compare <base.json> <new.json> [BENCHMARK.json]\n       \
         perfbench spread <record.json>...",
        pipeline::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("shard-worker") => shard_worker(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("spread") => spread(&args[1..]),
        _ => measure(&args),
    }
}

/// One shard of a sharded run: the coordinator re-executes this binary.
fn shard_worker(args: &[String]) -> ExitCode {
    let (mut plan, mut shard, mut epoch) = (None, None, 0u32);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next();
        match flag.as_str() {
            "--plan" => plan = value.map(PathBuf::from),
            "--shard" => shard = value.and_then(|v| v.parse::<usize>().ok()),
            "--epoch" => epoch = value.and_then(|v| v.parse().ok()).unwrap_or(0),
            _ => return usage(),
        }
    }
    let (Some(plan), Some(shard)) = (plan, shard) else {
        return usage();
    };
    match soup_distrib::run_shard_worker(&plan, shard, epoch) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench shard-worker {shard}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn measure(args: &[String]) -> ExitCode {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) =
        (workload, seed, seconds, traced)
    else {
        return usage();
    };
    let root = std::env::current_dir().expect("the working directory is readable");
    let fingerprint = env::fingerprint(&root);
    println!("fingerprint {}", to_json(&fingerprint));
    let run = pipeline::RunArgs {
        workload,
        seed,
        seconds,
        trace,
        root: root.clone(),
    };
    let outcome = match pipeline::run(&run) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("perfbench: {}: output check failed: {msg}", run.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    let scope = if trace { Scope::Layer } else { Scope::EndToEnd };
    let mut metrics = Vec::new();
    for def in catalog::scope_metrics(scope) {
        let Some(&(_, value)) = outcome.metrics.iter().find(|m| m.0 == def.name) else {
            eprintln!("perfbench: the run did not measure {}", def.name);
            return ExitCode::FAILURE;
        };
        if !value.is_finite() {
            eprintln!("perfbench: {} measured {value}", def.name);
            return ExitCode::FAILURE;
        }
        metrics.push((
            def.name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::Number(Number::Float(value))),
                ("unit".into(), Value::String(def.unit.into())),
            ]),
        ));
    }
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(true)),
        (
            "attempted".into(),
            Value::Number(Number::PosInt(outcome.attempted)),
        ),
        (
            "failed".into(),
            Value::Number(Number::PosInt(outcome.failed)),
        ),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    let record = Value::Object(vec![
        ("workload".into(), Value::String(run.workload.clone())),
        ("seed".into(), Value::Number(Number::PosInt(seed))),
        ("trace".into(), Value::Bool(trace)),
        ("fingerprint".into(), fingerprint),
        ("result".into(), result.clone()),
    ]);
    let path = root.join(".bench_work").join("results").join(format!(
        "{}-seed{seed}-trace{}-{}.json",
        run.workload,
        trace as u8,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(path.parent().expect("results dir"))
        .and_then(|_| std::fs::write(&path, to_json(&record) + "\n"))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{}", to_json(&result));
    ExitCode::SUCCESS
}

fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("JSON values serialise")
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two result records metric by metric against the bounds in
/// `BENCHMARK.json`. Records from different machines or configurations are
/// incomparable: reported as such, never as a regression.
fn compare(args: &[String]) -> ExitCode {
    let (Some(base), Some(new)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let bench = args.get(2).map_or("BENCHMARK.json", String::as_str);
    let load = |path: &str| read_json(path.as_ref());
    let (base, new, bench) = match (load(base), load(new), load(bench)) {
        (Ok(base), Ok(new), Ok(bench)) => (base, new, bench),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let report = compare_records(&base, &new, &bench);
    print!("{}", report.text);
    if report.regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Per workload, trace mode and metric: run count, median, and the
/// interquartile distance as a share of the median.
fn spread(paths: &[String]) -> ExitCode {
    let mut groups: std::collections::BTreeMap<(String, bool), Vec<Value>> = Default::default();
    for path in paths {
        match read_json(path.as_ref()) {
            Ok(rec) => {
                let workload = rec.get("workload").and_then(|v| v.as_str()).unwrap_or("?");
                let traced = rec.get("trace") == Some(&Value::Bool(true));
                groups
                    .entry((workload.to_string(), traced))
                    .or_default()
                    .push(rec);
            }
            Err(e) => {
                eprintln!("perfbench spread: {e}");
                return ExitCode::from(2);
            }
        }
    }
    for ((workload, traced), records) in &groups {
        println!(
            "{workload} (trace {}): {} runs",
            *traced as u8,
            records.len()
        );
        let scope = if *traced {
            Scope::Layer
        } else {
            Scope::EndToEnd
        };
        for def in catalog::scope_metrics(scope) {
            let values: Vec<f64> = records
                .iter()
                .filter_map(|r| {
                    r.get("result")?
                        .get("metrics")?
                        .get(def.name)?
                        .get("value")?
                        .as_f64()
                })
                .collect();
            let med = catalog::median(&values);
            let (q1, q3) = catalog::quartiles(&values);
            let share = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            println!(
                "  {:<32} n={:<3} median {med:>14.4} {:<9} iqr/median {share:.4}",
                def.name,
                values.len(),
                def.unit
            );
        }
    }
    ExitCode::SUCCESS
}

struct Comparison {
    text: String,
    regressed: bool,
}

fn compare_records(base: &Value, new: &Value, bench: &Value) -> Comparison {
    let mut text = String::new();
    let fp = |r: &Value| r.get("fingerprint").cloned().unwrap_or(Value::Null);
    if !env::comparable(&fp(base), &fp(new)) {
        let _ = writeln!(
            text,
            "incomparable: the records come from different machines or SOUP_* settings"
        );
        return Comparison {
            text,
            regressed: false,
        };
    }
    let metric = |r: &Value, name: &str| {
        r.get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64())
    };
    let mut regressed = false;
    let bounds = bench
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .unwrap_or(&[]);
    for entry in bounds {
        let name = entry.get("name").and_then(|v| v.as_str()).unwrap_or("");
        let bound = entry.get("bound").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let Some(def) = catalog::def(name) else {
            continue;
        };
        let (Some(b), Some(n)) = (metric(base, name), metric(new, name)) else {
            continue;
        };
        // Positive `worse` means the new value moved the wrong way.
        let worse = match def.better {
            Better::Lower => (n - b) / b.abs().max(f64::MIN_POSITIVE),
            Better::Higher => (b - n) / b.abs().max(f64::MIN_POSITIVE),
        };
        let verdict = if worse > bound {
            regressed = true;
            "REGRESSED"
        } else if worse < -bound {
            "improved"
        } else {
            "within bound"
        };
        let _ = writeln!(
            text,
            "{name:<20} {b:>12.4} -> {n:>12.4} {:<5} {:+7.2}% (bound {:.0}%) {verdict}",
            def.unit,
            -100.0 * worse,
            100.0 * bound
        );
    }
    Comparison { text, regressed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cpu: &str, total_s: f64) -> Value {
        serde_json::from_str(&format!(
            r#"{{"fingerprint": {{"cpu": "{cpu}", "nproc": 2, "ram_mib": 1, "simd": "x", "soup_env": {{}}, "commit": "{total_s}"}},
                "result": {{"metrics": {{"total_s": {{"value": {total_s}, "unit": "s"}}}}}}}}"#
        ))
        .expect("test record parses")
    }

    fn bench() -> Value {
        serde_json::from_str(r#"{"end_to_end": [{"name": "total_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#)
            .expect("bench parses")
    }

    #[test]
    fn compare_flags_regressions_beyond_the_bound_only() {
        let c = compare_records(&record("a", 10.0), &record("a", 10.5), &bench());
        assert!(!c.regressed, "{}", c.text);
        let c = compare_records(&record("a", 10.0), &record("a", 12.0), &bench());
        assert!(c.regressed && c.text.contains("REGRESSED"), "{}", c.text);
    }

    #[test]
    fn different_machines_are_incomparable_not_regressed() {
        let c = compare_records(&record("a", 10.0), &record("b", 99.0), &bench());
        assert!(!c.regressed);
        assert!(c.text.starts_with("incomparable"), "{}", c.text);
    }
}
