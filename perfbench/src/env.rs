//! Process and machine probes: the environment fingerprint written into
//! every result, peak-RSS watermarks, CPU time, and the stage-boundary
//! memory reset.

use serde::{Number, Value};
use std::path::Path;

/// Fingerprint fields that make two results comparable. The commit and
/// source digest are recorded too but differ between a parent and its
/// change by design, so they are not part of the comparability key.
pub const MACHINE_KEYS: &[&str] = &["cpu", "nproc", "ram_mib", "simd", "soup_env"];

/// Machine, build and configuration identity of a run.
pub fn fingerprint(root: &Path) -> Value {
    let soup_env: Vec<(String, Value)> = {
        let mut vars: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("SOUP_"))
            .collect();
        vars.sort();
        vars.into_iter()
            .map(|(k, v)| (k, Value::String(v)))
            .collect()
    };
    let simd = if soup_tensor::parallel::cpu_has_avx2_fma() {
        "avx2+fma"
    } else {
        "scalar"
    };
    Value::Object(vec![
        ("commit".into(), Value::String(git_commit(root))),
        ("source_digest".into(), Value::String(source_digest(root))),
        ("cpu".into(), Value::String(cpu_model())),
        (
            "nproc".into(),
            Value::Number(Number::PosInt(nproc() as u64)),
        ),
        (
            "ram_mib".into(),
            Value::Number(Number::PosInt(mem_total_mib())),
        ),
        ("simd".into(), Value::String(simd.into())),
        ("soup_env".into(), Value::Object(soup_env)),
    ])
}

/// Whether two fingerprints describe the same machine and configuration.
pub fn comparable(a: &Value, b: &Value) -> bool {
    MACHINE_KEYS.iter().all(|k| a.get(k) == b.get(k))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn git_commit(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the workspace sources (path and bytes of every file under
/// `crates/` and `vendor/`, plus the root manifest and lock file), so a
/// checkout without git history still identifies the code it measured.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            eat(f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes());
            eat(&bytes);
        }
    }
    format!("{h:016x}")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn mem_total_mib() -> u64 {
    status_kib("/proc/meminfo", "MemTotal:").unwrap_or(0) / 1024
}

fn status_kib(file: &str, key: &str) -> Option<u64> {
    std::fs::read_to_string(file).ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
    })
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Stage boundary: return idle pooled buffers to the allocator (as
/// `soupctl` does between phases), hand freed heap back to the kernel, and
/// reset the peak-RSS watermark and the tensor ledger's peak, so the next
/// stage's peaks do not inherit this one's. Returns the pool's idle MiB as
/// it stood before the trim.
pub fn stage_boundary() -> f64 {
    let idle = soup_tensor::pool::idle_bytes() as f64 / MIB;
    soup_tensor::pool::trim();
    release_free_heap();
    // Writing 5 to clear_refs resets VmHWM to the current RSS.
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: cannot reset the peak-RSS watermark: {e}");
    }
    soup_tensor::DEVICE_MEMORY.reset_peak();
    idle
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and only returns free
    // heap pages to the kernel; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// CPU time (user + system) consumed by this process's threads and by its
/// children that have been waited for (shard workers), seconds.
#[cfg(target_os = "linux")]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;
    let used = |who: i32| {
        let mut ru = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            rest: [0; 14],
        };
        // SAFETY: `ru` is a writable, correctly laid out `struct rusage`
        // for 64-bit Linux (two timevals then fourteen longs).
        if unsafe { getrusage(who, &mut ru) } != 0 {
            return 0.0;
        }
        let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
        t(&ru.utime) + t(&ru.stime)
    };
    used(RUSAGE_SELF) + used(RUSAGE_CHILDREN)
}

#[cfg(not(target_os = "linux"))]
pub fn cpu_seconds() -> f64 {
    0.0
}
