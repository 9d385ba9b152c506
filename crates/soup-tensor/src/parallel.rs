//! Shared kernel-dispatch tunables: the parallelism cutoff, the machine's
//! thread count and the runtime SIMD capability probe.
//!
//! Every kernel that forks across the rayon thread budget asks the same
//! question: "is there enough work to amortise forking?" Historically the
//! dense kernels used `16 * 1024` output elements while SpMM hardcoded
//! `8192`; this module hoists one tunable used by both paths.
//!
//! The cutoff can be overridden per-process with the `SOUP_PAR_THRESHOLD`
//! environment variable (a number of output elements; `0` means "always
//! parallel"). The variable is read once, on first use — set it before the
//! first kernel call.

use std::sync::OnceLock;

/// Whether this x86-64 CPU supports AVX2 and FMA, probed once. The hot
/// kernels (GEMM microkernel, SpMM edge loop) carry `#[target_feature]`
/// variants selected through this check, so portable baseline builds still
/// use wide vectors on machines that have them. Override with
/// `SOUP_NO_SIMD=1` to force the baseline-ISA kernels (useful for A/B
/// measurements).
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn cpu_has_avx2_fma() -> bool {
    static CACHED: OnceLock<bool> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if std::env::var("SOUP_NO_SIMD").is_ok_and(|v| v == "1") {
            return false;
        }
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    })
}

/// Non-x86-64 targets have no runtime-dispatched kernel variants.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn cpu_has_avx2_fma() -> bool {
    false
}

/// The machine's thread count (`available_parallelism`, read once): the
/// most threads any kernel call can fork across, whatever the calling
/// thread's rayon budget.
pub fn machine_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Default minimum work (output elements) before a kernel goes parallel.
pub const DEFAULT_PAR_THRESHOLD: usize = 16 * 1024;

/// Minimum work (output elements) before a kernel bothers going parallel;
/// below this, the cost of forking outweighs the win. Honors the
/// `SOUP_PAR_THRESHOLD` environment variable on first call.
#[inline]
pub fn par_threshold() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::env::var("SOUP_PAR_THRESHOLD")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_PAR_THRESHOLD)
    })
}

/// The rayon thread-budget API, re-exported so crates without their own
/// rayon dependency can set the budget kernels run under
/// (`ThreadPoolBuilder::new().num_threads(n).build()?.install(..)`).
pub use rayon::{current_num_threads, ThreadPoolBuilder};

/// Run `op` under the calling thread's budget when `work` (output
/// elements) reaches [`par_threshold`], and confined to one thread below
/// it: the gate for kernels whose parallel loops have no sequential twin.
pub fn fork_above_threshold<R>(work: usize, op: impl FnOnce() -> R) -> R {
    if work >= par_threshold() {
        op()
    } else {
        ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("a one-thread budget")
            .install(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_historic_dense_cutoff() {
        // The env var is deliberately not set in the test environment, so
        // the cached value must be the documented default.
        assert_eq!(par_threshold(), DEFAULT_PAR_THRESHOLD);
        assert_eq!(par_threshold(), 16 * 1024);
    }
}
