//! Host-speed reference: every host time the benchmark reports is
//! rescaled to a nominal host speed.
//!
//! The benchmark runs on a share of a machine whose speed drifts by up
//! to 2x within minutes as other tenants load it, and raw host times
//! drift with it. The reference slice runs the same fixed work on every
//! call — SipHash-keyed `std` hash-map inserts and lookups, which
//! depend on nothing in the workspace — so its time measures the host,
//! not the program. It is timed next to the measured work (before each
//! detailed cell; between the rounds of the pooled workloads, while the
//! pool is idle; around each set-up). A host time `t` spent while
//! slices took `s` seconds is reported as `t * (NOMINAL_SLICE_S /
//! s)^k` nominal seconds, where `k` is the workload's sensitivity to the
//! host's speed: the log-log slope of its throughput against the
//! reference's, fitted on the tuning host. A change to the program moves
//! the nominal time; the host's load largely does not.
//!
//! Of the reference kernels tried on the 2-vCPU Xeon VM the benchmark
//! was tuned on (a bytecode interpreter, small-allocation churn, a
//! `BTreeMap`, dependent loads in 32 KiB to 4 MiB tables, large
//! allocations and hash maps of 2^12 to 2^18 keys), the 2^16-key hash
//! map tracked round-to-round detailed-mode throughput best: correlation
//! 0.94 over 139 one-second rounds, and run-to-run spread of
//! `sim_kips` from 0.17-0.27 to 0.04-0.07 of the median.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one reference slice takes on the nominal host: about its
/// time on the 2-vCPU Xeon VM the benchmark was tuned on, when lightly
/// loaded.
pub const NOMINAL_SLICE_S: f64 = 1.5e-3;

/// Map operations per slice.
const SLICE_OPS: u64 = 20_000;
/// Keys are drawn from `2^KEY_BITS` values: a map of about 300 KiB.
const KEY_BITS: u32 = 16;
/// Slices per [`probe`].
const PROBE_SLICES: usize = 16;

/// Runs one reference slice; returns its seconds.
pub fn slice() -> f64 {
    let t = Instant::now();
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut acc = 1u64;
    for k in 0..SLICE_OPS {
        let key = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - KEY_BITS);
        *map.entry(key).or_insert(0) += k;
        acc ^= map.get(&(key ^ 7)).copied().unwrap_or(1);
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Mean seconds of [`PROBE_SLICES`] slices on the calling thread. The
/// pooled workloads probe on the thread that feeds the pool while the
/// workers are idle: slices on fresh threads pay for a new allocator
/// arena and are noisier.
pub fn probe() -> f64 {
    (0..PROBE_SLICES).map(|_| slice()).sum::<f64>() / PROBE_SLICES as f64
}

/// Nominal seconds of `host_s` host seconds spent while a reference
/// slice took `slice_s`, for work whose speed moves as the reference
/// speed to the power `sensitivity`.
pub fn nominal(host_s: f64, slice_s: f64, sensitivity: f64) -> f64 {
    host_s * (NOMINAL_SLICE_S / slice_s).powf(sensitivity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_time_scales_by_the_reference_slowdown() {
        // A host at nominal speed: times are unchanged.
        assert!((nominal(3.0, NOMINAL_SLICE_S, 1.25) - 3.0).abs() < 1e-12);
        // A host half as fast: slices and work both take twice as long.
        assert!((nominal(6.0, 2.0 * NOMINAL_SLICE_S, 1.0) - 3.0).abs() < 1e-12);
        // Work half as sensitive: it slowed by only sqrt(2).
        let slowed = 3.0 * 2f64.sqrt();
        assert!((nominal(slowed, 2.0 * NOMINAL_SLICE_S, 0.5) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn slices_and_probes_take_time() {
        assert!(slice() > 0.0);
        assert!(probe() > 0.0);
    }
}
