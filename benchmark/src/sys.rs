//! Process and machine facts: peak memory, core counts and build context.

use std::time::{Duration, Instant};

use crate::json::quote;

/// Peak resident set of this process in MiB (`VmHWM`), or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    fields: [i64; 18],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// The largest peak resident set, in MiB, among this process's waited-for
/// descendants (`getrusage(RUSAGE_CHILDREN)`), or `NaN` if the call fails.
pub fn children_peak_rss_mb() -> f64 {
    let mut usage = RUsage { fields: [0; 18] };
    // SAFETY: `usage` is a live, writable value with the size and
    // alignment of `struct rusage` on 64-bit Linux (18 eight-byte fields),
    // which is all `getrusage` writes; the pointer does not outlive the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.fields[4] as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..iters {
        x = std::hint::black_box(x.rotate_left(7) ^ i).wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    x
}

/// Cores that actually run in parallel right now: the rate of a fixed
/// spin loop on `nproc` threads at once, divided by its rate on one.
/// A shared or throttled machine reads below `nproc`.
pub fn effective_cores() -> f64 {
    // Size the loop to ~20 ms on one thread, then time 1 and n copies.
    let probe = Instant::now();
    spin(1 << 20);
    let per_iter = probe.elapsed().as_secs_f64() / f64::from(1u32 << 20);
    let iters = (0.02 / per_iter.max(1e-12)) as u64;
    // Best of three, so a momentary preemption does not count.
    let time = |threads: usize| -> Duration {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        s.spawn(|| spin(iters));
                    }
                });
                start.elapsed()
            })
            .min()
            .unwrap_or_default()
    };
    let one = time(1);
    let n = nproc();
    let all = time(n);
    n as f64 * one.as_secs_f64() / all.as_secs_f64().max(1e-12)
}

/// The machine context printed beside every result set, as a JSON
/// object: context only, never compared across machines. The toolchain
/// and commit come from `STELLAR_BENCH_RUSTC` and `STELLAR_BENCH_COMMIT`
/// (set by `run.sh`), so that no child process adds to the children's
/// peak memory the benchmark reports.
pub fn context_json(workload: &str, seed: u64, trace: bool) -> String {
    let env = |var: &str| {
        std::env::var(var)
            .ok()
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"nproc\":{},\"effective_cores\":{:.2},\"rustc\":{},\"commit\":{}}}",
        quote(workload),
        nproc(),
        effective_cores(),
        quote(&env("STELLAR_BENCH_RUSTC")),
        quote(&env("STELLAR_BENCH_COMMIT")),
    )
}
