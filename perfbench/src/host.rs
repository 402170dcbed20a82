//! The host block every record carries, and the process's peak memory.

use crate::json::Value;

/// Describes the machine and the settings the run used: core count, the
/// parallel runtime's thread count, the active SIMD tier, the CPU model,
/// and the environment overrides the workspace reads.
pub fn host_block() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |name: &str| Value::from(std::env::var(name).unwrap_or_default());
    Value::obj()
        .with("nproc", nproc)
        .with("max_threads", qdp_par::max_threads())
        .with("simd_tier", format!("{:?}", qdp_sim::simd::active_tier()))
        .with("cpu_model", cpu_model())
        .with("QDP_PAR_THREADS", env("QDP_PAR_THREADS"))
        .with("QDP_SIMD", env("QDP_SIMD"))
        .with("QDP_CACHE_WEIGHT", env("QDP_CACHE_WEIGHT"))
}

/// The CPU brand string from `cpuid` (no file access needed).
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports the highest extended leaf; the
    // brand-string leaves are only read when it covers them.
    let max_ext = __cpuid(0x8000_0000).eax;
    if max_ext < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

/// The CPU brand string (unavailable off x86-64).
#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".to_string()
}

/// CPU time consumed so far by every thread of this process, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it leaves out time the
/// process waited for a CPU, including time a virtual CPU was stolen by
/// the hypervisor.
#[cfg(target_os = "linux")]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on
    // 64-bit Linux) and the clock id is a valid Linux clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Process CPU time (unavailable off Linux).
#[cfg(not(target_os = "linux"))]
pub fn process_cpu_s() -> f64 {
    0.0
}

/// Peak resident set size of this process so far, in MiB, from
/// `getrusage(RUSAGE_SELF)` (Linux reports `ru_maxrss` in KiB).
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (2 × 2 longs) then
    // 14 longs; `ru_maxrss` is the first of those 14.
    #[repr(C)]
    struct RUsage {
        fields: [i64; 18],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage { fields: [0; 18] };
    // SAFETY: `usage` is a writable buffer the size of `struct rusage` on
    // 64-bit Linux, and RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.fields[4] as f64 / 1024.0
}

/// Peak resident set size (unavailable off Linux).
#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    0.0
}
