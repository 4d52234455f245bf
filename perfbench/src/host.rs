//! The host and configuration block stamped into every result, so a
//! number is never read without the machine and settings behind it.

use crate::stats::median;

/// Core count the process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// GFLOP/s of a 64×64×64 matmul through the public blocked kernel:
/// the median of five ~40 ms batches.
pub fn calib_gflops() -> f64 {
    const N: usize = 64;
    let a: Vec<f32> = (0..N * N)
        .map(|i| ((i * 7 + 3) % 17) as f32 - 8.0)
        .collect();
    let b: Vec<f32> = (0..N * N)
        .map(|i| ((i * 5 + 1) % 13) as f32 - 6.0)
        .collect();
    let mut out = vec![0.0f32; N * N];
    let flops = 2.0 * (N * N * N) as f64;
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let watch = hdx_obs::Stopwatch::start();
            let mut iters = 0u64;
            while watch.seconds() < 0.04 {
                hdx_tensor::kernels::matmul_blocked(
                    std::hint::black_box(&a),
                    std::hint::black_box(&b),
                    &mut out,
                    N,
                    N,
                    N,
                );
                std::hint::black_box(&out);
                iters += 1;
            }
            flops * iters as f64 / watch.seconds() / 1e9
        })
        .collect();
    median(&rates).unwrap_or(0.0)
}

/// The widest SIMD tier the kernel dispatch counters have recorded so
/// far (`none` before any compiled kernel step ran).
pub fn simd_tier() -> &'static str {
    let snap = hdx_obs::snapshot();
    let count = |name: &str| snap.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v);
    if count("kernel.dispatch.avx512") > 0 {
        "avx512"
    } else if count("kernel.dispatch.avx2") > 0 {
        "avx2"
    } else if count("kernel.dispatch.scalar") > 0 {
        "scalar"
    } else {
        "none"
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out in the working directory, when it is a git
/// checkout (`unknown` otherwise — e.g. an exported source tree).
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".to_owned(), |c| c.trim().to_owned()),
        None => head,
    }
}
