//! Host fingerprint: CPU model, worker count, steal share and peak memory,
//! read from `/proc`. Every reading degrades to "unknown" (or 0) where
//! `/proc` is unavailable, since it describes the run and is no input.

use std::fs;

/// The CPU model string of the first processor.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Aggregate CPU time counters of the whole host (`cpu` line of
/// `/proc/stat`), in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the counters now.
    pub fn now() -> CpuTimes {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return CpuTimes::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTimes::default();
        };
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user, so it is left out.
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTimes {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Steal time as a percentage of all host CPU time since `earlier`.
    pub fn steal_pct_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Caps glibc's malloc arenas at `arenas`. Each thread that allocates
/// while the arenas it could take are held gets a new one, which keeps its
/// pages; over a run of `dense`, with routing threads on `nproc` cores,
/// `VmHWM` then ranged from 92 to 144 MiB for the same work. One arena
/// per worker and one for the client keeps the threads apart as before
/// without that growth. A no-op where the C library is not glibc.
pub fn cap_malloc_arenas(arenas: usize) {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
        }
        /// `M_ARENA_MAX` of glibc's `<malloc.h>`.
        const M_ARENA_MAX: std::ffi::c_int = -8;
        let n = std::ffi::c_int::try_from(arenas).unwrap_or(std::ffi::c_int::MAX);
        // SAFETY: `mallopt` takes two plain integers and is called before
        // this process starts any thread.
        unsafe {
            mallopt(M_ARENA_MAX, n);
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    let _ = arenas;
}
