//! Process facts the benchmark reports next to its timings.

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`, Linux only).
pub(crate) fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS: cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("peak RSS: no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Hardware threads available to this process.
pub(crate) fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
