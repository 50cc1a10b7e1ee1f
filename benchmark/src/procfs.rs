//! Resident-memory readings from `/proc/self/status`.

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Current resident set size in bytes (0 where `/proc` is unavailable).
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS:").unwrap_or(0) * 1024
}

/// Peak resident set size of this process in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM:").unwrap_or(0) * 1024
}
