//! Host facts recorded with every run, and peak memory.

/// Provenance of one run, printed and written to the run record.
pub fn provenance() -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    vec![
        (
            "git_sha",
            git_sha().unwrap_or_else(|| "unknown (not a git checkout)".into()),
        ),
        (
            "kernel_backend",
            desh::nn::kernel_backend_name().to_string(),
        ),
        (
            "host_cores",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("DESH_THREADS", env("DESH_THREADS")),
        ("DESH_SHARDS", env("DESH_SHARDS")),
    ]
}

/// The commit checked out in the working directory, read from `.git`
/// without running git.
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{r}")) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|s| s.trim().to_string()))
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
