//! Facts about the host a run executed on.

use std::path::Path;

/// Compiler the benchmark was built with (recorded by `build.rs`).
pub const RUSTC: &str = env!("HSM_BENCH_RUSTC");

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The glibc heap thresholds this process runs under (`run.sh` sets them,
/// see there): `trim/mmap` in bytes, `default` for one that is not set.
pub fn malloc_thresholds() -> String {
    let var = |name| std::env::var(name).unwrap_or_else(|_| "default".to_owned());
    format!(
        "{}/{}",
        var("MALLOC_TRIM_THRESHOLD_"),
        var("MALLOC_MMAP_THRESHOLD_")
    )
}

/// Peak resident set of this process (`VmHWM`), MiB; `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Filesystem type holding `path`: the longest mount point in
/// `/proc/mounts` that prefixes it.
pub fn fs_type(path: &Path) -> String {
    let unknown = || "unknown".to_owned();
    let Ok(path) = path.canonicalize() else {
        return unknown();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return unknown();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace().skip(1);
            Some((fields.next()?, fields.next()?))
        })
        .filter(|(mount, _)| path.starts_with(mount))
        .max_by_key(|(mount, _)| mount.len())
        .map_or_else(unknown, |(_, fs)| fs.to_owned())
}

/// Threads of this process (`num_threads` of `/proc/self/stat`); 1 where
/// `/proc` does not say.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // The fields after the parenthesised command name; the
            // thread count is the 18th of them.
            let rest = stat.rsplit_once(')')?.1;
            rest.split_whitespace().nth(17)?.parse().ok()
        })
        .unwrap_or(1)
}

/// Waits until every thread but the caller's has exited.
pub fn wait_single_threaded() {
    while threads() > 1 {
        std::thread::yield_now();
    }
}
