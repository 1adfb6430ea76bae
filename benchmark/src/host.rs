//! What the host and the operating system report: process counters from
//! `/proc`, the machine's description, and a memory-bandwidth probe.

use std::process::Command;
use std::time::Instant;

/// Linux reports process CPU times in ticks of 1/100 s on every mainstream
/// configuration (`getconf CLK_TCK`).
const TICKS_PER_S: f64 = 100.0;

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// User and system CPU seconds this process has used so far.
pub fn cpu_seconds() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name may contain spaces; fields are counted after it.
    let after = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let field = |i: usize| -> f64 {
        after
            .split_whitespace()
            .nth(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15 of the line, 12 and 13 after the
    // state field that follows the name.
    (field(11) / TICKS_PER_S, field(12) / TICKS_PER_S)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of the last-level cache in bytes, as sysfs reports it for cpu0.
pub fn llc_bytes() -> usize {
    let mut best = 0usize;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let bytes = if let Some(k) = text.strip_suffix('K') {
            k.parse::<usize>().map_or(0, |v| v * 1024)
        } else if let Some(m) = text.strip_suffix('M') {
            m.parse::<usize>().map_or(0, |v| v * 1024 * 1024)
        } else {
            text.parse().unwrap_or(0)
        };
        best = best.max(bytes);
    }
    best
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

/// The commit of the tree the benchmark was built from, when it is a git
/// checkout.
pub fn git_commit() -> String {
    command_line(
        "git",
        &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
    )
}

/// Result of the memory-bandwidth probe.
pub struct Stream {
    pub gbps: f64,
    pub array_bytes: usize,
    pub llc_bytes: usize,
}

/// STREAM triad `a[i] = b[i] + s * c[i]` on one thread, best of `passes`.
/// Each array is four times the reported last-level cache, clamped to
/// 64..=128 MB: a virtual machine reports its host's whole L3 (260 MB here),
/// and first-touching three arrays of four times that would take longer than
/// the whole run. Both sizes are returned so the report can state them.
/// Bytes moved are computed as three arrays per pass (write-allocate traffic
/// is not counted).
pub fn stream_triad(passes: usize) -> Stream {
    const MB: usize = 1024 * 1024;
    let llc = llc_bytes();
    let array_bytes = (4 * llc).clamp(64 * MB, 128 * MB);
    let n = array_bytes / std::mem::size_of::<f32>();
    let mut a = vec![0.0f32; n];
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let mut best = f64::INFINITY;
    for pass in 0..passes.max(1) {
        let s = 0.5 + pass as f32;
        let t0 = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + s * *z;
        }
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(&a);
        best = best.min(dt);
    }
    Stream {
        gbps: 3.0 * array_bytes as f64 / best / 1e9,
        array_bytes,
        llc_bytes: llc,
    }
}
