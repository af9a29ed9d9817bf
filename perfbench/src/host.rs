//! Process and host readings from Linux `/proc`: CPU time and peak RSS of
//! this process (metrics), and the host context printed beside them
//! (cores, fan-out width, CPU steal, load) so an outlier run can be
//! explained rather than guessed at.

use std::fs;

/// Kernel clock ticks per second for `/proc` CPU counters (`USER_HZ`, fixed
/// at 100 on Linux).
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// User + system CPU seconds consumed by this process so far, every thread
/// included (exited fan-out threads are folded into the process totals).
pub fn cpu_seconds() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / USER_HZ
}

/// High-water resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = read("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status has VmHWM");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value");
    kb / 1024.0
}

/// Host-wide CPU steal ticks so far (the aggregate `cpu` line of
/// `/proc/stat`, eighth value).
fn steal_ticks() -> u64 {
    let stat = read("/proc/stat");
    let line = stat.lines().next().expect("cpu line");
    line.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// One-minute load average.
fn load1() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Workers one parallel region fans out to: the core count, capped by
/// `FT_RAYON_WORKERS` when that is set (the program's own rule).
pub fn rayon_workers() -> usize {
    match std::env::var("FT_RAYON_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n > 0 => cores().min(n),
        _ => cores(),
    }
}

/// Host context captured at the start of a run.
pub struct HostWatch {
    steal0: u64,
    load0: f64,
}

impl HostWatch {
    /// Start watching.
    pub fn start() -> Self {
        HostWatch {
            steal0: steal_ticks(),
            load0: load1(),
        }
    }

    /// One line of context covering the run so far: cores, fan-out width,
    /// steal seconds summed over all host CPUs, and the one-minute load at
    /// the start and now.
    pub fn line(&self) -> String {
        let steal = steal_ticks().saturating_sub(self.steal0) as f64 / USER_HZ;
        format!(
            "host: cores={} rayon_workers={} steal_s={steal:.2} load1_start={:.2} load1_end={:.2}",
            cores(),
            rayon_workers(),
            self.load0,
            load1()
        )
    }
}
