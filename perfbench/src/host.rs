//! The host a result was measured on, and its noise counters, read from
//! the kernel's `/proc` and `/sys` files. A missing file reads as empty,
//! so the benchmark still runs where they are absent.

use std::fs;
use std::time::Instant;

/// Clock ticks per second in `/proc/self/stat` and `/proc/stat`
/// (`USER_HZ`, 100 on every Linux architecture this runs on).
const TICKS_PER_S: f64 = 100.0;

/// What the result names about its host.
pub struct Host {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Cache sizes of CPU 0 as reported, e.g. `L1d 48K`.
    pub caches: Vec<String>,
    /// One-minute load average when the benchmark started.
    pub load_1m: f64,
}

impl Host {
    /// Reads the host description.
    pub fn probe() -> Host {
        let cpu_model = read("/proc/cpuinfo")
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
        let mut caches = Vec::new();
        for i in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let size = read(&format!("{dir}/size"));
            if size.is_empty() {
                break;
            }
            let kind = match read(&format!("{dir}/type")).trim() {
                "Data" => "d",
                "Instruction" => "i",
                _ => "",
            };
            caches.push(format!(
                "L{}{kind} {}",
                read(&format!("{dir}/level")).trim(),
                size.trim()
            ));
        }
        Host {
            nproc: nproc(),
            cpu_model,
            caches,
            load_1m: read("/proc/loadavg")
                .split_whitespace()
                .next()
                .and_then(|x| x.parse().ok())
                .unwrap_or(0.0),
        }
    }

    /// One line for the human-readable report.
    pub fn describe(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" caches=[{}] load_1m_at_start={}",
            self.nproc,
            self.cpu_model,
            self.caches.join(", "),
            self.load_1m
        )
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// CPU counters at one instant; two of them bound a window.
pub struct CpuSample {
    at: Instant,
    process_ticks: u64,
    steal_ticks: u64,
    total_ticks: u64,
}

impl CpuSample {
    /// Reads the counters now.
    pub fn now() -> CpuSample {
        // Fields after the parenthesised command name: state is the
        // first, utime the 12th and stime the 13th.
        let stat = read("/proc/self/stat");
        let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<u64> = after_comm
            .split_whitespace()
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        let process_ticks = fields.get(11).unwrap_or(&0) + fields.get(12).unwrap_or(&0);
        // The aggregate `cpu` line: user nice system idle iowait irq
        // softirq steal ...
        let all = read("/proc/stat");
        let cpu: Vec<u64> = all
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        CpuSample {
            at: Instant::now(),
            process_ticks,
            steal_ticks: cpu.get(7).copied().unwrap_or(0),
            total_ticks: cpu.iter().take(8).sum(),
        }
    }

    /// Steal time as a percentage of all CPU time since `self`, and this
    /// process's CPU time divided by wall time times `nproc`.
    pub fn since(&self, nproc: usize) -> (f64, f64) {
        let end = CpuSample::now();
        let total = end.total_ticks.saturating_sub(self.total_ticks);
        let steal_pct = if total == 0 {
            0.0
        } else {
            100.0 * end.steal_ticks.saturating_sub(self.steal_ticks) as f64 / total as f64
        };
        let wall = end.at.duration_since(self.at).as_secs_f64();
        let cpu_s = end.process_ticks.saturating_sub(self.process_ticks) as f64 / TICKS_PER_S;
        let cpu_util = if wall > 0.0 {
            cpu_s / (wall * nproc as f64)
        } else {
            0.0
        };
        (steal_pct, cpu_util)
    }
}

/// Records the window's steal share and CPU utilisation, as per-layer
/// metrics and as a line of the report.
pub fn report_noise(steal_pct: f64, cpu_util: f64, report: &mut crate::report::Report) {
    report.layer("host.steal_pct", steal_pct);
    report.layer("host.cpu_util", cpu_util);
    report.note(format!(
        "window noise: steal {steal_pct:.2}% of CPU time; process CPU / (wall x nproc) {cpu_util:.3}"
    ));
}

/// Peak resident set (`VmHWM`) of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}
