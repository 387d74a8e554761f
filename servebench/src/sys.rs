//! Process and machine readings from `/proc`: CPU time, steal, peak RSS,
//! plus the provenance printed on every result row.

use std::fs;

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`). Linux
/// reports these in units of 1/100 s on every architecture it supports.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads included (also
/// threads that already exited).
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')').expect("comm field in /proc/self/stat") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric /proc/self/stat field");
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Machine-wide CPU tick totals from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let stat = fs::read_to_string("/proc/stat").expect("read /proc/stat");
        let line = stat.lines().next().expect("cpu line in /proc/stat");
        // cpu user nice system idle iowait irq softirq steal [guest ...]:
        // guest time is already counted in user, so the total stops at steal.
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().expect("numeric /proc/stat field"))
            .collect();
        CpuTicks { total: v.iter().sum(), steal: v.get(7).copied().unwrap_or(0) }
    }

    /// Share of machine CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out revision, read from `.git` in the working directory
/// (never from a parent directory); `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = fs::read_to_string(".git/packed-refs").ok()?;
                packed.lines().find(|l| l.ends_with(r)).map(|l| l[..40.min(l.len())].to_string())
            })
            .unwrap_or_else(|| "unknown".into()),
        None => head.to_string(),
    };
    rev.trim().chars().take(12).collect()
}
