//! Process-wide scheduler counters from `/proc/self/task`: context switches
//! and on-CPU time summed over every live thread. Deltas over a timed
//! window say whether the cores were saturated before a throughput drop
//! is read as cost.

use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct ProcSnapshot {
    pub at: Instant,
    /// Voluntary + involuntary context switches, all threads.
    pub ctxsw: u64,
    /// On-CPU nanoseconds, all threads.
    pub cpu_ns: u64,
}

/// Sums the counters over the threads alive right now. Threads that exit
/// between two snapshots take their counts with them, so snapshot around a
/// window in which the ORB's threads persist. All zeros off Linux.
pub fn snapshot() -> ProcSnapshot {
    let mut snap = ProcSnapshot { at: Instant::now(), ctxsw: 0, cpu_ns: 0 };
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return snap;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        if let Ok(status) = std::fs::read_to_string(dir.join("status")) {
            snap.ctxsw += status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:");
        }
        snap.cpu_ns += match std::fs::read_to_string(dir.join("schedstat")) {
            // First field: nanoseconds spent on a CPU.
            Ok(s) => s.split_whitespace().next().and_then(|v| v.parse().ok()).unwrap_or(0),
            // No schedstats in this kernel: utime + stime in 10 ms ticks.
            Err(_) => {
                std::fs::read_to_string(dir.join("stat")).map_or(0, |s| stat_ticks(&s)) * 10_000_000
            }
        };
    }
    snap
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// utime + stime from a `stat` line; the comm field may contain spaces, so
/// fields are counted from the closing parenthesis.
fn stat_ticks(stat: &str) -> u64 {
    let after = stat.rsplit(')').next().unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    utime + stime
}

/// Counter deltas between two snapshots.
#[derive(Debug, Clone, Copy)]
pub struct ProcDelta {
    pub ctxsw: u64,
    pub cpu_ns: u64,
    pub wall_ns: u64,
}

impl ProcDelta {
    pub fn between(before: &ProcSnapshot, after: &ProcSnapshot) -> ProcDelta {
        ProcDelta {
            ctxsw: after.ctxsw.saturating_sub(before.ctxsw),
            cpu_ns: after.cpu_ns.saturating_sub(before.cpu_ns),
            wall_ns: after.at.duration_since(before.at).as_nanos() as u64,
        }
    }

    /// On-CPU time as a share of `cores` fully busy for the whole window.
    pub fn busy_ratio(&self, cores: usize) -> f64 {
        self.cpu_ns as f64 / (self.wall_ns.max(1) as f64 * cores.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_stat_lines() {
        let status = "Name:\tx\nvoluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), 12);
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches:"), 3);
        assert_eq!(status_field(status, "missing:"), 0);
        let stat = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 70 30 0 0";
        assert_eq!(stat_ticks(stat), 100);
    }

    #[test]
    fn busy_ratio_is_cpu_over_wall_times_cores() {
        let d = ProcDelta { ctxsw: 0, cpu_ns: 1_500, wall_ns: 1_000 };
        assert!((d.busy_ratio(2) - 0.75).abs() < 1e-12);
    }
}
