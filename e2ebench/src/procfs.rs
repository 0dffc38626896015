//! Run conditions read from `/proc`: host steal, process CPU and peak
//! RSS; and pinning the process to one CPU.

use std::fs;
use std::process::{Command, Stdio};
use std::sync::OnceLock;

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, which
/// Linux fixes at 100 for this interface on every supported target).
const TICKS_PER_SECOND: f64 = 100.0;

/// The CPU this process is pinned to, once [`pin_to_one_cpu`] succeeded.
static PINNED: OnceLock<usize> = OnceLock::new();

/// The host CPU counters of `/proc/stat`, in ticks: of the CPU this
/// process is pinned to, or of the whole guest when it is not pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostCpu {
    /// Every state the line reports up to and including steal (guest
    /// time is already counted inside user time).
    pub total: u64,
    /// Time the hypervisor ran something else while a vCPU was runnable.
    pub steal: u64,
}

impl HostCpu {
    /// Parse the text of `/proc/stat`: the line of CPU `cpu`, or the
    /// guest-wide line for `None`.
    pub fn parse(text: &str, cpu: Option<usize>) -> Option<HostCpu> {
        let label = cpu.map_or("cpu".to_string(), |c| format!("cpu{c}"));
        let line = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(label.as_str()))?;
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal [guest guest_nice]
        if fields.len() < 8 {
            return None;
        }
        Some(HostCpu {
            total: fields[..8].iter().sum(),
            steal: fields[7],
        })
    }

    /// The counters now.
    pub fn read() -> HostCpu {
        let text = fs::read_to_string("/proc/stat").expect("/proc/stat is readable on Linux");
        HostCpu::parse(&text, PINNED.get().copied()).expect("/proc/stat has the cpu line")
    }

    /// Share of all CPU time between `self` and a later reading that was
    /// stolen.
    pub fn steal_share(&self, later: &HostCpu) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// This process's user and system CPU, seconds, summed over its threads.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProcCpu {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl ProcCpu {
    /// Parse the text of `/proc/self/stat`. The command name (field 2)
    /// may hold spaces and parentheses, so fields are counted from its
    /// closing parenthesis; utime and stime are fields 14 and 15.
    pub fn parse(text: &str) -> Option<ProcCpu> {
        let rest = &text[text.rfind(')')? + 1..];
        let mut fields = rest.split_whitespace().skip(11);
        let utime: u64 = fields.next()?.parse().ok()?;
        let stime: u64 = fields.next()?.parse().ok()?;
        Some(ProcCpu {
            user_s: utime as f64 / TICKS_PER_SECOND,
            sys_s: stime as f64 / TICKS_PER_SECOND,
        })
    }

    /// The counters now.
    pub fn read() -> ProcCpu {
        let text =
            fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable on Linux");
        ProcCpu::parse(&text).expect("/proc/self/stat has utime and stime")
    }

    /// CPU used between `self` and a later reading.
    pub fn since(&self, earlier: &ProcCpu) -> ProcCpu {
        ProcCpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    /// User plus system seconds.
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Parse the `VmHWM` (peak resident set) line of `/proc/self/status`,
/// in mebibytes.
pub fn parse_peak_rss_mb(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb as f64 / 1024.0)
}

/// This process's peak resident set so far, in mebibytes.
pub fn peak_rss_mb() -> f64 {
    let text =
        fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable on Linux");
    parse_peak_rss_mb(&text).expect("/proc/self/status has a VmHWM line")
}

/// The highest-numbered CPU of a `Cpus_allowed_list` value such as
/// `0-3,8`.
pub fn parse_last_allowed_cpu(list: &str) -> Option<usize> {
    list.trim()
        .split(',')
        .map(|range| range.rsplit('-').next()?.trim().parse::<usize>().ok())
        .collect::<Option<Vec<_>>>()?
        .into_iter()
        .max()
}

/// Pin this process to the last CPU it may run on, with `taskset`; the
/// threads it starts afterwards inherit the pin. Call it before starting
/// any thread. Returns the CPU, or `None` when the process could not be
/// pinned and runs unpinned.
///
/// On a guest with a vCPU per thread, threads that block and wake all
/// the time (a router forwarding to workers over sockets) leave vCPUs
/// idle, and the host lends an idle vCPU's time elsewhere; taking it back
/// costs steal that varied between runs by tens of percent. On one CPU
/// that stays busy, steal stays near zero.
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    let cpu = parse_last_allowed_cpu(&line["Cpus_allowed_list:".len()..])?;
    let pinned = Command::new("taskset")
        .args([
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .ok()?
        .success();
    pinned.then(|| *PINNED.get_or_init(|| cpu))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cpu_sums_states_through_steal() {
        let text = "cpu  100 5 50 1000 20 1 2 30 7 0\ncpu0 50 2 25 500 10 0 1 15 3 0\nintr 1\n";
        let cpu = HostCpu::parse(text, None).unwrap();
        assert_eq!(cpu.total, 100 + 5 + 50 + 1000 + 20 + 1 + 2 + 30);
        assert_eq!(cpu.steal, 30);
        let later = HostCpu {
            total: cpu.total + 200,
            steal: cpu.steal + 50,
        };
        assert_eq!(cpu.steal_share(&later), 0.25);
        assert_eq!(cpu.steal_share(&cpu), 0.0);
        let cpu0 = HostCpu::parse(text, Some(0)).unwrap();
        assert_eq!(
            (cpu0.total, cpu0.steal),
            (50 + 2 + 25 + 500 + 10 + 1 + 15, 15)
        );
        assert_eq!(HostCpu::parse(text, Some(1)), None);
    }

    #[test]
    fn host_cpu_rejects_short_or_garbled_lines() {
        assert_eq!(HostCpu::parse("cpu  1 2 3\n", None), None);
        assert_eq!(HostCpu::parse("cpu  1 2 x 4 5 6 7 8\n", None), None);
        assert_eq!(HostCpu::parse("intr 1 2\n", None), None);
    }

    #[test]
    fn proc_cpu_counts_fields_after_the_command_name() {
        // A command name with spaces and a parenthesis must not shift
        // the fields: utime 250 ticks, stime 75 ticks.
        let text = "4242 (my (odd) cmd) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 75 0 0 20 0 9 0 \
                    123 456 789\n";
        let cpu = ProcCpu::parse(text).unwrap();
        assert_eq!(cpu.user_s, 2.5);
        assert_eq!(cpu.sys_s, 0.75);
        assert_eq!(cpu.total_s(), 3.25);
        assert_eq!(ProcCpu::parse("4242 (cmd) S 1 2"), None);
    }

    #[test]
    fn last_allowed_cpu_reads_ranges_and_lists() {
        assert_eq!(parse_last_allowed_cpu("0-1\n"), Some(1));
        assert_eq!(parse_last_allowed_cpu("\t0,2-3,8"), Some(8));
        assert_eq!(parse_last_allowed_cpu("5"), Some(5));
        assert_eq!(parse_last_allowed_cpu("0-x"), None);
    }

    #[test]
    fn peak_rss_parses_kilobytes() {
        let text = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mb(text), Some(2.0));
        assert_eq!(parse_peak_rss_mb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmRSS:\t 12 kB\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }
}
