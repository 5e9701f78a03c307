//! Host facts recorded with every run. Values come from `/proc`; where it
//! is missing the value is absent (`None`), never zero.

use std::fs;

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// On-CPU time and run-queue wait of this process, in seconds, from
/// `/proc/self/schedstat`.
pub fn schedstat() -> Option<(f64, f64)> {
    parse_schedstat(&fs::read_to_string("/proc/self/schedstat").ok()?)
}

fn parse_schedstat(text: &str) -> Option<(f64, f64)> {
    let mut f = text.split_whitespace().map(|v| v.parse::<u64>());
    let on_cpu = f.next()?.ok()?;
    let wait = f.next()?.ok()?;
    Some((on_cpu as f64 / 1e9, wait as f64 / 1e9))
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm(&fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_formats() {
        assert_eq!(
            parse_schedstat("2500000000 500000000 17\n"),
            Some((2.5, 0.5))
        );
        assert_eq!(parse_schedstat(""), None);
        let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2.0));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }
}
