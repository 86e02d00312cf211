//! This process's memory and CPU accounting, read from `/proc/self`.

use std::fs;

/// Kernel clock ticks per second for `/proc/self/stat` times: `USER_HZ`,
/// 100 on every Linux architecture the kernel supports.
const TICKS_PER_S: f64 = 100.0;

fn status_kib(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} line"))
}

/// Peak resident set size (`VmHWM`) in KiB.
pub fn peak_rss_kib() -> u64 {
    status_kib("VmHWM:")
}

/// Current resident set size (`VmRSS`) in KiB.
pub fn rss_kib() -> u64 {
    status_kib("VmRSS:")
}

/// CPU seconds and minor faults of this process so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

pub fn usage() -> Usage {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields are counted from after its closing parenthesis (field 3 on).
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let num = |field: usize| -> u64 {
        fields[field - 3]
            .parse()
            .unwrap_or_else(|_| panic!("stat field {field} is not a number"))
    };
    Usage {
        minor_faults: num(10),
        user_s: num(14) as f64 / TICKS_PER_S,
        sys_s: num(15) as f64 / TICKS_PER_S,
    }
}
