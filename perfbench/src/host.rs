//! Host facts: CPU time, memory, and the fingerprint every result
//! records (numbers do not travel between hosts).

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
    fn sync();
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_CLK_TCK: i32 = 2;

/// User+system CPU time of this process (all threads), in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on) and the clock id
    // is a constant the kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// User+system CPU time of another process from `/proc/<pid>/stat`,
/// in seconds (clock-tick resolution). 0 when unreadable.
pub fn pid_cpu_s(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| f.get(i).and_then(|v| v.parse::<u64>().ok()))
        .sum();
    // SAFETY: sysconf takes a constant name and has no memory effects.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1);
    ticks as f64 / hz as f64
}

/// Write every dirty page to disk, so the write-back of files an
/// earlier step wrote does not land inside a timed pass.
pub fn flush_dirty_pages() {
    // SAFETY: sync takes no arguments and cannot fail.
    unsafe { sync() }
}

/// A `Vm*` field of `/proc/<who>/status` in MiB (0 when unreadable).
fn status_mb(who: &str, field: &str) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{who}/status")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("self", "VmHWM:")
}

/// Current resident memory of process `pid`, MiB.
pub fn rss_mb(pid: u32) -> f64 {
    status_mb(&pid.to_string(), "VmRSS:")
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// nproc, CPU model, rustc version and git revision.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        (
            "rustc",
            first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "git_rev",
            // Only this directory's own repository: a parent's revision
            // would describe the wrong code.
            std::path::Path::new(".git")
                .exists()
                .then(|| first_line("git", &["rev-parse", "--short=12", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "none (not a git checkout)".into()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > t0);
        assert!(pid_cpu_s(std::process::id()) >= 0.0);
    }

    #[test]
    fn memory_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_mb(std::process::id()) > 0.0);
    }
}
