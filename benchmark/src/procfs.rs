//! `/proc/<pid>` accounting of the server processes: CPU time, resident
//! memory, thread count and context switches, sampled at the edges of the
//! measured window. This is how the benchmark sees a layer it does not link
//! against — the shipped `sirep-cluster` roles — from outside. Also the one
//! scheduling control the benchmark takes: confining itself to one CPU.

use std::fs;

/// What `/proc/<pid>/stat` gives: user + system CPU time in clock ticks,
/// summed over all threads of the process, dead ones included.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    // The second field is the command name in parentheses and may itself
    // contain spaces and parentheses, so split after the *last* ')'.
    // Fields after it start at field 3 (state); utime and stime are 14, 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The fields of `/proc/<pid>/status` (or `.../task/<tid>/status`) used.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    pub rss_bytes: u64,
    pub threads: u64,
    pub ctxsw: u64,
}

pub fn parse_status(status: &str) -> Status {
    let mut out = Status::default();
    for line in status.lines() {
        let Some((key, rest)) = line.split_once(':') else { continue };
        let value = || rest.split_ascii_whitespace().next().and_then(|v| v.parse::<u64>().ok());
        match key {
            "VmRSS" => out.rss_bytes = value().unwrap_or(0) * 1024,
            "Threads" => out.threads = value().unwrap_or(0),
            "voluntary_ctxt_switches" | "nonvoluntary_ctxt_switches" => {
                out.ctxsw += value().unwrap_or(0);
            }
            _ => {}
        }
    }
    out
}

/// Clock ticks per second (`getconf CLK_TCK`; Linux has used 100 on every
/// architecture for two decades, which is also the fallback).
pub fn clk_tck() -> u64 {
    std::process::Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(100)
}

/// One sample of one process.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProcSample {
    pub cpu_us: f64,
    pub rss_bytes: u64,
    pub threads: u64,
    /// Context switches summed over the threads alive now (a thread that
    /// exits takes its count with it; the servers' threads are long-lived).
    pub ctxsw: u64,
}

fn read(path: String) -> Result<String, String> {
    fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
}

/// User + system CPU time of the process so far, in microseconds.
pub fn cpu_us(pid: u32, clk_tck: u64) -> Result<f64, String> {
    let stat = read(format!("/proc/{pid}/stat"))?;
    let ticks = parse_stat_cpu_ticks(&stat).ok_or_else(|| format!("bad /proc/{pid}/stat"))?;
    Ok(ticks as f64 * 1e6 / clk_tck as f64)
}

pub fn sample(pid: u32, clk_tck: u64) -> Result<ProcSample, String> {
    let cpu_us = cpu_us(pid, clk_tck)?;
    let status = parse_status(&read(format!("/proc/{pid}/status"))?);
    let mut ctxsw = 0;
    let tasks = fs::read_dir(format!("/proc/{pid}/task")).map_err(|e| format!("{pid}: {e}"))?;
    for task in tasks.flatten() {
        // A thread may exit between readdir and read; skip it.
        if let Ok(text) = fs::read_to_string(task.path().join("status")) {
            ctxsw += parse_status(&text).ctxsw;
        }
    }
    Ok(ProcSample { cpu_us, rss_bytes: status.rss_bytes, threads: status.threads, ctxsw })
}

/// `Cpus_allowed_list` of `/proc/<pid>/status` ("0-1,4") as CPU numbers,
/// ascending. Malformed parts are skipped.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi.min(MAX_CPUS - 1));
        }
    }
    cpus.sort_unstable();
    cpus.dedup();
    cpus
}

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let status = read("/proc/thread-self/status".to_string())?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("/proc/thread-self/status has no Cpus_allowed_list")?;
    let cpus = parse_cpu_list(list);
    if cpus.is_empty() {
        return Err(format!("Cpus_allowed_list {list:?} names no CPU"));
    }
    Ok(cpus)
}

const MAX_CPUS: usize = 1024;

extern "C" {
    /// `sched_setaffinity(2)` of the C library the standard library links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread to `cpu`. Threads and processes it starts
/// afterwards inherit the restriction, so called from a still
/// single-threaded `main` it confines the whole benchmark — load generator
/// and servers — to that one CPU.
pub fn pin_to_cpu(cpu: usize) -> Result<(), String> {
    if cpu >= MAX_CPUS {
        return Err(format!("cpu {cpu} is beyond the {MAX_CPUS}-bit affinity mask"));
    }
    let mut mask = [0u64; MAX_CPUS / 64];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of exactly `size_of_val(&mask)` bytes
    // that the call only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity(cpu {cpu}): {}", std::io::Error::last_os_error()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_list_parser_expands_ranges() {
        assert_eq!(parse_cpu_list("0-1\n"), [0, 1]);
        assert_eq!(parse_cpu_list("\t3,0-1,8-9"), [0, 1, 3, 8, 9]);
        assert_eq!(parse_cpu_list("5"), [5]);
        assert_eq!(parse_cpu_list("x,2-"), Vec::<usize>::new());
        assert!(!allowed_cpus().expect("own status").is_empty());
    }

    #[test]
    fn pinning_confines_this_thread_and_what_it_starts() {
        // On a thread of its own: the restriction must not leak into the
        // other tests, which share this process.
        std::thread::spawn(|| {
            let cpu = *allowed_cpus().expect("own status").last().expect("non-empty");
            pin_to_cpu(cpu).expect("an allowed CPU can be pinned to");
            assert_eq!(allowed_cpus().expect("own status"), [cpu]);
            let child = std::thread::spawn(allowed_cpus).join().expect("child");
            assert_eq!(child.expect("child status"), [cpu]);
            assert!(pin_to_cpu(MAX_CPUS).is_err());
        })
        .join()
        .expect("pinned thread");
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let plain = "4242 (sirep-cluster) S 1 4242 4242 0 -1 4194304 1507 0 0 0 \
                     731 269 0 0 20 0 9 0 1234567 12345678 2345 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(731 + 269));
        let hostile = "7 (a b) c) 1 2) R 1 7 7 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(parse_stat_cpu_ticks(hostile), Some(11));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_parser_reads_rss_threads_and_switches() {
        let text = "Name:\tsirep-cluster\nState:\tS (sleeping)\nVmPeak:\t  999 kB\n\
                    VmRSS:\t    5120 kB\nThreads:\t9\n\
                    voluntary_ctxt_switches:\t1200\nnonvoluntary_ctxt_switches:\t34\n";
        assert_eq!(parse_status(text), Status { rss_bytes: 5120 * 1024, threads: 9, ctxsw: 1234 });
        // Kernel threads and zombies have no VmRSS line.
        assert_eq!(parse_status("Name:\tx\nThreads:\t1\n").rss_bytes, 0);
    }

    #[test]
    fn samples_this_process() {
        let s = sample(std::process::id(), clk_tck()).expect("own /proc entry");
        assert!(s.threads >= 1 && s.rss_bytes > 0);
    }
}
