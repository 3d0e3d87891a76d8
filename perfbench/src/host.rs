//! Host-side measurement: the run header, per-thread CPU and runqueue
//! time from `/proc/self/task/*/schedstat`, and exact order statistics.

use crate::Args;
use std::collections::HashMap;

/// Prints the run header and unsets every `O4A_*` variable so the run
/// measures the program's defaults. Must run before any thread starts.
pub fn print_header(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# commit={} nproc={} isa={}",
        commit(),
        nproc,
        o4a_tensor::isa::active().name()
    );
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("O4A_"))
        .collect();
    vars.sort();
    if vars.is_empty() {
        println!("# O4A_* environment: none set");
    }
    for (k, v) in vars {
        println!("# O4A_* environment: {k}={v} (unset for this run)");
        std::env::remove_var(&k);
    }
}

/// The checked-out commit read from `.git`, or `unknown` outside a git
/// checkout.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Thread groups the CPU accounting distinguishes, by thread-name prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Group {
    /// `o4a-loop-*`: the server's event loops.
    Loop,
    /// `o4a-exec-*`: the server's executors.
    Exec,
    /// `o4a-worker-*`: the compute pool.
    Worker,
    /// Everything else. The benchmark's own client and publisher threads
    /// account themselves with [`thread_sched`].
    Other,
}

fn group_of(comm: &str) -> Group {
    if comm.starts_with("o4a-loop-") {
        Group::Loop
    } else if comm.starts_with("o4a-exec-") {
        Group::Exec
    } else if comm.starts_with("o4a-worker-") {
        Group::Worker
    } else {
        Group::Other
    }
}

/// On-CPU and runqueue-wait nanoseconds of every live thread, by tid.
pub struct Sched(HashMap<u64, (Group, u64, u64)>);

impl Sched {
    /// Reads every thread of this process.
    pub fn now() -> Sched {
        let mut map = HashMap::new();
        if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
                    continue;
                };
                let path = entry.path();
                let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
                let stat = std::fs::read_to_string(path.join("schedstat")).unwrap_or_default();
                let mut f = stat
                    .split_whitespace()
                    .map(|v| v.parse::<u64>().unwrap_or(0));
                let (cpu, wait) = (f.next().unwrap_or(0), f.next().unwrap_or(0));
                map.insert(tid, (group_of(comm.trim()), cpu, wait));
            }
        }
        Sched(map)
    }

    /// `(cpu_ns, wait_ns)` accrued since `before` by the threads in
    /// `groups` (a thread born in between counts from zero).
    pub fn since(&self, before: &Sched, groups: &[Group]) -> (u64, u64) {
        let mut cpu = 0;
        let mut wait = 0;
        for (tid, &(g, c, w)) in &self.0 {
            if groups.contains(&g) {
                let (_, c0, w0) = before.0.get(tid).copied().unwrap_or((g, 0, 0));
                cpu += c.saturating_sub(c0);
                wait += w.saturating_sub(w0);
            }
        }
        (cpu, wait)
    }
}

/// `(cpu_ns, wait_ns)` of the calling thread so far. Threads that exit
/// before a closing [`Sched::now`] account themselves with this.
pub fn thread_sched() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut f = stat
        .split_whitespace()
        .map(|v| v.parse::<u64>().unwrap_or(0));
    (f.next().unwrap_or(0), f.next().unwrap_or(0))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// On-CPU nanoseconds of the calling thread (0 if the clock is
/// unavailable).
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on x86-64 Linux) for the whole call, and clock_gettime
    // writes nothing else.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Every group, for whole-process totals.
pub const ALL: &[Group] = &[Group::Loop, Group::Exec, Group::Worker, Group::Other];

/// The server's threads.
pub const SERVER: &[Group] = &[Group::Loop, Group::Exec, Group::Worker];

/// Logical CPUs of the host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Exact order statistics over every sample.
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn new(mut v: Vec<u64>) -> Samples {
        v.sort_unstable();
        Samples(v)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile, `q` in (0, 1]: the smallest sample with at
    /// least `q` of all samples at or below it.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    /// The highest percentile that still has at least ten samples above
    /// it, with its value; `None` under eleven samples.
    pub fn tail(&self) -> Option<(f64, u64)> {
        let n = self.0.len();
        (n >= 11).then(|| {
            let idx = n - 11;
            (100.0 * (idx + 1) as f64 / n as f64, self.0[idx])
        })
    }
}

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The tensor buffer pool's `(hits, misses)` from the metrics registry.
pub fn pool_counters() -> (u64, u64) {
    let reg = o4a_obs::metrics::global();
    (
        reg.counter(
            "o4a_pool_hits_total",
            "tensor buffer pool takes served from a free list",
        )
        .get(),
        reg.counter(
            "o4a_pool_misses_total",
            "tensor buffer pool takes that fell back to the system allocator",
        )
        .get(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_sample_values() {
        let s = Samples::new((1..=100).rev().collect());
        assert_eq!(s.quantile(0.5), 50);
        assert_eq!(s.quantile(0.9), 90);
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(s.tail(), Some((90.0, 90)));
        assert_eq!(Samples::new(vec![1; 10]).tail(), None);
    }

    #[test]
    fn schedstat_sees_this_thread() {
        let before = Sched::now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let (cpu, _) = Sched::now().since(&before, ALL);
        assert!(cpu > 0, "no CPU time accounted ({x})");
        let t0 = thread_cpu_ns();
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_ns() > t0 && thread_sched().0 > 0);
    }
}
