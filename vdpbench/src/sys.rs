//! Process context read from `/proc`, plus the order statistics every
//! workload reports.

use std::fs;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/*/stat` CPU times. Linux fixes
/// `USER_HZ` at 100 for the user-space ABI on every architecture this
/// benchmark runs on.
const USER_HZ: u64 = 100;

/// Hardware threads the scheduler offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set (`VmHWM`) in MB, or 0 when `/proc` is unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// User + system CPU time from a `/proc/.../stat` file, in nanoseconds.
fn stat_cpu_ns(path: &str) -> u64 {
    let stat = fs::read_to_string(path).unwrap_or_default();
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis are space-separated, utime and stime being the 12th and
    // 13th of them (fields 14 and 15 of the whole line).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * (1_000_000_000 / USER_HZ)
}

/// CPU time consumed so far by the whole process (every thread).
pub fn process_cpu_ns() -> u64 {
    stat_cpu_ns("/proc/self/stat")
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    stat_cpu_ns("/proc/thread-self/stat")
}

/// Value at quantile `q` (nearest rank) of an unsorted sample; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of the middle half of an unsorted sample (the interquartile mean);
/// 0 when empty. Unlike the median it moves smoothly when the sample's
/// distribution climbs steeply through its middle.
pub fn middle_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    middle.iter().sum::<f64>() / middle.len().max(1) as f64
}

/// The highest percentile that leaves at least ten samples above it, and
/// the value there: `(percentile, value)`. `None` below forty samples,
/// where such a percentile would be no tail.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 40 {
        return None;
    }
    let q = 1.0 - 10.0 / values.len() as f64;
    Some((q * 100.0, quantile(values, q)))
}

/// Time two fixed pieces of work that never touch the program, in ms: a
/// dependent walk through a 16 MB single-cycle permutation (memory-bound)
/// and an integer hash loop (compute-bound). Printed before and after every
/// run: on a shared machine they show how fast the machine itself ran
/// while the run was measured.
pub fn machine_probe() -> (f64, f64) {
    const SLOTS: usize = 1 << 22;
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    // Sattolo's shuffle: the permutation is one cycle through every slot.
    for i in (1..SLOTS).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let t0 = Instant::now();
    let mut at = 0u32;
    for _ in 0..SLOTS / 8 {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    let mem = ms(t0.elapsed());
    let t1 = Instant::now();
    let mut h = 0u64;
    for i in 0..20_000_000u64 {
        h = std::hint::black_box((h ^ i).wrapping_mul(0x0100_0000_01b3).rotate_left(5));
    }
    (mem, ms(t1.elapsed()))
}

/// A duration in fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in fractional microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn middle_mean_drops_both_outer_quarters() {
        assert_eq!(middle_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]), 3.5);
        assert_eq!(middle_mean(&[7.0]), 7.0);
        assert_eq!(middle_mean(&[]), 0.0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        let (pct, val) = tail(&v).expect("100 samples carry a tail");
        assert!((pct - 90.0).abs() < 1e-9);
        assert_eq!(val, 90.0);
        assert!(tail(&v[..39]).is_none());
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_ns() >= thread_cpu_ns());
    }
}
