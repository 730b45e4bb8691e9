//! The clock, order statistics, digests and `/proc` readings.

use std::time::Instant;

/// The benchmark's clock: every duration and due time is read here.
pub fn now() -> Instant {
    // lint:allow(wallclock-outside-metrics): wall time is what a benchmark measures; readings are its results and never feed the system under test
    Instant::now()
}

/// Seconds per call of `f`, median over `reps` calls (at least one).
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Median of `values` (mean of the middle pair for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample; 0 for
/// an empty one. Infinite entries (failed requests) sort last.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a, 64 bit, continuing from `state` (start with [`FNV_OFFSET`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a initial state.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on
/// every mainstream architecture.
const USER_HZ: f64 = 100.0;

fn proc_file(pid: Option<u32>, name: &str) -> Option<String> {
    let dir = pid.map_or_else(|| "self".to_string(), |p| p.to_string());
    std::fs::read_to_string(format!("/proc/{dir}/{name}")).ok()
}

/// User plus system CPU seconds consumed so far by process `pid`
/// (`None`: this process), all threads included.
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let stat = proc_file(pid, "stat")?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// A numeric `/proc/<pid>/status` field, e.g. `VmHWM` (kB) or `Threads`.
pub fn status_field(pid: Option<u32>, key: &str) -> Option<u64> {
    let status = proc_file(pid, "status")?;
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Reset this process's peak resident set (VmHWM) to its current
/// resident set, so the next reading covers only what runs after it.
/// Returns false where the kernel does not support it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of `pid` in MB (VmHWM).
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    status_field(pid, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Deterministic 64-bit generator for the benchmark's own choices
/// (arrival times); the query mix reuses the workspace's seeded RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[1.0, f64::INFINITY], 0.99), f64::INFINITY);
    }

    #[test]
    fn proc_readings_of_this_process() {
        assert!(cpu_seconds(None).is_some());
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        assert!(status_field(None, "Threads").unwrap() >= 1);
    }
}
