//! Pure measurement helpers: percentiles, quartile spreads, the
//! amplification ratios, and the kernel counters read from `/proc`.

use std::path::Path;

/// Tail percentiles the rule may pick, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// The percentile rule: the highest percentile that leaves at least ten
/// samples beyond it, or `None` (report the median alone) under forty
/// samples, where no percentile is a tail.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < 40 {
        return None;
    }
    TAILS.iter().copied().find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Sub-buckets per power of two: a recorded value is kept to within
/// 1/128 (0.8%) of itself, in memory that does not grow with the run.
const SUB: u64 = 128;
const BUCKETS: usize = (SUB + (64 - 7) * SUB) as usize;

/// A log-linear latency histogram (nanoseconds): exact below 128 ns, then
/// 128 buckets per power of two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; BUCKETS], n: 0 }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = u64::from(63 - v.leading_zeros()); // 7..=63
        let m = (v >> (e - 7)) - SUB;
        (SUB + (e - 7) * SUB + m) as usize
    }

    /// The smallest value that falls in bucket `i`.
    fn lower(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            return i;
        }
        let (e, m) = ((i - SUB) / SUB + 7, (i - SUB) % SUB);
        (SUB + m) << (e - 7)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank percentile `p` (0..=100), as its bucket's lower bound.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(self.n > 0, "percentile of no samples");
        let rank = ((p / 100.0) * self.n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower(i) as f64;
            }
        }
        unreachable!("rank {rank} is within {} samples", self.n)
    }
}

/// Median of a sample of floats (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method, which is what
/// Python's `statistics.quantiles(values, n=4)` computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The same integer arithmetic as CPython's implementation.
    let ld = v.len() as i64;
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Quartile distance as a share of the median (0 for a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// `num / den` for ratios whose denominator may be zero (then 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Space amplification: on-disk bytes over live user key+value bytes.
pub fn space_amp(disk_bytes: u64, live_user_bytes: u64) -> f64 {
    ratio(disk_bytes as f64, live_user_bytes as f64)
}

/// Write amplification: bytes the process passed to `write`-family calls
/// over user bytes written. Socket traffic is not among them: the standard
/// library sends on TCP streams with `send(2)`, which the kernel's `wchar`
/// counter does not count.
pub fn write_amp(process_wchar: u64, user_bytes_written: u64) -> f64 {
    ratio(process_wchar as f64, user_bytes_written as f64)
}

/// Bytes passed to `write`-family syscalls by this process so far (all
/// threads, exited ones included), as the kernel counts them.
pub fn process_wchar() -> u64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0)
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_field(path: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Per-operation latency summary.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    pub samples: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    /// The rule's tail percentile and its value, when there is one.
    pub tail: Option<(f64, f64)>,
}

/// Summarize nanosecond latencies. `p99_us` falls back to the rule's tail
/// (or the median) when there are too few samples for a 99th percentile.
pub fn summarize(lat: &Histogram) -> LatencySummary {
    let n = lat.len() as usize;
    let p50 = lat.percentile(50.0) / 1e3;
    let tail = tail_percentile(n).map(|p| (p, lat.percentile(p) / 1e3));
    let p99 = match tail {
        Some((p, _)) if p >= 99.0 => lat.percentile(99.0) / 1e3,
        Some((_, v)) => v,
        None => p50,
    };
    LatencySummary { samples: n, p50_us: p50, p99_us: p99, tail }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_beyond_and_forty_samples() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(5_000_000), Some(99.9));
    }

    fn hist(values: impl IntoIterator<Item = u64>) -> Histogram {
        let mut h = Histogram::default();
        values.into_iter().for_each(|v| h.record(v));
        h
    }

    #[test]
    fn histogram_is_exact_below_128_and_within_one_128th_above() {
        let h = hist(0..128);
        assert_eq!(h.percentile(50.0), 63.0);
        assert_eq!(h.percentile(100.0), 127.0);
        for v in [128, 1000, 4095, 4096, 123_456, 9_876_543_210, u64::MAX] {
            let got = hist([v]).percentile(50.0);
            assert!(got <= v as f64 && got >= v as f64 * (1.0 - 1.0 / 128.0), "{v} -> {got}");
        }
        let mut a = hist([5, 6]);
        a.merge(&hist([7]));
        assert_eq!((a.len(), a.percentile(100.0)), (3, 7.0));
    }

    #[test]
    fn summary_uses_p99_only_with_enough_samples() {
        let near = |got: f64, want: f64| (got - want).abs() <= want / 128.0;
        let s = summarize(&hist((1..=30).map(|i| i * 100)));
        assert_eq!(s.tail, None);
        assert_eq!(s.p99_us, s.p50_us, "median alone under forty samples");
        let s = summarize(&hist((1..=1000).rev().map(|i| i * 100)));
        assert!(near(s.p50_us, 50.0) && near(s.p99_us, 99.0), "{s:?}");
        assert_eq!(s.tail.map(|t| t.0), Some(99.0));
        let s = summarize(&hist((1..=200).map(|i| i * 100)));
        assert!(near(s.p99_us, 18.0), "p90 stands in when p99 has no tail: {s:?}");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn amplification_ratios_on_hand_made_inputs() {
        assert_eq!(space_amp(1500, 1000), 1.5);
        assert_eq!(space_amp(10, 0), 0.0);
        assert_eq!(write_amp(5000, 2000), 2.5);
        assert_eq!(write_amp(5000, 0), 0.0);
        assert_eq!(ratio(30.0, 10.0), 3.0);
        assert_eq!(ratio(30.0, 0.0), 0.0);
    }

    #[test]
    fn dir_bytes_sums_nested_files() {
        let d = std::env::temp_dir().join(format!("perfbench-dirbytes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(d.join("sub")).unwrap();
        std::fs::write(d.join("a"), [0u8; 100]).unwrap();
        std::fs::write(d.join("sub/b"), [0u8; 23]).unwrap();
        assert_eq!(dir_bytes(&d), 123);
        std::fs::remove_dir_all(&d).unwrap();
    }
}
