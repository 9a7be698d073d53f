//! The benchmark's own statistics: medians, tail percentiles and the
//! CPU/memory readings taken from `/proc`.

/// Samples a tail percentile must leave beyond it before it is
/// reported: with fewer, the "tail" is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even
/// count), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The highest percentile no greater than `target` that leaves at
/// least [`MIN_BEYOND`] of `n` samples strictly above its rank, or
/// `None` when `n` is too small for any.
pub fn tail_percentile(n: usize, target: f64) -> Option<f64> {
    if n <= MIN_BEYOND {
        return None;
    }
    // Nearest rank k = ceil(p n / 100) leaves n - k samples beyond;
    // percentiles are reported on a 0.01 grid.
    let bound = 100.0 * (n - MIN_BEYOND) as f64 / n as f64;
    let mut p = (target.min(bound) * 100.0).floor() / 100.0;
    while nearest_rank(n, p) > n - MIN_BEYOND {
        p = ((p - 0.01) * 100.0).round() / 100.0;
    }
    Some(p)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Value at percentile `p` (nearest rank) of `sorted`.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// A latency distribution as reported: median plus the highest
/// percentile (≤ p99) that has [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Samples in the distribution.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile actually used.
    pub pct: f64,
    /// Value at `pct`.
    pub tail: f64,
}

impl Tail {
    /// Summarises `values`; `None` when there are too few samples for
    /// a tail percentile.
    pub fn of(values: &[f64]) -> Option<Tail> {
        let pct = tail_percentile(values.len(), 99.0)?;
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Tail {
            n: sorted.len(),
            p50: median(&sorted)?,
            pct,
            tail: percentile_of_sorted(&sorted, pct),
        })
    }

    /// JSON stamp naming the percentile used and the sample count.
    pub fn stamp(&self) -> String {
        format!(
            "{{\"n\":{},\"p50\":{},\"pct\":{},\"tail\":{}}}",
            self.n,
            num(self.p50),
            num(self.pct),
            num(self.tail)
        )
    }
}

/// Renders a finite number for JSON (`null` otherwise).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// CPU seconds (user + system) of process `pid` (`"self"` for this
/// one), all threads, from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: &str) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = text.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_SECOND
}

/// `sysconf(_SC_CLK_TCK)`, fixed at 100 by the Linux user ABI.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(5000, 99.0), Some(99.0));
        // 500 samples: p98 leaves exactly 10 beyond, p99 only 5.
        assert_eq!(tail_percentile(500, 99.0), Some(98.0));
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        assert_eq!(tail_percentile(10, 99.0), None);
        for n in 11..3000 {
            let p = tail_percentile(n, 99.0).unwrap();
            let beyond = n - nearest_rank(n, p);
            assert!(beyond >= MIN_BEYOND, "n={n} p={p} beyond={beyond}");
            // The highest such percentile, to the reported 0.01 grid.
            let bound = 100.0 * (n - MIN_BEYOND) as f64 / n as f64;
            assert!(p >= bound.min(99.0) - 0.02, "n={n} p={p}");
        }
    }

    #[test]
    fn tail_reports_value_percentile_and_count() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let tail = Tail::of(&values).unwrap();
        assert_eq!(tail.n, 200);
        assert_eq!(tail.pct, 95.0);
        assert_eq!(tail.tail, 190.0);
        assert_eq!(tail.p50, 100.5);
        assert!(tail.stamp().contains("\"pct\":95"));
        assert!(Tail::of(&values[..10]).is_none());
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn an_infinite_latency_sorts_beyond_every_finite_one() {
        let mut values: Vec<f64> = (0..99).map(f64::from).collect();
        values.extend([f64::INFINITY; 12]);
        let tail = Tail::of(&values).unwrap();
        assert!(tail.tail.is_infinite());
    }
}
