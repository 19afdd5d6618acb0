//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule, regression verdicts, and `/proc/self/status` parsing.

/// Median of `v` (mean of the middle pair for an even count); `None` when
/// empty.
pub fn median(v: &[f64]) -> Option<f64> {
    quartiles(v).map(|(_, m, _)| m)
}

/// `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method, which
/// extrapolates for very few samples), so the spreads printed here match
/// the ones an outside checker computes. A single sample is its own
/// quartiles; `None` when empty.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64, f64)> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        1 => Some((s[0], s[0], s[0])),
        _ => {
            let q = |i: usize| {
                let m = (n + 1) * i;
                let j = (m / 4).clamp(1, n - 1);
                let delta = (m as f64 - (j * 4) as f64) / 4.0;
                s[j - 1] + (s[j] - s[j - 1]) * delta
            };
            Some((q(1), q(2), q(3)))
        }
    }
}

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// The tail percentiles tried, highest first, in tenths of a percent.
const TAIL_PERMILLE: [usize; 4] = [999, 990, 950, 900];

/// The highest of [`TAIL_PERMILLE`] that leaves at least [`TAIL_BEYOND`]
/// of the samples beyond it, with its nearest-rank value over `v`:
/// `(percentile, value)`. `None` when no percentile qualifies (fewer than
/// 100 samples).
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    TAIL_PERMILLE.iter().find_map(|&pm| {
        let rank = (pm * n).div_ceil(1000);
        (rank >= 1 && n - rank >= TAIL_BEYOND).then(|| (pm as f64 / 10.0, s[rank - 1]))
    })
}

/// Peak resident set size in bytes from the text of `/proc/<pid>/status`
/// (its `VmHWM:` line, which the kernel writes in kB).
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb * 1024)
}

/// This process's peak resident set size in bytes.
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Absolute worsening below which a `setup_s` change never counts as a
/// regression: set-up is tens of milliseconds, where scheduler noise alone
/// moves a few milliseconds.
pub const SETUP_FLOOR_S: f64 = 0.005;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

/// Outcome of comparing a change's median against the parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse than the parent by more than the bound.
    Regression,
    /// The parent's own quartile spread is wider than the bound, so the
    /// runs cannot tell a change of that size from noise.
    Unresolved,
}

/// How much worse `change` is than `parent`, as a share of `parent`
/// (negative when better).
fn worsening(parent: f64, change: f64, better: Better) -> f64 {
    let d = match better {
        Better::Lower => change - parent,
        Better::Higher => parent - change,
    };
    if parent == 0.0 {
        if d > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        d / parent.abs()
    }
}

/// Apply a metric's bound: `parent_spread` is the parent's interquartile
/// distance over its median; `floor` is an absolute worsening that never
/// counts (used for `setup_s`).
pub fn verdict(
    parent: f64,
    change: f64,
    parent_spread: f64,
    better: Better,
    bound: f64,
    floor: f64,
) -> Verdict {
    if parent_spread > bound {
        return Verdict::Unresolved;
    }
    let worse = worsening(parent, change, better);
    if worse > bound && (parent - change).abs() > floor {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0]), Some(3.0));
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 3000 samples: p99.9 leaves only 3 beyond, p99 leaves 30
        assert_eq!(tail(&v(3000)), Some((99.0, 2970.0)));
        // 10000 samples: p99.9 leaves exactly 10 beyond
        assert_eq!(tail(&v(10_000)), Some((99.9, 9990.0)));
        // 1000 samples: p99 leaves exactly 10 beyond
        assert_eq!(tail(&v(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 leaves 9, so p95 it is
        assert_eq!(tail(&v(999)), Some((95.0, 950.0)));
        // 100 samples: p90 leaves exactly 10
        assert_eq!(tail(&v(100)), Some((90.0, 90.0)));
        // too few samples for any tail
        assert_eq!(tail(&v(99)), None);
        assert_eq!(tail(&[]), None);
        // order of the input does not matter
        let mut r = v(1000);
        r.reverse();
        assert_eq!(tail(&r), Some((99.0, 990.0)));
    }

    #[test]
    fn vm_hwm_parsing() {
        let status =
            "Name:\tmetadis-bench\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(20480 * 1024));
        assert_eq!(parse_vm_hwm("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t kB\n"), None);
        // this host's own status file parses
        assert!(peak_rss_bytes().unwrap() > 0);
    }

    #[test]
    fn bounds_apply_in_the_metric_direction() {
        use Better::*;
        // 10% bound on a lower-is-better time
        assert_eq!(verdict(100.0, 109.0, 0.02, Lower, 0.10, 0.0), Verdict::Ok);
        assert_eq!(
            verdict(100.0, 111.0, 0.02, Lower, 0.10, 0.0),
            Verdict::Regression
        );
        assert_eq!(verdict(100.0, 50.0, 0.02, Lower, 0.10, 0.0), Verdict::Ok);
        // higher-is-better throughput
        assert_eq!(verdict(2.0, 1.85, 0.02, Higher, 0.10, 0.0), Verdict::Ok);
        assert_eq!(
            verdict(2.0, 1.75, 0.02, Higher, 0.10, 0.0),
            Verdict::Regression
        );
        assert_eq!(verdict(2.0, 9.0, 0.02, Higher, 0.10, 0.0), Verdict::Ok);
        // a parent noisier than the bound cannot decide
        assert_eq!(
            verdict(100.0, 200.0, 0.30, Lower, 0.10, 0.0),
            Verdict::Unresolved
        );
        assert!((worsening(100.0, 120.0, Lower) - 0.2).abs() < 1e-12);
        assert!((worsening(2.0, 1.5, Higher) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn setup_floor_absorbs_small_absolute_changes() {
        use Better::Lower;
        // +50% of 4 ms is 2 ms: under the 5 ms floor
        assert_eq!(
            verdict(0.004, 0.006, 0.0, Lower, 0.10, SETUP_FLOOR_S),
            Verdict::Ok
        );
        // +50% of 40 ms is 20 ms: over both the bound and the floor
        assert_eq!(
            verdict(0.040, 0.060, 0.0, Lower, 0.10, SETUP_FLOOR_S),
            Verdict::Regression
        );
        // +12% of 40 ms is 4.8 ms: over the bound, under the floor
        assert_eq!(
            verdict(0.040, 0.0448, 0.0, Lower, 0.10, SETUP_FLOOR_S),
            Verdict::Ok
        );
    }
}
