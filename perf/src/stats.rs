//! Order statistics and the paired comparison rule.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default `exclusive` method), so a spread computed here matches one
//! computed from the same numbers in Python.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Result<Better, String> {
        match s {
            "lower" => Ok(Better::Lower),
            "higher" => Ok(Better::Higher),
            other => Err(format!("bad \"better\" value {other:?}")),
        }
    }

    /// Whether `a` is strictly better than `b`.
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, as `statistics.quantiles(xs, n=4)` gives
/// them.  One sample is its own quartiles.  Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; `None` below eleven samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 11 {
        return None;
    }
    let k = n - 11;
    Some((100.0 * (k + 1) as f64 / n as f64, v[k]))
}

/// Pairs in which `change` beats `base` (ties count for neither side),
/// out of the pairs formed by index.
pub fn pair_wins(base: &[f64], change: &[f64], better: Better) -> (usize, usize) {
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|(b, c)| better.beats(**c, **b))
        .count();
    (wins, pairs)
}

/// The outcome of comparing one (metric, workload) between two runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare paired samples of one metric.
///
/// * **improved** — the change wins at least nine tenths of the pairs and
///   its median beats the base median by more than the base's
///   interquartile distance;
/// * **regressed** — the change's median is worse than the base median by
///   more than `bound` (a share of the base median);
/// * **unresolved** — neither, and the base's own spread is wider than
///   `bound`, unless every change sample beats every base sample;
/// * **unchanged** — otherwise.
pub fn verdict(base: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (mb, mc) = (median(base), median(change));
    let (q1, q3) = quartiles(base);
    let (wins, pairs) = pair_wins(base, change, better);
    if pairs > 0 && wins * 10 >= pairs * 9 && better.beats(mc, mb) && (mc - mb).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    let worse_by = match better {
        Better::Lower => mc - mb,
        Better::Higher => mb - mc,
    };
    if worse_by > bound * mb.abs() {
        return Verdict::Regressed;
    }
    let all_better = change
        .iter()
        .all(|c| base.iter().all(|b| better.beats(*c, *b)));
    if spread(base) > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_order_free() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((100.0 / 11.0, 1.0)));
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (p, v) = tail(&xs).unwrap();
        assert_eq!(v, 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((p - 99.0).abs() < 1e-9);
    }

    #[test]
    fn pair_rule_counts_wins_and_ignores_ties() {
        let base = [10.0, 10.0, 10.0, 10.0];
        let change = [9.0, 10.0, 11.0, 8.0];
        assert_eq!(pair_wins(&base, &change, Better::Lower), (2, 4));
        assert_eq!(pair_wins(&base, &change, Better::Higher), (1, 4));
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        // Every pair won and the medians differ by far more than the IQR.
        let faster: Vec<f64> = base.iter().map(|b| b - 20.0).collect();
        assert_eq!(
            verdict(&base, &faster, Better::Lower, 0.1),
            Verdict::Improved
        );
        // 30% worse with a 10% bound.
        let slower: Vec<f64> = base.iter().map(|b| b * 1.3).collect();
        assert_eq!(
            verdict(&base, &slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &slower, Better::Higher, 0.1),
            Verdict::Improved
        );
        // Same numbers: unchanged.
        assert_eq!(
            verdict(&base, &base, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // Eight wins in ten is not enough to claim a gain.
        let mut mixed = faster.clone();
        mixed[0] = base[0] + 1.0;
        mixed[1] = base[1] + 1.0;
        assert_ne!(
            verdict(&base, &mixed, Better::Lower, 0.5),
            Verdict::Improved
        );
        // A base wider than the bound leaves small moves unresolved.
        let noisy: Vec<f64> = (0..10).map(|i| 50.0 + 10.0 * i as f64).collect();
        let nudged: Vec<f64> = noisy.iter().map(|b| b + 1.0).collect();
        assert_eq!(
            verdict(&noisy, &nudged, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
