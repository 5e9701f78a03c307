//! Order statistics with the benchmark's tail rule.

/// A percentile read from a sample set, with the facts needed to judge it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile actually reported (e.g. 99, or lower for small n).
    pub pct: u32,
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
}

/// Nearest-rank position (1-based) of percentile `pct` among `n` samples.
fn rank(pct: u32, n: usize) -> usize {
    (pct as usize * n).div_ceil(100).max(1)
}

/// The nearest-rank `pct` percentile, or `None` for an empty set.
pub fn percentile(samples: &mut [f64], pct: u32) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    Some(Quantile {
        pct,
        value: samples[rank(pct, n) - 1],
        n,
    })
}

/// The highest percentile, at most 99, that keeps at least ten samples
/// strictly beyond its rank — the tail the sample count can support.
/// `None` when fewer than 11 samples exist (no percentile qualifies).
pub fn tail(samples: &mut [f64]) -> Option<Quantile> {
    let n = samples.len();
    let pct = (1..=99u32).rev().find(|&p| n >= rank(p, n) + 10)?;
    percentile(samples, pct)
}

pub fn median(samples: &mut [f64]) -> Option<f64> {
    percentile(samples, 50).map(|q| q.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 has rank 990, exactly 10 beyond it.
        let q = tail(&mut ramp(1000)).unwrap();
        assert_eq!((q.pct, q.value, q.n), (99, 990.0, 1000));
        // 999 samples: p99 has rank 990 and only 9 beyond, so p98 (rank
        // 980, 19 beyond) is the highest that qualifies.
        let q = tail(&mut ramp(999)).unwrap();
        assert_eq!((q.pct, q.value, q.n), (98, 980.0, 999));
        // 100 samples: p90 has rank 90, 10 beyond.
        let q = tail(&mut ramp(100)).unwrap();
        assert_eq!((q.pct, q.value, q.n), (90, 90.0, 100));
        // Large sets are capped at p99.
        assert_eq!(tail(&mut ramp(100_000)).unwrap().pct, 99);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert!(tail(&mut ramp(10)).is_none());
        let q = tail(&mut ramp(11)).unwrap();
        // p9 has rank 1 with 10 beyond; p10 has rank 2.
        assert_eq!((q.pct, q.value), (9, 1.0));
        assert!(tail(&mut []).is_none());
    }

    #[test]
    fn every_qualifying_tail_has_ten_beyond() {
        for n in 11..2_000 {
            let q = tail(&mut ramp(n)).unwrap();
            let beyond = n - q.value as usize;
            assert!(beyond >= 10, "n={n} p{} leaves {beyond}", q.pct);
            if q.pct < 99 {
                assert!(
                    n < rank(q.pct + 1, n) + 10,
                    "n={n}: p{} qualifies",
                    q.pct + 1
                );
            }
        }
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut []), None);
    }
}
