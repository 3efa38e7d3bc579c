//! Order statistics for latency samples.

/// Median of `samples` (mean of the two middle values for an even
/// count). `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The `pct`-th percentile of `samples` by the nearest-rank rule, but
/// only when at least ten samples lie beyond it, i.e. when
/// `n * (100 - pct) >= 1000`: p90 needs 100 samples, p99 needs 1000.
/// Returns the number of samples the percentile still lacks otherwise.
pub fn tail_percentile(samples: &[f64], pct: usize) -> Result<f64, usize> {
    assert!((1..100).contains(&pct), "percentile must be in 1..100");
    let n = samples.len();
    let needed = 1000usize.div_ceil(100 - pct);
    if n < needed {
        return Err(needed - n);
    }
    let s = sorted(samples);
    let rank = (pct * n).div_ceil(100);
    Ok(s[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_refuses_fewer_than_100_samples() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 90), Err(1));
        assert_eq!(tail_percentile(&[], 90), Err(100));
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // Nearest rank: the 90th of 100 sorted values, with ten above it.
        assert_eq!(tail_percentile(&samples, 90), Ok(90.0));
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 90), Ok(900.0));
        assert_eq!(tail_percentile(&samples, 99), Ok(990.0));
        assert_eq!(tail_percentile(&samples[..999], 99), Err(1));
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
