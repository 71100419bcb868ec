//! Order statistics over latency samples.

/// The fewest samples a p99 is reported from: nearest-rank p99 over
/// 1000 samples leaves ten beyond it.
pub const MIN_P99_SAMPLES: usize = 1000;

/// Nearest-rank percentile (`0 < p <= 100`): the smallest sample with at
/// least `p`% of all samples at or below it. `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank p99, refused below [`MIN_P99_SAMPLES`] samples.
pub fn p99(values: &[f64]) -> Result<f64, String> {
    if values.len() < MIN_P99_SAMPLES {
        return Err(format!(
            "p99 needs at least {MIN_P99_SAMPLES} samples, got {}",
            values.len()
        ));
    }
    percentile(values, 99.0).ok_or_else(|| "p99 of no samples".to_string())
}

/// The median as the middle value, or the mean of the two middle values
/// of an even count (how runs and sets are summarised). `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_reads_the_sorted_ranks() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // an odd count: p50 is the middle sample, not an interpolation
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.0));
    }

    #[test]
    fn p99_refuses_a_thin_tail() {
        let thin: Vec<f64> = (0..MIN_P99_SAMPLES - 1).map(|i| i as f64).collect();
        assert!(p99(&thin).unwrap_err().contains("at least 1000"));
        let enough: Vec<f64> = (1..=MIN_P99_SAMPLES).map(|i| i as f64).collect();
        // rank 990 of 1000: ten samples lie beyond it
        assert_eq!(p99(&enough), Ok(990.0));
    }

    #[test]
    fn median_and_mean_summarise() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
