//! Order statistics for the reported timings.

/// Samples a tail must leave above it: the tail is the highest
/// percentile that still has this many samples beyond it.
pub const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 for no
/// samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of each column of equal-length rows: with one row per pass
/// and one column per cell, each cell's median time over the passes.
/// Rows of another length than the first are skipped.
pub fn column_medians(rows: &[Vec<f64>]) -> Vec<f64> {
    let width = rows.first().map_or(0, Vec::len);
    let rows: Vec<&Vec<f64>> = rows.iter().filter(|r| r.len() == width).collect();
    (0..width)
        .map(|c| median(&rows.iter().map(|r| r[c]).collect::<Vec<f64>>()))
        .collect()
}

/// A tail percentile with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the tail.
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
    /// Whether `TAIL_BEYOND` samples lie above `value`. When there are
    /// too few samples, the tail falls back to the maximum.
    pub resolved: bool,
}

/// The highest order statistic that leaves at least `beyond` samples
/// above it. With `beyond` or fewer samples no such statistic exists
/// and the maximum is returned, marked unresolved (over-reporting is
/// the safe side for a regression signal). `None` for no samples.
pub fn tail(xs: &[f64], beyond: usize) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let (k, resolved) = if n > beyond {
        (n - 1 - beyond, true)
    } else {
        (n - 1, false)
    };
    Some(Tail {
        value: v[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        samples: n,
        resolved,
    })
}

impl Tail {
    /// Human label such as `p99.3 of 1468` or `max of 4`.
    pub fn label(&self) -> String {
        if self.resolved {
            format!("p{:.1} of {}", self.percentile, self.samples)
        } else {
            format!("max of {} (too few for a tail)", self.samples)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn column_medians_take_each_cell_over_the_passes() {
        let rows = vec![
            vec![1.0, 10.0, 5.0],
            vec![3.0, 90.0, 5.0],
            vec![2.0, 20.0, 6.0],
            vec![7.0],
        ];
        // One slow pass of the second cell (90) does not move its median.
        assert_eq!(column_medians(&rows), vec![2.0, 20.0, 5.0]);
        assert!(column_medians(&[]).is_empty());
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 0..100: the highest value with >= 10 samples above it is 89
        // (90..=99 are the ten beyond).
        let xs: Vec<f64> = (0..100).rev().map(f64::from).collect();
        let t = tail(&xs, TAIL_BEYOND).unwrap();
        assert_eq!(t.value, 89.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert!(t.resolved);
        // Moving one step higher would leave only nine beyond.
        assert_eq!(xs.iter().filter(|&&x| x > 90.0).count(), 9);
    }

    #[test]
    fn tail_with_eleven_samples_is_the_minimum() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&xs, TAIL_BEYOND).unwrap();
        assert_eq!(t.value, 1.0);
        assert!(t.resolved);
    }

    #[test]
    fn tail_without_enough_samples_falls_back_to_the_maximum() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let t = tail(&xs, TAIL_BEYOND).unwrap();
        assert_eq!(t.value, 10.0);
        assert!(!t.resolved);
        assert!(t.label().starts_with("max of 10"));
        assert_eq!(tail(&[], TAIL_BEYOND), None);
    }

    #[test]
    fn tail_counts_ties_as_beyond_only_when_strictly_greater() {
        // 20 equal samples: the tail is that value, whatever the rank.
        let xs = vec![5.0; 20];
        assert_eq!(tail(&xs, TAIL_BEYOND).unwrap().value, 5.0);
    }
}
