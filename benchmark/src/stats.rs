//! Order statistics over small sample sets.

/// Sort a sample set in place (NaN-free by construction: every sample
/// is a measured duration, count or ratio of positive numbers).
fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// The `q`-quantile (0 ≤ q ≤ 1) with linear interpolation between the
/// two nearest ranks; 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    sort(&mut v);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The smallest sample: the best-of-k estimator every host-time number
/// uses (README.md, "Estimator"); 0 for an empty set.
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The largest sample (a peak over slices); 0 for an empty set.
pub fn worst(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// The arithmetic mean; 0 for an empty set.
pub fn mean(samples: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for x in samples {
        sum += x;
        n += 1;
    }
    sum / n.max(1) as f64
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// First, second and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method), so `compare` judges a spread exactly as the acceptance
/// driver does. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let m = samples.len();
    if m < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    sort(&mut v);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the spread figure the
/// bounds in `BENCHMARK.json` are held against.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.95), 4.8);
    }
}
