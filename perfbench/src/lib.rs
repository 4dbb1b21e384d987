//! Outside-in benchmark for the MEMQSIM workspace: time to answer against
//! the dense simulator on three 20-qubit workloads, plus a traced run that
//! splits the time over the system's layers. See `perfbench/README.md`.

pub mod layers;
pub mod trace;
pub mod workload;

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::{mean, median};

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mean_of_values_and_empty() {
        assert_eq!(mean(&[3.0, 1.5, 1.5]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
