//! Order statistics over timing samples, and the run's failure tally.

/// The median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The tail of `v`: the highest percentile that still has at least ten
/// samples beyond it, as `(value, percentile, samples)`. With fewer than
/// eleven samples no such percentile exists and the maximum is returned
/// at percentile 100.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    if v.is_empty() {
        return (0.0, 0.0, 0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 11 {
        return (s[n - 1], 100.0, n);
    }
    let i = n - 11;
    (s[i], 100.0 * (i + 1) as f64 / n as f64, n)
}

/// Operations attempted and failed. Every check the benchmark makes runs
/// outside the timed windows and lands here; a failed operation is any
/// error return, degraded report, timeout, count or id mismatch, LCL
/// violation, or payload whose bytes differ from the reference.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation; `Err` carries why it failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("vcbench: FAILED: {msg}");
            }
        }
    }
}

/// `Ok` when `got == want`, else a mismatch message naming `what`.
pub fn same<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!((value, pct, n), (90.0, 90.0, 100));
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0, 2));
    }
}
