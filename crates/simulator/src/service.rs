//! Service-time distributions beyond the exponential.
//!
//! The analytic model assumes exponential service (M/M/1). Real request
//! work is often burstier (heavy-tailed) or steadier (near-deterministic);
//! these distributions let the robustness experiments measure how far the
//! closed forms drift when the M/M/1 assumption is violated.

use serde::{Deserialize, Serialize};

/// Distribution of one request's service requirement (mean fixed by the
/// queue; the distribution sets the shape).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ServiceDistribution {
    /// Exponential — the analytic model's assumption (CV² = 1).
    #[default]
    Exponential,
    /// Two-phase balanced hyperexponential with squared coefficient of
    /// variation `cv2 > 1` — bursty service.
    HyperExponential {
        /// Squared coefficient of variation (`> 1`).
        cv2: f64,
    },
    /// Deterministic service (CV² = 0) — the M/D/1 regime.
    Deterministic,
}

impl ServiceDistribution {
    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if a hyperexponential `cv2` is not `> 1` and finite.
    pub fn validate(&self) {
        if let Self::HyperExponential { cv2 } = self {
            assert!(cv2.is_finite() && *cv2 > 1.0, "hyperexponential needs cv2 > 1, got {cv2}");
        }
    }

    /// Squared coefficient of variation of the distribution.
    pub fn cv2(&self) -> f64 {
        match self {
            Self::Exponential => 1.0,
            Self::HyperExponential { cv2 } => *cv2,
            Self::Deterministic => 0.0,
        }
    }

    /// Draws a sample with the given `mean` from two uniforms in `(0, 1]`
    /// (`u_choice` selects the phase, `u_value` the magnitude).
    ///
    /// # Panics
    ///
    /// Panics if the uniforms are out of `(0, 1]` or `mean <= 0`.
    pub fn sample(&self, u_choice: f64, u_value: f64, mean: f64) -> f64 {
        assert!(u_choice > 0.0 && u_choice <= 1.0, "u_choice must lie in (0,1]");
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive, got {mean}");
        match self {
            Self::Exponential => crate::sampling::exponential(u_value, 1.0 / mean),
            Self::HyperExponential { cv2 } => {
                // Balanced-means H2: phase probability
                // p = (1 + √((cv²−1)/(cv²+1)))/2, rates μ_i = 2p_i/mean,
                // giving mean `mean` and the requested cv².
                let p = 0.5 * (1.0 + ((cv2 - 1.0) / (cv2 + 1.0)).sqrt());
                let (prob, rate) = if u_choice <= p {
                    (p, 2.0 * p / mean)
                } else {
                    (1.0 - p, 2.0 * (1.0 - p) / mean)
                };
                debug_assert!(prob > 0.0);
                crate::sampling::exponential(u_value, rate)
            }
            Self::Deterministic => mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_moments(dist: ServiceDistribution, mean: f64) -> (f64, f64) {
        // Deterministic low-discrepancy grid over both uniforms.
        let n = 400;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for i in 1..=n {
            for j in 1..=n {
                let x = dist.sample(i as f64 / n as f64, j as f64 / n as f64, mean);
                sum += x;
                sum_sq += x * x;
            }
        }
        let count = (n * n) as f64;
        let m = sum / count;
        (m, sum_sq / count - m * m)
    }

    #[test]
    fn exponential_has_unit_cv2() {
        let (m, v) = empirical_moments(ServiceDistribution::Exponential, 2.0);
        assert!((m - 2.0).abs() / 2.0 < 0.02, "mean {m}");
        assert!((v / (m * m) - 1.0).abs() < 0.05, "cv2 {}", v / (m * m));
    }

    #[test]
    fn hyperexponential_matches_requested_cv2() {
        let dist = ServiceDistribution::HyperExponential { cv2: 4.0 };
        dist.validate();
        let (m, v) = empirical_moments(dist, 1.5);
        assert!((m - 1.5).abs() / 1.5 < 0.02, "mean {m}");
        assert!((v / (m * m) - 4.0).abs() < 0.3, "cv2 {}", v / (m * m));
    }

    #[test]
    fn deterministic_is_exact() {
        let dist = ServiceDistribution::Deterministic;
        assert_eq!(dist.sample(0.3, 0.9, 1.25), 1.25);
        assert_eq!(dist.cv2(), 0.0);
    }

    #[test]
    #[should_panic(expected = "cv2 > 1")]
    fn hyperexponential_rejects_low_cv2() {
        ServiceDistribution::HyperExponential { cv2: 1.0 }.validate();
    }

    #[test]
    fn cv2_accessor_matches_variants() {
        assert_eq!(ServiceDistribution::Exponential.cv2(), 1.0);
        assert_eq!(ServiceDistribution::HyperExponential { cv2: 9.0 }.cv2(), 9.0);
    }
}
