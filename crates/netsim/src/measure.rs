//! Active link measurement via linear regression (Wu & Rao \[14\]).
//!
//! §1/§2.2 of the paper: "the bandwidth of a network transport path can be
//! measured using active traffic measurement technique based on a linear
//! regression model". The authors probed real WAN paths; we do not have a
//! WAN, so a seeded simulation stands in for it: [`ProbePlan::run`]
//! *simulates* the probes against a ground-truth [`Link`] with configurable
//! noise, and [`fit_link`] recovers `(b, d)` by ordinary least squares on
//! `t = m·8/1e3/b + d`. The estimator code path is identical to what would
//! run against real measurements.

use crate::units::{BITS_PER_BYTE, BITS_PER_MEGABIT, MS_PER_S};
use crate::{Link, NetworkError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Standard-normal sample via Box–Muller (keeps us inside the `rand`
/// allowlist; `rand_distr` would be an extra dependency for one function).
fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue; // avoid ln(0)
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// One probe observation: message size and measured transfer time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeSample {
    /// Probe message size in bytes.
    pub bytes: f64,
    /// Observed transfer time in milliseconds.
    pub time_ms: f64,
}

/// Result of fitting the linear model `time = bytes/bandwidth + mld`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkEstimate {
    /// Estimated bandwidth in Mbit/s.
    pub bw_mbps: f64,
    /// Estimated minimum link delay in ms.
    pub mld_ms: f64,
    /// Coefficient of determination of the fit (1.0 = perfect).
    pub r_squared: f64,
    /// Number of samples used.
    pub samples: usize,
}

impl LinkEstimate {
    /// Converts the estimate into a [`Link`] for use in mapping.
    ///
    /// Negative intercepts (possible under heavy noise) are clamped to zero
    /// since MLD is physically non-negative.
    pub fn to_link(&self) -> Link {
        Link::new(self.bw_mbps, self.mld_ms.max(0.0))
    }
}

/// A probe schedule: which sizes to send and how many repeats per size,
/// with multiplicative Gaussian noise emulating cross traffic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbePlan {
    /// Probe sizes in bytes (must be non-empty, spanning small → large for a
    /// well-conditioned regression).
    pub sizes: Vec<f64>,
    /// Repeats per size.
    pub repeats: usize,
    /// Standard deviation of the noise as a fraction of the true time
    /// (0.05 = 5% jitter).
    pub noise_frac: f64,
}

impl Default for ProbePlan {
    fn default() -> Self {
        // sizes from one MTU to 1 MB, log-spaced — the [14] daemon's regime
        ProbePlan {
            sizes: vec![1.5e3, 1e4, 5e4, 1e5, 5e5, 1e6],
            repeats: 5,
            noise_frac: 0.02,
        }
    }
}

impl ProbePlan {
    /// Simulates the probes against ground truth `link`, returning samples.
    pub fn run<R: Rng>(&self, link: &Link, rng: &mut R) -> Result<Vec<ProbeSample>> {
        if self.sizes.is_empty() || self.repeats == 0 {
            return Err(NetworkError::Invalid(
                "probe plan needs at least one size and one repeat".into(),
            ));
        }
        if !(self.noise_frac >= 0.0) {
            return Err(NetworkError::Invalid(format!(
                "noise fraction must be non-negative, got {}",
                self.noise_frac
            )));
        }
        let mut out = Vec::with_capacity(self.sizes.len() * self.repeats);
        for &bytes in &self.sizes {
            let truth = link.transfer_time_ms(bytes);
            for _ in 0..self.repeats {
                let noise = if self.noise_frac > 0.0 {
                    self.noise_frac * standard_normal(rng)
                } else {
                    0.0
                };
                // noise is multiplicative and cannot push time below zero
                let t = (truth * (1.0 + noise)).max(0.0);
                out.push(ProbeSample { bytes, time_ms: t });
            }
        }
        Ok(out)
    }
}

/// Ordinary least squares on `time_ms = slope·bytes + intercept`, converted
/// to `(bandwidth, MLD)`.
///
/// Needs at least two distinct sizes; returns an error otherwise, or when
/// the fitted slope is non-positive (noise swamped the signal).
pub fn fit_link(samples: &[ProbeSample]) -> Result<LinkEstimate> {
    let n = samples.len();
    if n < 2 {
        return Err(NetworkError::Invalid(format!(
            "need at least 2 probe samples, got {n}"
        )));
    }
    let nf = n as f64;
    let mean_x = samples.iter().map(|s| s.bytes).sum::<f64>() / nf;
    let mean_y = samples.iter().map(|s| s.time_ms).sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for s in samples {
        let dx = s.bytes - mean_x;
        let dy = s.time_ms - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx <= 0.0 {
        return Err(NetworkError::Invalid(
            "probe sizes are all identical; slope is undefined".into(),
        ));
    }
    let slope = sxy / sxx; // ms per byte
    let intercept = mean_y - slope * mean_x;
    if slope <= 0.0 {
        return Err(NetworkError::Invalid(format!(
            "non-positive fitted slope {slope}; increase probe sizes or repeats"
        )));
    }
    // slope [ms/byte] → bandwidth [Mbit/s]
    let bw_mbps = BITS_PER_BYTE / BITS_PER_MEGABIT / (slope / MS_PER_S);
    let r_squared = if syy > 0.0 {
        (sxy * sxy) / (sxx * syy)
    } else {
        1.0 // all times equal: degenerate but a perfect horizontal fit
    };
    Ok(LinkEstimate {
        bw_mbps,
        mld_ms: intercept,
        r_squared,
        samples: n,
    })
}

/// Convenience: probe a link and fit in one step, as the \[14\] daemon does.
pub fn estimate_link<R: Rng>(link: &Link, plan: &ProbePlan, rng: &mut R) -> Result<LinkEstimate> {
    fit_link(&plan.run(link, rng)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn noiseless_probes_recover_exact_parameters() {
        let link = Link::new(100.0, 2.5);
        let plan = ProbePlan {
            noise_frac: 0.0,
            ..ProbePlan::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let est = estimate_link(&link, &plan, &mut rng).unwrap();
        assert!((est.bw_mbps - 100.0).abs() < 1e-9, "bw {}", est.bw_mbps);
        assert!((est.mld_ms - 2.5).abs() < 1e-9, "mld {}", est.mld_ms);
        assert!((est.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_probes_recover_parameters_approximately() {
        let link = Link::new(622.0, 12.0); // OC-12-like WAN path
        let plan = ProbePlan {
            repeats: 40,
            noise_frac: 0.05,
            ..ProbePlan::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let est = estimate_link(&link, &plan, &mut rng).unwrap();
        assert!(
            (est.bw_mbps - 622.0).abs() / 622.0 < 0.10,
            "bw estimate {} too far from 622",
            est.bw_mbps
        );
        assert!(
            (est.mld_ms - 12.0).abs() < 3.0,
            "mld estimate {} too far from 12",
            est.mld_ms
        );
        assert!(est.r_squared > 0.9);
    }

    #[test]
    fn more_repeats_reduce_estimation_error_on_average() {
        let link = Link::new(100.0, 5.0);
        let err_of = |repeats: usize, seed: u64| {
            let plan = ProbePlan {
                repeats,
                noise_frac: 0.1,
                ..ProbePlan::default()
            };
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let est = estimate_link(&link, &plan, &mut rng).unwrap();
            (est.bw_mbps - 100.0).abs() / 100.0
        };
        let few: f64 = (0..20).map(|s| err_of(3, s)).sum::<f64>() / 20.0;
        let many: f64 = (0..20).map(|s| err_of(60, s)).sum::<f64>() / 20.0;
        assert!(
            many < few,
            "60-repeat error {many} should beat 3-repeat error {few}"
        );
    }

    #[test]
    fn fit_rejects_degenerate_inputs() {
        assert!(fit_link(&[]).is_err());
        assert!(fit_link(&[ProbeSample {
            bytes: 10.0,
            time_ms: 1.0
        }])
        .is_err());
        // identical sizes → undefined slope
        let same = vec![
            ProbeSample {
                bytes: 10.0,
                time_ms: 1.0,
            },
            ProbeSample {
                bytes: 10.0,
                time_ms: 2.0,
            },
        ];
        assert!(fit_link(&same).is_err());
        // decreasing time with size → negative slope
        let bad = vec![
            ProbeSample {
                bytes: 10.0,
                time_ms: 5.0,
            },
            ProbeSample {
                bytes: 1000.0,
                time_ms: 1.0,
            },
        ];
        assert!(fit_link(&bad).is_err());
    }

    #[test]
    fn plan_validation() {
        let link = Link::new(10.0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let empty = ProbePlan {
            sizes: vec![],
            ..ProbePlan::default()
        };
        assert!(empty.run(&link, &mut rng).is_err());
        let zero_rep = ProbePlan {
            repeats: 0,
            ..ProbePlan::default()
        };
        assert!(zero_rep.run(&link, &mut rng).is_err());
        let neg_noise = ProbePlan {
            noise_frac: -0.1,
            ..ProbePlan::default()
        };
        assert!(neg_noise.run(&link, &mut rng).is_err());
    }

    #[test]
    fn estimate_to_link_clamps_negative_mld() {
        let est = LinkEstimate {
            bw_mbps: 10.0,
            mld_ms: -0.3,
            r_squared: 0.8,
            samples: 12,
        };
        assert_eq!(est.to_link().mld_ms, 0.0);
        assert_eq!(est.to_link().bw_mbps, 10.0);
    }

    #[test]
    fn probing_is_deterministic_per_seed() {
        let link = Link::new(155.0, 3.0);
        let plan = ProbePlan::default();
        let a = plan.run(&link, &mut ChaCha8Rng::seed_from_u64(9)).unwrap();
        let b = plan.run(&link, &mut ChaCha8Rng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sample_count_is_sizes_times_repeats() {
        let link = Link::new(10.0, 0.5);
        let plan = ProbePlan {
            sizes: vec![1e3, 1e4, 1e5],
            repeats: 7,
            noise_frac: 0.01,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(plan.run(&link, &mut rng).unwrap().len(), 21);
    }
}
