//! The filter-event prior Pr(φ) = ρ · δ(φ) · α(φ) · λ(φ)
//! (paper Section 4.2.2, Appendices A and B).

use crate::filter::CandidateFilter;
use crate::params::SquidParams;

/// Domain selectivity impact δ(φ) (Appendix A):
/// `δ = 1 / max(1, coverage/η)^γ`.
pub fn domain_impact(coverage: f64, params: &SquidParams) -> f64 {
    if params.gamma == 0.0 || params.eta <= 0.0 {
        return 1.0;
    }
    let ratio = (coverage / params.eta).max(1.0);
    if ratio == 1.0 {
        return 1.0; // low-coverage filters (the common case) skip powf
    }
    if params.gamma == 2.0 {
        return 1.0 / (ratio * ratio); // the default γ, exact without powf
    }
    1.0 / ratio.powf(params.gamma)
}

/// Association strength impact α(φ) (Section 4.2.2): derived filters with
/// θ below τa are insignificant. Basic filters always pass. In normalized
/// mode the share is additionally gated by `min_frac`.
pub fn strength_impact(filter: &CandidateFilter, params: &SquidParams) -> f64 {
    match filter.value.theta() {
        None => 1.0,
        Some(theta) => {
            if theta < params.tau_a {
                return 0.0;
            }
            if let crate::filter::FilterValue::DerivedFrac { frac, .. } = &filter.value {
                if *frac < params.min_frac {
                    return 0.0;
                }
            }
            1.0
        }
    }
}

/// Mean and sample standard deviation `s` of a distribution (n ≥ 2).
fn mean_sd(values: &[f64]) -> (f64, f64) {
    let nf = values.len() as f64;
    let mean = values.iter().sum::<f64>() / nf;
    let var = values.iter().map(|a| (a - mean).powi(2)).sum::<f64>() / (nf - 1.0);
    (mean, var.sqrt())
}

/// Sample skewness of a distribution (Appendix B):
/// `n·Σ(aᵢ−ā)³ / (s³·(n−1)·(n−2))`. `None` when n < 3 or s = 0.
pub fn skewness(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 3 {
        return None;
    }
    let (mean, s) = mean_sd(values);
    if s == 0.0 {
        return Some(0.0);
    }
    let nf = n as f64;
    let m3 = values.iter().map(|a| (a - mean).powi(3)).sum::<f64>();
    Some(nf * m3 / (s.powi(3) * (nf - 1.0) * (nf - 2.0)))
}

/// λ's test for the derived filters of one family (Appendix B), decided
/// once per family: the skewness and the mean/standard-deviation outlier
/// cut-off `(a − ā) > k·s` are the family's, not the filter's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutlierGate {
    /// Every member passes: the outlier test is disabled (τs = N/A in
    /// Figure 26), or the family has under 3 members (skewness undefined).
    All,
    /// No member passes: the family is not skewed beyond τs.
    None,
    /// A member passes iff `strength − mean > cut` (`cut` = k·s).
    Above {
        /// The family's mean strength ā.
        mean: f64,
        /// k·s.
        cut: f64,
    },
}

impl OutlierGate {
    /// Summarise `family`, the strengths of all derived candidates on one
    /// attribute.
    pub fn new(family: &[f64], params: &SquidParams) -> OutlierGate {
        let Some(tau_s) = params.tau_s else {
            return OutlierGate::All;
        };
        if family.len() < 3 {
            return OutlierGate::All;
        }
        if !skewness(family).is_some_and(|sk| sk > tau_s) {
            return OutlierGate::None;
        }
        let (mean, s) = mean_sd(family);
        OutlierGate::Above {
            mean,
            cut: params.outlier_k * s,
        }
    }
}

/// Outlier impact λ(φ) (Appendix B): 1 for basic filters; for derived
/// filters, 1 iff the family's association-strength distribution is skewed
/// beyond τs AND this filter's strength is an outlier in it. `gate` is
/// the test of the filter's family.
pub fn outlier_impact(filter: &CandidateFilter, gate: &OutlierGate) -> f64 {
    let Some(strength) = filter.value.strength() else {
        return 1.0; // basic filter, θ = ⊥
    };
    let passes = match *gate {
        OutlierGate::All => true,
        OutlierGate::None => false,
        OutlierGate::Above { mean, cut } => (strength - mean) > cut,
    };
    if passes {
        1.0
    } else {
        0.0
    }
}

/// Full filter-event prior Pr(φ) = ρ · δ · α · λ, clamped below 1.
pub fn filter_prior(filter: &CandidateFilter, gate: &OutlierGate, params: &SquidParams) -> f64 {
    let p = params.rho
        * domain_impact(filter.coverage, params)
        * strength_impact(filter, params)
        * outlier_impact(filter, gate);
    p.clamp(0.0, 1.0 - 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterValue;
    use squid_relation::Value;

    fn basic(coverage: f64) -> CandidateFilter {
        CandidateFilter {
            prop_id: "p".into(),
            attr_name: "a".into(),
            value: FilterValue::CatEq(Value::text("x")),
            selectivity: 0.5,
            coverage,
        }
    }

    fn derived(theta: u64) -> CandidateFilter {
        CandidateFilter {
            prop_id: "p".into(),
            attr_name: "a".into(),
            value: FilterValue::DerivedEq {
                value: Value::text("x"),
                theta,
            },
            selectivity: 0.1,
            coverage: 0.05,
        }
    }

    #[test]
    fn delta_is_one_below_eta() {
        let params = SquidParams::default(); // η=0.4, γ=2
        assert_eq!(domain_impact(0.1, &params), 1.0);
        assert_eq!(domain_impact(0.4, &params), 1.0);
    }

    #[test]
    fn delta_decreases_above_eta() {
        let params = SquidParams::default();
        let d = domain_impact(0.8, &params); // ratio 2, γ=2 → 1/4
        assert!((d - 0.25).abs() < 1e-12);
        assert!(domain_impact(1.0, &params) < d);
    }

    #[test]
    fn gamma_zero_disables_penalty() {
        let params = SquidParams {
            gamma: 0.0,
            ..SquidParams::default()
        };
        assert_eq!(domain_impact(1.0, &params), 1.0);
    }

    #[test]
    fn alpha_cuts_weak_associations() {
        let params = SquidParams::default(); // τa = 5
        assert_eq!(strength_impact(&derived(4), &params), 0.0);
        assert_eq!(strength_impact(&derived(5), &params), 1.0);
        assert_eq!(strength_impact(&basic(0.1), &params), 1.0);
    }

    #[test]
    fn skewness_of_symmetric_distribution_is_zero() {
        let sk = skewness(&[1.0, 2.0, 3.0]).unwrap();
        assert!(sk.abs() < 1e-12);
        assert!(skewness(&[1.0, 2.0]).is_none());
        assert_eq!(skewness(&[5.0, 5.0, 5.0]), Some(0.0));
    }

    #[test]
    fn skewness_positive_for_heavy_right_tail() {
        // One dominant strength over a flat tail: strongly right-skewed.
        let a = skewness(&[40.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0]).unwrap();
        assert!(a > 2.0, "heavy tail should exceed τs=2: {a}");
        // Figure 8 Case B (12, 10, 10, 9, 9) stays below τs=2 — "no filter
        // is interesting".
        let b = skewness(&[12.0, 10.0, 10.0, 9.0, 9.0]).unwrap();
        assert!(b < 2.0, "flat family must not pass τs: {b}");
    }

    #[test]
    fn outlier_detection() {
        let family = [40.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        assert!(is_outlier(40.0, &family, 2.0));
        assert!(!is_outlier(2.0, &family, 2.0));
        // n < 3: everything is an outlier.
        assert!(is_outlier(1.0, &[1.0, 2.0], 2.0));
    }

    #[test]
    fn lambda_for_basic_filters_is_one() {
        let params = SquidParams::default();
        assert_eq!(
            outlier_impact(&basic(0.1), &OutlierGate::new(&[], &params)),
            1.0
        );
    }

    #[test]
    fn lambda_keeps_outliers_in_skewed_families() {
        let params = SquidParams::default();
        let gate = OutlierGate::new(&[40.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0], &params);
        assert_eq!(outlier_impact(&derived(40), &gate), 1.0);
        assert_eq!(outlier_impact(&derived(2), &gate), 0.0);
    }

    #[test]
    fn lambda_rejects_flat_families() {
        // Figure 8 Case B: nothing stands out → no filter is interesting.
        let params = SquidParams::default();
        let gate = OutlierGate::new(&[12.0, 10.0, 10.0, 9.0, 9.0], &params);
        assert_eq!(outlier_impact(&derived(12), &gate), 0.0);
    }

    #[test]
    fn lambda_disabled_when_tau_s_none() {
        let params = SquidParams {
            tau_s: None,
            ..SquidParams::default()
        };
        let gate = OutlierGate::new(&[12.0, 10.0, 10.0, 9.0, 9.0], &params);
        assert_eq!(outlier_impact(&derived(12), &gate), 1.0);
    }

    #[test]
    fn small_families_pass_lambda() {
        let params = SquidParams::default();
        let gate = OutlierGate::new(&[10.0, 2.0], &params);
        assert_eq!(outlier_impact(&derived(10), &gate), 1.0);
    }

    #[test]
    fn prior_composition() {
        let params = SquidParams::default();
        // Basic filter, low coverage: prior = ρ.
        let none = OutlierGate::new(&[], &params);
        assert!((filter_prior(&basic(0.1), &none, &params) - 0.1).abs() < 1e-9);
        // Weak derived filter: prior = 0.
        let pair = OutlierGate::new(&[2.0, 1.0], &params);
        assert_eq!(filter_prior(&derived(2), &pair, &params), 0.0);
        // Prior never reaches 1.
        let p = SquidParams {
            rho: 5.0,
            ..SquidParams::default()
        };
        assert!(filter_prior(&basic(0.1), &none, &p) < 1.0);
    }

    /// Mean/standard-deviation outlier test (Appendix B): `(a − ā) > k·s`,
    /// recomputed per element. For n < 3 every element is an outlier.
    fn is_outlier(a: f64, values: &[f64], k: f64) -> bool {
        if values.len() < 3 {
            return true;
        }
        let (mean, s) = mean_sd(values);
        (a - mean) > k * s
    }

    /// λ as it was decided per filter, each call recomputing the family's
    /// skewness, mean and s: the oracle for [`OutlierGate`].
    fn per_filter_outlier_impact(
        filter: &CandidateFilter,
        family: &[f64],
        params: &SquidParams,
    ) -> f64 {
        let Some(strength) = filter.value.strength() else {
            return 1.0;
        };
        let Some(tau_s) = params.tau_s else {
            return 1.0;
        };
        if family.len() < 3 {
            return 1.0;
        }
        let skewed = skewness(family).is_some_and(|sk| sk > tau_s);
        if skewed && is_outlier(strength, family, params.outlier_k) {
            1.0
        } else {
            0.0
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2_000))]
        #[test]
        fn gate_decides_as_per_filter_lambda(
            shape in 0..3u32,
            drawn in proptest::collection::vec(1..50u64, 0..13usize),
        ) {
            // Sizes 0–12 (n < 3 included); constant families (zero
            // variance), spread ones, and one dominant strength over a tail.
            let thetas: Vec<u64> = match shape {
                0 => vec![drawn.first().copied().unwrap_or(1); drawn.len()],
                1 => drawn,
                _ => drawn
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| if i == 0 { 200 } else { t % 8 + 1 })
                    .collect(),
            };
            let family: Vec<f64> = thetas.iter().map(|&t| t as f64).collect();
            let settings = [
                SquidParams::default(),
                SquidParams {
                    tau_s: None,
                    ..SquidParams::default()
                },
                SquidParams {
                    tau_s: Some(0.5),
                    outlier_k: 1.0,
                    ..SquidParams::default()
                },
            ];
            for params in &settings {
                let gate = OutlierGate::new(&family, params);
                for &theta in &thetas {
                    let f = derived(theta);
                    proptest::prop_assert_eq!(
                        outlier_impact(&f, &gate).to_bits(),
                        per_filter_outlier_impact(&f, &family, params).to_bits()
                    );
                }
                proptest::prop_assert_eq!(outlier_impact(&basic(0.1), &gate), 1.0);
            }
        }
    }
}
