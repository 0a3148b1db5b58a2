//! Query abduction — Algorithm 1 of the paper.
//!
//! Thanks to the factorization of the query posterior (Equation 5), each
//! filter's inclusion can be decided independently: include φ iff
//!
//! ```text
//! Pr(φ) · Pr(x|φ)  >  Pr(φ̄) · Pr(x|φ̄)
//!     Pr(φ) · 1    >  (1 − Pr(φ)) · ψ(φ)^|E|
//! ```
//!
//! Ties drop the filter (Occam's razor). The result maximizes
//! Pr*(Qᵠ|E) (Theorem 1; property-tested in this module).

use squid_relation::{FxHashMap, Sym};

use crate::filter::CandidateFilter;
use crate::params::SquidParams;
use crate::prior::{filter_prior, OutlierGate};

/// One abduction decision with its diagnostics.
#[derive(Debug, Clone)]
pub struct ScoredFilter {
    /// The candidate filter.
    pub filter: CandidateFilter,
    /// Filter-event prior Pr(φ).
    pub prior: f64,
    /// Include score Pr(φ)·Pr(x|φ) = Pr(φ).
    pub include_score: f64,
    /// Exclude score (1−Pr(φ))·ψ(φ)^|E|.
    pub exclude_score: f64,
    /// Algorithm 1's decision.
    pub included: bool,
}

/// Association-strength families: derived candidates grouped by property
/// (Figure 8's "family of derived filters sharing the same attribute"),
/// keyed by the interned property id.
pub fn strength_families(candidates: &[CandidateFilter]) -> FxHashMap<Sym, Vec<f64>> {
    let mut families: FxHashMap<Sym, Vec<f64>> = FxHashMap::default();
    for c in candidates {
        if let Some(s) = c.value.strength() {
            families.entry(c.prop_id).or_default().push(s);
        }
    }
    families
}

/// Algorithm 1: decide inclusion for every candidate filter independently.
/// λ's outlier test is summarised once per family, so the whole pass is
/// linear in the candidates.
pub fn abduce(
    candidates: Vec<CandidateFilter>,
    example_count: usize,
    params: &SquidParams,
) -> Vec<ScoredFilter> {
    let gates: FxHashMap<Sym, OutlierGate> = strength_families(&candidates)
        .into_iter()
        .map(|(prop, family)| (prop, OutlierGate::new(&family, params)))
        .collect();
    let priors: Vec<f64> = candidates
        .iter()
        .map(|filter| {
            let gate = gates.get(&filter.prop_id).unwrap_or(&OutlierGate::All);
            filter_prior(filter, gate, params)
        })
        .collect();
    drop(gates);
    candidates
        .into_iter()
        .zip(priors)
        .map(|(filter, prior)| {
            let include_score = prior; // Pr(x|φ) = 1
            let psi = filter.selectivity.clamp(0.0, 1.0);
            let exclude_score = (1.0 - prior) * psi.powi(example_count as i32);
            let included = include_score > exclude_score;
            ScoredFilter {
                filter,
                prior,
                include_score,
                exclude_score,
                included,
            }
        })
        .collect()
}

/// The log-posterior (up to the constant K/ψ(Φ)) of a chosen subset,
/// used to verify Theorem 1: Σᵩ log(Pr(φ̃)·Pr(x|φ̃)).
pub fn log_posterior(scored: &[ScoredFilter], include: &[bool]) -> f64 {
    assert_eq!(scored.len(), include.len());
    scored
        .iter()
        .zip(include)
        .map(|(s, &inc)| {
            let term = if inc {
                s.include_score
            } else {
                s.exclude_score
            };
            term.max(1e-300).ln()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterValue;
    use squid_relation::Value;

    fn cat(attr: &str, selectivity: f64, coverage: f64) -> CandidateFilter {
        CandidateFilter {
            prop_id: format!("person.{attr}").into(),
            attr_name: attr.into(),
            value: FilterValue::CatEq(Value::text("v")),
            selectivity,
            coverage,
        }
    }

    fn derived(attr: &str, value: &str, theta: u64, selectivity: f64) -> CandidateFilter {
        CandidateFilter {
            prop_id: format!("person~{attr}").into(),
            attr_name: attr.into(),
            value: FilterValue::DerivedEq {
                value: Value::text(value),
                theta,
            },
            selectivity,
            coverage: 0.03,
        }
    }

    #[test]
    fn rare_context_included_common_excluded() {
        // Example 2.1 shape: under ρ=0.1 a filter is included once
        // ψ^|E| < ρ/(1−ρ) ≈ 0.111. A selective filter (ψ=3/7) clears the
        // bar with 3 examples; a near-universal one (ψ=0.95) never does.
        let params = SquidParams::default();
        let scored = abduce(
            vec![cat("interest", 3.0 / 7.0, 0.2), cat("gender", 0.95, 0.5)],
            3,
            &params,
        );
        assert!(scored[0].included, "selective filter should be included");
        assert!(!scored[1].included, "common filter should be excluded");
        // With only 2 examples even the selective one stays out: the
        // observation is still plausibly coincidental.
        let scored2 = abduce(vec![cat("interest", 3.0 / 7.0, 0.2)], 2, &params);
        assert!(!scored2[0].included);
    }

    #[test]
    fn more_examples_flip_common_filters_in() {
        // ψ=0.75 (Male): with 2 examples the observation is unsurprising;
        // with 20 it is overwhelming evidence.
        let params = SquidParams::default();
        let f = || vec![cat("gender", 0.75, 0.5)];
        assert!(!abduce(f(), 2, &params)[0].included);
        assert!(abduce(f(), 20, &params)[0].included);
    }

    #[test]
    fn weak_derived_filters_never_included() {
        let params = SquidParams::default(); // τa = 5
        let scored = abduce(vec![derived("genre", "Drama", 2, 0.001)], 5, &params);
        assert_eq!(scored[0].prior, 0.0);
        assert!(!scored[0].included);
    }

    #[test]
    fn flat_families_are_dropped_by_lambda() {
        // Figure 8 Case B: similar strengths everywhere → λ = 0 → excluded,
        // no matter how selective.
        let params = SquidParams::default();
        let cands = vec![
            derived("genre", "Comedy", 12, 0.001),
            derived("genre", "SciFi", 10, 0.001),
            derived("genre", "Drama", 10, 0.001),
            derived("genre", "Action", 9, 0.001),
            derived("genre", "Thriller", 9, 0.001),
        ];
        let scored = abduce(cands, 5, &params);
        assert!(scored.iter().all(|s| !s.included));
    }

    #[test]
    fn skewed_family_keeps_only_outliers() {
        // Figure 8 Case A-like: one strength dominating a long flat tail.
        let params = SquidParams::default();
        let mut cands = vec![derived("genre", "Comedy", 60, 0.001)];
        for (i, g) in ["Drama", "Action", "Thriller", "SciFi", "Romance", "Crime"]
            .iter()
            .enumerate()
        {
            cands.push(derived("genre", g, 5 + (i as u64 % 2), 0.3));
        }
        let scored = abduce(cands, 5, &params);
        assert!(scored[0].included, "dominant comedy filter kept");
        assert!(
            scored[1..].iter().all(|s| !s.included),
            "tail filters dropped"
        );
    }

    #[test]
    fn ties_drop_the_filter() {
        // Exact tie: ρ=0.5 and ψ=1 give include = exclude = 0.5 in floats.
        let params = SquidParams {
            rho: 0.5,
            ..SquidParams::default()
        };
        let scored = abduce(vec![cat("a", 1.0, 0.1)], 3, &params);
        assert_eq!(scored[0].include_score, scored[0].exclude_score);
        assert!(!scored[0].included, "Occam's razor drops ties");
    }

    #[test]
    fn algorithm1_maximizes_posterior_exhaustively() {
        // Theorem 1 check: the greedy decisions beat every other subset.
        let params = SquidParams::default();
        let cands = vec![
            cat("a", 0.05, 0.1),
            cat("b", 0.6, 0.3),
            cat("c", 0.95, 0.8),
            derived("genre", "Comedy", 40, 0.01),
            derived("genre", "Drama", 6, 0.4),
        ];
        let scored = abduce(cands, 3, &params);
        let chosen: Vec<bool> = scored.iter().map(|s| s.included).collect();
        let best = log_posterior(&scored, &chosen);
        let n = scored.len();
        for mask in 0..(1u32 << n) {
            let subset: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            let lp = log_posterior(&scored, &subset);
            assert!(
                lp <= best + 1e-9,
                "subset {subset:?} beats Algorithm 1: {lp} > {best}"
            );
        }
    }

    #[test]
    fn families_group_by_property() {
        let cands = vec![
            derived("genre", "Comedy", 10, 0.1),
            derived("genre", "Drama", 3, 0.2),
            cat("gender", 0.5, 0.5),
        ];
        let fams = strength_families(&cands);
        assert_eq!(fams.len(), 1);
        assert_eq!(fams[&Sym::intern("person~genre")], vec![10.0, 3.0]);
    }
}
