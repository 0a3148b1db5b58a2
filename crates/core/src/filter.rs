//! Semantic property filters (paper Section 3) and their candidate form
//! produced by semantic-context discovery (Section 6.1.2).
//!
//! A candidate filter is a *minimal valid* filter φ: the tightest filter on
//! one semantic property that every example satisfies, annotated with the
//! statistics (selectivity ψ, domain coverage, association strength θ) the
//! probabilistic model needs.

use squid_adb::{PropStats, Property};
use squid_relation::{RowId, Sym, Value};

/// The value constraint carried by a filter.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterValue {
    /// Basic categorical: `attr = v`.
    CatEq(Value),
    /// Disjunctive categorical: `attr IN (vs)` (footnote 7 extension).
    CatIn(Vec<Value>),
    /// Basic numeric range: `low ≤ attr ≤ high`.
    NumRange(f64, f64),
    /// Derived: associated with value `v` at least `theta` times.
    DerivedEq {
        /// Property value (e.g. genre name).
        value: Value,
        /// Association-strength threshold θ.
        theta: u64,
    },
    /// Derived, normalized: share of associations to `v` is ≥ `frac`
    /// (§7.4). `raw_theta` keeps the un-normalized minimum count for the
    /// α significance test.
    DerivedFrac {
        /// Property value.
        value: Value,
        /// Minimum share in [0, 1].
        frac: f64,
        /// Raw minimum association count.
        raw_theta: u64,
    },
    /// Derived over a numeric mid attribute: at least `theta` associations
    /// with attribute value ≥ `cut` ("≥10 movies released after 2010").
    DerivedGe {
        /// Attribute cutpoint.
        cut: f64,
        /// Association-strength threshold θ.
        theta: u64,
    },
}

impl FilterValue {
    /// Association strength θ, or `None` for basic filters (θ = ⊥).
    pub fn theta(&self) -> Option<u64> {
        match self {
            FilterValue::DerivedEq { theta, .. } | FilterValue::DerivedGe { theta, .. } => {
                Some(*theta)
            }
            FilterValue::DerivedFrac { raw_theta, .. } => Some(*raw_theta),
            _ => None,
        }
    }

    /// Is this a derived filter?
    pub fn is_derived(&self) -> bool {
        self.theta().is_some()
    }

    /// The association strength used for the outlier test λ: raw counts, or
    /// the fraction when normalized.
    pub fn strength(&self) -> Option<f64> {
        match self {
            FilterValue::DerivedEq { theta, .. } | FilterValue::DerivedGe { theta, .. } => {
                Some(*theta as f64)
            }
            FilterValue::DerivedFrac { frac, .. } => Some(*frac),
            _ => None,
        }
    }
}

/// A minimal valid filter discovered from the examples, annotated with the
/// statistics used by the probabilistic model.
///
/// Identifiers are interned [`Sym`]s: candidate filters flow through the
/// interactive session pipeline on every turn (snapshot cache → abduction →
/// delta rendering), so cloning one must not allocate.
#[derive(Debug, Clone)]
pub struct CandidateFilter {
    /// Id of the semantic property this filter constrains (interned).
    pub prop_id: Sym,
    /// Display name of the attribute (for rendering; interned).
    pub attr_name: Sym,
    /// The constraint.
    pub value: FilterValue,
    /// ψ(φ): fraction of entities satisfying the filter.
    pub selectivity: f64,
    /// Domain coverage (input to δ).
    pub coverage: f64,
}

impl CandidateFilter {
    /// Human-readable rendering, e.g. `⟨genre.name, Comedy, 40⟩`.
    pub fn describe(&self) -> String {
        match &self.value {
            FilterValue::CatEq(v) => format!("⟨{}, {}, ⊥⟩", self.attr_name, v),
            FilterValue::CatIn(vs) => {
                let list: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
                format!("⟨{}, {{{}}}, ⊥⟩", self.attr_name, list.join("|"))
            }
            FilterValue::NumRange(l, h) => format!("⟨{}, [{}, {}], ⊥⟩", self.attr_name, l, h),
            FilterValue::DerivedEq { value, theta } => {
                format!("⟨{}, {}, {}⟩", self.attr_name, value, theta)
            }
            FilterValue::DerivedFrac { value, frac, .. } => {
                format!("⟨{}, {}, {:.0}%⟩", self.attr_name, value, frac * 100.0)
            }
            FilterValue::DerivedGe { cut, theta } => {
                format!("⟨{} ≥ {}, {}⟩", self.attr_name, cut, theta)
            }
        }
    }

    /// Does entity `row` satisfy this filter? Evaluated directly against the
    /// αDB's per-entity statistics (the fast path for abduced queries).
    pub fn matches_row(&self, prop: &Property, row: RowId) -> bool {
        match (&self.value, &prop.stats) {
            (FilterValue::CatEq(v), PropStats::Categorical(s)) => s.carries(row, v),
            (FilterValue::CatIn(vs), PropStats::Categorical(s)) => {
                vs.iter().any(|v| s.carries(row, v))
            }
            (FilterValue::NumRange(l, h), PropStats::Numeric(s)) => {
                s.value_of(row).is_some_and(|x| x >= *l && x <= *h)
            }
            (FilterValue::DerivedEq { value, theta }, PropStats::Derived(s)) => {
                s.count_of(row, value) >= *theta
            }
            (FilterValue::DerivedFrac { value, frac, .. }, PropStats::Derived(s)) => {
                s.frac_of(row, value) >= *frac
            }
            (FilterValue::DerivedGe { cut, theta }, PropStats::DerivedNumeric(s)) => {
                s.suffix_count_of(row, *cut) >= *theta
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_extraction() {
        assert_eq!(FilterValue::CatEq(Value::text("M")).theta(), None);
        assert_eq!(FilterValue::NumRange(1.0, 2.0).theta(), None);
        assert_eq!(
            FilterValue::DerivedEq {
                value: Value::text("Comedy"),
                theta: 40
            }
            .theta(),
            Some(40)
        );
        assert_eq!(
            FilterValue::DerivedFrac {
                value: Value::text("Comedy"),
                frac: 0.6,
                raw_theta: 9
            }
            .theta(),
            Some(9)
        );
    }

    #[test]
    fn strength_uses_fraction_when_normalized() {
        let f = FilterValue::DerivedFrac {
            value: Value::text("Comedy"),
            frac: 0.6,
            raw_theta: 9,
        };
        assert_eq!(f.strength(), Some(0.6));
        let g = FilterValue::DerivedEq {
            value: Value::text("Comedy"),
            theta: 40,
        };
        assert_eq!(g.strength(), Some(40.0));
    }

    #[test]
    fn describe_formats() {
        let f = CandidateFilter {
            prop_id: "p".into(),
            attr_name: "genre.name".into(),
            value: FilterValue::DerivedEq {
                value: Value::text("Comedy"),
                theta: 40,
            },
            selectivity: 0.01,
            coverage: 0.05,
        };
        assert_eq!(f.describe(), "⟨genre.name, Comedy, 40⟩");
        let g = CandidateFilter {
            prop_id: "p".into(),
            attr_name: "age".into(),
            value: FilterValue::NumRange(50.0, 90.0),
            selectivity: 0.8,
            coverage: 0.6,
        };
        assert_eq!(g.describe(), "⟨age, [50, 90], ⊥⟩");
    }
}
