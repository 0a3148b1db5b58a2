//! Semantic context discovery (paper Section 6.1.2): given the resolved
//! example entities, derive all *minimal valid* candidate filters Φ from the
//! αDB's precomputed properties.
//!
//! Discovery is **incremental**: [`ContextState`] keeps, per property, the
//! running intersection state over the examples seen so far (shared
//! categorical values, numeric min/max with endpoint multiplicities, derived
//! θ/fraction minima, per-cutpoint suffix minima). Adding example *k+1*
//! intersects only the new row's properties against the cached state —
//! O(properties) instead of O(k · properties) — which is what makes the
//! interactive [`crate::SquidSession`] loop cheap. The classic one-shot
//! [`discover_contexts`] folds the rows through the same state, so the two
//! paths agree by construction.

use squid_adb::{EntityProps, PropStats};
use squid_relation::{RowId, Value};

use crate::filter::{CandidateFilter, FilterValue};
use crate::params::SquidParams;

/// Incremental per-property intersection state for one property.
///
/// Each variant caches exactly what the corresponding snapshot needs; adding
/// a row refines the state in place, removing a row either adjusts it (the
/// numeric endpoint-count trick) or rebuilds that one property from the
/// remaining rows.
#[derive(Debug, Clone)]
enum PropState {
    /// Categorical: running shared-value intersection plus the single-valued
    /// union that feeds the disjunction fallback (footnote 7).
    Cat {
        /// Value codes shared by every example so far (ascending, so in
        /// value order).
        shared: Vec<u32>,
        /// Union of value codes over examples, maintained while every
        /// example is single-valued (ascending).
        union: Vec<u32>,
        /// Every example so far carried exactly one value.
        all_single: bool,
    },
    /// Direct numeric: tightest range with endpoint multiplicities so that
    /// removing an interior example is O(1).
    Num {
        lo: f64,
        hi: f64,
        /// Examples attaining `lo` / `hi` (for removal without rebuild).
        lo_count: usize,
        hi_count: usize,
        /// Examples with a NULL (or NaN — which no range filter can
        /// satisfy) value; any > 0 kills the filter.
        null_count: usize,
    },
    /// Derived counted: shared value codes with running θ and fraction
    /// minima, ascending by code (so in value order).
    Derived { shared: Vec<(u32, u64, f64)> },
    /// Derived numeric: per-cutpoint minimum suffix counts.
    DerivedNum { thetas: Vec<u64> },
}

/// Incremental semantic-context discovery state over one entity's examples.
///
/// ```
/// use squid_adb::{test_fixtures, ADb};
/// use squid_core::{discover_contexts, ContextState, SquidParams};
///
/// let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
/// let entity = adb.entity("person").unwrap();
/// let params = SquidParams::default();
///
/// let mut state = ContextState::new(entity);
/// state.add_row(entity, 0);
/// state.add_row(entity, 1);
/// assert_eq!(
///     state
///         .candidates(entity, &params)
///         .iter()
///         .map(|f| f.describe())
///         .collect::<Vec<_>>(),
///     discover_contexts(entity, &[0, 1], &params)
///         .iter()
///         .map(|f| f.describe())
///         .collect::<Vec<_>>(),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ContextState {
    /// Per-property states, parallel to `entity.props`.
    states: Vec<PropState>,
    /// Per-property snapshot cache: `Some` holds the filters the state
    /// currently emits; mutations that may change a property's output
    /// clear its slot, so [`ContextState::candidates`] recomputes only
    /// dirty properties. Valid for a fixed `(entity, params)` pair.
    cached: Vec<Option<Vec<CandidateFilter>>>,
    /// Distinct example rows currently folded in (sorted).
    rows: Vec<RowId>,
    /// Scratch buffer for suffix-count walks.
    buf: Vec<u64>,
    /// Bumped whenever any property's emitted filters may have changed —
    /// the staleness signal for downstream memoization (a session caches
    /// its scored filters against this).
    generation: u64,
}

impl ContextState {
    /// Fresh state with no examples.
    pub fn new(entity: &EntityProps) -> ContextState {
        let states: Vec<PropState> = entity.props.iter().map(|p| fresh_state(&p.stats)).collect();
        let cached = vec![None; states.len()];
        ContextState {
            states,
            cached,
            rows: Vec::new(),
            buf: Vec::new(),
            generation: 0,
        }
    }

    /// Example rows currently folded in (sorted, distinct).
    pub fn rows(&self) -> &[RowId] {
        &self.rows
    }

    /// Monotonic staleness counter: unchanged between two calls means the
    /// candidate set [`ContextState::candidates`] emits is unchanged too.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Fold one example row into every property state — O(properties), the
    /// per-example incremental step. Duplicate rows are ignored.
    pub fn add_row(&mut self, entity: &EntityProps, row: RowId) {
        match self.rows.binary_search(&row) {
            Ok(_) => return,
            Err(pos) => self.rows.insert(pos, row),
        }
        let first = self.rows.len() == 1;
        let mut changed = false;
        for (i, (state, prop)) in self.states.iter_mut().zip(&entity.props).enumerate() {
            if add_row_to_state(state, &prop.stats, row, first, &mut self.buf) {
                self.cached[i] = None;
                changed = true;
            }
        }
        self.generation += changed as u64;
    }

    /// Remove one example row, rebuilding only the affected property states:
    /// numeric states adjust in place when the removed value is interior to
    /// the current range; intersection/minimum states (categorical, derived)
    /// are rebuilt for the remaining rows since removal can relax them.
    pub fn remove_row(&mut self, entity: &EntityProps, row: RowId) {
        let Ok(pos) = self.rows.binary_search(&row) else {
            return;
        };
        self.rows.remove(pos);
        let mut changed = false;
        for (i, (state, prop)) in self.states.iter_mut().zip(&entity.props).enumerate() {
            // `adjusted`: the state is still exact without a rebuild;
            // `unchanged`: additionally, its emitted filters are identical.
            let (adjusted, unchanged) = match (&mut *state, &prop.stats) {
                (
                    PropState::Num {
                        lo,
                        hi,
                        lo_count,
                        hi_count,
                        null_count,
                    },
                    PropStats::Numeric(s),
                ) => match s.value_of(row).filter(|x| !x.is_nan()) {
                    None => {
                        *null_count -= 1;
                        // Output changes if the last null example left.
                        (true, *null_count > 0)
                    }
                    Some(x) => {
                        // Interior removal leaves the tightest range as is.
                        let at_lo = x == *lo;
                        let at_hi = x == *hi;
                        if at_lo {
                            *lo_count -= 1;
                        }
                        if at_hi {
                            *hi_count -= 1;
                        }
                        let ok = (!at_lo || *lo_count > 0) && (!at_hi || *hi_count > 0);
                        (ok, ok)
                    }
                },
                _ => (false, false),
            };
            if !adjusted {
                *state = fresh_state(&prop.stats);
                for (k, &r) in self.rows.iter().enumerate() {
                    add_row_to_state(state, &prop.stats, r, k == 0, &mut self.buf);
                }
            }
            if !unchanged {
                self.cached[i] = None;
                changed = true;
            }
        }
        self.generation += changed as u64;
    }

    /// Snapshot the candidate filter set Φ for the current examples.
    ///
    /// Filters are emitted in property order with values in a canonical
    /// (sorted) order, so the output is independent of the order examples
    /// were added in. Properties whose state did not change since the last
    /// snapshot are served from the per-property cache (pass the same
    /// `entity` and `params` across calls on one state).
    pub fn candidates(
        &mut self,
        entity: &EntityProps,
        params: &SquidParams,
    ) -> Vec<CandidateFilter> {
        let mut out = Vec::new();
        if self.rows.is_empty() {
            return out;
        }
        for i in 0..self.states.len() {
            if let Some(cached) = &self.cached[i] {
                out.extend_from_slice(cached);
                continue;
            }
            let start = out.len();
            emit_prop(
                &self.states[i],
                &entity.props[i],
                entity.n,
                params,
                &mut out,
            );
            self.cached[i] = Some(out[start..].to_vec());
        }
        out
    }
}

/// Emit the candidate filters one property's state currently implies.
fn emit_prop(
    state: &PropState,
    prop: &squid_adb::Property,
    n: usize,
    params: &SquidParams,
    out: &mut Vec<CandidateFilter>,
) {
    // Interned at αDB build time: emission runs per dirty property per
    // turn, and the emitted filters clone without allocating.
    let prop_id = prop.id_sym;
    let attr_name = prop.attr_sym;
    match (state, &prop.stats) {
        (
            PropState::Cat {
                shared,
                union,
                all_single,
            },
            PropStats::Categorical(s),
        ) => {
            if !shared.is_empty() {
                for &code in shared {
                    let v = s.value(code);
                    out.push(CandidateFilter {
                        prop_id,
                        attr_name,
                        selectivity: s.selectivity_code(code, n),
                        coverage: s.coverage_eq(),
                        value: FilterValue::CatEq(v),
                    });
                }
            } else if params.allow_disjunction
                && *all_single
                && union.len() >= 2
                && union.len() <= params.disjunction_limit
            {
                // Footnote 7: single-valued categorical attributes
                // may form a small disjunction covering all examples.
                let values: Vec<Value> = union.iter().map(|&code| s.value(code)).collect();
                out.push(CandidateFilter {
                    prop_id,
                    attr_name,
                    selectivity: s.selectivity_in(&values, n),
                    coverage: s.coverage_in(values.len()),
                    value: FilterValue::CatIn(values),
                });
            }
        }
        (
            PropState::Num {
                lo, hi, null_count, ..
            },
            PropStats::Numeric(s),
        ) => {
            // Tightest range [lo, hi]; requires every example to
            // have a value (validity).
            if *null_count == 0 && lo.is_finite() {
                out.push(CandidateFilter {
                    prop_id,
                    attr_name,
                    selectivity: s.selectivity_range(*lo, *hi, n),
                    coverage: s.coverage_range(*lo, *hi),
                    value: FilterValue::NumRange(*lo, *hi),
                });
            }
        }
        (PropState::Derived { shared }, PropStats::Derived(s)) => {
            for &(code, theta, frac) in shared {
                let v = s.value(code);
                let (value, selectivity) = if params.normalize_association {
                    (
                        FilterValue::DerivedFrac {
                            value: v,
                            frac,
                            raw_theta: theta,
                        },
                        s.selectivity_frac_code(code, frac, n),
                    )
                } else {
                    (
                        FilterValue::DerivedEq { value: v, theta },
                        s.selectivity_code(code, theta, n),
                    )
                };
                out.push(CandidateFilter {
                    prop_id,
                    attr_name,
                    selectivity,
                    coverage: s.coverage_eq(),
                    value,
                });
            }
        }
        (PropState::DerivedNum { thetas }, PropStats::DerivedNumeric(s)) => {
            // Every cutpoint yields a valid filter; pick the most
            // surprising (minimum selectivity) point on the
            // (c, θ(c)) frontier — abduction favors exactly that one.
            let mut best: Option<(f64, u64, f64)> = None; // (cut, θ, ψ)
            for (ci, &cut) in s.cutpoints().iter().enumerate() {
                let theta = thetas[ci];
                if theta == 0 || theta == u64::MAX {
                    continue;
                }
                let psi = s.selectivity_at(ci, theta, n);
                let better = match best {
                    None => true,
                    Some((_, _, best_psi)) => psi < best_psi,
                };
                if better {
                    best = Some((cut, theta, psi));
                }
            }
            if let Some((cut, theta, psi)) = best {
                out.push(CandidateFilter {
                    prop_id,
                    attr_name,
                    selectivity: psi,
                    coverage: s.coverage_ge(cut),
                    value: FilterValue::DerivedGe { cut, theta },
                });
            }
        }
        _ => unreachable!("state/stats kinds are built in lockstep"),
    }
}

fn fresh_state(stats: &PropStats) -> PropState {
    match stats {
        PropStats::Categorical(_) => PropState::Cat {
            shared: Vec::new(),
            union: Vec::new(),
            all_single: true,
        },
        PropStats::Numeric(_) => PropState::Num {
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            lo_count: 0,
            hi_count: 0,
            null_count: 0,
        },
        PropStats::Derived(_) => PropState::Derived { shared: Vec::new() },
        PropStats::DerivedNumeric(s) => PropState::DerivedNum {
            thetas: vec![u64::MAX; s.cutpoints().len()],
        },
    }
}

/// Fold one row into a property state, returning whether the state's
/// emitted filters may have changed (the snapshot-cache invalidation
/// signal; conservative — `true` never misses a real change). The first
/// row into a fresh state takes the same step as every other: the range
/// and suffix minima start at the fold's identity, and only an
/// intersection has to take the first row's codes instead of narrowing.
/// It constrains everything, so it always reports dirty.
fn add_row_to_state(
    state: &mut PropState,
    stats: &PropStats,
    row: RowId,
    first: bool,
    buf: &mut Vec<u64>,
) -> bool {
    let changed = match (state, stats) {
        (
            PropState::Cat {
                shared,
                union,
                all_single,
            },
            PropStats::Categorical(s),
        ) => {
            let codes = s.codes_of(row);
            let before = shared.len();
            if first {
                shared.extend_from_slice(codes);
            } else {
                retain_in(shared, codes);
            }
            let mut changed = shared.len() != before;
            if *all_single {
                if let [code] = codes {
                    if let Err(pos) = union.binary_search(code) {
                        union.insert(pos, *code);
                        changed = true;
                    }
                } else {
                    *all_single = false;
                    union.clear();
                    changed = true;
                }
            }
            changed
        }
        (
            PropState::Num {
                lo,
                hi,
                lo_count,
                hi_count,
                null_count,
            },
            PropStats::Numeric(s),
        ) => match s.value_of(row).filter(|x| !x.is_nan()) {
            None => {
                *null_count += 1;
                *null_count == 1 // only the first null flips validity
            }
            Some(x) => {
                let mut changed = false;
                if x < *lo {
                    *lo = x;
                    *lo_count = 0;
                    changed = true;
                }
                if x == *lo {
                    *lo_count += 1;
                }
                if x > *hi {
                    *hi = x;
                    *hi_count = 0;
                    changed = true;
                }
                if x == *hi {
                    *hi_count += 1;
                }
                changed
            }
        },
        (PropState::Derived { shared }, PropStats::Derived(s)) => {
            // A merge of two code-ascending lists: the shared values and
            // this row's run. The first row's codes enter at the minima's
            // identity, and the merge sets both minima. Runs ascend by
            // code, which is value order, so emission is canonical; a run
            // holds positive counts, so its entity's total is positive.
            let run = s.runs_of(row);
            let total = s.total_of(row) as f64;
            if first {
                shared.extend(run.iter().map(|&(code, _)| (code, u64::MAX, f64::INFINITY)));
            }
            let before = shared.len();
            let mut changed = false;
            let mut j = 0;
            shared.retain_mut(|(code, theta, frac)| {
                while j < run.len() && run[j].0 < *code {
                    j += 1;
                }
                let Some(&(_, c)) = run.get(j).filter(|e| e.0 == *code) else {
                    return false;
                };
                let c = u64::from(c);
                if c < *theta {
                    *theta = c;
                    changed = true;
                }
                let f = c as f64 / total;
                if f < *frac {
                    *frac = f;
                    changed = true;
                }
                true
            });
            changed || shared.len() != before
        }
        (PropState::DerivedNum { thetas }, PropStats::DerivedNumeric(s)) => {
            // One descending walk per example (O(C + K)), not a binary
            // search per (example, cutpoint) pair.
            s.suffix_counts_into(row, buf);
            let mut changed = false;
            for (t, &c) in thetas.iter_mut().zip(buf.iter()) {
                if c < *t {
                    *t = c;
                    changed = true;
                }
            }
            changed
        }
        _ => unreachable!("state/stats kinds are built in lockstep"),
    };
    first || changed
}

/// Keep the codes of ascending `shared` that ascending `codes` holds too:
/// one merge walk.
pub(crate) fn retain_in(shared: &mut Vec<u32>, codes: &[u32]) {
    let mut j = 0;
    shared.retain(|code| {
        while j < codes.len() && codes[j] < *code {
            j += 1;
        }
        codes.get(j) == Some(code)
    });
}

/// Derive the candidate filter set Φ for `examples` (entity row ids).
///
/// Each returned filter is valid (every example satisfies it) and minimal
/// (tightest bounds / maximal θ), per Definitions 3.1–3.2. This is the
/// one-shot form: it folds the rows through a fresh [`ContextState`], so it
/// agrees with the incremental session path by construction.
pub fn discover_contexts(
    entity: &EntityProps,
    examples: &[RowId],
    params: &SquidParams,
) -> Vec<CandidateFilter> {
    if examples.is_empty() {
        return Vec::new();
    }
    let mut state = ContextState::new(entity);
    for &row in examples {
        state.add_row(entity, row);
    }
    state.candidates(entity, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use squid_adb::{test_fixtures, ADb};

    fn setup() -> (ADb, Vec<RowId>) {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        // Examples: Jim Carrey (id 1) and Eddie Murphy (id 2).
        let rows = {
            let e = adb.entity("person").unwrap();
            vec![e.row_of(1).unwrap(), e.row_of(2).unwrap()]
        };
        (adb, rows)
    }

    fn find<'a>(filters: &'a [CandidateFilter], attr: &str) -> Option<&'a CandidateFilter> {
        filters.iter().find(|f| f.attr_name == attr)
    }

    #[test]
    fn discovers_shared_basic_categorical() {
        let (adb, rows) = setup();
        let e = adb.entity("person").unwrap();
        let filters = discover_contexts(e, &rows, &SquidParams::default());
        let gender = find(&filters, "gender").expect("gender context");
        assert_eq!(gender.value, FilterValue::CatEq(Value::text("Male")));
        assert_eq!(gender.selectivity, 0.75); // 6 of 8 persons are Male
        let country = find(&filters, "country").expect("country context");
        assert_eq!(country.value, FilterValue::CatEq(Value::text("USA")));
    }

    #[test]
    fn discovers_numeric_range() {
        let (adb, rows) = setup();
        let e = adb.entity("person").unwrap();
        let filters = discover_contexts(e, &rows, &SquidParams::default());
        let by = find(&filters, "birth_year").expect("birth_year context");
        assert_eq!(by.value, FilterValue::NumRange(1961.0, 1962.0));
        assert_eq!(by.selectivity, 0.25); // Jim + Eddie only
    }

    #[test]
    fn discovers_derived_genre_counts_with_min_theta() {
        let (adb, rows) = setup();
        let e = adb.entity("person").unwrap();
        let filters = discover_contexts(e, &rows, &SquidParams::default());
        let comedy = filters
            .iter()
            .find(|f| {
                f.attr_name == "genre.name"
                    && matches!(&f.value, FilterValue::DerivedEq { value, .. } if value == &Value::text("Comedy"))
            })
            .expect("comedy derived context");
        // Jim has 5 comedies, Eddie 4 → θ = min = 4.
        assert_eq!(
            comedy.value,
            FilterValue::DerivedEq {
                value: Value::text("Comedy"),
                theta: 4
            }
        );
    }

    #[test]
    fn no_context_for_unshared_property() {
        let (adb, _) = setup();
        let e = adb.entity("person").unwrap();
        // Jim Carrey (USA) + Arnold (Austria): country not shared.
        let rows = vec![e.row_of(1).unwrap(), e.row_of(5).unwrap()];
        let filters = discover_contexts(e, &rows, &SquidParams::default());
        assert!(find(&filters, "country").is_none());
    }

    #[test]
    fn disjunction_when_enabled() {
        let (adb, _) = setup();
        let e = adb.entity("person").unwrap();
        let rows = vec![e.row_of(1).unwrap(), e.row_of(5).unwrap()];
        let params = SquidParams {
            allow_disjunction: true,
            ..SquidParams::default()
        };
        let filters = discover_contexts(e, &rows, &params);
        let country = find(&filters, "country").expect("IN filter");
        assert!(matches!(&country.value, FilterValue::CatIn(vs) if vs.len() == 2));
    }

    #[test]
    fn normalized_mode_emits_fractions() {
        let (adb, rows) = setup();
        let e = adb.entity("person").unwrap();
        let filters = discover_contexts(e, &rows, &SquidParams::normalized());
        let comedy = filters
            .iter()
            .find(|f| {
                f.attr_name == "genre.name"
                    && matches!(&f.value, FilterValue::DerivedFrac { value, .. } if value == &Value::text("Comedy"))
            })
            .expect("normalized comedy context");
        let FilterValue::DerivedFrac {
            frac, raw_theta, ..
        } = &comedy.value
        else {
            unreachable!()
        };
        assert!(*frac > 0.9); // both are pure comedy actors here
        assert_eq!(*raw_theta, 4);
    }

    #[test]
    fn derived_numeric_picks_most_selective_cut() {
        let (adb, rows) = setup();
        let e = adb.entity("person").unwrap();
        let filters = discover_contexts(e, &rows, &SquidParams::default());
        let year = find(&filters, "movie.year").expect("year suffix context");
        let FilterValue::DerivedGe { theta, .. } = &year.value else {
            panic!("expected DerivedGe, got {:?}", year.value)
        };
        assert!(*theta >= 1);
        assert!(year.selectivity > 0.0 && year.selectivity <= 1.0);
    }

    #[test]
    fn all_candidates_are_valid_on_examples() {
        let (adb, rows) = setup();
        let e = adb.entity("person").unwrap();
        let filters = discover_contexts(e, &rows, &SquidParams::default());
        assert!(!filters.is_empty());
        for f in &filters {
            let prop = e.property(f.prop_id).unwrap();
            for &r in &rows {
                assert!(
                    f.matches_row(prop, r),
                    "filter {} must match example row {r}",
                    f.describe()
                );
            }
        }
    }

    #[test]
    fn empty_examples_yield_no_filters() {
        let (adb, _) = setup();
        let e = adb.entity("person").unwrap();
        assert!(discover_contexts(e, &[], &SquidParams::default()).is_empty());
    }

    /// Incremental adds must match the one-shot fold for every prefix, and
    /// additions must be order-independent.
    #[test]
    fn incremental_adds_match_one_shot() {
        let (adb, _) = setup();
        let e = adb.entity("person").unwrap();
        let params = SquidParams {
            allow_disjunction: true,
            ..SquidParams::default()
        };
        let rows: Vec<RowId> = (0..e.n).collect();
        let mut state = ContextState::new(e);
        for k in 0..rows.len() {
            state.add_row(e, rows[k]);
            let inc: Vec<String> = state
                .candidates(e, &params)
                .iter()
                .map(|f| format!("{} {:.6}", f.describe(), f.selectivity))
                .collect();
            let one: Vec<String> = discover_contexts(e, &rows[..=k], &params)
                .iter()
                .map(|f| format!("{} {:.6}", f.describe(), f.selectivity))
                .collect();
            assert_eq!(inc, one, "prefix of {} rows", k + 1);
        }
        // Reverse insertion order: same snapshot.
        let mut rev = ContextState::new(e);
        for &r in rows.iter().rev() {
            rev.add_row(e, r);
        }
        let a: Vec<String> = state
            .candidates(e, &params)
            .iter()
            .map(|f| f.describe())
            .collect();
        let b: Vec<String> = rev
            .candidates(e, &params)
            .iter()
            .map(|f| f.describe())
            .collect();
        assert_eq!(a, b);
    }

    /// remove_row must restore exactly the state of a fresh fold over the
    /// remaining rows, for every removal target (endpoint, interior, null).
    #[test]
    fn removal_matches_fresh_fold() {
        let (adb, _) = setup();
        let e = adb.entity("person").unwrap();
        let params = SquidParams::default();
        let rows: Vec<RowId> = (0..e.n).collect();
        for &gone in &rows {
            let mut state = ContextState::new(e);
            for &r in &rows {
                state.add_row(e, r);
            }
            state.remove_row(e, gone);
            let remaining: Vec<RowId> = rows.iter().copied().filter(|&r| r != gone).collect();
            let direct: Vec<String> = discover_contexts(e, &remaining, &params)
                .iter()
                .map(|f| format!("{} {:.6}", f.describe(), f.selectivity))
                .collect();
            let incremental: Vec<String> = state
                .candidates(e, &params)
                .iter()
                .map(|f| format!("{} {:.6}", f.describe(), f.selectivity))
                .collect();
            assert_eq!(incremental, direct, "after removing row {gone}");
            assert_eq!(state.rows(), remaining.as_slice());
        }
    }

    #[test]
    fn duplicate_adds_are_ignored() {
        let (adb, rows) = setup();
        let e = adb.entity("person").unwrap();
        let mut state = ContextState::new(e);
        state.add_row(e, rows[0]);
        state.add_row(e, rows[0]);
        assert_eq!(state.rows().len(), 1);
        state.add_row(e, rows[1]);
        let params = SquidParams::default();
        let a: Vec<String> = state
            .candidates(e, &params)
            .iter()
            .map(|f| f.describe())
            .collect();
        let b: Vec<String> = discover_contexts(e, &rows, &params)
            .iter()
            .map(|f| f.describe())
            .collect();
        assert_eq!(a, b);
    }
}
