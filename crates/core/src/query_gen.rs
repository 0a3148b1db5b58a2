//! Turning an abduced filter set ϕ into executable queries (Section 6.2):
//! the SPJAI form over the original database, the SPJ form over the αDB's
//! materialized derived relations (Example 2.2), and a direct evaluation
//! path against the αDB's per-entity statistics.

use squid_adb::{EntityProps, FilterFingerprint, FilterSetCache, PropKind, PropStats, Property};
use squid_engine::{Pred, Query, QueryBlock};
use squid_relation::{RowSet, Value};

use crate::filter::{CandidateFilter, FilterValue};

/// Build the SPJAI query over the ORIGINAL database expressing the base
/// query plus the chosen filters. Normalized (fraction) filters cannot be
/// expressed in this query class and are skipped (callers evaluate them via
/// [`evaluate`]); the returned flag reports whether any were skipped.
pub fn original_query(
    entity: &EntityProps,
    filters: &[CandidateFilter],
    projection: &str,
) -> (Query, bool) {
    let mut block = QueryBlock::new(&entity.table);
    let mut skipped_normalized = false;
    for f in filters {
        let Some(prop) = entity.property(f.prop_id) else {
            continue;
        };
        // All identifiers come from the property's prebuilt fragments —
        // query generation runs per session turn and must not re-intern
        // (or re-allocate) the join-path names.
        match &f.value {
            FilterValue::CatEq(v) => match (prop.fragments.root_col(), &prop.def.kind) {
                (Some(col), PropKind::DirectCategorical { .. }) => {
                    block = block.filter(Pred::eq(col, *v));
                }
                _ => {
                    if let Some(sj) = prop.fragments.semi_join(v, 1) {
                        block = block.semi_join(sj);
                    }
                }
            },
            FilterValue::CatIn(vs) => {
                if let (Some(col), PropKind::DirectCategorical { .. }) =
                    (prop.fragments.root_col(), &prop.def.kind)
                {
                    block = block.filter(Pred::in_set(col, vs.clone()));
                }
            }
            FilterValue::NumRange(l, h) => {
                if let (Some(col), PropKind::DirectNumeric { .. }) =
                    (prop.fragments.root_col(), &prop.def.kind)
                {
                    block = block.filter(range_pred(col, *l, *h));
                }
            }
            FilterValue::DerivedEq { value, theta } => {
                if let Some(sj) = prop.fragments.semi_join(value, *theta) {
                    block = block.semi_join(sj);
                }
            }
            FilterValue::DerivedGe { cut, theta } => {
                if let Some(sj) = prop.fragments.semi_join_ge(&num_value(*cut), *theta) {
                    block = block.semi_join(sj);
                }
            }
            FilterValue::DerivedFrac { .. } => {
                skipped_normalized = true;
            }
        }
    }
    (Query::single(block, projection), skipped_normalized)
}

/// Build the equivalent SPJ query over the αDB (derived relations replace
/// the aggregation joins, Example 2.2). Returns `None` when a chosen filter
/// has no αDB-expressible form (normalized fractions, or derived relations
/// that were not materialized).
pub fn adb_query(
    entity: &EntityProps,
    filters: &[CandidateFilter],
    projection: &str,
) -> Option<Query> {
    let mut block = QueryBlock::new(&entity.table);
    for f in filters {
        let prop = entity.property(f.prop_id)?;
        match &f.value {
            FilterValue::CatEq(v) => match (prop.fragments.root_col(), &prop.def.kind) {
                (Some(col), PropKind::DirectCategorical { .. }) => {
                    block = block.filter(Pred::eq(col, *v));
                }
                _ => {
                    let sj = prop.fragments.semi_join(v, 1)?;
                    block = block.semi_join(sj);
                }
            },
            FilterValue::CatIn(vs) => {
                if let (Some(col), PropKind::DirectCategorical { .. }) =
                    (prop.fragments.root_col(), &prop.def.kind)
                {
                    block = block.filter(Pred::in_set(col, vs.clone()));
                } else {
                    return None;
                }
            }
            FilterValue::NumRange(l, h) => {
                if let (Some(col), PropKind::DirectNumeric { .. }) =
                    (prop.fragments.root_col(), &prop.def.kind)
                {
                    block = block.filter(range_pred(col, *l, *h));
                } else {
                    return None;
                }
            }
            FilterValue::DerivedEq { value, theta } => {
                let sj = prop.fragments.adb_semi_join(value, *theta)?;
                block = block.semi_join(sj);
            }
            // Suffix ranges need SUM over derived rows: not expressible as
            // a single SPJ filter on the materialized relation.
            FilterValue::DerivedGe { .. } | FilterValue::DerivedFrac { .. } => return None,
        }
    }
    Some(Query::single(block, projection))
}

/// Evaluate the chosen filters directly against the αDB's per-entity
/// statistics: the set of qualifying entity rows. This is exact for every
/// filter kind (including normalized fractions) and is how SQuID returns
/// result tuples in real time.
///
/// When the most selective filter can *enumerate* its satisfying rows from
/// the αDB's value→row postings (equality, range, and derived-count
/// filters can; suffix-range filters cannot), evaluation walks only those
/// rows instead of every entity — O(matches of the rarest filter) rather
/// than O(n).
pub fn evaluate(entity: &EntityProps, filters: &[CandidateFilter]) -> RowSet {
    let mut out = RowSet::with_universe(entity.n);
    // Resolve each filter's property once, not once per row. A filter
    // whose property is unknown excludes every row (as before).
    let mut resolved = Vec::with_capacity(filters.len());
    for f in filters {
        let Some(prop) = entity.property(f.prop_id) else {
            return out;
        };
        resolved.push((f, prop));
    }
    // Most selective filter first: rows that fail short-circuit earliest
    // (and the driver below enumerates the fewest candidates).
    resolved.sort_by(|a, b| a.0.selectivity.total_cmp(&b.0.selectivity));
    let driver = resolved.iter().position(|(f, p)| can_enumerate(f, p));
    match driver {
        Some(di) => {
            let rest: Vec<_> = resolved
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != di)
                .map(|(_, fp)| *fp)
                .collect();
            let (df, dp) = resolved[di];
            enumerate_rows(df, dp, &mut |row| {
                if !out.contains(row) && rest.iter().all(|(f, p)| f.matches_row(p, row)) {
                    out.insert(row);
                }
            });
        }
        None => {
            'rows: for row in 0..entity.n {
                for (f, prop) in &resolved {
                    if !f.matches_row(prop, row) {
                        continue 'rows;
                    }
                }
                out.insert(row);
            }
        }
    }
    out
}

/// Canonical [`FilterFingerprint`] of a candidate filter: the interned
/// property id, a kind tag, θ, and the value/bounds as raw words (symbol
/// id / integer / float bits per [`Value`] variant). Filters with equal
/// fingerprints have identical satisfying row sets — the
/// [`FilterSetCache`] admission key.
///
/// The encoding is intentionally conservative: `Int(3)` and `Float(3.0)`
/// compare equal as [`Value`]s but fingerprint differently, which only
/// costs a redundant cache entry, never a wrong hit.
pub fn filter_fingerprint(f: &CandidateFilter) -> FilterFingerprint {
    fn value_words(v: &Value) -> [u64; 2] {
        match v {
            Value::Null => [0, 0],
            Value::Bool(b) => [1, *b as u64],
            Value::Int(i) => [2, *i as u64],
            Value::Float(x) => [3, x.to_bits()],
            Value::Text(s) => [4, s.id() as u64],
        }
    }
    let pid = f.prop_id;
    match &f.value {
        FilterValue::CatEq(v) => FilterFingerprint::new(pid, 0, 0, &value_words(v)),
        FilterValue::CatIn(vs) => {
            // Canonical order: `Value`'s total order, so permuted IN lists
            // fingerprint identically.
            let mut sorted: Vec<&Value> = vs.iter().collect();
            sorted.sort();
            let mut payload = Vec::with_capacity(2 * sorted.len());
            for v in sorted {
                payload.extend(value_words(v));
            }
            FilterFingerprint::new(pid, 1, 0, &payload)
        }
        FilterValue::NumRange(l, h) => {
            FilterFingerprint::new(pid, 2, 0, &[l.to_bits(), h.to_bits()])
        }
        FilterValue::DerivedEq { value, theta } => {
            FilterFingerprint::new(pid, 3, *theta, &value_words(value))
        }
        FilterValue::DerivedFrac {
            value,
            frac,
            raw_theta,
        } => {
            let [a, b] = value_words(value);
            FilterFingerprint::new(pid, 4, *raw_theta, &[a, b, frac.to_bits()])
        }
        FilterValue::DerivedGe { cut, theta } => {
            FilterFingerprint::new(pid, 5, *theta, &[cut.to_bits()])
        }
    }
}

/// The exact satisfying row set of ONE filter: postings enumeration when
/// the statistics support it, otherwise a full per-row scan (suffix-range
/// filters and hand-assembled stats). This is the cache-miss path of
/// [`evaluate_cached`] — each distinct filter pays it once per session.
pub fn filter_row_set(entity: &EntityProps, f: &CandidateFilter, prop: &Property) -> RowSet {
    let mut out = RowSet::with_universe(entity.n);
    if can_enumerate(f, prop) {
        enumerate_rows(f, prop, &mut |row| {
            out.insert(row);
        });
    } else {
        for row in 0..entity.n {
            if f.matches_row(prop, row) {
                out.insert(row);
            }
        }
    }
    out
}

/// Upper bound on a filter's match count, read off the statistics in O(1)
/// (postings lengths) or O(log n) (two binary searches for ranges).
/// `None` when the filter cannot enumerate its matches at all.
fn match_estimate(f: &CandidateFilter, prop: &Property) -> Option<usize> {
    match (&f.value, &prop.stats) {
        (FilterValue::CatEq(v), PropStats::Categorical(s)) if s.enumerable() => {
            Some(s.rows_with(v).len())
        }
        (FilterValue::CatIn(vs), PropStats::Categorical(s)) if s.enumerable() => {
            Some(vs.iter().map(|v| s.rows_with(v).len()).sum())
        }
        (FilterValue::NumRange(l, h), PropStats::Numeric(s)) if s.enumerable() => {
            Some(s.rows_in_range(*l, *h).len())
        }
        (
            FilterValue::DerivedEq { value, .. } | FilterValue::DerivedFrac { value, .. },
            PropStats::Derived(s),
        ) if s.enumerable() => Some(s.postings_of(value).len()),
        _ => None,
    }
}

/// Is a cache miss on this filter worth materializing? Two gates:
///
/// * it must be *enumerable* — non-enumerable filters (suffix ranges,
///   hand-assembled stats) would need an O(n) scan with a per-row probe,
///   which the probe-restricted path beats by orders of magnitude;
/// * it must be *selective enough* — a bitmap with most rows set costs a
///   long postings walk to build yet removes almost nothing from the
///   intersection; restricting the surviving rows directly
///   ([`restrict_by_probe`]) costs the shorter of the two sides and
///   stores nothing.
fn admit_on_miss(f: &CandidateFilter, prop: &Property, n: usize) -> bool {
    match match_estimate(f, prop) {
        Some(m) => m <= (n / 4).max(64),
        None => false,
    }
}

/// The rows of `within` that fail `f`, computed from whichever side is
/// shorter: a filter that can enumerate fewer matches than `within` has
/// rows walks its postings and knocks the matches out of a copy of
/// `within`; any other filter (wider than `within`, or not enumerable at
/// all) probes each row of `within`.
pub(crate) fn violators(within: &RowSet, f: &CandidateFilter, prop: &Property) -> RowSet {
    match match_estimate(f, prop) {
        Some(m) if m < within.len() => {
            let mut out = within.clone();
            enumerate_rows(f, prop, &mut |row| {
                out.remove(row);
            });
            out
        }
        _ => {
            let mut out = RowSet::with_universe(within.word_count() * 64);
            for row in within {
                if !f.matches_row(prop, row) {
                    out.insert(row);
                }
            }
            out
        }
    }
}

/// Drop from `rows` every row failing `f` — the evaluation path for
/// filters whose sets are not worth materializing: the work is bounded by
/// the shorter of the filter's postings and the rows that survived the
/// cached intersection (see [`violators`]).
fn restrict_by_probe(rows: &mut RowSet, f: &CandidateFilter, prop: &Property) {
    let failing = violators(rows, f, prop);
    rows.difference_with(&failing);
}

/// One incremental result-maintenance step for the session: restrict
/// `rows` by a single newly chosen filter — through its cached bitmap when
/// resident (or cheap to admit from postings), otherwise directly, from
/// the shorter of its postings and the surviving rows. An unknown property
/// clears the result, matching [`evaluate`].
pub(crate) fn restrict_rows(
    rows: &mut RowSet,
    entity: &EntityProps,
    f: &CandidateFilter,
    fp: &FilterFingerprint,
    cache: &mut FilterSetCache,
) {
    let Some(prop) = entity.property(f.prop_id) else {
        *rows = RowSet::with_universe(entity.n);
        return;
    };
    if let Some(set) = cache.lookup(fp) {
        rows.intersect_with(&set);
    } else if admit_on_miss(f, prop, entity.n) {
        let set = cache.insert_with(fp, || filter_row_set(entity, f, prop));
        rows.intersect_with(&set);
    } else {
        restrict_by_probe(rows, f, prop);
    }
}

/// [`evaluate`] through a [`FilterSetCache`]: each filter's satisfying set
/// is fetched by fingerprint (computed from postings and memoized on a
/// miss), the resident sets are intersected word-wise smallest-first, and
/// filters too expensive to materialize restrict only the surviving rows.
/// With a warm cache a repeat evaluation performs no postings walks at all
/// — only `u64` AND loops over resident bitmaps.
///
/// The lookup is transparently **two-level** when the cache has a
/// [`SharedFilterSetCache`](squid_adb::SharedFilterSetCache) attached: a
/// local miss consults the fleet-wide shards (brief per-shard lock,
/// `Arc` clone out), and a full miss publishes the freshly computed set
/// back — so warm *cross-session* evaluations are bitmap algebra too.
///
/// Exactly equivalent to the uncached [`evaluate`] (property-tested), and
/// like it, an unknown property id excludes every row.
pub fn evaluate_cached(
    entity: &EntityProps,
    filters: &[CandidateFilter],
    cache: &mut FilterSetCache,
) -> RowSet {
    let fps: Vec<FilterFingerprint> = filters.iter().map(filter_fingerprint).collect();
    evaluate_cached_fps(entity, filters, &fps, cache)
}

/// [`evaluate_cached`] with the fingerprints precomputed by the caller
/// (the session already maintains them for its turn-over-turn diff).
pub(crate) fn evaluate_cached_fps(
    entity: &EntityProps,
    filters: &[CandidateFilter],
    fps: &[FilterFingerprint],
    cache: &mut FilterSetCache,
) -> RowSet {
    if filters.is_empty() {
        return RowSet::full(entity.n);
    }
    // The probe mask below is a `u64`; abduced filter sets are tiny, but
    // stay correct for adversarial inputs.
    if filters.len() > 64 {
        return evaluate(entity, filters);
    }
    let mut props = Vec::with_capacity(filters.len());
    for f in filters {
        let Some(prop) = entity.property(f.prop_id) else {
            return RowSet::with_universe(entity.n);
        };
        props.push(prop);
    }
    // Set-backed filters (resident, or cheap to admit from postings) feed
    // the bitmap intersection; the rest probe the surviving rows after it.
    // One hash probe per filter: the resident `Arc` handles ride along.
    let mut sized: Vec<(usize, std::sync::Arc<RowSet>)> = Vec::with_capacity(filters.len());
    let mut probe_mask = 0u64;
    for (i, (f, prop)) in filters.iter().zip(&props).enumerate() {
        if let Some(set) = cache.lookup(&fps[i]) {
            sized.push((set.len(), set));
        } else if admit_on_miss(f, prop, entity.n) {
            let set = cache.insert_with(&fps[i], || filter_row_set(entity, f, prop));
            sized.push((set.len(), set));
        } else {
            probe_mask |= 1 << i;
        }
    }
    if sized.is_empty() {
        // Nothing to intersect from bitmaps: the classic driver-based
        // evaluation is strictly better than scanning per filter.
        return evaluate(entity, filters);
    }
    // Ascending size: the running intersection shrinks as early as possible.
    sized.sort_unstable_by_key(|(len, _)| *len);
    let mut out = (*sized[0].1).clone();
    for (_, set) in &sized[1..] {
        if out.is_empty() {
            break;
        }
        out.intersect_with(set);
    }
    for (i, (f, prop)) in filters.iter().zip(&props).enumerate() {
        if probe_mask & (1 << i) != 0 && !out.is_empty() {
            restrict_by_probe(&mut out, f, prop);
        }
    }
    out
}

/// Can this filter enumerate exactly its satisfying rows from postings?
/// (`enumerable()` guards against hand-assembled stats without postings.)
fn can_enumerate(f: &CandidateFilter, prop: &Property) -> bool {
    match (&f.value, &prop.stats) {
        (FilterValue::CatEq(_) | FilterValue::CatIn(_), PropStats::Categorical(s)) => {
            s.enumerable()
        }
        (FilterValue::NumRange(..), PropStats::Numeric(s)) => s.enumerable(),
        (
            FilterValue::DerivedEq { .. } | FilterValue::DerivedFrac { .. },
            PropStats::Derived(s),
        ) => s.enumerable(),
        _ => false,
    }
}

/// Visit every row satisfying `f` (exactly once per distinct row for the
/// single-value kinds; `CatIn` may revisit rows shared between values —
/// the caller deduplicates via its output set).
fn enumerate_rows(
    f: &CandidateFilter,
    prop: &Property,
    visit: &mut dyn FnMut(squid_relation::RowId),
) {
    match (&f.value, &prop.stats) {
        (FilterValue::CatEq(v), PropStats::Categorical(s)) => {
            for &row in s.rows_with(v) {
                visit(row);
            }
        }
        (FilterValue::CatIn(vs), PropStats::Categorical(s)) => {
            for v in vs {
                for &row in s.rows_with(v) {
                    visit(row);
                }
            }
        }
        (FilterValue::NumRange(l, h), PropStats::Numeric(s)) => {
            for &(_, row) in s.rows_in_range(*l, *h) {
                visit(row);
            }
        }
        (FilterValue::DerivedEq { value, theta }, PropStats::Derived(s)) => {
            for &(row, c) in s.postings_of(value) {
                if c >= *theta {
                    visit(row);
                }
            }
        }
        (FilterValue::DerivedFrac { value, frac, .. }, PropStats::Derived(s)) => {
            for &(row, _) in s.postings_of(value) {
                if s.frac_of(row, value) >= *frac {
                    visit(row);
                }
            }
        }
        _ => unreachable!("gated by can_enumerate"),
    }
}

fn num_value(x: f64) -> Value {
    if x.fract() == 0.0 && x.abs() < i64::MAX as f64 {
        Value::Int(x as i64)
    } else {
        Value::Float(x)
    }
}

fn range_pred(column: squid_relation::Sym, l: f64, h: f64) -> Pred {
    Pred::between(column, num_value(l), num_value(h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::discover_contexts;
    use crate::params::SquidParams;
    use squid_adb::{test_fixtures, ADb};
    use squid_engine::{to_sql, Executor};

    fn comedy_filter(entity: &EntityProps) -> CandidateFilter {
        let prop = entity
            .props
            .iter()
            .find(|p| matches!(&p.def.kind, PropKind::TwoHopCount { prop_table, .. } if prop_table == "genre"))
            .unwrap();
        CandidateFilter {
            prop_id: prop.def.id.as_str().into(),
            attr_name: prop.def.attr_name.as_str().into(),
            value: FilterValue::DerivedEq {
                value: Value::text("Comedy"),
                theta: 4,
            },
            selectivity: 0.375,
            coverage: 0.25,
        }
    }

    #[test]
    fn original_and_adb_forms_agree_with_direct_evaluation() {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let e = adb.entity("person").unwrap();
        let filters = vec![comedy_filter(e)];

        let direct = evaluate(e, &filters);
        assert_eq!(direct.len(), 3); // Jim, Eddie, Robin

        let (orig, skipped) = original_query(e, &filters, "name");
        assert!(!skipped);
        let exec = Executor::new(&adb.database);
        let r_orig = exec.execute(&orig).unwrap();
        assert_eq!(r_orig.rows, direct);

        let aq = adb_query(e, &filters, "name").expect("αDB form");
        let r_adb = exec.execute(&aq).unwrap();
        assert_eq!(r_adb.rows, direct);

        // The αDB form is structurally simpler: fewer joins.
        assert!(aq.join_predicate_count() < orig.join_predicate_count());
    }

    #[test]
    fn basic_filters_become_root_predicates() {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let e = adb.entity("person").unwrap();
        let f = CandidateFilter {
            prop_id: "person.gender".into(),
            attr_name: "gender".into(),
            value: FilterValue::CatEq(Value::text("Male")),
            selectivity: 0.75,
            coverage: 0.5,
        };
        let (q, _) = original_query(e, &[f], "name");
        assert_eq!(q.join_predicate_count(), 0);
        assert_eq!(q.selection_predicate_count(), 1);
        assert!(to_sql(&q).contains("t0.gender = 'Male'"));
    }

    #[test]
    fn normalized_filters_skip_sql_but_evaluate() {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let e = adb.entity("person").unwrap();
        let prop = e
            .props
            .iter()
            .find(|p| matches!(&p.def.kind, PropKind::TwoHopCount { prop_table, .. } if prop_table == "genre"))
            .unwrap();
        let f = CandidateFilter {
            prop_id: prop.def.id.as_str().into(),
            attr_name: prop.def.attr_name.as_str().into(),
            value: FilterValue::DerivedFrac {
                value: Value::text("Comedy"),
                frac: 0.9,
                raw_theta: 4,
            },
            selectivity: 0.3,
            coverage: 0.25,
        };
        let (_, skipped) = original_query(e, std::slice::from_ref(&f), "name");
        assert!(skipped);
        assert!(adb_query(e, std::slice::from_ref(&f), "name").is_none());
        let rows = evaluate(e, &[f]);
        assert!(!rows.is_empty());
    }

    #[test]
    fn evaluation_matches_contexts_for_examples() {
        // Whatever contexts are discovered from the examples, the examples
        // themselves must satisfy all of them (Lemma 3.1).
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let e = adb.entity("person").unwrap();
        let rows = vec![e.pk_to_row[&1], e.pk_to_row[&2]];
        let filters = discover_contexts(e, &rows, &SquidParams::default());
        let result = evaluate(e, &filters);
        for r in &rows {
            assert!(result.contains(*r));
        }
    }

    #[test]
    fn violators_agree_with_row_probes_on_both_sides_of_the_cost_rule() {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let params = SquidParams {
            allow_disjunction: true,
            ..SquidParams::default()
        };
        let mut shared_row_lists = 0;
        for entity in adb.entities.values() {
            let mut filters = Vec::new();
            for a in 0..entity.n {
                for b in a..entity.n {
                    filters.extend(discover_contexts(entity, &[a, b], &params));
                }
            }
            // `IN` lists over multi-valued attributes, whose values share
            // rows (a movie is Comedy and Fantasy): enumeration meets such
            // a row once per value.
            for prop in &entity.props {
                let PropStats::Categorical(stats) = &prop.stats else {
                    continue;
                };
                for row in 0..entity.n {
                    if stats.values_of(row).len() > 1 {
                        shared_row_lists += 1;
                        filters.push(CandidateFilter {
                            prop_id: prop.id_sym,
                            attr_name: prop.attr_sym,
                            value: FilterValue::CatIn(stats.values_of(row).to_vec()),
                            selectivity: 0.5,
                            coverage: 0.5,
                        });
                    }
                }
            }
            // Wide sets put a filter's postings on the shorter side, small
            // ones the set itself.
            let withins = [
                RowSet::full(entity.n),
                (0..entity.n).step_by(2).collect(),
                (entity.n.saturating_sub(2)..entity.n).collect(),
                RowSet::new(),
            ];
            let (mut enumerated, mut probed) = (0, 0);
            for f in &filters {
                let prop = entity.property(f.prop_id).unwrap();
                for within in &withins {
                    let expect: RowSet =
                        within.iter().filter(|&r| !f.matches_row(prop, r)).collect();
                    assert_eq!(violators(within, f, prop), expect, "{}", f.describe());
                    let mut restricted = within.clone();
                    restrict_by_probe(&mut restricted, f, prop);
                    assert_eq!(restricted.len(), within.len() - expect.len());
                    assert!(restricted.iter().all(|r| f.matches_row(prop, r)));
                    match match_estimate(f, prop) {
                        Some(m) if m < within.len() => enumerated += 1,
                        _ => probed += 1,
                    }
                }
            }
            assert!(enumerated > 0 && probed > 0, "{}", entity.table);
        }
        assert!(shared_row_lists > 0);
    }

    #[test]
    fn numeric_range_renders_between() {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let e = adb.entity("person").unwrap();
        let f = CandidateFilter {
            prop_id: "person.birth_year".into(),
            attr_name: "birth_year".into(),
            value: FilterValue::NumRange(1961.0, 1962.0),
            selectivity: 0.25,
            coverage: 0.1,
        };
        let (q, _) = original_query(e, &[f], "name");
        assert!(to_sql(&q).contains("BETWEEN 1961 AND 1962"));
        let exec = Executor::new(&adb.database);
        assert_eq!(exec.execute(&q).unwrap().len(), 2);
    }
}
