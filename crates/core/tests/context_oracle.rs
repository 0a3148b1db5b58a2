//! The context fold checked against an oracle that never touches
//! `ContextState`: for random example sets over the test fixtures, every
//! filter `discover_contexts` emits holds on every example, and equals a
//! brute-force per-property computation over the per-entity statistics
//! (shared codes, `[min, max]`, minimum count and share, and per cutpoint
//! the minimum suffix count with the minimum-ψ cutpoint chosen). An
//! add/remove history that ends at the same set emits the same filters.
//!
//! The fixtures are `mini_imdb` and `figure6_db`, each also drawn with a
//! few extra rows that give a first example a NULL or NaN numeric value, a
//! multi-valued categorical value, or an empty derived run.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use proptest::prelude::*;
use squid_adb::{test_fixtures, ADb, EntityProps, PropStats};
use squid_core::{discover_contexts, CandidateFilter, ContextState, FilterValue, SquidParams};
use squid_relation::{Column, DataType, Database, RowId, TableRole, TableSchema, Value};

/// `award(id, name, score FLOAT)` plus `personaward(person_id, award_id)`:
/// a direct float with a NaN and a NULL, and a derived numeric property
/// of persons whose domain holds a NaN.
fn add_awards(db: &mut Database) {
    db.create_table(
        TableSchema::new(
            "award",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("score", DataType::Float),
            ],
        )
        .with_primary_key("id"),
    )
    .unwrap();
    db.meta.exclude("award", "name");
    let awards = [
        (1, "Gold", Value::Float(9.5)),
        (2, "Silver", Value::Float(7.0)),
        (3, "Odd", Value::Float(f64::NAN)),
        (4, "Unscored", Value::Null),
        (5, "Bronze", Value::Float(7.0)),
    ];
    for (id, name, score) in awards {
        db.insert("award", vec![Value::Int(id), Value::text(name), score])
            .unwrap();
    }
    db.create_table(
        TableSchema::new(
            "personaward",
            vec![
                Column::new("person_id", DataType::Int),
                Column::new("award_id", DataType::Int),
            ],
        )
        .with_role(TableRole::Fact)
        .with_foreign_key("person_id", "person", 0)
        .with_foreign_key("award_id", "award", 0),
    )
    .unwrap();
    // (person, award)
    let awarded = [
        (1, 1),
        (1, 3),
        (2, 1),
        (2, 2),
        (3, 3),
        (4, 5),
        (7, 2),
        (7, 3),
    ];
    for (p, a) in awarded {
        db.insert("personaward", vec![Value::Int(p), Value::Int(a)])
            .unwrap();
    }
}

/// `mini_imdb` plus a person with a NULL birth year and no cast rows (an
/// empty run in every derived property), a person with a NULL country, a
/// two-genre movie with a NULL year and no cast, and the award tables.
fn mini_imdb_plus() -> Database {
    let mut db = test_fixtures::mini_imdb();
    let person = |id: i64, name: &str, country: Value, year: Value| {
        vec![
            Value::Int(id),
            Value::text(name),
            Value::text("Female"),
            country,
            year,
        ]
    };
    db.insert(
        "person",
        person(9, "Nobody", Value::text("USA"), Value::Null),
    )
    .unwrap();
    db.insert(
        "person",
        person(10, "Stateless", Value::Null, Value::Int(1970)),
    )
    .unwrap();
    db.insert(
        "movie",
        vec![
            Value::Int(10),
            Value::text("Unreleased"),
            Value::Null,
            Value::text("UK"),
        ],
    )
    .unwrap();
    for g in [2, 3] {
        db.insert("movietogenre", vec![Value::Int(10), Value::Int(g)])
            .unwrap();
    }
    db.insert(
        "castinfo",
        vec![Value::Int(10), Value::Int(9), Value::text("actress")],
    )
    .unwrap();
    add_awards(&mut db);
    db.validate().unwrap();
    db
}

/// `figure6_db` plus two persons without an age.
fn figure6_plus() -> Database {
    let mut db = test_fixtures::figure6_db();
    for (id, name, gender) in [(7, "Ageless", "Male"), (8, "Unknown", "Female")] {
        db.insert(
            "person",
            vec![
                Value::Int(id),
                Value::text(name),
                Value::text(gender),
                Value::Null,
            ],
        )
        .unwrap();
    }
    db.validate().unwrap();
    db
}

fn fixtures() -> &'static [ADb] {
    static ADBS: OnceLock<Vec<ADb>> = OnceLock::new();
    ADBS.get_or_init(|| {
        [
            test_fixtures::mini_imdb(),
            mini_imdb_plus(),
            test_fixtures::figure6_db(),
            figure6_plus(),
        ]
        .iter()
        .map(|db| ADb::build(db).unwrap())
        .collect()
    })
}

/// Every entity of `adb`, by table name.
fn entities(adb: &ADb) -> Vec<&EntityProps> {
    let mut all: Vec<&EntityProps> = adb.entities.values().collect();
    all.sort_by(|a, b| a.table.cmp(&b.table));
    all
}

/// What makes `row` an edge case as a first example, if anything: a NULL
/// or NaN numeric value, a multi-valued categorical value, or an empty
/// derived run.
fn edge_kinds(e: &EntityProps, row: RowId) -> BTreeSet<&'static str> {
    e.props
        .iter()
        .filter_map(|p| match &p.stats {
            PropStats::Numeric(s) => match s.value_of(row) {
                None => Some("null numeric"),
                Some(x) if x.is_nan() => Some("nan numeric"),
                Some(_) => None,
            },
            PropStats::Categorical(s) => (s.codes_of(row).len() > 1).then_some("multi-valued"),
            PropStats::Derived(s) => s.runs_of(row).is_empty().then_some("empty derived run"),
            // At a NaN cut every association counts.
            PropStats::DerivedNumeric(s) => {
                (s.suffix_count_of(row, f64::NAN) == 0).then_some("empty derived run")
            }
        })
        .collect()
}

fn psi(count: usize, n: usize) -> f64 {
    count as f64 / n as f64
}

/// The filters `rows` imply, computed per property by brute force from
/// the per-entity statistics, in emission order (property order, values
/// ascending).
fn oracle(e: &EntityProps, rows: &BTreeSet<RowId>, params: &SquidParams) -> Vec<String> {
    let n = e.n;
    let mut out = Vec::new();
    let mut emit = |attr: &str, value: FilterValue, selectivity: f64| {
        out.push(render_parts(attr, &value, selectivity));
    };
    for p in &e.props {
        let attr = p.def.attr_name.as_str();
        match &p.stats {
            PropStats::Categorical(s) => {
                let shared: Vec<u32> = (0..s.domain_size() as u32)
                    .filter(|c| rows.iter().all(|&r| s.codes_of(r).contains(c)))
                    .collect();
                let carrying = |c: u32| (0..n).filter(|&r| s.codes_of(r).contains(&c)).count();
                for &c in &shared {
                    emit(attr, FilterValue::CatEq(s.value(c)), psi(carrying(c), n));
                }
                let all_single = rows.iter().all(|&r| s.codes_of(r).len() == 1);
                let union: BTreeSet<u32> =
                    rows.iter().flat_map(|&r| s.codes_of(r)).copied().collect();
                if shared.is_empty()
                    && params.allow_disjunction
                    && all_single
                    && (2..=params.disjunction_limit).contains(&union.len())
                {
                    let total: usize = union.iter().map(|&c| carrying(c)).sum();
                    let values = union.iter().map(|&c| s.value(c)).collect();
                    emit(attr, FilterValue::CatIn(values), psi(total, n).min(1.0));
                }
            }
            PropStats::Numeric(s) => {
                let values: Option<Vec<f64>> = rows
                    .iter()
                    .map(|&r| s.value_of(r).filter(|x| !x.is_nan()))
                    .collect();
                let Some(values) = values else { continue };
                let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                if !lo.is_finite() {
                    continue;
                }
                let inside = (0..n)
                    .filter(|&r| s.value_of(r).is_some_and(|x| x >= lo && x <= hi))
                    .count();
                emit(attr, FilterValue::NumRange(lo, hi), psi(inside, n));
            }
            PropStats::Derived(s) => {
                let count = |r: RowId, c: u32| {
                    s.runs_of(r)
                        .iter()
                        .find(|e| e.0 == c)
                        .map_or(0, |e| u64::from(e.1))
                };
                let total = |r: RowId| s.runs_of(r).iter().map(|e| u64::from(e.1)).sum::<u64>();
                for c in 0..s.domain_size() as u32 {
                    if !rows.iter().all(|&r| count(r, c) > 0) {
                        continue;
                    }
                    let theta = rows.iter().map(|&r| count(r, c)).min().unwrap();
                    let frac = rows
                        .iter()
                        .map(|&r| count(r, c) as f64 / total(r) as f64)
                        .fold(f64::INFINITY, f64::min);
                    let value = s.value(c);
                    if params.normalize_association {
                        let reaching = (0..n)
                            .filter(|&r| {
                                count(r, c) > 0 && count(r, c) as f64 / total(r) as f64 >= frac
                            })
                            .count();
                        let raw_theta = theta;
                        emit(
                            attr,
                            FilterValue::DerivedFrac {
                                value,
                                frac,
                                raw_theta,
                            },
                            psi(reaching, n),
                        );
                    } else {
                        let reaching = (0..n).filter(|&r| count(r, c) >= theta).count();
                        emit(
                            attr,
                            FilterValue::DerivedEq { value, theta },
                            psi(reaching, n),
                        );
                    }
                }
            }
            PropStats::DerivedNumeric(s) => {
                // Per entity and cutpoint, the entity's own suffix count
                // (the statistic a `≥` filter is evaluated against).
                let suffix = |r: RowId, cut: f64| s.suffix_count_of(r, cut);
                let mut best: Option<(f64, u64, f64)> = None;
                for &cut in s.cutpoints() {
                    let theta = rows.iter().map(|&r| suffix(r, cut)).min().unwrap();
                    if theta == 0 {
                        continue;
                    }
                    let reaching = (0..n).filter(|&r| suffix(r, cut) >= theta).count();
                    let ps = psi(reaching, n);
                    if best.is_none_or(|(_, _, b)| ps < b) {
                        best = Some((cut, theta, ps));
                    }
                }
                if let Some((cut, theta, ps)) = best {
                    emit(attr, FilterValue::DerivedGe { cut, theta }, ps);
                }
            }
        }
    }
    out
}

/// A filter's attribute, value (floats by bits, so NaN and signed zeros
/// compare exactly) and ψ.
fn render_parts(attr: &str, value: &FilterValue, selectivity: f64) -> String {
    let value = match value {
        FilterValue::NumRange(l, h) => format!("[{:#x}, {:#x}]", l.to_bits(), h.to_bits()),
        FilterValue::DerivedFrac {
            value,
            frac,
            raw_theta,
        } => {
            format!("{value} frac={:#x} raw={raw_theta}", frac.to_bits())
        }
        FilterValue::DerivedGe { cut, theta } => format!(">= {:#x} θ={theta}", cut.to_bits()),
        other => format!("{other:?}"),
    };
    format!("{attr} {value} ψ={:#x}", selectivity.to_bits())
}

fn render(filters: &[CandidateFilter]) -> Vec<String> {
    filters
        .iter()
        .map(|f| render_parts(f.attr_name.as_str(), &f.value, f.selectivity))
        .collect()
}

fn describe(filters: &[CandidateFilter]) -> Vec<String> {
    filters.iter().map(CandidateFilter::describe).collect()
}

fn params_of(mode: usize) -> SquidParams {
    match mode % 3 {
        0 => SquidParams::default(),
        1 => SquidParams {
            allow_disjunction: true,
            ..SquidParams::default()
        },
        _ => SquidParams::normalized(),
    }
}

/// Every edge case the property test draws as a first example occurs in
/// some fixture, so the draws below really reach them.
#[test]
fn the_fixtures_hold_every_first_row_edge_case() {
    let mut seen = BTreeSet::new();
    for adb in fixtures() {
        for e in entities(adb) {
            for row in 0..e.n {
                seen.extend(edge_kinds(e, row));
            }
        }
    }
    let want: BTreeSet<&str> = [
        "null numeric",
        "nan numeric",
        "multi-valued",
        "empty derived run",
    ]
    .into_iter()
    .collect();
    assert_eq!(seen, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn context_fold_matches_a_brute_force_oracle(
        fixture in 0usize..4,
        entity in 0usize..8,
        edge_first in any::<bool>(),
        first in 0usize..64,
        rest in prop::collection::vec(0usize..64, 0..6),
        mode in 0usize..3,
        churn in prop::collection::vec((any::<bool>(), 0usize..64), 0..12),
    ) {
        let adb = &fixtures()[fixture];
        let all = entities(adb);
        let e = all[entity % all.len()];
        let params = params_of(mode);
        let edge_rows: Vec<RowId> = (0..e.n).filter(|&r| !edge_kinds(e, r).is_empty()).collect();
        let first = if edge_first && !edge_rows.is_empty() {
            edge_rows[first % edge_rows.len()]
        } else {
            first % e.n
        };
        let mut rows = vec![first];
        rows.extend(rest.iter().map(|&r| r % e.n));
        let set: BTreeSet<RowId> = rows.iter().copied().collect();

        let filters = discover_contexts(e, &rows, &params);
        for f in &filters {
            let prop = e.property(f.prop_id).unwrap();
            for &r in &set {
                prop_assert!(f.matches_row(prop, r), "{} fails example row {r}", f.describe());
            }
        }
        prop_assert_eq!(render(&filters), oracle(e, &set, &params));

        // Any add/remove history that ends at the same set emits the same
        // filters; snapshots in between exercise the per-property cache.
        let mut state = ContextState::new(e);
        for &(add, r) in &churn {
            if add {
                state.add_row(e, r % e.n);
            } else {
                state.remove_row(e, r % e.n);
            }
            state.candidates(e, &params);
        }
        let extra: Vec<RowId> = state.rows().iter().copied().filter(|r| !set.contains(r)).collect();
        for r in extra {
            state.remove_row(e, r);
        }
        for &r in rows.iter().rev() {
            state.add_row(e, r);
        }
        prop_assert_eq!(describe(&state.candidates(e, &params)), describe(&filters));
    }
}
