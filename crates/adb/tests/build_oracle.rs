//! Every property the αDB build computes over the edge-case fixture equals
//! a brute-force computation from the tables: nested loops over rows that
//! compare key values, with no key map, grouping or value code in between.

use squid_adb::test_fixtures::{edge_cases, mini_imdb};
use squid_adb::{posting_row, ADb, PropKind, PropStats, PropertyDef};
use squid_relation::{Database, RowId, Table, Value};

fn cell(t: &Table, row: RowId, column: &str) -> Value {
    let ci = t.schema().column_index(column).expect("column");
    t.cell(row, ci).expect("row")
}

/// Rows of `t` whose `column` holds `key` (none for a NULL key).
fn rows_where<'a>(t: &'a Table, column: &str, key: Value) -> impl Iterator<Item = RowId> + 'a {
    let ci = t.schema().column_index(column).expect("column");
    (0..t.len()).filter(move |&r| !key.is_null() && t.cell(r, ci) == Some(key))
}

/// The non-NULL values entity row `row` is associated with through `def`,
/// once per association (a fact row, or a fact-row pair for two hops).
fn associations(db: &Database, def: &PropertyDef, row: RowId) -> Vec<Value> {
    let entity = db.table(&def.entity).unwrap();
    let pk_name = &entity.schema().columns[entity.schema().primary_key.unwrap()].name;
    let pk = cell(entity, row, pk_name);
    let t = |name: &str| db.table(name).unwrap();
    let mut out = Vec::new();
    match &def.kind {
        PropKind::DirectCategorical { column } | PropKind::DirectNumeric { column } => {
            out.push(cell(entity, row, column));
        }
        PropKind::FactCategorical {
            fact,
            fact_entity_col,
            fact_prop_col,
            prop_table,
            prop_column,
        } => {
            for f in rows_where(t(fact), fact_entity_col, pk) {
                let key = cell(t(fact), f, fact_prop_col);
                for p in rows_where(t(prop_table), "id", key) {
                    out.push(cell(t(prop_table), p, prop_column));
                }
            }
        }
        PropKind::InlineCategorical {
            fact,
            fact_entity_col,
            column,
        }
        | PropKind::FactAttrCount {
            fact,
            fact_entity_col,
            column,
        } => {
            for f in rows_where(t(fact), fact_entity_col, pk) {
                out.push(cell(t(fact), f, column));
            }
        }
        PropKind::MidAttrCount {
            fact,
            fact_entity_col,
            fact_mid_col,
            mid_table,
            column,
            ..
        } => {
            for f in rows_where(t(fact), fact_entity_col, pk) {
                let key = cell(t(fact), f, fact_mid_col);
                for m in rows_where(t(mid_table), "id", key) {
                    out.push(cell(t(mid_table), m, column));
                }
            }
        }
        PropKind::TwoHopCount {
            fact1,
            f1_entity_col,
            f1_mid_col,
            fact2,
            f2_mid_col,
            f2_prop_col,
            prop_table,
            prop_column,
            ..
        } => {
            // The mid row itself need not exist: the live query joins
            // fact1 to fact2 directly.
            for f1 in rows_where(t(fact1), f1_entity_col, pk) {
                let mid = cell(t(fact1), f1, f1_mid_col);
                for f2 in rows_where(t(fact2), f2_mid_col, mid) {
                    let key = cell(t(fact2), f2, f2_prop_col);
                    for p in rows_where(t(prop_table), "id", key) {
                        out.push(cell(t(prop_table), p, prop_column));
                    }
                }
            }
        }
    }
    out.retain(|v| !v.is_null());
    out
}

/// Sorted distinct values (by `Value`'s order) of every entity's list.
fn domain_of(lists: &[Vec<Value>]) -> Vec<Value> {
    let mut domain: Vec<Value> = lists.iter().flatten().copied().collect();
    domain.sort();
    domain.dedup();
    domain
}

/// `(value, count)` of one entity's associations, ascending by value.
fn counted(list: &[Value]) -> Vec<(Value, u64)> {
    let mut run: Vec<(Value, u64)> = Vec::new();
    for &v in domain_of(&[list.to_vec()]).iter() {
        run.push((v, list.iter().filter(|&&w| w == v).count() as u64));
    }
    run
}

/// Assert every property of `db`'s αDB against the brute-force lists.
fn assert_build_matches_brute_force(name: &str, db: &Database) -> usize {
    let adb = ADb::build(db).unwrap();
    let mut checked = 0;
    for e in adb.entities.values() {
        for p in &e.props {
            let what = format!("{name}: {}", p.def.id);
            let lists: Vec<Vec<Value>> = (0..e.n).map(|r| associations(db, &p.def, r)).collect();
            match &p.stats {
                PropStats::Categorical(s) => {
                    let domain = domain_of(&lists);
                    assert_eq!(s.domain(), domain.as_slice(), "{what}: domain");
                    for (row, list) in lists.iter().enumerate() {
                        let got: Vec<Value> = s.codes_of(row).iter().map(|&c| s.value(c)).collect();
                        assert_eq!(
                            got,
                            domain_of(std::slice::from_ref(list)),
                            "{what}: row {row}"
                        );
                    }
                    for v in &domain {
                        let mut got = Vec::new();
                        s.rows_with(v).unwrap().for_each(|r| got.push(r));
                        let want: Vec<RowId> = (0..e.n).filter(|&r| lists[r].contains(v)).collect();
                        assert_eq!(got, want, "{what}: rows with {v}");
                    }
                }
                PropStats::Numeric(s) => {
                    for (row, list) in lists.iter().enumerate() {
                        let want = list.first().and_then(Value::as_float);
                        assert_eq!(
                            s.value_of(row).map(f64::to_bits),
                            want.map(f64::to_bits),
                            "{what}: row {row}"
                        );
                    }
                }
                PropStats::Derived(s) => {
                    let domain = domain_of(&lists);
                    assert_eq!(s.domain(), domain.as_slice(), "{what}: domain");
                    for (row, list) in lists.iter().enumerate() {
                        let got: Vec<(Value, u64)> = s
                            .runs_of(row)
                            .iter()
                            .map(|&(c, n)| (s.value(c), u64::from(n)))
                            .collect();
                        assert_eq!(got, counted(list), "{what}: row {row}");
                        assert_eq!(s.total_of(row), list.len() as u64, "{what}: total {row}");
                    }
                    for (code, v) in domain.iter().enumerate() {
                        for theta in 1..=3 {
                            let mut got: Vec<RowId> = s
                                .postings_ge_code(code as u32, theta)
                                .iter()
                                .map(|&p| posting_row(p))
                                .collect();
                            got.sort_unstable();
                            let want: Vec<RowId> = (0..e.n)
                                .filter(|&r| {
                                    lists[r].iter().filter(|&&w| w == *v).count() as u64 >= theta
                                })
                                .collect();
                            assert_eq!(got, want, "{what}: {v} ≥ {theta}");
                        }
                    }
                }
                PropStats::DerivedNumeric(s) => {
                    let floats: Vec<Vec<f64>> = lists
                        .iter()
                        .map(|l| l.iter().map(|v| v.as_float().unwrap()).collect())
                        .collect();
                    let mut cuts: Vec<f64> = floats.iter().flatten().copied().collect();
                    cuts.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    cuts.dedup();
                    assert_eq!(s.cutpoints(), cuts.as_slice(), "{what}: cutpoints");
                    for (row, xs) in floats.iter().enumerate() {
                        let mut want: Vec<(u32, u32)> = Vec::new();
                        for (rank, &cut) in cuts.iter().enumerate() {
                            let n = xs.iter().filter(|&&x| x == cut).count() as u32;
                            if n > 0 {
                                want.push((rank as u32, n));
                            }
                        }
                        assert_eq!(s.runs_of(row), want.as_slice(), "{what}: row {row}");
                        for &cut in &cuts {
                            let ge = xs.iter().filter(|&&x| x >= cut).count();
                            assert_eq!(
                                s.suffix_count_of(row, cut),
                                ge as u64,
                                "{what}: row {row} ≥ {cut}"
                            );
                        }
                    }
                }
            }
            checked += 1;
        }
    }
    checked
}

#[test]
fn edge_case_statistics_match_brute_force() {
    let checked = assert_build_matches_brute_force("edge-cases", &edge_cases());
    assert_eq!(checked, 13, "properties checked");
}

#[test]
fn mini_imdb_statistics_match_brute_force() {
    assert!(assert_build_matches_brute_force("mini-imdb", &mini_imdb()) > 10);
}

/// The fixture covers what it says: every fact kind, values that no entity
/// reaches, and a person without fact rows.
#[test]
fn the_edge_case_fixture_covers_every_fact_kind() {
    let db = edge_cases();
    let adb = ADb::build(&db).unwrap();
    let person = adb.entity("person").unwrap();
    let kinds: Vec<&PropKind> = person.props.iter().map(|p| &p.def.kind).collect();
    assert!(kinds
        .iter()
        .any(|k| matches!(k, PropKind::FactCategorical { .. })));
    assert!(kinds
        .iter()
        .any(|k| matches!(k, PropKind::InlineCategorical { .. })));
    assert!(kinds
        .iter()
        .any(|k| matches!(k, PropKind::FactAttrCount { .. })));
    assert!(kinds
        .iter()
        .any(|k| matches!(k, PropKind::MidAttrCount { numeric: true, .. })));
    assert!(kinds
        .iter()
        .any(|k| matches!(k, PropKind::MidAttrCount { numeric: false, .. })));
    assert!(kinds
        .iter()
        .any(|k| matches!(k, PropKind::TwoHopCount { .. })));
    let domain = |id: &str| match &person.property(id).unwrap().stats {
        PropStats::Categorical(s) => s.domain().to_vec(),
        PropStats::Derived(s) => s.domain().to_vec(),
        _ => unreachable!(),
    };
    assert!(!domain("person~castinfo~movie.country").contains(&Value::text("Atlantis")));
    assert!(
        !domain("person~castinfo~movie~movietogenre~genre.name").contains(&Value::text("Western"))
    );
    let PropStats::DerivedNumeric(year) =
        &person.property("person~castinfo~movie.year").unwrap().stats
    else {
        panic!("movie.year is a derived-numeric property")
    };
    assert!(!year.cutpoints().contains(&2077.0));
    let dee = person.row_of(2_000_000).unwrap();
    assert!(person.props.iter().all(|p| match &p.stats {
        PropStats::Derived(s) => s.runs_of(dee).is_empty(),
        PropStats::DerivedNumeric(s) => s.runs_of(dee).is_empty(),
        _ => true,
    }));
}
