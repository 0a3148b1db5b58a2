//! The derived relations are built on first SQL use: `ADb::database` is
//! exactly the input, `ADb::query_database` adds one
//! `(entity_id, value, count)` relation per derived property on its first
//! call, and the αDB form of a filter on those relations answers exactly
//! what the statistics and the original SPJAI form answer. On the
//! generated slates, every candidate filter's ψ is the row count of its
//! rendered SQL, and the discovered query returns the evaluated rows.

use std::collections::HashMap;
use std::sync::Barrier;

use squid_adb::test_fixtures::{edge_cases, mini_imdb};
use squid_adb::{posting_row, ADb, PropStats, Property};
use squid_core::{abduce_filters, evaluate, original_query, ContextState, SquidParams};
use squid_datasets::{
    adult_queries, dblp_queries, generate_adult, generate_dblp, generate_imdb, imdb_queries,
    AdultConfig, BenchmarkQuery, DblpConfig, ImdbConfig,
};
use squid_engine::{Executor, Query, QueryBlock, SemiJoin};
use squid_relation::{db_fingerprint, Database, RowId, Value};

#[test]
fn the_database_is_the_input_and_the_query_database_is_built_on_first_use() {
    let input = mini_imdb();
    let built = ADb::build(&input).unwrap();
    let mut buf = Vec::new();
    built.save_snapshot_to(&mut buf).unwrap();
    let loaded = ADb::load_snapshot_from(&mut buf.as_slice()).unwrap();
    for (how, adb) in [("built", &built), ("loaded", &loaded)] {
        assert_eq!(
            db_fingerprint(&adb.database),
            db_fingerprint(&input),
            "{how}"
        );
        assert_eq!(
            adb.database.tables().count(),
            input.tables().count(),
            "{how}"
        );
        let before = adb.heap_bytes();
        assert_eq!(before.derived, 0, "{how}: nothing derived before SQL use");
        assert!(before.tables > 0 && before.inverted > 0 && before.stats > 0);

        let qdb = adb.query_database();
        assert!(adb.build_stats.derived_table_count > 0);
        assert_eq!(
            qdb.tables().count(),
            input.tables().count() + adb.build_stats.derived_table_count,
            "{how}"
        );
        let derived_rows: usize = adb
            .entities
            .values()
            .flat_map(|e| &e.props)
            .filter_map(|p| p.derived_table.as_deref())
            .map(|name| qdb.table(name).unwrap().len())
            .sum();
        assert_eq!(derived_rows, adb.build_stats.derived_row_count, "{how}");
        // The query database shares the original tables: none is copied,
        // and `derived` counts only the derived relations.
        for t in adb.database.tables() {
            assert!(std::ptr::eq(t, qdb.table(t.name()).unwrap()), "{how}");
        }
        let derived_bytes: usize = qdb
            .tables()
            .filter(|t| adb.database.table(t.name()).is_err())
            .map(|t| t.heap_bytes())
            .sum();
        let after = adb.heap_bytes();
        assert!(after.derived > 0, "{how}: {after:?}");
        assert_eq!(after.derived, derived_bytes, "{how}");
        assert_eq!(
            (after.tables, after.inverted, after.stats),
            (before.tables, before.inverted, before.stats)
        );
    }
    assert_eq!(
        db_fingerprint(built.query_database()),
        db_fingerprint(loaded.query_database())
    );
}

#[test]
fn the_build_shares_the_input_tables_and_keeps_value_semantics() {
    let mut input = mini_imdb();
    let adb = ADb::build(&input).unwrap();
    for t in input.tables() {
        assert!(std::ptr::eq(t, adb.database.table(t.name()).unwrap()));
    }
    // The query database is built after the write below, from the
    // tables as they were at build time.
    let qdb_fingerprint = db_fingerprint(ADb::build(&mini_imdb()).unwrap().query_database());
    let (rows, fingerprint) = (
        adb.database.table("person").unwrap().len(),
        db_fingerprint(&adb.database),
    );

    // A write to a shared table copies it: the αDB's tables stay as built.
    input
        .insert(
            "person",
            vec![
                Value::Int(99),
                Value::text("New Person"),
                Value::text("f"),
                Value::text("Canada"),
                Value::Int(1990),
            ],
        )
        .unwrap();
    assert_eq!(input.table("person").unwrap().len(), rows + 1);
    assert_eq!(adb.database.table("person").unwrap().len(), rows);
    assert_eq!(db_fingerprint(&adb.database), fingerprint);
    assert_eq!(db_fingerprint(adb.query_database()), qdb_fingerprint);
    assert!(!std::ptr::eq(
        input.table("person").unwrap(),
        adb.database.table("person").unwrap()
    ));
    // The tables the write did not touch are still shared.
    assert!(std::ptr::eq(
        input.table("movie").unwrap(),
        adb.database.table("movie").unwrap()
    ));
}

#[test]
fn racing_first_calls_build_one_query_database() {
    let adb = ADb::build(&mini_imdb()).unwrap();
    let barrier = Barrier::new(4);
    let addrs: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    adb.query_database() as *const Database as usize
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let first = adb.query_database() as *const Database as usize;
    assert!(addrs.iter().all(|&a| a == first), "{addrs:?} vs {first}");
}

/// Up to three values of one derived property, each with the count
/// thresholds 1, 2 and the largest count the value reaches, and the
/// entity rows the statistics say satisfy `⟨A, v, θ⟩`.
fn probes(p: &Property) -> Vec<(Value, u64, Vec<RowId>)> {
    // (row, value, count) triples the statistics hold.
    let triples: Vec<(RowId, Value, u64)> = match &p.stats {
        PropStats::Derived(s) => (0..s.entity_count())
            .flat_map(|r| {
                s.runs_of(r)
                    .iter()
                    .map(move |&(code, c)| (r, s.value(code), u64::from(c)))
            })
            .collect(),
        PropStats::DerivedNumeric(s) => (0..s.entity_count())
            .flat_map(|r| {
                s.runs_of(r).iter().map(move |&(rank, c)| {
                    (r, Value::float(s.cutpoints()[rank as usize]), u64::from(c))
                })
            })
            .collect(),
        _ => unreachable!("only derived properties have derived tables"),
    };
    let mut values: Vec<Value> = Vec::new();
    for &(_, v, _) in &triples {
        if !values.contains(&v) {
            values.push(v);
        }
        if values.len() == 3 {
            break;
        }
    }
    let mut out = Vec::new();
    for v in values {
        let max = triples
            .iter()
            .filter(|t| t.1 == v)
            .map(|t| t.2)
            .max()
            .unwrap();
        for theta in [1, 2, max] {
            let mut rows: Vec<RowId> = match &p.stats {
                // The postings evaluation hands over for `DerivedEq`.
                PropStats::Derived(s) => s
                    .postings_ge(&v, theta)
                    .iter()
                    .map(|&posting| squid_adb::posting_row(posting))
                    .collect(),
                _ => triples
                    .iter()
                    .filter(|t| t.1 == v && t.2 >= theta)
                    .map(|t| t.0)
                    .collect(),
            };
            rows.sort_unstable();
            out.push((v, theta, rows));
        }
    }
    out
}

fn rows_of(db: &Database, table: &str, sj: SemiJoin, projection: &str) -> Vec<RowId> {
    let q = Query::single(QueryBlock::new(table).semi_join(sj), projection);
    Executor::new(db)
        .execute(&q)
        .unwrap_or_else(|e| panic!("{table}: {e}"))
        .rows
        .iter()
        .collect()
}

/// Every derived property's αDB-form semi-join on the query database
/// returns the statistics' rows and the original form's rows.
fn assert_adb_forms_agree(name: &str, db: &Database) {
    let adb = ADb::build(db).unwrap();
    let mut checked = 0;
    for e in adb.entities.values() {
        for p in e.props.iter().filter(|p| p.derived_table.is_some()) {
            for (v, theta, want) in probes(p) {
                let what = format!("{name}: {} = {v}, θ = {theta}", p.def.id);
                let adb_form = p.fragments.adb_semi_join(&v, theta).unwrap();
                let original = p.def.semi_join(&e.pk_column, &v, theta).unwrap();
                let got = rows_of(adb.query_database(), &e.table, adb_form, &e.pk_column);
                assert_eq!(got, want, "αDB form, {what}");
                checked += 1;
                let orig = rows_of(&adb.database, &e.table, original, &e.pk_column);
                assert_eq!(orig, want, "original form, {what}");
            }
        }
    }
    assert!(checked > 0, "{name}: no derived property probed");
}

#[test]
fn adb_forms_agree_with_the_statistics_on_mini_imdb() {
    assert_adb_forms_agree("mini-imdb", &mini_imdb());
}

#[test]
fn adb_forms_agree_with_the_statistics_on_imdb_1x() {
    assert_adb_forms_agree("imdb-default", &generate_imdb(&ImdbConfig::default()));
}

#[test]
fn adb_forms_agree_with_the_statistics_on_edge_cases() {
    assert_adb_forms_agree("edge-cases", &edge_cases());
}

/// `person~castinfo~movie.year` on the edge cases, whose years were
/// inserted as NaN, `-0.0`, `0.0` and NULL: at every cutpoint and every θ,
/// the statistics' rows are the rows its rendered `year >= c` semi-join
/// returns on the tables.
#[test]
fn derived_numeric_rows_are_the_executed_sql_rows_at_every_cutpoint() {
    let adb = ADb::build(&edge_cases()).unwrap();
    let person = adb.entity("person").unwrap();
    let p = person.property("person~castinfo~movie.year").unwrap();
    let PropStats::DerivedNumeric(s) = &p.stats else {
        panic!("movie.year is a derived-numeric property")
    };
    assert!(s.cutpoints().len() >= 2, "{:?}", s.cutpoints());
    for &cut in s.cutpoints() {
        let max = (0..person.n)
            .map(|r| s.suffix_count_of(r, cut))
            .max()
            .unwrap();
        for theta in 1..=max + 1 {
            let mut want: Vec<RowId> = s
                .postings_ge(cut, theta)
                .iter()
                .map(|&posting| posting_row(posting))
                .collect();
            want.sort_unstable();
            let sj = p
                .def
                .semi_join_ge(&person.pk_column, &Value::float(cut), theta)
                .unwrap();
            let got = rows_of(&adb.database, &person.table, sj, &person.pk_column);
            assert_eq!(got, want, "year ≥ {cut}, θ = {theta}");
        }
    }
}

/// Every suite query with `k` examples spread over its result: each
/// candidate filter context discovery emits has ψ·n equal to the row count
/// of its rendered SQL on the query database, and the chosen filters'
/// evaluated rows are the rows of the query they render. Returns the
/// number of candidates checked. Candidates repeat across queries, so
/// each distinct one is executed once.
fn assert_psi_is_the_sql_row_count(name: &str, db: &Database, queries: &[BenchmarkQuery]) -> usize {
    let adb = ADb::build(db).unwrap();
    let qdb = adb.query_database();
    let params = SquidParams::default();
    let execute = |q: &Query| Executor::new(qdb).execute(q).unwrap().rows;
    let mut counted: HashMap<String, usize> = HashMap::new();
    let mut checked = 0;
    for q in queries {
        let entity = adb.entity(q.query.root()).unwrap();
        let truth: Vec<RowId> = Executor::new(&adb.database)
            .execute(&q.query)
            .unwrap()
            .rows
            .iter()
            .collect();
        for k in [3, 10] {
            let what = format!("{name} {} k={k}", q.id);
            let step = truth.len().div_ceil(k).max(1);
            let examples: Vec<RowId> = truth.iter().step_by(step).copied().collect();
            let mut ctx = ContextState::new(entity);
            for &row in &examples {
                ctx.add_row(entity, row);
            }
            let candidates = ctx.candidates(entity, &params);
            for c in &candidates {
                let (sql, normalized) =
                    original_query(entity, std::slice::from_ref(c), &entity.pk_column);
                assert!(!normalized, "{what}: {}", c.describe());
                let block = &sql.blocks[0];
                assert_eq!(
                    block.root_predicates.len() + block.semi_joins.len(),
                    1,
                    "{what}: {} renders one constraint",
                    c.describe()
                );
                let key = format!("{} {}", c.prop_id, c.describe());
                let rows = *counted.entry(key).or_insert_with(|| execute(&sql).len());
                let psi_n = (c.selectivity * entity.n as f64).round() as usize;
                assert_eq!(psi_n, rows, "{what}: ψ·n of {}", c.describe());
                checked += 1;
            }
            let chosen: Vec<_> = abduce_filters(candidates, examples.len(), &params)
                .into_iter()
                .filter(|s| s.included)
                .map(|s| s.filter)
                .collect();
            let (sql, _) = original_query(entity, &chosen, &entity.pk_column);
            assert_eq!(
                evaluate(entity, &chosen),
                execute(&sql),
                "{what}: evaluated rows vs the discovered query's rows"
            );
        }
    }
    checked
}

#[test]
fn candidate_psi_is_the_sql_row_count_on_imdb_1x() {
    let db = generate_imdb(&ImdbConfig::default());
    let queries = imdb_queries(&db);
    assert!(assert_psi_is_the_sql_row_count("imdb", &db, &queries) > 0);
}

#[test]
fn candidate_psi_is_the_sql_row_count_on_dblp_1x() {
    let db = generate_dblp(&DblpConfig::default());
    let queries = dblp_queries(&db);
    assert!(assert_psi_is_the_sql_row_count("dblp", &db, &queries) > 0);
}

#[test]
fn candidate_psi_is_the_sql_row_count_on_adult_1x() {
    let db = generate_adult(&AdultConfig::default());
    let queries = adult_queries(&db, 0xA0, 20);
    assert!(assert_psi_is_the_sql_row_count("adult", &db, &queries) > 0);
}
