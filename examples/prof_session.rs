//! Phase-profiling harness for the interactive session hot path: breaks an
//! `add_example` update into its pipeline stages (context fold, snapshot,
//! abduction, query generation, evaluation, snapshot clone) on the IMDb
//! benchmark slate.
//!
//! ```text
//! cargo run --release --example prof_session
//! ```
use squid_adb::ADb;
use squid_core::{
    abduce_filters, adb_query, evaluate, original_query, ContextState, Squid, SquidSession,
};
use squid_datasets::{generate_imdb, imdb_queries, ImdbConfig};
use std::time::Instant;

fn main() {
    let cfg = ImdbConfig {
        persons: 1_500,
        movies: 800,
        ..ImdbConfig::default()
    };
    let db = generate_imdb(&cfg);
    let adb = ADb::build(&db).unwrap();
    let queries = imdb_queries(&db);
    let q = queries.iter().find(|p| p.id == "IQ15").unwrap();
    let rs = squid_engine::Executor::new(&db).execute(&q.query).unwrap();
    let values = rs.project(&db, q.query.projection.as_str()).unwrap();
    let examples: Vec<String> = values.iter().take(5).map(|v| v.to_string()).collect();
    let refs: Vec<&str> = examples.iter().map(String::as_str).collect();
    let squid = Squid::new(&adb);
    let d = squid.discover(&refs).unwrap();
    let entity = adb.entity(&d.entity_table).unwrap();
    let rows = d.example_rows.clone();
    let params = squid_core::SquidParams::default();

    let n = 20000;
    // context fold (all 5 rows)
    let t = Instant::now();
    for _ in 0..n {
        let mut st = ContextState::new(entity);
        for &r in &rows {
            st.add_row(entity, r);
        }
        std::hint::black_box(st.candidates(entity, &params));
    }
    println!("ctx fold x5 + snapshot: {:?}", t.elapsed() / n);

    let mut st = ContextState::new(entity);
    for &r in &rows {
        st.add_row(entity, r);
    }
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(st.candidates(entity, &params));
    }
    println!("ctx snapshot only:      {:?}", t.elapsed() / n);

    let cands = st.candidates(entity, &params);
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(abduce_filters(cands.clone(), rows.len(), &params));
    }
    println!("abduce (incl clone):    {:?}", t.elapsed() / n);

    let scored = abduce_filters(cands.clone(), rows.len(), &params);
    let chosen: Vec<_> = scored
        .iter()
        .filter(|s| s.included)
        .map(|s| s.filter.clone())
        .collect();
    println!("candidates: {}, chosen: {}", cands.len(), chosen.len());
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(original_query(entity, &chosen, "title"));
    }
    println!("original_query:         {:?}", t.elapsed() / n);
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(adb_query(entity, &chosen, "title"));
    }
    println!("adb_query:              {:?}", t.elapsed() / n);
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(evaluate(entity, &chosen));
    }
    println!("evaluate:               {:?}", t.elapsed() / n);
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(d.clone());
    }
    println!("discovery clone:        {:?}", t.elapsed() / n);

    // session add timing sanity
    let mut base = SquidSession::new(&adb);
    for e in &refs[..4] {
        base.add_example(e).unwrap();
    }
    let t = Instant::now();
    for _ in 0..2000 {
        let mut s = base.clone();
        std::hint::black_box(s.add_example(refs[4]).unwrap());
    }
    println!("clone + add 5th:        {:?}", t.elapsed() / 2000);
}
