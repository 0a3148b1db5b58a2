//! Exact SQL bytes of [`to_sql`]: every comparison operator, literal kind
//! and clause, alias numbering across semi-joins and `INTERSECT`ed blocks.
//! Served replies and the CLI print this text, so any drift is a change.

use squid_engine::{to_sql, PathStep, Pred, Query, QueryBlock, SemiJoin};
use squid_relation::Value;

/// Every operator, literal kind and clause in one block: root
/// predicates beside a plain and two aggregated multi-step semi-joins.
fn full_block() -> QueryBlock {
    QueryBlock::new("person")
        .filter(Pred::eq("name", "O'Brien"))
        .filter(Pred::ge("age", -3))
        .filter(Pred::le("height", 1.5))
        .filter(Pred::between("born", -10, 2.0))
        .filter(Pred::in_set(
            "country",
            vec![Value::text("It's"), Value::Int(7), Value::float(-0.25)],
        ))
        .filter(Pred::eq("alive", Value::Bool(true)))
        .semi_join(SemiJoin::exists(vec![
            PathStep::new("castinfo", "id", "person_id"),
            PathStep::new("movie", "movie_id", "id")
                .filter(Pred::eq("title", "''Quoted'' 'twice'"))
                .filter(Pred::ge("year", 1990)),
        ]))
        .semi_join(SemiJoin::at_least(
            3,
            vec![
                PathStep::new("movietogenre", "id", "person_id"),
                PathStep::new("genre", "genre_id", "id").filter(Pred::eq("name", "Comedy")),
            ],
        ))
        .semi_join(SemiJoin::at_least(
            12,
            vec![PathStep::new("award", "id", "person_id")],
        ))
}

#[test]
fn renders_every_clause_exactly() {
    let q = Query::single(full_block(), "name");
    assert_eq!(
        to_sql(&q),
        "SELECT DISTINCT t0.name\n\
         FROM person AS t0, castinfo AS t1, movie AS t2, movietogenre AS t3, \
         genre AS t4, award AS t5\n\
         WHERE t0.name = 'O''Brien'\n  \
         AND t0.age >= -3\n  \
         AND t0.height <= 1.5\n  \
         AND t0.born BETWEEN -10 AND 2\n  \
         AND t0.country IN ('It''s', 7, -0.25)\n  \
         AND t0.alive = true\n  \
         AND t0.id = t1.person_id\n  \
         AND t1.movie_id = t2.id\n  \
         AND t2.title = '''''Quoted'''' ''twice'''\n  \
         AND t2.year >= 1990\n  \
         AND t0.id = t3.person_id\n  \
         AND t3.genre_id = t4.id\n  \
         AND t4.name = 'Comedy'\n  \
         AND t0.id = t5.person_id\n\
         GROUP BY t0.name\n\
         HAVING count(DISTINCT t3.*) >= 3 AND count(DISTINCT t5.*) >= 12"
    );
}

#[test]
fn renders_intersect_exactly() {
    // Alias numbers restart per block; a block without constraints has
    // no WHERE, one without aggregation no GROUP BY.
    let plain = QueryBlock::new("person");
    let joined = QueryBlock::new("person").semi_join(SemiJoin::exists(vec![PathStep::new(
        "castinfo",
        "id",
        "person_id",
    )
    .filter(Pred::le("role", 2))]));
    let q = Query::intersect(vec![plain, joined, full_block()], "id");
    let sql = to_sql(&q);
    let blocks: Vec<&str> = sql.split("\nINTERSECT\n").collect();
    assert_eq!(blocks.len(), 3);
    assert_eq!(blocks[0], "SELECT DISTINCT t0.id\nFROM person AS t0");
    assert_eq!(
        blocks[1],
        "SELECT DISTINCT t0.id\nFROM person AS t0, castinfo AS t1\n\
         WHERE t0.id = t1.person_id\n  AND t1.role <= 2"
    );
    assert_eq!(blocks[2], to_sql(&Query::single(full_block(), "id")));
}

#[test]
fn renders_null_empty_and_lone_quote_literals() {
    let q = Query::single(
        QueryBlock::new("t")
            .filter(Pred::eq("a", Value::Null))
            .filter(Pred::eq("b", ""))
            .filter(Pred::eq("c", "'"))
            .filter(Pred::in_set("d", Vec::new())),
        "k",
    );
    assert_eq!(
        to_sql(&q),
        "SELECT DISTINCT t0.k\nFROM t AS t0\nWHERE t0.a = NULL\n  AND t0.b = ''\n  \
         AND t0.c = ''''\n  AND t0.d IN ()"
    );
}
