//! Rendering [`Query`] values as human-readable SQL, matching the style the
//! paper uses for its example queries (Q2, Q4, Q5).
//!
//! [`to_sql`] writes the query into one `String`, one pass per clause: FROM
//! and WHERE walk the semi-join paths in the same order (the k-th step is
//! alias `tk` in both), and text literals are copied by runs, `'` doubled.
//! Every served reply carries the rendered query, up to 100 filters long.

use std::fmt::Write as _;

use squid_relation::Value;

use crate::ast::{CmpOp, Pred, Query, QueryBlock};

/// Append a SQL literal (text quoted, each `'` doubled).
fn literal(out: &mut String, v: &Value) {
    let Value::Text(s) = v else {
        let _ = write!(out, "{v}");
        return;
    };
    out.push('\'');
    for (i, run) in s.as_str().split('\'').enumerate() {
        out.push_str(if i > 0 { "''" } else { "" });
        out.push_str(run);
    }
    out.push('\'');
}

fn render_pred(out: &mut String, alias: usize, pred: &Pred) {
    let _ = write!(out, "t{alias}.{}", pred.column);
    match &pred.op {
        CmpOp::Eq => out.push_str(" = "),
        CmpOp::Ge => out.push_str(" >= "),
        CmpOp::Le => out.push_str(" <= "),
        CmpOp::Between(lo, hi) => {
            out.push_str(" BETWEEN ");
            literal(out, lo);
            out.push_str(" AND ");
            return literal(out, hi);
        }
        CmpOp::In(vals) => {
            out.push_str(" IN (");
            for (i, v) in vals.iter().enumerate() {
                out.push_str(if i > 0 { ", " } else { "" });
                literal(out, v);
            }
            return out.push(')');
        }
    }
    literal(out, &pred.value);
}

fn render_block(out: &mut String, block: &QueryBlock, projection: &str) {
    let root = block.root;
    let _ = write!(out, "SELECT DISTINCT t0.{projection}\nFROM {root} AS t0");
    for (i, step) in block.semi_joins.iter().flat_map(|sj| &sj.path).enumerate() {
        let _ = write!(out, ", {} AS t{}", step.table, i + 1);
    }
    let mut sep = "\nWHERE ";
    for pred in &block.root_predicates {
        out.push_str(std::mem::replace(&mut sep, "\n  AND "));
        render_pred(out, 0, pred);
    }
    let mut alias = 0;
    for sj in &block.semi_joins {
        let mut parent = 0;
        for step in &sj.path {
            alias += 1;
            out.push_str(std::mem::replace(&mut sep, "\n  AND "));
            let (pc, cc) = (step.parent_column, step.child_column);
            let _ = write!(out, "t{parent}.{pc} = t{alias}.{cc}");
            for pred in &step.predicates {
                out.push_str(sep);
                render_pred(out, alias, pred);
            }
            parent = alias;
        }
    }

    // HAVING counts each aggregated semi-join on its path's first alias.
    if block.semi_joins.iter().any(|sj| sj.min_count > 1) {
        let _ = write!(out, "\nGROUP BY t0.{projection}\nHAVING ");
        let (mut sep, mut first) = ("count(DISTINCT ", 1);
        for sj in &block.semi_joins {
            if sj.min_count > 1 {
                out.push_str(std::mem::replace(&mut sep, " AND count(DISTINCT "));
                if !sj.path.is_empty() {
                    let _ = write!(out, "t{first}");
                }
                let _ = write!(out, ".*) >= {}", sj.min_count);
            }
            first += sj.path.len();
        }
    }
}

/// Render a full query (blocks joined with `INTERSECT`).
pub fn to_sql(query: &Query) -> String {
    let mut out = String::new();
    for (i, block) in query.blocks.iter().enumerate() {
        out.push_str(if i > 0 { "\nINTERSECT\n" } else { "" });
        render_block(&mut out, block, query.projection.as_str());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{PathStep, SemiJoin};

    #[test]
    fn renders_spj_with_semi_join() {
        let q = Query::single(
            QueryBlock::new("academics").semi_join(SemiJoin::exists(vec![PathStep::new(
                "research", "id", "aid",
            )
            .filter(Pred::eq("interest", "data management"))])),
            "name",
        );
        let sql = to_sql(&q);
        assert!(sql.contains("SELECT DISTINCT t0.name"));
        assert!(sql.contains("FROM academics AS t0, research AS t1"));
        assert!(sql.contains("t0.id = t1.aid"));
        assert!(sql.contains("t1.interest = 'data management'"));
        assert!(!sql.contains("GROUP BY"));
    }

    #[test]
    fn renders_having_for_aggregated_semi_join() {
        let q = Query::single(
            QueryBlock::new("person").semi_join(SemiJoin::at_least(
                40,
                vec![
                    PathStep::new("castinfo", "id", "person_id"),
                    PathStep::new("movietogenre", "movie_id", "movie_id"),
                    PathStep::new("genre", "genre_id", "id").filter(Pred::eq("name", "Comedy")),
                ],
            )),
            "name",
        );
        let sql = to_sql(&q);
        assert!(sql.contains("GROUP BY t0.name"));
        assert!(sql.contains(">= 40"));
        assert!(sql.contains("genre AS t3"));
    }

    #[test]
    fn renders_intersect() {
        let b = QueryBlock::new("person");
        let q = Query::intersect(vec![b.clone(), b], "name");
        assert!(to_sql(&q).contains("INTERSECT"));
    }

    #[test]
    fn renders_between_and_in() {
        let q = Query::single(
            QueryBlock::new("person")
                .filter(Pred::between("age", 41, 45))
                .filter(Pred::in_set(
                    "gender",
                    vec![Value::text("Male"), Value::text("Female")],
                )),
            "name",
        );
        let sql = to_sql(&q);
        assert!(sql.contains("t0.age BETWEEN 41 AND 45"));
        assert!(sql.contains("t0.gender IN ('Male', 'Female')"));
    }

    #[test]
    fn escapes_quotes_in_literals() {
        let q = Query::single(
            QueryBlock::new("movie").filter(Pred::eq("title", "It's a Wonderful Life")),
            "title",
        );
        assert!(to_sql(&q).contains("'It''s a Wonderful Life'"));
    }
}
