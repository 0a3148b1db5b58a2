//! Query executor.
//!
//! Blocks are evaluated root-first: root rows are filtered by local
//! predicates, then each semi-join path is folded bottom-up into a
//! `join-key → tuple count` map, so a whole path costs one scan per step
//! regardless of root cardinality. Intersection intersects root row-id
//! bitmaps.
//!
//! Hot-path layout: predicates are compiled once per scan into the shared
//! **batch kernels** of [`squid_relation::kernel`] — typed 64-row match
//! kernels over the table's columnar view. A block scan evaluates whole
//! `u64` match words: each predicate kernel emits a word per 64 rows,
//! conjunctions AND words (not rows), and the result words are stored
//! directly into the output [`RowSet`], so the executor performs no
//! `Value` construction, cloning, or string work per row. Semi-join fold
//! maps are keyed by the kernel module's raw `u64` join-key encoding
//! (symbol id / integer bits) whenever both sides of a link share a type,
//! falling back to `Value` keys only for heterogeneous joins.

use squid_relation::{
    kernel, ColumnVec, DataType, Database, FxHashMap, RelationError, Result, RowId, RowSet,
    ScanPlan, Table, Value,
};

use crate::ast::{PathStep, Pred, Query, QueryBlock, SemiJoin};

/// Result of executing a [`Query`]: the qualifying root rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultSet {
    /// Root table the ids refer to.
    pub root: String,
    /// Qualifying root row ids (a dense bitmap; iterates ascending).
    pub rows: RowSet,
}

impl ResultSet {
    /// Output cardinality (number of result tuples).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows qualify.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Materialize the projected column values in row-id order.
    pub fn project(&self, db: &Database, column: &str) -> Result<Vec<Value>> {
        let table = db.table(&self.root)?;
        let ci =
            table
                .schema()
                .column_index(column)
                .ok_or_else(|| RelationError::UnknownColumn {
                    table: self.root.clone(),
                    column: column.to_string(),
                })?;
        // Kernel gather: dtype dispatch hoisted out of the per-row loop.
        Ok(kernel::gather(table.column(ci), &self.rows))
    }

    /// Size of the intersection with another result set (same root assumed).
    pub fn intersection_size(&self, other: &ResultSet) -> usize {
        self.rows.intersection_size(&other.rows)
    }
}

fn column_index(table: &Table, column: &str) -> Result<usize> {
    table
        .schema()
        .column_index(column)
        .ok_or_else(|| RelationError::UnknownColumn {
            table: table.name().to_string(),
            column: column.to_string(),
        })
}

/// Compile a predicate list into a batch [`ScanPlan`]: each predicate
/// becomes a typed 64-row kernel against its column's storage (the shared
/// kernel module owns the bounds translation, including the −0.0 / NaN /
/// 2^63 fallback rules), and the plan ANDs their match words.
fn compile_plan<'t>(table: &'t Table, preds: &[Pred]) -> Result<ScanPlan<'t>> {
    let kernels = preds
        .iter()
        .map(|p| {
            let ci = column_index(table, p.column.as_str())?;
            let dtype = table.schema().columns[ci].dtype;
            Ok(kernel::compile(table.column(ci), dtype, &p.spec()))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(ScanPlan::new(kernels, table.len()))
}

/// A semi-join fold result: `join-key → tuple count`, keyed by a raw
/// `u64` encoding of the producing column's values plus their type. Built
/// by one hash probe per surviving row of the folded scan.
pub struct CountMap {
    dtype: DataType,
    map: FxHashMap<u64, u64>,
}

impl CountMap {
    /// Count for a raw join key (0 when absent).
    #[inline]
    fn get(&self, key: u64) -> u64 {
        self.map.get(&key).copied().unwrap_or(0)
    }

    /// Count for the join key of `col` at `row` (0 when absent/null).
    /// Requires `dtype == self.dtype`; heterogeneous links go through
    /// [`CountMap::into_lookup`], which decodes the map ONCE.
    pub fn count_at(&self, col: &ColumnVec, dtype: DataType, row: RowId) -> u64 {
        debug_assert_eq!(dtype, self.dtype, "use into_lookup for mixed types");
        kernel::join_key_at(col, self.dtype, row)
            .map(|k| self.get(k))
            .unwrap_or(0)
    }

    /// Iterate the aggregated `(key, count)` pairs.
    fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.map.iter().map(|(&k, &w)| (k, w))
    }

    /// Specialize this map for probes from a column of `probe_dtype`:
    /// same-typed links keep the raw `u64` keys; heterogeneous links
    /// (e.g. Int joined against Float) decode every key into a
    /// `Value`-keyed map once, so each probe stays O(1) and numeric
    /// cross-type equality (3 == 3.0) keeps holding.
    fn into_lookup(self, probe_dtype: DataType) -> CountLookup {
        if probe_dtype == self.dtype {
            CountLookup::Typed(self)
        } else {
            let by_value: FxHashMap<Value, u64> = self
                .iter()
                .map(|(k, w)| (kernel::key_to_value(self.dtype, k), w))
                .collect();
            CountLookup::ByValue(by_value)
        }
    }
}

/// A [`CountMap`] specialized to the probing column's type.
enum CountLookup {
    Typed(CountMap),
    ByValue(FxHashMap<Value, u64>),
}

impl CountLookup {
    #[inline]
    fn count_at(&self, col: &ColumnVec, dtype: DataType, row: RowId) -> u64 {
        match self {
            CountLookup::Typed(map) => map.count_at(col, dtype, row),
            CountLookup::ByValue(map) => {
                let probe = col.value_at(row);
                if probe.is_null() {
                    0
                } else {
                    map.get(&probe).copied().unwrap_or(0)
                }
            }
        }
    }
}

/// Executes queries against a database.
pub struct Executor<'a> {
    db: &'a Database,
}

impl<'a> Executor<'a> {
    /// New executor borrowing the database.
    pub fn new(db: &'a Database) -> Self {
        Executor { db }
    }

    /// Execute a query, returning the qualifying root rows.
    pub fn execute(&self, query: &Query) -> Result<ResultSet> {
        if query.blocks.is_empty() {
            return Err(RelationError::InvalidSchema(
                "query must have at least one block".into(),
            ));
        }
        let root = query.blocks[0].root;
        let mut rows: Option<RowSet> = None;
        for block in &query.blocks {
            if block.root != root {
                return Err(RelationError::InvalidSchema(
                    "all intersected blocks must share the root table".into(),
                ));
            }
            let this = self.execute_block(block)?;
            rows = Some(match rows {
                None => this,
                Some(mut prev) => {
                    prev.intersect_with(&this);
                    prev
                }
            });
        }
        Ok(ResultSet {
            root: root.as_str().to_string(),
            rows: rows.unwrap_or_default(),
        })
    }

    /// Execute one block: evaluate the root predicates as a batch kernel
    /// plan (64 match bits per iteration, conjunction = word AND), then
    /// thin each surviving word through the semi-join count checks before
    /// storing it into the result bitmap.
    fn execute_block(&self, block: &QueryBlock) -> Result<RowSet> {
        let root_table = self.db.table(block.root.as_str())?;
        let plan = compile_plan(root_table, &block.root_predicates)?;

        // Fold every semi-join into a per-root-join-column count map first.
        struct SjCheck<'t> {
            col: &'t ColumnVec,
            dtype: DataType,
            min_count: u64,
            lookup: CountLookup,
        }
        let n = root_table.len();
        let mut out = RowSet::with_universe(n);
        // Fold (and validate) every semi-join BEFORE consulting the root
        // plan: a block whose predicates can never match must still
        // surface unknown-table/column errors from its join paths.
        let mut checks: Vec<SjCheck<'_>> = Vec::with_capacity(block.semi_joins.len());
        for sj in &block.semi_joins {
            let (root_ci, map) = self.fold_semi_join(root_table, sj)?;
            let dtype = root_table.schema().columns[root_ci].dtype;
            checks.push(SjCheck {
                col: root_table.column(root_ci),
                dtype,
                min_count: sj.min_count,
                lookup: map.into_lookup(dtype),
            });
        }
        if plan.is_never() {
            return Ok(out);
        }

        for b in 0..plan.num_batches() {
            let mut w = plan.eval_word(b);
            if w != 0 && !checks.is_empty() {
                let mut bits = w;
                while bits != 0 {
                    let lane = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let rid = b * 64 + lane;
                    for c in &checks {
                        if c.lookup.count_at(c.col, c.dtype, rid) < c.min_count {
                            w &= !(1u64 << lane);
                            break;
                        }
                    }
                }
            }
            out.set_word(b, w);
        }
        Ok(out)
    }

    /// Fold a semi-join path bottom-up. Returns the root column index the
    /// first step joins on, and a map `root-join-key → tuple count`.
    pub(crate) fn fold_semi_join(
        &self,
        root_table: &Table,
        sj: &SemiJoin,
    ) -> Result<(usize, CountMap)> {
        if sj.path.is_empty() {
            return Err(RelationError::InvalidSchema(
                "semi-join path must be non-empty".into(),
            ));
        }
        // `deeper` maps a key of this step's outgoing join column (the
        // column the next step's child joins against) to the tuple count of
        // the remaining path suffix.
        let mut deeper: Option<CountMap> = None;
        for (i, step) in sj.path.iter().enumerate().rev() {
            let table = self.db.table(step.table.as_str())?;
            let plan = compile_plan(table, &step.predicates)?;
            let child_ci = column_index(table, step.child_column.as_str())?;
            let child_col = table.column(child_ci);
            let child_dtype = table.schema().columns[child_ci].dtype;
            // Column in THIS table that the next (deeper) step joins on,
            // with the deeper map specialized to its type up front.
            let next_parent = match (sj.path.get(i + 1), deeper.take()) {
                (Some(next), Some(deep)) => {
                    let ci = column_index(table, next.parent_column.as_str())?;
                    let dtype = table.schema().columns[ci].dtype;
                    Some((table.column(ci), dtype, deep.into_lookup(dtype)))
                }
                _ => None,
            };
            // Batch scan: local predicates are evaluated 64 rows at a
            // time; only rows surviving the ANDed word reach the fold
            // (one hash probe each). Null join keys and zero
            // deeper-counts never emit.
            let mut map: FxHashMap<u64, u64> = FxHashMap::default();
            plan.for_each_match(|row| {
                let w = match &next_parent {
                    Some((col, dtype, deep)) => match deep.count_at(col, *dtype, row) {
                        0 => return,
                        w => w,
                    },
                    None => 1,
                };
                if let Some(key) = kernel::join_key_at(child_col, child_dtype, row) {
                    *map.entry(key).or_insert(0) += w;
                }
            });
            deeper = Some(CountMap {
                dtype: child_dtype,
                map,
            });
        }
        let root_ci = column_index(root_table, sj.path[0].parent_column.as_str())?;
        Ok((root_ci, deeper.expect("non-empty path")))
    }
}

/// Convenience: execute and return projected values.
pub fn run_query(db: &Database, query: &Query) -> Result<Vec<Value>> {
    let rs = Executor::new(db).execute(query)?;
    rs.project(db, query.projection.as_str())
}

/// Walk a semi-join path for ONE root row and count matching tuples.
/// Used by tests as an oracle against the folded evaluation.
pub fn count_path_for_row(
    db: &Database,
    root_table: &Table,
    row: RowId,
    sj: &SemiJoin,
) -> Result<u64> {
    fn rec(db: &Database, key: &Value, path: &[PathStep]) -> Result<u64> {
        let Some(step) = path.first() else {
            return Ok(1);
        };
        let table = db.table(step.table.as_str())?;
        let child_ci = column_index(table, step.child_column.as_str())?;
        let preds: Vec<(usize, &Pred)> = step
            .predicates
            .iter()
            .map(|p| Ok((column_index(table, p.column.as_str())?, p)))
            .collect::<Result<_>>()?;
        let mut total = 0u64;
        'rows: for (_, row) in table.iter() {
            if &row[child_ci] != key {
                continue;
            }
            for (ci, pred) in &preds {
                if !pred.matches(&row[*ci]) {
                    continue 'rows;
                }
            }
            let next_key = match path.get(1) {
                Some(next) => {
                    let ci = column_index(table, next.parent_column.as_str())?;
                    Some(row[ci])
                }
                None => None,
            };
            total += match next_key {
                Some(k) => rec(db, &k, &path[1..])?,
                None => 1,
            };
        }
        Ok(total)
    }
    let root_ci = column_index(root_table, sj.path[0].parent_column.as_str())?;
    let key = root_table.cell(row, root_ci).unwrap_or(Value::Null);
    if key.is_null() {
        return Ok(0);
    }
    rec(db, &key, &sj.path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{PathStep, Pred, QueryBlock, SemiJoin};
    use squid_relation::{Column, DataType, TableRole, TableSchema};

    /// The CS-academics database of Figure 1.
    fn academics_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "academics",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("name", DataType::Text),
                ],
            )
            .with_primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "research",
                vec![
                    Column::new("aid", DataType::Int),
                    Column::new("interest", DataType::Text),
                ],
            )
            .with_role(TableRole::Fact)
            .with_foreign_key("aid", "academics", 0),
        )
        .unwrap();
        let people = [
            (100, "Thomas Cormen"),
            (101, "Dan Suciu"),
            (102, "Jiawei Han"),
            (103, "Sam Madden"),
            (104, "James Kurose"),
            (105, "Joseph Hellerstein"),
        ];
        for (id, name) in people {
            db.insert("academics", vec![Value::Int(id), Value::text(name)])
                .unwrap();
        }
        let interests = [
            (100, "algorithms"),
            (101, "data management"),
            (102, "data mining"),
            (103, "data management"),
            (103, "distributed systems"),
            (104, "computer networks"),
            (105, "data management"),
            (105, "distributed systems"),
        ];
        for (aid, interest) in interests {
            db.insert("research", vec![Value::Int(aid), Value::text(interest)])
                .unwrap();
        }
        db
    }

    #[test]
    fn q1_selects_everyone() {
        let db = academics_db();
        let q = Query::single(QueryBlock::new("academics"), "name");
        let names = run_query(&db, &q).unwrap();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn q2_data_management_researchers() {
        // Q2 from Example 1.1.
        let db = academics_db();
        let q = Query::single(
            QueryBlock::new("academics").semi_join(SemiJoin::exists(vec![PathStep::new(
                "research", "id", "aid",
            )
            .filter(Pred::eq("interest", "data management"))])),
            "name",
        );
        let mut names: Vec<String> = run_query(&db, &q)
            .unwrap()
            .iter()
            .map(|v| v.to_string())
            .collect();
        names.sort();
        assert_eq!(names, vec!["Dan Suciu", "Joseph Hellerstein", "Sam Madden"]);
    }

    #[test]
    fn having_count_filters_by_multiplicity() {
        let db = academics_db();
        // Academics with at least 2 research interests.
        let q = Query::single(
            QueryBlock::new("academics").semi_join(SemiJoin::at_least(
                2,
                vec![PathStep::new("research", "id", "aid")],
            )),
            "name",
        );
        let mut names: Vec<String> = run_query(&db, &q)
            .unwrap()
            .iter()
            .map(|v| v.to_string())
            .collect();
        names.sort();
        assert_eq!(names, vec!["Joseph Hellerstein", "Sam Madden"]);
    }

    #[test]
    fn intersection_of_blocks() {
        let db = academics_db();
        let dm = QueryBlock::new("academics").semi_join(SemiJoin::exists(vec![PathStep::new(
            "research", "id", "aid",
        )
        .filter(Pred::eq("interest", "data management"))]));
        let ds = QueryBlock::new("academics").semi_join(SemiJoin::exists(vec![PathStep::new(
            "research", "id", "aid",
        )
        .filter(Pred::eq("interest", "distributed systems"))]));
        let q = Query::intersect(vec![dm, ds], "name");
        let mut names: Vec<String> = run_query(&db, &q)
            .unwrap()
            .iter()
            .map(|v| v.to_string())
            .collect();
        names.sort();
        assert_eq!(names, vec!["Joseph Hellerstein", "Sam Madden"]);
    }

    #[test]
    fn folded_counts_agree_with_naive_oracle() {
        let db = academics_db();
        let sj = SemiJoin::at_least(2, vec![PathStep::new("research", "id", "aid")]);
        let root = db.table("academics").unwrap();
        let exec = Executor::new(&db);
        let (root_ci, map) = exec.fold_semi_join(root, &sj).unwrap();
        let col = root.column(root_ci);
        let dtype = root.schema().columns[root_ci].dtype;
        for (rid, _) in root.iter() {
            let folded = map.count_at(col, dtype, rid);
            let oracle = count_path_for_row(&db, root, rid, &sj).unwrap();
            assert_eq!(folded, oracle, "row {rid}");
        }
    }

    #[test]
    fn empty_result_for_unsatisfiable_predicate() {
        let db = academics_db();
        let q = Query::single(
            QueryBlock::new("academics").filter(Pred::eq("name", "Nobody")),
            "name",
        );
        let rs = Executor::new(&db).execute(&q).unwrap();
        assert!(rs.is_empty());
        assert_eq!(rs.len(), 0);
    }

    #[test]
    fn text_predicate_for_never_interned_value_matches_nothing() {
        let db = academics_db();
        // A probe string no cell ever contained: the compiled predicate
        // must short-circuit to Never without growing the dictionary.
        let q = Query::single(
            QueryBlock::new("academics").semi_join(SemiJoin::exists(vec![PathStep::new(
                "research", "id", "aid",
            )
            .filter(Pred::eq("interest", "quantum basket weaving"))])),
            "name",
        );
        assert!(run_query(&db, &q).unwrap().is_empty());
    }

    #[test]
    fn unknown_column_is_an_error() {
        let db = academics_db();
        let q = Query::single(
            QueryBlock::new("academics").filter(Pred::eq("nope", 1)),
            "name",
        );
        assert!(Executor::new(&db).execute(&q).is_err());
    }

    #[test]
    fn never_predicate_still_surfaces_semi_join_errors() {
        // A root predicate that can never match must not short-circuit
        // semi-join validation: broken join paths stay errors.
        let db = academics_db();
        let q = Query::single(
            QueryBlock::new("academics")
                .filter(Pred::eq("id", "not-an-int")) // Never on an Int column
                .semi_join(SemiJoin::exists(vec![PathStep::new(
                    "missing", "id", "aid",
                )])),
            "name",
        );
        assert!(Executor::new(&db).execute(&q).is_err());
    }

    #[test]
    fn unknown_root_is_an_error() {
        let db = academics_db();
        let q = Query::single(QueryBlock::new("missing"), "name");
        assert!(Executor::new(&db).execute(&q).is_err());
    }

    #[test]
    fn mismatched_intersection_roots_rejected() {
        let db = academics_db();
        let q = Query::intersect(
            vec![QueryBlock::new("academics"), QueryBlock::new("research")],
            "name",
        );
        assert!(Executor::new(&db).execute(&q).is_err());
    }

    #[test]
    fn projection_returns_values_in_row_order() {
        let db = academics_db();
        let q = Query::single(QueryBlock::new("academics"), "name");
        let rs = Executor::new(&db).execute(&q).unwrap();
        let names = rs.project(&db, "name").unwrap();
        assert_eq!(names[0], Value::text("Thomas Cormen"));
    }

    #[test]
    fn intersection_size_helper() {
        let db = academics_db();
        let all = Executor::new(&db)
            .execute(&Query::single(QueryBlock::new("academics"), "name"))
            .unwrap();
        assert_eq!(all.intersection_size(&all), 6);
    }

    #[test]
    fn numeric_predicates_match_value_semantics() {
        // Int column probed with float bounds: 3 == 3.0, 3 >= 2.5 etc.
        let mut db = Database::new();
        db.create_table(TableSchema::new("t", vec![Column::new("x", DataType::Int)]))
            .unwrap();
        for i in 0..10i64 {
            db.insert("t", vec![Value::Int(i)]).unwrap();
        }
        db.insert("t", vec![Value::Null]).unwrap();
        let run = |pred: Pred| {
            run_query(&db, &Query::single(QueryBlock::new("t").filter(pred), "x"))
                .unwrap()
                .len()
        };
        assert_eq!(run(Pred::eq("x", Value::Float(3.0))), 1);
        assert_eq!(run(Pred::eq("x", Value::Float(3.5))), 0);
        assert_eq!(run(Pred::ge("x", Value::Float(2.5))), 7);
        assert_eq!(run(Pred::le("x", Value::Float(2.5))), 3);
        assert_eq!(
            run(Pred::between("x", Value::Float(1.5), Value::Float(4.0))),
            3
        );
        // Nulls never match, even for ranges covering the 0 sentinel.
        assert_eq!(run(Pred::between("x", Value::Int(-5), Value::Int(100))), 10);
    }
}
