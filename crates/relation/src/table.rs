//! In-memory tables stored column by column: per-column typed vectors plus
//! a null bitmap, which the executor's predicate scans, semi-join folds, and
//! the αDB statistics pass read so their inner loops touch contiguous
//! `i64`/`f64`/`u32` data instead of matching `Value` enums per cell. Point
//! reads ([`Table::row`], [`Table::cell`], [`Table::iter`]) rebuild `Copy`
//! [`Value`]s from the columns; there is no row-major copy.
//!
//! Tables are append-only: rows get dense ids (`RowId`) equal to their
//! insertion position, which indexes, bitmaps, and the αDB rely on. Every
//! float cell is a [`Real`]: a NaN is stored as NULL and `-0.0` as `0.0`,
//! whichever write path carries it, and a cell is read back as a `Real`
//! without a second check.

use std::sync::OnceLock;

use crate::error::{RelationError, Result};
use crate::rowset::RowSet;
use crate::schema::TableSchema;
use crate::value::{DataType, Real, Value};

/// Dense row identifier within a single table.
pub type RowId = usize;

/// Sentinel stored in text columns at null positions (never a valid
/// interner id in practice — the dictionary would need 4 billion strings).
pub const NULL_SYM: u32 = u32::MAX;

/// Typed storage of one column (sentinels occupy null positions).
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// `i64` cells (sentinel 0 at nulls).
    Int(Vec<i64>),
    /// `f64` cells (sentinel 0.0 at nulls).
    Float(Vec<f64>),
    /// Interned-symbol ids (sentinel [`NULL_SYM`] at nulls).
    Text(Vec<u32>),
    /// Boolean cells (sentinel `false` at nulls).
    Bool(Vec<bool>),
}

impl ColumnData {
    /// The declared type this storage holds.
    pub fn dtype(&self) -> DataType {
        match self {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Text(_) => DataType::Text,
            ColumnData::Bool(_) => DataType::Bool,
        }
    }
}

/// One column: typed data plus a null bitmap.
#[derive(Debug, Clone)]
pub struct ColumnVec {
    data: ColumnData,
    nulls: RowSet,
    /// The cells as `Value`s, built by the first [`Table::column_values`]
    /// call and dropped by the next insert.
    values: OnceLock<Vec<Value>>,
}

impl ColumnVec {
    fn new(dtype: DataType) -> Self {
        let data = match dtype {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Text => ColumnData::Text(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
        };
        ColumnVec {
            data,
            nulls: RowSet::new(),
            values: OnceLock::new(),
        }
    }

    fn reserve(&mut self, additional: usize) {
        match &mut self.data {
            ColumnData::Int(xs) => xs.reserve(additional),
            ColumnData::Float(xs) => xs.reserve(additional),
            ColumnData::Text(xs) => xs.reserve(additional),
            ColumnData::Bool(xs) => xs.reserve(additional),
        }
    }

    fn push(&mut self, row: RowId, v: &Value) {
        self.values.take();
        if v.is_null() {
            self.nulls.insert(row);
        }
        match &mut self.data {
            ColumnData::Int(xs) => xs.push(v.as_int().unwrap_or(0)),
            ColumnData::Float(xs) => xs.push(v.as_float().unwrap_or(0.0)),
            ColumnData::Text(xs) => xs.push(v.as_sym().map(|s| s.id()).unwrap_or(NULL_SYM)),
            ColumnData::Bool(xs) => xs.push(v.as_bool().unwrap_or(false)),
        }
    }

    /// The typed storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Estimated heap bytes of the typed storage, the null bitmap and (once
    /// built) the [`Table::column_values`] cells.
    pub fn heap_bytes(&self) -> usize {
        use crate::heap::vec_bytes;
        self.nulls.heap_bytes()
            + self.values.get().map_or(0, vec_bytes)
            + match &self.data {
                ColumnData::Int(xs) => vec_bytes(xs),
                ColumnData::Float(xs) => vec_bytes(xs),
                ColumnData::Text(xs) => vec_bytes(xs),
                ColumnData::Bool(xs) => vec_bytes(xs),
            }
    }

    /// Number of cells (equals the owning table's row count).
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(xs) => xs.len(),
            ColumnData::Float(xs) => xs.len(),
            ColumnData::Text(xs) => xs.len(),
            ColumnData::Bool(xs) => xs.len(),
        }
    }

    /// True iff the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The declared type of this column's storage.
    pub fn dtype(&self) -> DataType {
        self.data.dtype()
    }

    /// Dense `i64` cells, if this is an Int column.
    pub fn ints(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int(xs) => Some(xs),
            _ => None,
        }
    }

    /// Dense `f64` cells, if this is a Float column.
    pub fn floats(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float(xs) => Some(xs),
            _ => None,
        }
    }

    /// Dense interned-symbol ids, if this is a Text column.
    pub fn syms(&self) -> Option<&[u32]> {
        match &self.data {
            ColumnData::Text(xs) => Some(xs),
            _ => None,
        }
    }

    /// Dense boolean cells, if this is a Bool column.
    pub fn bools(&self) -> Option<&[bool]> {
        match &self.data {
            ColumnData::Bool(xs) => Some(xs),
            _ => None,
        }
    }

    /// Null bitmap (rows whose cell is NULL).
    pub fn nulls(&self) -> &RowSet {
        &self.nulls
    }

    /// Is the cell at `row` NULL?
    pub fn is_null(&self, row: RowId) -> bool {
        self.nulls.contains(row)
    }

    /// Non-null `i64` at `row` (Int columns only).
    pub fn int_at(&self, row: RowId) -> Option<i64> {
        if self.is_null(row) {
            return None;
        }
        self.ints().and_then(|xs| xs.get(row).copied())
    }

    /// Non-null numeric value at `row`, widened to `f64` (Int or Float).
    pub fn float_at(&self, row: RowId) -> Option<f64> {
        if self.is_null(row) {
            return None;
        }
        match &self.data {
            ColumnData::Int(xs) => xs.get(row).map(|&x| x as f64),
            ColumnData::Float(xs) => xs.get(row).copied(),
            _ => None,
        }
    }

    /// Non-null symbol id at `row` (Text columns only).
    pub fn sym_at(&self, row: RowId) -> Option<u32> {
        match &self.data {
            ColumnData::Text(xs) => xs.get(row).copied().filter(|&s| s != NULL_SYM),
            _ => None,
        }
    }

    /// Reconstruct the cell as a [`Value`] (a `Copy` scalar; no heap work).
    pub fn value_at(&self, row: RowId) -> Value {
        if self.is_null(row) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(xs) => Value::Int(xs[row]),
            ColumnData::Float(xs) => Value::Float(Real::from_cell(xs[row])),
            ColumnData::Text(xs) => Value::Text(crate::intern::Sym::from_id(xs[row])),
            ColumnData::Bool(xs) => Value::Bool(xs[row]),
        }
    }
}

/// Typed staging storage for one column of a columnar bulk build (see
/// [`Table::from_columns`]): push cells through the typed methods — no
/// `Value` wrapping, no per-row type dispatch — then hand the builders to
/// the table constructor, which takes them as the table's columns.
#[derive(Debug, Clone)]
pub struct ColumnBuilder {
    data: ColumnData,
    nulls: RowSet,
    len: usize,
}

impl ColumnBuilder {
    /// Empty builder for a column of `dtype`.
    pub fn new(dtype: DataType) -> Self {
        Self::with_capacity(dtype, 0)
    }

    /// Empty builder pre-sized for `cap` rows.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        let data = match dtype {
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Text => ColumnData::Text(Vec::with_capacity(cap)),
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
        };
        ColumnBuilder {
            data,
            nulls: RowSet::new(),
            len: 0,
        }
    }

    /// The builder's column type.
    pub fn dtype(&self) -> DataType {
        self.data.dtype()
    }

    /// Number of cells pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no cells were pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a NULL cell (stores the type's sentinel and sets the bitmap).
    pub fn push_null(&mut self) {
        self.nulls.insert(self.len);
        match &mut self.data {
            ColumnData::Int(xs) => xs.push(0),
            ColumnData::Float(xs) => xs.push(0.0),
            ColumnData::Text(xs) => xs.push(NULL_SYM),
            ColumnData::Bool(xs) => xs.push(false),
        }
        self.len += 1;
    }

    /// Append an `i64` cell. Panics if the builder is not an Int column —
    /// the typed push methods are the no-check fast path; mixed callers
    /// use [`ColumnBuilder::push_value`].
    pub fn push_int(&mut self, v: i64) {
        match &mut self.data {
            ColumnData::Int(xs) => xs.push(v),
            _ => panic!("push_int on a {} column", self.dtype()),
        }
        self.len += 1;
    }

    /// Append an `f64` cell (Float columns only), stored as [`Real::new`]
    /// decides: a NaN is a NULL cell.
    pub fn push_float(&mut self, v: f64) {
        let ColumnData::Float(xs) = &mut self.data else {
            panic!("push_float on a {} column", self.dtype());
        };
        match Real::new(v) {
            Some(x) => xs.push(x.get()),
            None => {
                xs.push(0.0);
                self.nulls.insert(self.len);
            }
        }
        self.len += 1;
    }

    /// Append an interned-symbol cell (Text columns only).
    pub fn push_sym(&mut self, s: crate::intern::Sym) {
        match &mut self.data {
            ColumnData::Text(xs) => xs.push(s.id()),
            _ => panic!("push_sym on a {} column", self.dtype()),
        }
        self.len += 1;
    }

    /// Assemble a builder directly from bulk-decoded parts: the typed
    /// storage and its null bitmap, with no per-cell push. The caller
    /// guarantees three invariants the push methods normally maintain:
    /// every set bit in `nulls` addresses a cell below `data`'s length,
    /// null positions hold the type's sentinel value, and every float cell
    /// is its own [`Real`].
    pub fn from_parts(data: ColumnData, nulls: RowSet) -> ColumnBuilder {
        let len = match &data {
            ColumnData::Int(xs) => xs.len(),
            ColumnData::Float(xs) => xs.len(),
            ColumnData::Text(xs) => xs.len(),
            ColumnData::Bool(xs) => xs.len(),
        };
        ColumnBuilder { data, nulls, len }
    }

    /// Append an arbitrary `Value`, type-checked (the generic path for
    /// callers holding row-oriented data).
    pub fn push_value(&mut self, v: &Value) -> Result<()> {
        match (v, &mut self.data) {
            (Value::Null, _) => self.push_null(),
            (Value::Int(x), ColumnData::Int(_)) => self.push_int(*x),
            (Value::Float(x), ColumnData::Float(_)) => self.push_float(x.get()),
            (Value::Text(s), ColumnData::Text(_)) => self.push_sym(*s),
            (Value::Bool(b), ColumnData::Bool(xs)) => {
                xs.push(*b);
                self.len += 1;
            }
            _ => {
                return Err(RelationError::TypeMismatch {
                    table: "<bulk>".to_string(),
                    column: "<bulk>".to_string(),
                    expected: self.dtype(),
                    got: v.data_type().expect("null handled above"),
                })
            }
        }
        Ok(())
    }

    fn into_column_vec(self) -> ColumnVec {
        ColumnVec {
            data: self.data,
            nulls: self.nulls,
            values: OnceLock::new(),
        }
    }
}

/// An in-memory table: a schema plus one typed column per schema column.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    len: usize,
    columns: Vec<ColumnVec>,
}

impl Table {
    /// Create an empty table.
    pub fn new(schema: TableSchema) -> Self {
        let columns = schema
            .columns
            .iter()
            .map(|c| ColumnVec::new(c.dtype))
            .collect();
        Table {
            schema,
            len: 0,
            columns,
        }
    }

    /// Columnar bulk constructor: take fully-built typed columns as the
    /// table's columns instead of type-checking cell by cell. Column count,
    /// per-column types, and equal lengths are validated once up front;
    /// after that no per-row checks run — bulk load and derived-relation
    /// materialization go through here.
    pub fn from_columns(schema: TableSchema, builders: Vec<ColumnBuilder>) -> Result<Table> {
        if builders.len() != schema.arity() {
            return Err(RelationError::ArityMismatch {
                table: schema.name.clone(),
                expected: schema.arity(),
                got: builders.len(),
            });
        }
        let len = builders.first().map(|b| b.len()).unwrap_or(0);
        for (b, c) in builders.iter().zip(&schema.columns) {
            if b.dtype() != c.dtype {
                return Err(RelationError::TypeMismatch {
                    table: schema.name.clone(),
                    column: c.name.clone(),
                    expected: c.dtype,
                    got: b.dtype(),
                });
            }
            if b.len() != len {
                return Err(RelationError::InvalidSchema(format!(
                    "{}: bulk columns have unequal lengths ({} vs {})",
                    schema.name,
                    len,
                    b.len()
                )));
            }
        }
        let columns = builders
            .into_iter()
            .map(ColumnBuilder::into_column_vec)
            .collect();
        Ok(Table {
            schema,
            len,
            columns,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Table name (shorthand for `schema().name`).
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Estimated heap bytes of the columns.
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(ColumnVec::heap_bytes).sum()
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pre-allocate space for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        for col in &mut self.columns {
            col.reserve(additional);
        }
    }

    /// Append a row after checking arity and column types. Returns its id.
    pub fn insert_slice(&mut self, row: &[Value]) -> Result<RowId> {
        if row.len() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                table: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        for (i, v) in row.iter().enumerate() {
            if let Some(dt) = v.data_type() {
                if dt != self.schema.columns[i].dtype {
                    return Err(RelationError::TypeMismatch {
                        table: self.schema.name.clone(),
                        column: self.schema.columns[i].name.clone(),
                        expected: self.schema.columns[i].dtype,
                        got: dt,
                    });
                }
            }
        }
        let id = self.len;
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(id, v);
        }
        self.len += 1;
        Ok(id)
    }

    /// Append a row (owned-vector convenience over [`Table::insert_slice`]).
    pub fn insert(&mut self, row: Vec<Value>) -> Result<RowId> {
        self.insert_slice(&row)
    }

    /// The cells of a row, rebuilt from the columns.
    pub fn row(&self, id: RowId) -> Option<Vec<Value>> {
        (id < self.len).then(|| self.row_at(id))
    }

    fn row_at(&self, id: RowId) -> Vec<Value> {
        self.columns.iter().map(|c| c.value_at(id)).collect()
    }

    /// A single cell, rebuilt from its column.
    pub fn cell(&self, id: RowId, column: usize) -> Option<Value> {
        let col = self.columns.get(column)?;
        (id < self.len).then(|| col.value_at(id))
    }

    /// One column.
    pub fn column(&self, column: usize) -> &ColumnVec {
        &self.columns[column]
    }

    /// Iterate `(row_id, row)` pairs, each row rebuilt from the columns.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, Vec<Value>)> + '_ {
        (0..self.len).map(move |i| (i, self.row_at(i)))
    }

    /// Iterate the values of one column (including nulls). The one borrowed
    /// read: the column's `Value`s are built on the first call and kept
    /// (counted by [`Table::heap_bytes`]) until the next insert.
    pub fn column_values(&self, column: usize) -> impl Iterator<Item = &Value> {
        let col = &self.columns[column];
        col.values
            .get_or_init(|| (0..self.len).map(|i| col.value_at(i)).collect())
            .iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Sym;
    use crate::schema::Column;
    use crate::value::DataType;

    fn table() -> Table {
        Table::new(TableSchema::new(
            "t",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
            ],
        ))
    }

    #[test]
    fn insert_and_read_back() {
        let mut t = table();
        let id = t.insert(vec![Value::Int(1), Value::text("a")]).unwrap();
        assert_eq!(id, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.cell(0, 1), Some(Value::text("a")));
        assert_eq!(t.cell(1, 1), None);
        assert_eq!(t.cell(0, 2), None);
        assert_eq!(t.row(0).unwrap()[0], Value::Int(1));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = table();
        let err = t.insert(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, RelationError::ArityMismatch { .. }));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = table();
        let err = t
            .insert(vec![Value::text("oops"), Value::text("a")])
            .unwrap_err();
        assert!(matches!(err, RelationError::TypeMismatch { .. }));
    }

    #[test]
    fn nulls_pass_type_check() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        assert!(t.cell(0, 1).unwrap().is_null());
    }

    #[test]
    fn row_ids_are_dense() {
        let mut t = table();
        for i in 0..5 {
            let id = t.insert(vec![Value::Int(i), Value::text("x")]).unwrap();
            assert_eq!(id as i64, i);
        }
        let ids: Vec<_> = t.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn column_values_iterates_in_order() {
        let mut t = table();
        t.insert(vec![Value::Int(2), Value::text("b")]).unwrap();
        t.insert(vec![Value::Int(1), Value::text("a")]).unwrap();
        let typed = t.column(0).heap_bytes();
        let vals: Vec<i64> = t.column_values(0).filter_map(|v| v.as_int()).collect();
        assert_eq!(vals, vec![2, 1]);
        // The built values are counted, and the next insert drops them.
        assert!(t.column(0).heap_bytes() >= typed + 2 * std::mem::size_of::<Value>());
        t.insert(vec![Value::Int(3), Value::text("c")]).unwrap();
        assert!(t.column(0).heap_bytes() < typed + 2 * std::mem::size_of::<Value>());
        let vals: Vec<i64> = t.column_values(0).filter_map(|v| v.as_int()).collect();
        assert_eq!(vals, vec![2, 1, 3]);
    }

    #[test]
    fn columnar_view_tracks_inserts() {
        let mut t = table();
        t.insert(vec![Value::Int(7), Value::text("alpha")]).unwrap();
        t.insert(vec![Value::Null, Value::text("beta")]).unwrap();
        t.insert(vec![Value::Int(9), Value::Null]).unwrap();

        let ids = t.column(0);
        assert_eq!(ids.ints(), Some(&[7, 0, 9][..]));
        assert!(!ids.is_null(0) && ids.is_null(1) && !ids.is_null(2));
        assert_eq!(ids.int_at(0), Some(7));
        assert_eq!(ids.int_at(1), None);
        assert_eq!(ids.float_at(2), Some(9.0));

        let names = t.column(1);
        let syms = names.syms().unwrap();
        assert_eq!(syms[0], Sym::intern("alpha").id());
        assert_eq!(syms[1], Sym::intern("beta").id());
        assert_eq!(syms[2], NULL_SYM);
        assert_eq!(names.sym_at(2), None);
        assert_eq!(names.value_at(0), Value::text("alpha"));
        assert_eq!(names.value_at(2), Value::Null);
    }

    #[test]
    fn bulk_constructor_agrees_with_row_inserts() {
        let mut by_rows = table();
        let mut ids = ColumnBuilder::with_capacity(DataType::Int, 5);
        let mut names = ColumnBuilder::with_capacity(DataType::Text, 5);
        for i in 0..5i64 {
            let name = if i == 2 {
                Value::Null
            } else {
                Value::text(format!("bulk{i}"))
            };
            by_rows.insert(vec![Value::Int(i), name]).unwrap();
            ids.push_int(i);
            if i == 2 {
                names.push_null();
            } else {
                names.push_sym(Sym::intern(&format!("bulk{i}")));
            }
        }
        let bulk = Table::from_columns(by_rows.schema().clone(), vec![ids, names]).unwrap();
        assert_eq!(bulk.len(), by_rows.len());
        for (rid, row) in by_rows.iter() {
            assert_eq!(bulk.row(rid).unwrap(), row);
            assert_eq!(bulk.column(0).value_at(rid), row[0]);
            assert_eq!(bulk.column(1).value_at(rid), row[1]);
        }
        assert_eq!(bulk.column(1).nulls().iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn bulk_constructor_validates_shape() {
        let schema = table().schema().clone();
        // Wrong column count.
        let err = Table::from_columns(schema.clone(), vec![ColumnBuilder::new(DataType::Int)])
            .unwrap_err();
        assert!(matches!(err, RelationError::ArityMismatch { .. }));
        // Wrong column type.
        let err = Table::from_columns(
            schema.clone(),
            vec![
                ColumnBuilder::new(DataType::Float),
                ColumnBuilder::new(DataType::Text),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, RelationError::TypeMismatch { .. }));
        // Unequal lengths.
        let mut a = ColumnBuilder::new(DataType::Int);
        a.push_int(1);
        let err =
            Table::from_columns(schema, vec![a, ColumnBuilder::new(DataType::Text)]).unwrap_err();
        assert!(matches!(err, RelationError::InvalidSchema(_)));
    }

    #[test]
    fn builder_generic_push_type_checks() {
        let mut b = ColumnBuilder::new(DataType::Int);
        b.push_value(&Value::Int(3)).unwrap();
        b.push_value(&Value::Null).unwrap();
        assert!(b.push_value(&Value::text("no")).is_err());
        assert_eq!(b.len(), 2);
    }

    /// NaN (either sign) is stored as NULL and `-0.0` as `0.0` by every
    /// write path: row inserts, the typed push and the generic push.
    #[test]
    fn float_cells_are_stored_canonical() {
        let inputs = [f64::NAN, -f64::NAN, -0.0, 0.0, 1.5];
        let want = [None, None, Some(0), Some(0), Some(1.5f64.to_bits())];
        let schema = TableSchema::new("f", vec![Column::new("x", DataType::Float)]);
        let mut by_rows = Table::new(schema.clone());
        let mut typed = ColumnBuilder::new(DataType::Float);
        let mut generic = ColumnBuilder::new(DataType::Float);
        for x in inputs {
            by_rows.insert(vec![Value::float(x)]).unwrap();
            typed.push_float(x);
            generic.push_value(&Value::float(x)).unwrap();
        }
        let typed = Table::from_columns(schema.clone(), vec![typed]).unwrap();
        let generic = Table::from_columns(schema, vec![generic]).unwrap();
        for t in [&by_rows, &typed, &generic] {
            let col = t.column(0);
            let stored: Vec<Option<u64>> = (0..t.len())
                .map(|r| col.float_at(r).map(f64::to_bits))
                .collect();
            assert_eq!(stored, want);
            assert_eq!(col.nulls().iter().collect::<Vec<_>>(), vec![0, 1]);
            assert_eq!(col.floats().unwrap()[..2], [0.0, 0.0], "null sentinels");
            assert_eq!(t.cell(0, 0), Some(Value::Null));
        }
    }

    #[test]
    fn heap_bytes_is_the_columns() {
        let column_sum = |t: &Table| -> usize {
            (0..t.schema().arity())
                .map(|c| t.column(c).heap_bytes())
                .sum()
        };
        let mut by_rows = table();
        let mut ids = ColumnBuilder::new(DataType::Int);
        let mut names = ColumnBuilder::new(DataType::Text);
        for i in 0..100i64 {
            let name = Value::text(format!("n{}", i % 13));
            by_rows.insert(vec![Value::Int(i), name]).unwrap();
            ids.push_int(i);
            names.push_value(&name).unwrap();
        }
        let bulk = Table::from_columns(by_rows.schema().clone(), vec![ids, names]).unwrap();
        for t in [&by_rows, &bulk] {
            assert!(t.heap_bytes() >= 100 * (8 + 4));
            assert_eq!(t.heap_bytes(), column_sum(t));
        }
    }
}
