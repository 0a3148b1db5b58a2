//! Batch predicate kernels: the single scan ABI shared by the query
//! executor, the αDB statistics pass, and the baseline feature extractors.
//!
//! A [`Kernel`] is a predicate compiled against one column's typed storage
//! that evaluates **64 rows per call**, returning a `u64` match word whose
//! bit `b` answers "does row `batch*64 + b` satisfy the predicate?". Words
//! are exactly [`crate::RowSet`]'s storage unit, so batch scans emit result
//! bitmaps with one store per 64 rows and conjunctions are single `AND`
//! instructions.
//!
//! Each kernel family has one implementation: a portable per-lane loop in
//! [`Kernel::eval_word`], with no CPU-specific variant and no runtime
//! dispatch. Predicate kernels run when the executor evaluates a query
//! (dataset set-up, the paper harness); a served or one-shot discovery
//! turn answers its filters from the αDB's postings and runs none.
//!
//! The typed kernels are kept because they are measurably faster than the
//! exact [`Kernel::Generic`] path alone. With `compile` returning
//! `Generic` for every predicate, Figure 11's total (`experiments fig11`,
//! IMDb and DBLP, best-of-7 per query) took 436 ms against the typed
//! kernels' 376 ms at 10× the generator defaults (1.16×, medians of 12
//! alternating pairs, typed faster in 9), and 26.6 against 24.9 ms at 1×
//! (1.07×, 13 pairs, typed faster in 9), on a 2-core x86-64 host. An
//! earlier series read 1.20× (10/10 pairs) and 1.08×.
//!
//! ## Word layout and tail handling
//!
//! Batch `i` covers rows `i*64 .. i*64+64`. The last batch of an `n`-row
//! column is a *tail*: kernels compute lane bits only for the `n % 64`
//! real rows (the typed slices simply end there), and the null-bitmap
//! kernel ANDs [`tail_mask`], so emitted words never contain bits beyond
//! the table. Null bitmaps participate as words too:
//! a lane is masked off by `!nulls.word(batch)` rather than a per-row
//! branch.
//!
//! ## Fallback rules
//!
//! Typed kernels exist for `i64`/`f64` range tests, symbol
//! equality/membership, boolean equality, and null tests. Everything
//! else — string ranges, numeric `IN`, and numeric bounds that cannot be
//! translated exactly (a NaN operand, or a float bound at magnitude
//! `2^53`+ where the scalar order's `i64 as f64` cell-widening is
//! lossy) — compiles to
//! [`Kernel::Generic`], which reconstructs each cell as a `Copy`
//! [`Value`] and evaluates the [`CmpSpec`] through `Value`'s total order.
//! The typed kernels are bit-for-bit equivalent to that order (including
//! `-0.0 < 0`, NaN above `+inf` via `total_cmp`, and exact int/float
//! widening); the property tests in `tests/kernel_prop.rs` assert parity
//! on adversarial columns.

use crate::rowset::RowSet;
use crate::table::{ColumnData, ColumnVec, RowId};
use crate::value::{DataType, Value};

/// A comparison against a column, with the exact semantics of the query
/// AST's selection predicates: NULL cells never match, numeric values
/// compare cross-type through `Value`'s total order.
#[derive(Debug, Clone, PartialEq)]
pub enum CmpSpec {
    /// `cell = value`.
    Eq(Value),
    /// `cell >= value`.
    Ge(Value),
    /// `cell <= value`.
    Le(Value),
    /// `low <= cell <= high`.
    Between(Value, Value),
    /// `cell IN (values)`.
    In(Vec<Value>),
}

impl CmpSpec {
    /// Scalar oracle: does `v` satisfy this comparison? This is the
    /// semantics every typed kernel must reproduce word-wide.
    #[inline]
    pub fn matches(&self, v: &Value) -> bool {
        if v.is_null() {
            return false;
        }
        match self {
            CmpSpec::Eq(x) => v == x,
            CmpSpec::Ge(x) => v >= x,
            CmpSpec::Le(x) => v <= x,
            CmpSpec::Between(lo, hi) => v >= lo && v <= hi,
            CmpSpec::In(set) => set.contains(v),
        }
    }
}

/// Bit `b` set ⇔ row `batch*64 + b` exists (is `< n`). ANDed into every
/// emitted word so tail batches never publish phantom rows.
#[inline]
pub fn tail_mask(n: usize, batch: usize) -> u64 {
    let base = batch * 64;
    if base >= n {
        0
    } else if n - base >= 64 {
        u64::MAX
    } else {
        (1u64 << (n - base)) - 1
    }
}

/// Number of 64-row batches covering an `n`-row column.
#[inline]
pub fn batch_count(n: usize) -> usize {
    n.div_ceil(64)
}

/// Call `f` with the absolute row id of every set bit of `word` (bit `b`
/// of batch `batch` is row `batch*64 + b`), in ascending order.
#[inline]
pub fn for_each_row(batch: usize, mut word: u64, mut f: impl FnMut(RowId)) {
    let base = batch * 64;
    while word != 0 {
        let bit = word.trailing_zeros() as usize;
        word &= word - 1;
        f(base + bit);
    }
}

/// Match word of `pred` over up to 64 lanes: bit `i` ⇔ `pred(lanes[i])`.
#[inline]
fn lane_word<T: Copy>(lanes: &[T], pred: impl Fn(T) -> bool) -> u64 {
    let mut w = 0u64;
    for (i, &v) in lanes.iter().enumerate() {
        w |= (pred(v) as u64) << i;
    }
    w
}

/// Map an `f64` to an `i64` key that orders exactly like
/// `f64::total_cmp`: sign-magnitude IEEE bits folded into two's
/// complement. Lets float range kernels run on integer compares.
#[inline]
fn f64_total_key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// A predicate compiled against one column's typed storage, evaluated 64
/// rows at a time. Borrows the column's slices for the scan's lifetime.
pub enum Kernel<'t> {
    /// Cannot match any row.
    Never,
    /// `lo <= cell <= hi` on an Int column (nulls masked by word).
    IntRange {
        /// Dense cells (sentinel 0 at nulls).
        vals: &'t [i64],
        /// Null bitmap of the column.
        nulls: &'t RowSet,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// `lo <= cell <= hi` in `total_cmp` order on a Float column,
    /// precomputed as integer total-order keys.
    FloatRange {
        /// Dense cells (sentinel 0.0 at nulls).
        vals: &'t [f64],
        /// Null bitmap of the column.
        nulls: &'t RowSet,
        /// Total-order key of the inclusive lower bound.
        lo_key: i64,
        /// Total-order key of the inclusive upper bound.
        hi_key: i64,
    },
    /// Symbol equality on a Text column (the `NULL_SYM` sentinel never
    /// equals a real symbol, so no null word is needed).
    SymEq {
        /// Dense symbol ids.
        vals: &'t [u32],
        /// Probe symbol id.
        sym: u32,
    },
    /// Symbol membership on a Text column.
    SymIn {
        /// Dense symbol ids.
        vals: &'t [u32],
        /// Probe symbol ids (small set; linear membership per lane).
        syms: Vec<u32>,
    },
    /// Boolean equality (nulls masked by word).
    BoolEq {
        /// Dense cells (sentinel `false` at nulls).
        vals: &'t [bool],
        /// Null bitmap of the column.
        nulls: &'t RowSet,
        /// Expected value.
        expect: bool,
    },
    /// Rows whose cell is non-NULL (pure null-bitmap test).
    NotNull {
        /// Null bitmap of the column.
        nulls: &'t RowSet,
    },
    /// Generic fallback: reconstruct each cell as a `Copy` scalar and
    /// evaluate the spec through `Value`'s total order. Exact but
    /// lane-serial; used only for the rare shapes listed in the module
    /// docs.
    Generic {
        /// The column (for `value_at`).
        col: &'t ColumnVec,
        /// The comparison to apply per cell.
        spec: CmpSpec,
    },
}

impl Kernel<'_> {
    /// Evaluate rows `batch*64 .. batch*64+64` of an `n`-row column,
    /// returning the match word. Lane loops stop at row `n`, so no bit at
    /// or past `n` is ever set.
    #[inline]
    pub fn eval_word(&self, batch: usize, n: usize) -> u64 {
        let base = batch * 64;
        if base >= n {
            return 0;
        }
        let end = (base + 64).min(n);
        match self {
            Kernel::Never => 0,
            Kernel::IntRange {
                vals,
                nulls,
                lo,
                hi,
            } => lane_word(&vals[base..end], |v| *lo <= v && v <= *hi) & !nulls.word(batch),
            Kernel::FloatRange {
                vals,
                nulls,
                lo_key,
                hi_key,
            } => {
                lane_word(&vals[base..end], |v| {
                    let k = f64_total_key(v);
                    *lo_key <= k && k <= *hi_key
                }) & !nulls.word(batch)
            }
            Kernel::SymEq { vals, sym } => lane_word(&vals[base..end], |v| v == *sym),
            Kernel::SymIn { vals, syms } => lane_word(&vals[base..end], |v| syms.contains(&v)),
            Kernel::BoolEq {
                vals,
                nulls,
                expect,
            } => lane_word(&vals[base..end], |v| v == *expect) & !nulls.word(batch),
            Kernel::NotNull { nulls } => tail_mask(n, batch) & !nulls.word(batch),
            Kernel::Generic { col, spec } => {
                let mut w = 0u64;
                for (i, row) in (base..end).enumerate() {
                    w |= (spec.matches(&col.value_at(row)) as u64) << i;
                }
                w
            }
        }
    }

    /// True iff the kernel can never match (lets planners skip scans).
    pub fn is_never(&self) -> bool {
        matches!(self, Kernel::Never)
    }
}

/// Compile `spec` against one column's typed storage. The returned kernel
/// is word-exact with `spec.matches` applied to each reconstructed cell.
pub fn compile<'t>(col: &'t ColumnVec, dtype: DataType, spec: &CmpSpec) -> Kernel<'t> {
    let generic = || Kernel::Generic {
        col,
        spec: spec.clone(),
    };
    match (dtype, spec) {
        (DataType::Text, CmpSpec::Eq(v)) => match v {
            Value::Text(s) => Kernel::SymEq {
                vals: col.syms().expect("text column"),
                sym: s.id(),
            },
            _ => Kernel::Never, // non-text never equals text
        },
        (DataType::Text, CmpSpec::In(vals)) => {
            let syms: Vec<u32> = vals
                .iter()
                .filter_map(|v| v.as_sym().map(|s| s.id()))
                .collect();
            if syms.is_empty() {
                Kernel::Never
            } else {
                Kernel::SymIn {
                    vals: col.syms().expect("text column"),
                    syms,
                }
            }
        }
        (DataType::Int, _) => match int_bounds(spec) {
            Bounds::Range(lo, hi) if lo <= hi => Kernel::IntRange {
                vals: col.ints().expect("int column"),
                nulls: col.nulls(),
                lo,
                hi,
            },
            Bounds::Range(..) | Bounds::Never => Kernel::Never,
            Bounds::Fallback => generic(),
        },
        (DataType::Float, _) => match float_bounds(spec) {
            Some((lo, hi)) => Kernel::FloatRange {
                vals: col.floats().expect("float column"),
                nulls: col.nulls(),
                lo_key: f64_total_key(lo),
                hi_key: f64_total_key(hi),
            },
            None => generic(),
        },
        (DataType::Bool, CmpSpec::Eq(v)) => match v {
            Value::Bool(b) => Kernel::BoolEq {
                vals: col.bools().expect("bool column"),
                nulls: col.nulls(),
                expect: *b,
            },
            _ => Kernel::Never,
        },
        _ => generic(),
    }
}

enum Bounds {
    Range(i64, i64),
    Never,
    Fallback,
}

/// Integer bounds `[lo, hi]` equivalent to `spec` on an Int column,
/// widening float operands through ceil/floor exactly like `Value`'s
/// numeric order. NaN operands fall back to the generic kernel (which
/// reproduces the total-order semantics precisely).
fn int_bounds(spec: &CmpSpec) -> Bounds {
    // Smallest integer >= v (total order), or None when no such integer
    // exists. -0.0 sorts strictly below Int(0) in `Value`'s order, and any
    // finite float at or above 2^63 exceeds every i64. Cross-type
    // operands follow `Value`'s type ranks: every int sorts above Null
    // and Bool and below Text.
    fn lo_of(v: &Value) -> Option<i64> {
        match v {
            Value::Int(i) => Some(*i),
            Value::Float(x) if x.is_finite() && *x < i64::MAX as f64 => Some(clamp_i64(x.ceil())),
            Value::Float(x) if *x == f64::NEG_INFINITY => Some(i64::MIN),
            Value::Null | Value::Bool(_) => Some(i64::MIN),
            _ => None, // Text / lossy-widening / NaN / +inf handled by callers
        }
    }
    // Largest integer <= v (total order).
    fn hi_of(v: &Value) -> Option<i64> {
        match v {
            Value::Int(i) => Some(*i),
            Value::Float(x) if *x == 0.0 && x.is_sign_negative() => Some(-1),
            Value::Float(x) if x.is_finite() => {
                if *x < i64::MIN as f64 {
                    None
                } else {
                    Some(clamp_i64(x.floor()))
                }
            }
            Value::Float(x) if *x == f64::INFINITY => Some(i64::MAX),
            Value::Text(_) => Some(i64::MAX),
            _ => None, // Null / Bool sort below every int
        }
    }
    let is_nan = |v: &Value| matches!(v, Value::Float(x) if x.is_nan());
    // `Value` compares Int-vs-Float by widening the INT CELL through
    // `as f64`, which is lossy for |cell| >= 2^53 — a cell can round onto
    // (or across) the bound, so exact integer bounds diverge from the
    // scalar order whenever the float bound's magnitude reaches 2^53
    // (mismatches require the bound to sit between a cell and its widened
    // value, and that interval lies entirely at or beyond 2^53). Such
    // bounds fall back to the generic kernel, which reproduces the widened
    // semantics exactly.
    const LOSSY_WIDENING: f64 = 9_007_199_254_740_992.0; // 2^53
    let lossy =
        |v: &Value| matches!(v, Value::Float(x) if x.is_finite() && x.abs() >= LOSSY_WIDENING);
    match spec {
        CmpSpec::Eq(v) | CmpSpec::Ge(v) | CmpSpec::Le(v) if is_nan(v) => Bounds::Fallback,
        CmpSpec::Eq(v) | CmpSpec::Ge(v) | CmpSpec::Le(v) if lossy(v) => Bounds::Fallback,
        CmpSpec::Between(l, h) if is_nan(l) || is_nan(h) => Bounds::Fallback,
        CmpSpec::Between(l, h) if lossy(l) || lossy(h) => Bounds::Fallback,
        CmpSpec::Eq(v) => match v {
            Value::Int(i) => Bounds::Range(*i, *i),
            Value::Float(x)
                if x.is_finite()
                    && x.fract() == 0.0
                    && in_i64(*x)
                    && !(*x == 0.0 && x.is_sign_negative()) =>
            {
                Bounds::Range(*x as i64, *x as i64)
            }
            Value::Float(_) => Bounds::Never, // non-integral / -0.0 / infinite
            _ => Bounds::Never,               // cross-type eq with Int
        },
        CmpSpec::Ge(v) => match lo_of(v) {
            Some(lo) => Bounds::Range(lo, i64::MAX),
            None => Bounds::Never, // v >= +inf (NaN handled above)
        },
        CmpSpec::Le(v) => match hi_of(v) {
            Some(hi) => Bounds::Range(i64::MIN, hi),
            None => Bounds::Never, // v <= -inf
        },
        CmpSpec::Between(l, h) => match (lo_of(l), hi_of(h)) {
            (Some(lo), Some(hi)) => Bounds::Range(lo, hi),
            (None, _) => Bounds::Never, // lower bound above all ints
            (_, None) => Bounds::Never, // upper bound below all ints
        },
        CmpSpec::In(_) => Bounds::Fallback,
    }
}

fn in_i64(x: f64) -> bool {
    x >= i64::MIN as f64 && x < i64::MAX as f64
}

fn clamp_i64(x: f64) -> i64 {
    if x >= i64::MAX as f64 {
        i64::MAX
    } else if x <= i64::MIN as f64 {
        i64::MIN
    } else {
        x as i64
    }
}

/// Lowest / highest values of `f64::total_cmp`'s order (negative and
/// positive NaN with full payload).
const TOTAL_MIN: f64 = f64::from_bits(u64::MAX);
const TOTAL_MAX: f64 = f64::from_bits(0x7FFF_FFFF_FFFF_FFFF);

/// Float bounds `[lo, hi]` (total order) equivalent to `spec` on a Float
/// column; `None` falls back to the generic kernel.
fn float_bounds(spec: &CmpSpec) -> Option<(f64, f64)> {
    fn num(v: &Value) -> Option<f64> {
        match v {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }
    match spec {
        CmpSpec::Eq(v) => num(v).map(|x| (x, x)),
        CmpSpec::Ge(v) => num(v).map(|x| (x, TOTAL_MAX)),
        CmpSpec::Le(v) => num(v).map(|x| (TOTAL_MIN, x)),
        CmpSpec::Between(l, h) => Some((num(l)?, num(h)?)),
        CmpSpec::In(_) => None,
    }
}

/// A conjunction of kernels over one table's columns: the compiled form
/// of a predicate list. Evaluates batch-wise, ANDing match words — 64
/// rows per iteration, short-circuiting on an all-zero word.
pub struct ScanPlan<'t> {
    kernels: Vec<Kernel<'t>>,
    n: usize,
}

impl<'t> ScanPlan<'t> {
    /// Plan a conjunctive scan of `kernels` over an `n`-row table.
    pub fn new(kernels: Vec<Kernel<'t>>, n: usize) -> Self {
        ScanPlan { kernels, n }
    }

    /// Number of rows scanned.
    pub fn rows(&self) -> usize {
        self.n
    }

    /// Number of 64-row batches.
    pub fn num_batches(&self) -> usize {
        batch_count(self.n)
    }

    /// True iff some kernel can never match (the scan result is empty).
    pub fn is_never(&self) -> bool {
        self.kernels.iter().any(Kernel::is_never)
    }

    /// Match word of one batch: AND of every kernel's word, tail-masked.
    #[inline]
    pub fn eval_word(&self, batch: usize) -> u64 {
        let mut w = tail_mask(self.n, batch);
        for k in &self.kernels {
            if w == 0 {
                break;
            }
            w &= k.eval_word(batch, self.n);
        }
        w
    }

    /// Run the scan word by word, emitting match words directly into a
    /// [`RowSet`].
    pub fn collect(&self) -> RowSet {
        if self.is_never() {
            return RowSet::with_universe(self.n);
        }
        RowSet::from_words((0..self.num_batches()).map(|b| self.eval_word(b)).collect())
    }

    /// Run the scan, calling `f` for each matching row in ascending order.
    pub fn for_each_match(&self, mut f: impl FnMut(RowId)) {
        if self.is_never() {
            return;
        }
        for b in 0..self.num_batches() {
            for_each_row(b, self.eval_word(b), &mut f);
        }
    }
}

/// Call `f(batch, word)` for every 64-row batch of an `n`-row column,
/// where `word` masks the rows that are in range and non-null in
/// `nulls` — the spine under every `scan_*` accessor.
#[inline]
fn for_each_non_null_word(nulls: &RowSet, n: usize, mut f: impl FnMut(usize, u64)) {
    for b in 0..batch_count(n) {
        let w = tail_mask(n, b) & !nulls.word(b);
        if w != 0 {
            f(b, w);
        }
    }
}

/// [`for_each_non_null_word`] over the OR of two null bitmaps (both
/// columns must be non-null).
#[inline]
fn for_each_non_null_pair_word(na: &RowSet, nb: &RowSet, n: usize, mut f: impl FnMut(usize, u64)) {
    for b in 0..batch_count(n) {
        let w = tail_mask(n, b) & !(na.word(b) | nb.word(b));
        if w != 0 {
            f(b, w);
        }
    }
}

/// Batch scan of an Int column: `f(row, value)` for every non-null row,
/// ascending. Columns of any other type yield nothing (mirroring
/// `int_at`'s `None`).
pub fn scan_ints(col: &ColumnVec, n: usize, mut f: impl FnMut(RowId, i64)) {
    let Some(vals) = col.ints() else { return };
    for_each_non_null_word(col.nulls(), n, |b, w| {
        for_each_row(b, w, |r| f(r, vals[r]));
    });
}

/// Batch scan of two Int columns in lockstep (the αDB's fact-table shape:
/// entity fk + property fk): `f(row, a, b)` where **both** are non-null.
/// The null words of the two columns are ORed once per 64 rows, so the
/// inner loop touches only rows that survive both bitmaps.
pub fn scan_int_pairs(
    ca: &ColumnVec,
    cb: &ColumnVec,
    n: usize,
    mut f: impl FnMut(RowId, i64, i64),
) {
    let (Some(va), Some(vb)) = (ca.ints(), cb.ints()) else {
        return;
    };
    for_each_non_null_pair_word(ca.nulls(), cb.nulls(), n, |b, w| {
        for_each_row(b, w, |r| f(r, va[r], vb[r]));
    });
}

/// Batch scan of the non-null rows of any column: `f(row)` ascending.
pub fn scan_non_null(col: &ColumnVec, n: usize, mut f: impl FnMut(RowId)) {
    for_each_non_null_word(col.nulls(), n, |b, w| for_each_row(b, w, &mut f));
}

/// Batch scan of the rows where **both** columns are non-null (null words
/// ORed once per 64 rows): `f(row)` ascending. The αDB's inline-attribute
/// shape: an Int fk column paired with an attribute column of any type.
pub fn scan_non_null_pair(ca: &ColumnVec, cb: &ColumnVec, n: usize, mut f: impl FnMut(RowId)) {
    for_each_non_null_pair_word(ca.nulls(), cb.nulls(), n, |b, w| for_each_row(b, w, &mut f));
}

/// Batch scan of a numeric column widened to `f64` (Int or Float, the
/// `float_at` contract): `f(row, value)` for every non-null row. Non-
/// numeric columns yield nothing.
pub fn scan_floats(col: &ColumnVec, n: usize, mut f: impl FnMut(RowId, f64)) {
    match col.data() {
        ColumnData::Int(xs) => scan_non_null(col, n, |r| f(r, xs[r] as f64)),
        ColumnData::Float(xs) => scan_non_null(col, n, |r| f(r, xs[r])),
        _ => {}
    }
}

/// Encode the cell at `row` as a raw `u64` join key (`None` for nulls):
/// symbol id for text, bit pattern for floats, two's complement for ints.
/// The shared key ABI of the executor's semi-join fold maps.
#[inline]
pub fn join_key_at(col: &ColumnVec, dtype: DataType, row: RowId) -> Option<u64> {
    match dtype {
        DataType::Int => col.int_at(row).map(|v| v as u64),
        DataType::Float => col.float_at(row).map(f64::to_bits),
        DataType::Text => col.sym_at(row).map(u64::from),
        DataType::Bool => {
            if col.is_null(row) {
                None
            } else {
                col.bools().and_then(|b| b.get(row)).map(|&b| b as u64)
            }
        }
    }
}

/// Decode a [`join_key_at`] key back into a `Value`.
#[inline]
pub fn key_to_value(dtype: DataType, key: u64) -> Value {
    match dtype {
        DataType::Int => Value::Int(key as i64),
        DataType::Float => Value::Float(f64::from_bits(key)),
        DataType::Text => Value::Text(crate::intern::Sym::from_id(key as u32)),
        DataType::Bool => Value::Bool(key != 0),
    }
}

/// Walk `rows` word-wise against the matching null words:
/// `emit(row, is_null)` for every member row, ascending. The spine under
/// [`gather`] — one null-word load per 64 rows, no per-row bitmap probes.
#[inline]
fn for_each_gathered(rows: &RowSet, nulls: &RowSet, mut emit: impl FnMut(RowId, bool)) {
    for (b, &w) in rows.words().iter().enumerate() {
        let null_word = nulls.word(b);
        for_each_row(b, w, |r| emit(r, null_word >> (r % 64) & 1 != 0));
    }
}

/// Materialize the cells of `rows` (ascending) as `Copy` scalars, with the
/// dtype dispatch hoisted out of the per-row loop and null words loaded
/// per 64 rows instead of probed per row.
pub fn gather(col: &ColumnVec, rows: &RowSet) -> Vec<Value> {
    let nulls = col.nulls();
    let mut out = Vec::with_capacity(rows.len());
    match col.data() {
        ColumnData::Int(xs) => for_each_gathered(rows, nulls, |r, null| {
            out.push(if null { Value::Null } else { Value::Int(xs[r]) })
        }),
        ColumnData::Float(xs) => for_each_gathered(rows, nulls, |r, null| {
            out.push(if null {
                Value::Null
            } else {
                Value::Float(xs[r])
            })
        }),
        ColumnData::Text(xs) => for_each_gathered(rows, nulls, |r, null| {
            out.push(if null {
                Value::Null
            } else {
                Value::Text(crate::intern::Sym::from_id(xs[r]))
            })
        }),
        ColumnData::Bool(xs) => for_each_gathered(rows, nulls, |r, null| {
            out.push(if null {
                Value::Null
            } else {
                Value::Bool(xs[r])
            })
        }),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::table::Table;

    fn int_table(vals: &[Option<i64>]) -> Table {
        let mut t = Table::new(TableSchema::new("t", vec![Column::new("x", DataType::Int)]));
        for v in vals {
            t.insert(vec![v.map(Value::Int).unwrap_or(Value::Null)])
                .unwrap();
        }
        t
    }

    #[test]
    fn tail_mask_covers_boundaries() {
        assert_eq!(tail_mask(0, 0), 0);
        assert_eq!(tail_mask(1, 0), 1);
        assert_eq!(tail_mask(64, 0), u64::MAX);
        assert_eq!(tail_mask(64, 1), 0);
        assert_eq!(tail_mask(65, 1), 1);
        assert_eq!(tail_mask(130, 2), 0b11);
    }

    #[test]
    fn f64_total_key_orders_like_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
        ];
        for &a in &xs {
            for &b in &xs {
                assert_eq!(
                    f64_total_key(a).cmp(&f64_total_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn int_range_kernel_matches_scalar_over_tail() {
        // 70 rows: crosses a word boundary with a 6-row tail.
        let vals: Vec<Option<i64>> = (0..70)
            .map(|i| if i % 7 == 0 { None } else { Some(i - 35) })
            .collect();
        let t = int_table(&vals);
        let spec = CmpSpec::Between(Value::Int(-10), Value::Int(10));
        let k = compile(t.column(0), DataType::Int, &spec);
        let plan = ScanPlan::new(vec![k], t.len());
        let got = plan.collect();
        for (i, v) in vals.iter().enumerate() {
            let want = v.map(Value::Int).unwrap_or(Value::Null);
            assert_eq!(got.contains(i), spec.matches(&want), "row {i}");
        }
        assert_eq!(got.word(1) >> 6, 0, "tail lanes must be zero");
    }

    #[test]
    fn conjunction_ands_words() {
        let vals: Vec<Option<i64>> = (0..100).map(Some).collect();
        let t = int_table(&vals);
        let a = compile(t.column(0), DataType::Int, &CmpSpec::Ge(Value::Int(20)));
        let b = compile(t.column(0), DataType::Int, &CmpSpec::Le(Value::Int(29)));
        let plan = ScanPlan::new(vec![a, b], t.len());
        assert_eq!(
            plan.collect().iter().collect::<Vec<_>>(),
            (20..30).collect::<Vec<_>>()
        );
    }

    #[test]
    fn never_kernel_short_circuits() {
        let t = int_table(&[Some(1), Some(2)]);
        let k = compile(t.column(0), DataType::Int, &CmpSpec::Eq(Value::text("x")));
        assert!(k.is_never());
        let plan = ScanPlan::new(vec![k], t.len());
        assert!(plan.is_never());
        assert!(plan.collect().is_empty());
    }

    #[test]
    fn join_keys_round_trip() {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                Column::new("i", DataType::Int),
                Column::new("f", DataType::Float),
                Column::new("s", DataType::Text),
                Column::new("b", DataType::Bool),
            ],
        ));
        t.insert(vec![
            Value::Int(-7),
            Value::Float(2.5),
            Value::text("key"),
            Value::Bool(true),
        ])
        .unwrap();
        t.insert(vec![Value::Null, Value::Null, Value::Null, Value::Null])
            .unwrap();
        let dts = [
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Bool,
        ];
        for (ci, dt) in dts.iter().enumerate() {
            let col = t.column(ci);
            let key = join_key_at(col, *dt, 0).expect("non-null row encodes");
            assert_eq!(key_to_value(*dt, key), col.value_at(0));
            assert_eq!(join_key_at(col, *dt, 1), None, "null never encodes");
        }
    }

    #[test]
    fn scan_int_pairs_skips_any_null() {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ],
        ));
        let rows = [
            (Some(1), Some(10)),
            (None, Some(20)),
            (Some(3), None),
            (Some(4), Some(40)),
        ];
        for (a, b) in rows {
            t.insert(vec![
                a.map(Value::Int).unwrap_or(Value::Null),
                b.map(Value::Int).unwrap_or(Value::Null),
            ])
            .unwrap();
        }
        let mut seen = Vec::new();
        scan_int_pairs(t.column(0), t.column(1), t.len(), |r, a, b| {
            seen.push((r, a, b))
        });
        assert_eq!(seen, vec![(0, 1, 10), (3, 4, 40)]);
    }

    #[test]
    fn gather_matches_value_at() {
        let vals: Vec<Option<i64>> = (0..70)
            .map(|i| if i % 5 == 0 { None } else { Some(i) })
            .collect();
        let t = int_table(&vals);
        let rows = RowSet::full(t.len());
        let got = gather(t.column(0), &rows);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, t.column(0).value_at(i));
        }
    }
}
