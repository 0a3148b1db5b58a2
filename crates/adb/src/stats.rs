//! Precomputed per-property statistics: exactly the information SQuID's
//! online phase needs to compute filter selectivities ψ(φ) and domain
//! coverages in O(log n) ("smart selectivity computation", Section 5) —
//! and, from the same arrays, each filter's satisfying rows without
//! touching an entity that does not satisfy it.
//!
//! ## Postings layout
//!
//! Every filter kind the online phase abduces reads its answer off one
//! array that is ordered the way the filter cuts it:
//!
//! * **Derived counts** (`⟨A, v, θ⟩`, [`DerivedStats`]) and **suffix
//!   ranges** (`⟨A ≥ c, θ⟩`, [`DerivedNumericStats`]): per value (per
//!   cutpoint) one array of `count << 32 | row` words ([`posting_row`]),
//!   ascending. The entities associated at least θ times are the suffix a
//!   binary search finds; its length over `n` *is* ψ, so the selectivity
//!   and the satisfying rows come from the same lookup. 8 bytes a pair.
//! * **Numeric ranges** ([`NumericStats`]): `(value, row)` pairs ascending
//!   by value; a range is the slice between two binary searches.
//! * **Categorical values** ([`CategoricalStats`]): per value its rows,
//!   stored in whichever form is smaller ([`ValueRows`]) — ascending `u32`
//!   row ids, or one bit per entity once the list would be at least as
//!   large as the bitmap. A row id is 32 bits and a bitmap spends one bit
//!   per entity, so the crossover is `m · 32 ≥ n` (`DENSE_CROSSOVER`); it
//!   is the point where the two encodings cost the same bytes, which is
//!   why it is a constant and not a setting. A value is never stored both
//!   ways. A dense value answers `attr = v` as it stands: evaluation ANDs
//!   the αDB's own bitmap and builds nothing.
//!
//! Per-entity data (`per_entity`, the derived run arena) stays beside the
//! postings: context discovery folds example rows through it, and the
//! per-row filter definition (`CandidateFilter::matches_row` in
//! squid-core) — the oracle every set-algebra path is tested against —
//! reads nothing else.
//!
//! The constructors grow these arrays by pushes and trim each one to its
//! length (`shrink_to_fit`) once it is complete, and allocate a direct
//! attribute's one-value sets at their exact size: an αDB lives as long as
//! its process, and doubling growth leaves up to half of an array unused.

use std::sync::{Arc, Mutex, MutexGuard};

use squid_relation::heap::{map_bytes, vec_bytes};
use squid_relation::{kernel, ColumnVec, FxHashMap, RowId, RowSet, Sym, Value};

/// A categorical value's row list becomes a bitmap once it holds at least
/// one row per this many entities: the point where `m` 32-bit row ids cost
/// as many bytes as an `n`-bit bitmap.
const DENSE_CROSSOVER: usize = 32;

/// The entity rows carrying one categorical value, in the smaller of two
/// encodings (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum ValueRows {
    /// Ascending row ids, for values rarer than one entity in 32.
    Sparse(Vec<u32>),
    /// One bit per entity, sized to the entity count.
    Dense(RowSet),
}

impl ValueRows {
    /// Encode ascending distinct `rows` of an `n`-entity table.
    fn from_rows(mut rows: Vec<u32>, n: usize) -> ValueRows {
        if rows.len() * DENSE_CROSSOVER >= n {
            let mut set = RowSet::with_universe(n);
            for &row in &rows {
                set.insert(row as RowId);
            }
            ValueRows::Dense(set)
        } else {
            rows.shrink_to_fit();
            ValueRows::Sparse(rows)
        }
    }

    /// Number of rows carrying the value.
    pub fn len(&self) -> usize {
        match self {
            ValueRows::Sparse(rows) => rows.len(),
            ValueRows::Dense(set) => set.len(),
        }
    }

    /// True iff no row carries the value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit every row, ascending.
    pub fn for_each(&self, mut visit: impl FnMut(RowId)) {
        match self {
            ValueRows::Sparse(rows) => rows.iter().for_each(|&row| visit(row as RowId)),
            ValueRows::Dense(set) => set.iter().for_each(visit),
        }
    }
}

/// One θ-ordered posting: `count << 32 | row`. Both halves are checked
/// into `u32` here, the way the derived run arena checks its offsets.
#[inline]
fn pack_posting(count: u64, row: RowId) -> u64 {
    let count = u32::try_from(count).expect("association count exceeds u32 range");
    let row = u32::try_from(row).expect("entity row exceeds u32 range");
    (count as u64) << 32 | row as u64
}

/// Entity row of a `count << 32 | row` posting.
#[inline]
pub fn posting_row(posting: u64) -> RowId {
    posting as u32 as RowId
}

/// Association count of a `count << 32 | row` posting.
#[inline]
fn posting_count(posting: u64) -> u64 {
    posting >> 32
}

/// The suffix of ascending `count << 32 | row` postings with count ≥ θ.
#[inline]
fn count_suffix(postings: &[u64], theta: u64) -> &[u64] {
    &postings[postings.partition_point(|&p| posting_count(p) < theta)..]
}

/// Statistics for a categorical property (direct attribute or a property
/// table reached through one fact hop). Multi-valued per entity in the
/// fact-hop case (a movie can have several genres).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CategoricalStats {
    /// For each value: how many *distinct entities* carry it.
    pub value_entity_counts: FxHashMap<Value, usize>,
    /// Per-entity value sets, indexed by entity row id.
    pub per_entity: Vec<Vec<Value>>,
    /// For each value: the entity rows carrying it — the postings that let
    /// `attr = v` filters hand over their matches instead of scanning all
    /// entities.
    value_rows: FxHashMap<Value, ValueRows>,
}

impl CategoricalStats {
    /// Build from a direct attribute column of the entity table, scanning
    /// batch-wise: the kernel non-null words skip NULL cells 64 rows at a
    /// time, and each surviving cell is reconstructed once as a `Copy`
    /// scalar.
    pub fn from_column(cv: &ColumnVec, n: usize) -> CategoricalStats {
        let mut per_entity: Vec<Vec<Value>> = vec![Vec::new(); n];
        kernel::scan_non_null(cv, n, |rid| {
            per_entity[rid] = vec![cv.value_at(rid)];
        });
        Self::from_sets(per_entity)
    }

    /// Assemble from per-entity value sets (transposes them into per-value
    /// row postings; a value's entity count is its postings' length).
    pub fn from_sets(mut per_entity: Vec<Vec<Value>>) -> CategoricalStats {
        per_entity.iter_mut().for_each(Vec::shrink_to_fit);
        let n = per_entity.len();
        let mut lists: FxHashMap<Value, Vec<u32>> = FxHashMap::default();
        for (rid, vals) in per_entity.iter().enumerate() {
            let rid = u32::try_from(rid).expect("entity row exceeds u32 range");
            for v in vals {
                lists.entry(*v).or_default().push(rid);
            }
        }
        let mut value_entity_counts: FxHashMap<Value, usize> = FxHashMap::default();
        let mut value_rows: FxHashMap<Value, ValueRows> = FxHashMap::default();
        value_entity_counts.reserve(lists.len());
        value_rows.reserve(lists.len());
        for (v, rows) in lists {
            value_entity_counts.insert(v, rows.len());
            value_rows.insert(v, ValueRows::from_rows(rows, n));
        }
        CategoricalStats {
            value_entity_counts,
            per_entity,
            value_rows,
        }
    }

    /// Entity rows carrying value `v` (`None` when `v` is absent) —
    /// callers gating on [`CategoricalStats::enumerable`] can trust this
    /// as the exact satisfying set of `attr = v`.
    pub fn rows_with(&self, v: &Value) -> Option<&ValueRows> {
        self.value_rows.get(v)
    }

    /// Whether the row postings are populated (hand-assembled stats may
    /// fill only the count fields; those must fall back to scanning).
    pub fn enumerable(&self) -> bool {
        !self.value_rows.is_empty() || self.value_entity_counts.is_empty()
    }

    /// Number of distinct values in the active domain.
    pub fn domain_size(&self) -> usize {
        self.value_entity_counts.len()
    }

    /// ψ(φ⟨A, v, ⊥⟩) relative to `n` entities.
    pub fn selectivity_eq(&self, v: &Value, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        *self.value_entity_counts.get(v).unwrap_or(&0) as f64 / n as f64
    }

    /// ψ of a disjunctive `IN` filter (sum of per-value entity counts; an
    /// upper bound that is exact when values are mutually exclusive, as for
    /// single-valued attributes).
    pub fn selectivity_in(&self, values: &[Value], n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let total: usize = values
            .iter()
            .map(|v| *self.value_entity_counts.get(v).unwrap_or(&0))
            .sum();
        (total as f64 / n as f64).min(1.0)
    }

    /// Domain coverage of an equality filter: 1/|domain|.
    pub fn coverage_eq(&self) -> f64 {
        match self.domain_size() {
            0 => 1.0,
            d => 1.0 / d as f64,
        }
    }

    /// Domain coverage of an `IN` filter with `k` values.
    pub fn coverage_in(&self, k: usize) -> f64 {
        match self.domain_size() {
            0 => 1.0,
            d => (k as f64 / d as f64).min(1.0),
        }
    }

    /// Value set of one entity.
    pub fn values_of(&self, row: RowId) -> &[Value] {
        self.per_entity
            .get(row)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }
}

/// Statistics for a direct numeric attribute. Stores the sorted distinct
/// values with prefix counts so that ψ(φ⟨A, [l, h], ⊥⟩) is two binary
/// searches — the paper's trick of only precomputing
/// ψ(φ⟨A, [min, v], ⊥⟩) for every v.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NumericStats {
    /// Distinct values ascending.
    pub sorted_values: Vec<f64>,
    /// `prefix[i]` = number of entities with value ≤ `sorted_values[i]`.
    pub prefix: Vec<usize>,
    /// Per-entity value (None for null).
    pub per_entity: Vec<Option<f64>>,
    /// `(value, row)` pairs ascending by value: range filters enumerate
    /// their matches with two binary searches.
    pub sorted_rows: Vec<(f64, RowId)>,
}

impl NumericStats {
    /// Build from a direct numeric attribute column, scanning batch-wise
    /// (non-null words; Int cells widened to `f64` like `float_at`).
    pub fn from_column(cv: &ColumnVec, n: usize) -> NumericStats {
        let mut per_entity: Vec<Option<f64>> = vec![None; n];
        kernel::scan_floats(cv, n, |rid, x| per_entity[rid] = Some(x));
        Self::build(per_entity)
    }

    /// Build from per-entity values.
    pub fn build(per_entity: Vec<Option<f64>>) -> Self {
        let mut sorted_rows: Vec<(f64, RowId)> = per_entity
            .iter()
            .enumerate()
            .filter_map(|(rid, v)| v.map(|x| (x, rid)))
            .collect();
        sorted_rows.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut vals: Vec<f64> = per_entity.iter().flatten().copied().collect();
        vals.sort_by(f64::total_cmp);
        let mut sorted_values = Vec::new();
        let mut prefix = Vec::new();
        let mut running = 0usize;
        let mut i = 0;
        while i < vals.len() {
            let v = vals[i];
            let mut j = i;
            while j < vals.len() && vals[j] == v {
                j += 1;
            }
            running += j - i;
            sorted_values.push(v);
            prefix.push(running);
            i = j;
        }
        NumericStats {
            sorted_values,
            prefix,
            per_entity,
            sorted_rows,
        }
    }

    /// The `(value, row)` pairs with `l ≤ value ≤ h` under IEEE comparison
    /// semantics (matching `CandidateFilter::matches_row`), located with
    /// two binary searches over the value-sorted postings. Total-order
    /// comparisons keep the predicates partitioned even around NaN; zero
    /// bounds are widened to the signed-zero pair so `-0.0 == 0.0` holds
    /// like it does for IEEE `>=`/`<=`.
    pub fn rows_in_range(&self, l: f64, h: f64) -> &[(f64, RowId)] {
        use std::cmp::Ordering;
        let l = if l == 0.0 { -0.0 } else { l };
        let h = if h == 0.0 { 0.0 } else { h };
        let start = self
            .sorted_rows
            .partition_point(|&(v, _)| v.total_cmp(&l) == Ordering::Less);
        let end = self
            .sorted_rows
            .partition_point(|&(v, _)| v.total_cmp(&h) != Ordering::Greater);
        &self.sorted_rows[start.min(end)..end]
    }

    /// Whether the row postings are populated (hand-assembled stats may
    /// fill only `per_entity`; those must fall back to scanning).
    pub fn enumerable(&self) -> bool {
        !self.sorted_rows.is_empty() || self.per_entity.iter().all(Option::is_none)
    }

    /// Number of entities with value ≤ `x`.
    fn count_le(&self, x: f64) -> usize {
        let idx = self.sorted_values.partition_point(|&v| v <= x);
        if idx == 0 {
            0
        } else {
            self.prefix[idx - 1]
        }
    }

    /// ψ(φ⟨A, [l, h], ⊥⟩) relative to `n` entities.
    pub fn selectivity_range(&self, l: f64, h: f64, n: usize) -> f64 {
        if n == 0 || h < l {
            return 0.0;
        }
        // Exact: count ≤ h minus count < l. Compute count < l via ≤ on the
        // predecessor distinct value.
        let lt_l = {
            let idx = self.sorted_values.partition_point(|&v| v < l);
            if idx == 0 {
                0
            } else {
                self.prefix[idx - 1]
            }
        };
        (self.count_le(h) - lt_l) as f64 / n as f64
    }

    /// Domain coverage of `[l, h]` relative to the active domain span.
    pub fn coverage_range(&self, l: f64, h: f64) -> f64 {
        let (Some(&min), Some(&max)) = (self.sorted_values.first(), self.sorted_values.last())
        else {
            return 1.0;
        };
        if max <= min {
            return 1.0;
        }
        ((h.min(max) - l.max(min)) / (max - min)).clamp(0.0, 1.0)
    }

    /// Smallest observed value.
    pub fn min(&self) -> Option<f64> {
        self.sorted_values.first().copied()
    }

    /// Largest observed value.
    pub fn max(&self) -> Option<f64> {
        self.sorted_values.last().copied()
    }

    /// Value of one entity.
    pub fn value_of(&self, row: RowId) -> Option<f64> {
        self.per_entity.get(row).copied().flatten()
    }
}

/// Statistics for a derived (counted) property: per-entity association
/// counts per value, plus per-value θ-ordered postings so that
/// ψ(φ⟨A, v, θ⟩) — the fraction of entities associated with value `v` at
/// least θ times — and the entities themselves are one binary search.
///
/// Per-entity counts are stored as flat sorted `(value, count)` runs over
/// one shared arena (`runs` + `offsets`) instead of one little hash map
/// per entity: αDB construction allocates two vectors per property rather
/// than one map per entity, and per-entity reads walk a contiguous slice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DerivedStats {
    /// Shared arena: entity `r`'s run is `runs[offsets[r]..offsets[r+1]]`,
    /// sorted by [`run_cmp`] (a cheap deterministic value order) with
    /// positive coalesced counts.
    runs: Vec<(Value, u64)>,
    /// `n + 1` arena offsets (empty when no entities).
    offsets: Vec<u32>,
    /// Per entity row: total association count (for normalization).
    pub entity_totals: Vec<u64>,
    /// For each value: one `count << 32 | row` posting per entity with
    /// count > 0, ascending — by count, then row — so the entities
    /// satisfying `⟨A, v, θ⟩` are a suffix (see the module docs).
    theta_postings: FxHashMap<Value, Vec<u64>>,
    /// For each value: ascending per-entity fractions count/total.
    pub value_frac_dists: FxHashMap<Value, Vec<f64>>,
}

/// Cheap total order for derived-run values: the primary key compares
/// symbols by id and numerics by widened float bits (agreeing with
/// [`Value`]'s `Eq`, including `Int(3) == Float(3.0)`), so sorting a run
/// never touches strings; rare primary-key ties (the lossy > 2⁵³ integer
/// band) fall back to `Value`'s exact order.
#[inline]
fn run_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    #[inline]
    fn key(v: &Value) -> (u8, u64) {
        match v {
            Value::Null => (0, 0),
            Value::Bool(x) => (1, *x as u64),
            Value::Int(x) => (2, (*x as f64).to_bits()),
            Value::Float(x) => (2, x.to_bits()),
            Value::Text(s) => (3, s.id() as u64),
        }
    }
    key(a).cmp(&key(b)).then_with(|| a.cmp(b))
}

impl DerivedStats {
    /// Build from per-entity count maps (the hand-assembly/test path; hot
    /// builders accumulate raw runs and use [`DerivedStats::from_runs`]).
    pub fn build(per_entity: Vec<FxHashMap<Value, u64>>) -> Self {
        Self::from_runs(
            per_entity
                .into_iter()
                .map(|m| m.into_iter().collect())
                .collect(),
        )
    }

    /// Build from raw per-entity `(value, count)` runs — unsorted, with
    /// duplicate values allowed (they coalesce by summing). This is the
    /// αDB build path: fact scans push pairs, no per-entity hash maps.
    pub fn from_runs(mut per_entity: Vec<Vec<(Value, u64)>>) -> Self {
        let mut runs: Vec<(Value, u64)> = Vec::new();
        let mut offsets: Vec<u32> = Vec::with_capacity(per_entity.len() + 1);
        offsets.push(0);
        let mut entity_totals: Vec<u64> = Vec::with_capacity(per_entity.len());
        let mut dists: FxHashMap<Value, (Vec<u64>, Vec<f64>)> = FxHashMap::default();
        for (row, ent) in per_entity.iter_mut().enumerate() {
            ent.sort_unstable_by(|a, b| run_cmp(&a.0, &b.0));
            ent.dedup_by(|next, acc| {
                if acc.0 == next.0 {
                    acc.1 += next.1;
                    true
                } else {
                    false
                }
            });
            ent.retain(|&(_, c)| c > 0);
            let total: u64 = ent.iter().map(|(_, c)| c).sum();
            entity_totals.push(total);
            for &(v, c) in ent.iter() {
                let (postings, fd) = dists.entry(v).or_default();
                postings.push(pack_posting(c, row));
                fd.push(c as f64 / total as f64);
            }
            runs.extend_from_slice(ent);
            offsets.push(u32::try_from(runs.len()).expect("derived arena exceeds u32 range"));
        }
        let mut theta_postings: FxHashMap<Value, Vec<u64>> = FxHashMap::default();
        let mut value_frac_dists: FxHashMap<Value, Vec<f64>> = FxHashMap::default();
        theta_postings.reserve(dists.len());
        value_frac_dists.reserve(dists.len());
        runs.shrink_to_fit();
        for (v, (mut postings, mut fd)) in dists {
            postings.sort_unstable();
            postings.shrink_to_fit();
            fd.sort_by(f64::total_cmp);
            fd.shrink_to_fit();
            theta_postings.insert(v, postings);
            value_frac_dists.insert(v, fd);
        }
        DerivedStats {
            runs,
            offsets,
            entity_totals,
            theta_postings,
            value_frac_dists,
        }
    }

    /// The `count << 32 | row` postings ([`posting_row`]) of exactly the
    /// entities associated with `v` at least `theta` times, ascending by
    /// count then row; `theta ≤ 1` yields every entity associated with `v`
    /// at all. Empty when `v` is absent.
    pub fn postings_ge(&self, v: &Value, theta: u64) -> &[u64] {
        self.theta_postings
            .get(v)
            .map_or(&[], |postings| count_suffix(postings, theta))
    }

    /// Number of entities the statistics cover.
    pub fn entity_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of `(entity, value)` pairs with a positive count: the rows
    /// of the property's `(entity_id, value, count)` relation.
    pub fn association_count(&self) -> usize {
        self.runs.len()
    }

    /// Number of distinct values in the active domain.
    pub fn domain_size(&self) -> usize {
        self.theta_postings.len()
    }

    /// ψ(φ⟨A, v, θ⟩) relative to `n` entities.
    pub fn selectivity(&self, v: &Value, theta: u64, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.postings_ge(v, theta).len() as f64 / n as f64
    }

    /// ψ of a *normalized* filter: fraction of entities whose share of
    /// associations to `v` is at least `frac` (case-study mode, §7.4).
    pub fn selectivity_frac(&self, v: &Value, frac: f64, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let Some(dist) = self.value_frac_dists.get(v) else {
            return 0.0;
        };
        let below = dist.partition_point(|&c| c < frac);
        (dist.len() - below) as f64 / n as f64
    }

    /// Domain coverage of an equality-on-value filter.
    pub fn coverage_eq(&self) -> f64 {
        match self.domain_size() {
            0 => 1.0,
            d => 1.0 / d as f64,
        }
    }

    /// One entity's `(value, count)` run, ascending by value (empty for
    /// out-of-range rows).
    pub fn counts_of(&self, row: RowId) -> &[(Value, u64)] {
        match (self.offsets.get(row), self.offsets.get(row + 1)) {
            (Some(&a), Some(&b)) => &self.runs[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Association count of one entity for one value (binary search in the
    /// entity's sorted run).
    pub fn count_of(&self, row: RowId, v: &Value) -> u64 {
        let run = self.counts_of(row);
        match run.binary_search_by(|(x, _)| run_cmp(x, v)) {
            Ok(i) => run[i].1,
            Err(_) => 0,
        }
    }

    /// Normalized share of one entity's associations going to `v`.
    pub fn frac_of(&self, row: RowId, v: &Value) -> f64 {
        let total = self.entity_totals.get(row).copied().unwrap_or(0);
        if total == 0 {
            0.0
        } else {
            self.count_of(row, v) as f64 / total as f64
        }
    }
}

/// Statistics for a derived property over a *numeric* mid-entity attribute
/// (e.g. number of movies with `year >= c`). Supports suffix-range filters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DerivedNumericStats {
    /// Per entity row: ascending `(attribute value, association count)`.
    pub per_entity: Vec<Vec<(f64, u64)>>,
    /// Sorted distinct attribute values (candidate cutpoints).
    pub cutpoints: Vec<f64>,
    /// For each cutpoint: one `suffix count << 32 | row` posting per entity
    /// with a positive suffix count (#associations with value ≥ cutpoint),
    /// ascending, so the entities satisfying `⟨A ≥ c, θ⟩` are a suffix
    /// (see the module docs).
    per_cut_postings: Vec<Vec<u64>>,
}

impl DerivedNumericStats {
    /// Build from per-entity `(value, count)` multisets.
    ///
    /// Per-entity suffix counts are produced by one descending merge walk
    /// over (cutpoints × the entity's own values) — O(C + K) per entity
    /// instead of the naive O(C × K) binary-search-and-sum.
    pub fn build(mut per_entity: Vec<Vec<(f64, u64)>>) -> Self {
        for v in &mut per_entity {
            v.sort_by(|a, b| a.0.total_cmp(&b.0));
            v.shrink_to_fit();
        }
        let mut cutpoints: Vec<f64> = per_entity
            .iter()
            .flat_map(|v| v.iter().map(|(x, _)| *x))
            .collect();
        cutpoints.sort_by(f64::total_cmp);
        cutpoints.dedup();
        let mut per_cut_postings: Vec<Vec<u64>> = vec![Vec::new(); cutpoints.len()];
        let mut buf = Vec::new();
        for (row, ent) in per_entity.iter().enumerate() {
            suffix_walk(ent, &cutpoints, &mut buf);
            for (ci, &suffix) in buf.iter().enumerate() {
                if suffix > 0 {
                    per_cut_postings[ci].push(pack_posting(suffix, row));
                }
            }
        }
        for postings in &mut per_cut_postings {
            postings.sort_unstable();
            postings.shrink_to_fit();
        }
        DerivedNumericStats {
            per_entity,
            cutpoints,
            per_cut_postings,
        }
    }

    /// Whether the per-cutpoint postings are populated (hand-assembled
    /// stats may fill only `per_entity`; those must fall back to scanning).
    pub fn enumerable(&self) -> bool {
        !self.per_cut_postings.is_empty() || self.per_entity.iter().all(Vec::is_empty)
    }

    /// The `count << 32 | row` postings ([`posting_row`]) of exactly the
    /// entities with at least `theta` (≥ 1) associations of value ≥ `cut`.
    pub fn postings_ge(&self, cut: f64, theta: u64) -> &[u64] {
        // Snap to the smallest cutpoint ≥ cut (suffix counts are piecewise
        // constant between cutpoints).
        let ci = self.cutpoints.partition_point(|&c| c < cut);
        self.per_cut_postings
            .get(ci)
            .map_or(&[], |postings| count_suffix(postings, theta))
    }

    /// Fill `out[ci]` with this entity's suffix count at every cutpoint
    /// (one descending walk; `out` is resized to `cutpoints.len()`).
    pub fn suffix_counts_into(&self, row: RowId, out: &mut Vec<u64>) {
        match self.per_entity.get(row) {
            Some(ent) => suffix_walk(ent, &self.cutpoints, out),
            None => {
                out.clear();
                out.resize(self.cutpoints.len(), 0);
            }
        }
    }

    /// Suffix count for one entity: #associations with value ≥ `cut`.
    pub fn suffix_count_of(&self, row: RowId, cut: f64) -> u64 {
        let Some(ent) = self.per_entity.get(row) else {
            return 0;
        };
        let start = ent.partition_point(|&(x, _)| x < cut);
        ent[start..].iter().map(|(_, c)| c).sum()
    }

    /// ψ(φ⟨A ≥ cut, θ⟩): fraction of entities with suffix count ≥ θ.
    pub fn selectivity_ge(&self, cut: f64, theta: u64, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.postings_ge(cut, theta).len() as f64 / n as f64
    }

    /// ψ at cutpoint *index* `ci` — the candidate-emission fast path: the
    /// frontier scan already walks cutpoints by index, so it must not pay
    /// the cut-snapping binary search per point.
    pub fn selectivity_at(&self, ci: usize, theta: u64, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let Some(postings) = self.per_cut_postings.get(ci) else {
            return 0.0;
        };
        count_suffix(postings, theta).len() as f64 / n as f64
    }

    /// Domain coverage of the suffix range `[cut, max]`.
    pub fn coverage_ge(&self, cut: f64) -> f64 {
        let (Some(&min), Some(&max)) = (self.cutpoints.first(), self.cutpoints.last()) else {
            return 1.0;
        };
        if max <= min {
            return 1.0;
        }
        ((max - cut.max(min)) / (max - min)).clamp(0.0, 1.0)
    }
}

/// `out[ci]` = total count of `ent` entries NOT below `cutpoints[ci]`
/// (matching `partition_point(|x| x < cut)`: NaN entries are never below
/// any cut, so they count into every suffix). `ent` must be ascending by
/// total order; one merge walk from the top.
fn suffix_walk(ent: &[(f64, u64)], cutpoints: &[f64], out: &mut Vec<u64>) {
    out.clear();
    out.resize(cutpoints.len(), 0);
    let mut j = ent.len();
    let mut run = 0u64;
    // NaNs sort above every finite cut and `x < cut` is false for them:
    // consume them into the running suffix first.
    while j > 0 && ent[j - 1].0.is_nan() {
        run += ent[j - 1].1;
        j -= 1;
    }
    for ci in (0..cutpoints.len()).rev() {
        let cut = cutpoints[ci];
        // NOT below the cut in partial order (NaN included), matching
        // `partition_point(|x| x < cut)`.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        while j > 0 && !(ent[j - 1].0 < cut) {
            run += ent[j - 1].1;
            j -= 1;
        }
        out[ci] = run;
    }
}

/// Canonical fingerprint of one candidate filter's *satisfying row set*:
/// the interned property id, a kind tag, the association-strength
/// threshold θ (0 when the filter carries none), and the filter's
/// value/bounds canonicalized to raw `u64` words (symbol ids, float bits).
///
/// Two filters with equal fingerprints satisfy exactly the same entity
/// rows, which is what lets [`FilterSetCache`] memoize row bitmaps across
/// session turns. The encoding is chosen by the caller (squid-core's
/// `filter_fingerprint`); this type only guarantees `Eq`/`Hash` over it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterFingerprint {
    prop: Sym,
    kind: u8,
    /// Words actually used in `words` (≤ 4 before spilling).
    len: u8,
    theta: u64,
    /// Inline payload: every filter kind except long IN-lists fits here, so
    /// building and cloning a fingerprint never allocates.
    words: [u64; 4],
    /// Overflow payload for variable-length kinds (empty `Vec`s don't
    /// allocate).
    spill: Vec<u64>,
}

impl std::hash::Hash for FilterFingerprint {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Only the used words: unused slots are always zero by
        // construction, so equal fingerprints still hash equal.
        self.prop.hash(state);
        self.kind.hash(state);
        self.theta.hash(state);
        self.words[..self.len as usize].hash(state);
        self.spill.hash(state);
    }
}

impl FilterFingerprint {
    /// Assemble a fingerprint from its canonical parts.
    pub fn new(prop: Sym, kind: u8, theta: u64, payload: &[u64]) -> FilterFingerprint {
        let mut words = [0u64; 4];
        let inline = payload.len().min(4);
        words[..inline].copy_from_slice(&payload[..inline]);
        FilterFingerprint {
            prop,
            kind,
            len: inline as u8,
            theta,
            words,
            spill: payload[inline..].to_vec(),
        }
    }

    /// The interned property id this fingerprint constrains.
    pub fn prop(&self) -> Sym {
        self.prop
    }

    /// Approximate heap footprint of the fingerprint key itself.
    fn key_bytes(&self) -> usize {
        std::mem::size_of::<FilterFingerprint>() + self.spill.len() * 8
    }
}

/// Approximate resident footprint of one cached entry: the bitmap words
/// plus the fingerprint key and the `RowSet` header.
fn entry_bytes(fp: &FilterFingerprint, set: &RowSet) -> usize {
    fp.key_bytes() + set.word_count() * 8 + std::mem::size_of::<RowSet>()
}

/// One resident cache entry plus its CLOCK reference bit.
#[derive(Debug, Clone)]
struct Slot {
    fp: FilterFingerprint,
    set: Arc<RowSet>,
    bytes: usize,
    referenced: bool,
}

/// Byte-bounded fingerprint → bitmap map with CLOCK (second-chance)
/// eviction — the storage of each [`SharedFilterSetCache`] shard.
///
/// Entries live in stable slots; a clock hand sweeps them on pressure,
/// clearing reference bits on the first pass and evicting unreferenced
/// slots on the second — an O(1)-amortized LRU approximation that needs no
/// per-access list surgery, so the hot lookup path stays one hash probe
/// plus one flag store.
#[derive(Debug, Clone, Default)]
struct ClockMap {
    map: FxHashMap<FilterFingerprint, usize>,
    slots: Vec<Option<Slot>>,
    /// Vacated slot indices, reused before growing `slots`.
    free: Vec<usize>,
    hand: usize,
    resident_bytes: usize,
    evictions: u64,
}

impl ClockMap {
    /// Resident set for `fp`, marking its slot referenced (touch-on-use).
    fn get(&mut self, fp: &FilterFingerprint) -> Option<&Arc<RowSet>> {
        let &i = self.map.get(fp)?;
        let slot = self.slots[i].as_mut().expect("mapped slot is occupied");
        slot.referenced = true;
        Some(&slot.set)
    }

    /// Admit `set` under `fp` cold (reference bit clear: touch-on-use only,
    /// so never-looked-up entries are the first victims), evicting
    /// second-chance victims first so the resident footprint (including the
    /// new entry) stays within `budget`. An entry larger than the whole
    /// budget is rejected outright (returns `false`); a fingerprint already
    /// resident is left as-is.
    fn insert(&mut self, fp: &FilterFingerprint, set: Arc<RowSet>, budget: usize) -> bool {
        let bytes = entry_bytes(fp, &set);
        if bytes > budget {
            return false;
        }
        if self.map.contains_key(fp) {
            return true;
        }
        self.evict_to(budget - bytes);
        let slot = Slot {
            fp: fp.clone(),
            set,
            bytes,
            referenced: false,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.map.insert(fp.clone(), i);
        self.resident_bytes += bytes;
        true
    }

    /// Advance the clock hand until the resident footprint is within
    /// `budget`: referenced slots get their second chance (bit cleared,
    /// hand moves on), unreferenced slots are evicted.
    fn evict_to(&mut self, budget: usize) {
        // Two full revolutions bound the sweep: the first clears every
        // reference bit, the second can evict every slot.
        let mut spared = 0usize;
        while self.resident_bytes > budget && !self.map.is_empty() && spared <= 2 * self.slots.len()
        {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            match &mut self.slots[self.hand] {
                Some(s) if s.referenced => {
                    s.referenced = false;
                    spared += 1;
                }
                Some(_) => {
                    let s = self.slots[self.hand].take().expect("occupied slot");
                    self.map.remove(&s.fp);
                    self.free.push(self.hand);
                    self.resident_bytes -= s.bytes;
                    self.evictions += 1;
                }
                None => spared += 1,
            }
            self.hand += 1;
        }
    }

    /// Clear every reference bit (one aging round): entries not touched
    /// again before the next pressure sweep become eviction candidates.
    fn decay(&mut self) {
        for s in self.slots.iter_mut().flatten() {
            s.referenced = false;
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.hand = 0;
        self.resident_bytes = 0;
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Default resident-byte bound of a [`SharedFilterSetCache`] (64 MiB —
/// generous for bitmap row sets, which cost one bit per entity row per
/// cached filter): a `SessionManager`'s store, and the private store behind
/// [`FilterSetCache::new`].
pub const DEFAULT_SHARED_CACHE_BYTES: usize = 64 << 20;

/// A session's handle on the cross-turn evaluation cache: the
/// [`SharedFilterSetCache`] that memoizes per-filter row bitmaps keyed by
/// [`FilterFingerprint`], the αDB generation the session computes against
/// ([`crate::ADb::generation`]), and the session's own hit/miss counters.
///
/// The interactive session loop re-evaluates the abduced query after every
/// example or feedback action, yet successive turns share almost all of
/// their filters. Caching each filter's exact satisfying [`RowSet`] turns
/// repeat evaluation into word-wise bitmap intersections — the αDB postings
/// are only walked the first time any session on the store sees a filter.
///
/// There is one level: [`lookup`](Self::lookup) is a shard lookup and
/// [`insert_with`](Self::insert_with) computes a set and publishes it, so
/// the store's byte bound covers every resident bitmap. Sessions hosted by
/// a `SessionManager` share the manager's store; a handle built by
/// [`new`](Self::new) owns a private one until
/// [`attach_shared`](Self::attach_shared) points it elsewhere.
#[derive(Debug, Clone)]
pub struct FilterSetCache {
    store: Arc<SharedFilterSetCache>,
    generation: u64,
    hits: u64,
    misses: u64,
}

impl FilterSetCache {
    /// A handle for αDB `generation` on a private store bounded by
    /// [`DEFAULT_SHARED_CACHE_BYTES`].
    pub fn new(generation: u64) -> FilterSetCache {
        let store = SharedFilterSetCache::new(generation, DEFAULT_SHARED_CACHE_BYTES);
        FilterSetCache::attached(Arc::new(store), generation)
    }

    /// A handle for αDB `generation` on `store`.
    pub fn attached(store: Arc<SharedFilterSetCache>, generation: u64) -> FilterSetCache {
        FilterSetCache {
            store,
            generation,
            hits: 0,
            misses: 0,
        }
    }

    /// The αDB generation this handle's lookups and publications carry.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Read and publish through `shared` from now on (counters are kept).
    pub fn attach_shared(&mut self, shared: Arc<SharedFilterSetCache>) {
        self.store = shared;
    }

    /// Resident set for `fp` as a shared handle, counting one hit when the
    /// store holds it.
    pub fn lookup(&mut self, fp: &FilterFingerprint) -> Option<Arc<RowSet>> {
        let found = self.store.lookup(fp, self.generation);
        self.hits += u64::from(found.is_some());
        found
    }

    /// Compute the set for `fp`, publish it, and return it, counting one
    /// miss. The set is returned even when the store's bound rejects it —
    /// correctness never depends on admission.
    pub fn insert_with(
        &mut self,
        fp: &FilterFingerprint,
        compute: impl FnOnce() -> RowSet,
    ) -> Arc<RowSet> {
        self.misses += 1;
        let set = Arc::new(compute());
        self.store.publish(fp, self.generation, &set);
        set
    }

    /// Lookups the store answered.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Sets computed and published (each one a lookup the store missed).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Number of independently locked shards in a [`SharedFilterSetCache`].
pub const SHARED_CACHE_SHARDS: usize = 16;

/// The evaluation cache: one sharded fingerprint → bitmap store that every
/// session's [`FilterSetCache`] handle over the same `Arc<ADb>` looks
/// filters up in and publishes freshly computed sets to.
///
/// Under a many-user serving workload, concurrent sessions keep abducing
/// the same popular filters; without sharing, each re-derives the same
/// bitmaps from the αDB postings. The store makes every popular filter's
/// set a process-wide one-time cost: sets are `Arc<RowSet>` handles, so
/// crossing the cache clones a pointer, never bitmap words.
///
/// * **Sharding** — [`SHARED_CACHE_SHARDS`] independent shards, selected
///   by fingerprint hash, each a CLOCK map behind its own `Mutex`:
///   unrelated filters never contend, and a lookup or publish holds its
///   shard's lock only for one hash probe and one `Arc` clone (or one
///   admission).
/// * **Byte bound** — the configured `max_resident_bytes` is split evenly
///   across shards; each shard runs CLOCK second-chance eviction over its
///   slots. Sessions hold no bitmap of their own between turns, so the
///   bound covers every resident bitmap and the footprint stays flat no
///   matter how many sessions or distinct filters the workload has.
///   Publications are admitted *cold* (reference bit clear): only a later
///   lookup marks an entry hot, so bitmaps published by a session that
///   died before anyone reused them are the first victims.
/// * **Generation tags** — every shard is tagged with the αDB generation
///   its entries were computed against; an access carrying a different
///   generation clears that shard before proceeding, so a rebuilt αDB can
///   never be served stale bitmaps. Invalidation is lazy (per shard, on
///   first access), which keeps generation bumps O(1).
///
/// A [`SessionManager`](../../squid_core/struct.SessionManager.html) owns
/// one per fleet; a handle built by [`FilterSetCache::new`] owns a private
/// one.
#[derive(Debug)]
pub struct SharedFilterSetCache {
    shards: Vec<Mutex<SharedShard>>,
    /// Per-shard byte budget: `max_resident_bytes / SHARED_CACHE_SHARDS`
    /// (floor, so the summed residency never exceeds the configured total).
    shard_budget: usize,
    max_resident_bytes: usize,
}

/// One shard: everything here sits behind the shard's `Mutex`.
#[derive(Debug, Default)]
struct SharedShard {
    generation: u64,
    inner: ClockMap,
    /// Lookups that found / did not find a resident set.
    hits: u64,
    misses: u64,
}

impl SharedShard {
    /// Lazy invalidation: an access carrying a different αDB generation
    /// drops every entry before it proceeds.
    fn retag(&mut self, generation: u64) {
        if self.generation != generation {
            self.inner.clear();
            self.generation = generation;
        }
    }
}

/// Lock a shard, recovering from poisoning: no user code runs under a
/// shard lock, so a poisoned flag means some *other* session's turn
/// panicked — its entries are whole `Arc` values and stay consistent, and
/// one crashed session must not take the shared cache down for every
/// sibling on the fleet.
fn lock(shard: &Mutex<SharedShard>) -> MutexGuard<'_, SharedShard> {
    shard
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Point-in-time aggregate counters of a [`SharedFilterSetCache`],
/// summed across shards (see [`SharedFilterSetCache::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups served from a shard.
    pub hits: u64,
    /// Lookups that found nothing resident.
    pub misses: u64,
    /// Entries evicted by the byte bound across all shards.
    pub evictions: u64,
    /// Resident filter row sets across all shards.
    pub entries: usize,
    /// Approximate resident bytes across all shards.
    pub resident_bytes: usize,
    /// Per-shard resident bytes (length [`SHARED_CACHE_SHARDS`]) — the
    /// skew diagnostic for tuning `max_resident_bytes`.
    pub per_shard_resident_bytes: Vec<usize>,
    /// The configured fleet-wide resident-byte bound.
    pub max_resident_bytes: usize,
}

impl SharedCacheStats {
    /// Fleet-wide hit rate in `[0, 1]` (`0.0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl SharedFilterSetCache {
    /// Empty shared cache bound to an αDB generation, with a fleet-wide
    /// resident-byte bound (split evenly across shards — a single entry can
    /// therefore occupy at most `max_resident_bytes / SHARED_CACHE_SHARDS`
    /// bytes; larger sets are simply not admitted).
    pub fn new(generation: u64, max_resident_bytes: usize) -> SharedFilterSetCache {
        SharedFilterSetCache {
            shards: (0..SHARED_CACHE_SHARDS)
                .map(|_| {
                    Mutex::new(SharedShard {
                        generation,
                        ..SharedShard::default()
                    })
                })
                .collect(),
            shard_budget: max_resident_bytes / SHARED_CACHE_SHARDS,
            max_resident_bytes,
        }
    }

    /// The configured fleet-wide resident-byte bound.
    pub fn max_resident_bytes(&self) -> usize {
        self.max_resident_bytes
    }

    /// Index of the shard that owns `fp`.
    fn shard_index(fp: &FilterFingerprint) -> usize {
        use std::hash::BuildHasher;
        let h = squid_relation::FxBuildHasher::default().hash_one(fp);
        // Shard on the HIGH hash bits: each shard's inner FxHashMap (same
        // hasher) buckets on the low bits, so consuming those here would
        // leave every shard's keys clustered in 1/16 of its buckets.
        (h >> 60) as usize % SHARED_CACHE_SHARDS
    }

    /// The locked shard that owns `fp`, retagged to `generation`.
    fn shard_for(&self, fp: &FilterFingerprint, generation: u64) -> MutexGuard<'_, SharedShard> {
        let mut shard = lock(&self.shards[Self::shard_index(fp)]);
        shard.retag(generation);
        shard
    }

    /// Resident set for `fp` computed against αDB `generation`, as a
    /// shared handle; marks the entry hot (touch-on-use). Holds the
    /// shard's lock for one hash probe and one `Arc` clone.
    pub fn lookup(&self, fp: &FilterFingerprint, generation: u64) -> Option<Arc<RowSet>> {
        let mut shard = self.shard_for(fp, generation);
        let found = shard.inner.get(fp).map(Arc::clone);
        if found.is_some() {
            shard.hits += 1;
        } else {
            shard.misses += 1;
        }
        found
    }

    /// Publish a freshly computed set so later turns and other sessions
    /// can reuse it. Admission is cold (reference bit clear): only a later
    /// [`lookup`](Self::lookup) promotes the entry, so unused publications
    /// are evicted first when the shard's byte budget tightens.
    pub fn publish(&self, fp: &FilterFingerprint, generation: u64, set: &Arc<RowSet>) {
        let budget = self.shard_budget;
        self.shard_for(fp, generation)
            .inner
            .insert(fp, Arc::clone(set), budget);
    }

    /// One aging round: clear every entry's reference bit so bitmaps not
    /// looked up again before the next pressure sweep become eviction
    /// candidates. The `SessionManager` TTL sweep calls this after evicting
    /// dead sessions, so their published-but-unused entries can't stay
    /// pinned by a stale reference bit.
    pub fn decay(&self) {
        for shard in &self.shards {
            lock(shard).inner.decay();
        }
    }

    /// Approximate resident bytes across all shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock(s).inner.resident_bytes)
            .sum()
    }

    /// Aggregate counters, summed across shards (each read under its
    /// shard's lock).
    pub fn stats(&self) -> SharedCacheStats {
        let n = self.shards.len();
        let mut stats = SharedCacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            entries: 0,
            resident_bytes: 0,
            per_shard_resident_bytes: Vec::with_capacity(n),
            max_resident_bytes: self.max_resident_bytes,
        };
        for shard in &self.shards {
            let state = lock(shard);
            stats.hits += state.hits;
            stats.misses += state.misses;
            stats.evictions += state.inner.evictions;
            stats.entries += state.inner.len();
            stats.resident_bytes += state.inner.resident_bytes;
            stats
                .per_shard_resident_bytes
                .push(state.inner.resident_bytes);
        }
        stats
    }
}

/// The statistics attached to one property.
#[derive(Debug, Clone, PartialEq)]
pub enum PropStats {
    /// Categorical (direct or fact-hop).
    Categorical(CategoricalStats),
    /// Direct numeric.
    Numeric(NumericStats),
    /// Derived counted (fact attribute, mid attribute, or two-hop).
    Derived(DerivedStats),
    /// Derived over a numeric mid attribute (suffix ranges).
    DerivedNumeric(DerivedNumericStats),
}

impl PropStats {
    /// Whether the postings that hand over a filter's satisfying rows are
    /// populated. True for everything [`ADb::build`](crate::ADb::build)
    /// computes and [`ADb::load_snapshot`](crate::ADb::load_snapshot)
    /// reads; false only for statistics assembled by hand from their
    /// per-entity fields, which evaluation answers row by row. Derived
    /// counts have no hand-assembled form (their run arena is private).
    pub fn enumerable(&self) -> bool {
        match self {
            PropStats::Categorical(s) => s.enumerable(),
            PropStats::Numeric(s) => s.enumerable(),
            PropStats::Derived(_) => true,
            PropStats::DerivedNumeric(s) => s.enumerable(),
        }
    }

    /// Estimated heap bytes of every array and map above.
    pub fn heap_bytes(&self) -> usize {
        fn nested<T>(outer: &Vec<Vec<T>>) -> usize {
            vec_bytes(outer) + outer.iter().map(vec_bytes).sum::<usize>()
        }
        match self {
            PropStats::Categorical(s) => {
                map_bytes(&s.value_entity_counts)
                    + nested(&s.per_entity)
                    + map_bytes(&s.value_rows)
                    + s.value_rows
                        .values()
                        .map(|rows| match rows {
                            ValueRows::Sparse(rows) => vec_bytes(rows),
                            ValueRows::Dense(set) => set.heap_bytes(),
                        })
                        .sum::<usize>()
            }
            PropStats::Numeric(s) => {
                vec_bytes(&s.sorted_values)
                    + vec_bytes(&s.prefix)
                    + vec_bytes(&s.per_entity)
                    + vec_bytes(&s.sorted_rows)
            }
            PropStats::Derived(s) => {
                vec_bytes(&s.runs)
                    + vec_bytes(&s.offsets)
                    + vec_bytes(&s.entity_totals)
                    + map_bytes(&s.theta_postings)
                    + s.theta_postings.values().map(vec_bytes).sum::<usize>()
                    + map_bytes(&s.value_frac_dists)
                    + s.value_frac_dists.values().map(vec_bytes).sum::<usize>()
            }
            PropStats::DerivedNumeric(s) => {
                nested(&s.per_entity) + vec_bytes(&s.cutpoints) + nested(&s.per_cut_postings)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::text(s)
    }

    #[test]
    fn categorical_selectivity_and_coverage() {
        let mut s = CategoricalStats::default();
        s.value_entity_counts.insert(v("Male"), 3);
        s.value_entity_counts.insert(v("Female"), 3);
        s.per_entity = vec![vec![v("Male")]; 3];
        assert_eq!(s.selectivity_eq(&v("Male"), 6), 0.5);
        assert_eq!(s.selectivity_eq(&v("Other"), 6), 0.0);
        assert_eq!(s.coverage_eq(), 0.5);
        assert_eq!(s.selectivity_in(&[v("Male"), v("Female")], 6), 1.0);
        assert_eq!(s.coverage_in(2), 1.0);
    }

    #[test]
    fn numeric_range_selectivity_matches_figure6() {
        // Ages from Figure 6: 50, 90, 60, 50, 29, 60.
        let s = NumericStats::build(vec![
            Some(50.0),
            Some(90.0),
            Some(60.0),
            Some(50.0),
            Some(29.0),
            Some(60.0),
        ]);
        // ψ(φ⟨age,[50,90],⊥⟩) = 5/6 per the paper.
        assert!((s.selectivity_range(50.0, 90.0, 6) - 5.0 / 6.0).abs() < 1e-12);
        assert!((s.selectivity_range(29.0, 29.0, 6) - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.selectivity_range(91.0, 99.0, 6), 0.0);
        assert_eq!(s.selectivity_range(0.0, 100.0, 6), 1.0);
    }

    #[test]
    fn numeric_coverage() {
        let s = NumericStats::build(vec![Some(0.0), Some(100.0)]);
        assert!((s.coverage_range(40.0, 90.0) - 0.5).abs() < 1e-12);
        assert!((s.coverage_range(-10.0, 200.0) - 1.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(0.0));
        assert_eq!(s.max(), Some(100.0));
    }

    #[test]
    fn numeric_empty_is_safe() {
        let s = NumericStats::build(vec![None, None]);
        assert_eq!(s.selectivity_range(0.0, 1.0, 2), 0.0);
        assert_eq!(s.coverage_range(0.0, 1.0), 1.0);
        assert_eq!(s.value_of(0), None);
    }

    #[test]
    fn derived_selectivity_by_threshold() {
        // 4 entities; comedy counts 5, 3, 0, 1.
        let mk = |pairs: &[(&str, u64)]| {
            pairs
                .iter()
                .map(|(k, c)| (v(k), *c))
                .collect::<FxHashMap<_, _>>()
        };
        let s = DerivedStats::build(vec![
            mk(&[("Comedy", 5)]),
            mk(&[("Comedy", 3), ("Drama", 1)]),
            mk(&[("Drama", 2)]),
            mk(&[("Comedy", 1)]),
        ]);
        assert_eq!(s.selectivity(&v("Comedy"), 1, 4), 0.75);
        assert_eq!(s.selectivity(&v("Comedy"), 3, 4), 0.5);
        assert_eq!(s.selectivity(&v("Comedy"), 6, 4), 0.0);
        assert_eq!(s.selectivity(&v("Missing"), 1, 4), 0.0);
        assert_eq!(s.count_of(0, &v("Comedy")), 5);
        assert_eq!(s.count_of(2, &v("Comedy")), 0);
        assert_eq!(s.domain_size(), 2);
    }

    #[test]
    fn derived_normalized_fractions() {
        let mk = |pairs: &[(&str, u64)]| {
            pairs
                .iter()
                .map(|(k, c)| (v(k), *c))
                .collect::<FxHashMap<_, _>>()
        };
        let s = DerivedStats::build(vec![
            mk(&[("Comedy", 3), ("Drama", 1)]), // 75% comedy
            mk(&[("Comedy", 1), ("Drama", 3)]), // 25% comedy
        ]);
        assert!((s.frac_of(0, &v("Comedy")) - 0.75).abs() < 1e-12);
        assert_eq!(s.selectivity_frac(&v("Comedy"), 0.5, 2), 0.5);
        assert_eq!(s.selectivity_frac(&v("Comedy"), 0.2, 2), 1.0);
    }

    #[test]
    fn derived_numeric_suffix_counts() {
        // Entity 0: movies in 2008 (2 of them) and 2012 (3). Entity 1: 2005 (1).
        let s = DerivedNumericStats::build(vec![vec![(2008.0, 2), (2012.0, 3)], vec![(2005.0, 1)]]);
        assert_eq!(s.suffix_count_of(0, 2010.0), 3);
        assert_eq!(s.suffix_count_of(0, 2000.0), 5);
        assert_eq!(s.suffix_count_of(1, 2010.0), 0);
        // ψ(year ≥ 2010, θ=3) = 1/2 entities.
        assert_eq!(s.selectivity_ge(2010.0, 3, 2), 0.5);
        assert_eq!(s.selectivity_ge(2010.0, 4, 2), 0.0);
        assert_eq!(s.selectivity_ge(2000.0, 1, 2), 1.0);
        // Coverage shrinks as the cut rises.
        assert!(s.coverage_ge(2012.0) < s.coverage_ge(2005.0));
    }

    #[test]
    fn derived_numeric_nan_entries_count_into_every_suffix() {
        // partition_point(|x| x < cut) keeps NaN in every suffix; the
        // build-time walk must agree with the point query.
        let s =
            DerivedNumericStats::build(vec![vec![(2010.0, 3), (f64::NAN, 1)], vec![(2005.0, 1)]]);
        for &cut in &[1990.0, 2005.0, 2010.0] {
            assert_eq!(s.suffix_count_of(0, cut), if cut <= 2010.0 { 4 } else { 1 });
            let ci = s.cutpoints.partition_point(|&c| c < cut);
            assert!(
                s.per_cut_postings[ci].contains(&pack_posting(s.suffix_count_of(0, cut), 0)),
                "walk and point query disagree at cut {cut}"
            );
        }
    }

    #[test]
    fn derived_numeric_empty_is_safe() {
        let s = DerivedNumericStats::build(vec![vec![], vec![]]);
        assert_eq!(s.selectivity_ge(0.0, 1, 2), 0.0);
        assert_eq!(s.coverage_ge(0.0), 1.0);
    }

    /// Distinct fingerprint `i` with a one-word row set `{i % 64}`.
    fn fp(i: u64) -> FilterFingerprint {
        FilterFingerprint::new(Sym::from(format!("p{i}").as_str()), 0, 0, &[i])
    }

    fn one_row_set(i: u64) -> RowSet {
        let mut s = RowSet::with_universe(64);
        s.insert(i as usize % 64);
        s
    }

    /// Adversarial insert order through a session handle never pushes any
    /// shard past its budget, and the evictions counter accounts for
    /// displaced entries.
    #[test]
    fn session_cache_eviction_respects_byte_bound() {
        let per_entry = entry_bytes(&fp(0), &one_row_set(0));
        // Room for three entries per shard, not four.
        let shard_budget = per_entry * 3 + per_entry / 2;
        let shared = Arc::new(SharedFilterSetCache::new(
            7,
            shard_budget * SHARED_CACHE_SHARDS,
        ));
        let mut cache = FilterSetCache::attached(Arc::clone(&shared), 7);
        for round in 0..3 {
            // Alternate sweep directions so the clock hand sees inserts in
            // both LIFO and FIFO order relative to its position.
            let ids: Vec<u64> = if round % 2 == 0 {
                (0..200).collect()
            } else {
                (0..200).rev().collect()
            };
            for i in ids {
                cache.insert_with(&fp(i), || one_row_set(i));
                for (s, &b) in shared.stats().per_shard_resident_bytes.iter().enumerate() {
                    assert!(
                        b <= shard_budget,
                        "shard {s} holds {b} > {shard_budget} bytes after inserting {i}"
                    );
                }
            }
        }
        let stats = shared.stats();
        assert!(stats.evictions > 0);
        // Post-churn integrity: every fingerprint a shard's map still
        // claims to hold must actually be servable (eviction bookkeeping
        // kept the map ↔ slot mapping consistent), and nothing else is.
        let resident: Vec<u64> = (0..200)
            .filter(|&i| {
                lock(&shared.shards[SharedFilterSetCache::shard_index(&fp(i))])
                    .inner
                    .map
                    .contains_key(&fp(i))
            })
            .collect();
        assert_eq!(resident.len(), stats.entries);
        assert!(!resident.is_empty());
        for i in 0..200 {
            assert_eq!(
                cache.lookup(&fp(i)).is_some(),
                resident.contains(&i),
                "entry {i} must be servable exactly when resident"
            );
        }
    }

    /// An entry larger than a shard's whole budget is never admitted (and
    /// never panics the byte accounting).
    #[test]
    fn oversized_entries_are_rejected() {
        let shared = Arc::new(SharedFilterSetCache::new(1, 8 * SHARED_CACHE_SHARDS));
        let mut cache = FilterSetCache::attached(Arc::clone(&shared), 1);
        let set = cache.insert_with(&fp(1), || one_row_set(1));
        assert_eq!(set.len(), 1, "the computed set is still returned");
        let stats = shared.stats();
        assert_eq!((stats.entries, stats.resident_bytes), (0, 0));
        assert!(cache.lookup(&fp(1)).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    #[test]
    fn shared_cache_round_trips_and_counts() {
        let shared = SharedFilterSetCache::new(42, 1 << 20);
        let set = std::sync::Arc::new(one_row_set(5));
        assert!(shared.lookup(&fp(5), 42).is_none());
        shared.publish(&fp(5), 42, &set);
        let got = shared.lookup(&fp(5), 42).expect("published entry");
        assert_eq!(*got, *set);
        let stats = shared.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.per_shard_resident_bytes.len(), SHARED_CACHE_SHARDS);
        assert_eq!(
            stats.per_shard_resident_bytes.iter().sum::<usize>(),
            stats.resident_bytes
        );
        assert_eq!(stats.max_resident_bytes, 1 << 20);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// A generation bump invalidates lazily: the stale entry is dropped on
    /// first access with the new tag instead of being served.
    #[test]
    fn shared_cache_generation_invalidation_is_lazy() {
        let shared = SharedFilterSetCache::new(1, 1 << 20);
        shared.publish(&fp(9), 1, &std::sync::Arc::new(one_row_set(9)));
        assert!(shared.lookup(&fp(9), 1).is_some());
        assert!(shared.lookup(&fp(9), 2).is_none(), "new generation misses");
        // Republishing under the old generation also misses first (the
        // shard re-tagged to 2), so no cross-generation set survives.
        assert!(shared.lookup(&fp(9), 1).is_none());
    }

    /// The fleet-wide byte bound holds under adversarial publish order,
    /// and per-shard residency stays within the per-shard budget.
    #[test]
    fn shared_cache_eviction_respects_byte_bound() {
        let per_entry = entry_bytes(&fp(0), &one_row_set(0));
        let cap = per_entry * SHARED_CACHE_SHARDS * 2;
        let shared = SharedFilterSetCache::new(3, cap);
        for i in 0..500 {
            shared.publish(&fp(i), 3, &std::sync::Arc::new(one_row_set(i)));
            assert!(shared.resident_bytes() <= cap);
        }
        let stats = shared.stats();
        assert!(stats.evictions > 0);
        assert!(stats.resident_bytes <= cap);
        let shard_budget = cap / SHARED_CACHE_SHARDS;
        for &b in &stats.per_shard_resident_bytes {
            assert!(
                b <= shard_budget,
                "shard residency {b} > budget {shard_budget}"
            );
        }
    }

    /// `decay` must actually revoke reference protection: a touched (hot)
    /// entry survives one pressure sweep, but after `decay` the clock hand
    /// takes it immediately instead of sparing it once. (If `decay` were a
    /// no-op, the hand would clear #1's bit, move on, and evict #2.)
    #[test]
    fn decay_revokes_second_chances() {
        let mut m = ClockMap::default();
        let budget = entry_bytes(&fp(1), &one_row_set(1)) * 2;
        assert!(m.insert(&fp(1), Arc::new(one_row_set(1)), budget));
        assert!(m.insert(&fp(2), Arc::new(one_row_set(2)), budget));
        m.get(&fp(1)).expect("resident");
        m.decay();
        // One admission forces one eviction; the hand sits at slot 0 (#1).
        assert!(m.insert(&fp(3), Arc::new(one_row_set(3)), budget));
        assert!(
            !m.map.contains_key(&fp(1)),
            "decayed entry must have lost its second chance"
        );
        assert!(m.map.contains_key(&fp(2)));
        assert_eq!(m.evictions, 1);
    }

    /// Shared-level smoke of the TTL-sweep aging path: decay keeps every
    /// entry resident (it drops priority, not residency) and post-decay
    /// lookups still serve and re-promote them.
    #[test]
    fn decay_unpins_unused_entries() {
        let per_entry = entry_bytes(&fp(0), &one_row_set(0));
        let shared = SharedFilterSetCache::new(5, per_entry * SHARED_CACHE_SHARDS * 2);
        for i in 0..100 {
            shared.publish(&fp(i), 5, &std::sync::Arc::new(one_row_set(i)));
        }
        let before = shared.stats();
        shared.decay();
        assert_eq!(shared.stats().entries, before.entries);
        for i in 0..100 {
            let _ = shared.lookup(&fp(i), 5);
        }
        let after = shared.stats();
        assert!(after.hits > before.hits);
        assert!(after.resident_bytes <= shared.max_resident_bytes());
    }

    /// A shared `lookup` hit is a CLOCK touch: with a shard holding two
    /// cold publications, the one a session looked up survives the next
    /// admission's pressure sweep and its never-looked-up sibling is the
    /// victim — even though the hand reaches the looked-up entry first.
    #[test]
    fn shared_lookup_hit_survives_pressure_that_evicts_untouched_sibling() {
        let per_entry = entry_bytes(&fp(0), &one_row_set(0));
        // Exactly two entries per shard.
        let shared = SharedFilterSetCache::new(1, per_entry * SHARED_CACHE_SHARDS * 2);
        let shard = SharedFilterSetCache::shard_index(&fp(0));
        let mut same_shard = (0..).filter(|&i| SharedFilterSetCache::shard_index(&fp(i)) == shard);
        let (a, b, c) = (
            same_shard.next().unwrap(),
            same_shard.next().unwrap(),
            same_shard.next().unwrap(),
        );
        shared.publish(&fp(a), 1, &Arc::new(one_row_set(a)));
        shared.publish(&fp(b), 1, &Arc::new(one_row_set(b)));
        assert!(shared.lookup(&fp(a), 1).is_some());
        shared.publish(&fp(c), 1, &Arc::new(one_row_set(c)));
        assert_eq!(shared.stats().evictions, 1);
        assert!(
            shared.lookup(&fp(a), 1).is_some(),
            "looked-up entry survives"
        );
        assert!(
            shared.lookup(&fp(b), 1).is_none(),
            "untouched sibling is the victim"
        );
        assert!(shared.lookup(&fp(c), 1).is_some());
    }

    /// Generation churn plus eviction pressure through the public API from
    /// three threads: every hit must carry the exact set that was
    /// published for that (fingerprint, generation) pair — a stale set from
    /// a superseded generation (encoded into distinct rows) fails loudly.
    #[test]
    fn concurrent_generation_churn_serves_no_stale_sets() {
        let per_entry = entry_bytes(&fp(0), &one_row_set(0));
        let shared = SharedFilterSetCache::new(1, per_entry * SHARED_CACHE_SHARDS * 2);
        // For a fixed fingerprint i, the four generations map to four
        // distinct rows mod 64, so cross-generation staleness is visible.
        let row = |i: u64, g: u64| one_row_set(i * 8 + g);
        std::thread::scope(|scope| {
            for t in 0..3u64 {
                let shared = &shared;
                let row = &row;
                scope.spawn(move || {
                    let mut x = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    for _ in 0..2_000 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let i = (x >> 33) % 32;
                        let g = 1 + (x >> 59) % 4;
                        if x & 1 == 0 {
                            shared.publish(&fp(i), g, &Arc::new(row(i, g)));
                        } else if let Some(got) = shared.lookup(&fp(i), g) {
                            assert_eq!(
                                *got,
                                row(i, g),
                                "stale set served for fp {i} generation {g}"
                            );
                        }
                    }
                });
            }
        });
        let stats = shared.stats();
        assert!(stats.resident_bytes <= shared.max_resident_bytes());
    }
}
