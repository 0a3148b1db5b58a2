//! Precomputed per-property statistics: exactly the information SQuID's
//! online phase needs to compute filter selectivities ψ(φ) and domain
//! coverages in O(log n) ("smart selectivity computation", Section 5; a
//! normalized fraction walks one value's postings) — and, from the same
//! arrays, each filter's satisfying rows without touching an entity that
//! does not satisfy it.
//!
//! ## Value codes
//!
//! Every property gives its distinct values dense `u32` codes at build,
//! assigned in value order: code `c` is the `c`-th smallest value, so
//! codes sort the way their values do. Each property keeps one
//! dictionary, its values ascending, and stores every per-entity and
//! per-value array by code. A categorical or derived dictionary also maps
//! `Value → code`; a numeric or derived-numeric one is its distinct floats
//! (`cutpoints_of`), and a value's code is its rank. Filters, fingerprints
//! and the wire carry `Value`s; only the statistics store codes, and a
//! read that starts from a `Value` maps it to its code once.
//!
//! Every code, count, offset and row is a `u32`, narrowed in one checked
//! place ([`narrow`]): a property whose figures do not fit is refused at
//! build with an [`Overflow`], never wrapped.
//!
//! The statistics read table cells, which hold no NaN and no `-0.0`
//! ([`Real::new`](squid_relation::Real::new) stores them as NULL and
//! `0.0`), so plain IEEE comparison orders every float they sort or
//! compare, agreeing with `Value`'s total order and the executed SQL.
//!
//! ## Postings layout
//!
//! Every filter kind the online phase abduces reads its answer off one
//! array that is ordered the way the filter cuts it:
//!
//! * **Derived counts** (`⟨A, v, θ⟩`, [`DerivedStats`]): per value code one
//!   group of `count << 32 | row` words ([`posting_row`]), ascending. The
//!   entities associated at least θ times are the suffix a binary search
//!   finds (`count_suffix`); its length over `n` *is* ψ, so the
//!   selectivity and the satisfying rows come from the same lookup. 8
//!   bytes a pair.
//! * **Suffix ranges** (`⟨A ≥ c, θ⟩`, [`DerivedNumericStats`]): an entity
//!   has at least θ associations of value ≥ `c` exactly when its θ-th
//!   largest value, counted with multiplicity, is ≥ `c`. So per θ one
//!   group of `reach << 32 | row` words, ascending, one per entity with at
//!   least θ associations, where the reach is that θ-th largest value's
//!   cutpoint rank. The entities satisfying `⟨A ≥ c, θ⟩` are the suffix
//!   of list θ from the first reach ≥ `c`'s rank: again one binary
//!   search for both ψ and the rows. The lists hold one posting per
//!   association, whatever the domain size.
//! * **Numeric ranges** ([`NumericStats`]): per value code its ascending
//!   rows, the groups in value order, so a range is one slice between two
//!   binary searches over the domain; the offsets are the prefix counts.
//! * **Categorical values** ([`CategoricalStats`]): per value code its
//!   rows, stored in whichever form is smaller ([`ValueRows`]) — ascending
//!   `u32` row ids, or one bit per entity once the list would be at least
//!   as large as the bitmap. A row id is 32 bits and a bitmap spends one
//!   bit per entity, so the crossover is `m · 32 ≥ n` (`DENSE_CROSSOVER`);
//!   it is the point where the two encodings cost the same bytes, which is
//!   why it is a constant and not a setting. A value is never stored both
//!   ways. A dense value answers `attr = v` as it stands: evaluation ANDs
//!   the αDB's own bitmap and builds nothing.
//!
//! ## Per-entity data
//!
//! Per-entity data stays beside the postings, each kind in one CSR arena:
//! an `offsets` array of `n + 1` `u32`s plus one flat array of entries,
//! entity `r`'s entries being `entries[offsets[r]..offsets[r + 1]]`. A
//! categorical entity holds its distinct value codes, ascending; a derived
//! entity its `(code, count)` run, ascending by code; a derived-numeric
//! entity its `(rank, count)` run, ascending by rank; a numeric entity its
//! one code, in a flat `u32` array (past the domain for NULL). No entity
//! owns an allocation. Context discovery folds example rows through these
//! arenas (its intersections are merges over sorted codes), and the
//! per-row filter definition (`CandidateFilter::matches_row`, squid-core),
//! the oracle every set-algebra path is tested against, reads nothing else.
//!
//! ## One store per fact
//!
//! Every figure the online phase reads comes from the array evaluation
//! walks, so no figure has a second copy to keep in step:
//!
//! * ψ_eq, ψ_in and the categorical domain: a value code's row group or
//!   bitmap, whose length is O(1) ([`ValueRows::len`]), and the dictionary.
//! * ψ of a numeric range: the length of its slice of the row groups
//!   ([`NumericStats::rows_in_range`]); min, max, coverage: the domain's ends.
//! * ψ of `⟨A, v, θ⟩`: the length of a θ-suffix of the value's postings.
//! * ψ of `⟨A ≥ c, θ⟩`: the length of a reach-suffix of θ-list θ.
//! * Normalized ψ (`⟨A, v, frac⟩`): one walk over `v`'s postings, keeping
//!   each whose count over its entity's total (`entity_totals`) reaches
//!   `frac` ([`DerivedStats::reaches_share`], the test evaluation walks
//!   too). A posting's count is its entity's run count, so the share is
//!   the same float the per-row definition computes.
//!
//! A value lives once per property, in its dictionary; the arenas hold
//! 4-byte codes. The four statistics types are built only by their
//! constructors and keep their fields private, so every [`PropStats`] has
//! its postings.
//!
//! No array grows with a derived-numeric property's domain times its
//! entities, so no property is skipped for a wide domain. The remaining
//! domain-proportional cost is per example, in squid-core: context
//! discovery folds each example into one suffix count per cutpoint
//! ([`DerivedNumericStats::suffix_counts_into`], O(C)), and candidate
//! emission scans those C cutpoints for the most selective one.
//!
//! Each kind has one assembler, which takes the per-entity codes in one
//! CSR arena (a numeric property's, [`NumericStats::build`], its values):
//! the αDB build fills that arena straight from the fact tables
//! (`crate::build`), and the public constructors (`from_sets`,
//! `from_runs`, [`DerivedNumericStats::build`]) pack their per-entity
//! lists into it, so there is no second implementation. The assemblers
//! size every group array from counts before filling it, and trim what
//! grew by pushes to its length (`shrink_to_fit`): an αDB lives as long as
//! its process, and doubling growth leaves up to half of an array unused.

use std::collections::hash_map::Entry;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

use squid_relation::heap::{map_bytes, vec_bytes};
use squid_relation::{kernel, ColumnVec, FxHashMap, RowId, RowSet, Sym, Value};

/// A categorical value's row list becomes a bitmap once it holds at least
/// one row per this many entities: the point where `m` 32-bit row ids cost
/// as many bytes as an `n`-bit bitmap.
const DENSE_CROSSOVER: usize = 32;

/// A figure too large for the `u32` the statistics store it as. The αDB
/// build refuses the property that produced it and names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overflow {
    /// What the figure counts (`"association count"`, `"entity count"`, …).
    pub what: &'static str,
    /// The figure.
    pub value: u64,
}

impl fmt::Display for Overflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} exceeds the u32 range", self.what, self.value)
    }
}

impl std::error::Error for Overflow {}

/// Narrow `value` to the `u32` every value code, count, offset and row of
/// the statistics is stored as, or refuse it.
pub(crate) fn narrow(value: u64, what: &'static str) -> Result<u32, Overflow> {
    u32::try_from(value).map_err(|_| Overflow { what, value })
}

/// Groups of entries in one flat array: group `i` is
/// `entries[offsets[i]..offsets[i + 1]]` (compressed sparse rows). No
/// group owns an allocation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Csr<T> {
    /// `groups + 1` ascending offsets, the first 0.
    offsets: Vec<u32>,
    pub(crate) entries: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// No groups yet, room for `groups` of them.
    pub(crate) fn with_groups(groups: usize) -> Csr<T> {
        let mut offsets = Vec::with_capacity(groups + 1);
        offsets.push(0);
        Csr {
            offsets,
            entries: Vec::new(),
        }
    }

    /// Groups of the given lengths, every entry `fill`: the caller places
    /// the entries through a cursor per group.
    pub(crate) fn sized(lens: impl IntoIterator<Item = u32>, fill: T) -> Result<Csr<T>, Overflow> {
        let mut offsets = vec![0];
        let mut total = 0u64;
        for len in lens {
            total += u64::from(len);
            offsets.push(narrow(total, "arena offset")?);
        }
        offsets.shrink_to_fit();
        Ok(Csr {
            offsets,
            entries: vec![fill; total as usize],
        })
    }

    /// End the group being pushed: it holds the entries pushed since the
    /// last group ended.
    pub(crate) fn end_group(&mut self) -> Result<(), Overflow> {
        let end = narrow(self.entries.len() as u64, "arena offset")?;
        self.offsets.push(end);
        Ok(())
    }

    pub(crate) fn groups(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Group `i` (empty past the last group).
    pub(crate) fn group(&self, i: usize) -> &[T] {
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&a), Some(&b)) => &self.entries[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Groups `a..b` as one slice, in group order.
    fn span(&self, groups: Range<usize>) -> &[T] {
        &self.entries[self.offsets[groups.start] as usize..self.offsets[groups.end] as usize]
    }

    /// The first entry of every group, for placing entries group by group.
    pub(crate) fn cursors(&self) -> Vec<u32> {
        self.offsets[..self.groups()].to_vec()
    }

    /// Rewrite every group in place with `rewrite`, which returns how many
    /// of its leading entries to keep; the kept entries close up and the
    /// arena is trimmed to them.
    fn compact(
        &mut self,
        mut rewrite: impl FnMut(&mut [T]) -> Result<usize, Overflow>,
    ) -> Result<(), Overflow> {
        let (mut start, mut kept) = (0, 0);
        for i in 0..self.groups() {
            let end = self.offsets[i + 1] as usize;
            let keep = rewrite(&mut self.entries[start..end])?;
            self.entries.copy_within(start..start + keep, kept);
            kept += keep;
            // Never past the old offset, so it fits.
            self.offsets[i + 1] = kept as u32;
            start = end;
        }
        self.entries.truncate(kept);
        self.entries.shrink_to_fit();
        self.offsets.shrink_to_fit();
        Ok(())
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.offsets) + vec_bytes(&self.entries)
    }
}

impl<T: Copy + Ord> Csr<T> {
    /// Sort every group ascending.
    fn sort_groups(&mut self) {
        for i in 0..self.groups() {
            let (a, b) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
            self.entries[a..b].sort_unstable();
        }
    }
}

impl Csr<u32> {
    /// Counting sort of indices by key: group `g` holds, ascending, every
    /// `i` with `keys[i] == g`; a key past the last group is in no group.
    /// Every index fits a `u32` (the callers narrow `keys.len()`).
    pub(crate) fn group_by(keys: &[u32], groups: usize) -> Result<Csr<u32>, Overflow> {
        let grouped = || (0u32..).zip(keys).filter(|&(_, &k)| (k as usize) < groups);
        let mut lens = vec![0u32; groups];
        grouped().for_each(|(_, &k)| lens[k as usize] += 1);
        let mut csr = Csr::sized(lens, 0)?;
        let mut next = csr.cursors();
        for (i, &k) in grouped() {
            csr.entries[next[k as usize] as usize] = i;
            next[k as usize] += 1;
        }
        Ok(csr)
    }
}

/// Keep the first of each run of equal entries of an ascending slice;
/// returns how many are kept, at the front.
fn dedup_sorted(codes: &mut [u32]) -> usize {
    let mut kept = 0;
    for i in 0..codes.len() {
        if kept == 0 || codes[kept - 1] != codes[i] {
            codes[kept] = codes[i];
            kept += 1;
        }
    }
    kept
}

/// Sum the counts of equal keys of a `(key, count)` slice sorted by key;
/// returns how many pairs are kept, at the front.
fn coalesce(run: &mut [(u32, u32)]) -> Result<usize, Overflow> {
    let mut kept = 0;
    for i in 0..run.len() {
        let (key, count) = run[i];
        if kept > 0 && run[kept - 1].0 == key {
            let sum = u64::from(run[kept - 1].1) + u64::from(count);
            run[kept - 1].1 = narrow(sum, "association count")?;
        } else {
            run[kept] = (key, count);
            kept += 1;
        }
    }
    Ok(kept)
}

/// One property's value dictionary: its distinct values ascending by
/// [`Value`]'s total order — code `c` is `values[c]` — and the map back.
#[derive(Debug, Clone, PartialEq)]
struct Dictionary {
    values: Vec<Value>,
    codes: FxHashMap<Value, u32>,
}

impl Dictionary {
    fn code(&self, v: &Value) -> Option<u32> {
        self.codes.get(v).copied()
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.values) + map_bytes(&self.codes)
    }
}

/// Codes handed out in first-seen order while one property's raw lists
/// are read; [`Coder::finish`] renumbers them in value order.
#[derive(Default)]
pub(crate) struct Coder {
    codes: FxHashMap<Value, u32>,
    values: Vec<Value>,
}

impl Coder {
    pub(crate) fn code(&mut self, v: Value) -> Result<u32, Overflow> {
        let next = self.values.len();
        match self.codes.entry(v) {
            Entry::Occupied(e) => Ok(*e.get()),
            Entry::Vacant(e) => {
                let code = narrow(next as u64, "value code")?;
                self.values.push(*e.key());
                Ok(*e.insert(code))
            }
        }
    }

    /// The dictionary, and the final code of every first-seen code.
    fn finish(self) -> (Dictionary, Vec<u32>) {
        let Coder {
            mut codes,
            values: seen,
        } = self;
        let mut order: Vec<u32> = (0..seen.len()).map(|i| i as u32).collect();
        let text: Option<Vec<&str>> = seen.iter().map(Value::as_text).collect();
        match text {
            // Distinct symbols are distinct strings, and `Value::cmp` orders
            // text by its string: the same order, with each string resolved
            // once instead of twice per comparison.
            Some(text) => order.sort_unstable_by_key(|&i| text[i as usize]),
            None => order.sort_unstable_by(|&a, &b| seen[a as usize].cmp(&seen[b as usize])),
        }
        let mut remap = vec![0u32; seen.len()];
        for (code, &first) in order.iter().enumerate() {
            remap[first as usize] = code as u32;
        }
        let values = order.iter().map(|&first| seen[first as usize]).collect();
        codes.values_mut().for_each(|c| *c = remap[*c as usize]);
        codes.shrink_to_fit();
        (Dictionary { values, codes }, remap)
    }
}

/// The entity rows carrying one categorical value, in the smaller of two
/// encodings (see the module docs), borrowed from the statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRows<'a> {
    /// Ascending row ids, for values rarer than one entity in 32.
    Sparse(&'a [u32]),
    /// One bit per entity, sized to the entity count.
    Dense(&'a RowSet),
}

impl ValueRows<'_> {
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

/// One posting: `key << 32 | row`, where the key is an association count
/// (derived) or a cutpoint rank (derived numeric).
#[inline]
fn pack_posting(key: u32, row: u32) -> u64 {
    u64::from(key) << 32 | u64::from(row)
}

/// Entity row of a `key << 32 | row` posting.
#[inline]
pub fn posting_row(posting: u64) -> RowId {
    posting as u32 as RowId
}

/// Association count of a `count << 32 | row` posting.
#[inline]
fn posting_count(posting: u64) -> u64 {
    posting >> 32
}

/// ψ of a filter that `count` of `n` entities satisfy (0 over no entities).
#[inline]
fn psi(count: usize, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        count as f64 / n as f64
    }
}

/// Domain coverage of a filter that names `k` of `domain` distinct values
/// (1 over an empty domain).
fn value_coverage(k: usize, domain: usize) -> f64 {
    match domain {
        0 => 1.0,
        d => (k as f64 / d as f64).min(1.0),
    }
}

/// Domain coverage of `[l, h]` relative to the active domain `[min, max]`
/// (1 over an empty or one-point domain).
fn span_coverage(domain: Option<(f64, f64)>, l: f64, h: f64) -> f64 {
    let Some((min, max)) = domain else {
        return 1.0;
    };
    if max <= min {
        return 1.0;
    }
    ((h.min(max) - l.max(min)) / (max - min)).clamp(0.0, 1.0)
}

/// The suffix of ascending `count << 32 | row` postings with count ≥ θ.
#[inline]
fn count_suffix(postings: &[u64], theta: u64) -> &[u64] {
    &postings[postings.partition_point(|&p| posting_count(p) < theta)..]
}

/// Statistics for a categorical property (direct attribute or a property
/// table reached through one fact hop). Multi-valued per entity in the
/// fact-hop case (a movie can have several genres).
#[derive(Debug, Clone, PartialEq)]
pub struct CategoricalStats {
    dict: Dictionary,
    /// Entity `r`'s distinct value codes, ascending: group `r`.
    per_entity: Csr<u32>,
    /// Code `c`'s rows, ascending, when the value is sparse; an empty group
    /// when it is dense. These are the postings that let `attr = v` filters
    /// hand over their matches instead of scanning all entities.
    sparse_rows: Csr<u32>,
    /// The dense codes, ascending, each with its bitmap.
    dense_rows: Vec<(u32, RowSet)>,
}

impl CategoricalStats {
    /// Build from a direct attribute column of the entity table, scanning
    /// batch-wise: the kernel non-null words skip NULL cells 64 rows at a
    /// time, and each surviving cell is reconstructed once as a `Copy`
    /// scalar and coded. A NULL cell is an entity with no value.
    pub fn from_column(cv: &ColumnVec, n: usize) -> Result<CategoricalStats, Overflow> {
        let mut coder = Coder::default();
        let mut per_entity = Csr::with_groups(n);
        let mut coded = Ok(());
        kernel::scan_non_null(cv, n, |rid| {
            if coded.is_ok() {
                coded = (per_entity.groups()..rid)
                    .try_for_each(|_| per_entity.end_group())
                    .and_then(|()| {
                        per_entity.entries.push(coder.code(cv.value_at(rid))?);
                        per_entity.end_group()
                    });
            }
        });
        coded?;
        (per_entity.groups()..n).try_for_each(|_| per_entity.end_group())?;
        Self::assemble(coder, per_entity)
    }

    /// Assemble from per-entity value sets (a value listed twice in one set
    /// counts once). Each set is coded and freed in turn, then assembled
    /// as the αDB build's coded sets are.
    pub fn from_sets(per_entity: Vec<Vec<Value>>) -> Result<CategoricalStats, Overflow> {
        let mut coder = Coder::default();
        let mut sets = Csr::with_groups(per_entity.len());
        for set in per_entity {
            for v in set {
                sets.entries.push(coder.code(v)?);
            }
            sets.end_group()?;
        }
        Self::assemble(coder, sets)
    }

    /// Renumber `per_entity`'s first-seen codes in value order, sort and
    /// dedup each set, and transpose the codes into per-value row postings;
    /// a value's entity count is its postings' length.
    pub(crate) fn assemble(
        coder: Coder,
        mut per_entity: Csr<u32>,
    ) -> Result<CategoricalStats, Overflow> {
        let n = per_entity.groups();
        // Every row and every per-value row count is below n.
        narrow(n as u64, "entity count")?;
        let (dict, remap) = coder.finish();
        per_entity.compact(|set| {
            set.iter_mut().for_each(|c| *c = remap[*c as usize]);
            set.sort_unstable();
            Ok(dedup_sorted(set))
        })?;
        let mut counts = vec![0u32; dict.values.len()];
        for &c in &per_entity.entries {
            counts[c as usize] += 1;
        }
        let dense = |count: u32| count as usize * DENSE_CROSSOVER >= n;
        let mut sparse_rows = Csr::sized(counts.iter().map(|&m| if dense(m) { 0 } else { m }), 0)?;
        let mut dense_rows = Vec::with_capacity(counts.iter().filter(|&&m| dense(m)).count());
        // Per code: the next free slot of its row group, or its bitmap's
        // index when dense.
        let mut slot = sparse_rows.cursors();
        for (code, &count) in counts.iter().enumerate() {
            if dense(count) {
                slot[code] = dense_rows.len() as u32;
                dense_rows.push((code as u32, RowSet::with_universe(n)));
            }
        }
        for row in 0..n {
            for &c in per_entity.group(row) {
                let c = c as usize;
                if dense(counts[c]) {
                    dense_rows[slot[c] as usize].1.insert(row);
                } else {
                    sparse_rows.entries[slot[c] as usize] = row as u32;
                    slot[c] += 1;
                }
            }
        }
        Ok(CategoricalStats {
            dict,
            per_entity,
            sparse_rows,
            dense_rows,
        })
    }

    /// Entity rows carrying value `v` (`None` when `v` is absent): the
    /// exact satisfying set of `attr = v`.
    pub fn rows_with(&self, v: &Value) -> Option<ValueRows<'_>> {
        self.dict.code(v).map(|code| self.rows_of(code))
    }

    /// Entity rows carrying the value of code `code`.
    fn rows_of(&self, code: u32) -> ValueRows<'_> {
        let rows = self.sparse_rows.group(code as usize);
        if !rows.is_empty() {
            return ValueRows::Sparse(rows);
        }
        match self.dense_rows.binary_search_by_key(&code, |&(c, _)| c) {
            Ok(i) => ValueRows::Dense(&self.dense_rows[i].1),
            Err(_) => ValueRows::Sparse(&[]),
        }
    }

    /// Number of distinct entities carrying `v`.
    fn count_with(&self, v: &Value) -> usize {
        self.rows_with(v).map_or(0, |rows| rows.len())
    }

    /// Number of distinct values in the active domain.
    pub fn domain_size(&self) -> usize {
        self.dict.values.len()
    }

    /// The active domain, ascending: the value of code `c` is `domain()[c]`.
    pub fn domain(&self) -> &[Value] {
        &self.dict.values
    }

    /// The value of code `code`.
    pub fn value(&self, code: u32) -> Value {
        self.dict.values[code as usize]
    }

    /// The code of `v` (`None` when `v` is absent).
    pub fn code_of(&self, v: &Value) -> Option<u32> {
        self.dict.code(v)
    }

    /// ψ(φ⟨A, v, ⊥⟩) of the value of code `code`, read off its postings.
    pub fn selectivity_code(&self, code: u32, n: usize) -> f64 {
        psi(self.rows_of(code).len(), n)
    }

    /// ψ of a disjunctive `IN` filter (sum of per-value entity counts; an
    /// upper bound that is exact when values are mutually exclusive, as for
    /// single-valued attributes).
    pub fn selectivity_in(&self, values: &[Value], n: usize) -> f64 {
        let total: usize = values.iter().map(|v| self.count_with(v)).sum();
        psi(total, n).min(1.0)
    }

    /// Domain coverage of an equality filter: 1/|domain|.
    pub fn coverage_eq(&self) -> f64 {
        value_coverage(1, self.domain_size())
    }

    /// Domain coverage of an `IN` filter with `k` values.
    pub fn coverage_in(&self, k: usize) -> f64 {
        value_coverage(k, self.domain_size())
    }

    /// Distinct value codes of one entity, ascending (empty for
    /// out-of-range rows).
    pub fn codes_of(&self, row: RowId) -> &[u32] {
        self.per_entity.group(row)
    }

    /// Whether entity `row` carries `v`: one binary search over its codes.
    pub fn carries(&self, row: RowId, v: &Value) -> bool {
        self.code_of(v)
            .is_some_and(|code| self.codes_of(row).binary_search(&code).is_ok())
    }

    fn heap_bytes(&self) -> usize {
        self.dict.heap_bytes()
            + self.per_entity.heap_bytes()
            + self.sparse_rows.heap_bytes()
            + vec_bytes(&self.dense_rows)
            + self
                .dense_rows
                .iter()
                .map(|(_, set)| set.heap_bytes())
                .sum::<usize>()
    }
}

/// Statistics for a direct numeric attribute: its dictionary, each
/// entity's code, and per code its rows. ψ(φ⟨A, [l, h], ⊥⟩) and its rows
/// are one slice of the row groups: the paper's trick of only precomputing
/// ψ(φ⟨A, [min, v], ⊥⟩) for every v, the group offsets being those counts.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericStats {
    /// Distinct non-null values ascending: code `c` is `domain[c]`.
    domain: Vec<f64>,
    /// Entity `r`'s code, [`NULL_CODE`] for NULL.
    codes: Vec<u32>,
    /// Code `c`'s rows, ascending: group `c`.
    rows: Csr<u32>,
}

impl NumericStats {
    /// Build from a direct numeric attribute column, scanning batch-wise
    /// (non-null words; Int cells widened to `f64` like `float_at`).
    pub fn from_column(cv: &ColumnVec, n: usize) -> Result<NumericStats, Overflow> {
        let mut per_entity: Vec<Option<f64>> = vec![None; n];
        kernel::scan_floats(cv, n, |rid, x| per_entity[rid] = Some(x));
        Self::build(per_entity)
    }

    /// Build from per-entity values, canonical as table cells are (no NaN;
    /// panics on one), coded by [`code_floats`]; rows are grouped by code.
    pub fn build(per_entity: Vec<Option<f64>>) -> Result<Self, Overflow> {
        // Every row and every code is below n.
        narrow(per_entity.len() as u64, "entity count")?;
        let (domain, codes) = code_floats(&per_entity)?;
        let rows = Csr::group_by(&codes, domain.len())?;
        Ok(NumericStats {
            domain,
            codes,
            rows,
        })
    }

    /// The rows with `l ≤ value ≤ h` (`CandidateFilter::matches_row`'s
    /// test), ascending by value, then row: the row groups of the codes
    /// between two binary searches over the domain.
    pub fn rows_in_range(&self, l: f64, h: f64) -> &[u32] {
        let start = self.domain.partition_point(|&v| v < l);
        let end = self.domain.partition_point(|&v| v <= h);
        self.rows.span(start.min(end)..end)
    }

    /// ψ(φ⟨A, [l, h], ⊥⟩) relative to `n` entities: the length of the
    /// range's rows ([`NumericStats::rows_in_range`]).
    pub fn selectivity_range(&self, l: f64, h: f64, n: usize) -> f64 {
        psi(self.rows_in_range(l, h).len(), n)
    }

    /// Domain coverage of `[l, h]` relative to the active domain span.
    pub fn coverage_range(&self, l: f64, h: f64) -> f64 {
        span_coverage(self.min().zip(self.max()), l, h)
    }

    /// Smallest observed value.
    pub fn min(&self) -> Option<f64> {
        self.domain.first().copied()
    }

    /// Largest observed value.
    pub fn max(&self) -> Option<f64> {
        self.domain.last().copied()
    }

    /// Value of one entity: its code's domain value.
    pub fn value_of(&self, row: RowId) -> Option<f64> {
        self.codes
            .get(row)
            .and_then(|&c| self.domain.get(c as usize))
            .copied()
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.domain) + vec_bytes(&self.codes) + self.rows.heap_bytes()
    }
}

/// Statistics for a derived (counted) property: per-entity association
/// counts per value, plus per-value θ-ordered postings so that
/// ψ(φ⟨A, v, θ⟩) — the fraction of entities associated with value `v` at
/// least θ times — and the entities themselves are one binary search.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedStats {
    dict: Dictionary,
    /// Entity `r`'s `(code, count)` run, ascending by code, every count
    /// positive: group `r`.
    runs: Csr<(u32, u32)>,
    /// Per entity row: total association count (for normalization).
    entity_totals: Vec<u32>,
    /// Code `c`'s group: one `count << 32 | row` posting per entity
    /// associated with the value, ascending — by count, then row — so the
    /// entities satisfying `⟨A, v, θ⟩` are a suffix (see the module docs).
    postings: Csr<u64>,
}

impl DerivedStats {
    /// Build from raw per-entity `(value, count)` runs — unsorted, with
    /// duplicate values allowed (they coalesce by summing) and zero counts
    /// dropped. Each entity's run is coded and freed in turn, then
    /// assembled as the αDB build's coded runs are.
    pub fn from_runs(per_entity: Vec<Vec<(Value, u64)>>) -> Result<Self, Overflow> {
        let mut coder = Coder::default();
        let mut runs = Csr::with_groups(per_entity.len());
        for run in per_entity {
            for (v, count) in run {
                if count > 0 {
                    let count = narrow(count, "association count")?;
                    runs.entries.push((coder.code(v)?, count));
                }
            }
            runs.end_group()?;
        }
        Self::assemble(coder, runs)
    }

    /// Renumber `runs`' first-seen codes in value order, sort and coalesce
    /// each entity's run, and lay out each value's postings. A run may list
    /// a code more than once; every count is positive.
    pub(crate) fn assemble(coder: Coder, mut runs: Csr<(u32, u32)>) -> Result<Self, Overflow> {
        let n = runs.groups();
        // Every row and every per-value entity count is below n.
        narrow(n as u64, "entity count")?;
        let (dict, remap) = coder.finish();
        runs.compact(|run| {
            run.iter_mut().for_each(|e| e.0 = remap[e.0 as usize]);
            run.sort_unstable_by_key(|e| e.0);
            coalesce(run)
        })?;
        let mut entity_totals = Vec::with_capacity(n);
        let mut lens = vec![0u32; dict.values.len()];
        for row in 0..n {
            let run = runs.group(row);
            let total = run.iter().map(|&(_, c)| u64::from(c)).sum();
            entity_totals.push(narrow(total, "entity association total")?);
            run.iter().for_each(|&(code, _)| lens[code as usize] += 1);
        }
        let mut postings = Csr::sized(lens, 0)?;
        let mut next = postings.cursors();
        for row in 0..n {
            for &(code, count) in runs.group(row) {
                let slot = &mut next[code as usize];
                postings.entries[*slot as usize] = pack_posting(count, row as u32);
                *slot += 1;
            }
        }
        postings.sort_groups();
        Ok(DerivedStats {
            dict,
            runs,
            entity_totals,
            postings,
        })
    }

    /// The `count << 32 | row` postings ([`posting_row`]) of exactly the
    /// entities associated with `v` at least `theta` times, ascending by
    /// count then row; `theta ≤ 1` yields every entity associated with `v`
    /// at all. Empty when `v` is absent.
    pub fn postings_ge(&self, v: &Value, theta: u64) -> &[u64] {
        self.dict
            .code(v)
            .map_or(&[], |code| self.postings_ge_code(code, theta))
    }

    /// [`DerivedStats::postings_ge`] of the value of code `code`.
    pub fn postings_ge_code(&self, code: u32, theta: u64) -> &[u64] {
        count_suffix(self.postings.group(code as usize), theta)
    }

    /// Number of entities the statistics cover.
    pub fn entity_count(&self) -> usize {
        self.runs.groups()
    }

    /// Number of `(entity, value)` pairs with a positive count: the rows
    /// of the property's `(entity_id, value, count)` relation.
    pub fn association_count(&self) -> usize {
        self.runs.entries.len()
    }

    /// Number of distinct values in the active domain.
    pub fn domain_size(&self) -> usize {
        self.dict.values.len()
    }

    /// The active domain, ascending: the value of code `c` is `domain()[c]`.
    pub fn domain(&self) -> &[Value] {
        &self.dict.values
    }

    /// The value of code `code`.
    pub fn value(&self, code: u32) -> Value {
        self.dict.values[code as usize]
    }

    /// ψ(φ⟨A, v, θ⟩) of the value of code `code`, relative to `n`
    /// entities.
    pub fn selectivity_code(&self, code: u32, theta: u64, n: usize) -> f64 {
        psi(self.postings_ge_code(code, theta).len(), n)
    }

    /// ψ of a *normalized* filter on the value of code `code`: fraction of
    /// entities whose share of associations to that value is at least
    /// `frac` (case-study mode, §7.4) — one walk over its postings with
    /// [`DerivedStats::reaches_share`].
    pub fn selectivity_frac_code(&self, code: u32, frac: f64, n: usize) -> f64 {
        let postings = self.postings_ge_code(code, 0);
        let reaching = postings.iter().filter(|&&p| self.reaches_share(p, frac));
        psi(reaching.count(), n)
    }

    /// Whether the entity of `posting`, one of some value's postings, gives
    /// at least `frac` of its associations to that value: the normalized
    /// filter's test, which ψ and evaluation both walk.
    #[inline]
    pub fn reaches_share(&self, posting: u64, frac: f64) -> bool {
        let total = self.entity_totals[posting_row(posting)];
        posting_count(posting) as f64 / f64::from(total) >= frac
    }

    /// Domain coverage of an equality-on-value filter.
    pub fn coverage_eq(&self) -> f64 {
        value_coverage(1, self.domain_size())
    }

    /// One entity's `(code, count)` run, ascending by code (empty for
    /// out-of-range rows).
    pub fn runs_of(&self, row: RowId) -> &[(u32, u32)] {
        self.runs.group(row)
    }

    /// Association count of one entity for one value: the value's code,
    /// then a binary search in the entity's run.
    pub fn count_of(&self, row: RowId, v: &Value) -> u64 {
        self.dict
            .code(v)
            .map_or(0, |code| self.count_of_code(row, code))
    }

    /// Association count of one entity for the value of code `code`.
    pub fn count_of_code(&self, row: RowId, code: u32) -> u64 {
        let run = self.runs_of(row);
        match run.binary_search_by_key(&code, |&(c, _)| c) {
            Ok(i) => u64::from(run[i].1),
            Err(_) => 0,
        }
    }

    /// Total association count of one entity (0 for out-of-range rows).
    pub fn total_of(&self, row: RowId) -> u64 {
        self.entity_totals.get(row).map_or(0, |&t| u64::from(t))
    }

    /// Normalized share of one entity's associations going to `v`.
    pub fn frac_of(&self, row: RowId, v: &Value) -> f64 {
        match self.total_of(row) {
            0 => 0.0,
            total => self.count_of(row, v) as f64 / total as f64,
        }
    }

    fn heap_bytes(&self) -> usize {
        self.dict.heap_bytes()
            + self.runs.heap_bytes()
            + vec_bytes(&self.entity_totals)
            + self.postings.heap_bytes()
    }
}

/// Statistics for a derived property over a *numeric* mid-entity attribute
/// (e.g. number of movies with `year >= c`). Supports suffix-range filters.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedNumericStats {
    /// Sorted distinct attribute values (candidate cutpoints). The
    /// property's dictionary: a value's code is its rank here.
    cutpoints: Vec<f64>,
    /// Entity `r`'s `(rank, count)` run, ascending by rank, every count
    /// positive: group `r`.
    runs: Csr<(u32, u32)>,
    /// Group `θ - 1`: one `reach << 32 | row` posting per entity with at
    /// least θ associations, ascending, where the reach is the rank of the
    /// entity's θ-th largest value counted with multiplicity, so the
    /// entities satisfying `⟨A ≥ c, θ⟩` are a suffix (see the module
    /// docs).
    theta_lists: Csr<u64>,
}

impl DerivedNumericStats {
    /// Build from raw per-entity `(value, count)` pairs — unsorted, with
    /// duplicate values allowed (they coalesce by summing) and zero counts
    /// dropped. The values are canonical as table cells are: no NaN (a
    /// NaN panics), and `-0.0` is `0.0`. They give the cutpoints, each
    /// pair is ranked, and the ranked runs are assembled as the αDB
    /// build's are.
    pub fn build(per_entity: Vec<Vec<(f64, u64)>>) -> Result<Self, Overflow> {
        let counted = per_entity.iter().flatten().filter(|&&(_, count)| count > 0);
        let cutpoints = cutpoints_of(counted.map(|&(x, _)| x).collect());
        let mut runs = Csr::with_groups(per_entity.len());
        for run in per_entity {
            for (x, count) in run {
                if count > 0 {
                    let rank = rank_of(&cutpoints, x)?;
                    runs.entries
                        .push((rank, narrow(count, "association count")?));
                }
            }
            runs.end_group()?;
        }
        Self::assemble(cutpoints, runs)
    }

    /// Sort and coalesce each entity's `(rank, count)` run (a rank may be
    /// listed more than once; every count is positive), then lay out the
    /// θ-lists: each entity pushes one posting per association, walking
    /// its values from the largest down, and each list is sorted once.
    pub(crate) fn assemble(
        cutpoints: Vec<f64>,
        mut runs: Csr<(u32, u32)>,
    ) -> Result<Self, Overflow> {
        let n = runs.groups();
        narrow(n as u64, "entity count")?;
        runs.compact(|run| {
            run.sort_unstable_by_key(|e| e.0);
            coalesce(run)
        })?;
        // List θ holds every entity with at least θ associations.
        let totals: Vec<u64> = (0..n)
            .map(|row| runs.group(row).iter().map(|&(_, c)| u64::from(c)).sum())
            .collect();
        let postings = narrow(totals.iter().sum(), "θ-list postings")?;
        let longest = totals.iter().max().map_or(0, |&t| t as usize);
        let mut lens = vec![0u32; longest];
        for &total in totals.iter().filter(|&&t| t > 0) {
            lens[total as usize - 1] += 1;
        }
        for theta in (1..longest).rev() {
            lens[theta - 1] += lens[theta];
        }
        let mut theta_lists = Csr::sized(lens, 0)?;
        debug_assert_eq!(theta_lists.entries.len(), postings as usize);
        let mut next = theta_lists.cursors();
        for row in 0..n {
            let mut theta = 0;
            for &(reach, count) in runs.group(row).iter().rev() {
                for _ in 0..count {
                    theta_lists.entries[next[theta] as usize] = pack_posting(reach, row as u32);
                    next[theta] += 1;
                    theta += 1;
                }
            }
        }
        theta_lists.sort_groups();
        Ok(DerivedNumericStats {
            cutpoints,
            runs,
            theta_lists,
        })
    }

    /// Sorted distinct attribute values: the candidate cutpoints.
    pub fn cutpoints(&self) -> &[f64] {
        &self.cutpoints
    }

    /// Number of entities the statistics cover.
    pub fn entity_count(&self) -> usize {
        self.runs.groups()
    }

    /// Number of `(entity, value)` pairs with a positive count: the rows
    /// of the property's `(entity_id, value, count)` relation.
    pub(crate) fn association_count(&self) -> usize {
        self.runs.entries.len()
    }

    /// One entity's `(cutpoint rank, count)` run, ascending by rank (empty
    /// for out-of-range rows): the value of rank `r` is `cutpoints()[r]`.
    pub fn runs_of(&self, row: RowId) -> &[(u32, u32)] {
        self.runs.group(row)
    }

    /// The `reach << 32 | row` postings ([`posting_row`]) of exactly the
    /// entities with at least `theta` (≥ 1) associations of value ≥ `cut`.
    pub fn postings_ge(&self, cut: f64, theta: u64) -> &[u64] {
        // A cut snaps to the smallest cutpoint ≥ cut: suffix counts are
        // piecewise constant between cutpoints.
        let ci = self.cutpoints.partition_point(|&c| c < cut);
        reach_suffix(self.theta_list(theta), ci)
    }

    /// θ-list `max(theta, 1)`: every entity with at least that many
    /// associations (empty past the largest entity total).
    fn theta_list(&self, theta: u64) -> &[u64] {
        usize::try_from(theta.max(1) - 1).map_or(&[], |i| self.theta_lists.group(i))
    }

    /// Fill `out[ci]` with this entity's suffix count at every cutpoint
    /// (one descending walk over its run; `out` is resized to
    /// `cutpoints.len()`): the count at `ci` sums the ranks ≥ `ci`.
    pub fn suffix_counts_into(&self, row: RowId, out: &mut Vec<u64>) {
        let run = self.runs_of(row);
        out.clear();
        out.resize(self.cutpoints.len(), 0);
        let (mut j, mut sum) = (run.len(), 0u64);
        for ci in (0..out.len()).rev() {
            while j > 0 && run[j - 1].0 as usize >= ci {
                sum += u64::from(run[j - 1].1);
                j -= 1;
            }
            out[ci] = sum;
        }
    }

    /// Suffix count for one entity: #associations with value ≥ `cut`.
    pub fn suffix_count_of(&self, row: RowId, cut: f64) -> u64 {
        let run = self.runs_of(row);
        let ci = self.cutpoints.partition_point(|&c| c < cut);
        let first = run.partition_point(|&(rank, _)| (rank as usize) < ci);
        run[first..].iter().map(|&(_, c)| u64::from(c)).sum()
    }

    /// ψ(φ⟨A ≥ c, θ⟩) at cutpoint *index* `ci`: the fraction of entities
    /// with suffix count ≥ θ. Candidate emission walks cutpoints by index,
    /// so it never pays a cut-snapping binary search per point.
    pub fn selectivity_at(&self, ci: usize, theta: u64, n: usize) -> f64 {
        psi(reach_suffix(self.theta_list(theta), ci).len(), n)
    }

    /// Domain coverage of the suffix range `[cut, max]`.
    pub fn coverage_ge(&self, cut: f64) -> f64 {
        let (first, last) = (self.cutpoints.first(), self.cutpoints.last());
        span_coverage(first.copied().zip(last.copied()), cut, f64::INFINITY)
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.cutpoints) + self.runs.heap_bytes() + self.theta_lists.heap_bytes()
    }
}

/// The dictionary of a numeric or derived-numeric property whose entities
/// or associations take `values` (table cells, so no NaN): its distinct
/// values ascending.
pub(crate) fn cutpoints_of(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("statistics floats hold no NaN"));
    values.dedup();
    values.shrink_to_fit();
    values
}

/// The rank of value `x` among `cutpoints` ([`cutpoints_of`] of a set of
/// values holding `x`).
pub(crate) fn rank_of(cutpoints: &[f64], x: f64) -> Result<u32, Overflow> {
    let rank = cutpoints.partition_point(|&c| c < x);
    narrow(rank as u64, "cutpoint rank")
}

/// The code of an absent float: past every dictionary.
pub(crate) const NULL_CODE: u32 = u32::MAX;

/// The dictionary of `values` ([`cutpoints_of`]) and each value's code,
/// its rank there ([`NULL_CODE`] for `None`).
pub(crate) fn code_floats(values: &[Option<f64>]) -> Result<(Vec<f64>, Vec<u32>), Overflow> {
    let dict = cutpoints_of(values.iter().flatten().copied().collect());
    let mut codes = Vec::with_capacity(values.len());
    for v in values {
        codes.push(v.map_or(Ok(NULL_CODE), |x| rank_of(&dict, x))?);
    }
    Ok((dict, codes))
}

/// The suffix of ascending `reach << 32 | row` postings with reach ≥ `ci`.
#[inline]
fn reach_suffix(list: &[u64], ci: usize) -> &[u64] {
    &list[list.partition_point(|&p| p >> 32 < ci as u64)..]
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
/// It holds only the sets the evaluator admits (`squid_core::query_gen`'s
/// `source`): slice-backed filters inside an admission band. Below the
/// band are *small* sets, `len · bit_length(len) ≤ n / 64` rows (at most
/// 127 over 60 000 entities), which are cheaper as their sorted row ids
/// than as an n-bit bitmap and are never looked up or published here;
/// above it are sets of more than `max(n/4, 64)` rows, which restrict a
/// result from their postings instead. A dense categorical value is a
/// bitmap in the αDB already and never enters the cache.
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
    /// Estimated heap bytes of every array and map above.
    pub fn heap_bytes(&self) -> usize {
        match self {
            PropStats::Categorical(s) => s.heap_bytes(),
            PropStats::Numeric(s) => s.heap_bytes(),
            PropStats::Derived(s) => s.heap_bytes(),
            PropStats::DerivedNumeric(s) => s.heap_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::text(s)
    }

    /// The code of `x` in an ascending active domain.
    fn code(domain: &[Value], x: &str) -> u32 {
        domain.binary_search(&v(x)).unwrap() as u32
    }

    #[test]
    fn categorical_selectivity_and_coverage() {
        let mut sets = vec![vec![v("Male")]; 3];
        sets.extend(vec![vec![v("Female")]; 3]);
        let s = CategoricalStats::from_sets(sets).unwrap();
        assert_eq!(s.selectivity_code(s.code_of(&v("Male")).unwrap(), 6), 0.5);
        assert_eq!(s.code_of(&v("Other")), None);
        assert_eq!(s.coverage_eq(), 0.5);
        assert_eq!(s.selectivity_in(&[v("Male"), v("Female")], 6), 1.0);
        assert_eq!(s.coverage_in(2), 1.0);
    }

    /// A value listed twice in one entity's set is one row of that value,
    /// not two: ψ and the postings count entities.
    #[test]
    fn categorical_repeated_value_counts_once() {
        let mut sets = vec![Vec::new(); 100];
        sets[0] = vec![v("a"), v("a")];
        let s = CategoricalStats::from_sets(sets).unwrap();
        let a = s.code_of(&v("a")).unwrap();
        assert_eq!(s.selectivity_code(a, 100), 0.01);
        let mut rows = Vec::new();
        s.rows_with(&v("a")).unwrap().for_each(|row| rows.push(row));
        assert_eq!(rows, vec![0]);
        assert_eq!(s.codes_of(0), [a]);
    }

    /// A single-valued categorical property costs 8 bytes an entity: one
    /// 4-byte code and one 4-byte offset, and no allocation of its own.
    #[test]
    fn categorical_entity_costs_a_code_and_an_offset() {
        let n = 1000;
        let s = CategoricalStats::from_sets(vec![vec![v("a")]; n]).unwrap();
        assert_eq!(s.per_entity.heap_bytes(), 8 * n + 4);
        let value_side = vec_bytes(&s.dict.values)
            + map_bytes(&s.dict.codes)
            + s.sparse_rows.heap_bytes()
            + vec_bytes(&s.dense_rows)
            + RowSet::with_universe(n).heap_bytes();
        assert_eq!(
            value_side,
            16 + map_bytes(&s.dict.codes) + 8 + std::mem::size_of::<(u32, RowSet)>() + 128
        );
        assert_eq!(
            PropStats::Categorical(s).heap_bytes(),
            8 * n + 4 + value_side
        );
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
        ])
        .unwrap();
        // ψ(φ⟨age,[50,90],⊥⟩) = 5/6 per the paper.
        assert!((s.selectivity_range(50.0, 90.0, 6) - 5.0 / 6.0).abs() < 1e-12);
        assert!((s.selectivity_range(29.0, 29.0, 6) - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.selectivity_range(91.0, 99.0, 6), 0.0);
        assert_eq!(s.selectivity_range(0.0, 100.0, 6), 1.0);
    }

    #[test]
    fn numeric_coverage() {
        let s = NumericStats::build(vec![Some(0.0), Some(100.0)]).unwrap();
        assert!((s.coverage_range(40.0, 90.0) - 0.5).abs() < 1e-12);
        assert!((s.coverage_range(-10.0, 200.0) - 1.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(0.0));
        assert_eq!(s.max(), Some(100.0));
    }

    #[test]
    fn numeric_empty_is_safe() {
        let s = NumericStats::build(vec![None, None]).unwrap();
        assert_eq!(s.selectivity_range(0.0, 1.0, 2), 0.0);
        assert_eq!(s.coverage_range(0.0, 1.0), 1.0);
        assert_eq!(s.value_of(0), None);
    }

    #[test]
    fn derived_selectivity_by_threshold() {
        // 4 entities; comedy counts 5, 3, 0, 1.
        let mk = |pairs: &[(&str, u64)]| pairs.iter().map(|(k, c)| (v(k), *c)).collect();
        let s = DerivedStats::from_runs(vec![
            mk(&[("Comedy", 5)]),
            mk(&[("Comedy", 3), ("Drama", 1)]),
            mk(&[("Drama", 2)]),
            mk(&[("Comedy", 1)]),
        ])
        .unwrap();
        let comedy = code(s.domain(), "Comedy");
        assert_eq!(s.selectivity_code(comedy, 1, 4), 0.75);
        assert_eq!(s.selectivity_code(comedy, 3, 4), 0.5);
        assert_eq!(s.selectivity_code(comedy, 6, 4), 0.0);
        assert!(s.domain().binary_search(&v("Missing")).is_err());
        assert_eq!(s.count_of(0, &v("Comedy")), 5);
        assert_eq!(s.count_of(2, &v("Comedy")), 0);
        assert_eq!(s.domain_size(), 2);
    }

    /// Codes follow `Value`'s order, not the interner's: text interned in
    /// reverse lexical order still comes back from a run ascending by
    /// value, so nothing downstream re-sorts a run.
    #[test]
    fn derived_runs_follow_value_order_not_interning_order() {
        let names: Vec<String> = (0..6).rev().map(|i| format!("run-order-{i}")).collect();
        let values: Vec<Value> = names.iter().map(|name| v(name)).collect();
        let ids: Vec<u32> = values.iter().map(|x| x.as_sym().unwrap().id()).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "interned in this order"
        );
        let run: Vec<(Value, u64)> = values.iter().zip(1..).map(|(&x, c)| (x, c)).collect();
        let s = DerivedStats::from_runs(vec![run.clone(), run[..3].to_vec()]).unwrap();
        let mut expected = run;
        expected.sort_by_key(|&(x, _)| x);
        assert_eq!(
            s.domain(),
            expected.iter().map(|&(x, _)| x).collect::<Vec<_>>()
        );
        let decoded: Vec<(Value, u64)> = s
            .runs_of(0)
            .iter()
            .map(|&(c, n)| (s.value(c), u64::from(n)))
            .collect();
        assert_eq!(decoded, expected);
        let codes: Vec<u32> = s.runs_of(0).iter().map(|&(c, _)| c).collect();
        assert_eq!(codes, (0..6).collect::<Vec<u32>>());
        assert_eq!(s.count_of(1, &values[0]), 1);
        assert_eq!(s.count_of(1, &values[5]), 0);
    }

    #[test]
    fn derived_normalized_fractions() {
        let mk = |pairs: &[(&str, u64)]| pairs.iter().map(|(k, c)| (v(k), *c)).collect();
        let s = DerivedStats::from_runs(vec![
            mk(&[("Comedy", 3), ("Drama", 1)]), // 75% comedy
            mk(&[("Comedy", 1), ("Drama", 3)]), // 25% comedy
        ])
        .unwrap();
        assert!((s.frac_of(0, &v("Comedy")) - 0.75).abs() < 1e-12);
        let comedy = code(s.domain(), "Comedy");
        assert_eq!(s.selectivity_frac_code(comedy, 0.5, 2), 0.5);
        assert_eq!(s.selectivity_frac_code(comedy, 0.2, 2), 1.0);
    }

    #[test]
    fn derived_numeric_suffix_counts() {
        // Entity 0: movies in 2008 (2 of them) and 2012 (3). Entity 1: 2005 (1).
        let s = DerivedNumericStats::build(vec![vec![(2008.0, 2), (2012.0, 3)], vec![(2005.0, 1)]])
            .unwrap();
        assert_eq!(s.suffix_count_of(0, 2010.0), 3);
        assert_eq!(s.suffix_count_of(0, 2000.0), 5);
        assert_eq!(s.suffix_count_of(1, 2010.0), 0);
        // ψ(year ≥ 2010, θ=3) = 1/2 entities; 2010 snaps to cutpoint 2012.
        assert_eq!(s.postings_ge(2010.0, 3).len(), 1);
        assert_eq!(s.selectivity_at(2, 3, 2), 0.5);
        assert_eq!(s.postings_ge(2010.0, 4).len(), 0);
        assert_eq!(s.selectivity_at(0, 1, 2), 1.0);
        // Coverage shrinks as the cut rises.
        assert!(s.coverage_ge(2012.0) < s.coverage_ge(2005.0));
    }

    /// Rows of a postings slice, ascending.
    fn rows(postings: &[u64]) -> Vec<RowId> {
        let mut rows: Vec<RowId> = postings.iter().map(|&p| posting_row(p)).collect();
        rows.sort_unstable();
        rows
    }

    /// xorshift64*: a seeded stream for the randomized checks below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The θ-lists answer exactly what the per-row definition answers, at
    /// every cutpoint, one past the last, and every θ up to one past the
    /// largest entity total — over multisets with duplicates, zero and
    /// infinities.
    #[test]
    fn derived_numeric_theta_lists_are_exact() {
        const VALUES: [f64; 5] = [-1.5, 0.0, 2.0, 3.0, f64::INFINITY];
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for _ in 0..300 {
            let n = 1 + rng.below(12) as usize;
            let per_entity: Vec<Vec<(f64, u64)>> = (0..n)
                .map(|_| {
                    (0..rng.below(6))
                        .map(|_| (VALUES[rng.below(5) as usize], 1 + rng.below(3)))
                        .collect()
                })
                .collect();
            let s = DerivedNumericStats::build(per_entity).unwrap();
            let cutpoints = s.cutpoints().to_vec();
            let max = (0..n)
                .map(|row| s.suffix_count_of(row, f64::NEG_INFINITY))
                .max()
                .unwrap_or(0);
            let mut buf = Vec::new();
            for row in 0..n {
                s.suffix_counts_into(row, &mut buf);
                let expected: Vec<u64> = cutpoints
                    .iter()
                    .map(|&cut| s.suffix_count_of(row, cut))
                    .collect();
                assert_eq!(buf, expected, "fold of row {row} over {cutpoints:?}");
            }
            for ci in 0..=cutpoints.len() {
                for theta in 0..=max + 1 {
                    let expected: Vec<RowId> = match cutpoints.get(ci) {
                        Some(&cut) => (0..n)
                            .filter(|&row| s.suffix_count_of(row, cut) >= theta.max(1))
                            .collect(),
                        None => Vec::new(),
                    };
                    assert_eq!(
                        rows(reach_suffix(s.theta_list(theta), ci)),
                        expected,
                        "ci {ci}, θ {theta}"
                    );
                }
            }
            for cut in VALUES
                .into_iter()
                .chain([-2.0, 1.0, 2.5, f64::NEG_INFINITY])
            {
                for theta in 1..=max + 1 {
                    let expected: Vec<RowId> = (0..n)
                        .filter(|&row| s.suffix_count_of(row, cut) >= theta)
                        .collect();
                    assert_eq!(
                        rows(s.postings_ge(cut, theta)),
                        expected,
                        "cut {cut}, θ {theta}"
                    );
                }
            }
        }
    }

    #[test]
    fn derived_numeric_cutpoints_keep_no_spare_capacity() {
        // 1 000 associations over one value: one cutpoint, one θ-list.
        let s = PropStats::DerivedNumeric(
            DerivedNumericStats::build(vec![vec![(2010.0, 1)]; 1000]).unwrap(),
        );
        let runs = 4 * 1001 + 8 * 1000;
        let cutpoints = 8;
        let theta_lists = 4 * 2 + 8 * 1000;
        assert_eq!(s.heap_bytes(), runs + cutpoints + theta_lists);
    }

    #[test]
    fn derived_numeric_empty_is_safe() {
        let s = DerivedNumericStats::build(vec![vec![], vec![]]).unwrap();
        assert!(s.postings_ge(0.0, 1).is_empty());
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
