//! Turning an abduced filter set ϕ into executable queries (Section 6.2):
//! the SPJAI form over the original database, the SPJ form over the αDB's
//! derived relations (Example 2.2, built on first SQL use), and a direct evaluation
//! path against the αDB's statistics.
//!
//! ## Evaluation is set algebra over sources
//!
//! The αDB stores every filter kind's satisfying rows in an array the
//! filter cuts with a binary search (`squid_adb::stats`, "Postings
//! layout"), so evaluation never asks an entity whether it matches in
//! order to find the matches. Each chosen filter is read as a `Source`:
//!
//! * a **resident bitmap** from the [`FilterSetCache`] (a lookup in the
//!   fleet's byte-bounded store),
//! * a **dense bitmap** borrowed from the αDB — a categorical value
//!   carried by at least one entity in 32 is stored as a bitmap in the
//!   first place, or
//! * a **slice** of postings: the θ-suffix of a derived value, the
//!   cutpoint suffix of a derived-numeric θ-list, a value range of the
//!   numeric postings, a sparse value's ids.
//!
//! `source` is the one function that builds them, and [`evaluate`],
//! [`evaluate_cached`], the session's turns (the one-shot
//! `Squid::discover` among them), the session's add-only step
//! `restrict_rows`, [`filter_row_set`] and example recommendation's
//! `violators` all go through it. The filters are ordered by the size each
//! carries from emission, ψ·n, so ordering reads no postings and touches
//! no cache, and intersected smallest first; a filter's source is built
//! only when the intersection reaches it. The running result takes one of
//! two representations, chosen by the first source's size:
//!
//! * a **small** set, `len · bit_length(len) ≤ n / 64` ([`is_small`]:
//!   sorting its rows costs no more than one pass over an n-bit bitmap;
//!   at most 127 rows over 60 000 entities), is held as its sorted row
//!   ids. A bitmap restricts it with one bit test per survivor, a slice by
//!   a binary search of each posting among the survivors or a probe of
//!   each survivor, and the running result only becomes a bitmap at the
//!   end — or as soon as a slice walk by binary search would cost more
//!   than a bitmap pass, when the rest goes the bitmap way;
//! * any larger set becomes a bitmap (a copy, or one walk of its slice), a
//!   bitmap restricts it with a word-wise AND, and a slice restricts it
//!   from the cheaper side — walk the slice, or, when so few rows survive
//!   that asking each of them costs less (`PROBE_COST`), probe the
//!   survivors.
//!
//! This is the array/bitmap container split of Roaring bitmaps (Chambi et
//! al., 2016), decided at the one place that picks a filter's source. The
//! sizes that decide are exact: ψ·n is the match count for every kind but
//! `CatIn` (values may share rows), and a slice's length
//! ([`match_estimate`]) is too for `CatEq`, `NumRange`, `DerivedEq` and
//! `DerivedGe`.
//!
//! A session's evaluation stops as soon as the survivors are exactly its
//! examples. Every candidate filter holds every example (paper Defs.
//! 3.1–3.2), so the result always contains them, and once nothing else
//! survives no later filter can remove a row: the filters never reached
//! are never built, looked up or published. The first `add` of a prolific
//! person — a title filter per movie, one row left after the first few —
//! reads a handful of them. Without examples ([`evaluate`],
//! [`evaluate_cached`]) the stop is the empty set.
//!
//! The cache decides one thing: whether a bitmap built from a slice is
//! kept, for slices between the two edges of the admission band — above
//! the small rule and at most `max(n/4, 64)` rows. A small slice is never
//! looked up, built or published: its sorted rows are cheaper than the
//! bitmap. The per-row definition ([`evaluate_per_row`]) is the test
//! oracle.

use std::sync::Arc;

use squid_adb::{
    posting_row, DerivedStats, EntityProps, FilterFingerprint, FilterSetCache, PropKind, PropStats,
    Property, ValueRows,
};
use squid_engine::{Pred, Query, QueryBlock};
use squid_relation::{RowId, RowSet, Value};

use crate::filter::{CandidateFilter, FilterValue};

/// Build the SPJAI query over the ORIGINAL database expressing the base
/// query plus the chosen filters. Normalized (fraction) filters cannot be
/// expressed in this query class and are skipped (callers evaluate them via
/// [`evaluate`]); the returned flag reports whether any were skipped.
pub fn original_query(
    entity: &EntityProps,
    filters: &[CandidateFilter],
    projection: &str,
) -> (Query, bool) {
    let mut block = QueryBlock::new(&entity.table);
    let mut skipped_normalized = false;
    for f in filters {
        let Some(prop) = entity.property(f.prop_id) else {
            continue;
        };
        // All identifiers come from the property's prebuilt fragments —
        // query generation runs per session turn and must not re-intern
        // (or re-allocate) the join-path names.
        match &f.value {
            FilterValue::CatEq(v) => match (prop.fragments.root_col(), &prop.def.kind) {
                (Some(col), PropKind::DirectCategorical { .. }) => {
                    block = block.filter(Pred::eq(col, *v));
                }
                _ => {
                    if let Some(sj) = prop.fragments.semi_join(v, 1) {
                        block = block.semi_join(sj);
                    }
                }
            },
            FilterValue::CatIn(vs) => {
                if let (Some(col), PropKind::DirectCategorical { .. }) =
                    (prop.fragments.root_col(), &prop.def.kind)
                {
                    block = block.filter(Pred::in_set(col, vs.clone()));
                }
            }
            FilterValue::NumRange(l, h) => {
                if let (Some(col), PropKind::DirectNumeric { .. }) =
                    (prop.fragments.root_col(), &prop.def.kind)
                {
                    block = block.filter(range_pred(col, *l, *h));
                }
            }
            FilterValue::DerivedEq { value, theta } => {
                if let Some(sj) = prop.fragments.semi_join(value, *theta) {
                    block = block.semi_join(sj);
                }
            }
            FilterValue::DerivedGe { cut, theta } => {
                if let Some(sj) = prop.fragments.semi_join_ge(&num_value(*cut), *theta) {
                    block = block.semi_join(sj);
                }
            }
            FilterValue::DerivedFrac { .. } => {
                skipped_normalized = true;
            }
        }
    }
    (Query::single(block, projection), skipped_normalized)
}

/// Build the equivalent SPJ query over the αDB (derived relations replace
/// the aggregation joins, Example 2.2). It runs on
/// [`ADb::query_database`](squid_adb::ADb::query_database), which builds
/// the derived relations on first use. Returns `None` when a chosen filter
/// has no αDB-expressible form (suffix ranges and normalized fractions).
pub fn adb_query(
    entity: &EntityProps,
    filters: &[CandidateFilter],
    projection: &str,
) -> Option<Query> {
    let mut block = QueryBlock::new(&entity.table);
    for f in filters {
        let prop = entity.property(f.prop_id)?;
        match &f.value {
            FilterValue::CatEq(v) => match (prop.fragments.root_col(), &prop.def.kind) {
                (Some(col), PropKind::DirectCategorical { .. }) => {
                    block = block.filter(Pred::eq(col, *v));
                }
                _ => {
                    let sj = prop.fragments.semi_join(v, 1)?;
                    block = block.semi_join(sj);
                }
            },
            FilterValue::CatIn(vs) => {
                if let (Some(col), PropKind::DirectCategorical { .. }) =
                    (prop.fragments.root_col(), &prop.def.kind)
                {
                    block = block.filter(Pred::in_set(col, vs.clone()));
                } else {
                    return None;
                }
            }
            FilterValue::NumRange(l, h) => {
                if let (Some(col), PropKind::DirectNumeric { .. }) =
                    (prop.fragments.root_col(), &prop.def.kind)
                {
                    block = block.filter(range_pred(col, *l, *h));
                } else {
                    return None;
                }
            }
            FilterValue::DerivedEq { value, theta } => {
                let sj = prop.fragments.adb_semi_join(value, *theta)?;
                block = block.semi_join(sj);
            }
            // Suffix ranges need SUM over derived rows: not expressible as
            // a single SPJ filter on the derived relation.
            FilterValue::DerivedGe { .. } | FilterValue::DerivedFrac { .. } => return None,
        }
    }
    Some(Query::single(block, projection))
}

/// Evaluate the chosen filters directly against the αDB's statistics: the
/// set of qualifying entity rows. This is exact for every filter kind
/// (including normalized fractions) and is how SQuID returns result tuples
/// in real time.
///
/// Set algebra over each filter's source (see the module docs): no
/// entity outside the smallest filter's satisfying set is visited, and an
/// empty filter list is the whole table. A filter over an unknown property
/// excludes every row.
pub fn evaluate(entity: &EntityProps, filters: &[CandidateFilter]) -> RowSet {
    intersect_sources(entity, filters, &[], None)
}

/// The per-row definition of evaluation: every row `r` with
/// `f.matches_row(r)` for all `f` (none, when a filter names an unknown
/// property). This is the oracle the set-algebra paths are property-tested
/// against.
pub fn evaluate_per_row(entity: &EntityProps, filters: &[CandidateFilter]) -> RowSet {
    let mut resolved = Vec::with_capacity(filters.len());
    for f in filters {
        let Some(prop) = entity.property(f.prop_id) else {
            return RowSet::with_universe(entity.n);
        };
        resolved.push((f, prop));
    }
    (0..entity.n)
        .filter(|&row| resolved.iter().all(|(f, prop)| f.matches_row(prop, row)))
        .collect()
}

/// Canonical [`FilterFingerprint`] of a candidate filter: the interned
/// property id, a kind tag, θ, and the value/bounds as raw words (symbol
/// id / integer / float bits per [`Value`] variant). Filters with equal
/// fingerprints have identical satisfying row sets — the
/// [`FilterSetCache`] admission key.
///
/// The encoding is intentionally conservative: `Int(3)` and `Float(3.0)`
/// compare equal as [`Value`]s but fingerprint differently, which only
/// costs a redundant cache entry, never a wrong hit.
pub fn filter_fingerprint(f: &CandidateFilter) -> FilterFingerprint {
    fn value_words(v: &Value) -> [u64; 2] {
        match v {
            Value::Null => [0, 0],
            Value::Bool(b) => [1, *b as u64],
            Value::Int(i) => [2, *i as u64],
            Value::Float(x) => [3, x.get().to_bits()],
            Value::Text(s) => [4, s.id() as u64],
        }
    }
    let pid = f.prop_id;
    match &f.value {
        FilterValue::CatEq(v) => FilterFingerprint::new(pid, 0, 0, &value_words(v)),
        FilterValue::CatIn(vs) => {
            // Canonical order: `Value`'s total order, so permuted IN lists
            // fingerprint identically.
            let mut sorted: Vec<&Value> = vs.iter().collect();
            sorted.sort();
            let mut payload = Vec::with_capacity(2 * sorted.len());
            for v in sorted {
                payload.extend(value_words(v));
            }
            FilterFingerprint::new(pid, 1, 0, &payload)
        }
        FilterValue::NumRange(l, h) => {
            FilterFingerprint::new(pid, 2, 0, &[l.to_bits(), h.to_bits()])
        }
        FilterValue::DerivedEq { value, theta } => {
            FilterFingerprint::new(pid, 3, *theta, &value_words(value))
        }
        FilterValue::DerivedFrac {
            value,
            frac,
            raw_theta,
        } => {
            let [a, b] = value_words(value);
            FilterFingerprint::new(pid, 4, *raw_theta, &[a, b, frac.to_bits()])
        }
        FilterValue::DerivedGe { cut, theta } => {
            FilterFingerprint::new(pid, 5, *theta, &[cut.to_bits()])
        }
    }
}

/// Where one filter's satisfying set comes from (see the module docs).
pub(crate) enum Source<'a> {
    /// A bitmap resident in the evaluation cache, or just admitted to it.
    Cached(Arc<RowSet>),
    /// A dense categorical value's bitmap, borrowed from the αDB.
    Dense(&'a RowSet),
    /// Postings to walk.
    Slice(Slice<'a>),
}

/// The postings of one filter that is not held as a bitmap. The first
/// two are exactly the satisfying rows, each once; the last two are a
/// superset walked with a check (`Frac`) or may meet a row once per value
/// (`In`), so their [`len`](Slice::len) is an upper bound.
pub(crate) enum Slice<'a> {
    /// Row ids, ascending within each value: a sparse categorical value's
    /// (`CatEq`) or a numeric range's (`NumRange`).
    Rows(&'a [u32]),
    /// A suffix of `key << 32 | row` postings: a value's θ-suffix
    /// (`DerivedEq`) or a θ-list's cutpoint suffix (`DerivedGe`).
    Postings(&'a [u64]),
    /// The row sets of an `IN` list's values (`CatIn`).
    In(Vec<ValueRows<'a>>),
    /// The postings of every entity associated with a value, each kept
    /// when its share of associations reaches `frac` (`DerivedFrac`).
    Frac {
        postings: &'a [u64],
        stats: &'a DerivedStats,
        frac: f64,
    },
}

impl Slice<'_> {
    /// Rows a walk visits.
    fn len(&self) -> usize {
        match self {
            Slice::Rows(ids) => ids.len(),
            Slice::Postings(postings) => postings.len(),
            Slice::In(values) => values.iter().map(|rows| rows.len()).sum(),
            Slice::Frac { postings, .. } => postings.len(),
        }
    }

    /// Visit every satisfying row.
    fn for_each(&self, mut visit: impl FnMut(RowId)) {
        match self {
            Slice::Rows(ids) => ids.iter().for_each(|&id| visit(id as RowId)),
            Slice::Postings(postings) => postings.iter().for_each(|&p| visit(posting_row(p))),
            Slice::In(values) => values.iter().for_each(|rows| rows.for_each(&mut visit)),
            Slice::Frac {
                postings,
                stats,
                frac,
            } => postings
                .iter()
                .filter(|&&p| stats.reaches_share(p, *frac))
                .for_each(|&p| visit(posting_row(p))),
        }
    }

    /// The satisfying rows as a bitmap over `n` entities.
    fn to_set(&self, n: usize) -> RowSet {
        let mut words = vec![0u64; n.div_ceil(64)];
        self.for_each(|row| words[row / 64] |= 1 << (row % 64));
        RowSet::from_words(words)
    }
}

impl Source<'_> {
    /// Size of the satisfying set: exact for `CatEq`, `NumRange`,
    /// `DerivedEq` (θ ≥ 1) and `DerivedGe` (θ ≥ 1) — it equals ψ·n — and
    /// for anything already a bitmap; an upper bound for `CatIn` and
    /// `DerivedFrac` slices.
    fn len(&self) -> usize {
        match self {
            Source::Cached(set) => set.len(),
            Source::Dense(set) => set.len(),
            Source::Slice(slice) => slice.len(),
        }
    }

    /// The set itself, when the source already is a bitmap.
    fn bitmap(&self) -> Option<&RowSet> {
        match self {
            Source::Cached(set) => Some(set),
            Source::Dense(set) => Some(set),
            Source::Slice(_) => None,
        }
    }

    /// The set as an owned bitmap over `n` entities.
    fn to_set(&self, n: usize) -> RowSet {
        match self {
            Source::Cached(set) => RowSet::clone(set),
            Source::Dense(set) => RowSet::clone(set),
            Source::Slice(slice) => slice.to_set(n),
        }
    }
}

/// A filter's place in an evaluation cache over an `n`-entity table.
pub(crate) struct CacheSlot<'c> {
    n: usize,
    fp: &'c FilterFingerprint,
    cache: &'c mut FilterSetCache,
}

/// The one place a filter's [`Source`] is built; every evaluation entry
/// point reads its filters through here.
///
/// Straight from the statistics: a dense categorical value is already a
/// bitmap in the αDB and is served from there — never looked up, admitted
/// or published; every other kind is a slice of postings. A filter whose
/// kind differs from its property's statistics is an empty slice, as
/// `matches_row` answers it.
///
/// With a `slot`, a slice-backed filter inside the admission band is read
/// through the cache: served when resident, otherwise materialized and
/// published. The band's lower edge is [`is_small`]: a slice that small is
/// cheaper as its sorted rows than as an n-bit bitmap, so it is never
/// looked up, built or published. Its upper edge is `len ≤ max(n/4, 64)`:
/// a bitmap with most rows set costs a long walk to build yet removes
/// almost nothing from an intersection, while restricting the surviving
/// rows directly ([`violators`]) costs the cheaper of the two sides and
/// stores nothing.
fn source<'a>(
    f: &'a CandidateFilter,
    prop: &'a Property,
    slot: Option<CacheSlot<'_>>,
) -> Source<'a> {
    let slice = match (&f.value, &prop.stats) {
        (FilterValue::CatEq(v), PropStats::Categorical(s)) => match s.rows_with(v) {
            Some(ValueRows::Dense(set)) => return Source::Dense(set),
            Some(ValueRows::Sparse(ids)) => Slice::Rows(ids),
            None => Slice::Rows(&[]),
        },
        (FilterValue::CatIn(vs), PropStats::Categorical(s)) => {
            Slice::In(vs.iter().filter_map(|v| s.rows_with(v)).collect())
        }
        (FilterValue::NumRange(l, h), PropStats::Numeric(s)) => {
            Slice::Rows(s.rows_in_range(*l, *h))
        }
        (FilterValue::DerivedEq { value, theta }, PropStats::Derived(s)) => {
            Slice::Postings(s.postings_ge(value, *theta))
        }
        (FilterValue::DerivedFrac { value, frac, .. }, PropStats::Derived(stats)) => Slice::Frac {
            postings: stats.postings_ge(value, 0),
            stats,
            frac: *frac,
        },
        (FilterValue::DerivedGe { cut, theta }, PropStats::DerivedNumeric(s)) => {
            Slice::Postings(s.postings_ge(*cut, *theta))
        }
        _ => Slice::Rows(&[]),
    };
    let Some(CacheSlot { n, fp, cache }) = slot else {
        return Source::Slice(slice);
    };
    if is_small(slice.len(), n) {
        Source::Slice(slice)
    } else if let Some(set) = cache.lookup(fp) {
        Source::Cached(set)
    } else if slice.len() <= (n / 4).max(64) {
        Source::Cached(cache.insert_with(fp, || slice.to_set(n)))
    } else {
        Source::Slice(slice)
    }
}

/// Whether a set of `len` rows over `n` entities is *small*: sorting its
/// rows costs no more than one pass over an n-bit bitmap,
/// `len · bit_length(len) ≤ n / 64` (at n = 60 000, up to 127 rows). A
/// small set is evaluated as its sorted row ids and never cached; the rule
/// reads both sizes off its input.
fn is_small(len: usize, n: usize) -> bool {
    len * bit_length(len) <= n / 64
}

/// Bits needed to write `x`: ⌈log₂(x + 1)⌉, the depth of a binary search
/// over `x` sorted rows.
fn bit_length(x: usize) -> usize {
    (usize::BITS - x.leading_zeros()) as usize
}

/// Size of `f`'s satisfying set as the statistics report it in O(1) or
/// O(log n). Exact — equal to the per-row count and to ψ·n — for `CatEq`,
/// `NumRange`, `DerivedEq` and `DerivedGe` (θ ≥ 1); an upper bound for
/// `CatIn` and `DerivedFrac`.
pub fn match_estimate(f: &CandidateFilter, prop: &Property) -> usize {
    source(f, prop, None).len()
}

/// The exact satisfying row set of ONE filter, from its source.
pub fn filter_row_set(entity: &EntityProps, f: &CandidateFilter, prop: &Property) -> RowSet {
    source(f, prop, None).to_set(entity.n)
}

/// What probing one surviving row costs, in postings walked. A walk reads
/// 8-byte postings in order and tests them against a bitmap that sits in
/// L1; a probe (`matches_row`) finds one entity's run or value list behind
/// a pointer and searches it. Measured on the 10× IMDb slate, in a loop
/// that keeps both warm: 1.3–1.7 ns a posting against 14–28 ns a derived
/// probe and 7–10 ns a basic one; cold, as a one-shot discovery meets
/// them, a probe costs more. Between 8 and 64 the one-shot benchmark's
/// evaluation time is flat; at 1 (plain shorter side) and with the probe
/// removed altogether it doubles (CHANGES.md, PR 18).
const PROBE_COST: usize = 16;

/// The rows of `within` that fail `f`, without visiting a row that does
/// not have to be: a bitmap source is subtracted word-wise; a slice is
/// walked, knocking its rows out of a copy of `within`, unless probing
/// each row of `within` is the cheaper side ([`PROBE_COST`]).
fn violators_from(
    within: &RowSet,
    f: &CandidateFilter,
    prop: &Property,
    source: &Source<'_>,
) -> RowSet {
    if let Some(set) = source.bitmap() {
        let mut out = within.clone();
        out.difference_with(set);
        return out;
    }
    match source {
        Source::Slice(slice) if slice.len() < within.len() * PROBE_COST => {
            let mut out = within.clone();
            slice.for_each(|row| {
                out.remove(row);
            });
            out
        }
        _ => {
            let mut out = RowSet::with_universe(within.word_count() * 64);
            for row in within {
                if !f.matches_row(prop, row) {
                    out.insert(row);
                }
            }
            out
        }
    }
}

/// The rows of `within` that fail `f` (see [`violators_from`]; the
/// statistics alone decide the source — nothing is cached).
pub(crate) fn violators(within: &RowSet, f: &CandidateFilter, prop: &Property) -> RowSet {
    violators_from(within, f, prop, &source(f, prop, None))
}

/// Drop from `rows` every row outside `source`: one word-wise AND for a
/// bitmap, otherwise the cheaper of the slice and the surviving rows.
fn restrict(rows: &mut RowSet, f: &CandidateFilter, prop: &Property, source: &Source<'_>) {
    match source.bitmap() {
        Some(set) => rows.intersect_with(set),
        None => rows.difference_with(&violators_from(rows, f, prop, source)),
    }
}

/// One incremental result-maintenance step for the session: restrict
/// `rows` by a single newly chosen filter, through the cache (see
/// [`source`]). An unknown property clears the result, matching
/// [`evaluate`].
pub(crate) fn restrict_rows(
    rows: &mut RowSet,
    entity: &EntityProps,
    f: &CandidateFilter,
    fp: &FilterFingerprint,
    cache: &mut FilterSetCache,
) {
    let Some(prop) = entity.property(f.prop_id) else {
        *rows = RowSet::with_universe(entity.n);
        return;
    };
    let slot = CacheSlot {
        n: entity.n,
        fp,
        cache,
    };
    restrict(rows, f, prop, &source(f, prop, Some(slot)));
}

/// [`evaluate`] through a [`FilterSetCache`]: each slice-backed filter's
/// satisfying set is fetched by fingerprint (built from postings and
/// memoized on a miss when inside the admission band of [`source`]), so
/// with a warm cache a repeat evaluation walks no postings but those of
/// small slices — a few dozen rows each — and otherwise runs `u64` AND
/// loops over resident bitmaps.
///
/// Every lookup is one shard of the handle's
/// [`SharedFilterSetCache`](squid_adb::SharedFilterSetCache) (a brief
/// per-shard lock, `Arc` clone out), and a miss publishes the freshly
/// computed set there — so warm *cross-session* evaluations are bitmap
/// algebra too.
///
/// Exactly equivalent to [`evaluate_per_row`] (property-tested), and like
/// it, an unknown property id excludes every row.
pub fn evaluate_cached(
    entity: &EntityProps,
    filters: &[CandidateFilter],
    cache: &mut FilterSetCache,
) -> RowSet {
    let fps: Vec<FilterFingerprint> = filters.iter().map(filter_fingerprint).collect();
    intersect_sources(entity, filters, &[], Some((&fps, cache)))
}

/// The one evaluator: the filters ordered by the size each one carries,
/// ψ·n from emission, and intersected smallest first, each filter's
/// [`Source`] built only when the intersection reaches it.
///
/// Ordering reads no postings and touches no cache. ψ·n is the satisfying
/// row count for every kind but `IN` lists, where it is the same upper
/// bound their slice length is.
///
/// When the first source is a [small](is_small) slice, the survivors
/// are its sorted row ids and each next source filters them in place
/// ([`retain`]). The list hands off to the bitmap as soon as the next
/// source is a slice that the cost rule would walk and whose walk by
/// binary search (`len · bit_length(survivors)`) costs more than one
/// bitmap pass (`n / 64`); that source and every later one then restrict
/// the bitmap, as they do when the first source is not small. One n-bit
/// [`RowSet`] is built either way.
///
/// Evaluation stops as soon as the survivors are exactly `examples`: every
/// chosen filter holds every example (paper Defs. 3.1–3.2), so no later
/// filter can remove a survivor, and a filter never reached is never
/// built, looked up or published. With no examples (the public entry
/// points) that is the empty set.
pub(crate) fn intersect_sources(
    entity: &EntityProps,
    filters: &[CandidateFilter],
    examples: &[RowId],
    mut cached: Option<(&[FilterFingerprint], &mut FilterSetCache)>,
) -> RowSet {
    let n = entity.n;
    if filters.is_empty() {
        return RowSet::full(n);
    }
    let mut order = Vec::with_capacity(filters.len());
    for (i, f) in filters.iter().enumerate() {
        let Some(prop) = entity.property(f.prop_id) else {
            return RowSet::with_universe(n);
        };
        order.push((i, f, prop));
    }
    // ψ·n orders as ψ does: every filter shares the one n.
    order.sort_by(|(_, a, _), (_, b, _)| a.selectivity.total_cmp(&b.selectivity));
    let mut sources = order
        .into_iter()
        .map(|(i, f, prop)| {
            let slot = cached.as_mut().map(|(fps, cache)| CacheSlot {
                n,
                fp: &fps[i],
                cache,
            });
            (f, prop, source(f, prop, slot))
        })
        .peekable();
    let settled = |survivors: usize| survivors == examples.len();
    let (_, _, first) = sources.next().expect("at least one filter");
    let mut out = match first {
        Source::Slice(slice) if is_small(slice.len(), n) => {
            let mut rows = Vec::with_capacity(slice.len());
            slice.for_each(|row| rows.push(row));
            rows.sort_unstable();
            rows.dedup();
            while !settled(rows.len()) {
                let Some((f, prop, source)) =
                    sources.next_if(|(_, _, source)| !hands_off(source, rows.len(), n))
                else {
                    break;
                };
                retain(&mut rows, f, prop, &source);
            }
            let mut out = RowSet::with_universe(n);
            out.extend(rows);
            out
        }
        first => first.to_set(n),
    };
    while !settled(out.len()) {
        let Some((f, prop, source)) = sources.next() else {
            break;
        };
        restrict(&mut out, f, prop, &source);
    }
    debug_assert!(
        examples.iter().all(|&row| out.contains(row)),
        "every chosen filter holds every example"
    );
    out
}

/// Whether the sorted survivors of a small set give way to a bitmap at
/// `source`: it is a slice the cost rule would walk, and walking it by
/// binary search among `survivors` rows costs more than one pass over an
/// `n`-bit bitmap.
fn hands_off(source: &Source<'_>, survivors: usize, n: usize) -> bool {
    match source {
        Source::Slice(slice) => {
            let len = slice.len();
            len < survivors * PROBE_COST && len * bit_length(survivors) > n / 64
        }
        Source::Cached(_) | Source::Dense(_) => false,
    }
}

/// Keep the sorted `rows` that `source` holds: one bit test per row for a
/// bitmap; for a slice, the cheaper side of the cost rule — walk it and
/// binary-search each of its rows among `rows`, or probe each row.
fn retain(rows: &mut Vec<RowId>, f: &CandidateFilter, prop: &Property, source: &Source<'_>) {
    if let Some(set) = source.bitmap() {
        rows.retain(|&row| set.contains(row));
        return;
    }
    match source {
        Source::Slice(slice) if slice.len() < rows.len() * PROBE_COST => {
            let mut keep = vec![false; rows.len()];
            slice.for_each(|row| {
                if let Ok(i) = rows.binary_search(&row) {
                    keep[i] = true;
                }
            });
            let mut keep = keep.into_iter();
            rows.retain(|_| keep.next() == Some(true));
        }
        _ => rows.retain(|&row| f.matches_row(prop, row)),
    }
}

fn num_value(x: f64) -> Value {
    if x.fract() == 0.0 && x.abs() < i64::MAX as f64 {
        Value::Int(x as i64)
    } else {
        Value::float(x)
    }
}

fn range_pred(column: squid_relation::Sym, l: f64, h: f64) -> Pred {
    Pred::between(column, num_value(l), num_value(h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::discover_contexts;
    use crate::params::SquidParams;
    use squid_adb::{test_fixtures, ADb};
    use squid_engine::{to_sql, Executor};

    fn comedy_filter(entity: &EntityProps) -> CandidateFilter {
        let prop = entity
            .props
            .iter()
            .find(|p| matches!(&p.def.kind, PropKind::TwoHopCount { prop_table, .. } if prop_table == "genre"))
            .unwrap();
        CandidateFilter {
            prop_id: prop.def.id.as_str().into(),
            attr_name: prop.def.attr_name.as_str().into(),
            value: FilterValue::DerivedEq {
                value: Value::text("Comedy"),
                theta: 4,
            },
            selectivity: 0.375,
            coverage: 0.25,
        }
    }

    #[test]
    fn original_and_adb_forms_agree_with_direct_evaluation() {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let e = adb.entity("person").unwrap();
        let filters = vec![comedy_filter(e)];

        let direct = evaluate(e, &filters);
        assert_eq!(direct.len(), 3); // Jim, Eddie, Robin

        let (orig, skipped) = original_query(e, &filters, "name");
        assert!(!skipped);
        let r_orig = Executor::new(&adb.database).execute(&orig).unwrap();
        assert_eq!(r_orig.rows, direct);

        let aq = adb_query(e, &filters, "name").expect("αDB form");
        let r_adb = Executor::new(adb.query_database()).execute(&aq).unwrap();
        assert_eq!(r_adb.rows, direct);

        // The αDB form is structurally simpler: fewer joins.
        assert!(aq.join_predicate_count() < orig.join_predicate_count());
    }

    #[test]
    fn basic_filters_become_root_predicates() {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let e = adb.entity("person").unwrap();
        let f = CandidateFilter {
            prop_id: "person.gender".into(),
            attr_name: "gender".into(),
            value: FilterValue::CatEq(Value::text("Male")),
            selectivity: 0.75,
            coverage: 0.5,
        };
        let (q, _) = original_query(e, &[f], "name");
        assert_eq!(q.join_predicate_count(), 0);
        assert_eq!(q.selection_predicate_count(), 1);
        assert!(to_sql(&q).contains("t0.gender = 'Male'"));
    }

    #[test]
    fn normalized_filters_skip_sql_but_evaluate() {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let e = adb.entity("person").unwrap();
        let prop = e
            .props
            .iter()
            .find(|p| matches!(&p.def.kind, PropKind::TwoHopCount { prop_table, .. } if prop_table == "genre"))
            .unwrap();
        let f = CandidateFilter {
            prop_id: prop.def.id.as_str().into(),
            attr_name: prop.def.attr_name.as_str().into(),
            value: FilterValue::DerivedFrac {
                value: Value::text("Comedy"),
                frac: 0.9,
                raw_theta: 4,
            },
            selectivity: 0.3,
            coverage: 0.25,
        };
        let (_, skipped) = original_query(e, std::slice::from_ref(&f), "name");
        assert!(skipped);
        assert!(adb_query(e, std::slice::from_ref(&f), "name").is_none());
        let rows = evaluate(e, &[f]);
        assert!(!rows.is_empty());
    }

    #[test]
    fn evaluation_matches_contexts_for_examples() {
        // Whatever contexts are discovered from the examples, the examples
        // themselves must satisfy all of them (Lemma 3.1).
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let e = adb.entity("person").unwrap();
        let rows = vec![e.row_of(1).unwrap(), e.row_of(2).unwrap()];
        let filters = discover_contexts(e, &rows, &SquidParams::default());
        let result = evaluate(e, &filters);
        for r in &rows {
            assert!(result.contains(*r));
        }
    }

    #[test]
    fn violators_agree_with_row_probes_on_both_sides_of_the_cost_rule() {
        // 400 persons: mini-IMDb's 8 rows make every categorical value dense.
        let adb = ADb::build(&squid_datasets::generate_imdb(
            &squid_datasets::ImdbConfig::tiny(),
        ))
        .unwrap();
        let params = SquidParams {
            allow_disjunction: true,
            ..SquidParams::default()
        };
        let mut shared_row_lists = 0;
        for entity in adb.entities.values() {
            let mut filters = Vec::new();
            for a in (0..entity.n).step_by(37) {
                for b in (a..entity.n).step_by(41) {
                    filters.extend(discover_contexts(entity, &[a, b], &params));
                }
            }
            // `IN` lists over multi-valued attributes, whose values share
            // rows (a movie is Comedy and Fantasy): a walk meets such a row
            // once per value.
            for prop in &entity.props {
                let PropStats::Categorical(stats) = &prop.stats else {
                    continue;
                };
                for row in (0..entity.n).step_by(29) {
                    let values: Vec<Value> = stats
                        .codes_of(row)
                        .iter()
                        .map(|&c| stats.value(c))
                        .collect();
                    if values.len() > 1 {
                        shared_row_lists += 1;
                        filters.push(CandidateFilter {
                            prop_id: prop.id_sym,
                            attr_name: prop.attr_sym,
                            value: FilterValue::CatIn(values),
                            selectivity: 0.5,
                            coverage: 0.5,
                        });
                    }
                }
            }
            // Wide sets put a filter's postings on the shorter side, small
            // ones the set itself.
            let withins = [
                RowSet::full(entity.n),
                (0..entity.n).step_by(2).collect(),
                (entity.n.saturating_sub(2)..entity.n).collect(),
                RowSet::new(),
            ];
            let (mut subtracted, mut walked, mut probed) = (0, 0, 0);
            for f in &filters {
                let prop = entity.property(f.prop_id).unwrap();
                for within in &withins {
                    let expect: RowSet =
                        within.iter().filter(|&r| !f.matches_row(prop, r)).collect();
                    assert_eq!(violators(within, f, prop), expect, "{}", f.describe());
                    let source = source(f, prop, None);
                    let mut restricted = within.clone();
                    restrict(&mut restricted, f, prop, &source);
                    assert_eq!(restricted.len(), within.len() - expect.len());
                    assert!(restricted.iter().all(|r| f.matches_row(prop, r)));
                    match source {
                        Source::Dense(_) => subtracted += 1,
                        Source::Slice(slice) if slice.len() < within.len() * PROBE_COST => {
                            walked += 1
                        }
                        Source::Slice(_) => probed += 1,
                        Source::Cached(_) => unreachable!("no cache"),
                    }
                }
            }
            assert!(
                subtracted > 0 && walked > 0 && probed > 0,
                "{}: {subtracted} subtracted, {walked} walked, {probed} probed",
                entity.table
            );
        }
        assert!(shared_row_lists > 0);
    }

    /// The small-set rule at its edges: over 60 000 entities (IMDb 10×
    /// persons, n/64 = 937) 127 rows are small (127 · 7 = 889) and 128 are
    /// not (128 · 8 = 1 024); over 400 (n/64 = 6) 3 rows are and 4 are not;
    /// over 8 (n/64 = 0) only the empty set is.
    #[test]
    fn the_small_set_rule_at_its_edges() {
        for (n, largest) in [(60_000, 127), (400, 3), (8, 0)] {
            assert!(is_small(largest, n), "{largest} of {n}");
            assert!(!is_small(largest + 1, n), "{} of {n}", largest + 1);
        }
        assert!(is_small(0, 0));
        assert_eq!((bit_length(0), bit_length(1), bit_length(127)), (0, 1, 7));
        assert_eq!(bit_length(128), 8);
    }

    /// Satellite (i): no filters is the whole table, on the one-shot path
    /// as on the cached one.
    #[test]
    fn an_empty_filter_list_is_the_full_set_on_every_path() {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        for entity in adb.entities.values() {
            let full = RowSet::full(entity.n);
            assert_eq!(evaluate(entity, &[]), full);
            assert_eq!(evaluate(entity, &[]).word_count(), full.word_count());
            let mut cache = FilterSetCache::new(adb.generation);
            assert_eq!(evaluate_cached(entity, &[], &mut cache), full);
            assert_eq!(evaluate_per_row(entity, &[]), full);
        }
    }

    /// A filter over an unknown property yields the empty set on every
    /// path, whatever else is chosen.
    #[test]
    fn an_unknown_property_excludes_every_row_on_every_path() {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let e = adb.entity("person").unwrap();
        let unknown = CandidateFilter {
            prop_id: "person.no_such_property".into(),
            attr_name: "no_such_property".into(),
            value: FilterValue::CatEq(Value::text("Male")),
            selectivity: 0.5,
            coverage: 0.5,
        };
        let filters = vec![comedy_filter(e), unknown.clone()];
        assert!(evaluate(e, &filters).is_empty());
        assert!(evaluate_per_row(e, &filters).is_empty());
        let mut cache = FilterSetCache::new(adb.generation);
        assert!(evaluate_cached(e, &filters, &mut cache).is_empty());
        let mut rows = RowSet::full(e.n);
        let fp = filter_fingerprint(&unknown);
        restrict_rows(&mut rows, e, &unknown, &fp, &mut cache);
        assert!(rows.is_empty());
    }

    #[test]
    fn numeric_range_renders_between() {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let e = adb.entity("person").unwrap();
        let f = CandidateFilter {
            prop_id: "person.birth_year".into(),
            attr_name: "birth_year".into(),
            value: FilterValue::NumRange(1961.0, 1962.0),
            selectivity: 0.25,
            coverage: 0.1,
        };
        let (q, _) = original_query(e, &[f], "name");
        assert!(to_sql(&q).contains("BETWEEN 1961 AND 1962"));
        let exec = Executor::new(&adb.database);
        assert_eq!(exec.execute(&q).unwrap().len(), 2);
    }
}
