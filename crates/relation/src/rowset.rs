//! Dense bitmap row sets: the executor's working representation of "which
//! root rows qualify". Replaces `BTreeSet<RowId>` on the hot paths —
//! intersect/union/count become word-wide (64 rows at a time) operations
//! and membership is one shift and mask.
//!
//! Row ids are dense insertion positions (see [`crate::table::Table`]), so
//! a bitmap over `0..len` wastes nothing. Iteration yields ascending row
//! ids, matching the ordered-set semantics the previous `BTreeSet`
//! representation provided.

use crate::table::RowId;

/// A set of row ids backed by a `Vec<u64>` bitmap.
#[derive(Clone, Default)]
pub struct RowSet {
    words: Vec<u64>,
    len: usize,
}

impl RowSet {
    /// Empty set.
    pub fn new() -> Self {
        RowSet::default()
    }

    /// Empty set pre-sized for rows `0..universe` (avoids regrowth during
    /// scans that insert in ascending order).
    pub fn with_universe(universe: usize) -> Self {
        RowSet {
            words: vec![0; universe.div_ceil(64)],
            len: 0,
        }
    }

    /// The set `{0, 1, .., universe-1}`.
    pub fn full(universe: usize) -> Self {
        let mut s = RowSet::with_universe(universe);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        if !universe.is_multiple_of(64) {
            if let Some(last) = s.words.last_mut() {
                *last = (1u64 << (universe % 64)) - 1;
            }
        }
        s.len = universe;
        s
    }

    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `row`; returns true if it was newly inserted.
    pub fn insert(&mut self, row: RowId) -> bool {
        let (w, b) = (row / 64, row % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// Remove `row`; returns true if it was present.
    pub fn remove(&mut self, row: RowId) -> bool {
        let (w, b) = (row / 64, row % 64);
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        self.len -= present as usize;
        present
    }

    /// Membership test.
    pub fn contains(&self, row: RowId) -> bool {
        self.words
            .get(row / 64)
            .is_some_and(|w| w & (1u64 << (row % 64)) != 0)
    }

    /// The `i`-th 64-row word (bit `b` set ⇔ row `i*64 + b` is in the
    /// set). Out-of-range words read as 0 — the batch-kernel contract: a
    /// kernel can ask for any batch's null/membership word without
    /// bounds bookkeeping.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// Number of stored words (batches with at least one possible member).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Estimated heap bytes of the word storage.
    pub fn heap_bytes(&self) -> usize {
        crate::heap::vec_bytes(&self.words)
    }

    /// The raw word storage (`words()[i]` covers rows `i*64 .. i*64+64`).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrite the `i`-th 64-row word with a kernel-emitted match word,
    /// updating the cardinality. This is how batch scans publish 64 match
    /// bits at once instead of 64 `insert` calls.
    pub fn set_word(&mut self, i: usize, word: u64) {
        if i >= self.words.len() {
            if word == 0 {
                return;
            }
            self.words.resize(i + 1, 0);
        }
        let old = self.words[i];
        self.words[i] = word;
        self.len = self.len + word.count_ones() as usize - old.count_ones() as usize;
    }

    /// Build directly from kernel-emitted words (`words[i]` covers rows
    /// `i*64 .. i*64+64`).
    pub fn from_words(words: Vec<u64>) -> RowSet {
        let len = words.iter().map(|w| w.count_ones() as usize).sum();
        RowSet { words, len }
    }

    /// Number of rows in `self` but not in `other`, word-parallel (the
    /// delta-reporting primitive: `a.difference_size(b)` +
    /// `b.difference_size(a)` gives added/removed counts without per-row
    /// membership probes).
    pub fn difference_size(&self, other: &RowSet) -> usize {
        self.words
            .iter()
            .enumerate()
            .map(|(i, w)| (w & !other.word(i)).count_ones() as usize)
            .sum()
    }

    /// Iterate rows in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// In-place intersection (`self &= other`), word-parallel.
    pub fn intersect_with(&mut self, other: &RowSet) {
        if other.words.len() < self.words.len() {
            self.words.truncate(other.words.len());
        }
        let mut count = 0usize;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
            count += w.count_ones() as usize;
        }
        self.len = count;
    }

    /// In-place difference (`self &= !other`), word-parallel.
    pub fn difference_with(&mut self, other: &RowSet) {
        // Words past `other`'s storage are untouched: it has no rows there.
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// In-place union (`self |= other`), word-parallel.
    pub fn union_with(&mut self, other: &RowSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut count = 0usize;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        for w in &self.words {
            count += w.count_ones() as usize;
        }
        self.len = count;
    }

    /// New set: `self & other`.
    pub fn intersection(&self, other: &RowSet) -> RowSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// New set: `self | other`.
    pub fn union(&self, other: &RowSet) -> RowSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// `|self & other|` without materializing the intersection.
    pub fn intersection_size(&self, other: &RowSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// True iff every row of `self` is in `other`.
    pub fn is_subset(&self, other: &RowSet) -> bool {
        self.words.iter().enumerate().all(|(i, &w)| {
            let o = other.words.get(i).copied().unwrap_or(0);
            w & !o == 0
        })
    }
}

impl FromIterator<RowId> for RowSet {
    fn from_iter<I: IntoIterator<Item = RowId>>(iter: I) -> Self {
        let mut s = RowSet::new();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl Extend<RowId> for RowSet {
    fn extend<I: IntoIterator<Item = RowId>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl PartialEq for RowSet {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short.iter().zip(long.iter()).all(|(a, b)| a == b)
            && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for RowSet {}

impl std::fmt::Debug for RowSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a RowSet {
    type Item = RowId;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending iterator over a [`RowSet`].
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = RowId;

    fn next(&mut self) -> Option<RowId> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn of(ids: &[RowId]) -> RowSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn insert_contains_len() {
        let mut s = RowSet::new();
        assert!(s.is_empty());
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(200));
        assert_eq!(s.len(), 2);
        assert!(s.contains(5) && s.contains(200));
        assert!(!s.contains(6) && !s.contains(10_000));
    }

    #[test]
    fn remove_updates_len() {
        let mut s = of(&[1, 2, 3]);
        assert!(s.remove(2));
        assert!(!s.remove(2));
        assert!(!s.remove(999));
        assert_eq!(s.len(), 2);
        assert!(!s.contains(2));
    }

    #[test]
    fn iteration_is_ascending_like_btreeset() {
        let ids = [7usize, 0, 63, 64, 65, 128, 300, 2];
        let bitmap: Vec<RowId> = of(&ids).iter().collect();
        let btree: Vec<RowId> = ids
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(bitmap, btree);
    }

    #[test]
    fn intersect_empty_sparse_full() {
        let full = RowSet::full(130);
        assert_eq!(full.len(), 130);
        let sparse = of(&[0, 64, 129]);
        assert_eq!(full.intersection(&sparse), sparse);
        assert_eq!(sparse.intersection(&RowSet::new()), RowSet::new());
        let disjoint = of(&[1, 65]);
        assert!(sparse.intersection(&disjoint).is_empty());
        assert_eq!(sparse.intersection_size(&full), 3);
    }

    #[test]
    fn union_counts_once() {
        let a = of(&[1, 2, 100]);
        let b = of(&[2, 3]);
        let u = a.union(&b);
        assert_eq!(u, of(&[1, 2, 3, 100]));
        assert_eq!(u.len(), 4);
    }

    #[test]
    fn difference_with_matches_difference_size_and_btreeset() {
        // Same pseudo-random stream as the mixed-ops test, two sets of
        // different word counts in both roles.
        let mut x: u64 = 0x9e37_79b9;
        let mut draw = |universe: usize, count: usize| -> RowSet {
            (0..count)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (x >> 33) as usize % universe
                })
                .collect()
        };
        let (a, b) = (draw(700, 300), draw(200, 120));
        for (s, o) in [(&a, &b), (&b, &a), (&a, &a), (&a, &RowSet::new())] {
            let mut d = s.clone();
            d.difference_with(o);
            assert_eq!(d.len(), s.difference_size(o));
            let expect: BTreeSet<RowId> = s.iter().filter(|&r| !o.contains(r)).collect();
            assert_eq!(d.iter().collect::<BTreeSet<_>>(), expect);
            assert_eq!(d.len(), expect.len());
        }
    }

    #[test]
    fn subset_relation() {
        let a = of(&[1, 64]);
        let b = of(&[1, 2, 64, 65]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(RowSet::new().is_subset(&a));
        assert!(a.is_subset(&a));
        // Differently sized word vectors still compare correctly.
        assert!(of(&[1]).is_subset(&of(&[1, 1000])));
        assert!(!of(&[1, 1000]).is_subset(&of(&[1])));
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        let mut a = of(&[3]);
        let mut b = of(&[3, 500]);
        b.remove(500); // leaves b with more (zero) words than a
        assert_eq!(a, b);
        a.insert(500);
        assert_ne!(a, b);
    }

    #[test]
    fn full_handles_word_boundaries() {
        for n in [0usize, 1, 63, 64, 65, 128] {
            let f = RowSet::full(n);
            assert_eq!(f.len(), n);
            assert_eq!(f.iter().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn word_emission_round_trips() {
        // Kernel contract: a set built from emitted words reads back the
        // same words and the same rows, including the implicit zero tail.
        let words = vec![0b1011u64, 0, u64::MAX, 1 << 63];
        let s = RowSet::from_words(words.clone());
        assert_eq!(s.len(), 3 + 64 + 1);
        for (i, &w) in words.iter().enumerate() {
            assert_eq!(s.word(i), w);
        }
        assert_eq!(s.word(4), 0); // out of range reads as empty
        assert_eq!(s.word(999), 0);
        let rebuilt = RowSet::from_words((0..s.word_count()).map(|i| s.word(i)).collect());
        assert_eq!(rebuilt, s);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            rebuilt.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn set_word_tracks_len() {
        let mut s = RowSet::new();
        s.set_word(2, 0b101);
        assert_eq!(s.len(), 2);
        assert!(s.contains(128) && s.contains(130));
        s.set_word(2, 0b1);
        assert_eq!(s.len(), 1);
        s.set_word(10, 0); // no-op beyond the stored words
        assert_eq!(s.word_count(), 3);
        assert_eq!(s, RowSet::from_words(vec![0, 0, 1]));
    }

    #[test]
    fn parity_with_btreeset_on_mixed_ops() {
        // Deterministic pseudo-random workload mirrored against BTreeSet.
        let mut x: u64 = 0x1234_5678;
        let mut bitmap = RowSet::new();
        let mut btree = BTreeSet::new();
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let row = (x >> 33) as usize % 500;
            if x & 1 == 0 {
                assert_eq!(bitmap.insert(row), btree.insert(row));
            } else {
                assert_eq!(bitmap.remove(row), btree.remove(&row));
            }
        }
        assert_eq!(bitmap.len(), btree.len());
        assert_eq!(
            bitmap.iter().collect::<Vec<_>>(),
            btree.iter().copied().collect::<Vec<_>>()
        );
    }
}
