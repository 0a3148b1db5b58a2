//! Example recommendation — one of the paper's "future directions"
//! (Section 9: "example recommendation to increase sample diversity and
//! improve abduction").
//!
//! After a discovery, some filters are *uncertain*: their include and
//! exclude scores are close, so a few more examples could flip them. The
//! most informative next example is a tuple from the current result that
//! **violates** uncertain excluded filters: if the user confirms such a
//! tuple as a valid example, the contested filter is refuted (it would no
//! longer be valid); if the user rejects it, the filter gains support. We
//! rank candidate tuples by the total uncertainty mass they would resolve.
//!
//! # Algorithm and cost
//!
//! No result row is visited on its own. Two candidates that violate the
//! same contested filters have the same score and the same
//! `discriminates` list, so the search runs over those **signature
//! classes**, as bitmap algebra:
//!
//! 1. `cand = rows \ example_rows`. Included filters are dropped up front:
//!    the result satisfies every chosen filter by construction, so none of
//!    its rows can violate one.
//! 2. Each remaining contested filter `c` gets its violator bitmap
//!    `cand \ S_c` from the filter's source in the αDB — a dense value's
//!    bitmap is subtracted, a slice of postings walked, unless probing
//!    `cand` is the cheaper side (`query_gen::violators`); filters nobody
//!    violates drop out.
//! 3. A depth-first search splits `cand` by violates/satisfies, one
//!    contested filter at a time in `scored` order (so a class's score is
//!    summed in exactly the order a per-row loop would sum it), violators
//!    first. Empty halves are never entered, and a branch whose score
//!    cannot reach the current k-th best even by violating every filter
//!    still ahead is cut.
//! 4. Each surviving class offers at most its `k` lowest rows to a
//!    `k`-bounded heap ordered `(score desc, row asc)`; the `discriminates`
//!    strings are built for the `k` winners only.
//!
//! With `m_c` matches of filter `c` — exactly the postings its source
//! holds, for every kind including `DerivedGe` — that is
//! O(Σ min(m_c, |cand|)) postings or probe steps plus O(n/64) word
//! operations per class and contested filter — against one `Vec<String>`
//! and |contested| probes per result row for the per-row loop it replaces
//! (kept below as the test oracle).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use squid_adb::EntityProps;
use squid_relation::{RowId, RowSet, Sym};

use crate::abduce::ScoredFilter;
use crate::query_gen::violators;
use crate::squid::Discovery;

/// Default `min_uncertainty` threshold below which a filter decision is
/// considered settled (what the session's `suggest`, and so the served
/// and REPL `suggest` verb, passes to [`recommend_examples`]).
pub const DEFAULT_MIN_UNCERTAINTY: f64 = 0.05;

/// A recommended next example with its diagnostic score.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Entity row to show the user.
    pub row: RowId,
    /// Total uncertainty mass this tuple would resolve if labeled.
    pub score: f64,
    /// Ids of the contested filters this tuple discriminates.
    pub discriminates: Vec<String>,
}

/// How contested a decision is: 1 when include and exclude scores tie,
/// approaching 0 for confident decisions.
pub fn uncertainty(s: &ScoredFilter) -> f64 {
    let hi = s.include_score.max(s.exclude_score);
    let lo = s.include_score.min(s.exclude_score);
    if hi <= 0.0 {
        0.0
    } else {
        lo / hi
    }
}

/// Rank the `k` most informative next examples among the discovery's
/// current result rows (excluding the rows already given as examples),
/// best first: by score descending, ties by ascending row id.
///
/// A candidate tuple discriminates a contested filter iff it does *not*
/// satisfy it: asking the user about that tuple directly tests whether the
/// filter belongs to the intent. `discovery.rows` must satisfy every
/// included filter, as every [`Discovery`] this crate produces does.
pub fn recommend_examples(
    entity: &EntityProps,
    discovery: &Discovery,
    k: usize,
    min_uncertainty: f64,
) -> Vec<Recommendation> {
    if k == 0 {
        return Vec::new();
    }
    let mut cand = discovery.rows.clone();
    cand.difference_with(&discovery.example_rows.iter().copied().collect());
    if cand.is_empty() {
        return Vec::new();
    }
    let contested: Vec<Contested> = discovery
        .scored
        .iter()
        .filter(|s| !s.included && uncertainty(s) >= min_uncertainty)
        .filter_map(|s| {
            let prop = entity.property(s.filter.prop_id)?;
            let violating = violators(&cand, &s.filter, prop);
            (!violating.is_empty()).then(|| Contested {
                prop_id: s.filter.prop_id,
                uncertainty: uncertainty(s),
                violating,
            })
        })
        .collect();
    let mut search = ClassSearch {
        contested: &contested,
        k,
        best: BinaryHeap::new(),
        classes: Vec::new(),
        path: Vec::new(),
    };
    search.descend(cand, 0, 0.0);
    let ClassSearch { best, classes, .. } = search;
    best.into_sorted_vec()
        .into_iter()
        .map(|(Reverse(score_bits), row, class)| Recommendation {
            row,
            score: f64::from_bits(score_bits),
            discriminates: classes[class]
                .iter()
                .map(|&i| contested[i].prop_id.as_str().to_string())
                .collect(),
        })
        .collect()
}

/// A contested, not-included filter that at least one candidate violates.
struct Contested {
    prop_id: Sym,
    uncertainty: f64,
    /// `cand \ S_c`.
    violating: RowSet,
}

/// Heap entry, ordered best-first: score descending (scores offered are
/// positive and not NaN, so their bit patterns order like the values),
/// then row ascending; the last field indexes `ClassSearch::classes`.
type Ranked = (Reverse<u64>, RowId, usize);

/// State of the depth-first search over signature classes.
struct ClassSearch<'a> {
    /// In `scored` order.
    contested: &'a [Contested],
    k: usize,
    /// The best `k` candidates so far; a max-heap, so `peek` is the worst.
    best: BinaryHeap<Ranked>,
    /// Violated-filter indices (into `contested`) of each class that
    /// placed a row in `best`.
    classes: Vec<Vec<usize>>,
    /// Filters violated by every row of the set being split.
    path: Vec<usize>,
}

impl ClassSearch<'_> {
    /// Split the non-empty `set` — rows that agree on every filter before
    /// `from` and have summed `score` over the ones they violate — by the
    /// remaining filters. Leaves `path` as it found it.
    fn descend(&mut self, mut set: RowSet, from: usize, mut score: f64) {
        if self.cannot_place(&set, from, score) {
            return;
        }
        let contested = self.contested;
        let depth = self.path.len();
        for (i, c) in contested.iter().enumerate().skip(from) {
            let violating = set.intersection_size(&c.violating);
            if violating == 0 {
                continue;
            }
            self.path.push(i);
            if violating == set.len() {
                score += c.uncertainty;
                continue;
            }
            // A real split; the violators score higher, so they go first
            // and raise the bar the other half has to clear.
            let mut satisfying = set.clone();
            satisfying.difference_with(&c.violating);
            set.intersect_with(&c.violating);
            self.descend(set, i + 1, score + c.uncertainty);
            self.path.pop();
            self.descend(satisfying, i + 1, score);
            self.path.truncate(depth);
            return;
        }
        if score > 0.0 {
            self.offer(&set, score);
        }
        self.path.truncate(depth);
    }

    /// With `k` candidates already held, can no row of `set` displace the
    /// worst of them? The bound adds every remaining uncertainty in
    /// `scored` order: float addition is monotone in both operands and the
    /// terms are non-negative, so no class below this node sums higher.
    fn cannot_place(&self, set: &RowSet, from: usize, score: f64) -> bool {
        if self.best.len() < self.k {
            return false;
        }
        let Some(&(Reverse(worst_bits), worst_row, _)) = self.best.peek() else {
            return false;
        };
        let worst = f64::from_bits(worst_bits);
        let bound = self.contested[from..]
            .iter()
            .fold(score, |sum, c| sum + c.uncertainty);
        bound < worst || (bound == worst && set.iter().next().is_some_and(|r| r > worst_row))
    }

    /// One finished class: all of `set` violates exactly `path`. Its rows
    /// rank in ascending order, so the first one that fails to place ends it.
    fn offer(&mut self, set: &RowSet, score: f64) {
        let class = self.classes.len();
        for row in set {
            let entry = (Reverse(score.to_bits()), row, class);
            if self.best.len() == self.k {
                if self.best.peek().is_some_and(|worst| entry > *worst) {
                    break;
                }
                self.best.pop();
            }
            self.best.push(entry);
            if self.classes.len() == class {
                self.classes.push(self.path.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SquidParams;
    use crate::squid::Squid;
    use squid_adb::{test_fixtures, ADb};

    /// The per-row definition `recommend_examples` must reproduce bit for
    /// bit: probe every contested filter on every candidate row, sort all.
    fn recommend_per_row(
        entity: &EntityProps,
        discovery: &Discovery,
        k: usize,
        min_uncertainty: f64,
    ) -> Vec<Recommendation> {
        let contested: Vec<&ScoredFilter> = discovery
            .scored
            .iter()
            .filter(|s| uncertainty(s) >= min_uncertainty)
            .collect();
        let mut recs: Vec<Recommendation> = Vec::new();
        for row in &discovery.rows {
            if discovery.example_rows.contains(&row) {
                continue;
            }
            let mut score = 0.0;
            let mut discriminates = Vec::new();
            for s in &contested {
                let Some(prop) = entity.property(s.filter.prop_id) else {
                    continue;
                };
                if !s.filter.matches_row(prop, row) {
                    score += uncertainty(s);
                    discriminates.push(s.filter.prop_id.as_str().to_string());
                }
            }
            if score > 0.0 {
                recs.push(Recommendation {
                    row,
                    score,
                    discriminates,
                });
            }
        }
        recs.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.row.cmp(&b.row)));
        recs.truncate(k);
        recs
    }

    fn discovery() -> (ADb, Discovery) {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let d = {
            let squid = Squid::with_params(
                &adb,
                SquidParams {
                    tau_a: 2,
                    ..SquidParams::default()
                },
            );
            squid.discover(&["Jim Carrey", "Eddie Murphy"]).unwrap()
        };
        (adb, d)
    }

    #[test]
    fn uncertainty_peaks_at_ties() {
        let (_, d) = discovery();
        for s in &d.scored {
            let u = uncertainty(s);
            assert!((0.0..=1.0).contains(&u), "{u}");
            if (s.include_score - s.exclude_score).abs() < 1e-15 {
                assert!((u - 1.0).abs() < 1e-9 || s.include_score == 0.0);
            }
        }
    }

    #[test]
    fn recommendations_come_from_result_minus_examples() {
        let (adb, d) = discovery();
        let entity = adb.entity("person").unwrap();
        let recs = recommend_examples(entity, &d, 5, 0.0);
        for r in &recs {
            assert!(d.rows.contains(r.row));
            assert!(!d.example_rows.contains(&r.row));
            assert!(r.score > 0.0);
            assert!(!r.discriminates.is_empty());
        }
    }

    #[test]
    fn class_search_matches_the_per_row_definition() {
        let (adb, mut d) = discovery();
        let entity = adb.entity("person").unwrap();
        // Wider than anything two comedians leave contested: nothing
        // chosen, every person a candidate, and uncertainties that repeat,
        // so classes tie on score and rank by their rows alone.
        d.rows = RowSet::full(entity.n);
        d.example_rows.truncate(1);
        for (i, s) in d.scored.iter_mut().enumerate() {
            s.included = false;
            s.include_score = 1.0;
            s.exclude_score = [0.5, 0.25, 0.5, 0.0][i % 4];
        }
        for k in 0..=entity.n + 1 {
            for min_uncertainty in [0.0, DEFAULT_MIN_UNCERTAINTY, 0.3, 1.1] {
                let got = recommend_examples(entity, &d, k, min_uncertainty);
                let want = recommend_per_row(entity, &d, k, min_uncertainty);
                assert_eq!(got, want, "k={k} min_uncertainty={min_uncertainty}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.score.to_bits(), w.score.to_bits());
                }
            }
        }
        assert!(recommend_per_row(entity, &d, 1, 0.0)[0].discriminates.len() > 1);
    }

    #[test]
    fn high_threshold_yields_nothing() {
        let (adb, d) = discovery();
        let entity = adb.entity("person").unwrap();
        // No decision is ever *perfectly* contested here.
        let recs = recommend_examples(entity, &d, 5, 1.1);
        assert!(recs.is_empty());
    }

    #[test]
    fn recommendations_are_ranked_and_bounded() {
        let (adb, d) = discovery();
        let entity = adb.entity("person").unwrap();
        let recs = recommend_examples(entity, &d, 2, 0.0);
        assert!(recs.len() <= 2);
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
