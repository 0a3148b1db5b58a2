//! Entity disambiguation (paper Section 6.1.1).
//!
//! User examples are single-column strings that may match several entities
//! ("Titanic" matches four films). The key insight: the provided examples
//! are likely to be alike, so pick the mapping combination that maximizes
//! the semantic similarity across the resolved entities. Small candidate
//! products are searched exhaustively; larger ones greedily.

use squid_adb::{EntityProps, PropStats};
use squid_relation::RowId;

use crate::context::retain_in;
use crate::params::SquidParams;

/// Similarity score of a set of resolved entities: rare shared contexts
/// score higher. Categorical properties contribute their shared-value
/// count, numeric properties the tightness of the spanned range, derived
/// properties the (log-damped) minimum association strength of shared
/// values — "SQUID aims to increase the association strength".
pub fn similarity_score(entity: &EntityProps, rows: &[RowId]) -> f64 {
    if rows.len() < 2 {
        return 0.0;
    }
    let mut score = 0.0;
    for prop in &entity.props {
        match &prop.stats {
            PropStats::Categorical(s) => {
                let mut shared = s.codes_of(rows[0]).to_vec();
                for &r in &rows[1..] {
                    retain_in(&mut shared, s.codes_of(r));
                    if shared.is_empty() {
                        break;
                    }
                }
                score += shared.len() as f64;
            }
            PropStats::Numeric(s) => {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                let mut all = true;
                for &r in rows {
                    match s.value_of(r) {
                        Some(x) => {
                            lo = lo.min(x);
                            hi = hi.max(x);
                        }
                        None => {
                            all = false;
                            break;
                        }
                    }
                }
                if all && lo.is_finite() {
                    score += 1.0 - s.coverage_range(lo, hi);
                }
            }
            PropStats::Derived(s) => {
                for &(code, c0) in s.runs_of(rows[0]) {
                    let mut theta = u64::from(c0);
                    let mut shared = true;
                    for &r in &rows[1..] {
                        let c = s.count_of_code(r, code);
                        if c == 0 {
                            shared = false;
                            break;
                        }
                        theta = theta.min(c);
                    }
                    if shared {
                        score += (1.0 + theta as f64).ln();
                    }
                }
            }
            PropStats::DerivedNumeric(_) => {} // skipped for cost
        }
    }
    score
}

/// Resolve each example's candidate rows to a single row per example.
///
/// `candidates[i]` holds the possible entity rows for example `i` (all
/// non-empty). Returns one chosen row per example.
pub fn disambiguate(
    entity: &EntityProps,
    candidates: &[Vec<RowId>],
    params: &SquidParams,
) -> Vec<RowId> {
    debug_assert!(candidates.iter().all(|c| !c.is_empty()));
    let combinations: usize = candidates
        .iter()
        .map(|c| c.len())
        .try_fold(1usize, |acc, k| acc.checked_mul(k))
        .unwrap_or(usize::MAX);
    if combinations == 1 {
        return candidates.iter().map(|c| c[0]).collect();
    }
    if combinations <= params.max_disambiguation_combinations {
        exhaustive(entity, candidates)
    } else {
        greedy(entity, candidates)
    }
}

fn exhaustive(entity: &EntityProps, candidates: &[Vec<RowId>]) -> Vec<RowId> {
    let mut best: Option<(f64, Vec<RowId>)> = None;
    let mut idx = vec![0usize; candidates.len()];
    loop {
        let assignment: Vec<RowId> = idx
            .iter()
            .enumerate()
            .map(|(i, &j)| candidates[i][j])
            .collect();
        let score = similarity_score(entity, &assignment);
        if best.as_ref().is_none_or(|(b, _)| score > *b) {
            best = Some((score, assignment));
        }
        // Advance the mixed-radix counter.
        let mut k = 0;
        loop {
            if k == candidates.len() {
                return best.unwrap().1;
            }
            idx[k] += 1;
            if idx[k] < candidates[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

fn greedy(entity: &EntityProps, candidates: &[Vec<RowId>]) -> Vec<RowId> {
    // Anchor on the unambiguous examples, then resolve the ambiguous ones
    // in order of fewest candidates, each against the current partial set.
    let mut resolved: Vec<Option<RowId>> = candidates
        .iter()
        .map(|c| if c.len() == 1 { Some(c[0]) } else { None })
        .collect();
    let mut order: Vec<usize> = (0..candidates.len())
        .filter(|&i| resolved[i].is_none())
        .collect();
    order.sort_by_key(|&i| candidates[i].len());
    for i in order {
        let mut best: Option<(f64, RowId)> = None;
        for &cand in &candidates[i] {
            let mut rows: Vec<RowId> = resolved.iter().flatten().copied().collect();
            rows.push(cand);
            let score = if rows.len() >= 2 {
                similarity_score(entity, &rows)
            } else {
                0.0
            };
            if best.is_none_or(|(b, _)| score > b) {
                best = Some((score, cand));
            }
        }
        resolved[i] = Some(best.expect("non-empty candidates").1);
    }
    resolved.into_iter().map(|r| r.unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use squid_adb::{test_fixtures, ADb};

    /// Jim Carrey (1) and Eddie Murphy (2) are similar (comedy actors);
    /// Stallone (4) is not like them.
    #[test]
    fn similar_entities_score_higher() {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let e = adb.entity("person").unwrap();
        let jim = e.row_of(1).unwrap();
        let eddie = e.row_of(2).unwrap();
        let sly = e.row_of(4).unwrap();
        let s_alike = similarity_score(e, &[jim, eddie]);
        let s_unalike = similarity_score(e, &[jim, sly]);
        assert!(s_alike > s_unalike, "{s_alike} vs {s_unalike}");
    }

    #[test]
    fn exhaustive_picks_the_coherent_mapping() {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let e = adb.entity("person").unwrap();
        let jim = e.row_of(1).unwrap();
        let eddie = e.row_of(2).unwrap();
        let robin = e.row_of(3).unwrap();
        let sly = e.row_of(4).unwrap();
        // Example 0 is unambiguous (Jim); example 1 could be Eddie or
        // Stallone; example 2 is Robin. The comedy context favors Eddie.
        let chosen = disambiguate(
            e,
            &[vec![jim], vec![sly, eddie], vec![robin]],
            &SquidParams::default(),
        );
        assert_eq!(chosen, vec![jim, eddie, robin]);
    }

    #[test]
    fn unambiguous_input_short_circuits() {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let e = adb.entity("person").unwrap();
        let rows = vec![vec![0], vec![1]];
        assert_eq!(disambiguate(e, &rows, &SquidParams::default()), vec![0, 1]);
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_input() {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let e = adb.entity("person").unwrap();
        let jim = e.row_of(1).unwrap();
        let eddie = e.row_of(2).unwrap();
        let robin = e.row_of(3).unwrap();
        let sly = e.row_of(4).unwrap();
        let candidates = vec![vec![jim], vec![sly, eddie], vec![robin]];
        let ex = exhaustive(e, &candidates);
        let gr = greedy(e, &candidates);
        assert_eq!(ex, gr);
    }

    #[test]
    fn greedy_is_used_beyond_the_combination_budget() {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let e = adb.entity("person").unwrap();
        let params = SquidParams {
            max_disambiguation_combinations: 1, // force greedy
            ..SquidParams::default()
        };
        let jim = e.row_of(1).unwrap();
        let eddie = e.row_of(2).unwrap();
        let sly = e.row_of(4).unwrap();
        let chosen = disambiguate(e, &[vec![jim], vec![sly, eddie]], &params);
        assert_eq!(chosen.len(), 2);
        assert_eq!(chosen[0], jim);
    }
}
