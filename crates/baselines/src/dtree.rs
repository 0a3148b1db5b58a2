//! CART-style binary decision tree with Gini impurity: the classification
//! core of both the TALOS-style QRE baseline and the PU-learning
//! estimators (§7.5–7.6).
//!
//! Splits are `feature == category` (categorical) or `feature <= t`
//! (numeric); missing values follow the negative branch.

use rand::rngs::StdRng;
use rand::Rng;

use crate::features::{FeatureKind, FeatureMatrix, FeatureValue};

/// A split test on one feature.
#[derive(Debug, Clone, PartialEq)]
pub enum Split {
    /// `feature == code` goes left.
    CatEq {
        /// Feature index.
        feature: usize,
        /// Category code.
        code: u32,
    },
    /// `feature <= threshold` goes left.
    NumLe {
        /// Feature index.
        feature: usize,
        /// Threshold.
        threshold: f64,
    },
}

impl Split {
    /// Does a row go left?
    pub fn goes_left(&self, row: &[FeatureValue]) -> bool {
        match self {
            Split::CatEq { feature, code } => {
                matches!(row[*feature], FeatureValue::Cat(c) if c == *code)
            }
            Split::NumLe { feature, threshold } => {
                matches!(row[*feature], FeatureValue::Num(x) if x <= *threshold)
            }
        }
    }
}

/// Tree node.
#[derive(Debug, Clone)]
pub enum Node {
    /// Internal split node.
    Split {
        /// The test.
        split: Split,
        /// Left child (test true).
        left: Box<Node>,
        /// Right child (test false).
        right: Box<Node>,
    },
    /// Leaf with class statistics.
    Leaf {
        /// Number of positive training rows.
        positives: usize,
        /// Total training rows.
        total: usize,
    },
}

/// Training configuration.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum depth.
    pub max_depth: usize,
    /// Minimum rows to attempt a split.
    pub min_samples_split: usize,
    /// If set, consider only `k` random features per split (random forest
    /// mode); `None` considers all.
    pub feature_subsample: Option<usize>,
    /// Maximum numeric thresholds evaluated per feature per split.
    pub max_thresholds: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 24,
            min_samples_split: 2,
            feature_subsample: None,
            max_thresholds: 32,
        }
    }
}

/// A fitted decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
}

fn gini(pos: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let p = pos as f64 / total as f64;
    2.0 * p * (1.0 - p)
}

impl DecisionTree {
    /// Fit on rows (indices into `x`) with boolean labels.
    pub fn fit(
        x: &FeatureMatrix,
        y: &[bool],
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> DecisionTree {
        assert_eq!(x.len(), y.len());
        let idx: Vec<usize> = (0..x.len()).collect();
        DecisionTree {
            root: build(x, y, &idx, config, 0, rng),
        }
    }

    /// Probability that `row` is positive (leaf positive fraction).
    pub fn predict_proba(&self, row: &[FeatureValue]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { positives, total } => {
                    return if *total == 0 {
                        0.0
                    } else {
                        *positives as f64 / *total as f64
                    };
                }
                Node::Split { split, left, right } => {
                    node = if split.goes_left(row) { left } else { right };
                }
            }
        }
    }

    /// Hard prediction at threshold 0.5.
    pub fn predict(&self, row: &[FeatureValue]) -> bool {
        self.predict_proba(row) >= 0.5
    }

    /// Total number of split predicates on paths that reach a
    /// majority-positive leaf — the TALOS "number of predicates" metric.
    pub fn positive_path_predicates(&self) -> usize {
        fn rec(node: &Node, depth: usize) -> usize {
            match node {
                Node::Leaf { positives, total } => {
                    if *total > 0 && *positives * 2 >= *total {
                        depth
                    } else {
                        0
                    }
                }
                Node::Split { left, right, .. } => rec(left, depth + 1) + rec(right, depth + 1),
            }
        }
        rec(&self.root, 0)
    }

    /// Number of leaves (diagnostic).
    pub fn leaf_count(&self) -> usize {
        fn rec(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => rec(left) + rec(right),
            }
        }
        rec(&self.root)
    }
}

fn build(
    x: &FeatureMatrix,
    y: &[bool],
    idx: &[usize],
    config: &TreeConfig,
    depth: usize,
    rng: &mut StdRng,
) -> Node {
    let pos = idx.iter().filter(|&&i| y[i]).count();
    let total = idx.len();
    if depth >= config.max_depth || total < config.min_samples_split || pos == 0 || pos == total {
        return Node::Leaf {
            positives: pos,
            total,
        };
    }
    let parent_gini = gini(pos, total);

    // Candidate features.
    let mut features: Vec<usize> = (0..x.width()).collect();
    if let Some(k) = config.feature_subsample {
        for i in 0..k.min(features.len()) {
            let j = rng.random_range(i..features.len());
            features.swap(i, j);
        }
        features.truncate(k);
    }

    let mut best: Option<(f64, Split)> = None;
    for &f in &features {
        match x.kinds[f] {
            FeatureKind::Categorical => {
                // Evaluate == for each present category, in ascending code
                // order: among equal-gain splits the first one wins, so
                // the visiting order must not depend on a hasher's keys.
                let mut counts: std::collections::BTreeMap<u32, (usize, usize)> =
                    std::collections::BTreeMap::new();
                for &i in idx {
                    if let FeatureValue::Cat(c) = x.rows[i][f] {
                        let e = counts.entry(c).or_insert((0, 0));
                        e.1 += 1;
                        if y[i] {
                            e.0 += 1;
                        }
                    }
                }
                for (&code, &(lpos, ltot)) in &counts {
                    if ltot == 0 || ltot == total {
                        continue;
                    }
                    let rpos = pos - lpos;
                    let rtot = total - ltot;
                    let w = (ltot as f64 * gini(lpos, ltot) + rtot as f64 * gini(rpos, rtot))
                        / total as f64;
                    let gain = parent_gini - w;
                    if gain > 1e-12 && best.as_ref().is_none_or(|(g, _)| gain > *g) {
                        best = Some((gain, Split::CatEq { feature: f, code }));
                    }
                }
            }
            FeatureKind::Numeric => {
                // Gather the feature ONCE into a dense (value, label)
                // slice — the batch-scan shape: threshold evaluation then
                // runs on sorted contiguous data (two binary searches per
                // candidate) instead of re-walking the row-major matrix
                // per threshold. NaN cells are excluded up front: they
                // never satisfy `v <= t` (so they count on neither side,
                // like the per-row loop), and a negative NaN would sort
                // FIRST under total_cmp and break partition_point's
                // monotone-predicate precondition.
                let mut pairs: Vec<(f64, bool)> = idx
                    .iter()
                    .filter_map(|&i| match x.rows[i][f] {
                        FeatureValue::Num(v) if !v.is_nan() => Some((v, y[i])),
                        _ => None,
                    })
                    .collect();
                if pairs.is_empty() {
                    continue;
                }
                pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
                // prefix_pos[k] = positives among the k smallest values.
                let mut prefix_pos = Vec::with_capacity(pairs.len() + 1);
                prefix_pos.push(0usize);
                for &(_, label) in &pairs {
                    prefix_pos.push(prefix_pos.last().unwrap() + label as usize);
                }
                let mut vals: Vec<f64> = pairs.iter().map(|p| p.0).collect();
                vals.dedup();
                let step = (vals.len() / config.max_thresholds).max(1);
                for t in vals.iter().step_by(step) {
                    // Rows with a missing value never satisfy `v <= t`, so
                    // the left side counts only gathered pairs.
                    let ltot = pairs.partition_point(|&(v, _)| v <= *t);
                    let lpos = prefix_pos[ltot];
                    if ltot == 0 || ltot == total {
                        continue;
                    }
                    let rpos = pos - lpos;
                    let rtot = total - ltot;
                    let w = (ltot as f64 * gini(lpos, ltot) + rtot as f64 * gini(rpos, rtot))
                        / total as f64;
                    let gain = parent_gini - w;
                    if gain > 1e-12 && best.as_ref().is_none_or(|(g, _)| gain > *g) {
                        best = Some((
                            gain,
                            Split::NumLe {
                                feature: f,
                                threshold: *t,
                            },
                        ));
                    }
                }
            }
        }
    }

    let Some((_, split)) = best else {
        return Node::Leaf {
            positives: pos,
            total,
        };
    };
    let (mut li, mut ri) = (Vec::new(), Vec::new());
    for &i in idx {
        if split.goes_left(&x.rows[i]) {
            li.push(i);
        } else {
            ri.push(i);
        }
    }
    if li.is_empty() || ri.is_empty() {
        return Node::Leaf {
            positives: pos,
            total,
        };
    }
    Node::Split {
        split,
        left: Box::new(build(x, y, &li, config, depth + 1, rng)),
        right: Box::new(build(x, y, &ri, config, depth + 1, rng)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Tiny matrix: feature 0 categorical (A=0/B=1), feature 1 numeric.
    fn xor_free_matrix() -> (FeatureMatrix, Vec<bool>) {
        let mut m = FeatureMatrix {
            names: vec!["cat".into(), "num".into()],
            kinds: vec![FeatureKind::Categorical, FeatureKind::Numeric],
            vocab: vec![vec!["A".into(), "B".into()], vec![]],
            rows: vec![],
        };
        let mut y = Vec::new();
        for i in 0..40 {
            let cat = if i % 2 == 0 { 0 } else { 1 };
            let num = i as f64;
            m.rows
                .push(vec![FeatureValue::Cat(cat), FeatureValue::Num(num)]);
            // Positive iff cat == A and num <= 19.
            y.push(cat == 0 && num <= 19.0);
        }
        (m, y)
    }

    #[test]
    fn learns_a_separable_concept() {
        let (x, y) = xor_free_matrix();
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&x, &y, &TreeConfig::default(), &mut rng);
        for (i, row) in x.rows.iter().enumerate() {
            assert_eq!(tree.predict(row), y[i], "row {i}");
        }
    }

    #[test]
    fn pure_leaves_for_separable_data() {
        let (x, y) = xor_free_matrix();
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&x, &y, &TreeConfig::default(), &mut rng);
        assert!(tree.positive_path_predicates() >= 2);
        assert!(tree.leaf_count() >= 2);
    }

    #[test]
    fn depth_limit_produces_impure_leaves() {
        let (x, y) = xor_free_matrix();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = TreeConfig {
            max_depth: 0,
            ..Default::default()
        };
        let tree = DecisionTree::fit(&x, &y, &cfg, &mut rng);
        assert_eq!(tree.leaf_count(), 1);
        let p = tree.predict_proba(&x.rows[0]);
        assert!(p > 0.0 && p < 1.0);
    }

    #[test]
    fn nan_cells_are_counted_on_neither_side() {
        // Negative NaN sorts FIRST under total_cmp; it must not corrupt
        // the sorted-prefix threshold counting (it goes right, like the
        // per-row `v <= t` check always decided).
        let mut m = FeatureMatrix {
            names: vec!["num".into()],
            kinds: vec![FeatureKind::Numeric],
            vocab: vec![vec![]],
            rows: vec![],
        };
        let mut y = Vec::new();
        m.rows.push(vec![FeatureValue::Num(-f64::NAN)]);
        y.push(false);
        m.rows.push(vec![FeatureValue::Num(f64::NAN)]);
        y.push(false);
        for i in 0..20 {
            m.rows.push(vec![FeatureValue::Num(i as f64)]);
            y.push(i < 10);
        }
        let mut rng = StdRng::seed_from_u64(3);
        let tree = DecisionTree::fit(&m, &y, &TreeConfig::default(), &mut rng);
        for i in 0..20 {
            assert_eq!(
                tree.predict(&[FeatureValue::Num(i as f64)]),
                i < 10,
                "value {i}"
            );
        }
        // NaN rows fail every `v <= t` test and land in a right leaf.
        assert!(!tree.predict(&[FeatureValue::Num(f64::NAN)]));
        assert!(!tree.predict(&[FeatureValue::Num(-f64::NAN)]));
    }

    #[test]
    fn missing_values_go_right() {
        let (x, y) = xor_free_matrix();
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&x, &y, &TreeConfig::default(), &mut rng);
        // An all-missing row must still classify (follows right branches).
        let p = tree.predict_proba(&[FeatureValue::Missing, FeatureValue::Missing]);
        assert!((0.0..=1.0).contains(&p));
    }

    /// Equal-gain categorical splits: category 0 is all positive and
    /// category 1 all negative, so `== 0` and `== 1` score exactly the same
    /// gain, and at depth 1 the one chosen decides every prediction.
    /// Refitting the same data must pick the same one every time.
    #[test]
    fn tied_categorical_splits_fit_identically_every_time() {
        let mut m = FeatureMatrix {
            names: vec!["cat".into()],
            kinds: vec![FeatureKind::Categorical],
            vocab: vec![vec!["A".into(), "B".into(), "C".into()]],
            rows: vec![],
        };
        let mut y = Vec::new();
        for (cat, label) in [
            (0, true),
            (0, true),
            (1, false),
            (1, false),
            (2, true),
            (2, false),
        ] {
            m.rows.push(vec![FeatureValue::Cat(cat)]);
            y.push(label);
        }
        let cfg = TreeConfig {
            max_depth: 1,
            ..Default::default()
        };
        let fit = || {
            let tree = DecisionTree::fit(&m, &y, &cfg, &mut StdRng::seed_from_u64(1));
            (0..3)
                .map(|c| tree.predict_proba(&[FeatureValue::Cat(c)]))
                .collect::<Vec<f64>>()
        };
        let first = fit();
        // Splitting on the lowest code: category 0 goes left, alone.
        assert_eq!(first, vec![1.0, 0.25, 0.25]);
        for _ in 0..32 {
            assert_eq!(fit(), first);
        }
    }

    #[test]
    fn feature_subsampling_still_learns_something() {
        let (x, y) = xor_free_matrix();
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = TreeConfig {
            feature_subsample: Some(1),
            ..Default::default()
        };
        let tree = DecisionTree::fit(&x, &y, &cfg, &mut rng);
        let correct = x
            .rows
            .iter()
            .enumerate()
            .filter(|(i, row)| tree.predict(row) == y[*i])
            .count();
        assert!(correct > x.len() / 2, "{correct}/{}", x.len());
    }
}
