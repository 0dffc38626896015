//! Structure-of-arrays flattened trees for the batch-vectorized filter
//! hot path.
//!
//! A [`FlatTree`] is a read-only, cache-friendly re-layout of an already
//! trained tree classifier: all per-node fields live in parallel arrays
//! (structure of arrays, not an array of node structs), siblings occupy
//! **contiguous** ids, and every node carries a precomputed
//! Laplace-smoothed class-probability row in one shared arena. The
//! layout buys three things on the serving hot path:
//!
//! * **Branchless numeric descent** — a numeric split's children are
//!   adjacent (`left = first_child`, `right = first_child + 1`), so one
//!   step is `id = first_child + (x > threshold)`: a comparison turned
//!   into an index, no data-dependent branch for the predictor to miss.
//! * **No pointer chasing** — the arrays are flat `Vec`s indexed by node
//!   id; a whole small tree fits in a few cache lines.
//! * **Zero-cost probability rows** — `M_c(l|x)` (the per-concept class
//!   distribution of paper Eq. 10) is a slice borrow from the proba
//!   arena instead of a per-call Laplace computation.
//!
//! Flattening is **exact**: for every input `x`, [`FlatTree::predict`]
//! and [`FlatTree::predict_proba`] return bit-identical results to the
//! source classifier, including its fallback behavior on category codes
//! the training data never produced a branch for. The precomputed rows
//! are built with the same `(count + 1) / (n + k)` expression the source
//! evaluates per call, so the f64 bits match exactly.
//!
//! Classifiers opt in through [`Classifier::flatten`]
//! (`hom-core`'s `CompiledModel` falls back to dynamic dispatch for
//! classifiers that return `None`, e.g. naive Bayes).

use hom_data::codec::{Reader, Writer};
use hom_data::ClassId;

use crate::api::Classifier;
use crate::decision_tree::{DecisionTree, NodeKind};
use crate::wire::ClassifierWireError;

/// Discriminant of one flattened node. `u8`-sized so the kind array
/// stays dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum FlatKind {
    /// Terminal node: descent stops here.
    Leaf,
    /// Binary numeric split: `x[attr] <= threshold` goes to
    /// `first_child`, otherwise to `first_child + 1`.
    Num,
    /// Multiway categorical split: category `v` goes to
    /// `first_child + v`; codes outside `0..n_children` (or fractional
    /// or negative values) stop at this node, exactly like the source
    /// tree's dead-end fallback.
    Cat,
}

/// A trained tree re-laid out as structure-of-arrays for batch
/// evaluation (see the [module docs](self) for the layout rationale).
///
/// Node ids index the parallel arrays; the root is id 0 and the
/// children of any node are contiguous. Build one with
/// [`Classifier::flatten`] on a supported classifier, or
/// [`FlatTree::leaf`] for a constant model.
#[derive(Debug, Clone)]
pub struct FlatTree {
    n_classes: usize,
    /// Node discriminants.
    kind: Vec<FlatKind>,
    /// Split attribute per node (unused for leaves).
    attr: Vec<u32>,
    /// Numeric split threshold per node (unused otherwise).
    threshold: Vec<f64>,
    /// First child id per node; numeric right child is `first_child + 1`,
    /// categorical child for code `v` is `first_child + v`.
    first_child: Vec<u32>,
    /// Categorical arity per node (unused otherwise).
    n_children: Vec<u32>,
    /// Majority class per node (the [`FlatTree::predict`] answer).
    majority: Vec<ClassId>,
    /// Laplace-smoothed class rows, `n_classes` per node, one arena:
    /// node `i`'s row is `proba[i * n_classes .. (i + 1) * n_classes]`.
    proba: Vec<f64>,
}

impl FlatTree {
    /// A single-leaf tree: the flattened form of a constant classifier.
    /// `proba.len()` fixes the class count.
    pub fn leaf(majority: ClassId, proba: Vec<f64>) -> Self {
        FlatTree {
            n_classes: proba.len(),
            kind: vec![FlatKind::Leaf],
            attr: vec![0],
            threshold: vec![0.0],
            first_child: vec![0],
            n_children: vec![0],
            majority: vec![majority],
            proba,
        }
    }

    /// Number of reachable nodes in the flattened tree.
    pub fn n_nodes(&self) -> usize {
        self.kind.len()
    }

    /// Walk from the root to the node that decides `x` — a leaf, or the
    /// interior node whose categorical branch `x` falls off of. The
    /// returned id keys [`FlatTree::node_class`] and
    /// [`FlatTree::proba_row`], which is how the batch kernel reads one
    /// descent twice (prediction class for ψ, probability row for
    /// Eq. 10) without re-walking the tree.
    #[inline]
    pub fn descend(&self, x: &[f64]) -> u32 {
        let mut id = 0usize;
        loop {
            match self.kind[id] {
                FlatKind::Leaf => return id as u32,
                FlatKind::Num => {
                    let v = x[self.attr[id] as usize];
                    // `!(v <= t)` (not `v > t`) so NaN routes exactly like
                    // the source tree's `if v <= t { left } else { right }`.
                    #[allow(clippy::neg_cmp_op_on_partial_ord)]
                    let right = u32::from(!(v <= self.threshold[id]));
                    id = (self.first_child[id] + right) as usize;
                }
                FlatKind::Cat => {
                    let v = x[self.attr[id] as usize];
                    let vi = v as usize;
                    if v.fract() != 0.0 || v < 0.0 || vi >= self.n_children[id] as usize {
                        return id as u32;
                    }
                    id = self.first_child[id] as usize + vi;
                }
            }
        }
    }

    /// The class the node at `id` predicts (its training majority).
    #[inline]
    pub fn node_class(&self, id: u32) -> ClassId {
        self.majority[id as usize]
    }

    /// The precomputed Laplace-smoothed class row of the node at `id` —
    /// bit-identical to what the source classifier's `predict_proba`
    /// computes for any `x` that descends to this node.
    #[inline]
    pub fn proba_row(&self, id: u32) -> &[f64] {
        let at = id as usize * self.n_classes;
        &self.proba[at..at + self.n_classes]
    }

    /// Append this tree's wire payload to `w` (the tag byte is the
    /// caller's job — see [`crate::wire`]): class count, node count,
    /// then the parallel arrays in declaration order. All integers are
    /// little-endian; f64s are raw bits, so the decoded tree's
    /// probability rows are bit-identical to this one's.
    pub fn wire_encode_into(&self, w: &mut Writer<'_>) {
        w.put_u32(self.n_classes as u32);
        w.put_u32(self.n_nodes() as u32);
        for &k in &self.kind {
            w.put_u8(k as u8);
        }
        for &a in &self.attr {
            w.put_u32(a);
        }
        for &t in &self.threshold {
            w.put_f64(t);
        }
        for words in [&self.first_child, &self.n_children, &self.majority] {
            for &v in words {
                w.put_u32(v);
            }
        }
        for &p in &self.proba {
            w.put_f64(p);
        }
    }

    /// Decode a wire payload written by [`Self::wire_encode_into`] from
    /// `r`. Validates the structure exhaustively — class count against
    /// `n_classes`, split attributes against `n_attrs`, and
    /// **forward-only child edges** (`first_child > id`, children in
    /// range) so [`Self::descend`] provably terminates on any input —
    /// and returns a typed error on anything malformed: corrupt bytes
    /// must never panic (or hang) a serving node.
    pub fn wire_decode(
        r: &mut Reader<'_>,
        n_attrs: usize,
        n_classes: usize,
    ) -> Result<Self, ClassifierWireError> {
        let k = r.take_u32()? as usize;
        if k != n_classes {
            return Err(ClassifierWireError::Corrupt("class count mismatch"));
        }
        // A node is its kind byte, four u32 fields, a threshold and a
        // probability row.
        let n_nodes = r.count(1 + 4 * 4 + 8 + 8 * n_classes)?;
        if n_nodes == 0 {
            return Err(ClassifierWireError::Corrupt("empty tree"));
        }
        let kind = (0..n_nodes)
            .map(|_| match r.take_u8()? {
                0 => Ok(FlatKind::Leaf),
                1 => Ok(FlatKind::Num),
                2 => Ok(FlatKind::Cat),
                _ => Err(ClassifierWireError::Corrupt("unknown node kind")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let u32s = |r: &mut Reader<'_>| {
            (0..n_nodes)
                .map(|_| r.take_u32())
                .collect::<Result<Vec<_>, _>>()
        };
        let f64s =
            |r: &mut Reader<'_>, n| (0..n).map(|_| r.take_f64()).collect::<Result<Vec<_>, _>>();
        let attr = u32s(r)?;
        let threshold = f64s(r, n_nodes)?;
        let first_child = u32s(r)?;
        let n_children = u32s(r)?;
        let majority = u32s(r)?;
        let proba = f64s(r, n_nodes * n_classes)?;
        for id in 0..n_nodes {
            let fc = first_child[id] as usize;
            match kind[id] {
                FlatKind::Leaf => {}
                FlatKind::Num => {
                    if attr[id] as usize >= n_attrs {
                        return Err(ClassifierWireError::Corrupt("split attribute out of range"));
                    }
                    if fc <= id || fc + 2 > n_nodes {
                        return Err(ClassifierWireError::Corrupt(
                            "numeric children out of range",
                        ));
                    }
                }
                FlatKind::Cat => {
                    if attr[id] as usize >= n_attrs {
                        return Err(ClassifierWireError::Corrupt("split attribute out of range"));
                    }
                    let arity = n_children[id] as usize;
                    if arity == 0 {
                        return Err(ClassifierWireError::Corrupt(
                            "categorical split with no children",
                        ));
                    }
                    if fc <= id || arity > n_nodes || fc > n_nodes - arity {
                        return Err(ClassifierWireError::Corrupt(
                            "categorical children out of range",
                        ));
                    }
                }
            }
            if majority[id] as usize >= n_classes {
                return Err(ClassifierWireError::Corrupt("majority class out of range"));
            }
        }
        Ok(FlatTree {
            n_classes,
            kind,
            attr,
            threshold,
            first_child,
            n_children,
            majority,
            proba,
        })
    }

    /// Flatten a [`DecisionTree`] (BFS renumbering, so siblings are
    /// contiguous). Unreachable arena nodes left behind by pruning are
    /// dropped.
    pub(crate) fn from_decision_tree(t: &DecisionTree) -> Self {
        let n_classes = t.n_classes;
        let k = n_classes as f64;
        let mut flat = FlatTree {
            n_classes,
            kind: Vec::new(),
            attr: Vec::new(),
            threshold: Vec::new(),
            first_child: Vec::new(),
            n_children: Vec::new(),
            majority: Vec::new(),
            proba: Vec::new(),
        };
        // BFS over old ids; the queue position of an old id is its new id,
        // so all children pushed together end up contiguous.
        let mut queue: Vec<u32> = vec![0];
        let mut head = 0usize;
        while head < queue.len() {
            let node = &t.nodes[queue[head] as usize];
            head += 1;
            match &node.kind {
                NodeKind::Leaf => {
                    flat.kind.push(FlatKind::Leaf);
                    flat.attr.push(0);
                    flat.threshold.push(0.0);
                    flat.first_child.push(0);
                    flat.n_children.push(0);
                }
                NodeKind::Num {
                    attr,
                    threshold,
                    left,
                    right,
                } => {
                    flat.kind.push(FlatKind::Num);
                    flat.attr.push(*attr);
                    flat.threshold.push(*threshold);
                    flat.first_child.push(queue.len() as u32);
                    flat.n_children.push(0);
                    queue.push(*left);
                    queue.push(*right);
                }
                NodeKind::Cat { attr, children } => {
                    flat.kind.push(FlatKind::Cat);
                    flat.attr.push(*attr);
                    flat.threshold.push(0.0);
                    flat.first_child.push(queue.len() as u32);
                    flat.n_children.push(children.len() as u32);
                    queue.extend(children.iter().copied());
                }
            }
            flat.majority.push(node.majority);
            // Same expression as `DecisionTree::predict_proba`, evaluated
            // once per node instead of once per call: bit-identical rows.
            debug_assert_eq!(node.counts.len(), n_classes);
            let n = node.n() as f64;
            flat.proba
                .extend(node.counts.iter().map(|&c| (c as f64 + 1.0) / (n + k)));
        }
        flat
    }
}

impl Classifier for FlatTree {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict(&self, x: &[f64]) -> ClassId {
        self.node_class(self.descend(x))
    }

    fn predict_proba(&self, x: &[f64], out: &mut [f64]) {
        out.copy_from_slice(self.proba_row(self.descend(x)));
    }

    fn complexity(&self) -> usize {
        self.n_nodes()
    }

    fn flatten(&self) -> Option<FlatTree> {
        Some(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision_tree::DecisionTreeLearner;
    use crate::majority::MajorityClassifier;
    use hom_data::{Attribute, Dataset, Schema};

    fn bits(p: &[f64]) -> Vec<u64> {
        p.iter().map(|v| v.to_bits()).collect()
    }

    /// Every probe must agree with the source tree to the bit — class
    /// and probability row alike.
    fn assert_flat_matches(t: &DecisionTree, probes: &[Vec<f64>]) {
        let flat = t.flatten().expect("decision trees flatten");
        assert!(flat.n_nodes() <= t.n_nodes());
        let k = t.n_classes();
        let mut want = vec![0.0; k];
        let mut got = vec![0.0; k];
        for x in probes {
            assert_eq!(flat.predict(x), t.predict(x), "class diverged on {x:?}");
            t.predict_proba(x, &mut want);
            flat.predict_proba(x, &mut got);
            assert_eq!(bits(&got), bits(&want), "proba diverged on {x:?}");
        }
    }

    #[test]
    fn numeric_tree_flattens_exactly() {
        let schema = Schema::new(
            vec![Attribute::numeric("x"), Attribute::numeric("y")],
            ["lo", "hi"],
        );
        let mut d = Dataset::new(schema);
        for i in 0..200 {
            let x = (i % 20) as f64 / 20.0;
            let y = (i % 7) as f64;
            d.push(&[x, y], u32::from(x > 0.6 || y > 5.0));
        }
        let t = DecisionTreeLearner::new().fit_tree(&d);
        let probes: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![i as f64 / 99.0, (i % 9) as f64])
            .collect();
        assert_flat_matches(&t, &probes);
    }

    #[test]
    fn categorical_tree_flattens_exactly_including_fallbacks() {
        let schema = Schema::new(
            vec![
                Attribute::categorical("a", ["p", "q", "r"]),
                Attribute::categorical("b", ["s", "t"]),
            ],
            ["neg", "pos"],
        );
        let mut d = Dataset::new(schema);
        for _rep in 0..6 {
            for a in 0..2 {
                for b in 0..2 {
                    d.push(&[a as f64, b as f64], u32::from(a == 1 && b == 1));
                }
            }
        }
        let t = DecisionTreeLearner::unpruned().fit_tree(&d);
        // Valid codes, the never-trained code 2, out-of-range, fractional
        // and negative values: all must take the same fallback path.
        let probes: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![2.0, 0.0],
            vec![5.0, 1.0],
            vec![0.5, 0.0],
            vec![-1.0, 1.0],
            vec![0.0, -3.5],
        ];
        assert_flat_matches(&t, &probes);
    }

    #[test]
    fn mixed_tree_flattens_exactly() {
        let schema = Schema::new(
            vec![
                Attribute::categorical("c", ["p", "q"]),
                Attribute::numeric("x"),
            ],
            ["neg", "pos"],
        );
        let mut d = Dataset::new(schema);
        for i in 0..80 {
            let x = (i % 10) as f64 / 10.0;
            let c = f64::from(i % 2 == 0);
            d.push(&[c, x], u32::from(c == 1.0 && x > 0.5));
        }
        let t = DecisionTreeLearner::new().fit_tree(&d);
        let probes: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 3) as f64, i as f64 / 40.0])
            .collect();
        assert_flat_matches(&t, &probes);
    }

    #[test]
    fn majority_flattens_to_single_leaf() {
        let m = MajorityClassifier::from_counts(&[3, 7, 2]);
        let flat = m.flatten().expect("majority flattens");
        assert_eq!(flat.n_nodes(), 1);
        for x in [vec![], vec![1.0, 2.0]] {
            assert_eq!(flat.predict(&x), m.predict(&x));
            let mut want = [0.0; 3];
            let mut got = [0.0; 3];
            m.predict_proba(&x, &mut want);
            flat.predict_proba(&x, &mut got);
            assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn flat_tree_reflattens_to_itself() {
        let m = MajorityClassifier::from_counts(&[1, 4]);
        let flat = m.flatten().unwrap();
        let again = flat.flatten().unwrap();
        assert_eq!(again.n_nodes(), flat.n_nodes());
        assert_eq!(again.predict(&[0.0]), flat.predict(&[0.0]));
    }

    #[test]
    fn nan_routes_like_source_tree() {
        let schema = Schema::new(vec![Attribute::numeric("x")], ["a", "b"]);
        let mut d = Dataset::new(schema);
        for i in 0..60 {
            d.push(&[i as f64], u32::from(i >= 30));
        }
        let t = DecisionTreeLearner::new().fit_tree(&d);
        assert_flat_matches(&t, &[vec![f64::NAN]]);
    }
}
