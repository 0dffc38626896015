//! Flattened trees for the batch filter hot path: one array of node
//! structs, descended eight records at a time.
//!
//! A [`FlatTree`] is a read-only re-layout of an already trained tree
//! classifier. Its nodes live in one `Vec` of small fixed-size structs
//! (threshold, split attribute, categorical arity and two child ids),
//! siblings occupy **contiguous** ids, and every node carries a
//! precomputed Laplace-smoothed class-probability row in one shared
//! arena. Every node kind advances by the same **step** — a function
//! from a node id and a record to the next node id:
//!
//! * **Numeric split** — the children are adjacent, `child = [first,
//!   first + 1]`, and the step is `child[!(x[attr] <= threshold)]`: a
//!   comparison turned into an index, no data-dependent branch.
//! * **Leaf** — `child = [id, id]`, so whichever way the comparison goes
//!   the step returns `id`: a leaf is a **fixed point** of the step and
//!   needs no test of its own. It never needs `x` either (a constant
//!   model accepts an empty record).
//! * **Categorical split** (`arity > 0`) — a code `v` that is an exact
//!   integer in `0..arity` steps to `child[0] + v`; any other value
//!   (fractional, negative, out of range, NaN, ±∞) stays at `child[1] =
//!   id`, so the split node is the fixed point, exactly like the source
//!   tree's dead-end fallback.
//!
//! Child edges only point forward, so a walk either reaches its fixed
//! point or moves to a larger id: [`FlatTree::descend`] iterates the
//! step until the id stops moving. [`FlatTree::descend_lanes`] runs the
//! same step over [`LANES`] records in **lockstep** until no lane moves.
//! The lanes are independent, so the out-of-order core overlaps their
//! load → compare → index chains, where one record at a time waits on
//! each level's load before it can issue the next. A lane that finished
//! early keeps stepping on its fixed point, which costs a few
//! instructions and changes nothing.
//!
//! `M_c(l|x)` (the per-concept class distribution of paper Eq. 10) is a
//! slice borrow from the probability arena instead of a per-call Laplace
//! computation.
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

/// How many records [`FlatTree::descend_lanes`] walks in lockstep.
pub const LANES: usize = 8;

/// Wire discriminant of a leaf (see [`FlatTree::wire_encode_into`]).
const KIND_LEAF: u8 = 0;
/// Wire discriminant of a binary numeric split.
const KIND_NUM: u8 = 1;
/// Wire discriminant of a multiway categorical split.
const KIND_CAT: u8 = 2;

/// One flattened node; its kind is implied by `arity` and `child` (see
/// the [module docs](self)).
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Numeric split threshold: `x[attr] <= threshold` steps to
    /// `child[0]`, anything else (NaN included) to `child[1]`.
    threshold: f64,
    /// Split attribute. A leaf may carry any value: the step never
    /// depends on what it reads there.
    attr: u32,
    /// Categorical arity; 0 for numeric splits and leaves.
    arity: u32,
    /// Numeric split: `[first, first + 1]`. Leaf: `[id, id]`.
    /// Categorical split: `[first, id]`, code `v` steps to `first + v`.
    child: [u32; 2],
}

impl Node {
    /// Wire discriminant: categorical splits have an arity, and only a
    /// leaf's first child is itself (split children are forward edges).
    fn kind(&self, id: u32) -> u8 {
        if self.arity > 0 {
            KIND_CAT
        } else if self.child[0] == id {
            KIND_LEAF
        } else {
            KIND_NUM
        }
    }

    /// A terminal node: every step from `id` returns `id`.
    fn leaf(id: u32) -> Self {
        Node {
            threshold: 0.0,
            attr: 0,
            arity: 0,
            child: [id, id],
        }
    }
}

/// A trained tree re-laid out as one node array for batch evaluation
/// (see the [module docs](self) for the layout rationale).
///
/// Node ids index the node array; the root is id 0 and the children of
/// any node are contiguous. Build one with [`Classifier::flatten`] on a
/// supported classifier, or [`FlatTree::leaf`] for a constant model.
#[derive(Debug, Clone)]
pub struct FlatTree {
    n_classes: usize,
    /// The nodes, root first.
    nodes: Vec<Node>,
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
            nodes: vec![Node::leaf(0)],
            majority: vec![majority],
            proba,
        }
    }

    /// Number of reachable nodes in the flattened tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// One step of every descent: the node `x` moves to from `id` (see
    /// the [module docs](self)). Returns `id` itself exactly when the
    /// walk is over.
    #[inline(always)]
    fn step(&self, id: u32, x: &[f64]) -> u32 {
        let node = &self.nodes[id as usize];
        let Some(&v) = x.get(node.attr as usize) else {
            // Only a leaf may index past the record, since it never uses
            // the value; a split on a missing attribute is a caller bug.
            assert_eq!(
                node.child[0],
                id,
                "record of {} attributes has no split attribute {}",
                x.len(),
                node.attr
            );
            return id;
        };
        if node.arity == 0 {
            // Numeric split or leaf. `!(v <= t)` (not `v > t`) so NaN
            // routes exactly like the source tree's `if v <= t { left }
            // else { right }`.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let right = !(v <= node.threshold);
            node.child[usize::from(right)]
        } else {
            // `v` is an exact integer in `0..arity` iff its saturating
            // cast converts back to `v` and is in range: the source
            // tree's `fract() == 0 && v >= 0 && (v as usize) < arity`
            // without the libm `trunc` behind `fract` (NaN casts to 0
            // and ±∞ saturate, and neither converts back; −0.0 is code
            // 0 in both).
            let code = v as u32;
            if f64::from(code) == v && code < node.arity {
                node.child[0] + code
            } else {
                node.child[1]
            }
        }
    }

    /// Walk from the root to the node that decides `x` — a leaf, or the
    /// interior node whose categorical branch `x` falls off of. The
    /// returned id keys [`FlatTree::node_class`] and
    /// [`FlatTree::proba_row`], so one descent serves twice (prediction
    /// class for ψ, probability row for Eq. 10) without re-walking the
    /// tree.
    #[inline]
    pub fn descend(&self, x: &[f64]) -> u32 {
        let mut id = 0;
        loop {
            let next = self.step(id, x);
            if next == id {
                return id;
            }
            id = next;
        }
    }

    /// [`Self::descend`] for [`LANES`] records at once: the same step,
    /// applied to every lane per pass, until no lane moves. Lane `i` of
    /// the result is exactly `self.descend(xs[i])`.
    #[inline]
    pub fn descend_lanes(&self, xs: &[&[f64]; LANES]) -> [u32; LANES] {
        let mut ids = [0u32; LANES];
        loop {
            let mut moved = false;
            for (id, x) in ids.iter_mut().zip(xs) {
                let next = self.step(*id, x);
                moved |= next != *id;
                *id = next;
            }
            if !moved {
                return ids;
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
    /// then one array per node field — kind byte, split attribute,
    /// threshold, first child, categorical arity, majority class — and
    /// the probability rows. All integers are little-endian; f64s are
    /// raw bits, so the decoded tree's probability rows are
    /// bit-identical to this one's. A leaf's first child and a
    /// non-categorical node's arity are written as 0.
    pub fn wire_encode_into(&self, w: &mut Writer<'_>) {
        w.put_u32(self.n_classes as u32);
        w.put_u32(self.n_nodes() as u32);
        let ids = || (0u32..).zip(&self.nodes);
        for (id, node) in ids() {
            w.put_u8(node.kind(id));
        }
        for node in &self.nodes {
            w.put_u32(node.attr);
        }
        for node in &self.nodes {
            w.put_f64(node.threshold);
        }
        for (id, node) in ids() {
            w.put_u32(if node.kind(id) == KIND_LEAF {
                0
            } else {
                node.child[0]
            });
        }
        for node in &self.nodes {
            w.put_u32(node.arity);
        }
        for &m in &self.majority {
            w.put_u32(m);
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
    /// must never panic (or hang) a serving node. The fields a node's
    /// kind does not use are not checked; a leaf's first child and a
    /// numeric split's arity are dropped.
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
                k @ (KIND_LEAF | KIND_NUM | KIND_CAT) => Ok(k),
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
        let mut nodes = Vec::with_capacity(n_nodes);
        for id in 0..n_nodes {
            let (fc, at) = (first_child[id], id as u32);
            if kind[id] != KIND_LEAF && attr[id] as usize >= n_attrs {
                return Err(ClassifierWireError::Corrupt("split attribute out of range"));
            }
            let (arity, child) = match kind[id] {
                KIND_LEAF => (0, [at, at]),
                KIND_NUM => {
                    if fc <= at || fc as usize + 2 > n_nodes {
                        return Err(ClassifierWireError::Corrupt(
                            "numeric children out of range",
                        ));
                    }
                    (0, [fc, fc + 1])
                }
                _ => {
                    let arity = n_children[id] as usize;
                    if arity == 0 {
                        return Err(ClassifierWireError::Corrupt(
                            "categorical split with no children",
                        ));
                    }
                    if fc <= at || arity > n_nodes || fc as usize > n_nodes - arity {
                        return Err(ClassifierWireError::Corrupt(
                            "categorical children out of range",
                        ));
                    }
                    (n_children[id], [fc, at])
                }
            };
            if majority[id] as usize >= n_classes {
                return Err(ClassifierWireError::Corrupt("majority class out of range"));
            }
            nodes.push(Node {
                threshold: threshold[id],
                attr: attr[id],
                arity,
                child,
            });
        }
        Ok(FlatTree {
            n_classes,
            nodes,
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
            nodes: Vec::new(),
            majority: Vec::new(),
            proba: Vec::new(),
        };
        // BFS over old ids; the queue position of an old id is its new id,
        // so all children pushed together end up contiguous.
        let mut queue: Vec<u32> = vec![0];
        let mut head = 0usize;
        while head < queue.len() {
            let id = head as u32;
            let node = &t.nodes[queue[head] as usize];
            head += 1;
            let first = queue.len() as u32;
            flat.nodes.push(match &node.kind {
                NodeKind::Leaf => Node::leaf(id),
                NodeKind::Num {
                    attr,
                    threshold,
                    left,
                    right,
                } => {
                    queue.push(*left);
                    queue.push(*right);
                    Node {
                        threshold: *threshold,
                        attr: *attr,
                        arity: 0,
                        child: [first, first + 1],
                    }
                }
                NodeKind::Cat { attr, children } => {
                    queue.extend(children.iter().copied());
                    Node {
                        threshold: 0.0,
                        attr: *attr,
                        arity: children.len() as u32,
                        child: [first, id],
                    }
                }
            });
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
    /// and probability row alike — through [`FlatTree::descend`] and
    /// through the lockstep descent.
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
        assert_lockstep_matches(t, &flat, probes);
    }

    /// Descend `xs` as the batch kernel does: [`LANES`] records per
    /// pass, a short last pass padded with its own last record.
    fn lockstep(flat: &FlatTree, xs: &[&[f64]]) -> Vec<u32> {
        xs.chunks(LANES)
            .flat_map(|chunk| {
                let last = chunk.len() - 1;
                let ids = flat.descend_lanes(&std::array::from_fn(|i| chunk[i.min(last)]));
                ids[..chunk.len()].to_vec()
            })
            .collect()
    }

    /// Batches of 1..=17 probes (every rotation of the probe list, so
    /// each probe meets every lane and every neighbour) must reach nodes
    /// whose class and probability row match the source tree's answer
    /// for that probe, to the bit.
    fn assert_lockstep_matches(t: &DecisionTree, flat: &FlatTree, probes: &[Vec<f64>]) {
        let mut want = vec![0.0; t.n_classes()];
        for n in 1..=17 {
            for start in 0..probes.len() {
                let xs: Vec<&[f64]> = (0..n)
                    .map(|i| probes[(start + i) % probes.len()].as_slice())
                    .collect();
                for (x, id) in xs.iter().zip(lockstep(flat, &xs)) {
                    assert_eq!(flat.node_class(id), t.predict(x), "class diverged on {x:?}");
                    t.predict_proba(x, &mut want);
                    assert_eq!(
                        bits(flat.proba_row(id)),
                        bits(&want),
                        "row diverged on {x:?}"
                    );
                }
            }
        }
    }

    /// A chain of `groups - 1` splits: group `g` is the records whose
    /// indicator attribute `g` is 1 (categorical for even `g`, numeric
    /// for odd), each group its own class, so each split peels one group
    /// off and a record with every indicator 0 walks the whole chain.
    fn chain_tree(groups: usize) -> DecisionTree {
        let attrs = (0..groups)
            .map(|g| {
                if g % 2 == 0 {
                    Attribute::categorical(format!("c{g}"), ["no", "yes"])
                } else {
                    Attribute::numeric(format!("x{g}"))
                }
            })
            .collect();
        let classes = (0..groups).map(|g| format!("k{g}"));
        let mut d = Dataset::new(Schema::new(attrs, classes));
        for g in 0..groups {
            let mut x = vec![0.0; groups];
            x[g] = 1.0;
            for _ in 0..3 {
                d.push(&x, g as u32);
            }
        }
        DecisionTreeLearner::unpruned().fit_tree(&d)
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
        let empty: &[f64] = &[];
        assert_eq!(flat.descend_lanes(&[empty; LANES]), [0; LANES]);
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
    fn lockstep_mixes_a_deep_path_with_shallow_ones() {
        let t = chain_tree(44);
        assert!(t.depth() >= 40, "chain depth {}", t.depth());
        let deep = vec![0.0; 44];
        let mut probes = vec![deep.clone()];
        for g in [0, 1, 2, 5, 43] {
            let mut x = deep.clone();
            x[g] = 1.0;
            probes.push(x);
        }
        // Codes that stop the walk part-way down: fractional, negative,
        // out of range and NaN on categorical indicators, ±∞ and −0.0 on
        // numeric ones.
        for (g, v) in [
            (20, 0.5),
            (30, -1.0),
            (10, 2.0),
            (40, f64::NAN),
            (21, f64::INFINITY),
            (31, f64::NEG_INFINITY),
            (41, -0.0),
            (0, -0.0),
        ] {
            let mut x = deep.clone();
            x[g] = v;
            probes.push(x);
        }
        assert_flat_matches(&t, &probes);
        let flat = t.flatten().unwrap();
        let depth = |x: &[f64]| {
            let mut at = 0;
            std::iter::from_fn(|| {
                let next = flat.step(at, x);
                (next != at).then(|| at = next)
            })
            .count()
        };
        // The first lockstep pass holds the whole chain and a one-step
        // walk (the group the root peels off) side by side.
        let depths: Vec<usize> = probes[..LANES].iter().map(|x| depth(x)).collect();
        assert!(
            depths[0] >= 40,
            "the all-zero record walks the chain: {depths:?}"
        );
        assert!(
            depths.contains(&1),
            "no one-step walk beside it: {depths:?}"
        );
    }

    #[test]
    fn weird_values_descend_like_source_tree() {
        let schema = Schema::new(
            vec![
                Attribute::categorical("c", ["p", "q", "r"]),
                Attribute::numeric("x"),
            ],
            ["neg", "pos"],
        );
        let mut d = Dataset::new(schema);
        for i in 0..120 {
            let c = (i % 3) as f64;
            let x = (i % 11) as f64 - 5.0;
            d.push(&[c, x], u32::from((c == 1.0) ^ (x > 0.0)));
        }
        let t = DecisionTreeLearner::unpruned().fit_tree(&d);
        let weird = [
            0.0,
            -0.0,
            1.0,
            2.0,
            3.0,
            0.5,
            -0.5,
            -1.0,
            1e-300,
            4294967296.0,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let probes: Vec<Vec<f64>> = weird
            .iter()
            .flat_map(|&c| weird.iter().map(move |&x| vec![c, x]))
            .collect();
        assert_flat_matches(&t, &probes);
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
