//! A Hoeffding tree (VFDT — Domingos & Hulten, KDD'00; extended to
//! time-changing data as CVFDT in the paper's ref. \[1\]).
//!
//! The canonical *incremental* decision tree: it grows by accumulating
//! sufficient statistics at its leaves and splits a leaf only once the
//! Hoeffding bound guarantees (with confidence `1 − δ`) that the best
//! split attribute would also be best on an infinite sample. Included as
//! an extension: it is the representative "keep learning on the stream"
//! base model the paper's introduction argues against, and a drop-in
//! incremental expert for ensembles like DWM.
//!
//! Numeric attributes use per-class Gaussian observers (the standard
//! approximation from the VFDT literature): candidate thresholds are
//! evaluated by estimating each side's class counts from the Gaussian
//! CDFs.

use std::sync::Arc;

use hom_data::codec::{Reader, Writer};
use hom_data::{AttrKind, ClassId, Schema};

use crate::api::{argmax, Classifier};
use crate::wire::{ClassifierWireError, WIRE_TAG_HOEFFDING};

/// Hyper-parameters of the Hoeffding tree.
#[derive(Debug, Clone)]
pub struct HoeffdingParams {
    /// Records a leaf must accumulate between split attempts (200).
    pub grace_period: usize,
    /// Split confidence δ (1e-6): split when the gain lead exceeds the
    /// Hoeffding bound ε(δ, n).
    pub delta: f64,
    /// Tie threshold τ (0.05): split anyway when ε falls below τ.
    pub tau: f64,
    /// Hard cap on the number of tree nodes.
    pub max_nodes: usize,
    /// Candidate thresholds evaluated per numeric attribute.
    pub numeric_bins: usize,
}

impl Default for HoeffdingParams {
    fn default() -> Self {
        HoeffdingParams {
            grace_period: 200,
            delta: 1e-6,
            tau: 0.05,
            max_nodes: 2048,
            numeric_bins: 8,
        }
    }
}

/// Per-leaf sufficient statistics.
#[derive(Debug, Clone, Default)]
struct LeafStats {
    class_counts: Vec<u64>,
    since_eval: usize,
    /// Per attribute: categorical count tables `counts[class * card + v]`
    /// or per-class Gaussian observers `(n, mean, m2)` with min/max.
    attrs: Vec<AttrObserver>,
}

#[derive(Debug, Clone)]
enum AttrObserver {
    Cat {
        card: usize,
        counts: Vec<u64>,
    },
    Num {
        gauss: Vec<(f64, f64, f64)>,
        min: f64,
        max: f64,
    },
}

#[derive(Debug, Clone)]
enum HKind {
    Leaf(LeafStats),
    Cat {
        attr: usize,
        children: Vec<u32>,
    },
    Num {
        attr: usize,
        threshold: f64,
        left: u32,
        right: u32,
    },
}

#[derive(Debug, Clone)]
struct HNode {
    kind: HKind,
    /// Class counts seen at this node while it was a leaf (for fallback
    /// predictions on unseen category codes).
    majority_counts: Vec<u64>,
}

/// An incrementally grown Hoeffding tree.
#[derive(Debug, Clone)]
pub struct HoeffdingTree {
    schema: Arc<Schema>,
    params: HoeffdingParams,
    nodes: Vec<HNode>,
}

impl HoeffdingTree {
    /// An empty tree (single leaf) over `schema`.
    pub fn new(schema: Arc<Schema>, params: HoeffdingParams) -> Self {
        let leaf = HNode {
            kind: HKind::Leaf(LeafStats::new(&schema)),
            majority_counts: vec![0; schema.n_classes()],
        };
        HoeffdingTree {
            schema,
            params,
            nodes: vec![leaf],
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Absorb one labeled record, possibly splitting the reached leaf.
    pub fn update(&mut self, x: &[f64], y: ClassId) {
        let leaf_id = self.descend(x);
        let node = &mut self.nodes[leaf_id as usize];
        node.majority_counts[y as usize] += 1;
        let (should_eval, grace) = {
            let HKind::Leaf(stats) = &mut node.kind else {
                unreachable!("descend returns leaves");
            };
            // A decoded leaf allocates its observers on first training, so
            // decoding many leaves over a wide schema stays cheap.
            if stats.class_counts.is_empty() {
                *stats = LeafStats::new(&self.schema);
            }
            stats.observe(x, y);
            (
                stats.since_eval >= self.params.grace_period,
                self.params.grace_period,
            )
        };
        if should_eval && self.nodes.len() + 4 <= self.params.max_nodes {
            self.try_split(leaf_id);
        } else if should_eval {
            // At capacity: stop re-evaluating this leaf every record.
            if let HKind::Leaf(stats) = &mut self.nodes[leaf_id as usize].kind {
                stats.since_eval = grace / 2;
            }
        }
    }

    fn descend(&self, x: &[f64]) -> u32 {
        let mut id = 0u32;
        loop {
            match &self.nodes[id as usize].kind {
                HKind::Leaf(_) => return id,
                HKind::Cat { attr, children } => {
                    let v = x[*attr] as usize;
                    if x[*attr].fract() != 0.0 || v >= children.len() {
                        return self.deepest_leaf(id);
                    }
                    id = children[v];
                }
                HKind::Num {
                    attr,
                    threshold,
                    left,
                    right,
                } => {
                    id = if x[*attr] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Fallback for malformed category codes: the first leaf under `id`.
    fn deepest_leaf(&self, mut id: u32) -> u32 {
        loop {
            match &self.nodes[id as usize].kind {
                HKind::Leaf(_) => return id,
                HKind::Cat { children, .. } => id = children[0],
                HKind::Num { left, .. } => id = *left,
            }
        }
    }

    /// Append this tree's **frozen** wire payload to `w` (the tag
    /// byte is the caller's job — see [`crate::wire`]): per node the
    /// split structure plus the `majority_counts` that
    /// [`Classifier::predict`] / [`Classifier::predict_proba`] read.
    /// Leaf sufficient statistics (attribute observers, grace counters)
    /// are deliberately **not** shipped: a decoded tree serves
    /// bit-identically but, if ever trained further, restarts its leaf
    /// statistics from zero — cluster nodes only serve wire-distributed
    /// models, they never grow them.
    pub fn wire_encode_into(&self, w: &mut Writer<'_>) {
        let n_classes = self.schema.n_classes();
        w.put_u32(n_classes as u32);
        w.put_u32(self.nodes.len() as u32);
        for node in &self.nodes {
            match &node.kind {
                HKind::Leaf(_) => w.put_u8(0),
                HKind::Cat { attr, children } => {
                    w.put_u8(1);
                    w.put_u32(*attr as u32);
                    w.put_u32(children.len() as u32);
                    for &c in children {
                        w.put_u32(c);
                    }
                }
                HKind::Num {
                    attr,
                    threshold,
                    left,
                    right,
                } => {
                    w.put_u8(2);
                    w.put_u32(*attr as u32);
                    w.put_f64(*threshold);
                    w.put_u32(*left);
                    w.put_u32(*right);
                }
            }
            debug_assert_eq!(node.majority_counts.len(), n_classes);
            for &c in &node.majority_counts {
                w.put_u64(c);
            }
        }
    }

    /// Decode a wire payload written by [`Self::wire_encode_into`] from
    /// `r`. Child edges must point strictly forward (`child > parent`)
    /// — the invariant `apply_split` maintains — so `descend` and
    /// `deepest_leaf` provably terminate on any input; anything else is
    /// a typed [`ClassifierWireError`], never a panic or a hang. The
    /// decoded tree carries default [`HoeffdingParams`] and fresh leaf
    /// statistics (see [`Self::wire_encode_into`] for why that cannot
    /// change what it serves), allocated only when a leaf is first
    /// trained, so decoding reserves nothing per leaf beyond its counts.
    pub fn wire_decode(
        r: &mut Reader<'_>,
        schema: &Arc<Schema>,
    ) -> Result<Self, ClassifierWireError> {
        let n_classes = r.take_u32()? as usize;
        if n_classes != schema.n_classes() {
            return Err(ClassifierWireError::Corrupt("class count mismatch"));
        }
        // The smallest node is a leaf: its kind byte and class counts.
        let n_nodes = r.count(1 + 8 * n_classes)?;
        if n_nodes == 0 {
            return Err(ClassifierWireError::Corrupt("empty tree"));
        }
        let n_attrs = schema.n_attrs();
        let mut nodes = Vec::with_capacity(n_nodes);
        for id in 0..n_nodes {
            let check_child = |c: u32| -> Result<u32, ClassifierWireError> {
                if (c as usize) <= id || (c as usize) >= n_nodes {
                    Err(ClassifierWireError::Corrupt("child edge out of range"))
                } else {
                    Ok(c)
                }
            };
            let kind = match r.take_u8()? {
                0 => HKind::Leaf(LeafStats::default()),
                1 => {
                    let attr = r.take_u32()? as usize;
                    if attr >= n_attrs {
                        return Err(ClassifierWireError::Corrupt("split attribute out of range"));
                    }
                    let arity = r.count(4)?;
                    if arity == 0 {
                        return Err(ClassifierWireError::Corrupt(
                            "categorical split with no children",
                        ));
                    }
                    let children = (0..arity)
                        .map(|_| check_child(r.take_u32()?))
                        .collect::<Result<_, _>>()?;
                    HKind::Cat { attr, children }
                }
                2 => {
                    let attr = r.take_u32()? as usize;
                    if attr >= n_attrs {
                        return Err(ClassifierWireError::Corrupt("split attribute out of range"));
                    }
                    let threshold = r.take_f64()?;
                    let left = check_child(r.take_u32()?)?;
                    let right = check_child(r.take_u32()?)?;
                    HKind::Num {
                        attr,
                        threshold,
                        left,
                        right,
                    }
                }
                _ => return Err(ClassifierWireError::Corrupt("unknown node kind")),
            };
            let majority_counts = (0..n_classes)
                .map(|_| r.take_u64())
                .collect::<Result<_, _>>()?;
            nodes.push(HNode {
                kind,
                majority_counts,
            });
        }
        Ok(HoeffdingTree {
            schema: Arc::clone(schema),
            params: HoeffdingParams::default(),
            nodes,
        })
    }

    fn try_split(&mut self, leaf_id: u32) {
        let n_classes = self.schema.n_classes();
        let (best, second, n_total) = {
            let HKind::Leaf(stats) = &mut self.nodes[leaf_id as usize].kind else {
                return;
            };
            stats.since_eval = 0;
            let n_total: u64 = stats.class_counts.iter().sum();
            if n_total == 0 || stats.class_counts.iter().filter(|&&c| c > 0).count() <= 1 {
                return; // pure leaf
            }
            let mut gains: Vec<(f64, SplitChoice)> = Vec::new();
            for (a, obs) in stats.attrs.iter().enumerate() {
                if let Some(g) = obs.best_gain(a, &stats.class_counts, self.params.numeric_bins) {
                    gains.push(g);
                }
            }
            gains.sort_by(|a, b| b.0.total_cmp(&a.0));
            if gains.is_empty() || gains[0].0 <= 0.0 {
                return;
            }
            let best = gains[0].clone();
            let second_gain = gains.get(1).map_or(0.0, |g| g.0);
            (best, second_gain, n_total)
        };

        // Hoeffding bound for entropy in nats: range R = ln(n_classes).
        let r = (n_classes as f64).ln();
        let eps = (r * r * (1.0 / self.params.delta).ln() / (2.0 * n_total as f64)).sqrt();
        if best.0 - second > eps || eps < self.params.tau {
            self.apply_split(leaf_id, best.1);
        }
    }

    fn apply_split(&mut self, leaf_id: u32, choice: SplitChoice) {
        let parent_counts = self.nodes[leaf_id as usize].majority_counts.clone();
        let mk_leaf = |nodes: &mut Vec<HNode>, schema: &Arc<Schema>| -> u32 {
            let id = nodes.len() as u32;
            nodes.push(HNode {
                kind: HKind::Leaf(LeafStats::new(schema)),
                majority_counts: parent_counts.clone(),
            });
            id
        };
        match choice {
            SplitChoice::Cat { attr, card } => {
                let children: Vec<u32> = (0..card)
                    .map(|_| mk_leaf(&mut self.nodes, &self.schema))
                    .collect();
                self.nodes[leaf_id as usize].kind = HKind::Cat { attr, children };
            }
            SplitChoice::Num { attr, threshold } => {
                let left = mk_leaf(&mut self.nodes, &self.schema);
                let right = mk_leaf(&mut self.nodes, &self.schema);
                self.nodes[leaf_id as usize].kind = HKind::Num {
                    attr,
                    threshold,
                    left,
                    right,
                };
            }
        }
    }
}

#[derive(Debug, Clone)]
enum SplitChoice {
    Cat { attr: usize, card: usize },
    Num { attr: usize, threshold: f64 },
}

impl Classifier for HoeffdingTree {
    fn n_classes(&self) -> usize {
        self.schema.n_classes()
    }

    fn predict(&self, x: &[f64]) -> ClassId {
        let leaf = self.descend(x);
        let counts = &self.nodes[leaf as usize].majority_counts;
        argmax(&counts.iter().map(|&c| c as f64).collect::<Vec<_>>()) as ClassId
    }

    fn predict_proba(&self, x: &[f64], out: &mut [f64]) {
        let leaf = self.descend(x);
        let counts = &self.nodes[leaf as usize].majority_counts;
        let n: u64 = counts.iter().sum();
        let k = counts.len() as f64;
        for (o, &c) in out.iter_mut().zip(counts) {
            *o = (c as f64 + 1.0) / (n as f64 + k);
        }
    }

    fn complexity(&self) -> usize {
        self.nodes.len()
    }

    // No `flatten` (a `FlatTree` cannot express this tree's fallback:
    // out-of-vocabulary categorical codes walk to the deepest
    // first-child leaf here but stop at the split node there), so the
    // wire form is the dedicated frozen encoding instead.
    fn wire_encode(&self, w: &mut Writer<'_>) -> bool {
        w.put_u8(WIRE_TAG_HOEFFDING);
        self.wire_encode_into(w);
        true
    }
}

impl LeafStats {
    fn new(schema: &Arc<Schema>) -> Self {
        let n_classes = schema.n_classes();
        let attrs = schema
            .attrs()
            .iter()
            .map(|a| match &a.kind {
                AttrKind::Categorical { values } => AttrObserver::Cat {
                    card: values.len(),
                    counts: vec![0; n_classes * values.len()],
                },
                AttrKind::Numeric => AttrObserver::Num {
                    gauss: vec![(0.0, 0.0, 0.0); n_classes],
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                },
            })
            .collect();
        LeafStats {
            class_counts: vec![0; n_classes],
            since_eval: 0,
            attrs,
        }
    }

    fn observe(&mut self, x: &[f64], y: ClassId) {
        let c = y as usize;
        self.class_counts[c] += 1;
        self.since_eval += 1;
        for (obs, &v) in self.attrs.iter_mut().zip(x) {
            match obs {
                AttrObserver::Cat { card, counts } => {
                    let vi = v as usize;
                    if vi < *card {
                        counts[c * *card + vi] += 1;
                    }
                }
                AttrObserver::Num { gauss, min, max } => {
                    let (n, mean, m2) = &mut gauss[c];
                    *n += 1.0;
                    let delta = v - *mean;
                    *mean += delta / *n;
                    *m2 += delta * (v - *mean);
                    *min = min.min(v);
                    *max = max.max(v);
                }
            }
        }
    }
}

fn entropy(counts: &[f64]) -> f64 {
    let n: f64 = counts.iter().sum();
    if n <= 0.0 {
        return 0.0;
    }
    counts
        .iter()
        .filter(|&&c| c > 0.0)
        .map(|&c| {
            let p = c / n;
            -p * p.ln()
        })
        .sum()
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation.
fn normal_cdf(z: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.2316419 * z.abs());
    let poly = t
        * (0.319381530
            + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
    let pdf = (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let p = 1.0 - pdf * poly;
    if z >= 0.0 {
        p
    } else {
        1.0 - p
    }
}

impl AttrObserver {
    /// The best information gain achievable by splitting on this
    /// attribute, with the realizing split.
    fn best_gain(
        &self,
        attr: usize,
        class_counts: &[u64],
        numeric_bins: usize,
    ) -> Option<(f64, SplitChoice)> {
        let parent: Vec<f64> = class_counts.iter().map(|&c| c as f64).collect();
        let n: f64 = parent.iter().sum();
        let parent_h = entropy(&parent);
        match self {
            AttrObserver::Cat { card, counts } => {
                let n_classes = class_counts.len();
                let mut child_h = 0.0;
                for v in 0..*card {
                    let col: Vec<f64> = (0..n_classes)
                        .map(|c| counts[c * *card + v] as f64)
                        .collect();
                    let nv: f64 = col.iter().sum();
                    if nv > 0.0 {
                        child_h += nv / n * entropy(&col);
                    }
                }
                Some((parent_h - child_h, SplitChoice::Cat { attr, card: *card }))
            }
            AttrObserver::Num { gauss, min, max } => {
                if !min.is_finite() || max <= min {
                    return None;
                }
                let mut best: Option<(f64, f64)> = None;
                for b in 1..=numeric_bins {
                    let t = min + (max - min) * b as f64 / (numeric_bins + 1) as f64;
                    // Estimate per-class counts on each side from the
                    // Gaussian observers.
                    let mut left = vec![0.0; gauss.len()];
                    let mut right = vec![0.0; gauss.len()];
                    for (c, &(gn, mean, m2)) in gauss.iter().enumerate() {
                        if gn <= 0.0 {
                            continue;
                        }
                        let var = if gn > 1.0 {
                            (m2 / (gn - 1.0)).max(1e-12)
                        } else {
                            1e-12
                        };
                        let frac = normal_cdf((t - mean) / var.sqrt());
                        left[c] = gn * frac;
                        right[c] = gn * (1.0 - frac);
                    }
                    let nl: f64 = left.iter().sum();
                    let nr: f64 = right.iter().sum();
                    if nl < 1.0 || nr < 1.0 {
                        continue;
                    }
                    let h = nl / n * entropy(&left) + nr / n * entropy(&right);
                    let gain = parent_h - h;
                    if best.is_none_or(|(g, _)| gain > g) {
                        best = Some((gain, t));
                    }
                }
                best.map(|(g, t)| (g, SplitChoice::Num { attr, threshold: t }))
            }
        }
    }
}

/// Batch adapter: streams a dataset through [`HoeffdingTree::update`] so
/// the incremental tree can serve wherever a [`crate::Learner`] is
/// expected (e.g. as the concept-clustering base learner in ablations).
#[derive(Debug, Clone, Default)]
pub struct HoeffdingLearner {
    /// Hyper-parameters used for every fit.
    pub params: HoeffdingParams,
}

impl crate::api::Learner for HoeffdingLearner {
    fn fit(&self, data: &dyn hom_data::Instances) -> Box<dyn Classifier> {
        let schema = Arc::new(data.schema().clone());
        let mut tree = HoeffdingTree::new(schema, self.params.clone());
        for i in 0..data.len() {
            tree.update(data.row(i), data.label(i));
        }
        Box::new(tree)
    }

    fn name(&self) -> &str {
        "hoeffding-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hom_data::Attribute;

    fn num_schema() -> Arc<Schema> {
        Schema::new(vec![Attribute::numeric("x")], ["lo", "hi"])
    }

    fn xs(n: usize, seed: u64) -> impl Iterator<Item = f64> {
        let mut state = seed | 1;
        (0..n).map(move |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        })
    }

    #[test]
    fn empty_tree_predicts_class_zero() {
        let t = HoeffdingTree::new(num_schema(), HoeffdingParams::default());
        assert_eq!(t.predict(&[0.5]), 0);
        assert_eq!(t.n_nodes(), 1);
        let mut p = [0.0; 2];
        t.predict_proba(&[0.5], &mut p);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn learns_numeric_threshold_incrementally() {
        let mut t = HoeffdingTree::new(num_schema(), HoeffdingParams::default());
        for x in xs(5000, 1) {
            t.update(&[x], u32::from(x > 0.5));
        }
        assert!(t.n_nodes() > 1, "tree never split");
        assert_eq!(t.predict(&[0.05]), 0);
        assert_eq!(t.predict(&[0.95]), 1);
    }

    #[test]
    fn learns_categorical_rule() {
        let schema = Schema::new(
            vec![Attribute::categorical("c", ["u", "v", "w"])],
            ["a", "b"],
        );
        let mut t = HoeffdingTree::new(schema, HoeffdingParams::default());
        let mut state = 3u64;
        for _ in 0..3000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = ((state >> 33) % 3) as f64;
            t.update(&[v], u32::from(v == 1.0));
        }
        assert_eq!(t.predict(&[0.0]), 0);
        assert_eq!(t.predict(&[1.0]), 1);
        assert_eq!(t.predict(&[2.0]), 0);
    }

    #[test]
    fn respects_node_cap() {
        let params = HoeffdingParams {
            max_nodes: 7,
            grace_period: 50,
            ..Default::default()
        };
        let mut t = HoeffdingTree::new(num_schema(), params);
        for (i, x) in xs(20_000, 5).enumerate() {
            // a complex target that would grow a large tree
            let y = u32::from(((x * 10.0) as u64 + i as u64 / 1000).is_multiple_of(2));
            t.update(&[x], y);
        }
        assert!(t.n_nodes() <= 7, "nodes = {}", t.n_nodes());
    }

    #[test]
    fn stays_single_leaf_on_pure_stream() {
        let mut t = HoeffdingTree::new(num_schema(), HoeffdingParams::default());
        for x in xs(2000, 7) {
            t.update(&[x], 1);
        }
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict(&[0.4]), 1);
    }

    #[test]
    fn normal_cdf_sane() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(8.0) > 0.9999);
    }

    #[test]
    fn vfdt_chases_trends_where_high_order_does_not_need_to() {
        // The behaviour the paper criticises: after a concept flip a
        // Hoeffding tree's accumulated structure keeps predicting the old
        // concept for a long time (it has no forgetting mechanism).
        let mut t = HoeffdingTree::new(num_schema(), HoeffdingParams::default());
        for x in xs(5000, 11) {
            t.update(&[x], u32::from(x > 0.5));
        }
        assert_eq!(t.predict(&[0.9]), 1);
        // flip for a short burst: predictions should NOT flip yet
        for x in xs(500, 13) {
            t.update(&[x], u32::from(x <= 0.5));
        }
        assert_eq!(
            t.predict(&[0.9]),
            1,
            "VFDT should still lag behind the flip"
        );
    }
}

#[cfg(test)]
mod learner_tests {
    use super::*;
    use crate::api::Learner;
    use hom_data::{Attribute, Dataset};

    #[test]
    fn batch_adapter_fits_and_predicts() {
        let schema = Schema::new(vec![Attribute::numeric("x")], ["lo", "hi"]);
        let mut d = Dataset::new(Arc::clone(&schema));
        let mut state = 9u64;
        for _ in 0..4000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = (state >> 11) as f64 / (1u64 << 53) as f64;
            d.push(&[x], u32::from(x > 0.5));
        }
        let learner = HoeffdingLearner::default();
        assert_eq!(learner.name(), "hoeffding-tree");
        let model = learner.fit(&d);
        assert_eq!(model.predict(&[0.05]), 0);
        assert_eq!(model.predict(&[0.95]), 1);
        let mut p = [0.0; 2];
        model.predict_proba(&[0.95], &mut p);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
