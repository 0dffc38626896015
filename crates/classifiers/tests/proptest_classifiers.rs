//! Property-based tests of the classifier invariants.

use hom_classifiers::flat::LANES;
use hom_classifiers::{
    argmax, Classifier, DecisionTree, DecisionTreeLearner, FlatTree, Learner, MajorityLearner,
    NaiveBayesLearner,
};
use hom_data::{Attribute, Dataset, Schema};
use proptest::prelude::*;
use std::sync::Arc;

/// An arbitrary small mixed-schema dataset: one numeric and one
/// 3-valued categorical attribute, two classes.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    proptest::collection::vec((0.0f64..1.0, 0u32..3, 0u32..2), 1..80).prop_map(|rows| {
        let schema = Schema::new(
            vec![
                Attribute::numeric("x"),
                Attribute::categorical("c", ["u", "v", "w"]),
            ],
            ["neg", "pos"],
        );
        let mut d = Dataset::new(schema);
        for (x, c, y) in rows {
            d.push(&[x, f64::from(c)], y);
        }
        d
    })
}

/// Values a record may carry that the training data never did: signed
/// zeros, NaN, ±∞, and category codes that are fractional, negative or
/// past the arity.
const WEIRD: [f64; 12] = [
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.5,
    2.5,
    -1.0,
    -0.5,
    3.0,
    1e300,
    4294967296.0,
    -1e-300,
];

/// A probe: a training-range value or a [`WEIRD`] one per attribute.
fn probe_strategy() -> impl Strategy<Value = Vec<f64>> {
    (
        0usize..2 * WEIRD.len(),
        -2.0f64..2.0,
        0usize..2 * WEIRD.len(),
        0u32..3,
    )
        .prop_map(|(wx, x, wc, c)| {
            let pick = |w: usize, v: f64| WEIRD.get(w).copied().unwrap_or(v);
            vec![pick(wx, x), pick(wc, f64::from(c))]
        })
}

/// Descend `xs` as the batch kernel does: [`LANES`] records per pass, a
/// short last pass padded with its own last record.
fn lockstep(flat: &FlatTree, xs: &[&[f64]]) -> Vec<u32> {
    xs.chunks(LANES)
        .flat_map(|chunk| {
            let last = chunk.len() - 1;
            let ids = flat.descend_lanes(&std::array::from_fn(|i| chunk[i.min(last)]));
            ids[..chunk.len()].to_vec()
        })
        .collect()
}

/// Every batch of 1..=17 leading probes must land each probe on a node
/// whose class and probability row are the source tree's answer for it,
/// to the bit.
fn check_lockstep(tree: &DecisionTree, probes: &[Vec<f64>]) -> Result<(), TestCaseError> {
    let flat = tree.flatten().expect("decision trees flatten");
    let mut want = vec![0.0; tree.n_classes()];
    for n in 1..=probes.len() {
        let xs: Vec<&[f64]> = probes[..n].iter().map(Vec::as_slice).collect();
        for (x, id) in xs.iter().zip(lockstep(&flat, &xs)) {
            prop_assert_eq!(flat.node_class(id), tree.predict(x), "class on {:?}", x);
            tree.predict_proba(x, &mut want);
            let got: Vec<u64> = flat.proba_row(id).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want, "row on {:?}", x);
        }
    }
    Ok(())
}

fn learners() -> Vec<Box<dyn Learner>> {
    vec![
        Box::new(DecisionTreeLearner::new()),
        Box::new(DecisionTreeLearner::unpruned()),
        Box::new(NaiveBayesLearner),
        Box::new(MajorityLearner),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every learner: probabilities are a distribution, strictly
    /// positive (Laplace smoothing), and consistent with `predict` up to
    /// argmax tie-breaking.
    #[test]
    fn proba_is_distribution(d in dataset_strategy(), qx in 0.0f64..1.0, qc in 0u32..3) {
        let q = [qx, f64::from(qc)];
        for learner in learners() {
            let model = learner.fit(&d);
            let mut p = [0.0f64; 2];
            model.predict_proba(&q, &mut p);
            prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9,
                "{}: proba sums to {}", learner.name(), p.iter().sum::<f64>());
            prop_assert!(p.iter().all(|&v| v > 0.0 && v.is_finite()),
                "{}: non-positive probability {p:?}", learner.name());
            let pred = model.predict(&q) as usize;
            // predict must be one of the maximal-probability classes
            let max = p[argmax(&p)];
            prop_assert!(p[pred] >= max - 1e-9,
                "{}: predict {pred} not maximal in {p:?}", learner.name());
        }
    }

    /// Training data outside the schema's value range must not panic at
    /// prediction time (unseen categories, out-of-range numerics).
    #[test]
    fn predict_total_on_weird_inputs(d in dataset_strategy(), qx in -10.0f64..10.0) {
        for learner in learners() {
            let model = learner.fit(&d);
            for qc in [0.0, 1.0, 2.0, 7.0, -1.0, 0.5] {
                let q = [qx, qc];
                let y = model.predict(&q);
                prop_assert!(y < 2);
            }
        }
    }

    /// A pruned tree never has more leaves than its unpruned twin, and
    /// both classify training-pure datasets perfectly.
    #[test]
    fn pruning_never_grows(d in dataset_strategy()) {
        let pruned = DecisionTreeLearner::new().fit_tree(&d);
        let unpruned = DecisionTreeLearner::unpruned().fit_tree(&d);
        prop_assert!(pruned.n_leaves() <= unpruned.n_leaves());
        prop_assert!(pruned.depth() <= unpruned.depth());
    }

    /// On a deterministic, perfectly learnable target the unpruned tree
    /// reaches zero training error.
    #[test]
    fn tree_fits_consistent_data(xs in proptest::collection::vec(0.0f64..1.0, 8..100)) {
        let schema = Schema::new(vec![Attribute::numeric("x")], ["lo", "hi"]);
        let mut d = Dataset::new(schema);
        // consistent labeling: threshold at 0.5 with a margin
        let mut n_used = 0;
        for &x in &xs {
            if (x - 0.5).abs() > 0.05 {
                d.push(&[x], u32::from(x > 0.5));
                n_used += 1;
            }
        }
        prop_assume!(n_used >= 8);
        let both = d.class_counts().iter().all(|&c| c >= 2);
        prop_assume!(both);
        let tree = DecisionTreeLearner::unpruned().fit_tree(&d);
        for i in 0..d.len() {
            prop_assert_eq!(tree.predict(hom_data::Instances::row(&d, i)),
                hom_data::Instances::label(&d, i));
        }
    }

    /// The lockstep descent agrees with the unflattened tree on mixed
    /// numeric/categorical trees, pruned or not, for every batch size
    /// 1..=17 and every kind of out-of-training value.
    #[test]
    fn lockstep_descent_matches_source_tree(
        d in dataset_strategy(),
        probes in proptest::collection::vec(probe_strategy(), 17),
    ) {
        check_lockstep(&DecisionTreeLearner::new().fit_tree(&d), &probes)?;
        check_lockstep(&DecisionTreeLearner::unpruned().fit_tree(&d), &probes)?;
    }

    /// Holdout validation returns an error in [0,1] and reuses every
    /// index exactly once.
    #[test]
    fn holdout_fit_partitions(d in dataset_strategy(), seed in any::<u64>()) {
        use hom_classifiers::validate::holdout_fit;
        let idx: Vec<u32> = (0..d.len() as u32).collect();
        let mut rng = hom_data::rng::seeded(seed);
        let fit = holdout_fit(&DecisionTreeLearner::new(), &d, &idx, &mut rng);
        prop_assert!((0.0..=1.0).contains(&fit.error));
        let mut all: Vec<u32> = fit.train_idx.iter().chain(&fit.test_idx).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, idx);
    }
}

/// Shared-schema sanity for the trait objects: models survive being
/// moved behind `Arc<dyn Classifier>` and used from another thread.
#[test]
fn classifier_is_send_sync() {
    let schema = Schema::new(vec![Attribute::numeric("x")], ["a", "b"]);
    let mut d = Dataset::new(schema);
    for i in 0..20 {
        d.push(&[i as f64], u32::from(i >= 10));
    }
    let model: Arc<dyn Classifier> = Arc::from(DecisionTreeLearner::new().fit(&d));
    let m2 = Arc::clone(&model);
    let handle = std::thread::spawn(move || m2.predict(&[15.0]));
    assert_eq!(handle.join().unwrap(), 1);
    assert_eq!(model.predict(&[3.0]), 0);
}

/// One lockstep pass can hold a walk of 40+ levels beside one-step
/// walks: a chain tree peels one indicator group per split
/// (categorical and numeric splits alternating), so its all-zero record
/// walks the whole chain while a record of the group the root peels off
/// stops at once. Each batch puts the all-zero record beside one group's
/// record and [`WEIRD`] values that stop the walk part-way down.
#[test]
fn lockstep_descent_mixes_deep_and_shallow_paths() {
    const GROUPS: usize = 44;
    let attrs = (0..GROUPS)
        .map(|g| {
            if g % 2 == 0 {
                Attribute::categorical(format!("c{g}"), ["no", "yes"])
            } else {
                Attribute::numeric(format!("x{g}"))
            }
        })
        .collect();
    let mut d = Dataset::new(Schema::new(attrs, (0..GROUPS).map(|g| format!("k{g}"))));
    let deep = vec![0.0; GROUPS];
    let one_hot = |g: usize, v: f64| {
        let mut x = deep.clone();
        x[g] = v;
        x
    };
    for g in 0..GROUPS {
        for _ in 0..3 {
            d.push(&one_hot(g, 1.0), g as u32);
        }
    }
    let tree = DecisionTreeLearner::unpruned().fit_tree(&d);
    assert!(tree.depth() >= 40, "chain depth {}", tree.depth());
    for g in 0..GROUPS {
        let probes: Vec<Vec<f64>> = [deep.clone(), one_hot(g, 1.0)]
            .into_iter()
            .chain((0..15).map(|i| one_hot((g + i) % GROUPS, WEIRD[(g + i) % WEIRD.len()])))
            .collect();
        if let Err(e) = check_lockstep(&tree, &probes) {
            panic!("group {g}: {e:?}");
        }
    }
}
