//! Criterion micro-benchmarks of the building blocks.
//!
//! Not paper experiments — these track the cost of the hot paths: base
//! learner training/prediction, the online filter update, pruned
//! prediction, the serving kernel's classifier pass, and the full
//! offline build at small scale.
//!
//! `kernel_evaluate` times [`CompiledModel::evaluate`] alone, per
//! distinct record, on a fresh table of `KERNEL_BATCH` records per
//! iteration (interning is set-up, outside the timer), for a model
//! mined from each of three streams: Hyperplane as the end-to-end
//! benchmark mines it (seed 1, 50k records, block size 50; numeric
//! splits, nearly every record distinct), Intrusion (34 numeric and 7
//! categorical attributes) and Stagger (categorical splits, 27 distinct
//! records per batch, mined as `serve_throughput` mines it).
//!
//! `kernel_apply` times the apply stage alone, per `Step` (a §III-C
//! pruned prediction, then the Eq. 7–9 absorb and the Eq. 5 roll), for
//! the same three models: each batch's table is interned and evaluated
//! at set-up, and the timed loop spreads the batch's `Step`s over
//! `APPLY_STREAMS` filter states through the kernel instance
//! [`CompiledModel::dispatch`] picks for the model's widths — the loop
//! the serving engine runs per request.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use hom_classifiers::{DecisionTreeLearner, Learner, NaiveBayesLearner};
use hom_cluster::ClusterParams;
use hom_core::{
    build, BatchTable, BuildParams, CompiledModel, FilterState, HighOrderModel, Kernel,
    KernelScratch, KernelTask, OnlinePredictor, Width,
};
use hom_data::stream::collect;
use hom_data::{Dataset, StreamRecord, StreamSource};
use hom_datagen::{
    HyperplaneParams, HyperplaneSource, IntrusionParams, IntrusionSource, StaggerParams,
    StaggerSource,
};

/// Records per kernel batch (the end-to-end benchmark's batch size).
const KERNEL_BATCH: usize = 2_048;
/// Distinct batches the kernel bench cycles through.
const KERNEL_BATCHES: usize = 16;
/// Filter states each `kernel_apply` batch is spread over (the
/// end-to-end benchmark's resident stream count).
const APPLY_STREAMS: usize = 1_000;

fn stagger_data(n: usize, lambda: f64) -> Dataset {
    let mut src = StaggerSource::new(StaggerParams {
        lambda,
        ..Default::default()
    });
    collect(&mut src, n).0
}

fn bench_learners(c: &mut Criterion) {
    let data = stagger_data(1000, 0.0);
    let mut group = c.benchmark_group("learner_fit_1k");
    group.bench_function("decision_tree", |b| {
        let learner = DecisionTreeLearner::new();
        b.iter(|| learner.fit(&data))
    });
    group.bench_function("naive_bayes", |b| b.iter(|| NaiveBayesLearner.fit(&data)));
    group.finish();

    let model = DecisionTreeLearner::new().fit(&data);
    let mut src = StaggerSource::new(StaggerParams::default());
    let record = src.next_record();
    c.bench_function("tree_predict", |b| b.iter(|| model.predict(&record.x)));
}

fn bench_online(c: &mut Criterion) {
    let historical = stagger_data(4000, 0.01);
    let (model, _) = build(
        &historical,
        &DecisionTreeLearner::new(),
        &BuildParams {
            cluster: ClusterParams {
                block_size: 10,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let model = Arc::new(model);
    let mut src = StaggerSource::new(StaggerParams::default());
    let record = src.next_record();

    c.bench_function("online_observe", |b| {
        b.iter_batched(
            || OnlinePredictor::new(Arc::clone(&model)),
            |mut p| p.observe(&record.x, record.y),
            BatchSize::SmallInput,
        )
    });
    let mut predictor = OnlinePredictor::new(Arc::clone(&model));
    c.bench_function("online_predict_pruned", |b| {
        b.iter(|| predictor.predict_pruned(&record.x))
    });
    let mut predictor = OnlinePredictor::new(model);
    c.bench_function("online_predict_full", |b| {
        b.iter(|| predictor.predict(&record.x))
    });
}

fn bench_build(c: &mut Criterion) {
    let historical = stagger_data(2000, 0.01);
    c.bench_function("high_order_build_2k", |b| {
        b.iter(|| {
            build(
                &historical,
                &DecisionTreeLearner::new(),
                &BuildParams {
                    cluster: ClusterParams {
                        block_size: 10,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
        })
    });
}

/// Mine a model from the first `historical` records of `source` with
/// block size `block_size`, then draw the kernel batches from the rest
/// of the same stream.
fn kernel_case(
    mut source: Box<dyn StreamSource>,
    historical: usize,
    block_size: usize,
) -> (HighOrderModel, Vec<Vec<StreamRecord>>) {
    let (data, _) = collect(source.as_mut(), historical);
    let (model, _) = build(
        &data,
        &DecisionTreeLearner::new(),
        &BuildParams {
            cluster: ClusterParams {
                block_size,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let batches = (0..KERNEL_BATCHES)
        .map(|_| (0..KERNEL_BATCH).map(|_| source.next_record()).collect())
        .collect();
    (model, batches)
}

/// A fresh table holding `batch`, every record marked for absorption,
/// and each record's index in it.
fn intern_batch(batch: &[StreamRecord]) -> (BatchTable<'_>, Vec<u32>) {
    let mut table = BatchTable::with_capacity(KERNEL_BATCH);
    let recs = batch.iter().map(|r| table.intern(&r.x, true)).collect();
    (table, recs)
}

/// One batch of `Step`s through a kernel instance: request `i` runs on
/// filter state `i % states.len()`.
struct ApplySteps<'a, 't> {
    table: &'a BatchTable<'t>,
    recs: &'a [u32],
    batch: &'a [StreamRecord],
    states: &'a mut [FilterState],
}

impl KernelTask for ApplySteps<'_, '_> {
    type Output = ();

    fn run<K: Width, C: Width>(self, kernel: Kernel<'_, K, C>) {
        let mut scratch = KernelScratch::new(kernel.model());
        let n = self.states.len();
        for (i, (&rec, r)) in self.recs.iter().zip(self.batch).enumerate() {
            let mut view = self.states[i % n].as_view();
            black_box(kernel.predict_pruned(&view, self.table, rec, &mut scratch));
            kernel.observe(&mut view, self.table, rec, r.y, &mut scratch);
        }
    }
}

fn bench_kernel(c: &mut Criterion) {
    let cases: [(&str, Box<dyn StreamSource>, usize, usize); 3] = [
        (
            "hyperplane",
            Box::new(HyperplaneSource::new(HyperplaneParams {
                seed: 1,
                ..Default::default()
            })),
            50_000,
            50,
        ),
        (
            "intrusion",
            Box::new(IntrusionSource::new(IntrusionParams {
                seed: 1,
                ..Default::default()
            })),
            20_000,
            20,
        ),
        (
            "stagger",
            Box::new(StaggerSource::new(StaggerParams {
                lambda: 0.002,
                seed: 1,
                ..Default::default()
            })),
            20_000,
            100,
        ),
    ];
    let cases: Vec<(&str, HighOrderModel, Vec<Vec<StreamRecord>>)> = cases
        .into_iter()
        .map(|(name, source, historical, block_size)| {
            let (model, batches) = kernel_case(source, historical, block_size);
            (name, model, batches)
        })
        .collect();
    let mut group = c.benchmark_group("kernel_evaluate");
    for (name, model, batches) in &cases {
        let compiled = CompiledModel::compile(model);
        let distinct: usize = batches.iter().map(|b| intern_batch(b).0.n_records()).sum();
        let per_batch = distinct / KERNEL_BATCHES;
        println!(
            "kernel_evaluate/{name}: {} concepts ({} flat), {per_batch} distinct records per batch",
            compiled.n_concepts(),
            compiled.n_flattened()
        );
        group.throughput(Throughput::Elements(per_batch as u64));
        let mut next = 0;
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    next = (next + 1) % KERNEL_BATCHES;
                    intern_batch(&batches[next]).0
                },
                |mut table| {
                    compiled.evaluate(&mut table);
                    table
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();

    let mut group = c.benchmark_group("kernel_apply");
    group.throughput(Throughput::Elements(KERNEL_BATCH as u64));
    for (name, model, batches) in &cases {
        let compiled = CompiledModel::compile(model);
        println!(
            "kernel_apply/{name}: {} concepts, {} classes",
            compiled.n_concepts(),
            compiled.n_classes()
        );
        let tables: Vec<(BatchTable<'_>, Vec<u32>)> = batches
            .iter()
            .map(|batch| {
                let (mut table, recs) = intern_batch(batch);
                compiled.evaluate(&mut table);
                (table, recs)
            })
            .collect();
        let mut states = vec![FilterState::new(model); APPLY_STREAMS];
        let mut next = 0;
        group.bench_function(name, |b| {
            b.iter(|| {
                next = (next + 1) % KERNEL_BATCHES;
                let (table, recs) = &tables[next];
                compiled.dispatch(ApplySteps {
                    table,
                    recs,
                    batch: &batches[next],
                    states: &mut states,
                });
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_learners, bench_online, bench_kernel, bench_build
}
criterion_main!(benches);
