//! Cost of the durable state tier — park/unpark latency per tier, and
//! recovery time against the parked-stream count.
//!
//! Two questions an operator pointing `HOM_STORE_DIR` at a disk will
//! ask:
//!
//! 1. **What does tiering a parked stream to disk cost?** Every cell
//!    drives the same park → touch (unpark + predict) cycle over
//!    [`STREAMS`] streams through a [`hom_serve::ServeEngine`], across
//!    the tier grid: `ram` (no store), `disk group-commit` (default
//!    cadence — parks buffer and fsync in batches), and
//!    `disk commit-per-park` (`HOM_STORE_COMMIT_US=0` semantics — the
//!    worst case, one group commit behind every park). The engine's
//!    determinism contract makes the grid honest: every tier computes
//!    bit-identical predictions, so the only thing that varies is
//!    wall-clock time, asserted against the `ram` cell's digest.
//! 2. **How long is restart down for?** A store is loaded with N
//!    committed snapshots, dropped, and re-opened; the
//!    [`RecoveryReport`](hom_store::RecoveryReport) clock measures the
//!    WAL + segment scan that rebuilds the index, for
//!    N ∈ {100, 1 000, 10 000}.
//! 3. **What does a full engine cost per request?** The `evict at
//!    capacity` cell drives a capacity-bounded engine over a disk store
//!    with a churning request mix ([`CHURN_STREAMS`] streams through
//!    [`CHURN_LIVE`] live slots, so most requests park the shard's LRU
//!    stream and unpark their own from disk), in batches, group commits
//!    included. Its predictions are asserted bit-identical to an
//!    unbounded RAM engine's.
//! 4. **How fast does compaction rewrite live records?** The
//!    `compaction` cell times [`StreamStore::compact`] over sealed
//!    segments holding [`COMPACT_STREAMS`] live snapshots (and as many
//!    dead versions), in records per second.
//!
//! Each cell reports its best rep (reps interleaved round-robin so
//! machine-phase drift lands evenly). With `HOM_JSON_DIR` set, a
//! `BENCH_store.json` snapshot is written there (the checked-in
//! snapshot at the repository root was produced this way).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use hom_classifiers::DecisionTreeLearner;
use hom_cluster::ClusterParams;
use hom_core::{build, BuildParams, HighOrderModel};
use hom_data::stream::collect;
use hom_data::{StreamRecord, StreamSource};
use hom_datagen::{StaggerParams, StaggerSource};
use hom_eval::report::print_table;
use hom_eval::EvalConfig;
use hom_obs::Obs;
use hom_serve::{Request, ServeEngine, ServeOptions};
use hom_store::{FsIo, StoreOptions, StreamStore};

const HISTORICAL: usize = 20_000;
const BLOCK_SIZE: usize = 100;
/// Streams cycled through one park → touch round per rep.
const STREAMS: u64 = 1_000;
/// Interleaved measurement rounds; each cell reports its best rep.
const REPS: usize = 5;
/// Parked-stream counts for the recovery-time rows.
const RECOVERY_COUNTS: [usize; 3] = [100, 1_000, 10_000];
/// Streams the `evict at capacity` cell addresses.
const CHURN_STREAMS: u64 = 20_000;
/// Shards of the `evict at capacity` engine.
const CHURN_SHARDS: usize = 8;
/// Live streams it keeps (over all shards) before parking the LRU one.
const CHURN_LIVE: usize = 2_000;
/// Requests per batch and batches per rep of the `evict at capacity` cell.
const CHURN_BATCH: usize = 512;
const CHURN_BATCHES: usize = 40;
/// Live snapshots in the sealed segments the `compaction` cell rewrites.
const COMPACT_STREAMS: u64 = 50_000;

#[derive(Clone, Copy, PartialEq)]
enum Tier {
    Ram,
    DiskGroup,
    DiskSync,
}

const TIERS: [Tier; 3] = [Tier::Ram, Tier::DiskGroup, Tier::DiskSync];

impl Tier {
    fn label(self) -> &'static str {
        match self {
            Tier::Ram => "ram",
            Tier::DiskGroup => "disk group-commit",
            Tier::DiskSync => "disk commit-per-park",
        }
    }
}

struct CycleCell {
    tier: Tier,
    ns_per_cycle: f64,
}

struct ChurnCell {
    ns_per_request: f64,
    disk_unparks_per_request: f64,
}

struct CompactCell {
    records: usize,
    segments_in: usize,
    ms: f64,
    records_per_sec: f64,
}

struct RecoveryCell {
    streams: usize,
    records: usize,
    recovery_ms: f64,
    streams_per_sec: f64,
}

fn mine_model(seed: u64) -> (Arc<HighOrderModel>, Vec<StreamRecord>) {
    let mut src = StaggerSource::new(StaggerParams {
        lambda: 0.002,
        seed,
        ..Default::default()
    });
    let (historical, _) = collect(&mut src, HISTORICAL);
    let (model, _) = build(
        &historical,
        &DecisionTreeLearner::new(),
        &BuildParams {
            cluster: ClusterParams {
                block_size: BLOCK_SIZE,
                seed,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let test: Vec<StreamRecord> = (0..STREAMS as usize).map(|_| src.next_record()).collect();
    (Arc::new(model), test)
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hom-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tier_engine(model: &Arc<HighOrderModel>, tier: Tier, dir: &std::path::Path) -> ServeEngine {
    let store = match tier {
        Tier::Ram => None,
        Tier::DiskGroup | Tier::DiskSync => {
            let io = FsIo::open(dir).expect("bench store dir");
            Some(Arc::new(
                StreamStore::open_with(
                    Arc::new(io),
                    StoreOptions {
                        commit_interval_us: match tier {
                            Tier::DiskSync => 0,
                            _ => StoreOptions::default().commit_interval_us,
                        },
                        sink: Obs::none(),
                        ..Default::default()
                    },
                )
                .expect("open bench store"),
            ))
        }
    };
    ServeEngine::with_options(
        Arc::clone(model),
        &ServeOptions {
            threads: Some(1),
            store,
            ..Default::default()
        },
    )
}

/// One timed rep: park every stream, then touch every stream (unpark +
/// predict). Returns ns per park→touch cycle and the prediction digest.
fn cycle_rep(engine: &ServeEngine, test: &[StreamRecord]) -> (f64, u64) {
    let started = Instant::now();
    for s in 0..STREAMS {
        engine.park(s);
    }
    let mut digest = 0u64;
    for (s, r) in test.iter().enumerate() {
        let y = engine.predict(s as u64, &r.x);
        digest = digest.wrapping_mul(1_000_003).wrapping_add(y as u64);
    }
    let ns = started.elapsed().as_nanos() as f64 / STREAMS as f64;
    (ns, digest)
}

fn measure_cycles(model: &Arc<HighOrderModel>, test: &[StreamRecord]) -> Vec<CycleCell> {
    // One engine per tier, streams created once untimed; reps are
    // interleaved so every tier samples the same machine-phase mix.
    let dirs: Vec<PathBuf> = TIERS.iter().map(|t| bench_dir(t.label())).collect();
    let engines: Vec<ServeEngine> = TIERS
        .iter()
        .zip(&dirs)
        .map(|(&tier, dir)| tier_engine(model, tier, dir))
        .collect();
    for engine in &engines {
        for (s, r) in test.iter().enumerate() {
            engine.step(s as u64, &r.x, r.y);
        }
    }
    let mut best = vec![f64::INFINITY; TIERS.len()];
    let mut reference = None;
    for _ in 0..REPS {
        for (i, engine) in engines.iter().enumerate() {
            let (ns, digest) = cycle_rep(engine, test);
            // Determinism across tiers: the disk tiers must predict
            // exactly what the RAM tier predicts.
            match reference {
                None => reference = Some(digest),
                Some(want) => assert_eq!(digest, want, "tier {} diverged", TIERS[i].label()),
            }
            if ns < best[i] {
                best[i] = ns;
            }
        }
    }
    drop(engines);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    TIERS
        .iter()
        .zip(best)
        .map(|(&tier, ns_per_cycle)| CycleCell { tier, ns_per_cycle })
        .collect()
}

/// The churning request mix: batch `k` of a deterministic walk over
/// [`CHURN_STREAMS`] streams (an LCG, so every rep and every engine sees
/// the same requests).
fn churn_batch(k: usize, test: &[StreamRecord]) -> Vec<Request> {
    (0..CHURN_BATCH)
        .map(|i| {
            let n = (k * CHURN_BATCH + i) as u64;
            let stream = n
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407)
                >> 33;
            let r = &test[(n as usize) % test.len()];
            Request::Step {
                stream: stream % CHURN_STREAMS,
                x: r.x.to_vec(),
                y: r.y,
            }
        })
        .collect()
}

fn churn_digest(digest: u64, engine: &ServeEngine, batch: &[Request]) -> u64 {
    engine.submit(batch).iter().fold(digest, |d, r| {
        d.wrapping_mul(1_000_003)
            .wrapping_add(r.prediction.map_or(u64::MAX, u64::from))
    })
}

fn disk_unparks(engine: &ServeEngine) -> u64 {
    engine.store().map_or(0, |s| s.status().disk_unparks)
}

/// The `evict at capacity` cell: ns per request of a capacity-bounded
/// engine over a disk store, after one untimed pass has filled it.
fn measure_churn(model: &Arc<HighOrderModel>, test: &[StreamRecord]) -> ChurnCell {
    let dir = bench_dir("churn");
    let store = Arc::new(
        StreamStore::open_with(
            Arc::new(FsIo::open(&dir).expect("bench store dir")),
            StoreOptions {
                sink: Obs::none(),
                ..Default::default()
            },
        )
        .expect("open bench store"),
    );
    let bounded = ServeEngine::with_options(
        Arc::clone(model),
        &ServeOptions {
            shards: Some(CHURN_SHARDS),
            threads: Some(1),
            capacity: Some(CHURN_LIVE / CHURN_SHARDS),
            store: Some(store),
            ..Default::default()
        },
    );
    let unbounded = ServeEngine::with_options(
        Arc::clone(model),
        &ServeOptions {
            shards: Some(CHURN_SHARDS),
            threads: Some(1),
            ..Default::default()
        },
    );
    let (mut want, mut got) = (0u64, 0u64);
    let mut best = f64::INFINITY;
    let mut unparks = 0.0;
    for rep in 0..=REPS {
        let batches: Vec<Vec<Request>> = (0..CHURN_BATCHES)
            .map(|k| churn_batch(rep * CHURN_BATCHES + k, test))
            .collect();
        let unparks_before = disk_unparks(&bounded);
        let started = Instant::now();
        for batch in &batches {
            got = churn_digest(got, &bounded, batch);
        }
        let ns = started.elapsed().as_nanos() as f64 / (CHURN_BATCHES * CHURN_BATCH) as f64;
        for batch in &batches {
            want = churn_digest(want, &unbounded, batch);
        }
        assert_eq!(
            got, want,
            "the bounded engine diverged from the unbounded one"
        );
        // Rep 0 fills the engine (and the store) untimed.
        if rep > 0 && ns < best {
            best = ns;
            unparks = (disk_unparks(&bounded) - unparks_before) as f64;
        }
    }
    assert!(bounded.live_streams() <= CHURN_LIVE);
    drop(bounded);
    let _ = std::fs::remove_dir_all(&dir);
    ChurnCell {
        ns_per_request: best,
        disk_unparks_per_request: unparks / (CHURN_BATCHES * CHURN_BATCH) as f64,
    }
}

/// The `compaction` cell: records per second of an explicit
/// [`StreamStore::compact`] over sealed segments of real snapshots, two
/// versions per stream (one of them dead).
fn measure_compaction(engine_snapshot: &[u8]) -> CompactCell {
    let dir = bench_dir("compact");
    let mut best: Option<CompactCell> = None;
    for _ in 0..REPS {
        let _ = std::fs::remove_dir_all(&dir);
        let store = StreamStore::open_with(
            Arc::new(FsIo::open(&dir).expect("compaction dir")),
            StoreOptions {
                auto_compact: false,
                sink: Obs::none(),
                ..Default::default()
            },
        )
        .expect("open");
        for _version in 0..2 {
            for s in 0..COMPACT_STREAMS {
                store.park(s, engine_snapshot.to_vec());
                if s % 1_000 == 999 {
                    store.commit().expect("commit");
                }
            }
        }
        store.commit().expect("commit");
        let started = Instant::now();
        let report = store.compact().expect("compact");
        let ms = started.elapsed().as_nanos() as f64 / 1e6;
        assert!(report.records > 0, "nothing to compact");
        if best.as_ref().is_none_or(|b| ms < b.ms) {
            best = Some(CompactCell {
                records: report.records,
                segments_in: report.segments_in,
                ms,
                records_per_sec: report.records as f64 / (ms / 1e3),
            });
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    best.expect("at least one rep")
}

fn measure_recovery(engine_snapshot: &[u8]) -> Vec<RecoveryCell> {
    let mut cells = Vec::new();
    for &n in &RECOVERY_COUNTS {
        let dir = bench_dir(&format!("recovery-{n}"));
        let mut best: Option<RecoveryCell> = None;
        for _ in 0..REPS {
            let _ = std::fs::remove_dir_all(&dir);
            {
                let io = FsIo::open(&dir).expect("recovery dir");
                let store = StreamStore::open_with(
                    Arc::new(io),
                    StoreOptions {
                        sink: Obs::none(),
                        ..Default::default()
                    },
                )
                .expect("open");
                for s in 0..n as u64 {
                    store.park(s, engine_snapshot.to_vec());
                }
                store.commit().expect("commit");
            }
            let io = FsIo::open(&dir).expect("recovery dir");
            let store = StreamStore::open_with(
                Arc::new(io),
                StoreOptions {
                    sink: Obs::none(),
                    ..Default::default()
                },
            )
            .expect("recover");
            let report = store.recovery();
            assert_eq!(report.streams, n, "recovery lost streams");
            let ms = report.duration_ns as f64 / 1e6;
            if best.as_ref().is_none_or(|b| ms < b.recovery_ms) {
                best = Some(RecoveryCell {
                    streams: n,
                    records: report.records,
                    recovery_ms: ms,
                    streams_per_sec: n as f64 / (report.duration_ns as f64 / 1e9),
                });
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        cells.push(best.expect("at least one rep"));
    }
    cells
}

fn snapshot_json(
    cores: usize,
    snapshot_bytes: usize,
    cycles: &[CycleCell],
    churn: &ChurnCell,
    compaction: &CompactCell,
    recovery: &[RecoveryCell],
) -> String {
    let cycle_rows: Vec<String> = cycles
        .iter()
        .map(|c| {
            format!(
                "    {{ \"tier\": \"{}\", \"ns_per_park_unpark\": {:.0} }}",
                c.tier.label(),
                c.ns_per_cycle
            )
        })
        .collect();
    let recovery_rows: Vec<String> = recovery
        .iter()
        .map(|c| {
            format!(
                "    {{ \"parked_streams\": {}, \"records\": {}, \"recovery_ms\": {:.3}, \
                 \"streams_per_sec\": {:.0} }}",
                c.streams, c.records, c.recovery_ms, c.streams_per_sec
            )
        })
        .collect();
    format!(
        "{{\n  \"stream\": \"Stagger\",\n  \"historical_records\": {HISTORICAL},\n  \
         \"streams\": {STREAMS},\n  \"reps\": {REPS},\n  \"machine_cores\": {cores},\n  \
         \"snapshot_bytes\": {snapshot_bytes},\n  \"measurement\": \"best_rep\",\n  \
         \"park_unpark\": [\n{}\n  ],\n  \
         \"evict_at_capacity\": {{ \"streams\": {CHURN_STREAMS}, \"live\": {CHURN_LIVE}, \
         \"shards\": {CHURN_SHARDS}, \"batch\": {CHURN_BATCH}, \"ns_per_request\": {:.0}, \
         \"disk_unparks_per_request\": {:.3} }},\n  \
         \"compaction\": {{ \"records\": {}, \"segments_in\": {}, \"ms\": {:.3}, \
         \"records_per_sec\": {:.0} }},\n  \
         \"recovery\": [\n{}\n  ]\n}}\n",
        cycle_rows.join(",\n"),
        churn.ns_per_request,
        churn.disk_unparks_per_request,
        compaction.records,
        compaction.segments_in,
        compaction.ms,
        compaction.records_per_sec,
        recovery_rows.join(",\n")
    )
}

fn main() {
    let config = EvalConfig::from_env();
    println!("{}", config.banner());

    let (model, test) = mine_model(config.seed);
    let cycles = measure_cycles(&model, &test);

    // A real serialized FilterState as the recovery payload, so the
    // scan cost reflects production record sizes.
    let probe = ServeEngine::with_options(
        Arc::clone(&model),
        &ServeOptions {
            threads: Some(1),
            ..Default::default()
        },
    );
    let r = &test[0];
    probe.step(0, &r.x, r.y);
    let snapshot = probe.snapshot(0).expect("probe snapshot");
    let recovery = measure_recovery(&snapshot);
    let churn = measure_churn(&model, &test);
    let compaction = measure_compaction(&snapshot);

    let ram = cycles[0].ns_per_cycle;
    print_table(
        &format!("Park → unpark cycle by tier ({STREAMS} streams, best of {REPS})"),
        &["Tier", "ns/cycle", "vs ram"],
        &cycles
            .iter()
            .map(|c| {
                vec![
                    c.tier.label().into(),
                    format!("{:.0}", c.ns_per_cycle),
                    if c.tier == Tier::Ram {
                        "—".into()
                    } else {
                        format!("{:.1}x", c.ns_per_cycle / ram)
                    },
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        &format!(
            "Recovery time vs parked-stream count ({}-byte snapshots, best of {REPS})",
            snapshot.len()
        ),
        &["Parked streams", "Records", "Recovery ms", "Streams/s"],
        &recovery
            .iter()
            .map(|c| {
                vec![
                    c.streams.to_string(),
                    c.records.to_string(),
                    format!("{:.3}", c.recovery_ms),
                    format!("{:.0}", c.streams_per_sec),
                ]
            })
            .collect::<Vec<_>>(),
    );

    print_table(
        &format!(
            "Evict at capacity ({CHURN_STREAMS} streams, {CHURN_LIVE} live, disk group-commit, \
             best of {REPS})"
        ),
        &["ns/request", "Disk unparks/request"],
        &[vec![
            format!("{:.0}", churn.ns_per_request),
            format!("{:.3}", churn.disk_unparks_per_request),
        ]],
    );
    print_table(
        &format!("Compaction of sealed segments (best of {REPS})"),
        &["Records", "Segments in", "ms", "Records/s"],
        &[vec![
            compaction.records.to_string(),
            compaction.segments_in.to_string(),
            format!("{:.3}", compaction.ms),
            format!("{:.0}", compaction.records_per_sec),
        ]],
    );

    if let Ok(dir) = std::env::var("HOM_JSON_DIR") {
        let path = std::path::Path::new(&dir).join("BENCH_store.json");
        let _ = std::fs::create_dir_all(&dir);
        let cores = hom_parallel::available_threads();
        let _ = std::fs::write(
            path,
            snapshot_json(
                cores,
                snapshot.len(),
                &cycles,
                &churn,
                &compaction,
                &recovery,
            ),
        );
    }
}
