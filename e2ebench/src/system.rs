//! The workloads and the systems they drive: one in-process engine
//! (optionally over a durable store), or a router over two workers
//! talking HTTP on the loopback interface.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hom_classifiers::DecisionTreeLearner;
use hom_cluster::ClusterParams;
use hom_cluster_serve::{Router, WorkerServer, DEFAULT_VNODES};
use hom_core::{build_with, BuildOptions, BuildParams, HighOrderModel};
use hom_data::Dataset;
use hom_serve::{Request, Response, ServeEngine, ServeOptions, ServeTelemetry};
use hom_store::{FsIo, StoreIo, StoreOptions, StoreStatus, StreamStore};

/// Shards of every engine's stream table.
pub const SHARDS: usize = 64;
/// Worker threads of every engine.
pub const ENGINE_THREADS: usize = 1;
/// Workers behind the router.
pub const WORKERS: usize = 2;
/// Block size of the offline build's concept clustering.
const BLOCK_SIZE: usize = 50;
/// Per-exchange worker deadline (the program's default).
const CLUSTER_TIMEOUT: Duration = Duration::from_secs(5);

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1,000 resident streams on one in-process engine, closed loop.
    EngineHot,
    /// 200,000 streams through an LRU-bounded engine over a durable store.
    EngineChurn,
    /// 10,000 streams through the router and two workers, closed loop.
    ClusterBulk,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::EngineHot,
        Workload::EngineChurn,
        Workload::ClusterBulk,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineHot => "engine_hot",
            Workload::EngineChurn => "engine_churn",
            Workload::ClusterBulk => "cluster_bulk",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct streams addressed.
    pub fn streams(self) -> u64 {
        match self {
            Workload::EngineHot => 1_000,
            Workload::EngineChurn => 200_000,
            Workload::ClusterBulk => 10_000,
        }
    }

    /// Live streams per shard before the LRU parks one, into a durable
    /// store; `None` keeps every stream live and runs without a store.
    pub fn capacity(self) -> Option<usize> {
        (self == Workload::EngineChurn).then_some(500)
    }

    /// Whether requests go through the router.
    pub fn clustered(self) -> bool {
        self == Workload::ClusterBulk
    }
}

/// Mine the serving model from the historical stream (single-threaded,
/// so set-up time does not depend on how many cores the host lends).
pub fn mine(training: &Dataset) -> HighOrderModel {
    let params = BuildParams {
        cluster: ClusterParams {
            block_size: BLOCK_SIZE,
            ..Default::default()
        },
        ..Default::default()
    };
    let options = BuildOptions {
        threads: Some(1),
        ..Default::default()
    };
    build_with(training, &DecisionTreeLearner::new(), &params, &options).0
}

/// Engine options shared by the system under test, the per-layer replay
/// and the correctness reference.
pub fn engine_options() -> ServeOptions {
    ServeOptions {
        shards: Some(SHARDS),
        threads: Some(ENGINE_THREADS),
        ..Default::default()
    }
}

/// A [`StoreIo`] over a real directory that adds up the wall time of
/// every call — the store layer's time, taken at its I/O seam.
pub struct TimedIo {
    inner: FsIo,
    ns: AtomicU64,
}

impl TimedIo {
    fn timed<T>(&self, f: impl FnOnce(&FsIo) -> T) -> T {
        let start = Instant::now();
        let out = f(&self.inner);
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Nanoseconds spent inside the directory's I/O calls so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

impl StoreIo for TimedIo {
    fn append(&self, file: &str, bytes: &[u8]) -> io::Result<()> {
        self.timed(|io| io.append(file, bytes))
    }
    fn sync(&self, file: &str) -> io::Result<()> {
        self.timed(|io| io.sync(file))
    }
    fn read(&self, file: &str) -> io::Result<Vec<u8>> {
        self.timed(|io| io.read(file))
    }
    fn read_at(&self, file: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.timed(|io| io.read_at(file, offset, len))
    }
    fn truncate(&self, file: &str, len: u64) -> io::Result<()> {
        self.timed(|io| io.truncate(file, len))
    }
    fn remove(&self, file: &str) -> io::Result<()> {
        self.timed(|io| io.remove(file))
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.timed(|io| io.list())
    }
}

fn store_options() -> io::Result<StoreOptions> {
    StoreOptions::from_env().map_err(|e| io::Error::other(e.to_string()))
}

/// A directory removed when dropped.
pub struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running system under test.
pub enum System {
    /// One in-process engine.
    Engine {
        /// The engine.
        engine: Box<ServeEngine>,
        /// The store's timed I/O seam, when the engine parks to a store.
        io: Option<Arc<TimedIo>>,
        /// The store directory (declared after the engine, so the store
        /// closes before its files are removed).
        _dir: Option<TempDir>,
    },
    /// A router over in-process workers.
    Cluster {
        /// The router the client calls.
        router: Router,
        /// The workers, ring index order.
        workers: Vec<WorkerServer>,
    },
}

/// A worker engine: the shared engine options plus the telemetry sink a
/// worker serves `/metrics` from.
pub fn worker_engine(model: Arc<HighOrderModel>) -> (ServeEngine, Arc<ServeTelemetry>) {
    let telemetry = Arc::new(ServeTelemetry::new());
    let options = ServeOptions {
        sink: telemetry.obs(),
        ..engine_options()
    };
    (ServeEngine::with_options(model, &options), telemetry)
}

impl System {
    /// Construct the workload's system around `model`. A store lives in
    /// a fresh directory `store_dir`, removed when the system drops.
    pub fn start(
        workload: Workload,
        model: Arc<HighOrderModel>,
        store_dir: &Path,
    ) -> io::Result<System> {
        if workload.clustered() {
            let loopback: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
            let workers = (0..WORKERS)
                .map(|_| {
                    let (engine, telemetry) = worker_engine(Arc::clone(&model));
                    WorkerServer::bind(loopback, Arc::new(engine), telemetry)
                })
                .collect::<io::Result<Vec<_>>>()?;
            let addrs = workers.iter().map(WorkerServer::addr).collect();
            let router = Router::new(addrs, DEFAULT_VNODES, CLUSTER_TIMEOUT)
                .map_err(|e| io::Error::other(e.to_string()))?;
            return Ok(System::Cluster { router, workers });
        }
        let mut options = ServeOptions {
            capacity: workload.capacity(),
            ..engine_options()
        };
        let (mut io, mut dir) = (None, None);
        if workload.capacity().is_some() {
            let _ = std::fs::remove_dir_all(store_dir);
            let timed = Arc::new(TimedIo {
                inner: FsIo::open(store_dir)?,
                ns: AtomicU64::new(0),
            });
            dir = Some(TempDir(store_dir.to_path_buf()));
            let store = StreamStore::open_with(Arc::clone(&timed) as _, store_options()?)
                .map_err(|e| io::Error::other(e.to_string()))?;
            options.store = Some(Arc::new(store));
            io = Some(timed);
        }
        let engine = ServeEngine::try_with_options(model, &options)
            .map_err(|e| io::Error::other(e.to_string()))?;
        Ok(System::Engine {
            engine: Box::new(engine),
            io,
            _dir: dir,
        })
    }

    /// Apply one batch; an `Err` is a failed or refused operation.
    pub fn submit(&self, batch: &[Request]) -> Result<Vec<Response>, String> {
        match self {
            System::Engine { engine, .. } => Ok(engine.submit(batch)),
            System::Cluster { router, .. } => router.submit(batch).map_err(|e| e.to_string()),
        }
    }

    /// The engines serving the streams.
    pub fn engines(&self) -> Vec<&ServeEngine> {
        match self {
            System::Engine { engine, .. } => vec![engine],
            System::Cluster { workers, .. } => workers.iter().map(|w| &**w.engine()).collect(),
        }
    }

    /// The final posterior of `stream`, read from the engine that owns it.
    pub fn posterior(&self, stream: u64) -> Option<Vec<f64>> {
        match self {
            System::Engine { engine, .. } => engine.posterior(stream),
            System::Cluster { router, workers } => {
                workers[router.owner(stream)].engine().posterior(stream)
            }
        }
    }

    /// The router, for a clustered system.
    pub fn router(&self) -> Option<&Router> {
        match self {
            System::Cluster { router, .. } => Some(router),
            System::Engine { .. } => None,
        }
    }

    /// The store's counters, when the engine parks to a store.
    pub fn store_status(&self) -> Option<StoreStatus> {
        match self {
            System::Engine { engine, .. } => engine.store().map(|s| s.status()),
            System::Cluster { .. } => None,
        }
    }

    /// Nanoseconds spent in store I/O so far (0 without a store).
    pub fn store_io_ns(&self) -> u64 {
        match self {
            System::Engine { io: Some(io), .. } => io.ns(),
            _ => 0,
        }
    }
}
