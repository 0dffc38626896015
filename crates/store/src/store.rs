//! The durable stream-state store: a per-stream index over an
//! append-only log of HOMF snapshots.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hom_obs::{Histogram, Obs};

use crate::io::{FsIo, StoreIo};
use crate::record::{
    decode_at, encode_into, encoded_len, into_payload, is_segment_header, segment_header,
    RecordKind, SEGMENT_HEADER_LEN,
};

/// The environment variable [`StreamStore::open`] is pointed at by the
/// serving engine: a directory for the store's WAL/segment files.
pub const STORE_DIR_ENV: &str = "HOM_STORE_DIR";

/// The environment variable behind [`StoreOptions::commit_interval_us`]:
/// the group-commit cadence in **microseconds** (`0` = fsync on every
/// [`StreamStore::maybe_commit`] with pending records).
pub const STORE_COMMIT_US_ENV: &str = "HOM_STORE_COMMIT_US";

/// Default group-commit cadence: 2 ms. Eviction traffic is bursty; one
/// fsync per burst amortizes across every shard's victims in the batch.
const DEFAULT_COMMIT_INTERVAL_US: u64 = 2_000;

/// Default segment-seal threshold.
const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// Pending bytes beyond which [`StreamStore::maybe_commit`] commits
/// regardless of cadence (bounds RAM held by uncommitted records).
const DEFAULT_PENDING_BYTES: usize = 1 << 20;

/// Compaction reads sealed files in aligned spans of this many bytes: a
/// read per span rather than per record, while the bytes held for
/// reading stay bounded by one span plus the largest record.
pub(crate) const COMPACT_SPAN: u64 = 1 << 20;

/// A store operation that could not complete. Every variant is typed and
/// recoverable: the store never panics on bad bytes or a failing disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The underlying [`StoreIo`] failed.
    Io {
        /// Which operation failed (`"append"`, `"sync"`, …).
        op: &'static str,
        /// The file involved.
        file: String,
        /// The I/O error kind.
        kind: std::io::ErrorKind,
        /// The I/O error's message.
        message: String,
    },
    /// A file's bytes are not a valid store file. Recovery distinguishes
    /// a torn *tail* (expected after a crash — rolled back silently)
    /// from damage that makes a file untrustworthy, which is this error.
    Corrupt {
        /// The offending file.
        file: String,
        /// Byte offset of the damage.
        offset: u64,
        /// What was wrong.
        what: &'static str,
    },
    /// An environment knob was set but malformed — rejected, never
    /// silently defaulted (the workspace-wide configuration convention).
    Config {
        /// The offending variable.
        knob: &'static str,
        /// Its rejected value, verbatim.
        got: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io {
                op,
                file,
                kind,
                message,
            } => write!(f, "store {op} on {file} failed: {message} ({kind:?})"),
            StoreError::Corrupt { file, offset, what } => {
                write!(f, "store file {file} corrupt at byte {offset}: {what}")
            }
            StoreError::Config { knob, got } => {
                write!(f, "invalid {knob}={got}: expected a non-negative integer")
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(op: &'static str, file: &str, e: std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        file: file.to_string(),
        kind: e.kind(),
        message: e.to_string(),
    }
}

/// Tuning of a [`StreamStore`]. Like the serving options, nothing here
/// changes a recovered posterior bit — cadence and thresholds move
/// wall-clock time and durability lag only.
#[derive(Clone)]
pub struct StoreOptions {
    /// Group-commit cadence for [`StreamStore::maybe_commit`],
    /// microseconds; `0` commits whenever records are pending.
    pub commit_interval_us: u64,
    /// Seal the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Commit regardless of cadence once this many pending bytes are
    /// buffered.
    pub pending_bytes: usize,
    /// Compact sealed segments automatically after a seal when more than
    /// half their bytes are dead. Explicit [`StreamStore::compact`]
    /// works either way.
    pub auto_compact: bool,
    /// Observability sink for the `store.*` event families.
    pub sink: Obs,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            commit_interval_us: DEFAULT_COMMIT_INTERVAL_US,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            pending_bytes: DEFAULT_PENDING_BYTES,
            auto_compact: true,
            sink: Obs::from_env(),
        }
    }
}

impl StoreOptions {
    /// Defaults with the environment knobs applied
    /// ([`STORE_COMMIT_US_ENV`]). A set-but-malformed value is a typed
    /// [`StoreError::Config`], never a silent fallback.
    pub fn from_env() -> Result<StoreOptions, StoreError> {
        let mut options = StoreOptions::default();
        if let Ok(v) = std::env::var(STORE_COMMIT_US_ENV) {
            if !v.is_empty() {
                options.commit_interval_us = v.parse().map_err(|_| StoreError::Config {
                    knob: STORE_COMMIT_US_ENV,
                    got: v,
                })?;
            }
        }
        Ok(options)
    }
}

/// What [`StreamStore::commit`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitReport {
    /// Records made durable (snapshots + tombstones, excluding the
    /// marker).
    pub records: usize,
    /// Bytes appended (records + marker + any file header).
    pub bytes: usize,
    /// Wall-clock of the group fsync, nanoseconds.
    pub fsync_ns: u64,
}

/// What [`StreamStore::compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactReport {
    /// Sealed segments rewritten and deleted.
    pub segments_in: usize,
    /// Live records carried into the replacement segment.
    pub records: usize,
    /// Bytes of dead snapshot versions reclaimed.
    pub reclaimed_bytes: u64,
}

/// What recovery found when the store was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Store files present.
    pub files: usize,
    /// Records scanned across them (durable or not).
    pub records: usize,
    /// Streams in the rebuilt index (latest durable snapshot each).
    pub streams: usize,
    /// Bytes rolled back: appended after the last durable group-commit
    /// of their file (torn by the crash, physically truncated in the
    /// active file, logically ignored in sealed ones).
    pub truncated_bytes: u64,
    /// Wall-clock of the replay, nanoseconds.
    pub duration_ns: u64,
}

/// The store's degraded-mode signal, for operators and the engine's
/// `/store` endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreHealth {
    /// `true` while the latest group-commit failed: parked state is held
    /// in RAM and served correctly, but is not yet durable. Cleared by
    /// the next successful commit.
    pub degraded: bool,
    /// I/O errors observed since open (the `store.io_errors` counter).
    pub io_errors: u64,
    /// The most recent error, if any.
    pub last_error: Option<StoreError>,
}

/// A point-in-time snapshot of the store's shape and counters — the
/// payload of the `/store` introspection route.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreStatus {
    /// Streams currently parked in the store.
    pub parked: usize,
    /// Records buffered but not yet group-committed.
    pub pending_records: usize,
    /// Encoded bytes of the pending records.
    pub pending_bytes: usize,
    /// Store files (including the active WAL).
    pub segments: usize,
    /// Bytes of records the index still points at.
    pub live_bytes: u64,
    /// Bytes of dead snapshot versions awaiting compaction.
    pub dead_bytes: u64,
    /// Group commits completed.
    pub commits: u64,
    /// Records made durable across all commits.
    pub commit_records: u64,
    /// Segment seals.
    pub seals: u64,
    /// Compactions completed and bytes they reclaimed.
    pub compactions: u64,
    /// Bytes reclaimed by compaction.
    pub reclaimed_bytes: u64,
    /// Snapshots read back from disk ([`StreamStore::unpark`]).
    pub disk_unparks: u64,
    /// I/O errors observed since open.
    pub io_errors: u64,
    /// Whether the store is currently degraded (see [`StoreHealth`]).
    pub degraded: bool,
    /// What recovery found at open.
    pub recovery: RecoveryReport,
}

/// Where a stream's newest record lives.
#[derive(Debug, Clone, Copy)]
enum Loc {
    /// Index into `Inner::pending` (not yet durable).
    Pending(usize),
    /// A durable record.
    File { file: u32, offset: u64, len: u32 },
}

#[derive(Debug)]
struct Entry {
    /// The record's global sequence (newest wins at recovery).
    seq: u64,
    /// `true` while the stream is parked here; cleared on unpark but the
    /// durable bytes are kept, so a crash resurrects the last parked
    /// state.
    parked: bool,
    loc: Loc,
}

struct Pending {
    stream: u64,
    seq: u64,
    kind: RecordKind,
    payload: Vec<u8>,
}

#[derive(Debug, Clone, Copy, Default)]
struct FileMeta {
    /// Durable logical length (file header + records up to the last
    /// commit marker).
    len: u64,
    /// Bytes of records the index points at.
    live: u64,
}

#[derive(Default)]
struct Stats {
    appends: u64,
    append_bytes: u64,
    commits: u64,
    commit_records: u64,
    seals: u64,
    compactions: u64,
    reclaimed_bytes: u64,
    disk_unparks: u64,
    io_errors: u64,
}

impl Stats {
    fn delta(&self, since: &Stats) -> Stats {
        Stats {
            appends: self.appends - since.appends,
            append_bytes: self.append_bytes - since.append_bytes,
            commits: self.commits - since.commits,
            commit_records: self.commit_records - since.commit_records,
            seals: self.seals - since.seals,
            compactions: self.compactions - since.compactions,
            reclaimed_bytes: self.reclaimed_bytes - since.reclaimed_bytes,
            disk_unparks: self.disk_unparks - since.disk_unparks,
            io_errors: self.io_errors - since.io_errors,
        }
    }

    fn copy(&self) -> Stats {
        self.delta(&Stats::default())
    }
}

struct Inner {
    index: HashMap<u64, Entry>,
    pending: Vec<Pending>,
    pending_bytes: usize,
    files: BTreeMap<u32, FileMeta>,
    /// The file new commits append to (the WAL). Usually the
    /// highest-numbered file; a compaction output can briefly outnumber
    /// it, which is fine — recovery merges by sequence, not file order.
    active: u32,
    next_seq: u64,
    last_commit_at: Instant,
    degraded: bool,
    last_error: Option<StoreError>,
    stats: Stats,
    /// Counter values already emitted by `flush_trace` (deltas since).
    emitted: Stats,
    fsync_ns: Histogram,
    recovery: RecoveryReport,
}

/// A store file's name, `seg-` plus the file number zero-padded to eight
/// digits, built on the stack: the unpark path names a file per read.
struct FileName {
    buf: [u8; 14],
    len: usize,
}

impl std::ops::Deref for FileName {
    type Target = str;

    fn deref(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("ASCII by construction")
    }
}

fn file_name(no: u32) -> FileName {
    let mut digits = [b'0'; 10];
    let mut rest = no;
    let mut used = 0;
    while rest > 0 {
        digits[9 - used] = b'0' + (rest % 10) as u8;
        rest /= 10;
        used += 1;
    }
    let width = used.max(8);
    let mut buf = [0u8; 14];
    buf[..4].copy_from_slice(b"seg-");
    buf[4..4 + width].copy_from_slice(&digits[10 - width..]);
    FileName {
        buf,
        len: 4 + width,
    }
}

fn parse_file_name(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("seg-")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The durable tier under the serving engine's park/unpark path: an
/// append-only log of HOMF snapshot records with group commit, sealed
/// segments, compaction and crash recovery.
///
/// # Write path
///
/// [`Self::park`] is **infallible and instant**: it buffers the record
/// in RAM and indexes it, so the engine's eviction path never blocks on
/// the disk and never loses in-process state — a failing disk degrades
/// *durability* (the [`StoreHealth::degraded`] signal), never serving.
/// [`Self::commit`] appends every pending record plus one commit marker
/// to the active file and issues **one** fsync — the group commit that
/// amortizes the barrier across all shards' evictions since the last
/// one. [`Self::maybe_commit`] applies the cadence/byte policy.
///
/// # Recovery
///
/// [`Self::open`] replays every file: records become durable at each
/// commit marker; a torn tail (bytes after the last marker) is rolled
/// back — physically truncated in the active file, ignored in sealed
/// ones — and the per-stream index is rebuilt by taking the
/// highest-sequence record per stream across all files. Damage that is
/// not a torn tail (bad file header, unexpected file) is a typed
/// [`StoreError`], never a panic and never a partially-recovered entry.
pub struct StreamStore {
    io: Arc<dyn StoreIo>,
    options: StoreOptions,
    obs: Obs,
    inner: Mutex<Inner>,
}

impl StreamStore {
    /// Open (creating if needed) the store in directory `dir` with
    /// env-driven options, replaying any existing files.
    pub fn open(dir: impl AsRef<Path>) -> Result<StreamStore, StoreError> {
        let dir = dir.as_ref();
        let io = FsIo::open(dir).map_err(|e| io_err("open", &dir.display().to_string(), e))?;
        Self::open_with(Arc::new(io), StoreOptions::from_env()?)
    }

    /// [`Self::open`] with explicit I/O and options — the seam the fault
    /// and corruption tests inject through.
    pub fn open_with(
        io: Arc<dyn StoreIo>,
        options: StoreOptions,
    ) -> Result<StreamStore, StoreError> {
        let t0 = Instant::now();
        let mut names: Vec<(u32, String)> = Vec::new();
        for name in io.list().map_err(|e| io_err("list", ".", e))? {
            match parse_file_name(&name) {
                Some(no) => names.push((no, name)),
                None => {
                    return Err(StoreError::Corrupt {
                        file: name,
                        offset: 0,
                        what: "unexpected file in store directory",
                    })
                }
            }
        }
        names.sort_unstable();
        let highest = names.last().map(|&(no, _)| no);

        struct Winner {
            seq: u64,
            kind: RecordKind,
            file: u32,
            offset: u64,
            len: u32,
        }
        let mut merged: HashMap<u64, Winner> = HashMap::new();
        let mut files: BTreeMap<u32, FileMeta> = BTreeMap::new();
        let mut max_seq = 0u64;
        let mut records = 0usize;
        let mut truncated = 0u64;

        for &(no, ref name) in &names {
            let bytes = io.read(name).map_err(|e| io_err("read", name, e))?;
            if bytes.is_empty() {
                files.insert(no, FileMeta::default());
                continue;
            }
            if !is_segment_header(&bytes) {
                if Some(no) == highest && bytes.len() < SEGMENT_HEADER_LEN {
                    // A crash between creating the newest file and
                    // writing its header: nothing in it was ever
                    // committed, so it is an empty segment.
                    io.truncate(name, 0)
                        .map_err(|e| io_err("truncate", name, e))?;
                    truncated += bytes.len() as u64;
                    files.insert(no, FileMeta::default());
                    continue;
                }
                return Err(StoreError::Corrupt {
                    file: name.clone(),
                    offset: 0,
                    what: "bad segment header",
                });
            }
            let mut at = SEGMENT_HEADER_LEN;
            let mut durable = SEGMENT_HEADER_LEN;
            let mut staged: Vec<(u64, u64, RecordKind, u64, u32)> = Vec::new();
            while at < bytes.len() {
                match decode_at(&bytes, at) {
                    Ok((rec, len)) => {
                        records += 1;
                        match rec.kind {
                            RecordKind::Snapshot | RecordKind::Tombstone => {
                                staged.push((rec.stream, rec.seq, rec.kind, at as u64, len as u32));
                            }
                            RecordKind::Commit => {
                                for (stream, seq, kind, offset, rlen) in staged.drain(..) {
                                    max_seq = max_seq.max(seq);
                                    let winner = Winner {
                                        seq,
                                        kind,
                                        file: no,
                                        offset,
                                        len: rlen,
                                    };
                                    match merged.get(&stream) {
                                        Some(cur) if cur.seq > seq => {}
                                        _ => {
                                            merged.insert(stream, winner);
                                        }
                                    }
                                }
                                max_seq = max_seq.max(rec.seq);
                                durable = at + len;
                            }
                        }
                        at += len;
                    }
                    // Frame boundary lost: everything from here on was
                    // never covered by a marker, i.e. never durable.
                    Err(_) => break,
                }
            }
            if durable < bytes.len() {
                truncated += (bytes.len() - durable) as u64;
                if Some(no) == highest {
                    io.truncate(name, durable as u64)
                        .map_err(|e| io_err("truncate", name, e))?;
                }
            }
            files.insert(
                no,
                FileMeta {
                    len: durable as u64,
                    live: 0,
                },
            );
        }

        let mut index: HashMap<u64, Entry> = HashMap::new();
        for (stream, w) in merged {
            if w.kind == RecordKind::Snapshot {
                if let Some(meta) = files.get_mut(&w.file) {
                    meta.live += u64::from(w.len);
                }
                index.insert(
                    stream,
                    Entry {
                        seq: w.seq,
                        parked: true,
                        loc: Loc::File {
                            file: w.file,
                            offset: w.offset,
                            len: w.len,
                        },
                    },
                );
            }
        }

        let recovery = RecoveryReport {
            files: names.len(),
            records,
            streams: index.len(),
            truncated_bytes: truncated,
            duration_ns: t0.elapsed().as_nanos() as u64,
        };
        let obs = options.sink.clone();
        if obs.enabled() {
            obs.gauge("store.recovery_ns", recovery.duration_ns as f64);
            obs.gauge("store.recovered_streams", recovery.streams as f64);
            if recovery.truncated_bytes > 0 {
                obs.count("store.truncated_bytes", recovery.truncated_bytes);
            }
        }
        Ok(StreamStore {
            io,
            obs,
            inner: Mutex::new(Inner {
                index,
                pending: Vec::new(),
                pending_bytes: 0,
                active: highest.unwrap_or(0),
                files,
                next_seq: max_seq + 1,
                last_commit_at: Instant::now(),
                degraded: false,
                last_error: None,
                stats: Stats::default(),
                emitted: Stats::default(),
                fsync_ns: Histogram::new(),
                recovery,
            }),
            options,
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Park `stream`'s snapshot. Infallible: the record is buffered and
    /// indexed immediately; durability follows at the next group commit.
    /// A newer park of the same stream supersedes the older version
    /// (which becomes dead bytes for compaction to reclaim).
    pub fn park(&self, stream: u64, snapshot: Vec<u8>) {
        let mut inner = self.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let idx = inner.pending.len();
        inner.pending_bytes += encoded_len(snapshot.len());
        inner.pending.push(Pending {
            stream,
            seq,
            kind: RecordKind::Snapshot,
            payload: snapshot,
        });
        inner.stats.appends += 1;
        let old = inner.index.insert(
            stream,
            Entry {
                seq,
                parked: true,
                loc: Loc::Pending(idx),
            },
        );
        if let Some(Entry {
            loc: Loc::File { file, len, .. },
            ..
        }) = old
        {
            if let Some(meta) = inner.files.get_mut(&file) {
                meta.live = meta.live.saturating_sub(u64::from(len));
            }
        }
    }

    /// Take `stream`'s parked snapshot out of the store, marking it
    /// resident (the durable bytes are kept: if the process dies before
    /// the stream is next parked, recovery serves this state again).
    /// `Ok(None)` when the stream is not parked here.
    pub fn unpark(&self, stream: u64) -> Result<Option<Vec<u8>>, StoreError> {
        let mut inner = self.lock();
        let Some(entry) = inner.index.get(&stream) else {
            return Ok(None);
        };
        if !entry.parked {
            return Ok(None);
        }
        let loc = entry.loc;
        let payload = match loc {
            Loc::Pending(i) => inner.pending[i].payload.clone(),
            Loc::File { file, offset, len } => {
                inner.stats.disk_unparks += 1;
                self.read_payload(&mut inner, file, offset, len)?
            }
        };
        inner
            .index
            .get_mut(&stream)
            .expect("entry checked above")
            .parked = false;
        Ok(Some(payload))
    }

    /// Read `stream`'s parked snapshot without unparking it (the
    /// introspection path). `Ok(None)` when the stream is not parked.
    pub fn get(&self, stream: u64) -> Result<Option<Vec<u8>>, StoreError> {
        let mut inner = self.lock();
        let Some(entry) = inner.index.get(&stream) else {
            return Ok(None);
        };
        if !entry.parked {
            return Ok(None);
        }
        match entry.loc {
            Loc::Pending(i) => Ok(Some(inner.pending[i].payload.clone())),
            Loc::File { file, offset, len } => {
                self.read_payload(&mut inner, file, offset, len).map(Some)
            }
        }
    }

    /// Read and verify one durable record (one positioned read of its
    /// indexed length) and return its payload in the read's own buffer.
    fn read_payload(
        &self,
        inner: &mut Inner,
        file: u32,
        offset: u64,
        len: u32,
    ) -> Result<Vec<u8>, StoreError> {
        let name = file_name(file);
        let bytes = self
            .io
            .read_at(&name, offset, len as usize)
            .map_err(|e| read_failed(inner, &name, e))?;
        into_payload(bytes)
            .ok_or_else(|| corrupt(inner, &name, offset, "indexed record failed to decode"))
    }

    /// Mark `stream` resident without reading it (the engine installed
    /// its state through another path, e.g. an explicit restore). The
    /// durable bytes are kept. Returns whether the stream was parked.
    pub fn mark_resident(&self, stream: u64) -> bool {
        let mut inner = self.lock();
        match inner.index.get_mut(&stream) {
            Some(e) if e.parked => {
                e.parked = false;
                true
            }
            _ => false,
        }
    }

    /// Forget `stream`: append a tombstone (durable at the next commit)
    /// and drop it from the index. Returns whether the store knew it.
    pub fn remove(&self, stream: u64) -> bool {
        let mut inner = self.lock();
        let Some(old) = inner.index.remove(&stream) else {
            return false;
        };
        if let Loc::File { file, len, .. } = old.loc {
            if let Some(meta) = inner.files.get_mut(&file) {
                meta.live = meta.live.saturating_sub(u64::from(len));
            }
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.pending_bytes += encoded_len(0);
        inner.pending.push(Pending {
            stream,
            seq,
            kind: RecordKind::Tombstone,
            payload: Vec::new(),
        });
        inner.stats.appends += 1;
        true
    }

    /// Group-commit every pending record: one append of records + commit
    /// marker, one fsync. On failure the records stay buffered (and
    /// served) in RAM, the store turns [`StoreHealth::degraded`] and the
    /// next commit retries — an I/O error here degrades durability,
    /// never correctness.
    pub fn commit(&self) -> Result<CommitReport, StoreError> {
        let mut inner = self.lock();
        self.commit_inner(&mut inner)
    }

    /// [`Self::commit`] if the cadence or pending-byte policy says it is
    /// due; `Ok(None)` otherwise. The engine calls this once per batch.
    pub fn maybe_commit(&self) -> Result<Option<CommitReport>, StoreError> {
        let mut inner = self.lock();
        if inner.pending.is_empty() {
            return Ok(None);
        }
        let due = inner.degraded
            || inner.pending_bytes >= self.options.pending_bytes
            || inner.last_commit_at.elapsed()
                >= Duration::from_micros(self.options.commit_interval_us);
        if !due {
            return Ok(None);
        }
        self.commit_inner(&mut inner).map(Some)
    }

    fn commit_inner(&self, inner: &mut Inner) -> Result<CommitReport, StoreError> {
        if inner.pending.is_empty() {
            return Ok(CommitReport::default());
        }
        let file_no = inner.active;
        let name = file_name(file_no);
        let pre_len = inner.files.get(&file_no).map_or(0, |m| m.len);

        let mut buf = Vec::with_capacity(inner.pending_bytes + 64);
        if pre_len == 0 {
            buf.extend_from_slice(&segment_header());
        }
        let mut off = pre_len.max(SEGMENT_HEADER_LEN as u64);
        let mut locs: Vec<(u64, u64, u64, u32)> = Vec::with_capacity(inner.pending.len());
        for p in &inner.pending {
            let len = encode_into(&mut buf, p.kind, p.stream, p.seq, &p.payload);
            locs.push((p.stream, p.seq, off, len as u32));
            off += len as u64;
        }
        let marker_seq = inner.next_seq;
        inner.next_seq += 1;
        off += encode_into(&mut buf, RecordKind::Commit, 0, marker_seq, &[]) as u64;

        if let Err(e) = self.io.append(&name, &buf) {
            // The append may have torn the file's tail; cut it back so a
            // retried commit does not land after garbage. If even the
            // truncate fails, abandon this file for appends — recovery
            // ignores a non-active file's bytes past its last marker.
            if self.io.truncate(&name, pre_len).is_err() {
                let next = inner.files.keys().next_back().map_or(0, |&n| n + 1);
                inner.active = next.max(inner.active + 1);
            }
            inner.stats.io_errors += 1;
            inner.degraded = true;
            let err = io_err("append", &name, e);
            inner.last_error = Some(err.clone());
            return Err(err);
        }
        let t_sync = Instant::now();
        let sync_res = self.io.sync(&name);
        let fsync_ns = t_sync.elapsed().as_nanos() as u64;
        inner.fsync_ns.record(fsync_ns as f64);

        // Whether or not the fsync succeeded, the bytes are readable in
        // the file: move the index over (a later successful fsync of the
        // same file makes them durable too).
        for (stream, seq, offset, len) in locs {
            if let Some(e) = inner.index.get_mut(&stream) {
                if e.seq == seq {
                    e.loc = Loc::File {
                        file: file_no,
                        offset,
                        len,
                    };
                    if let Some(meta) = inner.files.get_mut(&file_no) {
                        meta.live += u64::from(len);
                    } else {
                        inner.files.insert(
                            file_no,
                            FileMeta {
                                len: 0,
                                live: u64::from(len),
                            },
                        );
                    }
                }
            }
        }
        let records = inner.pending.len();
        let bytes = buf.len();
        inner.pending.clear();
        inner.pending_bytes = 0;
        inner.files.entry(file_no).or_default().len = off;
        inner.last_commit_at = Instant::now();
        inner.stats.commits += 1;
        inner.stats.commit_records += records as u64;
        inner.stats.append_bytes += bytes as u64;

        if let Err(e) = sync_res {
            inner.stats.io_errors += 1;
            inner.degraded = true;
            let err = io_err("sync", &name, e);
            inner.last_error = Some(err.clone());
            return Err(err);
        }
        inner.degraded = false;

        let mut sealed = false;
        if off >= self.options.segment_bytes {
            inner.stats.seals += 1;
            sealed = true;
            let next = inner.files.keys().next_back().map_or(0, |&n| n + 1);
            inner.active = next.max(inner.active + 1);
        }
        if sealed && self.options.auto_compact && compact_worthwhile(inner) {
            // Best-effort: a failed compaction is counted and reported
            // but never fails the commit that triggered it.
            let _ = self.compact_inner(inner);
        }
        Ok(CommitReport {
            records,
            bytes,
            fsync_ns,
        })
    }

    /// Rewrite every sealed segment's live records into one fresh
    /// segment and delete the sources, reclaiming dead snapshot
    /// versions. Crash-safe: the replacement is fsynced (ending in a
    /// commit marker) before any source is deleted, and recovery merges
    /// duplicate sequences idempotently.
    pub fn compact(&self) -> Result<CompactReport, StoreError> {
        let mut inner = self.lock();
        self.compact_inner(&mut inner)
    }

    fn compact_inner(&self, inner: &mut Inner) -> Result<CompactReport, StoreError> {
        let sealed: Vec<u32> = inner
            .files
            .keys()
            .copied()
            .filter(|&no| no != inner.active)
            .collect();
        if sealed.is_empty() {
            return Ok(CompactReport::default());
        }
        let out_no = inner
            .files
            .keys()
            .next_back()
            .map_or(0, |&n| n + 1)
            .max(inner.active + 1);
        let out_name = file_name(out_no);

        // Gather the records to carry over in file order, so the output
        // order is deterministic and each source file is read front to
        // back in spans. Records are copied verbatim after a full check
        // (the encoding is deterministic, so a copy equals a re-encode).
        let mut moves: Vec<(u32, u64, u32, u64, u64)> = inner
            .index
            .iter()
            .filter_map(|(&stream, e)| match e.loc {
                Loc::File { file, offset, len } if sealed.binary_search(&file).is_ok() => {
                    Some((file, offset, len, stream, e.seq))
                }
                _ => None,
            })
            .collect();
        moves.sort_unstable();
        // Sized exactly up front: the output is the largest buffer of a
        // compaction, and growing it by doubling would over-allocate it.
        let out_len =
            SEGMENT_HEADER_LEN + moves.iter().map(|m| m.2 as usize).sum::<usize>() + encoded_len(0);
        let mut buf = Vec::with_capacity(out_len);
        buf.extend_from_slice(&segment_header());
        let mut new_locs: Vec<(u64, u64, u64, u32)> = Vec::with_capacity(moves.len());
        for group in moves.chunk_by(|a, b| a.0 == b.0) {
            let name = file_name(group[0].0);
            let last = group[group.len() - 1];
            let mut span = SpanReader::new(last.1 + u64::from(last.2));
            for &(_, offset, len, stream, seq) in group {
                let rec = span
                    .record(&*self.io, &name, offset, len as usize)
                    .map_err(|e| read_failed(inner, &name, e))?;
                if !matches!(decode_at(rec, 0), Ok((_, n)) if n == rec.len()) {
                    return Err(corrupt(
                        inner,
                        &name,
                        offset,
                        "indexed record failed to decode during compaction",
                    ));
                }
                new_locs.push((stream, seq, buf.len() as u64, len));
                buf.extend_from_slice(rec);
            }
        }
        let marker_seq = inner.next_seq;
        inner.next_seq += 1;
        encode_into(&mut buf, RecordKind::Commit, 0, marker_seq, &[]);

        let write = self
            .io
            .append(&out_name, &buf)
            .and_then(|()| self.io.sync(&out_name));
        if let Err(e) = write {
            let _ = self.io.remove(&out_name);
            inner.stats.io_errors += 1;
            let err = io_err("append", &out_name, e);
            inner.last_error = Some(err.clone());
            return Err(err);
        }

        // The replacement is durable: repoint the index, then drop the
        // sources (a crash between the two just leaves idempotent
        // duplicates for recovery's sequence merge).
        let mut live = 0u64;
        for (stream, seq, offset, len) in new_locs {
            if let Some(e) = inner.index.get_mut(&stream) {
                if e.seq == seq {
                    e.loc = Loc::File {
                        file: out_no,
                        offset,
                        len,
                    };
                    live += u64::from(len);
                }
            }
        }
        inner.files.insert(
            out_no,
            FileMeta {
                len: buf.len() as u64,
                live,
            },
        );
        let mut reclaimed = 0u64;
        for no in &sealed {
            if let Some(meta) = inner.files.remove(no) {
                reclaimed += meta.len;
            }
            // A sealed file that never reached the disk (nothing was
            // ever committed to it) is already gone.
            let name = file_name(*no);
            match self.io.remove(&name) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    inner.stats.io_errors += 1;
                    inner.last_error = Some(io_err("remove", &name, e));
                }
                _ => {}
            }
        }
        let reclaimed = reclaimed.saturating_sub(buf.len() as u64);
        inner.stats.compactions += 1;
        inner.stats.reclaimed_bytes += reclaimed;
        Ok(CompactReport {
            segments_in: sealed.len(),
            records: moves.len(),
            reclaimed_bytes: reclaimed,
        })
    }

    /// Streams currently parked in the store.
    pub fn parked_len(&self) -> usize {
        self.lock().index.values().filter(|e| e.parked).count()
    }

    /// The ids of every parked stream, in unspecified order.
    pub fn parked_ids(&self) -> Vec<u64> {
        self.lock()
            .index
            .iter()
            .filter(|(_, e)| e.parked)
            .map(|(&s, _)| s)
            .collect()
    }

    /// Whether `stream` is parked in the store.
    pub fn contains(&self, stream: u64) -> bool {
        self.lock().index.get(&stream).is_some_and(|e| e.parked)
    }

    /// The degraded-mode signal (see [`StoreHealth`]).
    pub fn health(&self) -> StoreHealth {
        let inner = self.lock();
        StoreHealth {
            degraded: inner.degraded,
            io_errors: inner.stats.io_errors,
            last_error: inner.last_error.clone(),
        }
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> RecoveryReport {
        self.lock().recovery
    }

    /// Point-in-time shape and counters (the `/store` payload).
    pub fn status(&self) -> StoreStatus {
        let inner = self.lock();
        let mut live_bytes = 0u64;
        let mut dead_bytes = 0u64;
        let mut segments = 0usize;
        for meta in inner.files.values() {
            if meta.len == 0 {
                continue;
            }
            segments += 1;
            live_bytes += meta.live;
            dead_bytes += meta
                .len
                .saturating_sub(meta.live + SEGMENT_HEADER_LEN as u64);
        }
        StoreStatus {
            parked: inner.index.values().filter(|e| e.parked).count(),
            pending_records: inner.pending.len(),
            pending_bytes: inner.pending_bytes,
            segments,
            live_bytes,
            dead_bytes,
            commits: inner.stats.commits,
            commit_records: inner.stats.commit_records,
            seals: inner.stats.seals,
            compactions: inner.stats.compactions,
            reclaimed_bytes: inner.stats.reclaimed_bytes,
            disk_unparks: inner.stats.disk_unparks,
            io_errors: inner.stats.io_errors,
            degraded: inner.degraded,
            recovery: inner.recovery,
        }
    }

    /// Emit the `store.*` metrics accumulated since the last flush (a
    /// no-op when unobserved). The serving engine chains this onto its
    /// own `flush_trace`.
    pub fn flush_trace(&self) {
        if !self.obs.enabled() {
            return;
        }
        let (delta, fsync, parked, pending_bytes, segments) = {
            let mut inner = self.lock();
            let delta = inner.stats.delta(&inner.emitted);
            inner.emitted = inner.stats.copy();
            let fsync = std::mem::replace(&mut inner.fsync_ns, Histogram::new());
            let parked = inner.index.values().filter(|e| e.parked).count();
            let segments = inner.files.values().filter(|m| m.len > 0).count();
            (delta, fsync, parked, inner.pending_bytes, segments)
        };
        for (name, value) in [
            ("store.appends", delta.appends),
            ("store.append_bytes", delta.append_bytes),
            ("store.commits", delta.commits),
            ("store.commit_records", delta.commit_records),
            ("store.seals", delta.seals),
            ("store.compactions", delta.compactions),
            ("store.reclaimed_bytes", delta.reclaimed_bytes),
            ("store.unparks", delta.disk_unparks),
            ("store.io_errors", delta.io_errors),
        ] {
            if value > 0 {
                self.obs.count(name, value);
            }
        }
        if fsync.count() > 0 {
            self.obs.hist("store.fsync_ns", &fsync);
        }
        self.obs.gauge("store.parked", parked as f64);
        self.obs.gauge("store.pending_bytes", pending_bytes as f64);
        self.obs.gauge("store.segments", segments as f64);
    }
}

/// Whether the dead fraction of the sealed segments justifies an
/// automatic compaction (over half their bytes are dead).
fn compact_worthwhile(inner: &Inner) -> bool {
    let mut total = 0u64;
    let mut live = 0u64;
    for (&no, meta) in &inner.files {
        if no != inner.active && meta.len > 0 {
            total += meta.len;
            live += meta.live + SEGMENT_HEADER_LEN as u64;
        }
    }
    total > 0 && total.saturating_sub(live) * 2 > total
}

/// Count and record a failed read of `name`.
fn read_failed(inner: &mut Inner, name: &str, e: std::io::Error) -> StoreError {
    inner.stats.io_errors += 1;
    let err = io_err("read", name, e);
    inner.last_error = Some(err.clone());
    err
}

/// Record an indexed record at `offset` of `name` that failed its check.
fn corrupt(inner: &mut Inner, name: &str, offset: u64, what: &'static str) -> StoreError {
    let err = StoreError::Corrupt {
        file: name.to_string(),
        offset,
        what,
    };
    inner.last_error = Some(err.clone());
    err
}

/// Forward-only reader of records in one file, in ascending offset
/// order, for compaction. Each [`StoreIo::read_at`] runs to the end of
/// the [`COMPACT_SPAN`]-aligned span it starts in (or to `limit`, the end
/// of the file's last wanted record), so a file costs at most one read
/// per span it occupies — never one per record — and the buffer holds at
/// most the current record plus one span.
struct SpanReader {
    /// File bytes `[base, base + buf.len())`.
    buf: Vec<u8>,
    base: u64,
    limit: u64,
}

impl SpanReader {
    fn new(limit: u64) -> SpanReader {
        SpanReader {
            buf: Vec::new(),
            base: 0,
            limit,
        }
    }

    /// The `len` bytes at `offset`, which must end by `limit`; offsets
    /// must not decrease between calls.
    fn record(
        &mut self,
        io: &dyn StoreIo,
        name: &str,
        offset: u64,
        len: usize,
    ) -> std::io::Result<&[u8]> {
        let end = offset + len as u64;
        debug_assert!(offset >= self.base && end <= self.limit);
        if offset >= self.base + self.buf.len() as u64 {
            // Past everything read so far: start over at the record.
            self.buf.clear();
            self.base = offset;
        }
        while self.base + (self.buf.len() as u64) < end {
            // Drop the bytes before this record, then read on to the end
            // of the current span.
            self.buf.drain(..(offset - self.base) as usize);
            self.base = offset;
            let from = self.base + self.buf.len() as u64;
            let to = ((from / COMPACT_SPAN + 1) * COMPACT_SPAN).min(self.limit);
            let bytes = io.read_at(name, from, (to - from) as usize)?;
            if self.buf.is_empty() {
                self.buf = bytes;
            } else {
                self.buf.extend_from_slice(&bytes);
            }
        }
        let at = (offset - self.base) as usize;
        Ok(&self.buf[at..at + len])
    }
}

impl fmt::Debug for StreamStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("StreamStore")
            .field("parked", &inner.index.values().filter(|e| e.parked).count())
            .field("pending", &inner.pending.len())
            .field("segments", &inner.files.len())
            .field("degraded", &inner.degraded)
            .finish_non_exhaustive()
    }
}

impl Drop for StreamStore {
    fn drop(&mut self) {
        let _ = self.commit();
        self.flush_trace();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultIo, IoOp, MemIo};

    fn options(segment_bytes: u64) -> StoreOptions {
        StoreOptions {
            segment_bytes,
            auto_compact: false,
            sink: Obs::none(),
            ..StoreOptions::default()
        }
    }

    /// `len` bytes that differ per stream, version and position.
    fn payload(stream: u64, version: u8, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (stream as usize * 31 + i * 7 + usize::from(version)) as u8)
            .collect()
    }

    /// Park `streams` with `len`-byte payloads at `version`, committing
    /// every `per_commit` parks (sealing segments on the way).
    fn fill(store: &StreamStore, streams: std::ops::Range<u64>, len: usize, version: u8) {
        for s in streams {
            store.park(s, payload(s, version, len));
            if s % 50 == 49 {
                store.commit().expect("commit");
            }
        }
        store.commit().expect("commit");
    }

    /// Bytes and count of the sealed (compactable) files.
    fn sealed(store: &StreamStore) -> (u64, u64) {
        let inner = store.lock();
        let metas = inner
            .files
            .iter()
            .filter(|&(&no, m)| no != inner.active && m.len > 0);
        metas.fold((0, 0), |(bytes, files), (_, m)| (bytes + m.len, files + 1))
    }

    /// Live records in sealed files.
    fn sealed_records(store: &StreamStore) -> usize {
        let inner = store.lock();
        inner
            .index
            .values()
            .filter(|e| matches!(e.loc, Loc::File { file, .. } if file != inner.active))
            .count()
    }

    /// Live records in sealed files that cross a span boundary.
    fn straddlers(store: &StreamStore) -> usize {
        let inner = store.lock();
        inner
            .index
            .values()
            .filter(|e| match e.loc {
                Loc::File { file, offset, len } => {
                    file != inner.active
                        && offset / COMPACT_SPAN != (offset + u64::from(len) - 1) / COMPACT_SPAN
                }
                Loc::Pending(_) => false,
            })
            .count()
    }

    fn read_calls_of(fault: &FaultIo<MemIo>, f: impl FnOnce()) -> u64 {
        let before = fault.calls(IoOp::Read);
        f();
        fault.calls(IoOp::Read) - before
    }

    fn file_list(io: &dyn StoreIo) -> Vec<String> {
        let mut names = io.list().expect("list");
        names.sort();
        names
    }

    #[test]
    fn file_names_match_the_padded_format() {
        for no in [0u32, 7, 12_345_678, 99_999_999, 100_000_000, u32::MAX] {
            assert_eq!(&*file_name(no), format!("seg-{no:08}"));
        }
    }

    #[test]
    fn compaction_reads_spans_not_records() {
        let fault = Arc::new(FaultIo::new(MemIo::new()));
        let store = StreamStore::open_with(fault.clone() as Arc<dyn StoreIo>, options(1_500_000))
            .expect("open");
        fill(&store, 0..3000, 1000, 1);
        // Supersede every seventh stream, so the live records have gaps.
        for s in (0..3000u64).step_by(7) {
            store.park(s, payload(s, 2, 1000));
        }
        store.commit().expect("commit");
        let (bytes, files) = sealed(&store);
        assert!(
            files >= 2 && bytes > 2 * COMPACT_SPAN,
            "{files} files, {bytes} B"
        );
        assert!(
            straddlers(&store) > 0,
            "some record crosses a span boundary"
        );
        let mut report = None;
        let reads = read_calls_of(&fault, || report = Some(store.compact().expect("compact")));
        let bound = bytes.div_ceil(COMPACT_SPAN) + files;
        assert!(
            reads <= bound,
            "{reads} reads for {bytes} B in {files} files"
        );
        assert!(report.expect("compacted").records > 1000);
        for s in 0..3000u64 {
            let version = if s % 7 == 0 { 2 } else { 1 };
            assert_eq!(
                store.get(s).expect("get"),
                Some(payload(s, version, 1000)),
                "{s}"
            );
        }
    }

    #[test]
    fn compaction_output_is_in_file_order() {
        let io = Arc::new(MemIo::new());
        let store =
            StreamStore::open_with(io.clone() as Arc<dyn StoreIo>, options(4096)).expect("open");
        fill(&store, 0..200, 40, 1);
        store.park(1000, payload(1000, 1, 40));
        store.commit().expect("commit");
        store.compact().expect("compact");
        // Sorted by old (file, offset), the streams keep their park order.
        let inner = store.lock();
        let mut at: Vec<(u64, u64)> = inner
            .index
            .iter()
            .filter_map(|(&s, e)| match e.loc {
                Loc::File { file, offset, .. } if file != inner.active => Some((offset, s)),
                _ => None,
            })
            .collect();
        assert_eq!(at.len(), 200, "the sealed streams moved to one output");
        at.sort_unstable();
        let order: Vec<u64> = at.into_iter().map(|(_, s)| s).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }

    #[test]
    fn a_record_larger_than_the_span_compacts_whole() {
        let fault = Arc::new(FaultIo::new(MemIo::new()));
        let store =
            StreamStore::open_with(fault.clone() as Arc<dyn StoreIo>, options(4096)).expect("open");
        let big = (COMPACT_SPAN + COMPACT_SPAN / 2) as usize;
        fill(&store, 0..10, 100, 1);
        store.park(77, payload(77, 1, big));
        store.commit().expect("commit");
        fill(&store, 10..20, 100, 1);
        let (bytes, files) = sealed(&store);
        let reads = read_calls_of(&fault, || {
            store.compact().expect("compact");
        });
        assert!(
            reads <= bytes.div_ceil(COMPACT_SPAN) + files,
            "{reads} reads"
        );
        assert_eq!(store.get(77).expect("get"), Some(payload(77, 1, big)));
        for s in 0..20u64 {
            assert_eq!(store.get(s).expect("get"), Some(payload(s, 1, 100)));
        }
    }

    #[test]
    fn a_corrupt_record_mid_span_fails_compaction_and_keeps_the_sources() {
        let io = Arc::new(MemIo::new());
        let store =
            StreamStore::open_with(io.clone() as Arc<dyn StoreIo>, options(200_000)).expect("open");
        fill(&store, 0..600, 500, 1);
        let (file, offset) = {
            let inner = store.lock();
            match inner.index[&300].loc {
                Loc::File { file, offset, .. } => (file, offset),
                Loc::Pending(_) => panic!("stream 300 is committed"),
            }
        };
        assert_ne!(file, store.lock().active, "the damaged record is sealed");
        let mut disk = io.dump();
        disk.get_mut(&*file_name(file)).expect("sealed file")[offset as usize + 40] ^= 0x10;
        io.install(disk);
        let names = file_list(&*io);
        match store.compact() {
            Err(StoreError::Corrupt {
                file: f, offset: o, ..
            }) => assert_eq!((f, o), (file_name(file).to_string(), offset)),
            other => panic!("expected a typed Corrupt error, got {other:?}"),
        }
        assert_eq!(
            file_list(&*io),
            names,
            "no output written, no source removed"
        );
        for s in (0..600u64).filter(|&s| s != 300) {
            assert_eq!(
                store.get(s).expect("index unchanged"),
                Some(payload(s, 1, 500))
            );
        }
        assert!(matches!(store.get(300), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn a_read_fault_mid_compaction_changes_nothing() {
        let fault = Arc::new(FaultIo::new(MemIo::new()));
        let store = StreamStore::open_with(fault.clone() as Arc<dyn StoreIo>, options(700_000))
            .expect("open");
        fill(&store, 0..2000, 1000, 1);
        let moving = sealed_records(&store);
        assert!(moving > 0);
        let names = file_list(&*fault);
        fault.fail_after(IoOp::Read, 1);
        let err = store.compact().expect_err("read fault surfaces");
        assert!(matches!(err, StoreError::Io { op: "read", .. }), "{err:?}");
        assert_eq!(store.health().io_errors, 1);
        fault.heal();
        assert_eq!(
            file_list(&*fault),
            names,
            "no output written, no source removed"
        );
        for s in 0..2000u64 {
            assert_eq!(store.get(s).expect("get"), Some(payload(s, 1, 1000)));
        }
        let report = store.compact().expect("healed compaction");
        assert_eq!(report.records, moving);
        for s in 0..2000u64 {
            assert_eq!(store.get(s).expect("get"), Some(payload(s, 1, 1000)));
        }
    }
}
