//! The store's I/O seam: every byte the store reads or writes goes
//! through the [`StoreIo`] trait, so tests can fail any append or fsync
//! deterministically ([`FaultIo`]) or run the whole store in memory
//! ([`MemIo`]) and corrupt its files byte by byte.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The store's view of a directory of flat files, named by short relative
/// names (no separators). All methods are `&self`: the store serializes
/// its own mutations, and implementations guard any internal caches.
///
/// The contract is deliberately small — append, fsync, read, truncate,
/// remove, list — because that is the entire vocabulary of a WAL:
/// nothing in the store ever overwrites a byte it has written.
pub trait StoreIo: Send + Sync {
    /// Append `bytes` at the end of `file`, creating it if absent. A
    /// partial write followed by an error is allowed (the store recovers
    /// from torn tails); bytes are *not* durable until [`Self::sync`].
    fn append(&self, file: &str, bytes: &[u8]) -> io::Result<()>;
    /// Flush `file`'s written bytes to durable storage (fsync). The
    /// group-commit barrier: everything appended before a successful
    /// sync survives a crash.
    fn sync(&self, file: &str) -> io::Result<()>;
    /// Read the whole of `file`.
    fn read(&self, file: &str) -> io::Result<Vec<u8>>;
    /// Read exactly `len` bytes at `offset` (an error if the range is
    /// not fully inside the file). Never creates `file`: reading a
    /// missing file is a [`io::ErrorKind::NotFound`] error.
    fn read_at(&self, file: &str, offset: u64, len: usize) -> io::Result<Vec<u8>>;
    /// Cut `file` down to `len` bytes (a no-op if already shorter).
    fn truncate(&self, file: &str, len: u64) -> io::Result<()>;
    /// Delete `file`.
    fn remove(&self, file: &str) -> io::Result<()>;
    /// The names of every file present, in unspecified order.
    fn list(&self) -> io::Result<Vec<String>>;
}

/// [`StoreIo`] over a real directory. Open handles are cached so the
/// append → fsync hot path costs no `open(2)` per commit.
pub struct FsIo {
    root: PathBuf,
    handles: Mutex<HashMap<String, File>>,
}

impl FsIo {
    /// Open (creating if needed) `root` as the store directory.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<FsIo> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(FsIo {
            root,
            handles: Mutex::new(HashMap::new()),
        })
    }

    /// The directory this store lives in.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    /// Run `f` on `file`'s cached handle, opening it first if needed.
    /// Only the write paths pass `create`; a read of a missing file is
    /// `NotFound` and leaves the directory untouched.
    fn with_handle<R>(
        &self,
        file: &str,
        create: bool,
        f: impl FnOnce(&mut File) -> io::Result<R>,
    ) -> io::Result<R> {
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(h) = handles.get_mut(file) {
            return f(h);
        }
        let mut h = OpenOptions::new()
            .read(true)
            .append(true)
            .create(create)
            .open(self.root.join(file))?;
        let out = f(&mut h);
        handles.insert(file.to_string(), h);
        out
    }
}

impl StoreIo for FsIo {
    fn append(&self, file: &str, bytes: &[u8]) -> io::Result<()> {
        self.with_handle(file, true, |h| h.write_all(bytes))
    }

    fn sync(&self, file: &str) -> io::Result<()> {
        self.with_handle(file, true, |h| h.sync_data())
    }

    fn read(&self, file: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.root.join(file))
    }

    fn read_at(&self, file: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        // One positioned read (`pread`), no seek.
        self.with_handle(file, false, |h| {
            let mut buf = vec![0u8; len];
            h.read_exact_at(&mut buf, offset)?;
            Ok(buf)
        })
    }

    fn truncate(&self, file: &str, len: u64) -> io::Result<()> {
        self.with_handle(file, true, |h| h.set_len(len))
    }

    fn remove(&self, file: &str) -> io::Result<()> {
        self.handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(file);
        std::fs::remove_file(self.root.join(file))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        Ok(names)
    }
}

/// [`StoreIo`] over an in-memory map — the corruption property tests'
/// substrate: a "disk" whose every byte can be flipped or truncated
/// between one store's death and the next one's recovery.
#[derive(Default)]
pub struct MemIo {
    files: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemIo {
    /// An empty in-memory directory.
    pub fn new() -> MemIo {
        MemIo::default()
    }

    /// Copy of every file, for a test to damage and feed to a fresh
    /// [`MemIo`] via [`Self::install`].
    pub fn dump(&self) -> BTreeMap<String, Vec<u8>> {
        self.files.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Replace the directory's contents wholesale.
    pub fn install(&self, files: BTreeMap<String, Vec<u8>>) {
        *self.files.lock().unwrap_or_else(|e| e.into_inner()) = files;
    }
}

impl StoreIo for MemIo {
    fn append(&self, file: &str, bytes: &[u8]) -> io::Result<()> {
        self.files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(file.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self, _file: &str) -> io::Result<()> {
        Ok(())
    }

    fn read(&self, file: &str) -> io::Result<Vec<u8>> {
        self.files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(file)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, file.to_string()))
    }

    fn read_at(&self, file: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let files = self.files.lock().unwrap_or_else(|e| e.into_inner());
        let bytes = files
            .get(file)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, file.to_string()))?;
        let start = usize::try_from(offset)
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "offset beyond file"))?;
        let end = start.checked_add(len).filter(|&e| e <= bytes.len());
        match end {
            Some(end) => Ok(bytes[start..end].to_vec()),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past end of file",
            )),
        }
    }

    fn truncate(&self, file: &str, len: u64) -> io::Result<()> {
        let mut files = self.files.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(bytes) = files.get_mut(file) {
            bytes.truncate(len as usize);
        }
        Ok(())
    }

    fn remove(&self, file: &str) -> io::Result<()> {
        self.files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(file)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, file.to_string()))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self
            .files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect())
    }
}

/// Which [`StoreIo`] operation a [`FaultIo`] schedule targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// [`StoreIo::append`].
    Append,
    /// [`StoreIo::sync`].
    Sync,
    /// [`StoreIo::read`] and [`StoreIo::read_at`].
    Read,
    /// [`StoreIo::truncate`].
    Truncate,
    /// [`StoreIo::remove`].
    Remove,
}

const N_OPS: usize = 5;

/// Deterministic fault injection around any [`StoreIo`]: after a
/// configured number of successes, an operation kind fails every call
/// until [`Self::heal`]. This is how the fault-injection tests prove
/// that a dying disk degrades durability but never changes a prediction.
pub struct FaultIo<I> {
    inner: I,
    /// Remaining successes per op; `u64::MAX` = never fail.
    allow: [AtomicU64; N_OPS],
    /// Calls observed per op (failed or not).
    calls: [AtomicU64; N_OPS],
}

impl<I: StoreIo> FaultIo<I> {
    /// Wrap `inner` with no faults armed.
    pub fn new(inner: I) -> FaultIo<I> {
        FaultIo {
            inner,
            allow: std::array::from_fn(|_| AtomicU64::new(u64::MAX)),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Let `op` succeed `n` more times, then fail every call until
    /// [`Self::heal`].
    pub fn fail_after(&self, op: IoOp, n: u64) {
        self.allow[op as usize].store(n, Ordering::SeqCst);
    }

    /// Disarm every fault.
    pub fn heal(&self) {
        for a in &self.allow {
            a.store(u64::MAX, Ordering::SeqCst);
        }
    }

    /// The wrapped I/O, for tests to inspect the underlying "disk".
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Calls observed for `op` so far (failed or not).
    pub fn calls(&self, op: IoOp) -> u64 {
        self.calls[op as usize].load(Ordering::SeqCst)
    }

    fn gate(&self, op: IoOp) -> io::Result<()> {
        self.calls[op as usize].fetch_add(1, Ordering::SeqCst);
        let allow = &self.allow[op as usize];
        loop {
            let n = allow.load(Ordering::SeqCst);
            if n == u64::MAX {
                return Ok(());
            }
            if n == 0 {
                return Err(io::Error::other(format!("injected {op:?} fault")));
            }
            if allow
                .compare_exchange(n, n - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Ok(());
            }
        }
    }
}

impl<I: StoreIo> StoreIo for FaultIo<I> {
    fn append(&self, file: &str, bytes: &[u8]) -> io::Result<()> {
        self.gate(IoOp::Append)?;
        self.inner.append(file, bytes)
    }

    fn sync(&self, file: &str) -> io::Result<()> {
        self.gate(IoOp::Sync)?;
        self.inner.sync(file)
    }

    fn read(&self, file: &str) -> io::Result<Vec<u8>> {
        self.gate(IoOp::Read)?;
        self.inner.read(file)
    }

    fn read_at(&self, file: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.gate(IoOp::Read)?;
        self.inner.read_at(file, offset, len)
    }

    fn truncate(&self, file: &str, len: u64) -> io::Result<()> {
        self.gate(IoOp::Truncate)?;
        self.inner.truncate(file, len)
    }

    fn remove(&self, file: &str) -> io::Result<()> {
        self.gate(IoOp::Remove)?;
        self.inner.remove(file)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_never_create_files() {
        let dir = std::env::temp_dir().join(format!("hom-fsio-reads-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let io = FsIo::open(&dir).expect("open");
        io.append("seg-00000000", b"HOMS").expect("append");
        let before = io.list().expect("list");
        for (offset, len) in [(0, 0), (0, 4), (9, 1)] {
            let err = io
                .read_at("seg-00000001", offset, len)
                .expect_err("missing file");
            assert_eq!(err.kind(), io::ErrorKind::NotFound);
        }
        assert_eq!(io.list().expect("list"), before, "no file appeared");
        // Positioned reads of an existing file ignore the append cursor.
        assert_eq!(io.read_at("seg-00000000", 1, 3).expect("read"), b"OMS");
        io.append("seg-00000000", b"!").expect("append");
        assert_eq!(io.read("seg-00000000").expect("read"), b"HOMS!");
        assert_eq!(
            io.read_at("seg-00000000", 3, 4)
                .expect_err("past the end")
                .kind(),
            io::ErrorKind::UnexpectedEof
        );
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
