//! A counting, timing [`StorageBackend`] around [`FileBackend`].
//!
//! Every file the engine opens (`data.db`, `wal.log`) is wrapped: reads,
//! writes, bytes and syncs are counted per file with the time spent in
//! each, and each call is a trace span. When the shadow is on, the
//! wrapper also keeps, per file, the bytes covered by the last `sync` —
//! exactly what a power loss at this instant would leave on the device.
//! The crash check reopens the database from that shadow.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sbdms_kernel::error::Result;
use sbdms_storage::backend::{BackendFile, FileBackend, StorageBackend};

use crate::trace;

/// Per-file I/O counters.
#[derive(Debug, Default)]
pub struct FileCounters {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
    pub syncs: AtomicU64,
    pub read_ns: AtomicU64,
    pub write_ns: AtomicU64,
    pub sync_ns: AtomicU64,
}

/// A point-in-time copy of [`FileCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct IoSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub syncs: u64,
    pub read_ns: u64,
    pub write_ns: u64,
    pub sync_ns: u64,
}

impl IoSnapshot {
    /// Counts accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            syncs: self.syncs - earlier.syncs,
            read_ns: self.read_ns - earlier.read_ns,
            write_ns: self.write_ns - earlier.write_ns,
            sync_ns: self.sync_ns - earlier.sync_ns,
        }
    }

    /// Element-wise sum.
    pub fn plus(&self, o: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads + o.reads,
            writes: self.writes + o.writes,
            bytes_read: self.bytes_read + o.bytes_read,
            bytes_written: self.bytes_written + o.bytes_written,
            syncs: self.syncs + o.syncs,
            read_ns: self.read_ns + o.read_ns,
            write_ns: self.write_ns + o.write_ns,
            sync_ns: self.sync_ns + o.sync_ns,
        }
    }
}

impl FileCounters {
    fn snapshot(&self) -> IoSnapshot {
        let l = |a: &AtomicU64| a.load(Ordering::Relaxed);
        IoSnapshot {
            reads: l(&self.reads),
            writes: l(&self.writes),
            bytes_read: l(&self.bytes_read),
            bytes_written: l(&self.bytes_written),
            syncs: l(&self.syncs),
            read_ns: l(&self.read_ns),
            write_ns: l(&self.write_ns),
            sync_ns: l(&self.sync_ns),
        }
    }
}

/// A change not yet covered by a sync.
#[derive(Debug, Clone)]
enum Pending {
    Write(u64, Vec<u8>),
    SetLen(u64),
}

/// The durable image of one file plus the changes since its last sync.
#[derive(Debug, Default)]
pub struct Shadow {
    durable: Vec<u8>,
    pending: Vec<Pending>,
}

impl Shadow {
    fn apply(&mut self, change: Pending) {
        match change {
            Pending::Write(off, data) => {
                let end = off as usize + data.len();
                if self.durable.len() < end {
                    self.durable.resize(end, 0);
                }
                self.durable[off as usize..end].copy_from_slice(&data);
            }
            Pending::SetLen(len) => self.durable.resize(len as usize, 0),
        }
    }
}

struct FileState {
    counters: FileCounters,
    /// `None` when the shadow is off.
    shadow: Option<Mutex<Shadow>>,
    /// Serialises syncs so their batches reach the shadow in order.
    sync_order: Mutex<()>,
    /// While set, syncs leave the shadow as it was: the device silently
    /// drops the writes they should have made durable.
    dropping: AtomicBool,
    /// Span names for this file's read/write/sync calls.
    names: [&'static str; 3],
}

/// The counting backend.
pub struct CountingBackend {
    inner: FileBackend,
    shadow: bool,
    files: Mutex<BTreeMap<String, Arc<FileState>>>,
}

impl CountingBackend {
    /// Files under `root`; `shadow` keeps the synced image for the crash
    /// check.
    pub fn new(root: &Path, shadow: bool) -> CountingBackend {
        CountingBackend {
            inner: FileBackend::new(root),
            shadow,
            files: Mutex::new(BTreeMap::new()),
        }
    }

    /// Counters of the file called `name` (zero if never opened).
    pub fn io(&self, name: &str) -> IoSnapshot {
        self.files
            .lock()
            .expect("file table poisoned")
            .get(name)
            .map(|f| f.counters.snapshot())
            .unwrap_or_default()
    }

    /// The bytes each file would hold after a power loss now: its image
    /// as of its last sync.
    pub fn synced_image(&self) -> HashMap<String, Vec<u8>> {
        self.files
            .lock()
            .expect("file table poisoned")
            .iter()
            .filter_map(|(name, f)| {
                let shadow = f.shadow.as_ref()?;
                Some((
                    name.clone(),
                    shadow.lock().expect("shadow poisoned").durable.clone(),
                ))
            })
            .collect()
    }

    #[cfg(test)]
    /// Make syncs of file `name` drop their writes from the shadow
    /// (`on`) or keep them again (crash-check test hook).
    pub fn drop_syncs(&self, name: &str, on: bool) {
        if let Some(f) = self.files.lock().expect("file table poisoned").get(name) {
            f.dropping.store(on, Ordering::SeqCst);
        }
    }
}

fn span_names(name: &str) -> [&'static str; 3] {
    match name {
        "wal.log" => ["device.read.wal", "device.write.wal", "device.sync.wal"],
        "data.db" => ["device.read.data", "device.write.data", "device.sync.data"],
        _ => [
            "device.read.other",
            "device.write.other",
            "device.sync.other",
        ],
    }
}

impl StorageBackend for CountingBackend {
    fn open(&self, name: &str) -> Result<Arc<dyn BackendFile>> {
        let inner = self.inner.open(name)?;
        let state = self
            .files
            .lock()
            .expect("file table poisoned")
            .entry(name.to_string())
            .or_insert_with(|| {
                Arc::new(FileState {
                    counters: FileCounters::default(),
                    shadow: self.shadow.then(|| Mutex::new(Shadow::default())),
                    sync_order: Mutex::new(()),
                    dropping: AtomicBool::new(false),
                    names: span_names(name),
                })
            })
            .clone();
        Ok(Arc::new(CountingFile { inner, state }))
    }
}

struct CountingFile {
    inner: Arc<dyn BackendFile>,
    state: Arc<FileState>,
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

impl BackendFile for CountingFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let _span = trace::span(self.state.names[0]);
        let start = Instant::now();
        let out = self.inner.read_at(offset, buf);
        let c = &self.state.counters;
        c.read_ns.fetch_add(elapsed_ns(start), Ordering::Relaxed);
        c.reads.fetch_add(1, Ordering::Relaxed);
        c.bytes_read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        out
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let _span = trace::span(self.state.names[1]);
        let start = Instant::now();
        let out = match &self.state.shadow {
            // Write and record under one lock, so the pending list holds
            // the file's writes in the order the device saw them.
            Some(shadow) => {
                let mut sh = shadow.lock().expect("shadow poisoned");
                let out = self.inner.write_at(offset, data);
                if out.is_ok() {
                    sh.pending.push(Pending::Write(offset, data.to_vec()));
                }
                out
            }
            None => self.inner.write_at(offset, data),
        };
        let c = &self.state.counters;
        c.write_ns.fetch_add(elapsed_ns(start), Ordering::Relaxed);
        c.writes.fetch_add(1, Ordering::Relaxed);
        c.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        out
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        match &self.state.shadow {
            Some(shadow) => {
                let mut sh = shadow.lock().expect("shadow poisoned");
                let out = self.inner.set_len(len);
                if out.is_ok() {
                    sh.pending.push(Pending::SetLen(len));
                }
                out
            }
            None => self.inner.set_len(len),
        }
    }

    fn sync(&self) -> Result<()> {
        let _span = trace::span(self.state.names[2]);
        let start = Instant::now();
        let out = match &self.state.shadow {
            Some(shadow) => {
                let _order = self.state.sync_order.lock().expect("sync order poisoned");
                // Changes that completed before the sync began are the
                // ones it makes durable; later ones wait for the next.
                let batch = std::mem::take(&mut shadow.lock().expect("shadow poisoned").pending);
                let out = self.inner.sync();
                let mut sh = shadow.lock().expect("shadow poisoned");
                if self.state.dropping.load(Ordering::SeqCst) {
                    // Lost on the device: neither durable nor pending.
                } else if out.is_ok() {
                    for change in batch {
                        sh.apply(change);
                    }
                } else {
                    // Not durable: keep the batch ahead of newer changes.
                    let newer = std::mem::replace(&mut sh.pending, batch);
                    sh.pending.extend(newer);
                }
                out
            }
            None => self.inner.sync(),
        };
        let c = &self.state.counters;
        c.sync_ns.fetch_add(elapsed_ns(start), Ordering::Relaxed);
        c.syncs.fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// Write a synced image out as real files under `dir`.
pub fn materialise(image: &HashMap<String, Vec<u8>>, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (name, bytes) in image {
        std::fs::write(dir.join(name), bytes)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_shadows_only_synced_bytes() {
        let dir = crate::test_dir("shadow");
        let b = CountingBackend::new(&dir, true);
        let f = b.open("wal.log").unwrap();
        f.write_at(0, b"abc").unwrap();
        f.sync().unwrap();
        f.write_at(3, b"def").unwrap();
        assert_eq!(b.synced_image()["wal.log"], b"abc");
        let io = b.io("wal.log");
        assert_eq!((io.writes, io.bytes_written, io.syncs), (2, 6, 1));
        f.sync().unwrap();
        assert_eq!(b.synced_image()["wal.log"], b"abcdef");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
