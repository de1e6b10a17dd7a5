//! The benchmark's own tracing: spans recorded around the calls it makes
//! into each layer, and a timing wrapper around the WAL's storage.
//!
//! Nothing here reaches inside the program: spans bracket public calls,
//! and [`TimedDir`] is a [`WalDir`] the benchmark hands the WAL in place
//! of the bare [`tsad_wal::FsDir`]. Spans stay in memory until the run
//! ends and are then written out in one file.

use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tsad_wal::{WalDir, WalFile};

use crate::gen::Done;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
struct SpanRec {
    parent: usize,
    name: String,
    start: u64,
    end: u64,
    /// `(connection, request number)` for client request spans.
    request: Option<(u32, u64)>,
}

/// Span recorder; inert when tracing is off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
}

/// Parent id of a top-level span.
pub const ROOT: usize = 0;

impl Tracer {
    /// A tracer, recording only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id (1-based; 0 is the root).
    pub fn begin(&mut self, name: &str, parent: usize) -> usize {
        if !self.on {
            return ROOT;
        }
        let start = self.now();
        self.spans.push(SpanRec {
            parent,
            name: name.to_string(),
            start,
            end: start,
            request: None,
        });
        self.spans.len()
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        if self.on && id != ROOT {
            let now = self.now();
            self.spans[id - 1].end = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Records a span timed elsewhere (on another thread).
    pub fn add(&mut self, name: &str, parent: usize, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(SpanRec {
                parent,
                name: name.to_string(),
                start: self.offset_of(start),
                end: self.offset_of(end),
                request: None,
            });
        }
    }

    /// Records the generator's answered requests as `client.request`
    /// spans with a `client.send_lag` child each. `gen_epoch_ns` is the
    /// generator's epoch on this tracer's clock.
    pub fn add_requests(&mut self, parent: usize, gen_epoch_ns: u64, done: &[Done]) {
        if !self.on {
            return;
        }
        self.spans.reserve(done.len() * 2);
        for d in done {
            self.spans.push(SpanRec {
                parent,
                name: "client.request".to_string(),
                start: gen_epoch_ns + d.sched,
                end: gen_epoch_ns + d.acked,
                request: Some((d.conn, d.seq)),
            });
            let id = self.spans.len();
            self.spans.push(SpanRec {
                parent: id,
                name: "client.send_lag".to_string(),
                start: gen_epoch_ns + d.sched,
                end: gen_epoch_ns + d.sent,
                request: Some((d.conn, d.seq)),
            });
        }
    }

    /// Nanoseconds since this tracer started, for aligning other clocks.
    pub fn offset_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one tab-separated line:
    /// `id parent name start_ns end_ns conn seq`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tconn\tseq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let (conn, seq) = s.request.map_or((String::new(), String::new()), |(c, q)| {
                (c.to_string(), q.to_string())
            });
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{conn}\t{seq}",
                i + 1,
                s.parent,
                s.name,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// Time and call counts the [`TimedDir`] wrapper saw.
#[derive(Debug, Default)]
pub struct IoStats {
    write_ns: AtomicU64,
    writes: AtomicU64,
    sync_ns: AtomicU64,
    syncs: AtomicU64,
    read_ns: AtomicU64,
}

/// A copy of [`IoStats`] at one moment.
#[derive(Debug, Default, Clone, Copy)]
pub struct IoSnapshot {
    /// Nanoseconds inside file appends.
    pub write_ns: u64,
    /// File appends.
    pub writes: u64,
    /// Nanoseconds inside file syncs.
    pub sync_ns: u64,
    /// File syncs.
    pub syncs: u64,
    /// Nanoseconds inside whole-file reads.
    pub read_ns: u64,
}

impl IoStats {
    /// The current totals.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            write_ns: self.write_ns.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            read_ns: self.read_ns.load(Ordering::Relaxed),
        }
    }
}

impl IoSnapshot {
    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            write_ns: self.write_ns - earlier.write_ns,
            writes: self.writes - earlier.writes,
            sync_ns: self.sync_ns - earlier.sync_ns,
            syncs: self.syncs - earlier.syncs,
            read_ns: self.read_ns - earlier.read_ns,
        }
    }
}

fn timed<R>(ns: &AtomicU64, count: Option<&AtomicU64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    if let Some(c) = count {
        c.fetch_add(1, Ordering::Relaxed);
    }
    r
}

/// A [`WalDir`] that times the appends, syncs and reads of another.
#[derive(Debug)]
pub struct TimedDir<D> {
    inner: D,
    stats: Arc<IoStats>,
}

impl<D> TimedDir<D> {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: D, stats: Arc<IoStats>) -> Self {
        Self { inner, stats }
    }
}

/// File handle of a [`TimedDir`].
#[derive(Debug)]
pub struct TimedFile<F> {
    inner: F,
    stats: Arc<IoStats>,
}

impl<F: WalFile> WalFile for TimedFile<F> {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        let s = &self.stats;
        timed(&s.write_ns, Some(&s.writes), || self.inner.append(buf))
    }

    fn sync(&mut self) -> io::Result<()> {
        let s = &self.stats;
        timed(&s.sync_ns, Some(&s.syncs), || self.inner.sync())
    }
}

impl<D: WalDir> WalDir for TimedDir<D> {
    type File = TimedFile<D::File>;

    fn create(&self, name: &str) -> io::Result<Self::File> {
        Ok(TimedFile {
            inner: self.inner.create(name)?,
            stats: Arc::clone(&self.stats),
        })
    }

    fn open_append(&self, name: &str) -> io::Result<Self::File> {
        Ok(TimedFile {
            inner: self.inner.open_append(name)?,
            stats: Arc::clone(&self.stats),
        })
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        timed(&self.stats.read_ns, None, || self.inner.read(name))
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        self.inner.size(name)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsad_wal::MemDir;

    #[test]
    fn timed_dir_counts_appends_syncs_and_reads() {
        let stats = Arc::new(IoStats::default());
        let dir = TimedDir::new(MemDir::new(), Arc::clone(&stats));
        let mut f = dir.create("a").unwrap();
        f.append(b"xy").unwrap();
        f.append(b"z").unwrap();
        f.sync().unwrap();
        assert_eq!(dir.read("a").unwrap(), b"xyz");
        let s = stats.snapshot();
        assert_eq!((s.writes, s.syncs), (2, 1));
        assert_eq!(s.since(&s).writes, 0);
    }

    #[test]
    fn tracer_is_inert_when_off_and_nests_when_on() {
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", ROOT, || 7), 7);
        assert_eq!(off.len(), 0);

        let mut on = Tracer::new(true);
        let outer = on.begin("outer", ROOT);
        on.span("inner", outer, || ());
        on.end(outer);
        assert_eq!(on.len(), 2);
        assert_eq!(on.spans[1].parent, outer);
        assert!(on.spans[0].end >= on.spans[1].end);
    }
}
