//! The log itself: segment format, append path, recovery, truncation.
//!
//! ## On-disk layout
//!
//! A log is a flat directory of segment files `wal-<first_seq>.seg` plus
//! at most one checkpoint marker `ckpt-<seq>.tsck`. Every segment starts
//! with a header:
//!
//! ```text
//! magic "TSWL" · version u32 · first_seq u64 · fp_len u32 · fingerprint
//! · digest u64                       (FNV-1a over everything before it)
//! ```
//!
//! followed by records:
//!
//! ```text
//! len u32 · kind u8 · seq u64 · payload[len] · digest u64
//! ```
//!
//! `kind` is `DATA` (payload = `len/16` entries of `series_id u64` +
//! `f64::to_bits` value, the batch for sequence number `seq`) or `SEAL`
//! (empty payload, written as the final record when a segment rotates;
//! its `seq` is the first sequence number of the *next* segment). All
//! integers are little-endian; digests are [`tsad_core::ckpt::digest64`]
//! (the TSCK convention).
//!
//! ## The torn-tail rule
//!
//! Only the **last** segment of a log may end mid-record: that is what a
//! crash during an append leaves behind. Recovery truncates the tail at
//! the first byte that does not parse as a complete, digest-valid,
//! correctly-sequenced record and reports how many bytes it dropped — it
//! never panics and never guesses. Any scan anomaly in a *sealed* (non-
//! last) segment cannot be produced by a crash, only by corruption or
//! operator error, so recovery refuses with a precise [`WalError`] rather
//! than silently dropping admitted data.

use std::io;
use std::time::{Duration, Instant};

use tsad_core::ckpt::{digest64, CkptReader, CkptWriter};

use crate::storage::{WalDir, WalFile};
use crate::{WAL_APPEND_NS, WAL_FSYNC_NS, WAL_GROUP_COMMIT_BATCHES, WAL_RECOVERY_TRUNCATED_BYTES};

const MAGIC: [u8; 4] = *b"TSWL";
const VERSION: u32 = 1;
const REC_DATA: u8 = 1;
const REC_SEAL: u8 = 2;
/// Fixed bytes around a record payload: `len u32 + kind u8 + seq u64`
/// before, `digest u64` after.
const REC_HEAD: usize = 4 + 1 + 8;
const REC_TRAILER: usize = 8;
/// Bytes per `(series_id, value)` entry in a `DATA` payload.
pub const ENTRY_BYTES: usize = 16;
/// Size of a `SEAL` record.
const SEAL_BYTES: u64 = (REC_HEAD + REC_TRAILER) as u64;
/// Most points one record can carry: the record length field is a `u32`
/// counting payload bytes, so anything larger would silently wrap it and
/// write a self-disagreeing record. [`Wal::append`] refuses bigger
/// batches up front (`InvalidInput`) instead.
pub const MAX_RECORD_POINTS: usize = u32::MAX as usize / ENTRY_BYTES;

fn seg_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.seg")
}

fn ckpt_name(seq: u64) -> String {
    format!("ckpt-{seq:020}.tsck")
}

fn parse_seg_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

fn parse_ckpt_name(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".tsck")?
        .parse()
        .ok()
}

// ─── configuration ──────────────────────────────────────────────────────

/// When appended records are forced to durable storage.
#[derive(Debug, Clone, PartialEq)]
pub enum FsyncPolicy {
    /// `fsync` after every batch: an ACK implies the batch survives any
    /// crash. The strongest (and slowest) policy.
    PerBatch,
    /// `fsync` once per group: after `batches` appends or once the oldest
    /// unsynced batch is `max_pending_micros` old, whichever comes first.
    /// A crash may lose up to one group of ACKed batches.
    ///
    /// The age bound is evaluated on the append path and by [`Wal::tick`];
    /// if appends stop *and* nothing drives `tick`, already-appended
    /// batches stay unsynced until the next append or an explicit
    /// [`Wal::flush`]. The ingest server drives it: an idle worker sleeps
    /// until [`Wal::sync_deadline`], then ticks.
    GroupCommit {
        /// Sync after this many unsynced batches.
        batches: u32,
        /// ... or once the oldest unsynced batch is this old.
        max_pending_micros: u64,
    },
    /// Never `fsync` on the append path (segment seals still sync). A
    /// crash may lose everything since the last seal or checkpoint.
    Off,
}

impl FsyncPolicy {
    /// Stable label used in benchmark documents.
    pub fn label(&self) -> &'static str {
        match self {
            FsyncPolicy::PerBatch => "per-batch",
            FsyncPolicy::GroupCommit { .. } => "group",
            FsyncPolicy::Off => "off",
        }
    }
}

/// Log configuration.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotation threshold: a segment is sealed once appending the next
    /// record (plus the seal) would push it past this size. Every segment
    /// holds at least one record regardless.
    pub segment_bytes: u64,
    /// Durability policy for the append path.
    pub policy: FsyncPolicy,
    /// Detector-factory fingerprint stamped into every segment header;
    /// recovery refuses a log recorded under a different fingerprint
    /// (replaying z-score batches into a CUSUM fleet is not a recovery,
    /// it is a silent corruption).
    pub fingerprint: String,
}

impl WalConfig {
    /// Defaults: 64 MiB segments, per-batch fsync.
    pub fn new(fingerprint: impl Into<String>) -> Self {
        Self {
            segment_bytes: 64 << 20,
            policy: FsyncPolicy::PerBatch,
            fingerprint: fingerprint.into(),
        }
    }
}

// ─── errors ─────────────────────────────────────────────────────────────

/// Recovery / append failures.
#[derive(Debug)]
pub enum WalError {
    /// Underlying storage failure (including simulated crashes).
    Io(io::Error),
    /// A sealed segment failed its scan — refusal, not truncation.
    Corrupt {
        /// Segment file name.
        segment: String,
        /// Byte offset of the first anomaly.
        offset: u64,
        /// What exactly failed to parse or verify.
        detail: String,
    },
    /// The log was recorded under a different detector-factory
    /// fingerprint than the one recovery is asked to replay into.
    FingerprintMismatch {
        /// Segment whose header carries the foreign fingerprint.
        segment: String,
        /// Fingerprint the recovering fleet expects.
        expected: String,
        /// Fingerprint found in the segment header.
        found: String,
    },
    /// Sequence numbers are not contiguous across checkpoint + segments.
    SequenceGap {
        /// The sequence number recovery needed next.
        expected: u64,
        /// The first sequence number actually available.
        found: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o: {e}"),
            WalError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "wal segment {segment} corrupt at byte {offset}: {detail} \
                 (sealed segments must scan clean; refusing to recover)"
            ),
            WalError::FingerprintMismatch {
                segment,
                expected,
                found,
            } => write!(
                f,
                "wal segment {segment} was recorded under detector fingerprint \
                 {found:?} but recovery expects {expected:?}; refusing to replay"
            ),
            WalError::SequenceGap { expected, found } => write!(
                f,
                "wal sequence gap: needed batch {expected} next but the log \
                 resumes at {found}; refusing to recover"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, WalError>;

// ─── codec ──────────────────────────────────────────────────────────────

fn encode_header(out: &mut Vec<u8>, first_seq: u64, fingerprint: &str) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&first_seq.to_le_bytes());
    out.extend_from_slice(&(fingerprint.len() as u32).to_le_bytes());
    out.extend_from_slice(fingerprint.as_bytes());
    let d = digest64(out);
    out.extend_from_slice(&d.to_le_bytes());
}

struct Header {
    first_seq: u64,
    fingerprint: String,
    len: usize,
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
}

fn parse_header(bytes: &[u8]) -> std::result::Result<Header, String> {
    if bytes.len() < 4 || bytes[..4] != MAGIC {
        return Err("bad or truncated magic (want \"TSWL\")".to_string());
    }
    let version = read_u32(bytes, 4).ok_or("truncated header")?;
    if version != VERSION {
        return Err(format!("unsupported segment version {version}"));
    }
    let first_seq = read_u64(bytes, 8).ok_or("truncated header")?;
    let fp_len = read_u32(bytes, 16).ok_or("truncated header")? as usize;
    let fp_end = 20usize
        .checked_add(fp_len)
        .ok_or("absurd fingerprint length")?;
    let fp_bytes = bytes.get(20..fp_end).ok_or("truncated fingerprint")?;
    let stored = read_u64(bytes, fp_end).ok_or("truncated header digest")?;
    if digest64(&bytes[..fp_end]) != stored {
        return Err("header digest mismatch".to_string());
    }
    let fingerprint =
        String::from_utf8(fp_bytes.to_vec()).map_err(|_| "fingerprint is not utf-8".to_string())?;
    Ok(Header {
        first_seq,
        fingerprint,
        len: fp_end + 8,
    })
}

/// Encodes one record into `scratch` (cleared first). The payload comes
/// from an exact-size iterator so callers can stream straight out of
/// their batch slice without building an intermediate `Vec`.
fn encode_record_into<I>(scratch: &mut Vec<u8>, kind: u8, seq: u64, points: I)
where
    I: Iterator<Item = (u64, f64)> + ExactSizeIterator,
{
    scratch.clear();
    let len = (points.len() * ENTRY_BYTES) as u32;
    scratch.extend_from_slice(&len.to_le_bytes());
    scratch.push(kind);
    scratch.extend_from_slice(&seq.to_le_bytes());
    for (id, v) in points {
        scratch.extend_from_slice(&id.to_le_bytes());
        scratch.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let d = digest64(scratch);
    scratch.extend_from_slice(&d.to_le_bytes());
}

/// Everything a linear scan of one segment body finds.
struct SegScan {
    /// Decoded `DATA` records in order.
    records: Vec<(u64, Vec<(u64, f64)>)>,
    /// Whether the scan ended on a valid `SEAL` record.
    sealed: bool,
    /// Offset of the first byte that is not part of a valid record run
    /// (== file length when the segment scans clean).
    good_len: u64,
    /// Why the scan stopped early, if it did.
    stop: Option<String>,
    /// The sequence number expected after the last valid record.
    next_seq: u64,
}

fn scan_records(bytes: &[u8], header: &Header) -> SegScan {
    let mut records = Vec::new();
    let mut offset = header.len;
    let mut expected = header.first_seq;
    let mut sealed = false;
    let mut stop = None;
    loop {
        if offset == bytes.len() {
            break;
        }
        if sealed {
            stop = Some("trailing bytes after the seal record".to_string());
            break;
        }
        let Some(len) = read_u32(bytes, offset) else {
            stop = Some("truncated record length".to_string());
            break;
        };
        let len = len as usize;
        let Some(total) = len
            .checked_add(REC_HEAD + REC_TRAILER)
            .filter(|t| offset + t <= bytes.len())
        else {
            stop = Some(format!("truncated record (declared payload {len} bytes)"));
            break;
        };
        let body = &bytes[offset..offset + REC_HEAD + len];
        let stored = read_u64(bytes, offset + REC_HEAD + len).unwrap_or(0);
        if digest64(body) != stored {
            stop = Some("record digest mismatch".to_string());
            break;
        }
        let kind = bytes[offset + 4];
        let seq = read_u64(bytes, offset + 5).unwrap_or(0);
        if seq != expected {
            stop = Some(format!("record sequence {seq}, expected {expected}"));
            break;
        }
        match kind {
            REC_DATA => {
                if !len.is_multiple_of(ENTRY_BYTES) {
                    stop = Some(format!(
                        "data payload {len} not a multiple of {ENTRY_BYTES}"
                    ));
                    break;
                }
                let mut points = Vec::with_capacity(len / ENTRY_BYTES);
                let payload = &bytes[offset + REC_HEAD..offset + REC_HEAD + len];
                for entry in payload.chunks_exact(ENTRY_BYTES) {
                    let id = u64::from_le_bytes(entry[..8].try_into().unwrap());
                    let bits = u64::from_le_bytes(entry[8..].try_into().unwrap());
                    points.push((id, f64::from_bits(bits)));
                }
                records.push((seq, points));
                expected += 1;
            }
            REC_SEAL => {
                if len != 0 {
                    stop = Some("seal record with a payload".to_string());
                    break;
                }
                sealed = true;
            }
            other => {
                stop = Some(format!("unknown record kind {other}"));
                break;
            }
        }
        offset += total;
    }
    SegScan {
        records,
        sealed,
        good_len: offset as u64,
        stop,
        next_seq: expected,
    }
}

// ─── recovery ───────────────────────────────────────────────────────────

/// One batch replayed out of the log.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredBatch {
    /// Its sequence number (contiguous from `checkpoint seq + 1`).
    pub seq: u64,
    /// The `(series_id, value)` points exactly as admitted.
    pub points: Vec<(u64, f64)>,
}

/// What recovery did, for logs and assertions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Segments scanned (before any garbage collection).
    pub segments_scanned: usize,
    /// Bytes cut off the torn tail (or a torn tail-segment header).
    pub truncated_bytes: u64,
    /// Tail segment that was truncated or removed, if any.
    pub torn_tail: Option<String>,
    /// Torn/unreadable checkpoint marker files that were discarded.
    pub dropped_checkpoints: u64,
    /// Segments removed because a checkpoint already covers them.
    pub reclaimed_segments: usize,
    /// Sequence number of the checkpoint recovery restored from.
    pub checkpoint_seq: Option<u64>,
}

#[derive(Debug, Clone)]
pub(crate) struct ResumeState {
    pub(crate) next_seq: u64,
    /// `(name, first_seq, len, records)` of a reopenable unsealed tail.
    pub(crate) tail: Option<(String, u64, u64, u64)>,
    /// Surviving sealed segments, ascending by first sequence number.
    pub(crate) sealed: Vec<(u64, String)>,
    /// The surviving checkpoint marker, if any.
    pub(crate) ckpt: Option<(u64, String)>,
}

/// The outcome of scanning a log directory: the checkpoint to restore,
/// the batches to replay after it, and the state needed to [`resume`](Wal::resume)
/// appending.
#[derive(Debug)]
pub struct Recovered {
    /// Newest digest-valid checkpoint payload, with its sequence number.
    pub checkpoint: Option<(u64, Vec<u8>)>,
    /// Batches with sequence numbers beyond the checkpoint, in order.
    pub batches: Vec<RecoveredBatch>,
    /// What the scan found and fixed.
    pub report: RecoveryReport,
    pub(crate) resume: ResumeState,
}

impl Recovered {
    /// The sequence number the next appended batch will get.
    pub fn next_seq(&self) -> u64 {
        self.resume.next_seq
    }
}

/// Scans (and where the torn-tail rule allows, repairs) the log in `dir`.
///
/// Returns the checkpoint + tail batches to rebuild the fleet from, or a
/// precise refusal: corruption in a sealed segment, a foreign detector
/// fingerprint, or a sequence gap are never silently skipped.
pub fn recover<D: WalDir>(dir: &D, cfg: &WalConfig) -> Result<Recovered> {
    let names = dir.list()?;
    let mut segs: Vec<(u64, String)> = names
        .iter()
        .filter_map(|n| parse_seg_name(n).map(|s| (s, n.clone())))
        .collect();
    segs.sort();
    let mut ckpt_files: Vec<(u64, String)> = names
        .iter()
        .filter_map(|n| parse_ckpt_name(n).map(|s| (s, n.clone())))
        .collect();
    ckpt_files.sort();

    let mut report = RecoveryReport {
        segments_scanned: segs.len(),
        ..RecoveryReport::default()
    };

    // Newest digest-valid checkpoint wins; torn ones (a crash during
    // `store_checkpoint`) are discarded, stale valid ones are removed.
    let mut checkpoint: Option<(u64, Vec<u8>)> = None;
    let mut chosen_ckpt: Option<(u64, String)> = None;
    for (seq, name) in ckpt_files.iter().rev() {
        if checkpoint.is_some() {
            dir.remove(name)?;
            continue;
        }
        match dir.read(name).ok().and_then(|bytes| {
            let mut r = CkptReader::new(&bytes).ok()?;
            let inner = r.u64().ok()?;
            let payload = r.bytes_vec().ok()?;
            (inner == *seq).then_some(payload)
        }) {
            Some(payload) => {
                checkpoint = Some((*seq, payload));
                chosen_ckpt = Some((*seq, name.clone()));
            }
            None => {
                report.dropped_checkpoints += 1;
                dir.remove(name)?;
            }
        }
    }
    let ckpt_seq = checkpoint.as_ref().map_or(0, |c| c.0);

    let mut batches = Vec::new();
    let mut expected: Option<u64> = None;
    let mut tail: Option<(String, u64, u64, u64)> = None;
    let mut tail_sealed = false;
    let mut surviving: Vec<(u64, String)> = Vec::new();
    let count = segs.len();
    for (i, (name_seq, name)) in segs.iter().enumerate() {
        let bytes = dir.read(name)?;
        let last = i + 1 == count;
        let header = match parse_header(&bytes) {
            Ok(h) => h,
            Err(detail) => {
                if last {
                    // A crash during segment creation tore the header:
                    // nothing in this file was ever ACK-durable, drop it.
                    report.truncated_bytes += bytes.len() as u64;
                    report.torn_tail = Some(name.clone());
                    dir.remove(name)?;
                    break;
                }
                return Err(WalError::Corrupt {
                    segment: name.clone(),
                    offset: 0,
                    detail,
                });
            }
        };
        if header.fingerprint != cfg.fingerprint {
            return Err(WalError::FingerprintMismatch {
                segment: name.clone(),
                expected: cfg.fingerprint.clone(),
                found: header.fingerprint,
            });
        }
        if header.first_seq != *name_seq {
            return Err(WalError::Corrupt {
                segment: name.clone(),
                offset: 8,
                detail: format!(
                    "header first_seq {} disagrees with the file name",
                    header.first_seq
                ),
            });
        }
        match expected {
            None if header.first_seq > ckpt_seq + 1 => {
                return Err(WalError::SequenceGap {
                    expected: ckpt_seq + 1,
                    found: header.first_seq,
                });
            }
            Some(e) if header.first_seq != e => {
                return Err(WalError::SequenceGap {
                    expected: e,
                    found: header.first_seq,
                });
            }
            _ => {}
        }

        let scan = scan_records(&bytes, &header);
        if !last {
            if let Some(detail) = scan.stop {
                return Err(WalError::Corrupt {
                    segment: name.clone(),
                    offset: scan.good_len,
                    detail,
                });
            }
            if !scan.sealed {
                return Err(WalError::Corrupt {
                    segment: name.clone(),
                    offset: scan.good_len,
                    detail: "segment is not sealed but is not the last".to_string(),
                });
            }
        } else {
            if scan.good_len < bytes.len() as u64 {
                dir.truncate(name, scan.good_len)?;
                let cut = bytes.len() as u64 - scan.good_len;
                report.truncated_bytes += cut;
                report.torn_tail = Some(name.clone());
                WAL_RECOVERY_TRUNCATED_BYTES.add(cut);
            }
            tail = Some((
                name.clone(),
                header.first_seq,
                scan.good_len,
                scan.records.len() as u64,
            ));
            tail_sealed = scan.sealed;
        }
        for (seq, points) in scan.records {
            if seq > ckpt_seq {
                batches.push(RecoveredBatch { seq, points });
            }
        }
        expected = Some(scan.next_seq);
        if !last {
            surviving.push((header.first_seq, name.clone()));
        }
    }

    let next_seq = expected.unwrap_or(1).max(ckpt_seq + 1);

    // The tail is only reusable for further appends if the next batch's
    // sequence number is exactly the one its record run expects; a tail
    // whose records all fall at or below the checkpoint (fsync-off crash
    // after a checkpoint) would otherwise accumulate an in-segment gap.
    let resume_tail = match tail {
        Some((name, first_seq, len, records)) if !tail_sealed => {
            if first_seq + records == next_seq {
                Some((name, first_seq, len, records))
            } else {
                report.reclaimed_segments += 1;
                dir.remove(&name)?;
                None
            }
        }
        Some((name, first_seq, _, _)) => {
            surviving.push((first_seq, name));
            None
        }
        None => None,
    };

    // Garbage-collect sealed segments a checkpoint fully covers (the
    // crash-between-checkpoint-and-truncation window): a segment is
    // covered when its successor starts at or below `ckpt_seq + 1`.
    let mut kept: Vec<(u64, String)> = Vec::new();
    for (i, seg) in surviving.iter().enumerate() {
        let next_first = surviving
            .get(i + 1)
            .map(|s| s.0)
            .or(resume_tail.as_ref().map(|t| t.1))
            .unwrap_or(next_seq);
        if next_first <= ckpt_seq + 1 {
            report.reclaimed_segments += 1;
            dir.remove(&seg.1)?;
        } else {
            kept.push(seg.clone());
        }
    }

    report.checkpoint_seq = checkpoint.as_ref().map(|c| c.0);
    Ok(Recovered {
        checkpoint,
        batches,
        report,
        resume: ResumeState {
            next_seq,
            tail: resume_tail,
            sealed: kept,
            ckpt: chosen_ckpt,
        },
    })
}

// ─── the writer ─────────────────────────────────────────────────────────

/// An open, appendable write-ahead log.
///
/// The warm append path — encode into a reusable scratch buffer, one
/// `append` on the current segment, policy-driven `sync` — performs zero
/// heap allocations (gated in `crates/bench/tests/wal_gates.rs`); segment
/// rotation and checkpointing are cold paths and may allocate.
pub struct Wal<D: WalDir> {
    dir: D,
    cfg: WalConfig,
    file: D::File,
    seg_name: String,
    seg_first_seq: u64,
    seg_len: u64,
    seg_records: u64,
    sealed: Vec<(u64, String)>,
    ckpt: Option<(u64, String)>,
    next_seq: u64,
    scratch: Vec<u8>,
    pending: u32,
    pending_since: Option<Instant>,
    fsyncs: u64,
    bytes_written: u64,
    /// Set after any I/O failure on the segment write stream (a torn
    /// append, a failed seal, a failed fsync). A poisoned log refuses
    /// every further append: writing past a possibly-torn prefix would
    /// make recovery's tail truncation swallow *later, ACKed* records.
    poisoned: bool,
}

fn open_segment<D: WalDir>(
    dir: &D,
    fingerprint: &str,
    first_seq: u64,
) -> io::Result<(D::File, String, u64)> {
    let name = seg_name(first_seq);
    let mut file = dir.create(&name)?;
    let mut header = Vec::with_capacity(64 + fingerprint.len());
    encode_header(&mut header, first_seq, fingerprint);
    file.append(&header)?;
    Ok((file, name, header.len() as u64))
}

impl<D: WalDir> Wal<D> {
    /// Creates a fresh log in `dir`. Fails if `dir` already holds
    /// segments — recover those with [`recover`] + [`resume`](Wal::resume) instead of
    /// silently shadowing them.
    pub fn create(dir: D, cfg: WalConfig) -> Result<Self> {
        if dir.list()?.iter().any(|n| parse_seg_name(n).is_some()) {
            return Err(WalError::Io(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "directory already contains wal segments; use recover + resume",
            )));
        }
        let (file, name, header_len) = open_segment(&dir, &cfg.fingerprint, 1)?;
        Ok(Self {
            dir,
            cfg,
            file,
            seg_name: name,
            seg_first_seq: 1,
            seg_len: header_len,
            seg_records: 0,
            sealed: Vec::new(),
            ckpt: None,
            next_seq: 1,
            scratch: Vec::with_capacity(4096),
            pending: 0,
            pending_since: None,
            fsyncs: 0,
            bytes_written: header_len,
            poisoned: false,
        })
    }

    /// Reopens the log described by a [`recover`] scan for appending:
    /// either continues the surviving unsealed tail or starts a fresh
    /// segment at the recovered sequence number.
    pub fn resume(dir: D, cfg: WalConfig, recovered: &Recovered) -> Result<Self> {
        let state = &recovered.resume;
        let (file, seg_name, seg_first_seq, seg_len, seg_records) = match &state.tail {
            Some((name, first_seq, len, records)) => (
                dir.open_append(name)?,
                name.clone(),
                *first_seq,
                *len,
                *records,
            ),
            None => {
                let (file, name, header_len) =
                    open_segment(&dir, &cfg.fingerprint, state.next_seq)?;
                (file, name, state.next_seq, header_len, 0)
            }
        };
        Ok(Self {
            dir,
            cfg,
            file,
            seg_name,
            seg_first_seq,
            seg_len,
            seg_records,
            sealed: state.sealed.clone(),
            ckpt: state.ckpt.clone(),
            next_seq: state.next_seq,
            scratch: Vec::with_capacity(4096),
            pending: 0,
            pending_since: None,
            fsyncs: 0,
            bytes_written: 0,
            poisoned: false,
        })
    }

    /// The sequence number the next appended batch will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Fsync calls issued so far (append path + seals + checkpoints).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Bytes appended so far (headers, records, seals, checkpoints).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Live segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Whether an earlier append-path I/O failure poisoned the log
    /// (every further append is refused until [`recover`] + [`resume`](Wal::resume)).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn check_usable(&self) -> io::Result<()> {
        if self.poisoned {
            Err(io::Error::other(
                "wal poisoned by an earlier I/O failure: the segment tail \
                 may be torn; run recovery before appending",
            ))
        } else {
            Ok(())
        }
    }

    fn sync_file(&mut self) -> io::Result<()> {
        let _g = WAL_FSYNC_NS.start();
        self.file.sync()?;
        self.fsyncs += 1;
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        // seal: an empty record whose seq is the next segment's first
        let mut buf = Vec::with_capacity(64);
        encode_record_into(&mut buf, REC_SEAL, self.next_seq, std::iter::empty());
        self.file.append(&buf)?;
        self.bytes_written += buf.len() as u64;
        // a seal always syncs: the segment's contents become immutable
        // and later recovery treats any anomaly in it as refusal-worthy
        self.sync_file()?;
        self.pending = 0;
        self.pending_since = None;
        self.sealed
            .push((self.seg_first_seq, std::mem::take(&mut self.seg_name)));
        let (file, name, header_len) =
            open_segment(&self.dir, &self.cfg.fingerprint, self.next_seq)?;
        self.file = file;
        self.seg_name = name;
        self.seg_first_seq = self.next_seq;
        self.seg_len = header_len;
        self.seg_records = 0;
        self.bytes_written += header_len;
        Ok(())
    }

    /// Appends one batch, returning its sequence number. On `Err` the
    /// record may be torn on disk and the log **poisons itself**: every
    /// further append is refused until [`recover`] truncates the torn
    /// tail. (Appending past torn bytes would put valid records behind
    /// them, and recovery's tail truncation would then silently drop
    /// those later, possibly ACKed, records.) Callers must not ACK the
    /// failed batch. Batches over [`MAX_RECORD_POINTS`] are refused with
    /// `InvalidInput` before anything is written — the log stays usable.
    pub fn append<I>(&mut self, points: I) -> io::Result<u64>
    where
        I: IntoIterator<Item = (u64, f64)>,
        I::IntoIter: ExactSizeIterator<Item = (u64, f64)>,
    {
        let _g = WAL_APPEND_NS.start();
        self.check_usable()?;
        let points = points.into_iter();
        if points.len() > MAX_RECORD_POINTS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "batch of {} points exceeds the {MAX_RECORD_POINTS} a record can carry",
                    points.len()
                ),
            ));
        }
        let r = self.append_record(points);
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }

    fn append_record<I>(&mut self, points: I) -> io::Result<u64>
    where
        I: Iterator<Item = (u64, f64)> + ExactSizeIterator,
    {
        let seq = self.next_seq;
        // Encoding before the rotation check requires a second buffer in
        // rotate(); encoding after would need the record length first.
        // The scratch holds the data record; rotate uses its own Vec.
        encode_record_into(&mut self.scratch, REC_DATA, seq, points);
        let rec_len = self.scratch.len() as u64;
        if self.seg_records > 0 && self.seg_len + rec_len + SEAL_BYTES > self.cfg.segment_bytes {
            self.rotate()?;
        }
        self.file.append(&self.scratch)?;
        self.seg_len += rec_len;
        self.seg_records += 1;
        self.bytes_written += rec_len;
        self.next_seq += 1;
        match self.cfg.policy {
            FsyncPolicy::PerBatch => self.sync_file()?,
            FsyncPolicy::GroupCommit {
                batches,
                max_pending_micros,
            } => {
                if self.pending == 0 {
                    self.pending_since = Some(Instant::now());
                }
                self.pending += 1;
                let due = self.pending >= batches
                    || self
                        .pending_since
                        .is_some_and(|t| t.elapsed().as_micros() as u64 >= max_pending_micros);
                if due {
                    self.sync_file()?;
                    WAL_GROUP_COMMIT_BATCHES.add(self.pending as u64);
                    self.pending = 0;
                    self.pending_since = None;
                }
            }
            FsyncPolicy::Off => {}
        }
        Ok(seq)
    }

    /// Forces everything appended so far to durable storage (group-commit
    /// stragglers included). A failed sync poisons the log: the kernel
    /// may have dropped the dirty pages, so later syncs cannot vouch for
    /// the earlier bytes.
    pub fn flush(&mut self) -> io::Result<()> {
        self.check_usable()?;
        if self.pending > 0 {
            WAL_GROUP_COMMIT_BATCHES.add(self.pending as u64);
            self.pending = 0;
            self.pending_since = None;
        }
        let r = self.sync_file();
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }

    /// Enforces the group-commit age bound without a new append: syncs
    /// if unsynced batches older than `max_pending_micros` are pending.
    /// Returns whether a sync happened. The ingest server calls it when
    /// an idle worker wakes at [`Wal::sync_deadline`]; without such a
    /// caller the age bound only holds while appends keep arriving (see
    /// [`FsyncPolicy::GroupCommit`]). No-op under other policies.
    pub fn tick(&mut self) -> io::Result<bool> {
        if !matches!(self.cfg.policy, FsyncPolicy::GroupCommit { .. }) {
            return Ok(false);
        }
        self.check_usable()?;
        if self.sync_deadline().is_none_or(|due| Instant::now() < due) {
            return Ok(false);
        }
        self.flush().map(|()| true)
    }

    /// When [`Wal::tick`] next has work: the oldest unsynced batch's
    /// append time plus `max_pending_micros`, while batches are pending
    /// under [`FsyncPolicy::GroupCommit`]. `None` under the other
    /// policies, with nothing pending, or on a poisoned log (which can
    /// sync nothing more).
    pub fn sync_deadline(&self) -> Option<Instant> {
        let FsyncPolicy::GroupCommit {
            max_pending_micros, ..
        } = self.cfg.policy
        else {
            return None;
        };
        if self.poisoned || self.pending == 0 {
            return None;
        }
        self.pending_since?
            .checked_add(Duration::from_micros(max_pending_micros))
    }

    /// Records a fleet checkpoint covering every batch up to and
    /// including `seq`, then truncates the log: segments whose records
    /// the checkpoint fully covers are deleted, as are older checkpoint
    /// markers. Returns the storage bytes reclaimed.
    ///
    /// Crash-safety ordering: the new marker is written and synced
    /// *before* anything is deleted, so a crash at any byte of this
    /// method leaves either the old state, both checkpoints, or the new
    /// state — recovery handles each (stale markers and covered segments
    /// are garbage-collected on the next scan).
    pub fn store_checkpoint(&mut self, seq: u64, payload: &[u8]) -> io::Result<u64> {
        // everything the checkpoint covers must be on disk first
        self.flush()?;
        let name = ckpt_name(seq);
        let mut w = CkptWriter::new();
        w.u64(seq);
        w.bytes(payload);
        let bytes = w.finish();
        let mut file = self.dir.create(&name)?;
        file.append(&bytes)?;
        {
            let _g = WAL_FSYNC_NS.start();
            file.sync()?;
            self.fsyncs += 1;
        }
        self.bytes_written += bytes.len() as u64;

        let mut reclaimed = 0u64;
        if let Some((_, old)) = self.ckpt.take() {
            reclaimed += self.dir.size(&old).unwrap_or(0);
            self.dir.remove(&old)?;
        }
        self.ckpt = Some((seq, name));
        // a sealed segment is covered when its successor starts at or
        // below seq + 1
        let mut kept = Vec::with_capacity(self.sealed.len());
        for (i, seg) in self.sealed.iter().enumerate() {
            let next_first = self.sealed.get(i + 1).map_or(self.seg_first_seq, |s| s.0);
            if next_first <= seq + 1 {
                reclaimed += self.dir.size(&seg.1).unwrap_or(0);
                self.dir.remove(&seg.1)?;
            } else {
                kept.push(seg.clone());
            }
        }
        self.sealed = kept;
        Ok(reclaimed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemDir;

    fn batch(seq: u64, n: usize) -> Vec<(u64, f64)> {
        (0..n as u64)
            .map(|i| (i, seq as f64 + i as f64 * 0.5))
            .collect()
    }

    fn cfg() -> WalConfig {
        WalConfig::new("test-fp")
    }

    #[test]
    fn roundtrip_single_segment() {
        let dir = MemDir::new();
        let mut wal = Wal::create(dir.clone(), cfg()).unwrap();
        for seq in 1..=5u64 {
            assert_eq!(wal.append(batch(seq, 3)).unwrap(), seq);
        }
        let rec = recover(&dir, &cfg()).unwrap();
        assert!(rec.checkpoint.is_none());
        assert_eq!(rec.batches.len(), 5);
        for (i, b) in rec.batches.iter().enumerate() {
            assert_eq!(b.seq, i as u64 + 1);
            assert_eq!(b.points, batch(b.seq, 3));
        }
        assert_eq!(rec.report.truncated_bytes, 0);
        assert_eq!(rec.next_seq(), 6);
    }

    #[test]
    fn rotation_produces_sealed_segments_that_recover() {
        let dir = MemDir::new();
        let mut cfg = cfg();
        cfg.segment_bytes = 160; // tiny: forces a rotation every 1-2 batches
        let mut wal = Wal::create(dir.clone(), cfg.clone()).unwrap();
        for seq in 1..=20u64 {
            wal.append(batch(seq, 4)).unwrap();
        }
        assert!(wal.segment_count() > 3, "expected rotations");
        let rec = recover(&dir, &cfg).unwrap();
        assert_eq!(rec.batches.len(), 20);
        assert_eq!(rec.next_seq(), 21);
        // resume continues the numbering
        let mut wal = Wal::resume(dir.clone(), cfg.clone(), &rec).unwrap();
        assert_eq!(wal.append(batch(21, 4)).unwrap(), 21);
        let rec = recover(&dir, &cfg).unwrap();
        assert_eq!(rec.batches.len(), 21);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = MemDir::new();
        let mut wal = Wal::create(dir.clone(), cfg()).unwrap();
        for seq in 1..=4u64 {
            wal.append(batch(seq, 3)).unwrap();
        }
        // tear the tail: chop 5 bytes off the last record
        let name = seg_name(1);
        let mut bytes = dir.file(&name).unwrap();
        let torn = bytes.len() - 5;
        bytes.truncate(torn);
        dir.put(&name, bytes);
        let rec = recover(&dir, &cfg()).unwrap();
        assert_eq!(rec.batches.len(), 3);
        assert_eq!(rec.report.truncated_bytes as usize, {
            // what remained of record 4 after the tear
            3 * ENTRY_BYTES + REC_HEAD + REC_TRAILER - 5
        });
        assert_eq!(rec.report.torn_tail.as_deref(), Some(name.as_str()));
        assert_eq!(rec.next_seq(), 4);
        // the file was physically truncated: a second recovery is clean
        let rec = recover(&dir, &cfg()).unwrap();
        assert_eq!(rec.batches.len(), 3);
        assert_eq!(rec.report.truncated_bytes, 0);
    }

    #[test]
    fn corrupt_sealed_segment_is_refused_not_truncated() {
        let dir = MemDir::new();
        let mut cfg = cfg();
        cfg.segment_bytes = 160;
        let mut wal = Wal::create(dir.clone(), cfg.clone()).unwrap();
        for seq in 1..=12u64 {
            wal.append(batch(seq, 4)).unwrap();
        }
        // flip one payload byte in the FIRST (sealed) segment
        let name = seg_name(1);
        let mut bytes = dir.file(&name).unwrap();
        let at = bytes.len() - 12;
        bytes[at] ^= 0x40;
        dir.put(&name, bytes);
        match recover(&dir, &cfg) {
            Err(WalError::Corrupt { segment, .. }) => assert_eq!(segment, name),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let dir = MemDir::new();
        let mut wal = Wal::create(dir.clone(), cfg()).unwrap();
        wal.append(batch(1, 3)).unwrap();
        let mut other = cfg();
        other.fingerprint = "some-other-detector".to_string();
        match recover(&dir, &other) {
            Err(WalError::FingerprintMismatch {
                expected, found, ..
            }) => {
                assert_eq!(expected, "some-other-detector");
                assert_eq!(found, "test-fp");
            }
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_truncates_covered_segments() {
        let dir = MemDir::new();
        let mut cfg = cfg();
        cfg.segment_bytes = 160;
        let mut wal = Wal::create(dir.clone(), cfg.clone()).unwrap();
        for seq in 1..=10u64 {
            wal.append(batch(seq, 4)).unwrap();
        }
        let before = wal.segment_count();
        assert!(before > 2);
        let reclaimed = wal.store_checkpoint(8, b"fleet-state-8").unwrap();
        assert!(reclaimed > 0, "expected covered segments to be reclaimed");
        assert!(wal.segment_count() < before);
        // recovery: checkpoint + tail replay == full-log replay
        let rec = recover(&dir, &cfg).unwrap();
        assert_eq!(rec.checkpoint, Some((8, b"fleet-state-8".to_vec())));
        let seqs: Vec<u64> = rec.batches.iter().map(|b| b.seq).collect();
        assert_eq!(seqs, vec![9, 10]);
        assert_eq!(rec.next_seq(), 11);
    }

    #[test]
    fn newer_checkpoint_wins_and_stale_ones_are_removed() {
        let dir = MemDir::new();
        let mut wal = Wal::create(dir.clone(), cfg()).unwrap();
        for seq in 1..=6u64 {
            wal.append(batch(seq, 2)).unwrap();
        }
        wal.store_checkpoint(2, b"at-2").unwrap();
        wal.store_checkpoint(5, b"at-5").unwrap();
        // store_checkpoint removed the older marker already; plant a fake
        // stale one to model a crash between write and cleanup
        dir.put(&ckpt_name(2), dir.file(&ckpt_name(5)).unwrap());
        let rec = recover(&dir, &cfg()).unwrap();
        assert_eq!(rec.checkpoint.as_ref().map(|c| c.0), Some(5));
        assert_eq!(
            rec.batches.iter().map(|b| b.seq).collect::<Vec<_>>(),
            vec![6]
        );
        // stale marker is gone
        assert!(dir.file(&ckpt_name(2)).is_none());
    }

    #[test]
    fn torn_checkpoint_marker_falls_back_to_full_replay() {
        let dir = MemDir::new();
        let mut wal = Wal::create(dir.clone(), cfg()).unwrap();
        for seq in 1..=4u64 {
            wal.append(batch(seq, 2)).unwrap();
        }
        // a torn marker: valid name, garbage bytes
        dir.put(&ckpt_name(3), vec![0xde, 0xad, 0xbe, 0xef]);
        let rec = recover(&dir, &cfg()).unwrap();
        assert!(rec.checkpoint.is_none());
        assert_eq!(rec.batches.len(), 4);
        assert_eq!(rec.report.dropped_checkpoints, 1);
        assert!(dir.file(&ckpt_name(3)).is_none());
    }

    #[test]
    fn sequence_gap_is_refused() {
        let dir = MemDir::new();
        let mut wal = Wal::create(dir.clone(), cfg()).unwrap();
        for seq in 1..=3u64 {
            wal.append(batch(seq, 2)).unwrap();
        }
        // replace the log with a segment that claims to start at 7
        dir.remove(&seg_name(1)).unwrap();
        let mut fresh = Vec::new();
        encode_header(&mut fresh, 7, "test-fp");
        dir.put(&seg_name(7), fresh);
        match recover(&dir, &cfg()) {
            Err(WalError::SequenceGap { expected, found }) => {
                assert_eq!((expected, found), (1, 7));
            }
            other => panic!("expected SequenceGap, got {other:?}"),
        }
    }

    #[test]
    fn empty_directory_recovers_to_a_fresh_log() {
        let dir = MemDir::new();
        let rec = recover(&dir, &cfg()).unwrap();
        assert!(rec.checkpoint.is_none());
        assert!(rec.batches.is_empty());
        assert_eq!(rec.next_seq(), 1);
        let mut wal = Wal::resume(dir.clone(), cfg(), &rec).unwrap();
        assert_eq!(wal.append(batch(1, 2)).unwrap(), 1);
    }

    #[test]
    fn create_refuses_a_directory_with_existing_segments() {
        let dir = MemDir::new();
        let mut wal = Wal::create(dir.clone(), cfg()).unwrap();
        wal.append(batch(1, 2)).unwrap();
        assert!(Wal::create(dir, cfg()).is_err());
    }

    #[test]
    fn group_commit_syncs_by_count() {
        let dir = MemDir::new();
        let mut cfg = cfg();
        cfg.policy = FsyncPolicy::GroupCommit {
            batches: 4,
            max_pending_micros: u64::MAX,
        };
        let mut wal = Wal::create(dir.clone(), cfg).unwrap();
        for seq in 1..=8u64 {
            wal.append(batch(seq, 2)).unwrap();
        }
        assert_eq!(wal.fsyncs(), 2, "one sync per 4-batch group");
        wal.append(batch(9, 2)).unwrap();
        wal.flush().unwrap();
        assert_eq!(wal.fsyncs(), 3);
    }

    /// A [`WalDir`] wrapper modeling a *transient* storage fault: the
    /// next append after [`TearNext::arm`] applies only half its bytes
    /// and fails (ENOSPC-style torn write), then everything works again.
    /// This is the adversarial case for poisoning — the device recovers,
    /// but the log must not write past the torn bytes.
    #[derive(Clone)]
    struct TearNext {
        inner: MemDir,
        armed: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl TearNext {
        fn new(inner: MemDir) -> Self {
            Self {
                inner,
                armed: Default::default(),
            }
        }

        fn arm(&self) {
            self.armed.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    struct TearFile {
        inner: crate::storage::MemFile,
        armed: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl crate::storage::WalFile for TearFile {
        fn append(&mut self, buf: &[u8]) -> io::Result<()> {
            if self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
                self.inner.append(&buf[..buf.len() / 2])?;
                return Err(io::Error::other("transient device error (torn write)"));
            }
            self.inner.append(buf)
        }

        fn sync(&mut self) -> io::Result<()> {
            self.inner.sync()
        }
    }

    impl WalDir for TearNext {
        type File = TearFile;

        fn create(&self, name: &str) -> io::Result<TearFile> {
            Ok(TearFile {
                inner: self.inner.create(name)?,
                armed: std::sync::Arc::clone(&self.armed),
            })
        }

        fn open_append(&self, name: &str) -> io::Result<TearFile> {
            Ok(TearFile {
                inner: self.inner.open_append(name)?,
                armed: std::sync::Arc::clone(&self.armed),
            })
        }

        fn list(&self) -> io::Result<Vec<String>> {
            self.inner.list()
        }

        fn read(&self, name: &str) -> io::Result<Vec<u8>> {
            self.inner.read(name)
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

    #[test]
    fn a_torn_append_poisons_the_log_until_recovery() {
        let mem = MemDir::new();
        let dir = TearNext::new(mem.clone());
        let mut wal = Wal::create(dir.clone(), cfg()).unwrap();
        for seq in 1..=3u64 {
            wal.append(batch(seq, 3)).unwrap();
        }
        // batch 4 tears mid-record; the device then recovers
        dir.arm();
        assert!(wal.append(batch(4, 3)).is_err());
        assert!(wal.is_poisoned());
        // the poisoned log refuses to write past the torn bytes even
        // though the device works again — otherwise recovery's tail
        // truncation would swallow this (ACK-able) batch too
        let frozen = mem.file(&seg_name(1)).unwrap();
        let err = wal.append(batch(5, 3)).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "got: {err}");
        assert!(wal.flush().is_err());
        assert_eq!(mem.file(&seg_name(1)).unwrap(), frozen, "wrote past tear");
        // recovery truncates exactly the torn record; batches 1-3 (all
        // ACKed) survive and appending resumes at 4
        let rec = recover(&mem, &cfg()).unwrap();
        assert_eq!(
            rec.batches.iter().map(|b| b.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(rec.report.truncated_bytes > 0);
        assert_eq!(rec.next_seq(), 4);
        let mut wal = Wal::resume(mem.clone(), cfg(), &rec).unwrap();
        assert_eq!(wal.append(batch(4, 3)).unwrap(), 4);
        let rec = recover(&mem, &cfg()).unwrap();
        assert_eq!(rec.batches.len(), 4);
        assert_eq!(rec.report.truncated_bytes, 0);
    }

    #[test]
    fn oversized_batches_are_refused_without_poisoning() {
        /// Claims `MAX_RECORD_POINTS + 1` items without materializing
        /// them (the refusal must trigger before any encoding).
        struct Huge;
        impl Iterator for Huge {
            type Item = (u64, f64);
            fn next(&mut self) -> Option<(u64, f64)> {
                Some((0, 0.0))
            }
            fn size_hint(&self) -> (usize, Option<usize>) {
                (MAX_RECORD_POINTS + 1, Some(MAX_RECORD_POINTS + 1))
            }
        }
        impl ExactSizeIterator for Huge {}

        let dir = MemDir::new();
        let mut wal = Wal::create(dir.clone(), cfg()).unwrap();
        wal.append(batch(1, 3)).unwrap();
        let err = wal.append(Huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // nothing was written and the log stays usable
        assert!(!wal.is_poisoned());
        assert_eq!(wal.append(batch(2, 3)).unwrap(), 2);
        let rec = recover(&dir, &cfg()).unwrap();
        assert_eq!(rec.batches.len(), 2);
        assert_eq!(rec.report.truncated_bytes, 0);
    }

    #[test]
    fn tick_enforces_the_group_commit_age_bound() {
        let dir = MemDir::new();
        let mut cfg = cfg();
        cfg.policy = FsyncPolicy::GroupCommit {
            batches: 1000,
            max_pending_micros: 2_000,
        };
        let mut wal = Wal::create(dir.clone(), cfg).unwrap();
        wal.append(batch(1, 2)).unwrap();
        assert_eq!(wal.fsyncs(), 0, "far below the group size");
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(wal.tick().unwrap(), "age bound passed: tick must sync");
        assert_eq!(wal.fsyncs(), 1);
        // nothing pending: the next tick is a no-op
        assert!(!wal.tick().unwrap());
        assert_eq!(wal.fsyncs(), 1);
    }

    #[test]
    fn sync_deadline_is_the_oldest_pending_batch_plus_the_age_bound() {
        let bound = Duration::from_micros(2_000);
        let mut c = cfg();
        c.policy = FsyncPolicy::GroupCommit {
            batches: 1000,
            max_pending_micros: 2_000,
        };
        let mut wal = Wal::create(MemDir::new(), c).unwrap();
        assert_eq!(wal.sync_deadline(), None, "nothing pending");
        let before = Instant::now();
        wal.append(batch(1, 2)).unwrap();
        let after = Instant::now();
        let deadline = wal.sync_deadline().expect("a batch is pending");
        assert!(deadline >= before + bound && deadline <= after + bound);
        // a later append does not move the deadline: the oldest batch sets it
        wal.append(batch(2, 2)).unwrap();
        assert_eq!(wal.sync_deadline(), Some(deadline));
        wal.flush().unwrap();
        assert_eq!(wal.sync_deadline(), None, "synced: nothing pending");

        for policy in [FsyncPolicy::PerBatch, FsyncPolicy::Off] {
            let mut c = cfg();
            c.policy = policy;
            let mut wal = Wal::create(MemDir::new(), c).unwrap();
            wal.append(batch(1, 2)).unwrap();
            assert_eq!(wal.sync_deadline(), None);
        }
    }

    #[test]
    fn tick_is_a_noop_under_per_batch_and_off() {
        for policy in [FsyncPolicy::PerBatch, FsyncPolicy::Off] {
            let dir = MemDir::new();
            let mut c = cfg();
            c.policy = policy;
            let mut wal = Wal::create(dir, c).unwrap();
            wal.append(batch(1, 2)).unwrap();
            let before = wal.fsyncs();
            assert!(!wal.tick().unwrap());
            assert_eq!(wal.fsyncs(), before);
        }
    }

    #[test]
    fn per_batch_syncs_every_append_and_off_never_does() {
        let dir = MemDir::new();
        let mut wal = Wal::create(dir.clone(), cfg()).unwrap();
        for seq in 1..=5u64 {
            wal.append(batch(seq, 2)).unwrap();
        }
        assert_eq!(wal.fsyncs(), 5);

        let dir = MemDir::new();
        let mut off = cfg();
        off.policy = FsyncPolicy::Off;
        let mut wal = Wal::create(dir.clone(), off).unwrap();
        for seq in 1..=5u64 {
            wal.append(batch(seq, 2)).unwrap();
        }
        assert_eq!(wal.fsyncs(), 0);
    }
}
