//! One shard: slab-backed detector storage, an intrusive LRU list, and
//! the per-batch scratch buffers.
//!
//! A shard owns every detector whose series routes to it. Storage is a
//! **slab**: a `Vec` of slots reusing freed indices through a free list,
//! so steady-state ingest never moves an entry and eviction never shifts
//! its neighbours. Recency is an **intrusive doubly-linked LRU list**
//! threaded through the slots by index (no allocation per touch); the
//! head is the least-recently-fed series, the tail the most recent, and
//! eviction always pops the head — which makes eviction order a pure
//! function of the ingest history and therefore deterministic at every
//! shard and thread count.
//!
//! A batch runs in two passes, so the cache misses of many series
//! overlap instead of forming one dependent chain per point:
//!
//! 1. **Resolve.** Every inbox point is mapped to its slot as of the
//!    batch start, in a reused slot list; a series that is not resident
//!    is marked [`NIL`].
//! 2. **Apply.** Points run in batch order exactly as a one-pass loop
//!    would: quarantine, spawn (evicting for budget), `push`, recency
//!    stamp, LRU touch. So scores, eviction order and checkpoint bytes
//!    do not depend on the split. [`ENTRY_AHEAD`] points ahead, every
//!    cache line of the slab entry is prefetched; [`STATE_AHEAD`] points
//!    ahead, that entry is read and its LRU neighbours' links and the
//!    detector's heap buffers ([`StreamingDetector::prefetch`]) are
//!    prefetched.
//!
//! A resolved slot is a guess: a budget eviction earlier in the same
//! batch can free the slot and hand it to another series. The apply pass
//! uses a guess only when that slot still holds a detector for the same
//! id. Otherwise, and for every miss (an earlier point of the batch may
//! have spawned the series), it looks the id up again.
//!
//! All per-batch working memory (`inbox`, resolved slots, `scores`,
//! quarantine and eviction lists) lives on the shard and is reused across
//! batches: after the warm-up batches have grown them to their high-water
//! mark, processing a batch performs no heap allocation.

use std::collections::HashMap;

use tsad_core::ckpt::{corrupt, CkptReader, CkptWriter};
use tsad_core::error::Result;
use tsad_core::prefetch::prefetch;
use tsad_stream::{DetectorFactory, StreamingDetector};

use crate::{BatchNanPolicy, SeriesId};

/// Null index for the intrusive LRU links and the resolve pass's mark
/// for a series that is not resident. Never a slab slot.
const NIL: u32 = u32::MAX;

/// How many points ahead of the apply pass every line of a slab entry is
/// prefetched.
const ENTRY_AHEAD: usize = 8;

/// How many points ahead the apply pass reads a (by then cached) entry
/// to prefetch its LRU neighbours' links and its detector's buffers.
const STATE_AHEAD: usize = 4;

/// Fixed accounting overhead per resident series, covering the slab slot,
/// LRU links, and the id→slot index entry. The point of the number is
/// budget arithmetic that tracks reality to first order, not exact
/// `malloc` telemetry.
pub const ENTRY_OVERHEAD_BYTES: usize = 96;

/// Accounted bytes for one resident detector: the fixed slot overhead
/// plus the detector's own bounded state
/// ([`StreamingDetector::memory_bound`], in `f64`-equivalents).
pub fn entry_bytes<D: StreamingDetector>(det: &D) -> usize {
    ENTRY_OVERHEAD_BYTES + det.memory_bound().saturating_mul(8)
}

/// One slab slot: a resident series' detector plus slab/LRU
/// bookkeeping. A slot on the free list has no detector; its other fields
/// are stale.
struct Entry<D> {
    id: u64,
    /// `None` while the slot is vacant.
    det: Option<D>,
    /// Accounted bytes (fixed at spawn; detector state is bounded).
    bytes: usize,
    /// Fleet batch counter when this series last received a data point.
    last_touch: u64,
    lru_prev: u32,
    lru_next: u32,
}

/// One routed input point, in batch order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InPoint {
    pub batch_index: usize,
    pub id: u64,
    pub value: f64,
}

/// One emitted score, tagged with the batch position of the push that
/// emitted it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScorePoint {
    pub batch_index: usize,
    pub id: u64,
    pub score: f64,
}

/// Per-batch tallies a shard accumulates while processing its inbox.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ShardTally {
    pub points: u64,
    pub spawned: u64,
}

pub(crate) struct Shard<D> {
    entries: Vec<Entry<D>>,
    free: Vec<u32>,
    index: HashMap<u64, u32>,
    lru_head: u32,
    lru_tail: u32,
    bytes_in_use: usize,
    budget: usize,
    // ── reusable per-batch buffers ──────────────────────────────────
    pub(crate) inbox: Vec<InPoint>,
    pub(crate) scores: Vec<ScorePoint>,
    pub(crate) quarantined: Vec<(usize, u64)>,
    pub(crate) evicted: Vec<u64>,
    pub(crate) tally: ShardTally,
    /// Slot (or [`NIL`]) per inbox point, from the resolve pass.
    resolved: Vec<u32>,
}

impl<D: StreamingDetector> Shard<D> {
    pub(crate) fn new(budget: usize) -> Self {
        Self {
            entries: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            lru_head: NIL,
            lru_tail: NIL,
            bytes_in_use: 0,
            budget,
            inbox: Vec::new(),
            scores: Vec::new(),
            quarantined: Vec::new(),
            evicted: Vec::new(),
            tally: ShardTally::default(),
            resolved: Vec::new(),
        }
    }

    /// Resident series count.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the series currently has a resident detector.
    pub(crate) fn contains(&self, id: u64) -> bool {
        self.index.contains_key(&id)
    }

    /// Accounted bytes across resident series.
    pub(crate) fn bytes_in_use(&self) -> usize {
        self.bytes_in_use
    }

    fn entry(&self, slot: u32) -> &Entry<D> {
        &self.entries[slot as usize]
    }

    fn entry_mut(&mut self, slot: u32) -> &mut Entry<D> {
        &mut self.entries[slot as usize]
    }

    /// True when `slot` is a slab slot holding a detector for `id`.
    fn holds(&self, slot: u32, id: u64) -> bool {
        self.entries
            .get(slot as usize)
            .is_some_and(|e| e.id == id && e.det.is_some())
    }

    fn lru_unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let e = self.entry(slot);
            (e.lru_prev, e.lru_next)
        };
        match prev {
            NIL => self.lru_head = next,
            p => self.entry_mut(p).lru_next = next,
        }
        match next {
            NIL => self.lru_tail = prev,
            n => self.entry_mut(n).lru_prev = prev,
        }
    }

    fn lru_push_tail(&mut self, slot: u32) {
        let old_tail = self.lru_tail;
        {
            let e = self.entry_mut(slot);
            e.lru_prev = old_tail;
            e.lru_next = NIL;
        }
        match old_tail {
            NIL => self.lru_head = slot,
            t => self.entry_mut(t).lru_next = slot,
        }
        self.lru_tail = slot;
    }

    fn lru_touch(&mut self, slot: u32) {
        if self.lru_tail == slot {
            return;
        }
        self.lru_unlink(slot);
        self.lru_push_tail(slot);
    }

    /// Evicts the least-recently-fed series; returns its id.
    fn evict_head(&mut self) -> Option<u64> {
        let head = self.lru_head;
        if head == NIL {
            return None;
        }
        self.lru_unlink(head);
        let entry = self.entry_mut(head);
        entry.det = None;
        let (id, bytes) = (entry.id, entry.bytes);
        self.index.remove(&id);
        self.bytes_in_use -= bytes;
        self.free.push(head);
        Some(id)
    }

    /// Inserts a freshly-spawned detector, evicting LRU entries first when
    /// the budget requires it. The inserted series itself is always
    /// admitted, even when it alone exceeds the budget — a shard cannot
    /// refuse the series it was just asked to host.
    fn insert(&mut self, id: u64, det: D, last_touch: u64) -> u32 {
        let bytes = entry_bytes(&det);
        while self.lru_head != NIL && self.bytes_in_use.saturating_add(bytes) > self.budget {
            if let Some(evicted) = self.evict_head() {
                self.evicted.push(evicted);
            }
        }
        let entry = Entry {
            id,
            det: Some(det),
            bytes,
            last_touch,
            lru_prev: NIL,
            lru_next: NIL,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.entries[s as usize] = entry;
                s
            }
            None => {
                let s = u32::try_from(self.entries.len())
                    .ok()
                    .filter(|&s| s != NIL)
                    .expect("slab slots fit below NIL");
                self.entries.push(entry);
                s
            }
        };
        self.index.insert(id, slot);
        self.bytes_in_use += bytes;
        self.lru_push_tail(slot);
        slot
    }

    /// Processes the routed inbox in batch order: quarantine, spawn,
    /// feed, touch (the apply pass, after the resolve pass; see the module
    /// docs). Clears the inbox afterwards so buffers are ready for the
    /// next batch.
    pub(crate) fn process<F>(&mut self, factory: &F, policy: BatchNanPolicy, batch_no: u64)
    where
        F: DetectorFactory<Detector = D>,
    {
        self.resolve();
        for i in 0..ENTRY_AHEAD {
            self.prefetch_entry(i);
        }
        for i in 0..STATE_AHEAD {
            self.prefetch_state(i);
        }
        for i in 0..self.inbox.len() {
            self.prefetch_entry(i + ENTRY_AHEAD);
            self.prefetch_state(i + STATE_AHEAD);
            let InPoint {
                batch_index,
                id,
                value,
            } = self.inbox[i];
            if policy == BatchNanPolicy::Quarantine && !value.is_finite() {
                self.quarantined.push((batch_index, id));
                continue;
            }
            let slot = match self.resolved[i] {
                guess if self.holds(guess, id) => guess,
                // a miss at the batch start, or a guess gone stale
                _ => match self.index.get(&id) {
                    Some(&s) => s,
                    None => {
                        self.tally.spawned += 1;
                        self.insert(id, factory.spawn(id), batch_no)
                    }
                },
            };
            let entry = self.entry_mut(slot);
            entry.last_touch = batch_no;
            let det = entry.det.as_mut().expect("resolved slots are occupied");
            if let Some(score) = det.push(value) {
                self.scores.push(ScorePoint {
                    batch_index,
                    id,
                    score,
                });
            }
            self.lru_touch(slot);
            self.tally.points += 1;
        }
        self.inbox.clear();
    }

    /// The resolve pass: fills `resolved` with each inbox point's slot as
    /// of the batch start, [`NIL`] for a series that is not resident.
    fn resolve(&mut self) {
        let index = &self.index;
        self.resolved.clear();
        self.resolved.extend(
            self.inbox
                .iter()
                .map(|p| index.get(&p.id).copied().unwrap_or(NIL)),
        );
    }

    /// Prefetches every cache line of the slab entry inbox point `i`
    /// resolved to, if any.
    fn prefetch_entry(&self, i: usize) {
        if let Some(e) = self.resolved_entry(i) {
            prefetch(e);
        }
    }

    /// Reads the entry inbox point `i` resolved to (prefetched
    /// [`ENTRY_AHEAD`] points earlier) and prefetches what its apply step
    /// touches beyond it: the detector's heap buffers and the links of
    /// its LRU neighbours.
    fn prefetch_state(&self, i: usize) {
        let Some(e) = self.resolved_entry(i) else {
            return;
        };
        if let Some(det) = &e.det {
            det.prefetch();
        }
        if let Some(prev) = self.entries.get(e.lru_prev as usize) {
            prefetch(&prev.lru_next);
        }
        if let Some(next) = self.entries.get(e.lru_next as usize) {
            prefetch(&next.lru_prev);
        }
    }

    /// The slab entry inbox point `i` resolved to, without reading it.
    fn resolved_entry(&self, i: usize) -> Option<&Entry<D>> {
        let &slot = self.resolved.get(i)?;
        self.entries.get(slot as usize)
    }

    /// Evicts every series idle for more than `max_idle` batches (walked
    /// from the LRU head, whose touch order is monotone), appending ids
    /// to `out`.
    pub(crate) fn evict_idle(&mut self, now: u64, max_idle: u64, out: &mut Vec<SeriesId>) {
        while self.lru_head != NIL {
            let last = self.entry(self.lru_head).last_touch;
            if last.saturating_add(max_idle) >= now {
                break;
            }
            if let Some(id) = self.evict_head() {
                out.push(SeriesId(id));
            }
        }
    }

    /// Evicts from the LRU head until the shard fits its budget,
    /// appending ids to `out` (used after a restore into a smaller
    /// budget; the order is the checkpoint's recency order, so it is
    /// stable across runs).
    pub(crate) fn evict_to_budget(&mut self, out: &mut Vec<SeriesId>) {
        while self.bytes_in_use > self.budget {
            match self.evict_head() {
                Some(id) => out.push(SeriesId(id)),
                None => break,
            }
        }
    }

    /// Serializes the shard into a sealed segment blob: entries in LRU
    /// order (least → most recent), so a restore that replays insertions
    /// reproduces the recency order exactly.
    pub(crate) fn segment_bytes(&self, shard_index: usize) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.usize(shard_index);
        w.usize(self.len());
        let mut slot = self.lru_head;
        while slot != NIL {
            let e = self.entry(slot);
            let det = e.det.as_ref().expect("LRU links occupied slots");
            w.u64(e.id);
            w.str(&det.name());
            w.u64(e.last_touch);
            det.save_state(&mut w);
            slot = e.lru_next;
        }
        w.finish()
    }

    /// Rehydrates the shard from a sealed segment blob (already
    /// digest-verified against the manifest). `route` maps a series id to
    /// its expected shard, guarding against segments filed under the
    /// wrong shard.
    pub(crate) fn load_segment<F>(
        &mut self,
        factory: &F,
        shard_index: usize,
        segment: &[u8],
        route: impl Fn(u64) -> usize,
    ) -> Result<()>
    where
        F: DetectorFactory<Detector = D>,
    {
        let mut r = CkptReader::new(segment)?;
        let stored_index = r.usize()?;
        if stored_index != shard_index {
            return Err(corrupt(format!(
                "segment is for shard {stored_index}, expected shard {shard_index}"
            )));
        }
        // Budget enforcement is deferred: entries are admitted unbudgeted in
        // checkpoint order, then the caller runs `evict_to_budget` once per
        // shard, so a restore into a smaller budget evicts in the stable
        // checkpoint recency order rather than interleaved with insertion.
        let budget = std::mem::replace(&mut self.budget, usize::MAX);
        let loaded = self.load_entries(factory, shard_index, &mut r, &route);
        self.budget = budget;
        loaded?;
        r.done()
    }

    fn load_entries<F>(
        &mut self,
        factory: &F,
        shard_index: usize,
        r: &mut CkptReader<'_>,
        route: impl Fn(u64) -> usize,
    ) -> Result<()>
    where
        F: DetectorFactory<Detector = D>,
    {
        let count = r.usize()?;
        for _ in 0..count {
            let id = r.u64()?;
            if route(id) != shard_index {
                return Err(corrupt(format!(
                    "series {id} does not route to shard {shard_index}"
                )));
            }
            if self.index.contains_key(&id) {
                return Err(corrupt(format!("series {id} appears twice in segment")));
            }
            let name = r.string()?;
            let last_touch = r.u64()?;
            let mut det = factory.spawn(id);
            if det.name() != name {
                return Err(corrupt(format!(
                    "configuration fingerprint mismatch for series {id}: blob is \
                     for `{name}`, factory spawns `{}`",
                    det.name()
                )));
            }
            det.load_state(r)?;
            self.insert(id, det, last_touch);
        }
        Ok(())
    }
}
