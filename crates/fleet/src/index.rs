//! A shard's id → slot index: an open-addressing hash table whose probes
//! the resolve pass can prefetch.
//!
//! The table is a power-of-two `Vec` of `(id, slot)` cells with linear
//! probing and a maximum load of 3/4, so every probe run ends at a vacant
//! cell. Removal shifts the rest of the run back into the hole instead of
//! leaving a tombstone, so lookups never walk over dead cells and the
//! table needs no periodic cleanup.
//!
//! Lookups take the id's hash from the caller. The shard hashes a whole
//! inbox up front, prefetches each point's home cell a few points ahead
//! of its probe ([`SlotIndex::prefetch`]), and reuses the hash when a
//! miss turns into an insert. The hash is randomly keyed SipHash
//! (`RandomState`): series ids come from network clients, and with a
//! fixed hash a client could pick ids that share one probe run.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use tsad_core::prefetch::prefetch;

/// The slot value of a vacant cell. Slab slots stay below it.
const VACANT: u32 = u32::MAX;

/// Cells allocated by the first insert.
const MIN_CELLS: usize = 8;

/// Maps series ids to slab slots.
pub(crate) struct SlotIndex<S = RandomState> {
    /// `(id, slot)`; a vacant cell holds [`VACANT`]. The length is zero or
    /// a power of two.
    cells: Vec<(u64, u32)>,
    len: usize,
    hasher: S,
}

impl SlotIndex {
    pub(crate) fn new() -> Self {
        Self::with_hasher(RandomState::new())
    }
}

impl<S: BuildHasher> SlotIndex<S> {
    pub(crate) fn with_hasher(hasher: S) -> Self {
        Self {
            cells: Vec::new(),
            len: 0,
            hasher,
        }
    }

    /// Ids in the index.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The hash every other method takes for `id`.
    pub(crate) fn hash(&self, id: u64) -> u64 {
        self.hasher.hash_one(id)
    }

    /// Hints that the probe for `hash` will run soon: prefetches its home
    /// cell.
    pub(crate) fn prefetch(&self, hash: u64) {
        if let Some(cell) = self.cells.get(self.home(hash)) {
            prefetch(cell);
        }
    }

    /// The slot of `id` (whose hash is `hash`), if present.
    pub(crate) fn get(&self, hash: u64, id: u64) -> Option<u32> {
        self.find(hash, id).ok().map(|i| self.cells[i].1)
    }

    /// Adds `id` → `slot`. `id` must be absent and `slot` a slab slot.
    pub(crate) fn insert(&mut self, hash: u64, id: u64, slot: u32) {
        debug_assert!(slot != VACANT, "slab slots stay below VACANT");
        if (self.len + 1) * 4 > self.cells.len() * 3 {
            self.grow();
        }
        let vacant = self
            .find(hash, id)
            .expect_err("an inserted id is not indexed yet");
        self.cells[vacant] = (id, slot);
        self.len += 1;
    }

    /// Removes `id` (whose hash is `hash`), returning its slot.
    pub(crate) fn remove(&mut self, hash: u64, id: u64) -> Option<u32> {
        let mut hole = self.find(hash, id).ok()?;
        let slot = self.cells[hole].1;
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let (other, other_slot) = self.cells[i];
            if other_slot == VACANT {
                break;
            }
            // the cell at `i` may fill the hole unless its home lies
            // cyclically after the hole, where a probe would stop first
            let home = self.home(self.hash(other));
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.cells[hole] = self.cells[i];
                hole = i;
            }
        }
        self.cells[hole] = (0, VACANT);
        self.len -= 1;
        Some(slot)
    }

    fn mask(&self) -> usize {
        self.cells.len().wrapping_sub(1)
    }

    fn home(&self, hash: u64) -> usize {
        hash as usize & self.mask()
    }

    /// The cell holding `id`, or the vacant cell ending its probe run.
    /// An empty table has neither: `Err` then names no cell.
    fn find(&self, hash: u64, id: u64) -> Result<usize, usize> {
        if self.cells.is_empty() {
            return Err(0);
        }
        let mask = self.mask();
        let mut i = self.home(hash);
        loop {
            let (cell_id, cell_slot) = self.cells[i];
            if cell_slot == VACANT {
                return Err(i);
            }
            if cell_id == id {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table (or allocates the first one) and reinserts every
    /// entry.
    fn grow(&mut self) {
        let cells = (self.cells.len() * 2).max(MIN_CELLS);
        let old = std::mem::replace(&mut self.cells, vec![(0, VACANT); cells]);
        for (id, slot) in old {
            if slot != VACANT {
                let vacant = self.find(self.hash(id), id).expect_err("ids are unique");
                self.cells[vacant] = (id, slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;
    use std::hash::Hasher;

    /// Hashes an id to itself, so a test places ids in chosen cells.
    #[derive(Default)]
    struct IdentityHasher(u64);

    impl Hasher for IdentityHasher {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, _: &[u8]) {
            unreachable!("only u64 ids are hashed")
        }
        fn write_u64(&mut self, v: u64) {
            self.0 = v;
        }
    }

    #[derive(Default)]
    struct Identity;

    impl BuildHasher for Identity {
        type Hasher = IdentityHasher;
        fn build_hasher(&self) -> IdentityHasher {
            IdentityHasher::default()
        }
    }

    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Every entry is reachable from its home cell without crossing a
    /// vacant cell, and the count matches. Returns how many entries sit
    /// in a run that wrapped past the table end.
    fn check_layout<S: BuildHasher>(t: &SlotIndex<S>) -> usize {
        let mask = t.mask();
        let mut occupied = 0;
        let mut wrapped = 0;
        for (i, &(id, slot)) in t.cells.iter().enumerate() {
            if slot == VACANT {
                continue;
            }
            occupied += 1;
            let home = t.home(t.hash(id));
            let mut j = home;
            while j != i {
                assert_ne!(t.cells[j].1, VACANT, "id {id} cut off from home {home}");
                j = (j + 1) & mask;
            }
            if i < home {
                wrapped += 1;
            }
        }
        assert_eq!(occupied, t.len());
        assert!(t.len() * 4 <= t.cells.len() * 3, "load above 3/4");
        wrapped
    }

    /// Random insert/remove/get against `HashMap`, over the ids in
    /// `universe`, alternating insert-heavy and remove-heavy phases so the
    /// load sweeps up to 3/4 and back. Returns how many checked layouts
    /// had a wrapped run.
    fn run_model<S: BuildHasher>(
        t: &mut SlotIndex<S>,
        seed: u64,
        universe: &[u64],
        ops: usize,
    ) -> usize {
        let mut rng = SplitMix(seed);
        let mut model: HashMap<u64, u32> = HashMap::new();
        let mut wrapped_layouts = 0;
        for step in 0..ops {
            let insert_heavy = (step / 500) % 2 == 0;
            let id = universe[(rng.next() % universe.len() as u64) as usize];
            let h = t.hash(id);
            match rng.next() % 4 {
                0 | 1 if insert_heavy => {
                    if let Entry::Vacant(e) = model.entry(id) {
                        let slot = (rng.next() % 1_000_000) as u32;
                        e.insert(slot);
                        t.insert(h, id, slot);
                    }
                }
                0..=2 => assert_eq!(t.remove(h, id), model.remove(&id), "remove {id}"),
                _ => assert_eq!(t.get(h, id), model.get(&id).copied(), "get {id}"),
            }
            assert_eq!(t.len(), model.len());
            if step % 64 == 0 {
                if check_layout(t) > 0 {
                    wrapped_layouts += 1;
                }
                for (&id, &slot) in &model {
                    assert_eq!(t.get(t.hash(id), id), Some(slot));
                }
            }
        }
        for (&id, &slot) in &model {
            assert_eq!(t.get(t.hash(id), id), Some(slot));
        }
        wrapped_layouts
    }

    #[test]
    fn matches_a_hash_map_under_random_operations() {
        let ids: Vec<u64> = (0..200).collect();
        for seed in 1..=8 {
            let mut t = SlotIndex::new();
            run_model(&mut t, seed, &ids, 6_000);
        }
    }

    #[test]
    fn matches_a_hash_map_when_runs_wrap_past_the_table_end() {
        // identity-hashed ids whose low six bits are 56..=63 crowd the
        // last cells of every table up to 64 cells (48 ids need no more),
        // so probe runs wrap and removals shift entries back across the end
        let ids: Vec<u64> = (0..48).map(|k| k * 64 + 63 - k % 8).collect();
        let mut wrapped = 0;
        for seed in 1..=8 {
            let mut t = SlotIndex::with_hasher(Identity);
            wrapped += run_model(&mut t, seed, &ids, 6_000);
        }
        assert!(wrapped > 100, "only {wrapped} layouts wrapped");
    }

    #[test]
    fn backward_shift_moves_a_wrapped_run_back_across_the_end() {
        let mut t = SlotIndex::with_hasher(Identity);
        // 8 cells: ids 7, 15 and 23 share home 7, so 15 and 23 wrap to
        // cells 0 and 1 and push id 0 (home 0) to cell 2
        for (slot, id) in [7u64, 15, 23, 0].into_iter().enumerate() {
            t.insert(id, id, slot as u32);
        }
        assert_eq!(t.cells.len(), 8);
        assert_eq!(check_layout(&t), 2);
        assert_eq!(t.remove(7, 7), Some(0));
        // 15 back home to cell 7, 23 to cell 0, 0 to cell 1
        assert_eq!(t.cells[7], (15, 1));
        assert_eq!(t.cells[0], (23, 2));
        assert_eq!(t.cells[1], (0, 3));
        assert_eq!(t.cells[2].1, VACANT);
        check_layout(&t);
        assert_eq!(t.remove(0, 0), Some(3));
        assert_eq!(t.get(23, 23), Some(2));
        assert_eq!(t.get(15, 15), Some(1));
        assert_eq!(t.get(7, 7), None);
        assert_eq!(t.len(), 2);
        check_layout(&t);
    }

    #[test]
    fn an_empty_index_finds_nothing_and_prefetches_safely() {
        let mut t = SlotIndex::new();
        let h = t.hash(42);
        t.prefetch(h);
        assert_eq!(t.get(h, 42), None);
        assert_eq!(t.remove(h, 42), None);
        t.insert(h, 42, 3);
        t.prefetch(h);
        assert_eq!(t.get(h, 42), Some(3));
    }
}
