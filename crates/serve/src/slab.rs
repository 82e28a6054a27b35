//! A free-list slab for per-request driver state: the storage that
//! keeps the online loop's request table **O(in-flight)** instead of
//! O(arrivals).
//!
//! Slots are dense `u32` indices (the kernel's fan-in table and the
//! admission queues address requests by slot, allocation-free), and
//! every slot carries a monotonically bumped *generation* so a
//! [`ReqHandle`] held across a free/reuse boundary is detectably stale
//! instead of silently aliasing the new occupant.
//!
//! Recycling is the only production mode: the serving driver builds
//! `Slab::new(true, 0)` whether or not the scenario streams, because
//! nothing a report carries depends on slot numbering (ordering keys on
//! the arrival sequence, never on the slot), and lets the table grow to
//! the run's in-flight peak. `Slab::new(false, _)` — a pure append-only
//! `Vec` where slot i is the i-th insertion and `free` is a no-op —
//! survives solely because `benchmark/src/replay.rs` constructs it for
//! its exact-mode slab replay: once that replay runs the recycling slab,
//! the mode and its `!recycle` branches can go.
//!
//! Values and slot state live in separate arrays (`values` /
//! packed `gen | occupied` words), so handle validation never pulls a
//! whole `ReqInfo` cache line, and freeing keeps the value in place for
//! [`Slab::insert_with`] to overwrite instead of dropping it to
//! `T::default()`.

/// A generation-tagged reference to one slab slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReqHandle {
    /// Dense slot index (the kernel-facing request id).
    pub slot: u32,
    /// Generation of the slot at allocation; stale after a free.
    pub gen: u32,
}

impl ReqHandle {
    /// Packs the handle into one `u64` (`gen` high, `slot` low) for
    /// embedding in ordering keys and queue records.
    pub(crate) fn pack(self) -> u64 {
        (u64::from(self.gen) << 32) | u64::from(self.slot)
    }

    /// Unpacks a handle packed by [`ReqHandle::pack`].
    pub(crate) fn unpack(bits: u64) -> Self {
        ReqHandle {
            slot: bits as u32,
            gen: (bits >> 32) as u32,
        }
    }
}

/// Occupancy flag, packed into each state word's low bit (generation in
/// the high 31 bits).
const OCCUPIED: u32 = 1;

/// A generation-checked free-list slab (see the module docs).
#[derive(Debug, Clone)]
pub struct Slab<T> {
    values: Vec<T>,
    /// Per-slot `generation << 1 | occupied`.
    state: Vec<u32>,
    free: Vec<u32>,
    recycle: bool,
    live: usize,
}

impl<T: Default> Slab<T> {
    /// An empty slab. With `recycle` set (what the serving driver always
    /// passes), freed slots are reused LIFO before the table grows;
    /// unset, slots are append-only (slot == insertion rank) — kept for
    /// the benchmark's replay only, see the module docs.
    pub fn new(recycle: bool, capacity: usize) -> Self {
        Slab {
            values: Vec::with_capacity(capacity),
            state: Vec::with_capacity(capacity),
            free: Vec::new(),
            recycle,
            live: 0,
        }
    }

    /// Inserts by resetting a slot in place, returning its handle. On a
    /// recycled slot `reset` receives the *previous occupant's* value,
    /// so the caller must overwrite every field. Fresh slots receive
    /// `T::default()`.
    pub fn insert_with(&mut self, reset: impl FnOnce(&mut T)) -> ReqHandle {
        self.live += 1;
        if self.recycle {
            if let Some(slot) = self.free.pop() {
                let st = &mut self.state[slot as usize];
                debug_assert!(*st & OCCUPIED == 0);
                // Bump the generation and re-occupy in one word.
                *st = st.wrapping_add(2) | OCCUPIED;
                let gen = *st >> 1;
                reset(&mut self.values[slot as usize]);
                return ReqHandle { slot, gen };
            }
        }
        let slot = self.values.len() as u32;
        let mut value = T::default();
        reset(&mut value);
        self.values.push(value);
        self.state.push(OCCUPIED);
        ReqHandle { slot, gen: 0 }
    }

    /// Releases a slot back to the free list (no-op append-only mode
    /// keeps the value in place, preserving slot == insertion rank).
    /// The value itself is *not* reset — the next [`Slab::insert_with`]
    /// reuses it in place.
    pub fn free(&mut self, slot: usize) {
        debug_assert!(
            self.state[slot] & OCCUPIED != 0,
            "double free of slot {slot}"
        );
        if !self.recycle {
            return;
        }
        self.live -= 1;
        self.state[slot] &= !OCCUPIED;
        self.free.push(slot as u32);
    }

    /// The current handle of an occupied slot.
    pub(crate) fn handle_of(&self, slot: usize) -> ReqHandle {
        debug_assert!(self.state[slot] & OCCUPIED != 0);
        ReqHandle {
            slot: slot as u32,
            gen: self.state[slot] >> 1,
        }
    }

    /// Whether `handle` still names the value it was issued for.
    #[inline]
    pub(crate) fn is_current(&self, handle: ReqHandle) -> bool {
        // Append-only mode never frees and never bumps generations:
        // any gen-0 handle inside the table is current, no state load.
        if !self.recycle {
            return handle.gen == 0 && (handle.slot as usize) < self.values.len();
        }
        self.state
            .get(handle.slot as usize)
            .is_some_and(|&st| st == (handle.gen << 1) | OCCUPIED)
    }

    /// Live (occupied) entries.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (the table's high-water mark).
    pub(crate) fn slots(&self) -> usize {
        self.values.len()
    }

    /// Iterates occupied `(slot, value)` pairs in slot order.
    pub(crate) fn iter_occupied(&self) -> impl Iterator<Item = (usize, &T)> {
        self.values
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.state[i] & OCCUPIED != 0)
    }
}

impl<T> std::ops::Index<usize> for Slab<T> {
    type Output = T;

    #[inline]
    fn index(&self, slot: usize) -> &T {
        debug_assert!(
            self.state[slot] & OCCUPIED != 0,
            "read of freed slot {slot}"
        );
        &self.values[slot]
    }
}

impl<T> std::ops::IndexMut<usize> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, slot: usize) -> &mut T {
        debug_assert!(
            self.state[slot] & OCCUPIED != 0,
            "write to freed slot {slot}"
        );
        &mut self.values[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_only_mode_numbers_slots_by_insertion() {
        let mut s: Slab<u64> = Slab::new(false, 4);
        for i in 0..10u64 {
            assert_eq!(s.insert_with(|v| *v = i).slot as u64, i);
        }
        s.free(3);
        // Freeing is a no-op append-only: the slot survives and the
        // table keeps growing at the end.
        assert_eq!(s[3], 3);
        assert_eq!(s.insert_with(|v| *v = 10).slot, 10);
        assert_eq!(s.slots(), 11);
    }

    #[test]
    fn recycling_reuses_slots_and_bumps_generations() {
        let mut s: Slab<u64> = Slab::new(true, 4);
        let a = s.insert_with(|v| *v = 7);
        let b = s.insert_with(|v| *v = 8);
        assert_eq!((a.slot, b.slot), (0, 1));
        s.free(a.slot as usize);
        assert!(!s.is_current(a));
        let c = s.insert_with(|v| *v = 9);
        assert_eq!(c.slot, 0, "freed slot is reused before growth");
        assert_eq!(c.gen, 1, "reuse bumps the generation");
        assert!(s.is_current(c));
        assert!(!s.is_current(a), "the old handle is stale");
        assert_eq!(s[0], 9);
        assert_eq!(s.live(), 2);
        assert_eq!(s.slots(), 2);
    }

    #[test]
    fn handles_pack_and_unpack_losslessly() {
        let h = ReqHandle {
            slot: 0xDEAD_BEEF,
            gen: 0x1234_5678,
        };
        assert_eq!(ReqHandle::unpack(h.pack()), h);
    }

    #[test]
    fn iter_occupied_skips_freed_slots() {
        let mut s: Slab<u64> = Slab::new(true, 4);
        for i in 0..5u64 {
            s.insert_with(|v| *v = i);
        }
        s.free(1);
        s.free(3);
        let seen: Vec<(usize, u64)> = s.iter_occupied().map(|(i, &v)| (i, v)).collect();
        assert_eq!(seen, vec![(0, 0), (2, 2), (4, 4)]);
    }

    #[test]
    fn insert_with_keeps_recycled_heap_capacity() {
        let mut s: Slab<Vec<u64>> = Slab::new(true, 2);
        let a = s.insert_with(|v| v.extend([1, 2, 3]));
        let cap = s[a.slot as usize].capacity();
        assert!(cap >= 3);
        s.free(a.slot as usize);
        // The freed value keeps its buffer; the next occupant resets
        // the contents but reuses the allocation.
        let b = s.insert_with(|v| {
            v.clear();
            v.push(9);
        });
        assert_eq!(b.slot, a.slot);
        assert_eq!(s[b.slot as usize], vec![9]);
        assert!(s[b.slot as usize].capacity() >= cap);
    }
}
