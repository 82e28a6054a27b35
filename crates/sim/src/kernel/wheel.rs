//! A hierarchical timing wheel over packed `(time_ns << 64) | seq`
//! event keys — the kernel's scheduler for unbounded online runs.
//!
//! ## Why a wheel
//!
//! The 4-ary `KeyHeap` pays `O(log n)` compares per operation and,
//! more importantly on the serve hot path, a sift through cold heap
//! levels per pop. An online run's events are overwhelmingly
//! *near-future* (dispatch completions a few ms out) with a thin tail
//! of far-future work (SLO windows, fleet churn, lazy arrivals), which
//! is exactly the distribution timing wheels exploit: O(1) bucket
//! insertion for everything beyond the imminent horizon, and ordering
//! work deferred until a bucket's time actually comes.
//!
//! ## Structure
//!
//! - a **near heap** (the same 4-ary `KeyHeap`) holding every event
//!   with `time < frontier` — the imminent window, fully ordered;
//! - `LEVELS` wheel levels of `SLOTS` power-of-two-ns buckets.
//!   Level 0 buckets span 2^21 ns ≈ 2.1 ms (window ≈ 134 ms); each
//!   higher level is 64× coarser, topping out at a ≈ 9.8 h horizon.
//!   A `u64` occupancy bitmap per level finds the earliest non-empty
//!   bucket with one rotate + trailing-zeros;
//! - a **far list**: an unsorted overflow `Vec` (with a maintained
//!   minimum) for events beyond the top level's window.
//!
//! ## Ordering contract
//!
//! [`TimingWheel::pop`] yields keys in exactly ascending `u128` order —
//! byte-identical to draining a `KeyHeap` — which the kernel's golden
//! fixtures and the differential proptest below pin. The invariants
//! that carry it:
//!
//! - every stored event in a level or the far list has
//!   `time >= frontier`; every near-heap event has `time < frontier`,
//!   so the near root is always the global minimum;
//! - `frontier` only advances, and only up to the *effective start*
//!   (`max(bucket_start, frontier)`) of the earliest non-empty source,
//!   so no advance skips a stored event;
//! - on an effective-start tie the **coarsest** source wins (far list,
//!   then high levels): its contents re-bin into finer buckets before
//!   the finest bucket flushes, so a level-0 flush — the only step that
//!   moves `frontier` past its bucket — never strands an equal-time
//!   event upstream.
//!
//! Resumability needs no extra machinery: the wheel is plain state, so
//! pausing between pops and resuming later is indistinguishable from an
//! uninterrupted drain.

use super::KeyHeap;

/// Wheel levels above the near heap.
const LEVELS: usize = 4;
/// log2 of the per-level bucket count.
const SLOT_BITS: u32 = 6;
/// Buckets per level; also each level's coarsening factor.
const SLOTS: usize = 1 << SLOT_BITS;
/// log2 of the level-0 bucket span: 2^21 ns ≈ 2.1 ms.
const SHIFT0: u32 = 21;
/// Level-0 bucket span in nanoseconds.
const SPAN0: u64 = 1 << SHIFT0;
/// Far-list marker for the advance step's source selection.
const SRC_FAR: usize = LEVELS;

/// Bucket-index shift for `level`.
#[inline]
fn shift(level: usize) -> u32 {
    SHIFT0 + SLOT_BITS * level as u32
}

#[derive(Debug)]
struct Level<T> {
    /// Bit `b` set iff `buckets[b]` is non-empty.
    occupied: u64,
    /// `SLOTS` buckets addressed by absolute bucket index mod `SLOTS`;
    /// capacity persists across flushes.
    buckets: Vec<Vec<(u128, T)>>,
}

/// A min-priority queue over packed `(time_ns << 64) | seq` keys with
/// the same pop order as `KeyHeap` and O(1) insertion for events
/// beyond the imminent window. See the module docs for the layout.
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// Fully-ordered events with `time < frontier`.
    near: KeyHeap<T>,
    levels: Vec<Level<T>>,
    /// Overflow beyond the top level's window, unsorted.
    far: Vec<(u128, T)>,
    /// Minimum key in `far` (`u128::MAX` when empty).
    far_min: u128,
    /// Time boundary between the near heap and the wheel, ns. Monotone.
    frontier: u64,
    len: usize,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel whose near heap reserves `cap` slots.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        TimingWheel {
            near: KeyHeap::with_capacity(cap),
            levels: (0..LEVELS)
                .map(|_| Level {
                    occupied: 0,
                    buckets: (0..SLOTS).map(|_| Vec::new()).collect(),
                })
                .collect(),
            far: Vec::new(),
            far_min: u128::MAX,
            frontier: 0,
            len: 0,
        }
    }

    /// Events stored across the near heap, all levels, and the far list.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The minimum stored key, without popping. Always the near root:
    /// pops eagerly refill the near heap while events remain.
    #[inline]
    pub(crate) fn peek_key(&self) -> Option<u128> {
        self.near.peek_key()
    }

    /// Inserts `key` → `item`.
    #[inline]
    pub(crate) fn push(&mut self, key: u128, item: T) {
        if self.len == 0 {
            // Empty wheel: advance the frontier past this event's
            // level-0 bucket so it lands in the near heap. Runs that
            // drain between pushes (bounded fan-ins, quiet serve
            // stretches) thus never touch the levels at all.
            let next = ((key >> 64) as u64 & !(SPAN0 - 1)).saturating_add(SPAN0);
            self.frontier = self.frontier.max(next);
        }
        self.len += 1;
        self.route(key, item);
        // Keep the peek invariant (`len > 0` ⇒ near non-empty) even on
        // the saturation edge: a `t = u64::MAX` event cannot get below
        // the (also saturated) frontier, so route files it in level 0
        // and this refill flushes it straight through to the near heap.
        while self.near.len() == 0 {
            self.advance();
        }
    }

    /// Removes and returns the minimum-key event.
    pub fn pop(&mut self) -> Option<(u128, T)> {
        let out = self.near.pop()?;
        self.len -= 1;
        // Eager refill: keep the near heap non-empty whenever events
        // remain, so `peek_key` needs no interior mutability.
        while self.len > 0 && self.near.len() == 0 {
            self.advance();
        }
        Some(out)
    }

    /// Files one event in the structure matching its time under the
    /// current frontier: near heap below it, else the finest level
    /// whose window reaches it, else the far list.
    fn route(&mut self, key: u128, item: T) {
        let t = (key >> 64) as u64;
        if t < self.frontier {
            self.near.push(key, item);
            return;
        }
        for li in 0..LEVELS {
            let sh = shift(li);
            if (t >> sh) - (self.frontier >> sh) < SLOTS as u64 {
                let slot = ((t >> sh) & (SLOTS as u64 - 1)) as usize;
                let level = &mut self.levels[li];
                level.buckets[slot].push((key, item));
                level.occupied |= 1 << slot;
                return;
            }
        }
        self.far_min = self.far_min.min(key);
        self.far.push((key, item));
    }

    /// Advances the frontier to the earliest non-empty source and
    /// cascades it one step: a level-0 bucket flushes into the near
    /// heap; a coarser bucket (or the far list) re-bins under the new
    /// frontier. Each step strictly lowers some event's level, so the
    /// pop loop's refill terminates.
    fn advance(&mut self) {
        debug_assert!(self.len > 0 && self.near.len() == 0);
        // Minimum effective start across sources; scanned coarsest
        // first with strict `<` replacement so ties re-bin before any
        // level-0 flush can move the frontier past them. The runner-up
        // start bounds how far the frontier may skip ahead.
        let mut best = u64::MAX;
        let mut second = u64::MAX;
        let mut src = usize::MAX;
        if !self.far.is_empty() {
            let tf = (self.far_min >> 64) as u64;
            best = (tf & !(SPAN0 - 1)).max(self.frontier);
            src = SRC_FAR;
        }
        for li in (0..LEVELS).rev() {
            let occ = self.levels[li].occupied;
            if occ == 0 {
                continue;
            }
            let sh = shift(li);
            let fslot = ((self.frontier >> sh) & (SLOTS as u64 - 1)) as u32;
            let off = occ.rotate_right(fslot).trailing_zeros() as u64;
            let s = (((self.frontier >> sh) + off) << sh).max(self.frontier);
            // `src` check, not `s < u64::MAX` sentinel alone: with the
            // frontier saturated at `u64::MAX` a real effective start
            // *equals* the sentinel and must still be selectable.
            if src == usize::MAX || s < best {
                second = best;
                best = s;
                src = li;
            } else if s < second {
                second = s;
            }
        }
        debug_assert!(src != usize::MAX, "len > 0 but no source found");
        // Skip-ahead frontier: as far as the chosen bucket's end, but
        // never past another source's effective start. When the chosen
        // source stands alone — the sparse-traffic common case — its
        // whole bucket flushes straight into the near heap in this one
        // step instead of cascading level by level; when sources are
        // dense the runner-up bound reproduces the classic per-level
        // re-bin cascade.
        let end = if src == SRC_FAR {
            ((self.far_min >> 64) as u64 & !(SPAN0 - 1)).saturating_add(SPAN0)
        } else {
            let sh = shift(src);
            ((best >> sh) << sh).saturating_add(1 << sh)
        };
        self.frontier = end.min(second).max(best);
        if src == SRC_FAR {
            // Re-file the far list: its minimum now lands in the near
            // heap or level 0, so this strictly shrinks the overflow.
            let items = std::mem::take(&mut self.far);
            self.far_min = u128::MAX;
            for (k, it) in items {
                self.route(k, it);
            }
            return;
        }
        let sh = shift(src);
        let slot = ((best >> sh) & (SLOTS as u64 - 1)) as usize;
        self.levels[src].occupied &= !(1u64 << slot);
        let mut items = std::mem::take(&mut self.levels[src].buckets[slot]);
        if src == 0 {
            // A chosen level-0 bucket flushes wholesale into the near
            // heap: every runner-up start is level-0-aligned, so the
            // frontier always reaches this bucket's end — except when
            // it saturates at `u64::MAX`, where the final bucket is
            // provably the only source left and re-routing a
            // `t == u64::MAX` event would re-bin it into this same
            // (now reclaimed) bucket and lose it.
            for (k, it) in items.drain(..) {
                self.near.push(k, it);
            }
        } else {
            // Re-file under the advanced frontier: events below the new
            // frontier go straight to the near heap, the rest descend at
            // least one level (a coarse bucket's span equals the next
            // finer level's full window, so nothing can re-bin in place).
            for (k, it) in items.drain(..) {
                self.route(k, it);
            }
        }
        // Hand the drained Vec back so bucket capacity is reused.
        self.levels[src].buckets[slot] = items;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: u64, seq: u64) -> u128 {
        ((t as u128) << 64) | seq as u128
    }

    fn drain(w: &mut TimingWheel<u64>) -> Vec<u128> {
        let mut out = Vec::new();
        while let Some((k, v)) = w.pop() {
            assert_eq!(k as u64, v, "payload rides with its key");
            out.push(k);
        }
        out
    }

    #[test]
    fn pops_in_key_order_across_all_horizons() {
        // Times spanning the near window, every wheel level, and the
        // far overflow, pushed out of order with same-tick bursts.
        let times: &[u64] = &[
            0,
            1,
            1,
            SPAN0 - 1,
            SPAN0,
            SPAN0 * 63,
            SPAN0 * 64,                // level 1
            SPAN0 * 64 * 64,           // level 2
            SPAN0 * 64 * 64 * 64,      // level 3
            SPAN0 * 64 * 64 * 64 * 64, // far
            u64::MAX / 2,
            u64::MAX, // far, saturation edge
            12_345_678,
            987_654_321,
        ];
        let mut w: TimingWheel<u64> = TimingWheel::default();
        let mut keys: Vec<u128> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| key(t, i as u64))
            .collect();
        // An interleaved push order (not time-sorted).
        for i in (0..keys.len()).step_by(2).chain((1..keys.len()).step_by(2)) {
            w.push(keys[i], keys[i] as u64);
        }
        assert_eq!(w.len(), keys.len());
        keys.sort_unstable();
        assert_eq!(drain(&mut w), keys);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        // The serve-shaped pattern: pop one, push a completion a few ms
        // out, occasionally schedule far-future work; wheel and heap
        // must agree on every pop.
        let mut w: TimingWheel<u64> = TimingWheel::default();
        let mut h: KeyHeap<u64> = KeyHeap::with_capacity(0);
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut step = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let mut seq = 0u64;
        let mut now = 0u64;
        for round in 0..5_000u64 {
            if w.len() < 64 {
                let horizon = if round % 97 == 0 {
                    // Far-future outlier (hours out).
                    50_000_000_000_000
                } else {
                    step() % 10_000_000
                };
                seq += 1;
                let k = key(now + horizon, seq);
                w.push(k, k as u64);
                h.push(k, k as u64);
                // Same-tick burst every few rounds.
                if round % 5 == 0 {
                    seq += 1;
                    let k = key(now + horizon, seq);
                    w.push(k, k as u64);
                    h.push(k, k as u64);
                }
            }
            if round % 3 != 0 {
                let (wk, wv) = w.pop().unwrap();
                let (hk, hv) = h.pop().unwrap();
                assert_eq!((wk, wv), (hk, hv), "round {round}");
                now = (wk >> 64) as u64;
            }
        }
        while let Some(got) = w.pop() {
            assert_eq!(Some(got), h.pop());
        }
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn peek_always_matches_next_pop() {
        let mut w: TimingWheel<u64> = TimingWheel::default();
        for (i, t) in [7u64, SPAN0 * 70, 3, SPAN0 * 64 * 64 + 5, 7]
            .iter()
            .enumerate()
        {
            w.push(key(*t, i as u64), i as u64);
        }
        while let Some(k) = w.peek_key() {
            assert_eq!(w.pop().map(|(k, _)| k), Some(k));
        }
        assert!(w.pop().is_none());
    }
}
