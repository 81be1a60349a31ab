//! The pending-event queue: an indexed binary min-heap.
//!
//! Entries order by the packed key `(time << 64) | seq`, where `seq`
//! grows by one with every push over the queue's whole life. Keys are
//! unique, so [`EventQueue::pop`] follows a *total* order: two events
//! scheduled for the same instant fire in scheduling order, and the
//! simulation is deterministic. Any correct min-queue over these keys
//! pops the same sequence, which is why the choice of data structure
//! cannot change an output byte.
//!
//! Cancellation is eager. Every scheduled event owns a node in a slab,
//! and its [`EventId`] packs `(node, generation)`. The node records the
//! heap position of its entry; every sift that moves an entry rewrites
//! that position, so [`EventQueue::cancel`] is a generation compare, a
//! remove-at-position and one sift, and leaves no dead entry behind.
//! This is the pattern LibUtimer's re-armed deadlines need (§IV-A):
//! each quantum grant cancels the previous expiry and arms a new one.
//! A freed node bumps its generation and joins a freelist, so an id
//! that already fired or was cancelled matches nothing, and a steady
//! arm/cancel/re-arm loop allocates nothing once the slab is warm.
//!
//! The heap holds live entries only, so its top is always the answer:
//! [`EventQueue::peek_time`] and [`EventQueue::is_empty`] take `&self`.
//! The simulator keeps few events pending (a finish or deadline per
//! worker plus the arrival and control ticks), so a sift crosses three
//! or four levels; `docs/PERFORMANCE.md` has the measured populations.

use crate::time::SimTime;

/// Identifies a scheduled event so it can be cancelled.
///
/// Internally packs `(generation, slot)`; the raw value is an opaque
/// handle (stable within a run, reproducible across runs with the same
/// seed, but *not* monotonic — slots are reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> Self {
        EventId(((gen as u64) << 32) | slot as u64)
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The raw handle bits, useful in traces. Opaque: encodes a reused
    /// slot index plus its generation, not a sequence number.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// A heap entry: the packed `(time << 64) | seq` key and the slab node
/// holding the payload.
#[derive(Clone, Copy)]
struct Entry {
    key: u128,
    node: u32,
}

impl Entry {
    fn time(self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

/// A slab node. While its event is pending, `pos` is the index of its
/// entry in the heap array; while the node is free, `event` is `None`
/// and `pos` links the freelist.
struct Node<E> {
    gen: u32,
    pos: u32,
    event: Option<E>,
}

/// End of the freelist.
const NIL: u32 = u32::MAX;

/// A deterministic priority queue of timestamped events.
///
/// ```
/// use lp_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// let a = q.push(SimTime::from_nanos(10), "a");
/// let _b = q.push(SimTime::from_nanos(5), "b");
/// q.cancel(a);
/// assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// The min-heap of pending entries, smallest key at index 0.
    heap: Vec<Entry>,
    /// Grows only when the freelist is empty.
    nodes: Vec<Node<E>>,
    /// Head of the freelist threaded through `Node::pos`.
    free: u32,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.heap.len())
            .field("slab", &self.nodes.len())
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `capacity` concurrently
    /// scheduled events, so the heap and the node slab do not grow
    /// through a run's ramp-up.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            free: NIL,
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`. Returns an id usable with
    /// [`cancel`](Self::cancel).
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
        let key = (time.as_nanos() as u128) << 64 | self.next_seq as u128;
        self.next_seq += 1;
        let pos = self.heap.len() as u32;
        let node = if self.free != NIL {
            let node = self.free;
            let n = &mut self.nodes[node as usize];
            self.free = n.pos;
            n.pos = pos;
            n.event = Some(event);
            node
        } else {
            // The slab's only growth point; the freelist feeds every
            // push once the live population has peaked.
            let node = self.nodes.len() as u32;
            self.nodes.push(Node {
                gen: 0,
                pos,
                event: Some(event),
            });
            node
        };
        self.heap.push(Entry { key, node });
        self.sift_up(pos as usize);
        EventId::new(node, self.nodes[node as usize].gen)
    }

    /// Cancels a previously scheduled event: a generation compare, a
    /// remove-at-position and one sift.
    ///
    /// Cancelling an id that already fired (or was already cancelled) is
    /// a no-op: the node's generation has moved on, so the stale id
    /// matches nothing and leaves no state behind.
    pub fn cancel(&mut self, id: EventId) {
        let Some(n) = self.nodes.get(id.slot() as usize) else {
            return;
        };
        // A free node can carry the id's generation only after the
        // 32-bit counter wrapped; its empty payload marks it stale.
        if n.gen != id.gen() || n.event.is_none() {
            return;
        }
        self.remove_at(n.pos as usize);
        self.release(id.slot());
    }

    /// Removes and returns the earliest live event — the smallest
    /// `(time, seq)` key.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let top = *self.heap.first()?;
        self.remove_at(0);
        Some((top.time(), self.release(top.node)))
    }

    /// The timestamp of the earliest live event without removing it.
    /// Non-mutating: the heap holds no cancelled entries.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.time())
    }

    /// Number of live (scheduled, not cancelled) events. O(1).
    pub fn live_len(&self) -> usize {
        self.heap.len()
    }

    /// An upper bound on tracked entries. Cancellation is eager, so
    /// this equals [`live_len`](Self::live_len).
    pub fn len_upper_bound(&self) -> usize {
        self.heap.len()
    }

    /// Size of the node slab: the high-water mark of concurrently
    /// scheduled events. Exposed so capacity regressions (leaking
    /// nodes or tombstone-style growth) are testable.
    pub fn slot_capacity(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no live events remain. O(1), non-mutating.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes the heap entry at `pos`: the last entry fills the hole
    /// and sifts whichever way its key points.
    fn remove_at(&mut self, pos: usize) {
        let last = self.heap.pop().expect("removing from an empty heap");
        if pos == self.heap.len() {
            return;
        }
        self.heap[pos] = last;
        if pos > 0 && last.key < self.heap[(pos - 1) / 2].key {
            self.sift_up(pos);
        } else {
            self.sift_down(pos);
        }
    }

    /// Returns `node` to the freelist and hands back its payload. The
    /// generation bump retires every outstanding id for the node.
    fn release(&mut self, node: u32) -> E {
        let n = &mut self.nodes[node as usize];
        n.gen = n.gen.wrapping_add(1);
        n.pos = self.free;
        self.free = node;
        n.event.take().expect("a pending node holds its event")
    }

    /// Moves the entry at `pos` towards the root until its parent is
    /// smaller, recording the new position of every entry it passes.
    fn sift_up(&mut self, mut pos: usize) {
        let e = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let p = self.heap[parent];
            if p.key < e.key {
                break;
            }
            self.place(pos, p);
            pos = parent;
        }
        self.place(pos, e);
    }

    /// Moves the entry at `pos` towards the leaves until both children
    /// are larger, recording the new position of every entry it passes.
    fn sift_down(&mut self, mut pos: usize) {
        let e = self.heap[pos];
        let len = self.heap.len();
        loop {
            let mut child = 2 * pos + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.heap[child + 1].key < self.heap[child].key {
                child += 1;
            }
            let c = self.heap[child];
            if e.key < c.key {
                break;
            }
            self.place(pos, c);
            pos = child;
        }
        self.place(pos, e);
    }

    /// Writes `e` at heap index `pos` and points its node there.
    #[inline]
    fn place(&mut self, pos: usize, e: Entry) {
        self.heap[pos] = e;
        self.nodes[e.node as usize].pos = pos as u32;
    }

    /// Test hook: forces a slab node's generation so wraparound is
    /// exercisable without 2^32 real reuses.
    #[cfg(test)]
    fn force_gen(&mut self, slot: u32, gen: u32) {
        self.nodes[slot as usize].gen = gen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    /// Pops everything, returning the payloads in pop order (the tests
    /// avoid iterator `collect` so this file stays clean under the
    /// `hot-alloc` lint).
    fn drain_payloads<E>(q: &mut EventQueue<E>) -> Vec<E> {
        let mut out = Vec::with_capacity(q.live_len());
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 3);
        q.push(t(10), 1);
        q.push(t(20), 2);
        assert_eq!(drain_payloads(&mut q), [1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(t(5), "first");
        q.push(t(5), "second");
        q.push(t(5), "third");
        assert_eq!(drain_payloads(&mut q), ["first", "second", "third"]);
    }

    #[test]
    fn ties_break_by_insertion_order_across_slot_reuse() {
        // Slot reuse must not disturb the time-tie ordering: the order
        // key is the monotonic sequence number, not the recycled id.
        let mut q = EventQueue::new();
        let a = q.push(t(5), "dead");
        q.cancel(a); // frees slot 0
        q.push(t(5), "first"); // reuses slot 0, later seq
        q.push(t(5), "second");
        q.push(t(3), "zeroth");
        assert_eq!(drain_payloads(&mut q), ["zeroth", "first", "second"]);
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        q.cancel(a);
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        q.cancel(a); // already fired
        q.push(t(2), "b");
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn peek_is_nonmutating_and_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(7), "b");
        q.cancel(a);
        // &self peeks: no &mut needed.
        let r = &q;
        assert_eq!(r.peek_time(), Some(t(7)));
        assert!(!r.is_empty());
        assert_eq!(q.pop(), Some((t(7), "b")));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1u32);
        q.cancel(a);
        q.cancel(a);
        assert!(q.pop().is_none());
        // A later event with a fresh id must not be affected by the
        // stale handle, even though it reuses the slot.
        let b = q.push(t(2), 2u32);
        q.cancel(a); // stale generation: no-op
        assert_ne!(a, b);
        assert_eq!(q.pop(), Some((t(2), 2u32)));
    }

    #[test]
    fn cancel_after_fire_does_not_accumulate_state() {
        // Regression test for unbounded tombstone growth: ids cancelled
        // *after* firing used to sit in a tombstone set until the queue
        // fully drained. With generation-tagged nodes they are no-ops.
        let mut q = EventQueue::new();
        // A far-future event keeps the queue from ever draining.
        let _far = q.push(t(u64::MAX / 2), 0u64);
        for i in 1..=10_000u64 {
            let id = q.push(t(i), i);
            assert_eq!(q.pop().map(|(_, e)| e), Some(i));
            q.cancel(id); // cancel after fire, queue still non-empty
        }
        assert_eq!(q.live_len(), 1);
        assert_eq!(q.len_upper_bound(), 1, "dead entries accumulated");
        assert!(
            q.slot_capacity() <= 2,
            "slab grew without bound: {}",
            q.slot_capacity()
        );
    }

    #[test]
    fn cancel_rearm_pattern_is_bounded() {
        // The LibUtimer deadline pattern: each grant cancels the
        // previous deadline and arms a new one. State must stay O(live).
        let mut q = EventQueue::new();
        let mut deadline = q.push(t(10), 0u64);
        for i in 1..=10_000u64 {
            q.cancel(deadline);
            deadline = q.push(t(10 + i), i);
        }
        assert_eq!(q.live_len(), 1);
        assert_eq!(q.len_upper_bound(), 1);
        assert!(q.slot_capacity() <= 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(10_000));
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_preallocates() {
        let q: EventQueue<u32> = EventQueue::with_capacity(1_024);
        assert!(q.is_empty());
        assert_eq!(q.slot_capacity(), 0);
        assert_eq!(q.len_upper_bound(), 0);
    }

    #[test]
    fn live_len_tracks_all_paths() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1);
        let _b = q.push(t(2), 2);
        assert_eq!(q.live_len(), 2);
        q.cancel(a);
        assert_eq!(q.live_len(), 1);
        q.pop();
        assert_eq!(q.live_len(), 0);
        assert!(q.is_empty());
    }

    // -- heap position bookkeeping -------------------------------------
    //
    // `cancel` trusts the position a node recorded for its entry. Each
    // test below cancels entries that sifts have moved since their
    // push, so a queue that skips a position update removes the wrong
    // entry and the exact drain order breaks; `assert_positions` also
    // checks the recorded positions directly.

    /// Every heap entry's node points back at the entry's index.
    fn assert_positions<E>(q: &EventQueue<E>) {
        for (i, e) in q.heap.iter().enumerate() {
            let pos = q.nodes[e.node as usize].pos as usize;
            assert_eq!(pos, i, "node {} misplaced", e.node);
        }
    }

    #[test]
    fn cancel_finds_entries_that_sifts_moved() {
        let mut q = EventQueue::new();
        // Descending times: every push sifts to the root and pushes the
        // earlier entries down a level.
        let mut ids = Vec::with_capacity(9);
        for i in 0..9u64 {
            ids.push(q.push(t(100 - 10 * i), 100 - 10 * i));
        }
        // Pops refill the root from the last slot and sift it down,
        // moving entries back up.
        assert_eq!(q.pop(), Some((t(20), 20)));
        assert_eq!(q.pop(), Some((t(30), 30)));
        q.push(t(45), 45);
        assert_positions(&q);
        // Cancel every second survivor; the rest drain in exact order.
        q.cancel(ids[0]); // 100
        q.cancel(ids[2]); // 80
        q.cancel(ids[4]); // 60
        q.cancel(ids[5]); // 50
        assert_positions(&q);
        assert_eq!(q.live_len(), 4);
        assert_eq!(drain_payloads(&mut q), [40, 45, 70, 90]);
    }

    #[test]
    fn cancelling_the_top_keeps_every_position_right() {
        let mut q = EventQueue::new();
        let mut ids = Vec::with_capacity(7);
        for &at in &[7u64, 3, 9, 1, 8, 2, 6] {
            ids.push(q.push(t(at), at));
        }
        assert_eq!(q.peek_time(), Some(t(1)));
        q.cancel(ids[3]); // the top (time 1)
        assert_positions(&q);
        assert_eq!(q.peek_time(), Some(t(2)));
        // Filling the root moved the old last entry down; cancel the
        // new top, then two entries that sift moved.
        q.cancel(ids[5]); // top again (time 2)
        assert_eq!(q.peek_time(), Some(t(3)));
        q.cancel(ids[6]); // 6
        q.cancel(ids[1]); // 3, the top once more
        assert_positions(&q);
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(drain_payloads(&mut q), [7, 8, 9]);
    }

    #[test]
    fn max_and_far_future_times_order_and_cancel_exactly() {
        let mut q = EventQueue::new();
        let max_a = q.push(t(u64::MAX), "max-a");
        q.push(t(u64::MAX), "max-b");
        let far = q.push(t(1 << 40), "far");
        q.push(t(u64::MAX / 2), "half");
        q.push(t(0), "zero");
        let max_c = q.push(t(u64::MAX), "max-c");
        assert_eq!(q.peek_time(), Some(t(0)));
        assert_eq!(q.pop(), Some((t(0), "zero")));
        // Both `max-a` (pushed first, then sifted down by later
        // pushes) and `far` (sifted up) moved since their push.
        q.cancel(max_a);
        q.cancel(far);
        assert_positions(&q);
        assert_eq!(q.peek_time(), Some(t(u64::MAX / 2)));
        q.push(t(u64::MAX - 1), "max-1");
        q.cancel(max_c);
        assert_eq!(drain_payloads(&mut q), ["half", "max-1", "max-b"]);
    }

    #[test]
    fn generation_wraparound_on_a_reused_slot() {
        // After 2^32 reuses a node's generation wraps and an ancient id
        // may alias a fresh one — the documented contract. Force the
        // wrap and check both sides while the slot's entry moves: the
        // stale pre-wrap id is dead, the post-wrap id (aliasing the
        // very first id ever issued for the slot) still cancels.
        let mut q = EventQueue::new();
        let first = q.push(t(1), 1u32);
        q.pop();
        q.force_gen(0, u32::MAX);
        let pre_wrap = q.push(t(50), 50u32); // (slot 0, gen MAX)
        for at in [40u32, 30, 60, 20] {
            q.push(t(at as u64), at);
        }
        q.cancel(pre_wrap); // bump wraps MAX -> 0
        let post_wrap = q.push(t(35), 35u32); // (slot 0, gen 0) again
        assert_eq!(first, post_wrap, "wraparound aliases the first id");
        q.cancel(pre_wrap); // stale: no-op
        assert_eq!(q.live_len(), 5);
        q.push(t(10), 10u32); // sifts past the post-wrap entry
        assert_positions(&q);
        assert_eq!(q.pop(), Some((t(10), 10u32)));
        q.cancel(post_wrap);
        assert_positions(&q);
        assert_eq!(drain_payloads(&mut q), [20, 30, 40, 60]);
    }

    #[test]
    fn million_rearm_cycles_do_not_grow_the_slab() {
        // The lp-bench arm/cancel/re-arm shape at 1M cycles. After
        // warm-up the freelist must satisfy every push — the slab
        // high-water mark may not move.
        let mut q = EventQueue::with_capacity(64);
        for i in 0..32u64 {
            q.push(t(1_000_000_000 + i), i); // far background deadlines
        }
        let mut now = 0u64;
        let mut armed = q.push(t(now + 100), u64::MAX);
        for i in 0..1_000u64 {
            q.cancel(armed);
            now += 1 + (i % 99);
            armed = q.push(t(now + 100), u64::MAX);
        }
        let warm = q.slot_capacity();
        for i in 0..1_000_000u64 {
            q.cancel(armed);
            now += 1 + (i % 99);
            armed = q.push(t(now + 100), u64::MAX);
        }
        assert_eq!(
            q.slot_capacity(),
            warm,
            "slab grew after warm-up under steady-state re-arm"
        );
        assert_eq!(q.live_len(), 33);
    }
}
