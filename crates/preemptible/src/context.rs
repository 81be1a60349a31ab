//! Context management (§IV-B).
//!
//! The paper customizes the `fcontext` library: each request runs on a
//! lightweight context (saved registers, signal mask, stack pointer,
//! resume link) drawn from a **global memory pool**. Finished contexts
//! return to a global *free list*; preempted contexts go to a global
//! *wait/running list* together with their state. We reproduce that
//! object lifecycle exactly — it is the part of the system a real UINTR
//! port would keep verbatim — with the machine state replaced by the
//! simulation's per-request progress.

use lp_sim::{SimDur, SimTime};

/// Identifies a context object inside its [`ContextPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContextId(usize);

impl ContextId {
    /// Raw pool index (stable for the context's lifetime).
    pub fn index(self) -> usize {
        self.0
    }
}

/// The saved state of one preemptible function.
///
/// In the C implementation this is the fcontext machine frame plus
/// request metadata; in the simulation it is the request's identity and
/// remaining work.
#[derive(Debug, Clone, PartialEq)]
pub struct Context {
    /// The request occupying this context.
    pub request: u64,
    /// When the request arrived (for end-to-end latency).
    pub arrived: SimTime,
    /// Work still to execute.
    pub remaining: SimDur,
    /// Total work the request needs (fixed at launch).
    pub total: SimDur,
    /// Number of times this function has been preempted.
    pub preemptions: u32,
    /// Workload class tag (0 = default / LC, 1 = BE, ...).
    pub class: u8,
}

impl Context {
    /// `true` once the remaining work is zero.
    pub fn is_complete(&self) -> bool {
        self.remaining.is_zero()
    }
}

/// Lifecycle state of each pool slot (enforced, not assumed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    /// Attached to a running function.
    Active,
    /// Preempted and parked on the running list.
    Parked,
}

/// The global context pool with free and running (preempted) lists.
///
/// Invariants (checked in debug builds and by the property tests):
///
/// * every slot is exactly one of free / active / parked;
/// * the free list and running list are disjoint;
/// * `free() + active() + parked() == capacity_in_use()`.
///
/// ```
/// use libpreemptible::context::{Context, ContextPool};
/// use lp_sim::{SimDur, SimTime};
///
/// let mut pool = ContextPool::with_capacity(64);
/// let id = pool
///     .allocate(1, SimTime::ZERO, SimDur::micros(10), 0)
///     .expect("pool has room");
/// pool.park(id); // preempted
/// let resumed = pool.take_parked().expect("one parked context");
/// assert_eq!(resumed, id);
/// pool.release(id); // completed
/// assert_eq!(pool.free(), 64);
/// ```
#[derive(Debug)]
pub struct ContextPool {
    slots: Vec<Slot>,
    /// Top of the free list (LIFO), threaded through
    /// `Slot::next_free`; `NO_SLOT` when empty.
    free_head: usize,
    /// Length of the free list.
    free_count: usize,
    /// Global "running list" of preempted functions, FIFO.
    running_list: std::collections::VecDeque<ContextId>,
    capacity: usize,
    /// High-water mark of simultaneously live contexts.
    peak_live: usize,
}

/// One pool slot: the context and its lifecycle state.
#[derive(Debug)]
struct Slot {
    ctx: Context,
    state: SlotState,
    /// The next free slot below this one on the free list (meaningful
    /// only while the slot is free).
    next_free: usize,
}

/// The free list's end marker.
const NO_SLOT: usize = usize::MAX;

/// Error returned when the pool is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolExhausted;

impl std::fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "context pool exhausted")
    }
}
impl std::error::Error for PoolExhausted {}

impl ContextPool {
    /// Creates a pool bounded at `capacity` contexts (the application
    /// "can define the size of this pool").
    pub fn with_capacity(capacity: usize) -> Self {
        // Room for a small in-flight population up front (the slab then
        // doubles as needed); the bound itself may be far larger than
        // any run reaches. The running list is sized at the first park
        // (a run-to-completion pool never needs it).
        ContextPool {
            slots: Vec::with_capacity(capacity.min(16)),
            free_head: NO_SLOT,
            free_count: 0,
            running_list: std::collections::VecDeque::new(),
            capacity,
            peak_live: 0,
        }
    }

    /// Allocates a context for a new request (`fn_launch`'s allocation
    /// half).
    ///
    /// # Errors
    ///
    /// Returns [`PoolExhausted`] when `capacity` contexts are live.
    pub fn allocate(
        &mut self,
        request: u64,
        arrived: SimTime,
        work: SimDur,
        class: u8,
    ) -> Result<ContextId, PoolExhausted> {
        let ctx = Context {
            request,
            arrived,
            remaining: work,
            total: work,
            preemptions: 0,
            class,
        };
        let slot = Slot { ctx, state: SlotState::Active, next_free: NO_SLOT };
        let id = if self.free_head != NO_SLOT {
            let id = ContextId(self.free_head);
            debug_assert_eq!(self.slots[id.0].state, SlotState::Free);
            self.free_head = self.slots[id.0].next_free;
            self.free_count -= 1;
            self.slots[id.0] = slot;
            id
        } else {
            if self.slots.len() >= self.capacity {
                return Err(PoolExhausted);
            }
            self.slots.push(slot);
            ContextId(self.slots.len() - 1)
        };
        self.peak_live = self.peak_live.max(self.live());
        Ok(id)
    }

    /// Parks an active context on the global running list (preemption).
    ///
    /// # Panics
    ///
    /// Panics if the context is not active.
    pub fn park(&mut self, id: ContextId) {
        assert_eq!(
            self.slots[id.0].state,
            SlotState::Active,
            "parking a non-active context"
        );
        let slot = &mut self.slots[id.0];
        slot.state = SlotState::Parked;
        slot.ctx.preemptions += 1;
        if self.running_list.capacity() == 0 {
            self.running_list.reserve(self.slots.capacity());
        }
        self.running_list.push_back(id);
    }

    /// Takes the oldest parked context for resumption (`fn_resume`'s
    /// source).
    pub fn take_parked(&mut self) -> Option<ContextId> {
        let id = self.running_list.pop_front()?;
        debug_assert_eq!(self.slots[id.0].state, SlotState::Parked);
        self.slots[id.0].state = SlotState::Active;
        Some(id)
    }

    /// Takes the parked context at position `pos` of the parked list
    /// (positions as yielded by [`ContextPool::iter_parked`]); used by
    /// policies that order resumes with their own key.
    pub fn take_parked_at(&mut self, pos: usize) -> Option<ContextId> {
        let id = self.running_list.remove(pos)?;
        debug_assert_eq!(self.slots[id.0].state, SlotState::Parked);
        self.slots[id.0].state = SlotState::Active;
        Some(id)
    }

    /// Returns a completed context to the free list (`fn_completed` →
    /// reuse).
    ///
    /// # Panics
    ///
    /// Panics if the context is not active (double release or release
    /// of a parked context without resuming it first).
    pub fn release(&mut self, id: ContextId) {
        assert_eq!(
            self.slots[id.0].state,
            SlotState::Active,
            "releasing a non-active context"
        );
        let slot = &mut self.slots[id.0];
        slot.state = SlotState::Free;
        slot.next_free = self.free_head;
        self.free_head = id.0;
        self.free_count += 1;
    }

    /// Shared access to a context's state.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn get(&self, id: ContextId) -> &Context {
        let slot = &self.slots[id.0];
        assert_ne!(slot.state, SlotState::Free, "access to freed context");
        &slot.ctx
    }

    /// Exclusive access to a context's state.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn get_mut(&mut self, id: ContextId) -> &mut Context {
        let slot = &mut self.slots[id.0];
        assert_ne!(slot.state, SlotState::Free, "access to freed context");
        &mut slot.ctx
    }

    /// Number of contexts on the free list plus never-allocated
    /// headroom.
    pub fn free(&self) -> usize {
        self.capacity - self.live()
    }

    /// Currently live (active + parked) contexts.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free_count
    }

    /// Contexts parked on the running list.
    pub fn parked(&self) -> usize {
        self.running_list.len()
    }

    /// High-water mark of live contexts (pool sizing guidance).
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over parked contexts (oldest first) without removing.
    pub fn iter_parked(&self) -> impl Iterator<Item = (ContextId, &Context)> + '_ {
        self.running_list.iter().map(move |&id| (id, &self.slots[id.0].ctx))
    }

    /// Earliest arrival time among live (active or parked) contexts,
    /// or `None` when the pool is idle. At the end of a run this is
    /// the oldest request the system failed to finish — a lower bound
    /// on the true worst-case response that the completed-latency
    /// histogram censors.
    pub fn oldest_live_arrival(&self) -> Option<SimTime> {
        self.slots
            .iter()
            .filter(|s| s.state != SlotState::Free)
            .map(|s| s.ctx.arrived)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ContextPool {
        ContextPool::with_capacity(4)
    }

    fn alloc(p: &mut ContextPool, req: u64) -> ContextId {
        p.allocate(req, SimTime::ZERO, SimDur::micros(req + 1), 0)
            .expect("capacity")
    }

    #[test]
    fn allocate_park_resume_release_cycle() {
        let mut p = pool();
        let a = alloc(&mut p, 1);
        assert_eq!(p.live(), 1);
        p.park(a);
        assert_eq!(p.parked(), 1);
        let back = p.take_parked().unwrap();
        assert_eq!(back, a);
        assert_eq!(p.get(a).preemptions, 1);
        p.release(a);
        assert_eq!(p.live(), 0);
        assert_eq!(p.free(), 4);
    }

    #[test]
    fn pool_exhaustion() {
        let mut p = pool();
        for i in 0..4 {
            alloc(&mut p, i);
        }
        assert_eq!(
            p.allocate(99, SimTime::ZERO, SimDur::micros(1), 0),
            Err(PoolExhausted)
        );
    }

    #[test]
    fn freed_contexts_are_reused() {
        let mut p = pool();
        let a = alloc(&mut p, 1);
        p.release(a);
        let b = alloc(&mut p, 2);
        assert_eq!(a, b, "slot must be recycled");
        assert_eq!(p.get(b).request, 2);
        assert_eq!(p.get(b).preemptions, 0, "recycled slot must be reset");
    }

    #[test]
    fn fifo_running_list() {
        let mut p = pool();
        let a = alloc(&mut p, 1);
        let b = alloc(&mut p, 2);
        p.park(a);
        p.park(b);
        assert_eq!(p.take_parked(), Some(a));
        assert_eq!(p.take_parked(), Some(b));
        assert_eq!(p.take_parked(), None);
    }

    #[test]
    #[should_panic(expected = "releasing a non-active context")]
    fn double_release_panics() {
        let mut p = pool();
        let a = alloc(&mut p, 1);
        p.release(a);
        p.release(a);
    }

    #[test]
    #[should_panic(expected = "parking a non-active context")]
    fn double_park_panics() {
        let mut p = pool();
        let a = alloc(&mut p, 1);
        p.park(a);
        p.park(a);
    }

    #[test]
    #[should_panic(expected = "access to freed context")]
    fn use_after_free_panics() {
        let mut p = pool();
        let a = alloc(&mut p, 1);
        p.release(a);
        let _ = p.get(a);
    }

    #[test]
    fn peak_live_tracks_high_water() {
        let mut p = pool();
        let a = alloc(&mut p, 1);
        let _b = alloc(&mut p, 2);
        p.release(a);
        let _c = alloc(&mut p, 3);
        assert_eq!(p.peak_live(), 2);
    }

    #[test]
    fn iter_parked_preserves_order() {
        let mut p = pool();
        let a = alloc(&mut p, 7);
        let b = alloc(&mut p, 8);
        p.park(b);
        p.park(a);
        let order: Vec<u64> = p.iter_parked().map(|(_, c)| c.request).collect();
        assert_eq!(order, vec![8, 7]);
    }
}
