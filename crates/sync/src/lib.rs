//! Lock-free synchronization primitives for the worker-pool cluster engines.
//!
//! `aqs-cluster` forbids `unsafe`, so the primitives that need it live here,
//! behind safe APIs sized exactly to the quantum-synchronous engine:
//!
//! * [`Mailbox`] — a multi-producer single-consumer intrusive list. Producers
//!   push with a single compare-and-swap; the owning consumer detaches the
//!   whole list with one atomic swap and drains it in push order. No mutex,
//!   no allocation beyond one node per message — and with a [`MailboxPool`]
//!   the nodes themselves are recycled, so a steady-state push/drain cycle
//!   performs zero heap allocations. A [`PoolDepot`] shared by a group of
//!   pools closes the loop for *directional* traffic (incast): a receiver's
//!   overflow is donated to the depot in batches instead of freed, and a
//!   starved sender refills from it before touching the heap.
//! * [`TreeBarrier`] — an epoch-based (sense-reversing) barrier folded over
//!   two levels (participants combine within fixed groups, group
//!   representatives meet at the root), so wide barriers don't funnel every
//!   arrival through one contended counter. The last thread to arrive becomes
//!   the leader, gets exclusive `&mut` access to the barrier's leader state
//!   (e.g. the quantum policy), and publishes the next epoch with a single
//!   release store that doubles as the handshake for whatever the leader
//!   wrote.
//! * [`CachePadded`] — pads per-thread hot counters to their own cache line.
//!
//! Barrier waiters spin briefly before yielding; the spin budget is tunable via
//! the `AQS_SPIN_BUDGET` environment variable (see [`spin_budget`]) and
//! defaults low on single-core hosts where spinning only delays the leader.
//!
//! Memory-ordering arguments are documented inline at each unsafe block.

#![deny(missing_docs)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

#[cfg(feature = "schedule-fuzz")]
pub mod fuzz;

#[cfg(feature = "fault-inject")]
pub mod fault;

/// Pads (and aligns) a value to 128 bytes so neighbouring slots in a
/// `Vec<CachePadded<_>>` never share a cache line (128 covers the spatial
/// prefetcher pairing lines on x86 and the 128-byte lines on some ARM).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(
    /// The padded value; also reachable through `Deref`/`DerefMut`.
    pub T,
);

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line.
    pub fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

// ---------------------------------------------------------------------------
// Spin budget
// ---------------------------------------------------------------------------

/// Number of busy-wait iterations a barrier waiter performs before falling
/// back to `yield_now`.
///
/// Resolved once per process from the `AQS_SPIN_BUDGET` environment variable;
/// when unset (or unparsable) it defaults to 128 on multi-core hosts and 1
/// when `available_parallelism()` reports a single core — there, the thread
/// holding the work we are waiting for cannot make progress until we yield,
/// so spinning just burns the timeslice.
pub fn spin_budget() -> u32 {
    static BUDGET: OnceLock<u32> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        if let Ok(s) = std::env::var("AQS_SPIN_BUDGET") {
            if let Ok(v) = s.trim().parse::<u32>() {
                return v;
            }
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores <= 1 {
            1
        } else {
            128
        }
    })
}

/// Spin-then-yield until `epoch` moves past `seen`, honouring [`spin_budget`].
fn spin_wait_for_epoch(epoch: &AtomicU64, seen: u64) {
    let budget = spin_budget();
    let mut spins = 0u32;
    while epoch.load(Ordering::Acquire) == seen {
        spins = spins.saturating_add(1);
        if spins < budget {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

// ---------------------------------------------------------------------------
// Mailbox
// ---------------------------------------------------------------------------

struct MailboxNode<T> {
    /// Uninitialized while the node sits in a [`MailboxPool`] free list;
    /// initialized for the whole window a node is reachable from a mailbox.
    value: MaybeUninit<T>,
    next: *mut MailboxNode<T>,
}

/// An exclusively-owned free list of mailbox nodes.
///
/// Pools make the mailbox hot path allocation-free: `push_pooled` takes its
/// node from the caller's pool and `drain_into_pooled` returns drained nodes
/// to the drainer's pool, so in a steady push/drain cycle no `Box` traffic
/// remains. Each pool is owned by exactly one thread (all methods take
/// `&mut self`), which sidesteps the ABA hazard a *shared* lock-free free
/// list would have: a node is never simultaneously reachable from a mailbox
/// and a free list.
///
/// The pool holds at most `cap` spare nodes; releases beyond the cap free the
/// node instead, bounding idle memory.
///
/// # Examples
///
/// ```
/// use aqs_sync::{Mailbox, MailboxPool};
///
/// let mb = Mailbox::new();
/// let mut pool = MailboxPool::with_capacity(64);
/// let mut out = Vec::new();
/// for round in 0..100u32 {
///     mb.push_pooled(round, &mut pool);
///     mb.drain_into_pooled(&mut out, &mut pool);
/// }
/// // One allocation on the first push; every later round reused its node.
/// assert_eq!(pool.heap_allocs(), 1);
/// ```
pub struct MailboxPool<T> {
    free: *mut MailboxNode<T>,
    len: usize,
    cap: usize,
    /// Spare nodes kept local when donating to the depot; surplus beyond
    /// `2 × retain` is surrendered. See [`set_retain`](Self::set_retain).
    retain: usize,
    allocs: u64,
    depot: Option<Arc<PoolDepot<T>>>,
}

// SAFETY: the pool owns its free nodes exclusively (their values are
// uninitialized, so there is no payload to race on) and is only usable
// through `&mut self`; moving it to another thread is safe whenever the
// payload type itself may cross threads.
unsafe impl<T: Send> Send for MailboxPool<T> {}

impl<T> MailboxPool<T> {
    /// Default spare-node cap: comfortably above any per-quantum burst the
    /// engines generate, small enough to be irrelevant memory-wise.
    pub const DEFAULT_CAP: usize = 4096;

    /// A pool that retains at most `cap` spare nodes.
    pub fn with_capacity(cap: usize) -> Self {
        MailboxPool {
            free: ptr::null_mut(),
            len: 0,
            cap,
            retain: cap / 2,
            allocs: 0,
            depot: None,
        }
    }

    /// A pool that retains at most `cap` spare nodes and overflows into (and
    /// refills from) `depot` instead of the heap. The initial retain
    /// watermark is `cap / 2` (donation at `cap`, like plain overflow);
    /// callers with a per-round demand signal should tighten it with
    /// [`set_retain`](Self::set_retain).
    ///
    /// Attach every pool in a push/drain group to the same depot when the
    /// traffic between them is directional: without one, each drain migrates
    /// nodes into the receiver's pool for good, and the sender re-allocates
    /// every message once its own free list runs dry.
    pub fn with_depot(cap: usize, depot: Arc<PoolDepot<T>>) -> Self {
        MailboxPool {
            free: ptr::null_mut(),
            len: 0,
            cap,
            retain: cap / 2,
            allocs: 0,
            depot: Some(depot),
        }
    }

    /// Sets the retain watermark: with a depot attached, a release that
    /// finds more than `2 × retain` spare nodes donates the surplus down to
    /// `retain` (clamped to `cap / 2`).
    ///
    /// The right watermark is the caller's own push demand per round: a
    /// pool that keeps what *it* pushes is self-sufficient under balanced
    /// traffic (no depot round trips, no cross-thread timing races), while
    /// a net *receiver* — whose drains exceed its pushes — surrenders the
    /// surplus promptly instead of hoarding it up to `cap` while the
    /// sending threads fall back to the heap.
    pub fn set_retain(&mut self, retain: usize) {
        self.retain = retain.min(self.cap / 2);
    }

    /// A pool with [`DEFAULT_CAP`](Self::DEFAULT_CAP) spare nodes.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAP)
    }

    /// Spare nodes currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no spare node is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap allocations performed on this pool's behalf so far — the
    /// steady-state count must stop growing once the working set is warm.
    pub fn heap_allocs(&self) -> u64 {
        self.allocs
    }

    /// Pops a spare node or allocates a fresh one (refilling from the depot
    /// first when one is attached). The returned node's value is
    /// uninitialized; `next` is unspecified.
    fn acquire(&mut self) -> *mut MailboxNode<T> {
        if self.free.is_null() {
            if let Some(depot) = &self.depot {
                if let Some(seg) = depot.take_segment() {
                    self.free = seg.head;
                    self.len = seg.len;
                }
            }
            if self.free.is_null() {
                self.allocs += 1;
                return Box::into_raw(Box::new(MailboxNode {
                    value: MaybeUninit::uninit(),
                    next: ptr::null_mut(),
                }));
            }
        }
        let node = self.free;
        // SAFETY: `free` nodes are exclusively ours; the chain is well formed.
        self.free = unsafe { (*node).next };
        self.len -= 1;
        node
    }

    /// Returns a value-less node to the free list; past the cap the surplus
    /// is donated to the depot (when attached) or the node is freed.
    ///
    /// # Safety
    ///
    /// `node` must have been produced by `acquire` (directly or via a
    /// mailbox drain), must not be reachable from any mailbox, and its value
    /// must already have been moved out or dropped.
    unsafe fn release(&mut self, node: *mut MailboxNode<T>) {
        if self.depot.is_some() && self.len >= self.retain.saturating_mul(2).max(1) {
            // Keep the head `retain` nodes (most recently recycled,
            // cache-warm) and hand the tail to the depot in one batch; the
            // walk to the cut point is O(retain) but amortized over the
            // releases it took to cross the watermark — O(1) per release.
            let depot = self.depot.clone().expect("checked above");
            self.donate_tail(&depot, self.retain);
        }
        if self.len >= self.cap {
            // No depot (or a watermark pinned at the cap): free the node.
            // SAFETY: caller guarantees the node came from Box::into_raw
            // and holds no live value, so dropping the box frees just the
            // node.
            drop(unsafe { Box::from_raw(node) });
            return;
        }
        // SAFETY: we own the node; threading it onto our private list.
        unsafe { (*node).next = self.free };
        self.free = node;
        self.len += 1;
    }

    /// Splits the free list after `keep` nodes and donates the tail to
    /// `depot` as one segment. No-op when the list is not longer than `keep`.
    fn donate_tail(&mut self, depot: &PoolDepot<T>, keep: usize) {
        if self.len <= keep {
            return;
        }
        let seg_len = self.len - keep;
        let head = if keep == 0 {
            let head = self.free;
            self.free = ptr::null_mut();
            head
        } else {
            let mut p = self.free;
            for _ in 1..keep {
                // SAFETY: the first `keep` nodes of our exclusively-owned
                // free list are live; the chain is well formed.
                p = unsafe { (*p).next };
            }
            // SAFETY: as above; cutting the chain after the `keep`-th node.
            let head = unsafe { (*p).next };
            unsafe { (*p).next = ptr::null_mut() };
            head
        };
        self.len = keep;
        depot.put_segment(DepotSegment { head, len: seg_len });
    }
}

impl<T> Default for MailboxPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for MailboxPool<T> {
    fn drop(&mut self) {
        let mut p = self.free;
        while !p.is_null() {
            // SAFETY: free-list nodes are exclusively ours and hold no value;
            // each is visited exactly once.
            let node = unsafe { Box::from_raw(p) };
            p = node.next;
        }
    }
}

/// A batch of value-less nodes in depot custody: a null-terminated chain
/// with its length, so hand-offs never walk it.
struct DepotSegment<T> {
    head: *mut MailboxNode<T>,
    len: usize,
}

/// A shared overflow store that rebalances nodes between [`MailboxPool`]s.
///
/// Per-thread pools are allocation-free only while each thread's push and
/// drain volumes balance. Under *directional* traffic — many senders
/// converging on one receiver (incast) — every drained node lands in the
/// receiver's pool, overflows its cap, and (without a depot) is freed, while
/// the senders' pools run dry and re-allocate each message: a steady-state
/// heap leak proportional to traffic. A depot shared by the group closes the
/// cycle: overflow is donated in half-cap batches, and a pool whose free
/// list runs dry refills from the depot before falling back to the heap.
///
/// All transfers are whole segments under one brief mutex hold — the lock
/// sits on the overflow/starvation path only, never on the per-message hot
/// path. The depot retains at most `cap` nodes; donations beyond that are
/// freed, bounding idle memory exactly like the per-pool cap does.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use aqs_sync::{Mailbox, MailboxPool, PoolDepot};
///
/// let depot = Arc::new(PoolDepot::new());
/// let mb = Mailbox::new();
/// let mut sender = MailboxPool::with_depot(8, Arc::clone(&depot));
/// let mut receiver = MailboxPool::with_depot(8, Arc::clone(&depot));
/// for round in 0..100u32 {
///     for i in 0..32 {
///         mb.push_pooled(round * 32 + i, &mut sender);
///     }
///     let mut out = Vec::new();
///     mb.drain_into_pooled(&mut out, &mut receiver);
/// }
/// // Every node the receiver overflowed came back through the depot: the
/// // sender allocated only the warm-up working set, not 3200 nodes.
/// assert!(sender.heap_allocs() < 100);
/// ```
pub struct PoolDepot<T> {
    inner: Mutex<DepotInner<T>>,
    cap: usize,
}

struct DepotInner<T> {
    segments: Vec<DepotSegment<T>>,
    len: usize,
}

// SAFETY: depot nodes hold no value (their `MaybeUninit` slots are vacant
// between `release` and the next `push_pooled`), so the only state crossing
// threads is the node allocations themselves, guarded by the mutex; the
// `T: Send` bound mirrors `MailboxPool`'s, under which nodes are moved
// between threads in the first place.
unsafe impl<T: Send> Send for PoolDepot<T> {}
unsafe impl<T: Send> Sync for PoolDepot<T> {}

impl<T> PoolDepot<T> {
    /// Default node cap: generous enough to recirculate a large incast
    /// working set across a worker group, small enough to bound idle memory.
    pub const DEFAULT_CAP: usize = 1 << 20;

    /// A depot that retains at most `cap` nodes.
    pub fn with_capacity(cap: usize) -> Self {
        PoolDepot {
            inner: Mutex::new(DepotInner {
                segments: Vec::new(),
                len: 0,
            }),
            cap,
        }
    }

    /// A depot with [`DEFAULT_CAP`](Self::DEFAULT_CAP) nodes.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAP)
    }

    /// Nodes currently in depot custody (takes the lock; diagnostic only).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("depot poisoned").len
    }

    /// True if the depot holds no node.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accepts a donated segment, or frees it when the cap is reached.
    fn put_segment(&self, seg: DepotSegment<T>) {
        {
            let mut inner = self.inner.lock().expect("depot poisoned");
            if inner.len + seg.len <= self.cap {
                inner.len += seg.len;
                inner.segments.push(seg);
                return;
            }
        }
        // Over cap: free outside the lock.
        free_chain(seg.head);
    }

    /// Hands out one whole segment, LIFO (the most recently donated nodes
    /// are the most likely to still be cache-resident somewhere useful).
    fn take_segment(&self) -> Option<DepotSegment<T>> {
        let mut inner = self.inner.lock().expect("depot poisoned");
        let seg = inner.segments.pop()?;
        inner.len -= seg.len;
        Some(seg)
    }
}

impl<T> Default for PoolDepot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for PoolDepot<T> {
    fn drop(&mut self) {
        let inner = self.inner.get_mut().expect("depot poisoned");
        for seg in inner.segments.drain(..) {
            free_chain(seg.head);
        }
    }
}

/// Frees a null-terminated chain of value-less nodes.
fn free_chain<T>(mut p: *mut MailboxNode<T>) {
    while !p.is_null() {
        // SAFETY: chain nodes are exclusively ours (detached from every pool
        // and mailbox) and hold no value; each is visited exactly once.
        let node = unsafe { Box::from_raw(p) };
        p = node.next;
    }
}

/// Lock-free multi-producer mailbox, drained wholesale by its owning thread.
///
/// Producers CAS new nodes onto the head (a Treiber push); the consumer swaps
/// the head to null and reverses the detached chain, recovering exact global
/// push order (the linearization order of the CASes). Any thread may push;
/// draining is safe from any single thread at a time — in the engine only
/// the owning node thread drains.
pub struct Mailbox<T> {
    head: AtomicPtr<MailboxNode<T>>,
}

// SAFETY: the mailbox hands values across threads by pointer; this is exactly
// a channel, so it is Send/Sync whenever the payload is Send.
unsafe impl<T: Send> Send for Mailbox<T> {}
unsafe impl<T: Send> Sync for Mailbox<T> {}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Mailbox<T> {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Mailbox {
            head: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Pushes a value; lock-free, callable from any thread.
    ///
    /// Allocates one node per call. Hot paths should prefer
    /// [`push_pooled`](Self::push_pooled), which recycles drained nodes.
    pub fn push(&self, value: T) {
        let mut pool = MailboxPool::with_capacity(0);
        self.push_pooled(value, &mut pool);
    }

    /// Pushes a value using a node from `pool` when one is available;
    /// lock-free, callable from any thread holding its own pool.
    pub fn push_pooled(&self, value: T, pool: &mut MailboxPool<T>) {
        #[cfg(feature = "fault-inject")]
        if fault::mailbox_should_drop() {
            drop(value);
            return;
        }
        let node = pool.acquire();
        // SAFETY: `node` is not yet published, so writing its fields is
        // unsynchronized by construction; `acquire` hands us an exclusively
        // owned node whose value slot is uninitialized.
        unsafe {
            (*node).value = MaybeUninit::new(value);
            (*node).next = ptr::null_mut();
        }
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: still unpublished (the CAS below has not succeeded).
            unsafe { (*node).next = head };
            // Release: the consumer's Acquire swap must observe `value` and
            // `next` fully written before the node becomes reachable.
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(current) => head = current,
            }
        }
    }

    /// Detaches everything pushed so far and appends it to `out` in push
    /// order. One atomic swap; never blocks producers.
    ///
    /// With the `schedule-fuzz` feature enabled **and** `fuzz::arm`-ed, the
    /// newly drained batch is shuffled before it is appended — consumers
    /// must not depend on intra-batch order for correctness.
    pub fn drain_into(&self, out: &mut Vec<T>) {
        let mut pool = MailboxPool::with_capacity(0);
        self.drain_into_pooled(out, &mut pool);
    }

    /// [`drain_into`](Self::drain_into), recycling the drained nodes into
    /// `pool` (up to its cap) instead of freeing them.
    pub fn drain_into_pooled(&self, out: &mut Vec<T>, pool: &mut MailboxPool<T>) {
        #[cfg(feature = "schedule-fuzz")]
        let drained_from = out.len();
        // Acquire pairs with the Release CAS in `push_pooled`: after the swap
        // we own the whole detached chain and every node is fully written.
        let mut p = self.head.swap(ptr::null_mut(), Ordering::Acquire);
        if p.is_null() {
            return;
        }
        // Reverse in place: the chain is most-recent-first.
        let mut prev: *mut MailboxNode<T> = ptr::null_mut();
        while !p.is_null() {
            // SAFETY: nodes in the detached chain are exclusively ours.
            let next = unsafe { (*p).next };
            unsafe { (*p).next = prev };
            prev = p;
            p = next;
        }
        let mut p = prev;
        while !p.is_null() {
            // SAFETY: each node is visited exactly once; its value was
            // initialized by `push_pooled` and is moved out here, leaving the
            // node value-less as `release` requires.
            unsafe {
                let next = (*p).next;
                out.push((*p).value.assume_init_read());
                pool.release(p);
                p = next;
            }
        }
        #[cfg(feature = "schedule-fuzz")]
        fuzz::shuffle_tail(out, drained_from);
    }

    /// True if no message is pending (racy by nature; exact only when all
    /// producers are quiescent, e.g. after a barrier).
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire).is_null()
    }
}

impl<T> Drop for Mailbox<T> {
    fn drop(&mut self) {
        let mut sink = Vec::new();
        self.drain_into(&mut sink);
    }
}

// ---------------------------------------------------------------------------
// TreeBarrier
// ---------------------------------------------------------------------------

/// Read-only view of every participant's arrival timestamp for the round
/// being closed, handed to the leader closure of
/// [`TreeBarrier::arrive_timed`].
pub struct ArrivalTimes<'a> {
    slots: &'a [CachePadded<AtomicU64>],
}

impl ArrivalTimes<'_> {
    /// Number of participants.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Always false: a barrier has at least one participant.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Arrival timestamp participant `i` published this round.
    ///
    /// Relaxed load: each participant's store is ordered before its AcqRel
    /// `count` increment, and the leader's own increment acquires the whole
    /// RMW chain, so every slot is visible by the time the closure runs.
    pub fn get(&self, i: usize) -> u64 {
        self.slots[i].load(Ordering::Relaxed)
    }
}

/// Hierarchical two-level epoch barrier with a leader phase.
///
/// All `n` participants call [`arrive`](TreeBarrier::arrive) once per round.
/// Participants are split into fixed contiguous groups. Each arrival combines
/// on its group's counter; the last arriver of a group proceeds to the root
/// counter; the last group representative at the root becomes the leader,
/// runs the closure with exclusive `&mut` access to `S`, and publishes the
/// next epoch; the others wait for the epoch to advance. A single
/// release-store of the epoch is the entire handshake: anything the leader
/// wrote (to `S` or to outside atomics) is visible to every participant that
/// observed the new epoch. Two small counters replace one counter shared by
/// all `n` threads, so wide barriers (many shards) don't serialize every
/// arrival on a single contended cache line; `group_size == n` is the flat
/// one-counter barrier.
pub struct TreeBarrier<S> {
    n: usize,
    group_size: usize,
    n_groups: usize,
    group_counts: Vec<CachePadded<AtomicUsize>>,
    root_count: CachePadded<AtomicUsize>,
    epoch: CachePadded<AtomicU64>,
    arrivals: Vec<CachePadded<AtomicU64>>,
    state: UnsafeCell<S>,
}

// SAFETY: `state` is only touched inside the leader closure, which the
// barrier protocol runs on exactly one thread per epoch (the unique root
// leader), with a release/acquire edge (the epoch store) between successive
// leaders. That makes the UnsafeCell access exclusive, so the container is
// Sync whenever S is Send.
unsafe impl<S: Send> Sync for TreeBarrier<S> {}

impl<S> TreeBarrier<S> {
    /// A barrier for `n` participants with a near-square group fan-in
    /// (`group_size ≈ √n`), which minimizes the worst contended counter.
    pub fn new(n: usize, state: S) -> Self {
        assert!(n >= 1, "barrier needs at least one participant");
        let group_size = (1..).find(|g| g * g >= n).expect("unreachable");
        Self::with_group_size(n, group_size, state)
    }

    /// A barrier for `n` participants in groups of `group_size` (the last
    /// group may be smaller).
    ///
    /// # Panics
    ///
    /// Panics if `n` or `group_size` is zero.
    pub fn with_group_size(n: usize, group_size: usize, state: S) -> Self {
        assert!(n >= 1, "barrier needs at least one participant");
        assert!(group_size >= 1, "group size must be positive");
        let n_groups = n.div_ceil(group_size);
        TreeBarrier {
            n,
            group_size,
            n_groups,
            group_counts: (0..n_groups)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
            root_count: CachePadded::new(AtomicUsize::new(0)),
            epoch: CachePadded::new(AtomicU64::new(0)),
            arrivals: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            state: UnsafeCell::new(state),
        }
    }

    /// Current epoch (rounds completed).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Consumes the barrier and returns the leader state.
    pub fn into_state(self) -> S {
        self.state.into_inner()
    }

    fn group_len(&self, g: usize) -> usize {
        let start = g * self.group_size;
        self.group_size.min(self.n - start)
    }

    /// [`arrive`](Self::arrive) with a barrier-wait timing hook: the caller
    /// publishes its arrival timestamp (any monotonic nanosecond clock) and
    /// the leader closure additionally receives every participant's
    /// timestamp for the round, so it can compute per-thread barrier waits
    /// (`leader arrival − thread arrival`) without any extra
    /// synchronization. Costs one relaxed store over `arrive`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= n`.
    pub fn arrive_timed<F: FnOnce(&mut S, ArrivalTimes<'_>)>(
        &self,
        id: usize,
        now_ns: u64,
        leader: F,
    ) -> bool {
        // Relaxed is enough: ordered before our AcqRel group fetch_add, and
        // the leader acquires both RMW chains (group, then root) before the
        // closure runs.
        self.arrivals[id].store(now_ns, Ordering::Relaxed);
        self.arrive(id, |state| {
            leader(
                state,
                ArrivalTimes {
                    slots: &self.arrivals,
                },
            )
        })
    }

    /// Arrives at the barrier as participant `id`; returns `true` on the
    /// thread that acted as leader for this round. `leader` runs exactly once
    /// per round, after every participant has arrived and before any is
    /// released.
    ///
    /// With the `schedule-fuzz` feature enabled **and** `fuzz::arm`-ed, a
    /// pseudo-random jitter delay is inserted before the arrival.
    ///
    /// # Panics
    ///
    /// Panics if `id >= n`.
    pub fn arrive<F: FnOnce(&mut S)>(&self, id: usize, leader: F) -> bool {
        assert!(id < self.n, "participant id out of range");
        #[cfg(feature = "schedule-fuzz")]
        fuzz::jitter();
        let epoch = self.epoch.load(Ordering::Acquire);
        let g = id / self.group_size;
        // AcqRel at both levels: a group's last arriver acquires every group
        // member's prior writes through the group counter's RMW chain and
        // releases them into its root fetch_add; the root's last arriver
        // acquires the root chain and therefore, transitively, everything
        // every participant wrote before arriving.
        if self.group_counts[g].fetch_add(1, Ordering::AcqRel) + 1 == self.group_len(g)
            && self.root_count.fetch_add(1, Ordering::AcqRel) + 1 == self.n_groups
        {
            // SAFETY: we are the last root arriver of this epoch, so every
            // other participant is parked before the epoch check and none
            // touches `state`; the previous leader's access happened-before
            // ours via the epoch release/acquire edge.
            leader(unsafe { &mut *self.state.get() });
            // Reset before the epoch bump: waiters re-enter arrive() only
            // after observing the new epoch, which orders these stores first.
            for c in &self.group_counts {
                c.store(0, Ordering::Relaxed);
            }
            self.root_count.store(0, Ordering::Relaxed);
            self.epoch.fetch_add(1, Ordering::Release);
            true
        } else {
            // Short spin for the common fast hand-off, then yield: the test
            // and CI machines may have fewer cores than workers, where pure
            // spinning would stall the leader for a whole timeslice. The
            // budget is tunable via AQS_SPIN_BUDGET (see `spin_budget`).
            spin_wait_for_epoch(&self.epoch, epoch);
            false
        }
    }
}

impl<S: std::fmt::Debug> std::fmt::Debug for TreeBarrier<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreeBarrier")
            .field("n", &self.n)
            .field("group_size", &self.group_size)
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mailbox_single_thread_fifo() {
        let mb = Mailbox::new();
        for i in 0..100 {
            mb.push(i);
        }
        let mut out = Vec::new();
        mb.drain_into(&mut out);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert!(mb.is_empty());
    }

    #[test]
    fn mailbox_drop_releases_pending() {
        let mb = Mailbox::new();
        for i in 0..10 {
            mb.push(Box::new(i));
        }
        drop(mb); // must not leak; checked under sanitizers/miri when available
    }

    #[test]
    fn mailbox_mpsc_no_loss_no_dup() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 10_000;
        let mb = Arc::new(Mailbox::new());
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let mb = Arc::clone(&mb);
                thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        mb.push(p * PER_PRODUCER + i);
                    }
                })
            })
            .collect();
        // Consume concurrently with production.
        let mut got = Vec::new();
        while got.len() < (PRODUCERS * PER_PRODUCER) as usize {
            mb.drain_into(&mut got);
            thread::yield_now();
        }
        for h in handles {
            h.join().unwrap();
        }
        mb.drain_into(&mut got);
        assert_eq!(got.len() as u64, PRODUCERS * PER_PRODUCER);
        // Per-producer FIFO and exactly-once delivery.
        let mut next = vec![0u64; PRODUCERS as usize];
        for v in got {
            let p = (v / PER_PRODUCER) as usize;
            assert_eq!(v % PER_PRODUCER, next[p], "out of order for producer {p}");
            next[p] += 1;
        }
        assert!(next.iter().all(|&n| n == PER_PRODUCER));
    }

    #[test]
    fn pooled_mailbox_reuses_nodes() {
        let mb = Mailbox::new();
        let mut pool = MailboxPool::with_capacity(16);
        let mut out = Vec::new();
        // Warm up: 8 in flight at once.
        for i in 0..8 {
            mb.push_pooled(i, &mut pool);
        }
        mb.drain_into_pooled(&mut out, &mut pool);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        let warm_allocs = pool.heap_allocs();
        assert_eq!(warm_allocs, 8);
        assert_eq!(pool.len(), 8);
        // Steady state: no further allocation, ever.
        for round in 0..1000 {
            for i in 0..8 {
                mb.push_pooled(round * 8 + i, &mut pool);
            }
            out.clear();
            mb.drain_into_pooled(&mut out, &mut pool);
            assert_eq!(out.len(), 8);
        }
        assert_eq!(pool.heap_allocs(), warm_allocs);
        assert!(!pool.is_empty());
    }

    #[test]
    fn pool_cap_bounds_spare_nodes() {
        let mb = Mailbox::new();
        let mut pool = MailboxPool::<u32>::with_capacity(4);
        for i in 0..32 {
            mb.push_pooled(i, &mut pool);
        }
        let mut out = Vec::new();
        mb.drain_into_pooled(&mut out, &mut pool);
        assert_eq!(out.len(), 32);
        // Only `cap` nodes retained; the rest were freed on release.
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn depot_recirculates_directional_overflow() {
        // Incast in miniature: one pool only pushes, the other only drains.
        // Without a depot the sender would allocate every message once its
        // free list ran dry (the receiver's overflow would be freed); with a
        // shared depot the sender's allocations stop at the warm-up set.
        let depot = Arc::new(PoolDepot::new());
        let mb = Mailbox::new();
        let mut sender = MailboxPool::with_depot(16, Arc::clone(&depot));
        let mut receiver = MailboxPool::with_depot(16, Arc::clone(&depot));
        let mut out = Vec::new();
        for round in 0..500u32 {
            for i in 0..64 {
                mb.push_pooled(round * 64 + i, &mut sender);
            }
            out.clear();
            mb.drain_into_pooled(&mut out, &mut receiver);
            assert_eq!(out.len(), 64);
        }
        // Warm-up covers one burst plus the batch-transfer slack (each
        // donation keeps cap/2 nodes in the receiver, each refill moves one
        // segment); 500 rounds × 64 messages would be 32k allocations
        // without recirculation.
        assert!(
            sender.heap_allocs() <= 128,
            "sender kept allocating despite the depot: {} allocs",
            sender.heap_allocs()
        );
        assert_eq!(receiver.heap_allocs(), 0);
        assert!(!depot.is_empty() || sender.len() + receiver.len() > 0);
    }

    #[test]
    fn depot_cap_bounds_total_nodes() {
        let depot = Arc::new(PoolDepot::with_capacity(8));
        let mb = Mailbox::new();
        let mut sender = MailboxPool::with_depot(4, Arc::clone(&depot));
        let mut receiver = MailboxPool::with_depot(4, Arc::clone(&depot));
        let mut out = Vec::new();
        for _ in 0..100 {
            for i in 0..32u32 {
                mb.push_pooled(i, &mut sender);
            }
            out.clear();
            mb.drain_into_pooled(&mut out, &mut receiver);
        }
        // Donations past the cap are freed, exactly like per-pool overflow.
        assert!(depot.len() <= 8);
        assert!(receiver.len() <= 4);
    }

    #[test]
    fn depot_rebalances_across_threads() {
        // Four producer threads, one consumer, a shared depot, with a round
        // barrier standing in for the engines' quantum barrier: producers
        // burst, everyone synchronizes, the consumer drains (overflowing
        // into the depot), everyone synchronizes again. Steady state, each
        // producer's burst refills entirely from the depot: allocations
        // track the warm-up peak, not the message count.
        const PRODUCERS: u64 = 4;
        const ROUNDS: u64 = 200;
        const BURST: u64 = 100;
        let depot = Arc::new(PoolDepot::new());
        let mb = Arc::new(Mailbox::new());
        let round = Arc::new(std::sync::Barrier::new(PRODUCERS as usize + 1));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let mb = Arc::clone(&mb);
                let depot = Arc::clone(&depot);
                let round = Arc::clone(&round);
                thread::spawn(move || {
                    let mut pool = MailboxPool::with_depot(64, depot);
                    for r in 0..ROUNDS {
                        for i in 0..BURST {
                            mb.push_pooled((p * ROUNDS + r) * BURST + i, &mut pool);
                        }
                        round.wait(); // burst visible to the consumer
                        round.wait(); // consumer done draining
                    }
                    pool.heap_allocs()
                })
            })
            .collect();
        let mut got = Vec::new();
        let mut pool = MailboxPool::with_depot(64, Arc::clone(&depot));
        for _ in 0..ROUNDS {
            round.wait();
            mb.drain_into_pooled(&mut got, &mut pool);
            round.wait();
        }
        let producer_allocs: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(got.len() as u64, PRODUCERS * ROUNDS * BURST);
        // No loss, no duplication — recirculated nodes carry fresh values.
        let mut seen = vec![false; (PRODUCERS * ROUNDS * BURST) as usize];
        for v in got {
            assert!(!seen[v as usize], "duplicate message {v}");
            seen[v as usize] = true;
        }
        // Warm-up is one all-producer burst plus batch-transfer slack;
        // without the depot this would be ~80k allocations (every burst
        // past the 64-node pool cap allocated fresh).
        assert!(
            producer_allocs <= PRODUCERS * BURST + 256,
            "depot failed to recirculate: {producer_allocs} producer allocs"
        );
    }

    #[test]
    fn pooled_mailbox_mpsc_no_loss_no_dup() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        let mb = Arc::new(Mailbox::new());
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let mb = Arc::clone(&mb);
                thread::spawn(move || {
                    let mut pool = MailboxPool::with_capacity(64);
                    for i in 0..PER_PRODUCER {
                        mb.push_pooled(p * PER_PRODUCER + i, &mut pool);
                    }
                })
            })
            .collect();
        let mut got = Vec::new();
        let mut pool = MailboxPool::with_capacity(1024);
        while got.len() < (PRODUCERS * PER_PRODUCER) as usize {
            mb.drain_into_pooled(&mut got, &mut pool);
            thread::yield_now();
        }
        for h in handles {
            h.join().unwrap();
        }
        mb.drain_into_pooled(&mut got, &mut pool);
        assert_eq!(got.len() as u64, PRODUCERS * PER_PRODUCER);
        let mut next = vec![0u64; PRODUCERS as usize];
        for v in got {
            let p = (v / PER_PRODUCER) as usize;
            assert_eq!(v % PER_PRODUCER, next[p], "out of order for producer {p}");
            next[p] += 1;
        }
        assert!(next.iter().all(|&n| n == PER_PRODUCER));
    }

    #[test]
    fn spin_budget_is_positive_and_stable() {
        assert!(spin_budget() >= 1);
        assert_eq!(spin_budget(), spin_budget());
    }

    #[test]
    fn tree_barrier_runs_leader_once_per_round() {
        // (4, 4) is the flat case: one group, a single contended counter.
        for (threads, group) in [(1, 1), (4, 2), (4, 4), (5, 2), (6, 4)] {
            const ROUNDS: u64 = 300;
            let barrier = Arc::new(TreeBarrier::with_group_size(threads, group, 0u64));
            let leader_runs = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..threads)
                .map(|id| {
                    let barrier = Arc::clone(&barrier);
                    let leader_runs = Arc::clone(&leader_runs);
                    thread::spawn(move || {
                        for round in 0..ROUNDS {
                            barrier.arrive(id, |state| {
                                assert_eq!(*state, round);
                                *state += 1;
                                leader_runs.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(leader_runs.load(Ordering::Relaxed), ROUNDS);
            assert_eq!(barrier.epoch(), ROUNDS);
            leader_runs.store(0, Ordering::Relaxed);
        }
    }

    #[test]
    fn tree_barrier_timed_slots_reach_the_leader() {
        const THREADS: usize = 5;
        const ROUNDS: u64 = 200;
        for group in [2, THREADS] {
            let barrier = Arc::new(TreeBarrier::with_group_size(THREADS, group, ()));
            let handles: Vec<_> = (0..THREADS)
                .map(|id| {
                    let barrier = Arc::clone(&barrier);
                    thread::spawn(move || {
                        for round in 0..ROUNDS {
                            // Every thread stamps `round * THREADS + id`, so
                            // the leader can verify it sees this round's
                            // stores, not a stale epoch's.
                            let stamp = round * THREADS as u64 + id as u64;
                            barrier.arrive_timed(id, stamp, |(), ts| {
                                assert_eq!(ts.len(), THREADS);
                                assert!(!ts.is_empty());
                                for j in 0..THREADS {
                                    assert_eq!(
                                        ts.get(j),
                                        round * THREADS as u64 + j as u64,
                                        "stale arrival timestamp in round {round}"
                                    );
                                }
                            });
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(barrier.epoch(), ROUNDS);
        }
    }

    #[test]
    fn tree_barrier_publishes_leader_writes() {
        const ROUNDS: u64 = 300;
        for (threads, group) in [(4, 2), (3, 3)] {
            let barrier = Arc::new(TreeBarrier::with_group_size(threads, group, ()));
            let published = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..threads)
                .map(|id| {
                    let barrier = Arc::clone(&barrier);
                    let published = Arc::clone(&published);
                    thread::spawn(move || {
                        for round in 0..ROUNDS {
                            let was_leader = barrier.arrive(id, |()| {
                                published.store(round + 1, Ordering::Relaxed);
                            });
                            // The epoch handshake must make the leader's
                            // store visible to every released thread.
                            let seen = published.load(Ordering::Relaxed);
                            assert!(
                                seen > round,
                                "leader={was_leader} round={round} saw stale {seen}"
                            );
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(barrier.epoch(), ROUNDS);
        }
    }
}
