//! Counting global allocator with per-layer attribution.
//!
//! Every allocation is charged to the layer active on the allocating
//! thread (a thread-local tag the layer wrappers set on entry and
//! restore on exit). Threads start in [`Layer::Engine`], so shard worker
//! threads spawned inside a sweep charge the engine until a wrapper
//! says otherwise; the benchmark's own bookkeeping runs in
//! [`Layer::Bench`], which is not reported. Live and peak heap bytes are
//! tracked globally for the `peak_heap_mb` metric.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The layer an allocation is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// Scheduler code between the wrapped calls (admission, gather,
    /// encode/parse, pending table, demux, retry waves, shard barriers).
    Engine = 0,
    /// Session state machines behind the session wrapper.
    Session = 1,
    /// The simulator behind the transport wrapper.
    Transport = 2,
    /// Stop-set adoption and contribution at the session boundary.
    Stopset = 3,
    /// Scenario, lane and engine construction.
    Setup = 4,
    /// The benchmark's own bookkeeping (not reported).
    Bench = 5,
}

const LAYERS: usize = 6;

thread_local! {
    static ACTIVE: Cell<Layer> = const { Cell::new(Layer::Engine) };
}

static ALLOCS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Makes `layer` the current thread's active layer, returning the
/// previous one for [`exit`].
#[inline]
pub fn enter(layer: Layer) -> Layer {
    ACTIVE.with(|active| active.replace(layer))
}

/// Restores the layer [`enter`] returned.
#[inline]
pub fn exit(previous: Layer) {
    ACTIVE.with(|active| active.set(previous));
}

/// Allocation counts per layer since process start.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCounts([u64; LAYERS]);

impl AllocCounts {
    pub fn now() -> Self {
        let mut counts = [0u64; LAYERS];
        for (slot, counter) in counts.iter_mut().zip(&ALLOCS) {
            *slot = counter.load(Ordering::Relaxed);
        }
        AllocCounts(counts)
    }

    /// Allocations charged to `layer` between `earlier` and `self`.
    pub fn since(&self, earlier: &AllocCounts, layer: Layer) -> u64 {
        self.0[layer as usize] - earlier.0[layer as usize]
    }
}

/// Starts a peak-heap window at the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// The counting allocator: the system allocator plus relaxed counters
/// (statistics only; they publish no other data).
pub struct Counting;

impl Counting {
    #[inline]
    fn charge(size: usize) {
        let layer = ACTIVE.try_with(Cell::get).unwrap_or(Layer::Bench);
        ALLOCS[layer as usize].fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the counters only observe sizes and never touch memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::charge(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::charge(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        Self::charge(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator and the caller
        // guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
