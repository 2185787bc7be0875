//! A counting [`GlobalAlloc`] wrapper: the runtime half of the workspace's
//! hot-path allocation policy.
//!
//! `opal-tidy` proves *lexically* that declared hot functions contain no
//! allocating calls; this crate proves it *at runtime*: install
//! [`CountingAlloc`] as the `#[global_allocator]`, snapshot
//! [`allocations()`] around a `ServeEngine::step()`, and assert the count
//! did not move. The integration tests in `tests/decode_allocs.rs` pin
//! **zero allocations per decode step** in steady state for bf16 and
//! MX-OPAL models at batch 1 and 16.
//!
//! [`allocations()`] is a process-global `AtomicU64`, so measured regions
//! must not run concurrently with other allocating tests — serialize them
//! with [`probe_lock()`] — and it also sees the test harness's own threads
//! (result printing, spawning the next test) inside a window.
//! [`thread_allocations()`] counts only the calling thread's events: the
//! exact measure for an engine that steps on the caller's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's allocation events (const-initialised, no destructor:
    /// touching it never allocates).
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation event, globally and for the calling thread.
fn count() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Forwards to [`System`] while counting every `alloc`/`realloc` call.
pub struct CountingAlloc;

// SAFETY-free: this is plain delegation; no unsafe beyond the trait's own
// contract, which System upholds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is a fresh acquisition from the hot path's point of
        // view: growing a Vec in a decode step is exactly what the policy
        // forbids.
        count();
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocation events (alloc + alloc_zeroed + realloc) since process
/// start.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Allocation events (alloc + alloc_zeroed + realloc) the calling thread
/// has performed since it started.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Total deallocation events since process start.
pub fn deallocations() -> u64 {
    DEALLOCATIONS.load(Ordering::SeqCst)
}

/// Serializes measured regions: the counter is process-global, so two
/// concurrently running probe tests would see each other's traffic.
pub fn probe_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` and returns how many allocation events it performed.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let value = f();
    (value, allocations() - before)
}
