//! A counting global allocator for tests that assert what a hot path
//! allocates. Included by path (`#[path = ".../support/counting_alloc.rs"]
//! mod counting_alloc;`) by the test binaries of every crate that needs
//! it — each binary gets its own `#[global_allocator]`.
//!
//! The counters are thread-local, so concurrently running tests of one
//! binary cannot pollute each other's measurements; a measurement covers
//! the allocations its closure makes on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one [`measure`]d closure asked the allocator for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Allocations (reallocations count as one each).
    pub count: u64,
    /// Bytes requested, summed.
    pub bytes: u64,
    /// The largest single request, in bytes.
    pub largest: u64,
}

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static SEEN: Cell<Allocs> = const { Cell::new(Allocs { count: 0, bytes: 0, largest: 0 }) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn record(bytes: usize) {
        // `try_with` so allocations during TLS setup/teardown never recurse
        // or abort; they simply go uncounted.
        let _ = COUNTING.try_with(|c| {
            if c.get() {
                let _ = SEEN.try_with(|seen| {
                    let Allocs {
                        count,
                        bytes: total,
                        largest,
                    } = seen.get();
                    seen.set(Allocs {
                        count: count + 1,
                        bytes: total + bytes as u64,
                        largest: largest.max(bytes as u64),
                    });
                });
            }
        });
    }
}

// SAFETY: pure pass-through to `System`, which upholds the `GlobalAlloc`
// contract; `record()` only bumps a thread-local counter and never
// allocates, so re-entrancy into the allocator is impossible.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting enabled on this thread and returns
/// what it asked the allocator for.
pub fn measure<F: FnOnce()>(f: F) -> Allocs {
    SEEN.with(|seen| seen.set(Allocs::default()));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    SEEN.with(Cell::get)
}
