//! Heap accounting: the benchmark's global allocator is the system
//! allocator, counting the bytes the process allocates and frees while a
//! measurement is open, in every thread. A measurement reports the peak
//! of the net bytes added since it opened — what the system under test
//! holds at its busiest, without the benchmark's inputs, which were
//! allocated before. Byte counts are exact and do not depend on which
//! pages the allocator happens to reuse, as resident-memory figures do.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// The system allocator, counting while a measurement is open.
pub struct Counting;

static OPEN: AtomicBool = AtomicBool::new(false);
static NET: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn add(bytes: isize) {
    if OPEN.load(Ordering::Relaxed) {
        let now = NET.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        add(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            add(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Opens a measurement: counting starts from zero net bytes.
pub fn open() {
    NET.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    OPEN.store(true, Ordering::SeqCst);
}

/// Closes the measurement and returns its peak net bytes, in MiB.
pub fn close_peak_mb() -> f64 {
    OPEN.store(false, Ordering::SeqCst);
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
