//! Steady-state allocation: once its scratch buffers have grown to the
//! content they see, `FrontEnd::process` (EBBI → median → RPN → ROE)
//! must not touch the heap. A counting global allocator tallies the
//! bytes requested on the test thread while frames run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ebbiot_core::{rpn::RpnConfig, EbbiotConfig, FrontEnd, RpnMode};
use ebbiot_events::{Event, SensorGeometry};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counter
// only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes the heap handed out on this thread while `f` ran.
fn bytes_allocated_by(f: impl FnOnce()) -> u64 {
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    BYTES.load(Ordering::Relaxed)
}

/// Solid blocks of events, one event per pixel.
fn blocks(specs: &[(u16, u16, u16, u16)]) -> Vec<Event> {
    let mut events = Vec::new();
    for &(x0, y0, w, h) in specs {
        for y in y0..y0 + h {
            for x in x0..x0 + w {
                events.push(Event::on(x, y, u64::from(y) * 7));
            }
        }
    }
    ebbiot_events::stream::sort_by_time(&mut events);
    events
}

#[test]
fn frontend_process_allocates_nothing_after_warm_up() {
    // One blob; two diagonal blobs (2 x 2 runs: the false-intersection
    // check runs); an L of three blobs; blobs straddling word
    // boundaries; and an empty frame.
    let frames = [
        blocks(&[(60, 90, 30, 15)]),
        blocks(&[(30, 30, 30, 15), (150, 120, 40, 20)]),
        blocks(&[(30, 30, 30, 15), (30, 120, 30, 15), (150, 30, 40, 15)]),
        blocks(&[(58, 10, 12, 9), (120, 60, 20, 12), (186, 150, 14, 10)]),
        Vec::new(),
    ];
    let geometry = SensorGeometry::davis240();
    for rpn in [RpnConfig::paper_default(), RpnConfig::refined()] {
        assert_eq!(rpn.mode, RpnMode::Histogram);
        let mut frontend =
            FrontEnd::new(&EbbiotConfig { rpn, ..EbbiotConfig::paper_default(geometry) });
        let mut proposals = 0;
        for events in &frames {
            proposals += frontend.process(events).len();
        }
        assert!(proposals >= 6, "the frames must exercise the RPN, got {proposals} proposals");
        for events in &frames {
            let bytes = bytes_allocated_by(|| {
                let _ = frontend.process(events);
            });
            assert_eq!(bytes, 0, "{} events with {rpn:?} allocated {bytes} bytes", events.len());
        }
    }
}
