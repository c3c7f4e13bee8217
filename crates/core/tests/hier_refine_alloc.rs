//! The refined hierarchical query allocates little beyond its answer: the
//! exact re-evaluation of the near-optimal candidates streams each row's
//! prefix sums instead of materializing an ON set per candidate, so one
//! query on a 20 000-machine fleet at 90 % load stays within
//! `3·k·size_of::<usize>()` plus a fixed 64 KiB of scratch.
//!
//! A counting global allocator tallies the bytes requested on the test
//! thread while the query runs (other threads are not counted).

use coolopt_core::{HierConfig, HierIndex, PowerTerms};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            BYTES.with(|b| b.set(b.get() + bytes));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tally touches only const-initialized
// thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the bytes it allocated.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    BYTES.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, BYTES.with(Cell::get))
}

/// `n` machines from 8 hardware classes, interleaved by index, with a
/// deterministic per-machine jitter far wider than the clustering grid —
/// the shape of a procurement-batch fleet.
fn jittered_fleet(n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| {
            let c = (i % 8) as f64;
            let u =
                ((i as u64).wrapping_mul(6364136223846793005) >> 33) as f64 / (1u64 << 31) as f64;
            (
                8.0 + 1.7 * c + 0.4 * (u - 0.5),
                0.6 + 0.45 * c + 0.1 * (0.7 * u - 0.35),
            )
        })
        .collect()
}

#[test]
fn refined_query_allocates_little_beyond_its_answer() {
    let pairs = jittered_fleet(20_000);
    let hier = HierIndex::build(&pairs, HierConfig::auto(&pairs)).unwrap();
    assert!(
        !hier.is_exact(),
        "the fleet must exercise approximate clusters"
    );
    let terms = PowerTerms::unbounded(40.0, 900.0);
    let load = 0.9 * pairs.len() as f64;
    // The first query builds the lazy class envelopes it touches; the
    // measured one runs against warm envelopes.
    let warm = hier.query_min_power(&terms, load, None).unwrap();
    let (answer, bytes) = allocated_by(|| hier.query_min_power(&terms, load, None).unwrap());
    assert_eq!(answer, warm, "repeated queries must agree");
    let answer = answer.expect("90 % load is feasible");
    assert_eq!(answer.on.len(), answer.k);
    let budget = 3 * answer.k * std::mem::size_of::<usize>() + 64 * 1024;
    assert!(
        bytes <= budget,
        "refined query allocated {bytes} B for k = {} (budget {budget} B)",
        answer.k
    );
}
