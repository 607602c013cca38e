//! The decode hot path does not touch the heap: 64 consecutive `feed`
//! calls allocate zero times, f32 and int8.
//!
//! A counting `#[global_allocator]` is process-wide, so this lives in its
//! own test binary with a single `#[test]`: no other test thread can
//! allocate inside the measured window.

use astro_model::{InferenceSession, ModelConfig, Params, Tier};
use astro_prng::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// the only addition and it does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn sixty_four_feeds_allocate_nothing() {
    let vocab = 64;
    let f32_params = Params::init(ModelConfig::tier(Tier::S7b, vocab), &mut Rng::seed_from(3));
    let int8_params = f32_params.clone().quantized();
    for p in [&f32_params, &int8_params] {
        let mut sess = InferenceSession::new(p.cfg);
        // A chunk first: the scratch grows once, then shrinking back to
        // one row must not allocate either.
        sess.try_feed_chunk(p, &[1, 2, 3, 4]).unwrap();
        let mut checksum = 0.0f32;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for t in 0..64u32 {
            checksum += sess.feed(p, t % vocab as u32)[0];
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert!(checksum.is_finite());
        assert_eq!(after - before, 0, "{:?}: feed allocated", p.cfg.precision);
    }
}
