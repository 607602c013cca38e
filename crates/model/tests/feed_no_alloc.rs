//! The decode and prefill hot paths do not touch the heap: 64 consecutive
//! `feed` calls allocate zero times, and so do block-fed prefill once its
//! first row block has grown the scratch, and a stacked multi-session
//! forward and a score readout's branches once one of their width has —
//! f32, int8, and int8 frozen as an engine serves it.
//!
//! A counting `#[global_allocator]` is process-wide, so this lives in its
//! own test binary with a single `#[test]`: no other test thread can
//! allocate inside the measured window.

use astro_model::{InferenceSession, Lane, ModelConfig, Params, Tier};
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

/// Heap allocations `f` makes.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn feeds_and_block_fed_prefill_allocate_nothing() {
    let vocab = 64;
    let f32_params = Params::init(ModelConfig::tier(Tier::S7b, vocab), &mut Rng::seed_from(3));
    let int8_params = f32_params.clone().quantized();
    // The int8 weights as an engine serves them: the int8 panels on an
    // AVX-512 CPU, whose tile keeps its row offsets on the stack.
    let frozen_int8 = int8_params.clone().frozen();
    for (form, p) in [("f32", &f32_params), ("int8", &int8_params), ("frozen int8", &frozen_int8)] {
        let mut sess = InferenceSession::new(p.cfg);
        // A chunk first: the scratch grows once, then shrinking back to
        // one row must not allocate either.
        sess.try_feed_chunk(p, &[1, 2, 3, 4]).unwrap();
        let mut checksum = 0.0f32;
        let feeds = allocations_in(|| {
            for t in 0..64u32 {
                checksum += sess.feed(p, t % vocab as u32)[0];
            }
        });
        assert_eq!(feeds, 0, "{form}: feed allocated");

        // Prefill: the first full row block grows the scratch; the five
        // blocks and the ragged sixth after it reuse it, as does the
        // decode that follows.
        let prompt: Vec<u32> = (0..100).map(|t| t % vocab as u32).collect();
        let mut sess = InferenceSession::new(p.cfg);
        sess.try_feed_prompt(p, &prompt[..16]).unwrap();
        let prefill = allocations_in(|| {
            checksum += sess.try_feed_prompt(p, &prompt[16..]).unwrap()[0];
            checksum += sess.feed(p, 1)[0];
        });
        assert_eq!(prefill, 0, "{form}: block-fed prefill allocated");

        // A score readout's stacked forward: eight forks of the prompt, 20
        // rows in all. The first one grows the first fork's scratch; the
        // second of the same width — forks re-assigned in place, as the
        // engine's fork pool does — reuses it.
        let mut forks: Vec<InferenceSession> = vec![sess.clone(); 8];
        let variants: Vec<Vec<u32>> = (0..8u32).map(|v| (0..=v % 4).map(|t| v + t).collect()).collect();
        let mut rows = vec![0.0f32; 20 * vocab];
        let mut stacked = usize::MAX;
        for _ in 0..2 {
            for fork in &mut forks {
                fork.assign_from(&sess);
            }
            let mut lanes: Vec<Lane<'_>> = forks
                .iter_mut()
                .zip(&variants)
                .map(|(session, tokens)| Lane { session, tokens })
                .collect();
            stacked = allocations_in(|| {
                InferenceSession::try_feed_lanes(p, &mut lanes, &mut rows).unwrap();
            });
            checksum += rows[0];
        }
        assert_eq!(stacked, 0, "{form}: second stacked readout allocated");

        // The same readout as the engine feeds it: the eight variants as
        // branches of the prompt's session. The first call grows the
        // session's scratch; the second of the same width reuses it.
        let runs: Vec<&[u32]> = variants.iter().map(Vec::as_slice).collect();
        let mut branched = usize::MAX;
        for _ in 0..2 {
            branched = allocations_in(|| {
                sess.try_feed_branches(p, &runs, &mut rows).unwrap();
            });
            checksum += rows[0];
        }
        assert_eq!(branched, 0, "{form}: second branch readout allocated");
        assert!(checksum.is_finite());
    }
}
