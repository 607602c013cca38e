//! Property tests for session forking and the prefix cache, PRNG-driven
//! in the style of `crates/model/tests/config_property.rs`: random
//! token streams, random split points, and the invariant that a fork is
//! **bitwise** indistinguishable from a fresh session fed the full
//! stream. This is the foundation the engine's determinism contract
//! (docs/SERVING.md) rests on.

use astro_model::{InferenceSession, ModelConfig, Params};
use astro_prng::Rng;
use astro_serve::PrefixCache;

fn setup(seed: u64, vocab: usize) -> (ModelConfig, Params) {
    let cfg = ModelConfig::tiny(vocab);
    let params = Params::init(cfg, &mut Rng::seed_from(seed));
    (cfg, params)
}

fn random_stream(rng: &mut Rng, vocab: usize, len: usize) -> Vec<u32> {
    (0..len).map(|_| (rng.next_u64() % vocab as u64) as u32).collect()
}

/// Feed a fresh session the whole stream; return the final logits.
fn fresh_logits(cfg: ModelConfig, p: &Params, stream: &[u32]) -> Vec<f32> {
    let mut sess = InferenceSession::new(cfg);
    let mut out = Vec::new();
    for &t in stream {
        out = sess.feed(p, t).to_vec();
    }
    out
}

#[test]
fn fork_at_random_split_matches_fresh_full_stream() {
    let (cfg, params) = setup(71, 40);
    let mut rng = Rng::seed_from(72);
    for trial in 0..24 {
        let len = 2 + (rng.next_u64() % (cfg.max_seq as u64 - 2)) as usize;
        let stream = random_stream(&mut rng, cfg.vocab_size, len);
        let split = 1 + (rng.next_u64() % (len as u64 - 1)) as usize;

        // Encode the prefix once, then fork (clone) and continue.
        let mut prefix_sess = InferenceSession::new(cfg);
        for &t in &stream[..split] {
            prefix_sess.feed(&params, t);
        }
        let mut fork = prefix_sess.clone();
        let mut forked = fork.last_logits().to_vec();
        for &t in &stream[split..] {
            forked = fork.feed(&params, t).to_vec();
        }

        // assign_from must behave identically to clone, even into a
        // dirty target.
        let mut assigned = InferenceSession::new(cfg);
        assigned.feed(&params, stream[0]);
        assigned.assign_from(&prefix_sess);
        let mut via_assign = assigned.last_logits().to_vec();
        for &t in &stream[split..] {
            via_assign = assigned.feed(&params, t).to_vec();
        }

        let fresh = fresh_logits(cfg, &params, &stream);
        assert_eq!(forked, fresh, "trial {trial}: clone-fork diverged at split {split}/{len}");
        assert_eq!(via_assign, fresh, "trial {trial}: assign_from-fork diverged at split {split}/{len}");
    }
}

#[test]
fn fork_of_fork_matches_fresh_at_trie_depth_three() {
    let (cfg, params) = setup(73, 40);
    let mut rng = Rng::seed_from(74);
    for trial in 0..12 {
        let len = 6 + (rng.next_u64() % (cfg.max_seq as u64 - 6)) as usize;
        let stream = random_stream(&mut rng, cfg.vocab_size, len);
        // Three nested split points: preamble | article | question — the
        // trie depth the engine builds for a grouped batch.
        let s1 = 1 + (rng.next_u64() % (len as u64 / 3)) as usize;
        let s2 = s1 + 1 + (rng.next_u64() % ((len - s1) as u64 / 2).max(1)) as usize;

        let mut level1 = InferenceSession::new(cfg);
        for &t in &stream[..s1] {
            level1.feed(&params, t);
        }
        let mut level2 = level1.clone();
        for &t in &stream[s1..s2] {
            level2.feed(&params, t);
        }
        let mut level3 = level2.clone();
        let mut logits = level3.last_logits().to_vec();
        for &t in &stream[s2..] {
            logits = level3.feed(&params, t).to_vec();
        }
        assert_eq!(
            logits,
            fresh_logits(cfg, &params, &stream),
            "trial {trial}: fork-of-fork diverged at splits {s1},{s2}/{len}"
        );
        // The shallower forks must be untouched by the deeper ones.
        assert_eq!(level1.position(), s1);
        assert_eq!(level2.position(), s2);
    }
}

#[test]
fn cached_fork_matches_fresh_through_the_trie() {
    let (cfg, params) = setup(75, 40);
    let mut rng = Rng::seed_from(76);
    let mut cache = PrefixCache::new(&cfg, 0);
    // Shared preamble, then per-"article" middles, then random tails.
    let preamble = random_stream(&mut rng, cfg.vocab_size, 5);
    let mut pre_sess = InferenceSession::new(cfg);
    for &t in &preamble {
        pre_sess.feed(&params, t);
    }
    assert!(cache.insert(&preamble, &pre_sess, true));

    for trial in 0..16 {
        let tail = random_stream(&mut rng, cfg.vocab_size, 4 + (trial % 5));
        let full: Vec<u32> = preamble.iter().chain(tail.iter()).copied().collect();
        let mut sess = InferenceSession::new(cfg);
        let depth = cache.fork_into(&mut sess, &full);
        assert!(depth >= preamble.len(), "trial {trial}: expected a hit");
        let mut logits = sess.last_logits().to_vec();
        for &t in &full[depth..] {
            logits = sess.feed(&params, t).to_vec();
        }
        assert_eq!(logits, fresh_logits(cfg, &params, &full), "trial {trial}");
        // Grow the trie: snapshot this full prompt too (depth >= 2 under
        // the pinned preamble, exercising edge splits across trials).
        cache.insert(&full, &sess, false);
    }
    assert!(cache.stats().hits >= 16);
}

#[test]
fn eviction_then_refill_returns_identical_logits() {
    let (cfg, params) = setup(77, 40);
    let mut rng = Rng::seed_from(78);
    // Budget for exactly two resident snapshots: inserting a third evicts
    // the least-recently-used one.
    let mut cache = PrefixCache::new(&cfg, cfg.session_bytes() * 2);
    let prefixes: Vec<Vec<u32>> = (0..3)
        .map(|_| random_stream(&mut rng, cfg.vocab_size, 6))
        .collect();
    let encode = |prefix: &[u32]| {
        let mut s = InferenceSession::new(cfg);
        for &t in prefix {
            s.feed(&params, t);
        }
        s
    };
    let tail = random_stream(&mut rng, cfg.vocab_size, 5);
    let continue_from = |mut sess: InferenceSession, from: usize, full: &[u32]| -> Vec<f32> {
        let mut logits = sess.last_logits().to_vec();
        for &t in &full[from..] {
            logits = sess.feed(&params, t).to_vec();
        }
        logits
    };

    // First pass: every prefix scored from the cache right after insert.
    let mut first = Vec::new();
    for prefix in &prefixes {
        cache.insert(prefix, &encode(prefix), false);
        let full: Vec<u32> = prefix.iter().chain(tail.iter()).copied().collect();
        let mut sess = InferenceSession::new(cfg);
        let depth = cache.fork_into(&mut sess, &full);
        assert_eq!(depth, prefix.len());
        first.push(continue_from(sess, depth, &full));
    }
    assert!(cache.stats().evictions > 0, "cap of 2 with 3 inserts must evict");

    // Second pass: some prefixes were evicted (miss → re-encode →
    // re-insert), some survived (hit). Either path must reproduce the
    // first pass bit for bit.
    for (i, prefix) in prefixes.iter().enumerate() {
        let full: Vec<u32> = prefix.iter().chain(tail.iter()).copied().collect();
        let mut sess = InferenceSession::new(cfg);
        let mut depth = cache.fork_into(&mut sess, &full);
        if depth == 0 {
            // Evicted: refill the cache exactly as the engine would.
            let re = encode(prefix);
            cache.insert(prefix, &re, false);
            sess.assign_from(&re);
            depth = prefix.len();
        }
        let again = continue_from(sess, depth, &full);
        assert_eq!(again, first[i], "prefix {i}: eviction/refill changed logits");
        assert_eq!(again, fresh_logits(cfg, &params, &full), "prefix {i}: drifted from fresh");
    }
}

#[test]
fn cache_full_is_a_per_stream_error_not_a_crash() {
    let (cfg, params) = setup(79, 40);
    let mut sess = InferenceSession::new(cfg);
    for _ in 0..cfg.max_seq {
        sess.try_feed(&params, 1).expect("within capacity");
    }
    let err = sess.try_feed(&params, 1).expect_err("beyond capacity");
    assert!(format!("{err}").contains("KV cache full"));
    // The session remains usable as a fork source at its final position.
    let mut fork = InferenceSession::new(cfg);
    fork.assign_from(&sess);
    assert_eq!(fork.position(), cfg.max_seq);
    assert_eq!(fork.last_logits(), sess.last_logits());
}
