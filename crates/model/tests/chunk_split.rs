//! Chunk-split invariance: however a token stream is cut into
//! `try_feed_chunk` / `try_feed_prompt` / `feed` calls, every logit row,
//! the session state and what the session computes next are
//! bitwise-equal (`to_bits`) to feeding the tokens one at a time — for
//! f32 and for int8.
//!
//! This is the contract that lets `feed`, `try_feed_chunk` and the
//! row-blocked prefill be calls of one routine.

use astro_model::{
    InferenceSession, ModelConfig, Params, SessionError, Tier, WeightPrecision,
};
use astro_prng::Rng;

const VOCAB: usize = 24;

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn params(cfg: ModelConfig, seed: u64, precision: WeightPrecision) -> Params {
    let p = Params::init(cfg, &mut Rng::seed_from(seed));
    match precision {
        WeightPrecision::F32 => p,
        WeightPrecision::Int8 => p.quantized(),
    }
}

fn random_tokens(rng: &mut Rng, n: usize) -> Vec<u32> {
    (0..n).map(|_| rng.index(VOCAB) as u32).collect()
}

/// Between `lo` and `hi - 1` random tokens.
fn some_tokens(rng: &mut Rng, lo: usize, hi: usize) -> Vec<u32> {
    let n = rng.range(lo, hi);
    random_tokens(rng, n)
}

/// Random chunk lengths of `1..=8` summing to `n`.
fn random_split(rng: &mut Rng, n: usize) -> Vec<usize> {
    random_split_up_to(rng, n, 8)
}

/// Random chunk lengths of `1..=longest` summing to `n`.
fn random_split_up_to(rng: &mut Rng, n: usize, longest: usize) -> Vec<usize> {
    let mut split = Vec::new();
    let mut left = n;
    while left > 0 {
        let len = rng.range(1, longest + 1).min(left);
        split.push(len);
        left -= len;
    }
    split
}

/// Feed `tokens` one `feed` call each; returns every logit row's bits.
fn feed_singles(sess: &mut InferenceSession, p: &Params, tokens: &[u32]) -> Vec<u32> {
    let mut rows = Vec::new();
    for &t in tokens {
        rows.extend(bits(sess.feed(p, t)));
    }
    rows
}

/// Feed `tokens` cut into `split`; returns every logit row's bits. A
/// one-token piece goes through `feed` when `singles_via_feed`, so the
/// row scratch shrinks and regrows between calls.
fn feed_split(
    sess: &mut InferenceSession,
    p: &Params,
    tokens: &[u32],
    split: &[usize],
    singles_via_feed: bool,
) -> Vec<u32> {
    assert_eq!(split.iter().sum::<usize>(), tokens.len());
    let mut rows = Vec::new();
    let mut at = 0;
    for &len in split {
        let piece = &tokens[at..at + len];
        if len == 1 && singles_via_feed {
            rows.extend(bits(sess.feed(p, piece[0])));
        } else {
            rows.extend(bits(&sess.try_feed_chunk(p, piece).unwrap()));
        }
        at += len;
    }
    rows
}

/// Both sessions hold the same state: position, last logits, and — by
/// feeding `next` to each — the same KV rows.
fn assert_interchangeable(
    a: &mut InferenceSession,
    b: &mut InferenceSession,
    p: &Params,
    next: &[u32],
    what: &str,
) {
    assert_eq!(a.position(), b.position(), "{what}: position");
    assert_eq!(bits(a.last_logits()), bits(b.last_logits()), "{what}: last_logits");
    assert_eq!(feed_singles(a, p, next), feed_singles(b, p, next), "{what}: continuation");
}

/// One case: `prompt` fed singly to both sessions, then `tokens` singly
/// to one and cut into `split` to the other, then `next` singly to both.
fn check_case(p: &Params, prompt: &[u32], tokens: &[u32], split: &[usize], next: &[u32], what: &str) {
    let mut singles = InferenceSession::new(p.cfg);
    feed_singles(&mut singles, p, prompt);
    let mut chunked = singles.clone();
    let want = feed_singles(&mut singles, p, tokens);
    let got = feed_split(&mut chunked, p, tokens, split, true);
    assert_eq!(got, want, "{what}: logit rows, split {split:?}");
    assert_interchangeable(&mut chunked, &mut singles, p, next, what);
}

const PRECISIONS: [WeightPrecision; 2] = [WeightPrecision::F32, WeightPrecision::Int8];

#[test]
fn any_chunk_split_is_bitwise_equal_to_single_feeds() {
    for precision in PRECISIONS {
        let cfg = ModelConfig::tiny(VOCAB);
        // The two fixed shapes the unit tests used to pin.
        let p = params(cfg, 12, precision);
        check_case(&p, &[3, 1, 4], &[1, 5, 9, 2, 6], &[5], &[7], "fixed shape, seed 12");
        let p = params(cfg, 13, precision);
        check_case(&p, &[2, 7, 1], &[8, 2, 8, 4], &[4], &[1], "fixed shape, seed 13");

        let weights: Vec<Params> = (0..4).map(|s| params(cfg, 100 + s, precision)).collect();
        for case in 0..128u64 {
            let mut rng = Rng::seed_from(0xc4a5e ^ case);
            let p = &weights[case as usize % weights.len()];
            let n = rng.range(1, cfg.max_seq - 3 + 1);
            let tokens = random_tokens(&mut rng, n);
            let next = random_tokens(&mut rng, 3);
            let split = random_split(&mut rng, n);
            check_case(p, &[], &tokens, &split, &next, &format!("{precision:?} case {case}"));
        }
    }
}

#[test]
fn chunk_split_holds_at_a_tier_shape() {
    // S7b widths (64 / 176) exercise the kernels' SIMD tails and 4-row
    // groups, which the 16-wide tiny model does not.
    for precision in PRECISIONS {
        let cfg = ModelConfig::tier(Tier::S7b, VOCAB);
        let p = params(cfg, 7, precision);
        for case in 0..6u64 {
            let mut rng = Rng::seed_from(0x7b ^ case);
            let n = rng.range(9, 40);
            let tokens = random_tokens(&mut rng, n);
            let next = random_tokens(&mut rng, 3);
            let split = random_split(&mut rng, n);
            check_case(&p, &[], &tokens, &split, &next, &format!("S7b {precision:?} case {case}"));
        }
    }
}

#[test]
fn a_chunk_may_end_exactly_at_max_seq_and_one_past_is_a_typed_error() {
    for precision in PRECISIONS {
        let cfg = ModelConfig::tiny(VOCAB);
        let p = params(cfg, 21, precision);
        for case in 0..8u64 {
            let mut rng = Rng::seed_from(0xf11 ^ case);
            let tokens = random_tokens(&mut rng, cfg.max_seq);
            let split = random_split(&mut rng, cfg.max_seq);
            let last = *split.last().unwrap();
            let mut singles = InferenceSession::new(p.cfg);
            let want = feed_singles(&mut singles, &p, &tokens);

            // Everything but the last piece, then a piece one token too
            // long: refused, and nothing about the session moves.
            let mut chunked = InferenceSession::new(p.cfg);
            let fits = cfg.max_seq - last;
            let mut got = feed_split(&mut chunked, &p, &tokens[..fits], &split[..split.len() - 1], false);
            let before = (chunked.position(), bits(chunked.last_logits()));
            let mut too_long = tokens[fits..].to_vec();
            too_long.push(0);
            assert_eq!(
                chunked.try_feed_chunk(&p, &too_long).unwrap_err(),
                SessionError::CacheFull { pos: cfg.max_seq, max_seq: cfg.max_seq },
            );
            assert_eq!((chunked.position(), bits(chunked.last_logits())), before);

            // The piece that ends exactly at `max_seq` is accepted.
            got.extend(feed_split(&mut chunked, &p, &tokens[fits..], &[last], false));
            assert_eq!(got, want, "{precision:?} case {case}: split {split:?}");
            assert_eq!(chunked.position(), cfg.max_seq);
            assert_eq!(chunked.remaining(), 0);
            assert_eq!(bits(chunked.last_logits()), bits(singles.last_logits()));
            assert_eq!(
                chunked.try_feed_chunk(&p, &[1]).unwrap_err(),
                SessionError::CacheFull { pos: cfg.max_seq, max_seq: cfg.max_seq },
            );
        }
    }
}

#[test]
fn assign_from_into_a_session_with_grown_scratch() {
    for precision in PRECISIONS {
        let cfg = ModelConfig::tiny(VOCAB);
        let p = params(cfg, 41, precision);
        for case in 0..32u64 {
            let mut rng = Rng::seed_from(0xa551 ^ case);
            let prompt = some_tokens(&mut rng, 1, 12);
            let tokens = some_tokens(&mut rng, 1, 12);
            let split = random_split(&mut rng, tokens.len());
            let next = random_tokens(&mut rng, 3);

            let mut src = InferenceSession::new(p.cfg);
            feed_singles(&mut src, &p, &prompt);
            // A worker session that has already served an 8-row chunk of
            // something else: its scratch is grown, its KV rows are dirty.
            let mut worker = InferenceSession::new(p.cfg);
            worker.try_feed_chunk(&p, &random_tokens(&mut rng, 8)).unwrap();
            feed_singles(&mut worker, &p, &random_tokens(&mut rng, 9));
            worker.assign_from(&src);

            let want = feed_singles(&mut src, &p, &tokens);
            let got = feed_split(&mut worker, &p, &tokens, &split, true);
            assert_eq!(got, want, "{precision:?} case {case}: split {split:?}");
            assert_interchangeable(&mut worker, &mut src, &p, &next, &format!("{precision:?} case {case}"));
        }
    }
}

/// `tokens` cut into `split`, each stretch through `try_feed_prompt` (row
/// blocks, last-row logits): after every stretch the logits are those
/// the one-token feeds produced at that position, and at the end the
/// sessions are interchangeable — same KV rows.
fn check_prompt_stretches(p: &Params, tokens: &[u32], split: &[usize], next: &[u32], what: &str) {
    let vocab = p.cfg.vocab_size;
    let mut singles = InferenceSession::new(p.cfg);
    let rows = feed_singles(&mut singles, p, tokens);
    let mut blocked = InferenceSession::new(p.cfg);
    let mut at = 0;
    for &len in split {
        let got = bits(blocked.try_feed_prompt(p, &tokens[at..at + len]).unwrap());
        at += len;
        assert_eq!(got, rows[(at - 1) * vocab..at * vocab], "{what}: logits after token {at}, split {split:?}");
    }
    assert_interchangeable(&mut blocked, &mut singles, p, next, what);
}

#[test]
fn block_fed_prompt_is_bitwise_equal_to_single_feeds() {
    // Stretches of up to 40 tokens: shorter than, equal to and several
    // times the prefill row block, with ragged last blocks.
    for precision in PRECISIONS {
        let tiny = params(ModelConfig::tiny(VOCAB), 51, precision);
        let s7b = params(ModelConfig::tier(Tier::S7b, VOCAB), 52, precision);
        for case in 0..24u64 {
            let mut rng = Rng::seed_from(0xb10c ^ case);
            let (p, longest) = if case % 4 == 0 { (&s7b, 120) } else { (&tiny, tiny.cfg.max_seq - 3) };
            let n = rng.range(1, longest + 1);
            let tokens = random_tokens(&mut rng, n);
            let next = random_tokens(&mut rng, 3);
            let split = random_split_up_to(&mut rng, n, 40);
            check_prompt_stretches(p, &tokens, &split, &next, &format!("{precision:?} case {case}"));
            check_prompt_stretches(p, &tokens, &[n], &next, &format!("{precision:?} case {case}, whole"));
        }
    }
}

#[test]
fn a_prompt_one_token_too_long_fills_the_cache_then_fails_like_single_feeds() {
    for precision in PRECISIONS {
        let cfg = ModelConfig::tiny(VOCAB);
        let p = params(cfg, 61, precision);
        let mut rng = Rng::seed_from(0x0f10);
        let tokens = random_tokens(&mut rng, cfg.max_seq + 1);
        let full = SessionError::CacheFull { pos: cfg.max_seq, max_seq: cfg.max_seq };
        for start in [0, 5, cfg.max_seq] {
            let mut singles = InferenceSession::new(p.cfg);
            feed_singles(&mut singles, &p, &tokens[..cfg.max_seq]);
            assert_eq!(singles.try_feed(&p, tokens[cfg.max_seq]).unwrap_err(), full);

            let mut blocked = InferenceSession::new(p.cfg);
            feed_singles(&mut blocked, &p, &tokens[..start]);
            assert_eq!(blocked.try_feed_prompt(&p, &tokens[start..]).unwrap_err(), full);
            assert_eq!(blocked.position(), cfg.max_seq, "{precision:?} from {start}");
            assert_eq!(bits(blocked.last_logits()), bits(singles.last_logits()));
        }
    }
}
