//! Chunk-split invariance: however a token stream is cut into
//! `try_feed_chunk` / `try_feed_prompt` / `feed` calls, every logit row,
//! the session state and what the session computes next are
//! bitwise-equal (`to_bits`) to feeding the tokens one at a time — for
//! f32 and for int8.
//!
//! This is the contract that lets `feed`, `try_feed_chunk` and the
//! row-blocked prefill be calls of one routine. The same holds across
//! sessions: lanes stacked into one `try_feed_lanes` call leave every
//! session, and produce every logit row, exactly as feeding each lane
//! alone does; and runs fed as branches of one session by
//! `try_feed_branches` produce the rows of forks of it stacked as lanes,
//! and leave the session as it was.

use astro_model::{
    InferenceSession, Lane, ModelConfig, Params, SessionError, Tier, WeightPrecision,
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

/// `try_feed_lanes` over `sessions` and `tokens` pairwise; returns the
/// logit rows' bits, lane after lane.
fn feed_stacked(
    p: &Params,
    sessions: &mut [InferenceSession],
    tokens: &[Vec<u32>],
) -> Result<Vec<u32>, SessionError> {
    let rows: usize = tokens.iter().map(Vec::len).sum();
    let mut logits = vec![f32::NAN; rows * p.cfg.vocab_size];
    let mut lanes: Vec<Lane<'_>> = sessions
        .iter_mut()
        .zip(tokens)
        .map(|(session, tokens)| Lane { session, tokens })
        .collect();
    InferenceSession::try_feed_lanes(p, &mut lanes, &mut logits)?;
    Ok(bits(&logits))
}

/// Stack `sessions` × `tokens` in one call and feed a clone of each
/// session its tokens alone, one `feed` each: same logit rows, and every
/// session interchangeable with its clone afterwards.
fn check_lanes(p: &Params, mut sessions: Vec<InferenceSession>, tokens: &[Vec<u32>], next: &[u32], what: &str) {
    let mut alone: Vec<InferenceSession> = sessions.to_vec();
    let mut want = Vec::new();
    for (sess, tokens) in alone.iter_mut().zip(tokens) {
        want.extend(feed_singles(sess, p, tokens));
    }
    let got = feed_stacked(p, &mut sessions, tokens).unwrap();
    assert_eq!(got, want, "{what}: logit rows");
    for (i, (a, b)) in sessions.iter_mut().zip(&mut alone).enumerate() {
        assert_interchangeable(a, b, p, next, &format!("{what}: lane {i}"));
    }
}

#[test]
fn lanes_stacked_in_one_call_are_bitwise_equal_to_each_fed_alone() {
    for precision in PRECISIONS {
        let tiny = params(ModelConfig::tiny(VOCAB), 71, precision);
        let s7b = params(ModelConfig::tier(Tier::S7b, VOCAB), 72, precision);
        for case in 0..64u64 {
            let mut rng = Rng::seed_from(0x1a9e5 ^ case);
            let p = if case % 4 == 0 { &s7b } else { &tiny };
            // 1–8 sessions at different positions (a fresh one too), 1–8
            // rows each.
            let lanes = rng.range(1, 9);
            let mut sessions = Vec::new();
            let mut tokens = Vec::new();
            for _ in 0..lanes {
                let mut sess = InferenceSession::new(p.cfg);
                let depth = rng.range(0, p.cfg.max_seq - 11 + 1);
                if depth > 0 {
                    sess.try_feed_prompt(p, &random_tokens(&mut rng, depth)).unwrap();
                }
                sessions.push(sess);
                tokens.push(some_tokens(&mut rng, 1, 9));
            }
            let next = random_tokens(&mut rng, 3);
            check_lanes(p, sessions, &tokens, &next, &format!("{precision:?} case {case}"));
        }
    }
}

#[test]
fn two_lanes_forked_from_one_parent_diverge_like_two_clones() {
    for precision in PRECISIONS {
        let p = params(ModelConfig::tiny(VOCAB), 81, precision);
        for case in 0..16u64 {
            let mut rng = Rng::seed_from(0xf0c ^ case);
            let mut parent = InferenceSession::new(p.cfg);
            parent.try_feed_prompt(&p, &some_tokens(&mut rng, 1, 16)).unwrap();
            // One fork by `clone`, one by `assign_from` into a session with
            // grown scratch and dirty KV rows — the score readout's forks.
            let mut worker = InferenceSession::new(p.cfg);
            worker.try_feed_chunk(&p, &random_tokens(&mut rng, 8)).unwrap();
            worker.assign_from(&parent);
            let sessions = vec![parent.clone(), worker];
            let tokens = [some_tokens(&mut rng, 1, 9), some_tokens(&mut rng, 1, 9)];
            let next = random_tokens(&mut rng, 3);
            check_lanes(&p, sessions, &tokens, &next, &format!("{precision:?} case {case}"));
        }
    }
}

#[test]
fn a_lane_that_would_overflow_is_a_typed_error_and_no_lane_moves() {
    for precision in PRECISIONS {
        let cfg = ModelConfig::tiny(VOCAB);
        let p = params(cfg, 91, precision);
        let mut rng = Rng::seed_from(0x0f1a);
        let full = SessionError::CacheFull { pos: cfg.max_seq, max_seq: cfg.max_seq };
        // The lane one token too long comes first, last, or in between.
        for tight in 0..3 {
            let mut sessions = Vec::new();
            let mut tokens = Vec::new();
            for lane in 0..3 {
                let depth = if lane == tight { cfg.max_seq - 3 } else { 4 + lane };
                let mut sess = InferenceSession::new(p.cfg);
                sess.try_feed_prompt(&p, &random_tokens(&mut rng, depth)).unwrap();
                sessions.push(sess);
                tokens.push(random_tokens(&mut rng, 4));
            }
            let before = sessions.to_vec();
            assert_eq!(feed_stacked(&p, &mut sessions, &tokens).unwrap_err(), full, "lane {tight}");
            let next = random_tokens(&mut rng, 3);
            for (i, (a, b)) in sessions.iter_mut().zip(&mut before.to_vec()).enumerate() {
                assert_interchangeable(a, b, &p, &next, &format!("{precision:?} tight {tight}: lane {i}"));
            }
            // Cut to what fits, the same lanes go through — the tight one
            // ending exactly at `max_seq`.
            tokens[tight].truncate(3);
            check_lanes(&p, before, &tokens, &[], &format!("{precision:?} tight {tight}, cut"));
        }
    }
}

/// `sess.try_feed_branches` over `runs`; returns the logit rows' bits, run
/// after run.
fn feed_branches(
    p: &Params,
    sess: &mut InferenceSession,
    runs: &[Vec<u32>],
) -> Result<Vec<u32>, SessionError> {
    let rows: usize = runs.iter().map(Vec::len).sum();
    let mut logits = vec![f32::NAN; rows * p.cfg.vocab_size];
    let runs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
    sess.try_feed_branches(p, &runs, &mut logits)?;
    Ok(bits(&logits))
}

/// Feed `runs` as branches of `parent`, and as lanes of one
/// `try_feed_lanes` call to forks of it: the same logit rows, and the
/// parent interchangeable afterwards with a clone taken before.
fn check_branches(p: &Params, mut parent: InferenceSession, runs: &[Vec<u32>], next: &[u32], what: &str) {
    let mut untouched = parent.clone();
    let want = feed_stacked(p, &mut vec![parent.clone(); runs.len()], runs).unwrap();
    let got = feed_branches(p, &mut parent, runs).unwrap();
    assert_eq!(got, want, "{what}: logit rows");
    assert_interchangeable(&mut parent, &mut untouched, p, next, what);
}

#[test]
fn branches_of_one_session_are_bitwise_forked_lanes() {
    for precision in PRECISIONS {
        let tiny = params(ModelConfig::tiny(VOCAB), 75, precision);
        let s7b = params(ModelConfig::tier(Tier::S7b, VOCAB), 76, precision);
        for case in 0..64u64 {
            let mut rng = Rng::seed_from(0xb7a9c ^ case);
            let p = if case % 4 == 0 { &s7b } else { &tiny };
            // A parent at any depth that leaves room for 8 rows (a fresh
            // one too), 1–8 runs of 1–8 rows each.
            let mut parent = InferenceSession::new(p.cfg);
            let depth = rng.range(0, p.cfg.max_seq - 8 + 1);
            if depth > 0 {
                parent.try_feed_prompt(p, &random_tokens(&mut rng, depth)).unwrap();
            }
            let runs: Vec<Vec<u32>> = (0..rng.range(1, 9)).map(|_| some_tokens(&mut rng, 1, 9)).collect();
            let next = random_tokens(&mut rng, 3);
            check_branches(p, parent, &runs, &next, &format!("{precision:?} case {case}"));
        }
    }
}

#[test]
fn a_branch_that_would_overflow_is_a_typed_error_and_one_cut_to_max_seq_goes_through() {
    for precision in PRECISIONS {
        let cfg = ModelConfig::tiny(VOCAB);
        let p = params(cfg, 95, precision);
        let mut rng = Rng::seed_from(0xb0f1a);
        let full = SessionError::CacheFull { pos: cfg.max_seq, max_seq: cfg.max_seq };
        let mut parent = InferenceSession::new(p.cfg);
        parent.try_feed_prompt(&p, &random_tokens(&mut rng, cfg.max_seq - 3)).unwrap();
        // The run one token too long comes first, last, or in between.
        for tight in 0..3 {
            let mut runs: Vec<Vec<u32>> =
                (0..3).map(|i| random_tokens(&mut rng, if i == tight { 4 } else { 1 + i })).collect();
            let mut sess = parent.clone();
            assert_eq!(feed_branches(&p, &mut sess, &runs).unwrap_err(), full, "run {tight}");
            let next = random_tokens(&mut rng, 3);
            let what = format!("{precision:?} tight {tight}");
            assert_interchangeable(&mut sess, &mut parent.clone(), &p, &next, &what);
            // Cut to what fits, the same runs go through — the tight one
            // ending exactly at `max_seq`.
            runs[tight].truncate(3);
            check_branches(&p, parent.clone(), &runs, &next, &format!("{what}, cut"));
        }
    }
}
