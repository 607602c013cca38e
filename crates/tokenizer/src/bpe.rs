//! BPE training.
//!
//! Standard byte-pair-encoding trainer over a word-segmented corpus:
//! count the frequency of every adjacent token pair across all distinct
//! chunks (weighted by chunk frequency), merge the most frequent pair
//! (ties to the smallest pair), repeat until the target vocabulary size
//! or until the best pair occurs fewer than `min_pair_count` times.
//! Chunk deduplication makes training cost proportional to the number of
//! *distinct* words rather than corpus length.
//!
//! The counts are kept across merges rather than recounted. Beside them
//! sit an index from each pair to the chunks it may occur in and a
//! max-heap of `(count, pair)` entries, stale ones skipped when popped.
//! A merge of `(a, b)` into `n` touches only the chunks indexed under
//! `(a, b)`: each one's pairs are subtracted, the merge applied, and its
//! new pairs added back, indexing the chunk under the ones that hold `n`
//! (every pair a merge creates does). A pair whose count falls to zero
//! leaves the counts, so it never competes. The merges equal the
//! recount trainer's, which the tests keep as the oracle.

use crate::{segment, TokenId, Tokenizer, SPECIALS};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

/// An adjacent token pair, left then right.
type Pair = (TokenId, TokenId);

/// Configuration for [`train_bpe`].
#[derive(Clone, Debug)]
pub struct BpeTrainerConfig {
    /// Target total vocabulary size (bytes + specials + merges). Values
    /// below `256 + SPECIALS.len()` yield a byte-only tokenizer.
    pub vocab_size: usize,
    /// Stop merging when the best pair occurs fewer than this many times.
    pub min_pair_count: u64,
    /// Pieces guaranteed to exist as single tokens after training, even
    /// if the corpus statistics would not produce them (merges are
    /// appended as needed). Real LLM tokenizers reliably contain the
    /// answer-letter variants (`" A"`, `" B"`, ...) the paper's
    /// next-token method depends on; this reproduces that property at
    /// small vocabulary sizes.
    pub ensure_pieces: Vec<String>,
}

impl Default for BpeTrainerConfig {
    fn default() -> Self {
        BpeTrainerConfig {
            vocab_size: 1024,
            min_pair_count: 2,
            ensure_pieces: Vec::new(),
        }
    }
}

/// Train a byte-level BPE tokenizer on the given documents.
pub fn train_bpe(docs: &[String], config: &BpeTrainerConfig) -> Tokenizer {
    let base = 256 + SPECIALS.len();
    let target_merges = config.vocab_size.saturating_sub(base);

    // Each distinct chunk as a mutable token sequence, with its frequency.
    let mut chunk_freq: HashMap<&str, u64> = HashMap::new();
    for doc in docs {
        for chunk in segment(doc) {
            *chunk_freq.entry(chunk).or_insert(0) += 1;
        }
    }
    let mut chunks: Vec<(Vec<TokenId>, u64)> = chunk_freq
        .into_iter()
        .map(|(s, f)| (s.bytes().map(|b| b as TokenId).collect(), f))
        .collect();

    // Pair counts, the chunks each pair may occur in, and a max-heap of
    // (count, smallest pair first) entries; an entry whose count is no
    // longer the pair's is stale and skipped when popped.
    let mut counts: HashMap<Pair, u64> = HashMap::new();
    let mut holders: HashMap<Pair, Vec<usize>> = HashMap::new();
    for (c, (ids, freq)) in chunks.iter().enumerate() {
        for w in ids.windows(2) {
            let pair = (w[0], w[1]);
            *counts.entry(pair).or_insert(0) += freq;
            let list = holders.entry(pair).or_default();
            if list.last() != Some(&c) {
                list.push(c);
            }
        }
    }
    let mut heap: BinaryHeap<(u64, Reverse<Pair>)> =
        counts.iter().map(|(&pair, &count)| (count, Reverse(pair))).collect();

    let mut merges: Vec<Pair> = Vec::with_capacity(target_merges);
    let mut touched: Vec<Pair> = Vec::new();
    while merges.len() < target_merges {
        let Some((count, Reverse(pair))) = heap.pop() else { break };
        if counts.get(&pair) != Some(&count) {
            continue;
        }
        if count < config.min_pair_count {
            break;
        }
        let new_id = (base + merges.len()) as TokenId;
        merges.push(pair);
        // Re-count only the chunks that held `pair`: merging leaves no
        // occurrence of it (its count falls to zero and leaves `counts`),
        // and every pair it creates holds `new_id`.
        for c in holders.remove(&pair).unwrap_or_default() {
            let (ids, freq) = &mut chunks[c];
            for w in ids.windows(2) {
                let old = (w[0], w[1]);
                if let Entry::Occupied(mut n) = counts.entry(old) {
                    *n.get_mut() -= *freq;
                    if *n.get() == 0 {
                        n.remove();
                    }
                }
                touched.push(old);
            }
            apply_merge(ids, pair, new_id);
            for w in ids.windows(2) {
                let now = (w[0], w[1]);
                *counts.entry(now).or_insert(0) += *freq;
                touched.push(now);
                if now.0 == new_id || now.1 == new_id {
                    let list = holders.entry(now).or_default();
                    if list.last() != Some(&c) {
                        list.push(c);
                    }
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for pair in touched.drain(..) {
            if let Some(&count) = counts.get(&pair) {
                heap.push((count, Reverse(pair)));
            }
        }
    }

    // Append merges for any required pieces the corpus statistics missed.
    let mut tok = Tokenizer::from_merges(merges);
    for piece in &config.ensure_pieces {
        while tok.token_for_str(piece).is_none() {
            let mut ids = Vec::new();
            // Encode as a single chunk so merges can span the piece.
            tok.encode_chunk(piece.as_bytes(), &mut ids);
            debug_assert!(ids.len() >= 2, "piece {piece:?} should need a merge");
            tok.push_merge((ids[0], ids[1]));
        }
    }
    tok
}

/// Replace every occurrence of `pair` in `ids` with `new_id`, in place.
fn apply_merge(ids: &mut Vec<TokenId>, pair: (TokenId, TokenId), new_id: TokenId) {
    if ids.len() < 2 {
        return;
    }
    let mut write = 0;
    let mut read = 0;
    while read < ids.len() {
        if read + 1 < ids.len() && ids[read] == pair.0 && ids[read + 1] == pair.1 {
            ids[write] = new_id;
            read += 2;
        } else {
            ids[write] = ids[read];
            read += 1;
        }
        write += 1;
    }
    ids.truncate(write);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use astro_prng::Rng;

    /// The recount trainer: every pair counted afresh for every merge, and
    /// the tokenizer rebuilt for every appended merge. The oracle
    /// [`train_bpe`] must match merge for merge.
    fn train_bpe_recount(docs: &[String], config: &BpeTrainerConfig) -> Tokenizer {
        let base = 256 + SPECIALS.len();
        let target_merges = config.vocab_size.saturating_sub(base);
        let mut chunk_freq: HashMap<&str, u64> = HashMap::new();
        for doc in docs {
            for chunk in segment(doc) {
                *chunk_freq.entry(chunk).or_insert(0) += 1;
            }
        }
        let mut chunks: Vec<(Vec<TokenId>, u64)> = chunk_freq
            .into_iter()
            .map(|(s, f)| (s.bytes().map(|b| b as TokenId).collect(), f))
            .collect();
        chunks.sort_unstable();
        let mut merges: Vec<Pair> = Vec::with_capacity(target_merges);
        for merge_idx in 0..target_merges {
            let mut pair_counts: HashMap<Pair, u64> = HashMap::new();
            for (ids, freq) in &chunks {
                for w in ids.windows(2) {
                    *pair_counts.entry((w[0], w[1])).or_insert(0) += freq;
                }
            }
            let best = pair_counts
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
                .map(|(&p, &c)| (p, c));
            let Some((pair, count)) = best else { break };
            if count < config.min_pair_count {
                break;
            }
            let new_id = (base + merge_idx) as TokenId;
            merges.push(pair);
            for (ids, _) in &mut chunks {
                apply_merge(ids, pair, new_id);
            }
        }
        let mut tok = Tokenizer::from_merges(merges.clone());
        for piece in &config.ensure_pieces {
            while tok.token_for_str(piece).is_none() {
                let mut ids = Vec::new();
                tok.encode_chunk(piece.as_bytes(), &mut ids);
                merges.push((ids[0], ids[1]));
                tok = Tokenizer::from_merges(merges.clone());
            }
        }
        tok
    }

    /// A seeded random corpus over a small alphabet: words of one to
    /// eight letters (runs like `aaaa` are common with two or three
    /// letters), single and double spaces, newlines, and multibyte
    /// letters in some alphabets.
    pub(crate) fn random_docs(rng: &mut Rng) -> Vec<String> {
        const LETTERS: [&str; 10] = ["a", "b", "c", "d", "e", "f", "é", "☉", "σ", "A"];
        let alphabet = &LETTERS[..rng.range(1, LETTERS.len() + 1)];
        (0..rng.range(1, 5))
            .map(|_| {
                let mut doc = String::new();
                for _ in 0..rng.range(0, 80) {
                    match rng.index(10) {
                        0 => doc.push('\n'),
                        1 => doc.push_str("  "),
                        _ => doc.push(' '),
                    }
                    for _ in 0..rng.range(1, 9) {
                        doc.push_str(alphabet[rng.index(alphabet.len())]);
                    }
                }
                doc
            })
            .collect()
    }

    #[test]
    fn incremental_training_matches_the_recount_oracle() {
        let mut rng = Rng::seed_from(2024);
        for case in 0..200 {
            let docs = random_docs(&mut rng);
            let mut ensure_pieces: Vec<String> = Vec::new();
            let words: Vec<&str> = (docs.iter().flat_map(|d| segment(d)))
                .filter(|w| w.len() > 1)
                .collect();
            for _ in 0..rng.index(5) {
                let piece = match rng.index(4) {
                    0 => " ☉ A".to_string(),
                    1 => "Answer:".to_string(),
                    // A corpus word: often learned already, or built from
                    // pieces whose bytes an earlier merge already spells.
                    2 if !words.is_empty() => rng.choose(&words).to_string(),
                    _ => ensure_pieces.last().cloned().unwrap_or_else(|| " B".to_string()),
                };
                ensure_pieces.push(piece);
            }
            let config = BpeTrainerConfig {
                vocab_size: 256 + SPECIALS.len() + rng.index(120),
                min_pair_count: *rng.choose(&[0, 1, 2, 1000]),
                ensure_pieces,
            };
            let want = train_bpe_recount(&docs, &config);
            let got = train_bpe(&docs, &config);
            assert_eq!(got.merges(), want.merges(), "case {case}: {config:?}");
            assert_eq!(got.pieces, want.pieces, "case {case}");
            for piece in &want.pieces {
                assert_eq!(got.piece_ids.get(piece), want.piece_ids.get(piece), "case {case}");
            }
        }
    }

    #[test]
    fn apply_merge_basic() {
        let mut ids = vec![1, 2, 3, 1, 2, 1];
        apply_merge(&mut ids, (1, 2), 99);
        assert_eq!(ids, vec![99, 3, 99, 1]);
    }

    #[test]
    fn apply_merge_overlapping_left_to_right() {
        let mut ids = vec![7, 7, 7];
        apply_merge(&mut ids, (7, 7), 42);
        assert_eq!(ids, vec![42, 7]);
    }

    #[test]
    fn apply_merge_empty_and_single() {
        let mut empty: Vec<TokenId> = vec![];
        apply_merge(&mut empty, (1, 2), 9);
        assert!(empty.is_empty());
        let mut single = vec![5];
        apply_merge(&mut single, (1, 2), 9);
        assert_eq!(single, vec![5]);
    }

    #[test]
    fn training_learns_frequent_words() {
        let corpus = "supernova ".repeat(100) + &"dust ".repeat(3);
        let tok = train_bpe(
            &[corpus],
            &BpeTrainerConfig {
                vocab_size: 280,
                min_pair_count: 2,
                ensure_pieces: Vec::new(),
            },
        );
        // "supernova" should encode into very few tokens after merging.
        let n = tok.encode("supernova").len();
        assert!(n <= 3, "supernova encodes to {n} tokens");
    }

    #[test]
    fn training_is_deterministic() {
        let docs = vec!["the star of the galaxy shines on the dust".to_string()];
        let cfg = BpeTrainerConfig {
            vocab_size: 290,
            min_pair_count: 1,
            ensure_pieces: Vec::new(),
        };
        let a = train_bpe(&docs, &cfg);
        let b = train_bpe(&docs, &cfg);
        assert_eq!(a.encode("the star"), b.encode("the star"));
        assert_eq!(a.vocab_size(), b.vocab_size());
    }

    #[test]
    fn min_pair_count_limits_merges() {
        let docs = vec!["abc abc xyz".to_string()];
        let strict = train_bpe(
            &docs,
            &BpeTrainerConfig {
                vocab_size: 400,
                min_pair_count: 1000,
                ensure_pieces: Vec::new(),
            },
        );
        assert_eq!(strict.num_merges(), 0);
    }

    #[test]
    fn ensure_pieces_creates_missing_tokens() {
        // Corpus never contains " A", yet the piece must exist afterwards.
        let tok = train_bpe(
            &["nothing relevant here".to_string()],
            &BpeTrainerConfig {
                vocab_size: 270,
                min_pair_count: 2,
                ensure_pieces: vec![" A".to_string(), " B".to_string(), " D".to_string()],
            },
        );
        for piece in [" A", " B", " D"] {
            assert!(tok.token_for_str(piece).is_some(), "{piece:?} missing");
        }
    }

    #[test]
    fn ensure_pieces_multibyte() {
        let tok = train_bpe(
            &["xyz".to_string()],
            &BpeTrainerConfig {
                vocab_size: 270,
                min_pair_count: 1000,
                ensure_pieces: vec!["Answer:".to_string()],
            },
        );
        assert!(tok.token_for_str("Answer:").is_some());
        // Round trips still hold with the synthetic merges.
        assert_eq!(tok.decode(&tok.encode("Answer: yes")), "Answer: yes");
    }

    #[test]
    fn ensure_pieces_noop_when_already_present() {
        let corpus = "Answer: A ".repeat(100);
        let with = train_bpe(
            std::slice::from_ref(&corpus),
            &BpeTrainerConfig {
                vocab_size: 300,
                min_pair_count: 1,
                ensure_pieces: vec![" A".to_string()],
            },
        );
        let without = train_bpe(
            &[corpus],
            &BpeTrainerConfig {
                vocab_size: 300,
                min_pair_count: 1,
                ensure_pieces: Vec::new(),
            },
        );
        // " A" was already learned from data, so ensure adds nothing.
        assert_eq!(with.num_merges(), without.num_merges());
    }

    #[test]
    fn vocab_below_base_is_byte_only() {
        let docs = vec!["hello".to_string()];
        let tok = train_bpe(
            &docs,
            &BpeTrainerConfig {
                vocab_size: 10,
                min_pair_count: 1,
                ensure_pieces: Vec::new(),
            },
        );
        assert_eq!(tok.num_merges(), 0);
        assert_eq!(tok.encode("hi").len(), 2);
    }
}
