//! Byte-level BPE tokenizer for the AstroMLab 2 reproduction.
//!
//! LLaMA models ship SentencePiece/BPE tokenizers; we train our own
//! byte-level BPE on the synthetic corpus. Two properties of real
//! tokenizers that the paper's evaluation *depends on* are reproduced
//! faithfully:
//!
//! * **Leading-space variants.** Merges operate on raw bytes including
//!   spaces, so `"A"` and `" A"` typically become *different* tokens —
//!   exactly the ambiguity the paper's next-token benchmarking method must
//!   resolve dynamically (§V-B).
//! * **Special tokens** for chat structure (`<|bos|>`, `<|user|>`, ...)
//!   that never collide with text tokens, used by the SFT chat template
//!   and the full-instruct evaluation method.
//!
//! The implementation is a standard pair-merge BPE: training counts
//! adjacent-pair frequencies over a word-segmented corpus and greedily
//! merges the most frequent pair; encoding applies merges in rank order
//! within each chunk. [`Tokenizer::encode_docs`], the packing call, keeps
//! a per-chunk cache for the length of one call: each distinct chunk of
//! its documents is encoded once and copied wherever it recurs. The
//! tokenizer itself holds no cache and never changes once trained.

mod bpe;
mod chat;
mod serial;

pub use bpe::{train_bpe, BpeTrainerConfig};
pub use chat::{ChatMessage, ChatTemplate, Role};
pub use serial::SerialError;

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;

/// Special tokens, in id order directly after the 256 byte tokens.
pub const SPECIALS: [&str; 7] = [
    "<|bos|>",
    "<|eos|>",
    "<|pad|>",
    "<|system|>",
    "<|user|>",
    "<|assistant|>",
    "<|end|>",
];

/// Token id type.
pub type TokenId = u32;

/// A trained byte-level BPE tokenizer.
#[derive(Clone, Debug)]
pub struct Tokenizer {
    /// Merge rules in rank order: merging `pair.0` and `pair.1` produces
    /// token `256 + SPECIALS.len() + rank`.
    merges: Vec<(TokenId, TokenId)>,
    /// pair → merged id, for O(1) lookup while encoding.
    merge_map: HashMap<(TokenId, TokenId), TokenId>,
    /// Byte string for every token id (specials included, as their
    /// literal text).
    pieces: Vec<Vec<u8>>,
    /// Exact piece → id lookup.
    piece_ids: HashMap<Vec<u8>, TokenId>,
}

impl Tokenizer {
    /// Construct from merge rules (normally via [`train_bpe`]).
    pub fn from_merges(merges: Vec<(TokenId, TokenId)>) -> Self {
        let pieces: Vec<Vec<u8>> = (0..=255u8)
            .map(|b| vec![b])
            .chain(SPECIALS.iter().map(|s| s.as_bytes().to_vec()))
            .collect();
        let piece_ids = pieces.iter().enumerate().map(|(i, p)| (p.clone(), i as TokenId)).collect();
        let mut tok = Tokenizer {
            merges: Vec::with_capacity(merges.len()),
            merge_map: HashMap::with_capacity(merges.len()),
            pieces,
            piece_ids,
        };
        for pair in merges {
            tok.push_merge(pair);
        }
        tok
    }

    /// Total vocabulary size (bytes + specials + merges).
    pub fn vocab_size(&self) -> usize {
        self.pieces.len()
    }

    /// Number of learned merges.
    pub fn num_merges(&self) -> usize {
        self.merges.len()
    }

    /// Id of a special token.
    ///
    /// # Panics
    /// Panics if `name` is not one of [`SPECIALS`].
    pub fn special(&self, name: &str) -> TokenId {
        let idx = SPECIALS
            .iter()
            .position(|&s| s == name)
            .unwrap_or_else(|| panic!("unknown special token {name}"));
        (256 + idx) as TokenId
    }

    /// Convenience: beginning-of-sequence id.
    pub fn bos(&self) -> TokenId {
        self.special("<|bos|>")
    }

    /// Convenience: end-of-sequence id.
    pub fn eos(&self) -> TokenId {
        self.special("<|eos|>")
    }

    /// Convenience: padding id.
    pub fn pad(&self) -> TokenId {
        self.special("<|pad|>")
    }

    /// Exact single-token lookup: the id whose piece is exactly `s`, if
    /// one exists. This powers the eval-side detection of `"A"` vs `" A"`
    /// answer-token variants.
    pub fn token_for_str(&self, s: &str) -> Option<TokenId> {
        self.piece_ids.get(s.as_bytes()).copied()
    }

    /// The byte string of a token.
    pub fn piece(&self, id: TokenId) -> &[u8] {
        &self.pieces[id as usize]
    }

    /// Encode text to token ids (no BOS/EOS added).
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        let mut out = Vec::with_capacity(text.len() / 3 + 4);
        for chunk in segment(text) {
            self.encode_chunk(chunk.as_bytes(), &mut out);
        }
        out
    }

    /// Encode with BOS prepended and optionally EOS appended.
    pub fn encode_with_bounds(&self, text: &str, eos: bool) -> Vec<TokenId> {
        let mut out = vec![self.bos()];
        for chunk in segment(text) {
            self.encode_chunk(chunk.as_bytes(), &mut out);
        }
        if eos {
            out.push(self.eos());
        }
        out
    }

    /// Encode documents into one packed stream, `<bos> doc <eos>` for
    /// each: the concatenation of every `encode_with_bounds(doc, true)`.
    /// Merges never cross chunk boundaries, so each distinct chunk is
    /// encoded once and its ids copied from its first occurrence in the
    /// stream wherever it recurs; the memo lives only for this call.
    pub fn encode_docs<'a>(&self, docs: impl IntoIterator<Item = &'a str>) -> Vec<TokenId> {
        let mut out = Vec::new();
        let mut memo: HashMap<&str, Range<usize>> = HashMap::new();
        for text in docs {
            out.push(self.bos());
            for chunk in segment(text) {
                match memo.entry(chunk) {
                    Entry::Occupied(first) => out.extend_from_within(first.get().clone()),
                    Entry::Vacant(slot) => {
                        let start = out.len();
                        self.encode_chunk(chunk.as_bytes(), &mut out);
                        slot.insert(start..out.len());
                    }
                }
            }
            out.push(self.eos());
        }
        out
    }

    /// Apply merges to one pre-tokenised chunk, appending ids to `out`.
    fn encode_chunk(&self, bytes: &[u8], out: &mut Vec<TokenId>) {
        let mut ids: Vec<TokenId> = bytes.iter().map(|&b| b as TokenId).collect();
        loop {
            // Find the lowest-rank applicable merge.
            let mut best: Option<(TokenId, usize)> = None; // (merged id, position)
            for i in 0..ids.len().saturating_sub(1) {
                if let Some(&m) = self.merge_map.get(&(ids[i], ids[i + 1])) {
                    if best.map(|(b, _)| m < b).unwrap_or(true) {
                        best = Some((m, i));
                    }
                }
            }
            match best {
                Some((m, i)) => {
                    ids[i] = m;
                    ids.remove(i + 1);
                }
                None => break,
            }
        }
        out.extend_from_slice(&ids);
    }

    /// Decode token ids back to text. Byte sequences that are not valid
    /// UTF-8 are replaced with U+FFFD. Special tokens render as their
    /// literal `<|...|>` text.
    pub fn decode(&self, ids: &[TokenId]) -> String {
        let mut bytes = Vec::with_capacity(ids.len() * 3);
        for &id in ids {
            bytes.extend_from_slice(self.piece(id));
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Serialise to a compact binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        serial::tokenizer_to_bytes(self)
    }

    /// Deserialise from [`Tokenizer::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SerialError> {
        serial::tokenizer_from_bytes(bytes)
    }

    pub(crate) fn merges(&self) -> &[(TokenId, TokenId)] {
        &self.merges
    }

    /// Append one merge rule: its piece gets the next id, which replaces
    /// any earlier id with the same bytes in the exact lookup.
    pub(crate) fn push_merge(&mut self, (a, b): (TokenId, TokenId)) {
        let id = self.pieces.len() as TokenId;
        let mut piece = self.pieces[a as usize].clone();
        piece.extend_from_slice(&self.pieces[b as usize]);
        self.piece_ids.insert(piece.clone(), id);
        self.pieces.push(piece);
        self.merge_map.insert((a, b), id);
        self.merges.push((a, b));
    }
}

/// Pre-tokenisation: split text into chunks at word boundaries, keeping a
/// leading space attached to the following word (GPT-2 style). Merges never
/// cross chunk boundaries, which keeps encoding fast and gives the
/// leading-space token variants real tokenizers have.
pub fn segment(text: &str) -> impl Iterator<Item = &str> {
    SegmentIter { rest: text }
}

struct SegmentIter<'a> {
    rest: &'a str,
}

impl<'a> Iterator for SegmentIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.rest.is_empty() {
            return None;
        }
        let bytes = self.rest.as_bytes();
        let mut i = 0;
        // Optionally one leading space glued to the next word.
        if bytes[0] == b' ' {
            i = 1;
        }
        // A run of non-space, non-newline characters...
        let start_word = i;
        while i < bytes.len() && bytes[i] != b' ' && bytes[i] != b'\n' {
            i += 1;
        }
        if i == start_word {
            // Chunk is pure whitespace/newline: emit a single char.
            i = start_word
                + self.rest[start_word..]
                    .chars()
                    .next()
                    .map(|c| c.len_utf8())
                    .unwrap_or(0);
            // If we consumed a leading space and nothing else, emit just it.
            if i == 0 {
                i = 1;
            }
        }
        let (head, tail) = self.rest.split_at(i.max(1));
        self.rest = tail;
        Some(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_tok() -> Tokenizer {
        let corpus = "the star the star the galaxy a star in the galaxy \
                      the quasar emits the light of the galaxy";
        train_bpe(
            &[corpus.to_string()],
            &BpeTrainerConfig {
                vocab_size: 300,
                ..Default::default()
            },
        )
    }

    #[test]
    fn round_trip_ascii() {
        let tok = tiny_tok();
        for text in [
            "the star",
            " leading space",
            "multi  space",
            "line\nbreak",
            "",
            "unknownwordxyz",
        ] {
            assert_eq!(tok.decode(&tok.encode(text)), text, "round trip {text:?}");
        }
    }

    #[test]
    fn round_trip_unicode() {
        let tok = tiny_tok();
        let text = "σ Ori — a 5.2 M☉ star";
        assert_eq!(tok.decode(&tok.encode(text)), text);
    }

    #[test]
    fn specials_have_stable_ids() {
        let tok = tiny_tok();
        assert_eq!(tok.bos(), 256);
        assert_eq!(tok.eos(), 257);
        assert_eq!(tok.pad(), 258);
        assert_eq!(tok.special("<|assistant|>"), 261);
    }

    #[test]
    #[should_panic]
    fn unknown_special_panics() {
        tiny_tok().special("<|nope|>");
    }

    #[test]
    fn encode_with_bounds_adds_bos_eos() {
        let tok = tiny_tok();
        let ids = tok.encode_with_bounds("the star", true);
        assert_eq!(ids[0], tok.bos());
        assert_eq!(*ids.last().unwrap(), tok.eos());
    }

    #[test]
    fn merges_compress() {
        let tok = tiny_tok();
        let ids = tok.encode("the star the star");
        // With merges trained on this exact text, far fewer tokens than
        // bytes.
        assert!(ids.len() < "the star the star".len() / 2 + 2, "got {} tokens", ids.len());
    }

    #[test]
    fn leading_space_variant_exists_after_training() {
        // Train on text where " A" appears as an answer-letter pattern.
        let corpus = "Answer: A Answer: B Answer: C Answer: D ".repeat(50);
        let tok = train_bpe(
            &[corpus],
            &BpeTrainerConfig {
                vocab_size: 320,
                ..Default::default()
            },
        );
        // The single-byte "A" token always exists:
        assert_eq!(tok.token_for_str("A"), Some(b'A' as TokenId));
        // And the trained merge " A" should exist as its own token.
        assert!(tok.token_for_str(" A").is_some(), "no ' A' variant learned");
    }

    #[test]
    fn segment_keeps_leading_spaces() {
        let chunks: Vec<&str> = segment("the star shines").collect();
        assert_eq!(chunks, vec!["the", " star", " shines"]);
        let chunks: Vec<&str> = segment(" lead").collect();
        assert_eq!(chunks, vec![" lead"]);
        let chunks: Vec<&str> = segment("a\nb").collect();
        assert_eq!(chunks, vec!["a", "\n", "b"]);
        let joined: String = segment("x  y").collect();
        assert_eq!(joined, "x  y");
    }

    #[test]
    fn serialisation_round_trip() {
        let tok = tiny_tok();
        let bytes = tok.to_bytes();
        let tok2 = Tokenizer::from_bytes(&bytes).unwrap();
        assert_eq!(tok.vocab_size(), tok2.vocab_size());
        let text = "the galaxy emits light";
        assert_eq!(tok.encode(text), tok2.encode(text));
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Tokenizer::from_bytes(&[1, 2, 3]).is_err());
        assert!(Tokenizer::from_bytes(&[]).is_err());
    }

    #[test]
    fn the_last_of_two_equal_pieces_wins_the_lookup() {
        // "abc" twice, as (ab, c) and as (a, bc): the exact lookup keeps
        // the later id, as the trainer's appended merges rely on.
        let [a, b, c] = [b'a', b'b', b'c'].map(TokenId::from);
        let base = (256 + SPECIALS.len()) as TokenId;
        let tok = Tokenizer::from_merges(vec![(a, b), (base, c), (b, c), (a, base + 2)]);
        assert_eq!(tok.piece(base + 1), tok.piece(base + 3));
        assert_eq!(tok.token_for_str("abc"), Some(base + 3));
    }

    #[test]
    fn encode_docs_equals_encode_with_bounds_concatenated() {
        let mut rng = astro_prng::Rng::seed_from(51);
        for case in 0..100 {
            let corpus = bpe::tests::random_docs(&mut rng);
            let tok = train_bpe(
                &corpus,
                &BpeTrainerConfig { vocab_size: 256 + SPECIALS.len() + 60, ..Default::default() },
            );
            let mut docs = bpe::tests::random_docs(&mut rng);
            docs.extend(["", " ", "a  b\n\n c", "σ Ori — a 5.2 M☉ star  ☉"].map(String::from));
            docs.extend(corpus);
            let want: Vec<TokenId> =
                docs.iter().flat_map(|d| tok.encode_with_bounds(d, true)).collect();
            assert_eq!(tok.encode_docs(docs.iter().map(String::as_str)), want, "case {case}");
        }
    }

    #[test]
    fn vocab_size_accounts_bytes_specials_merges() {
        let tok = tiny_tok();
        assert_eq!(tok.vocab_size(), 256 + SPECIALS.len() + tok.num_merges());
    }
}
