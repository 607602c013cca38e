//! Language-model data pipeline: document packing and batch sampling.
//!
//! Documents are tokenised with BOS/EOS boundaries and concatenated into
//! one contiguous [`TokenStream`] (the standard packed-pretraining
//! layout). Batches are random windows of the stream; targets are the
//! next-token shift, and the loss mask covers every position except those
//! whose *target* is padding.

use astro_prng::Rng;
use astro_tokenizer::Tokenizer;
use astro_world::Document;

/// A packed token stream.
#[derive(Clone, Debug)]
pub struct TokenStream {
    /// The concatenated token ids.
    pub tokens: Vec<u32>,
}

impl TokenStream {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// Tokenise and pack documents: `<bos> doc <eos> <bos> doc <eos> ...`.
pub fn pack_documents(tok: &Tokenizer, docs: &[Document]) -> TokenStream {
    TokenStream { tokens: tok.encode_docs(docs.iter().map(|d| d.text.as_str())) }
}

/// One training batch: `batch*seq` inputs plus shifted targets and mask.
#[derive(Clone, Debug)]
pub struct LmBatch {
    /// Input token ids, `batch * seq`.
    pub tokens: Vec<u32>,
    /// Next-token targets, `batch * seq`.
    pub targets: Vec<usize>,
    /// Positions that receive loss.
    pub mask: Vec<bool>,
    /// Rows in the batch.
    pub batch: usize,
    /// Window length.
    pub seq: usize,
}

impl LmBatch {
    /// Sample `batch` random windows of length `seq` from the stream.
    ///
    /// # Panics
    /// Panics if the stream is shorter than `seq + 1` tokens.
    pub fn sample(stream: &TokenStream, batch: usize, seq: usize, rng: &mut Rng) -> Self {
        assert!(
            stream.len() > seq,
            "stream of {} tokens too short for windows of {seq}",
            stream.len()
        );
        let mut tokens = Vec::with_capacity(batch * seq);
        let mut targets = Vec::with_capacity(batch * seq);
        for _ in 0..batch {
            let start = rng.index(stream.len() - seq);
            tokens.extend_from_slice(&stream.tokens[start..start + seq]);
            targets.extend(
                stream.tokens[start + 1..start + seq + 1]
                    .iter()
                    .map(|&t| t as usize),
            );
        }
        let mask = vec![true; batch * seq];
        LmBatch {
            tokens,
            targets,
            mask,
            batch,
            seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_tokenizer::{train_bpe, BpeTrainerConfig};
    use astro_world::DocumentKind;

    fn tok() -> Tokenizer {
        train_bpe(
            &["the star shines on the dust of the galaxy".to_string()],
            &BpeTrainerConfig {
                vocab_size: 280,
                ..Default::default()
            },
        )
    }

    fn docs() -> Vec<Document> {
        (0..5)
            .map(|i| Document {
                kind: DocumentKind::General,
                article: None,
                text: format!("the star shines {i} times on the dust"),
            })
            .collect()
    }

    #[test]
    fn packing_adds_boundaries() {
        let tok = tok();
        let stream = pack_documents(&tok, &docs());
        let bos = tok.bos();
        let eos = tok.eos();
        let n_bos = stream.tokens.iter().filter(|&&t| t == bos).count();
        let n_eos = stream.tokens.iter().filter(|&&t| t == eos).count();
        assert_eq!(n_bos, 5);
        assert_eq!(n_eos, 5);
        assert_eq!(stream.tokens[0], bos);
        assert_eq!(*stream.tokens.last().unwrap(), eos);
    }

    #[test]
    fn batch_targets_are_shifted_inputs() {
        let tok = tok();
        let stream = pack_documents(&tok, &docs());
        let mut rng = Rng::seed_from(1);
        let b = LmBatch::sample(&stream, 3, 8, &mut rng);
        assert_eq!(b.tokens.len(), 24);
        assert_eq!(b.targets.len(), 24);
        assert!(b.mask.iter().all(|&m| m));
        // Each window's target i must equal the stream token after input i.
        // Verify consistency within rows: target[i] should appear as a
        // valid vocab id.
        for &t in &b.targets {
            assert!(t < tok.vocab_size());
        }
        // First row shifted property: find the window in the stream.
        let row: Vec<u32> = b.tokens[0..8].to_vec();
        let pos = stream
            .tokens
            .windows(8)
            .position(|w| w == row.as_slice())
            .expect("window must come from the stream");
        for i in 0..8 {
            assert_eq!(b.targets[i], stream.tokens[pos + i + 1] as usize);
        }
    }

    #[test]
    fn sampling_is_deterministic_in_seed() {
        let tok = tok();
        let stream = pack_documents(&tok, &docs());
        let a = LmBatch::sample(&stream, 2, 6, &mut Rng::seed_from(9));
        let b = LmBatch::sample(&stream, 2, 6, &mut Rng::seed_from(9));
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.targets, b.targets);
    }

    #[test]
    #[should_panic]
    fn short_stream_panics() {
        let tok = tok();
        let stream = pack_documents(
            &tok,
            &[Document {
                kind: DocumentKind::General,
                article: None,
                text: "hi".to_string(),
            }],
        );
        LmBatch::sample(&stream, 1, 64, &mut Rng::seed_from(0));
    }

    #[test]
    fn empty_stream_reports_empty() {
        let s = TokenStream { tokens: vec![] };
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
