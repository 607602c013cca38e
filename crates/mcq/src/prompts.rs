//! Prompt builders for the three benchmarking methods.
//!
//! * [`token_method_prompt`] — the paper's Appendix C next-token prompt:
//!   a header, two solved example questions, then the test question ending
//!   in `Answer:` so the next token should be one of A–D.
//! * [`instruct_method_messages`] — the Appendix B full-instruct chat
//!   prompt (system role-play + question + JSON output instructions).
//!
//! The MCQ rendering (`Question:` / `A:`–`D:` lines / `Answer:`) exactly
//! matches the exam-primer documents in the general pretraining corpus, so
//! models have seen the surface form — just as real LLMs have seen exam
//! formats on the web.

use crate::{Mcq, LETTERS};
use astro_world::{full_instruct_prompt, EXPERT_SYSTEM_PROMPT};

/// Header line of the token-method prompt (paper Appendix C).
pub const TOKEN_METHOD_HEADER: &str =
    "Astrophysics and Cosmology Multiple choice questions Solution set:";

/// Render one question block, optionally with its answer filled in.
///
/// Answers are stated as the winning option's *value* (this world's exam
/// convention — see `astro_world::exam_primer_doc` for why letters are an
/// ablation rather than the default at CPU scale).
pub fn render_block(q: &Mcq, with_answer: bool) -> String {
    let mut s = String::with_capacity(160);
    s.push_str("Question: ");
    s.push_str(&q.question);
    s.push('\n');
    for (letter, opt) in LETTERS.iter().zip(q.options.iter()) {
        s.push_str(&format!("{letter}: {opt}\n"));
    }
    s.push_str("Answer:");
    if with_answer {
        s.push(' ');
        s.push_str(&q.options[q.answer]);
    }
    s
}

/// Build the next-token benchmarking prompt: header, `shots` solved
/// exemplars, then the test question ending at `Answer:` (the model's next
/// token is the prediction).
pub fn token_method_prompt(test: &Mcq, exemplars: &[Mcq], shots: usize) -> String {
    let mut s = String::with_capacity(512);
    s.push_str(TOKEN_METHOD_HEADER);
    s.push('\n');
    for ex in exemplars.iter().take(shots) {
        s.push_str(&render_block(ex, true));
        s.push_str("\n\n");
    }
    s.push_str(&render_block(test, false));
    s
}

/// Chat messages for the full-instruct method: `(system, user)` texts.
pub fn instruct_method_messages(test: &Mcq) -> (String, String) {
    let user = full_instruct_prompt(&test.question, &test.options);
    (EXPERT_SYSTEM_PROMPT.to_string(), user)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{McqConfig, McqDataset};
    use astro_prng::Rng;
    use astro_world::{World, WorldConfig};

    fn dataset() -> McqDataset {
        let world = World::generate(5, WorldConfig::small());
        let mut rng = Rng::seed_from(5);
        McqDataset::generate(&world, &McqConfig::default(), &mut rng)
    }

    #[test]
    fn block_without_answer_ends_at_colon() {
        let ds = dataset();
        let b = render_block(&ds.questions[0], false);
        assert!(b.ends_with("Answer:"));
        assert!(b.starts_with("Question: "));
        assert!(b.contains("\nA: ") && b.contains("\nD: "));
    }

    #[test]
    fn block_with_answer_ends_with_answer_value() {
        let ds = dataset();
        let q = &ds.questions[0];
        let b = render_block(q, true);
        assert!(b.ends_with(&format!("Answer: {}", q.options[q.answer])), "{b}");
    }

    #[test]
    fn two_shot_prompt_contains_two_solved_examples() {
        let ds = dataset();
        let p = token_method_prompt(&ds.questions[0], &ds.exemplars, 2);
        assert!(p.starts_with(TOKEN_METHOD_HEADER));
        // Two answered blocks + the final unanswered one → exactly 3
        // "Answer:" occurrences, the last unanswered.
        assert_eq!(p.matches("Answer:").count(), 3);
        assert!(p.ends_with("Answer:"));
    }

    #[test]
    fn zero_shot_prompt_has_single_question() {
        let ds = dataset();
        let p = token_method_prompt(&ds.questions[1], &ds.exemplars, 0);
        assert_eq!(p.matches("Question:").count(), 1);
        assert!(p.ends_with("Answer:"));
    }

    #[test]
    fn shots_clamped_to_available_exemplars() {
        let ds = dataset();
        let p = token_method_prompt(&ds.questions[0], &ds.exemplars[..1], 5);
        assert_eq!(p.matches("Question:").count(), 2);
    }

    #[test]
    fn instruct_messages_have_system_roleplay() {
        let ds = dataset();
        let (system, user) = instruct_method_messages(&ds.questions[0]);
        assert_eq!(system, EXPERT_SYSTEM_PROMPT);
        assert!(user.contains(&ds.questions[0].question));
        assert!(user.contains("ANSWER"));
    }
}
