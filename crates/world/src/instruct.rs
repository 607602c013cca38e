//! Instruction/conversation datasets for SFT.
//!
//! The paper's SFT set combines 10,356 astronomy conversations generated
//! from arXiv abstracts by GPT-4 with LIMA, 10k Open Orca samples and 10k
//! UltraChat samples — only about a third astronomy-focused, which the
//! paper identifies as the root cause of the instruct models'
//! underperformance. This module generates the synthetic equivalent with
//! the same mixture structure and exposes the knobs the paper's analysis
//! turns on (astronomy fraction, dataset size, fraction of examples that
//! demonstrate the JSON MCQ answer format).

use crate::corpus::build_options;
use crate::facts::{render_question, FactTier};
use crate::general::render_general_question;
use crate::World;
use astro_prng::Rng;

/// Which sub-dataset a conversation belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstructKind {
    /// Astronomy Q&A generated from article facts (free-form answers).
    AstroQa,
    /// Astronomy MCQ demonstrations with JSON answers (the slice that
    /// teaches the full-instruct output format).
    AstroMcqJson,
    /// LIMA stand-in: general knowledge, verbose answers.
    LimaLike,
    /// Open Orca stand-in: instruction + short factual completion.
    OrcaLike,
    /// UltraChat stand-in: multi-turn small talk over general facts.
    UltraChatLike,
}

/// One conversation turn.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Turn {
    /// `"system"`, `"user"` or `"assistant"`.
    pub role: &'static str,
    /// Turn content.
    pub text: String,
}

/// One SFT conversation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Conversation {
    /// Which sub-dataset generated it.
    pub kind: InstructKind,
    /// The turns in order.
    pub turns: Vec<Turn>,
}

/// Mixture configuration for the SFT dataset.
#[derive(Clone, Debug)]
pub struct SftMixtureConfig {
    /// Number of astronomy conversations (paper: 10,356).
    pub n_astro: usize,
    /// Number of LIMA-like conversations (paper: ~1k).
    pub n_lima: usize,
    /// Number of Orca-like conversations (paper: 10k).
    pub n_orca: usize,
    /// Number of UltraChat-like conversations (paper: 10k).
    pub n_ultrachat: usize,
    /// Fraction of astro conversations rendered as MCQ-with-JSON
    /// demonstrations (the rest are free-form Q&A).
    pub astro_json_fraction: f64,
}

impl SftMixtureConfig {
    /// The paper's mixture, scaled by `scale` (1.0 reproduces the original
    /// 31k-conversation proportions; tests use small scales).
    pub fn paper_mixture(scale: f64) -> Self {
        let s = |n: f64| ((n * scale).round() as usize).max(1);
        SftMixtureConfig {
            n_astro: s(10_356.0),
            n_lima: s(1_000.0),
            n_orca: s(10_000.0),
            n_ultrachat: s(10_000.0),
            astro_json_fraction: 0.35,
        }
    }

    /// Total conversations.
    pub fn total(&self) -> usize {
        self.n_astro + self.n_lima + self.n_orca + self.n_ultrachat
    }

    /// Astronomy fraction of the mixture.
    pub fn astro_fraction(&self) -> f64 {
        self.n_astro as f64 / self.total() as f64
    }
}

/// The system prompt used by astro MCQ demonstrations and by the
/// full-instruct evaluation (paper Appendix B, condensed to the scale of
/// our models).
pub const EXPERT_SYSTEM_PROMPT: &str = "You are an expert in general astrophysics.";

/// Render the full-instruct MCQ prompt (paper Appendix B) in compact form:
/// the structural skeleton without the instruction boilerplate, so it fits
/// small-model context windows.
pub fn full_instruct_prompt(question: &str, options: &[String; 4]) -> String {
    let mut s = String::with_capacity(256);
    s.push_str("Question: ");
    s.push_str(question);
    s.push('\n');
    for (letter, opt) in ['A', 'B', 'C', 'D'].iter().zip(options.iter()) {
        s.push_str(&format!("{letter}: {opt}\n"));
    }
    s.push_str("Output format: {\"ANSWER\": \"X\", \"EXPLANATION\": \"...\"}");
    s
}

/// Render the canonical JSON answer body with a letter answer (the
/// paper's literal format; used by the letter-readout ablation).
pub fn json_answer(letter: char, explanation: &str) -> String {
    format!("{{\"ANSWER\": \"{letter}\", \"EXPLANATION\": \"{explanation}\"}}")
}

/// Render the JSON answer body with free answer text (this world's
/// convention: the winning option's value).
pub fn json_answer_text(answer: &str, explanation: &str) -> String {
    format!("{{\"ANSWER\": \"{answer}\", \"EXPLANATION\": \"{explanation}\"}}")
}

/// Generate the SFT dataset for a world.
pub fn sft_dataset(world: &World, config: &SftMixtureConfig, rng: &mut Rng) -> Vec<Conversation> {
    let mut out = Vec::with_capacity(config.total());
    // Astro facts eligible for Q&A: abstracts expose consensus + frontier.
    let qa_facts: Vec<usize> = world
        .facts
        .iter()
        .filter(|f| f.tier != FactTier::Detail)
        .map(|f| f.id)
        .collect();
    for _ in 0..config.n_astro {
        let fid = qa_facts[rng.index(qa_facts.len())];
        let fact = &world.facts[fid];
        let entity = world.entity_of(fact);
        let question = render_question(entity, fact.relation);
        if rng.chance(config.astro_json_fraction) {
            // MCQ demonstration with JSON answer. The ANSWER field states
            // the winning option's value (this world's exam convention —
            // see `exam_primer_doc`); the extraction cascade matches it
            // against the options.
            let (options, answer_idx) = build_options(fact.relation.values(), fact.value, rng);
            let options: [String; 4] = options.map(|o| o.to_string());
            let explanation = format!(
                "The {} of {} is {}.",
                fact.relation.phrase(),
                entity.name,
                fact.value
            );
            out.push(Conversation {
                kind: InstructKind::AstroMcqJson,
                turns: vec![
                    Turn {
                        role: "system",
                        text: EXPERT_SYSTEM_PROMPT.to_string(),
                    },
                    Turn {
                        role: "user",
                        text: full_instruct_prompt(&question, &options),
                    },
                    Turn {
                        role: "assistant",
                        text: json_answer_text(&options[answer_idx], &explanation),
                    },
                ],
            });
        } else {
            // Free-form Q&A from the abstract.
            out.push(Conversation {
                kind: InstructKind::AstroQa,
                turns: vec![
                    Turn {
                        role: "user",
                        text: question,
                    },
                    Turn {
                        role: "assistant",
                        text: format!(
                            "The {} of {} is {}.",
                            fact.relation.phrase(),
                            entity.name,
                            fact.value
                        ),
                    },
                ],
            });
        }
    }
    for _ in 0..config.n_lima {
        let f = rng.choose(&world.general_facts);
        out.push(Conversation {
            kind: InstructKind::LimaLike,
            turns: vec![
                Turn {
                    role: "user",
                    text: render_general_question(f),
                },
                Turn {
                    role: "assistant",
                    text: format!(
                        "That is a good question. The {} of {} is {}. People ask this often.",
                        f.relation.phrase(),
                        f.subject,
                        f.value
                    ),
                },
            ],
        });
    }
    for _ in 0..config.n_orca {
        let f = rng.choose(&world.general_facts);
        out.push(Conversation {
            kind: InstructKind::OrcaLike,
            turns: vec![
                Turn {
                    role: "user",
                    text: format!("Complete the statement. The {} of {} is", f.relation.phrase(), f.subject),
                },
                Turn {
                    role: "assistant",
                    text: format!("{}.", f.value),
                },
            ],
        });
    }
    for _ in 0..config.n_ultrachat {
        let f1 = rng.choose(&world.general_facts);
        let f2 = rng.choose(&world.general_facts);
        out.push(Conversation {
            kind: InstructKind::UltraChatLike,
            turns: vec![
                Turn {
                    role: "user",
                    text: format!("Tell me about {}.", f1.subject),
                },
                Turn {
                    role: "assistant",
                    text: format!("The {} of {} is {}.", f1.relation.phrase(), f1.subject, f1.value),
                },
                Turn {
                    role: "user",
                    text: format!("And {}?", f2.subject),
                },
                Turn {
                    role: "assistant",
                    text: format!("The {} of {} is {}.", f2.relation.phrase(), f2.subject, f2.value),
                },
            ],
        });
    }
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorldConfig;

    fn world() -> World {
        World::generate(31, WorldConfig::small())
    }

    fn small_mix() -> SftMixtureConfig {
        SftMixtureConfig {
            n_astro: 30,
            n_lima: 5,
            n_orca: 20,
            n_ultrachat: 20,
            astro_json_fraction: 0.4,
        }
    }

    #[test]
    fn paper_mixture_is_one_third_astro() {
        let m = SftMixtureConfig::paper_mixture(1.0);
        assert_eq!(m.total(), 31_356);
        assert!((m.astro_fraction() - 1.0 / 3.0).abs() < 0.02);
    }

    #[test]
    fn dataset_has_requested_size_and_kinds() {
        let w = world();
        let mut rng = Rng::seed_from(1);
        let convs = sft_dataset(&w, &small_mix(), &mut rng);
        assert_eq!(convs.len(), 75);
        for kind in [
            InstructKind::AstroQa,
            InstructKind::AstroMcqJson,
            InstructKind::LimaLike,
            InstructKind::OrcaLike,
            InstructKind::UltraChatLike,
        ] {
            assert!(convs.iter().any(|c| c.kind == kind), "{kind:?} missing");
        }
    }

    #[test]
    fn conversations_alternate_user_assistant() {
        let w = world();
        let mut rng = Rng::seed_from(2);
        let convs = sft_dataset(&w, &small_mix(), &mut rng);
        for c in &convs {
            let non_system: Vec<&Turn> =
                c.turns.iter().filter(|t| t.role != "system").collect();
            assert!(!non_system.is_empty());
            for (i, t) in non_system.iter().enumerate() {
                let want = if i % 2 == 0 { "user" } else { "assistant" };
                assert_eq!(t.role, want);
            }
            assert_eq!(non_system.last().unwrap().role, "assistant");
        }
    }

    #[test]
    fn json_demos_answer_with_an_option_value() {
        let w = world();
        let mut rng = Rng::seed_from(3);
        let convs = sft_dataset(&w, &small_mix(), &mut rng);
        let mut seen = 0;
        for c in convs.iter().filter(|c| c.kind == InstructKind::AstroMcqJson) {
            seen += 1;
            let answer = &c.turns.last().unwrap().text;
            assert!(answer.starts_with("{\"ANSWER\": \""), "{answer}");
            assert!(answer.contains("\"EXPLANATION\""), "{answer}");
            // The ANSWER value must appear among the options listed in the
            // user prompt.
            let user = &c.turns[1].text;
            let value = answer
                .strip_prefix("{\"ANSWER\": \"")
                .and_then(|s| s.split('"').next())
                .expect("answer value");
            assert!(user.contains(value), "answer {value:?} not among options:\n{user}");
        }
        assert!(seen > 0);
    }

    #[test]
    fn json_fraction_zero_produces_no_demos() {
        let w = world();
        let mut rng = Rng::seed_from(4);
        let mut mix = small_mix();
        mix.astro_json_fraction = 0.0;
        let convs = sft_dataset(&w, &mix, &mut rng);
        assert!(convs.iter().all(|c| c.kind != InstructKind::AstroMcqJson));
    }

    #[test]
    fn full_instruct_prompt_bytes_are_pinned() {
        let opts = ["a".to_string(), "b".to_string(), "c".to_string(), "d".to_string()];
        assert_eq!(
            full_instruct_prompt("Q?", &opts),
            "Question: Q?\nA: a\nB: b\nC: c\nD: d\n\
             Output format: {\"ANSWER\": \"X\", \"EXPLANATION\": \"...\"}"
        );
    }

    #[test]
    fn json_answer_shape() {
        let j = json_answer('B', "because");
        assert_eq!(j, "{\"ANSWER\": \"B\", \"EXPLANATION\": \"because\"}");
    }
}
