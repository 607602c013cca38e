//! Explore the synthetic MCQ benchmark: print dataset statistics and
//! sample questions in the paper's Appendix-A presentation, plus the
//! exact prompts the two benchmarking methods send to the models.
//!
//! Usage:
//! ```sh
//! cargo run --release --example mcq_explorer -- [n_samples]
//! ```

use astromlab::mcq::prompts::{instruct_method_messages, token_method_prompt};
use astromlab::mcq::{McqConfig, McqDataset, LETTERS};
use astromlab::prng::Rng;
use astromlab::world::{FactTier, World, WorldConfig};

fn main() {
    let n_samples: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);

    let world = World::generate(42, WorldConfig::default());
    let mut rng = Rng::seed_from(42);
    let ds = McqDataset::generate(&world, &McqConfig::default(), &mut rng);

    println!("== benchmark statistics ==");
    println!(
        "articles: {}   questions: {} scored + {} exemplars (paper: 885 x 5 = 4,425)",
        world.articles.len(),
        ds.len(),
        ds.exemplars.len()
    );
    let (c, f, d) = ds.tier_fractions();
    println!("tier mix: consensus {:.0}%  frontier {:.0}%  detail {:.0}%", c * 100.0, f * 100.0, d * 100.0);
    let mut counts = [0usize; 4];
    for q in &ds.questions {
        counts[q.answer] += 1;
    }
    println!(
        "answer-key balance: A {} / B {} / C {} / D {}",
        counts[0], counts[1], counts[2], counts[3]
    );

    println!("\n== sample questions (Appendix-A style) ==");
    let mut srng = Rng::seed_from(7);
    for q in ds.subset(n_samples, &mut srng) {
        let article = &world.articles[q.article];
        println!("\nPaper ID: {}", article.araa_id);
        println!("Question: {}", q.question);
        for (letter, opt) in LETTERS.iter().zip(q.options.iter()) {
            println!("({letter}) {opt}");
        }
        println!("Correct Answer: {}", q.answer_letter());
        let tier_note = match q.tier {
            FactTier::Consensus => "textbook consensus (answerable from general pretraining)",
            FactTier::Frontier => "research frontier (requires astro-ph CPT)",
            FactTier::Detail => "full-text detail (requires the Summary recipe)",
        };
        println!("Tier: {tier_note}");
    }

    println!("\n== the two-shot next-token prompt (Appendix C) ==");
    println!("{}", token_method_prompt(&ds.questions[0], &ds.exemplars, 2));

    println!("\n== the full-instruct prompt (Appendix B) ==");
    let (system, user) = instruct_method_messages(&ds.questions[0]);
    println!("[system] {system}");
    println!("[user] {user}");
}
