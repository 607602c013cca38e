//! The synthetic astronomy knowledge world.
//!
//! The paper's raw material is the astro-ph corpus (papers whose content is
//! astronomical *facts*) and an MCQ benchmark that probes recall of those
//! facts. We cannot ship arXiv, so this crate builds a generative model of
//! a small "universe of facts" and renders it into all the text artefacts
//! the pipeline needs:
//!
//! * a **fact graph**: entities (galaxies, pulsars, supernovae, ...) with
//!   categorical attributes ([`Relation`]), each fact assigned a tier —
//!   [`FactTier::Consensus`] (textbook knowledge that also appears in the
//!   general pretraining corpus), [`FactTier::Frontier`] (research results
//!   that appear in paper abstracts/intros/conclusions), and
//!   [`FactTier::Detail`] (buried in full text; only the *Summary* CPT
//!   recipe surfaces it);
//! * **885 synthetic review articles** mirroring the ARAA source of the
//!   MCQ benchmark;
//! * **corpora**: the general pretraining corpus (everyday facts +
//!   consensus astronomy + exam-format primer), and the three CPT recipes
//!   of the paper — `Abstract`, `AIC`, `Summary` — with an OCR/LaTeX
//!   noise channel standing in for the arXiv-LaTeX artefacts that made the
//!   original AIC data noisy;
//! * **instruction datasets** for SFT with the paper's mixture (≈1/3
//!   astronomy Q&A generated from abstracts, ≈2/3 general instructions à
//!   la LIMA / Open Orca / UltraChat).
//!
//! Everything is deterministic in the world seed.

mod articles;
mod corpus;
mod entities;
mod facts;
mod general;
mod instruct;
mod ocr;

pub use articles::Article;
pub use corpus::{
    build_options, cpt_corpus, exam_primer_doc, general_corpus, partition_article_facts,
    render_article, CorpusRecipe, Document, DocumentKind,
};
pub use entities::{Entity, EntityClass};
pub use facts::{render_question, Fact, FactTier, Relation, RELATIONS};
pub use general::{
    render_general_fact, render_general_question, GeneralFact, GeneralRelation, GENERAL_RELATIONS,
};
pub use instruct::{
    full_instruct_prompt, json_answer, json_answer_text, sft_dataset, Conversation, InstructKind,
    SftMixtureConfig, Turn, EXPERT_SYSTEM_PROMPT,
};
pub use ocr::{clean_ocr, noisify, NoiseConfig};

use astro_prng::Rng;

/// Tunable parameters of the synthetic world.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Number of review articles (the paper uses 885 ARAA articles).
    pub n_articles: usize,
    /// Number of astronomical entities.
    pub n_entities: usize,
    /// Number of everyday entities in the general world.
    pub n_general_entities: usize,
    /// Fraction of astro facts that are textbook consensus (also present
    /// in the general corpus).
    pub consensus_fraction: f64,
    /// Fraction of astro facts that are full-text-only details (the
    /// remainder after consensus are frontier facts).
    pub detail_fraction: f64,
    /// How many facts each article covers.
    pub facts_per_article: usize,
    /// Zipf exponent for entity popularity across articles.
    pub popularity_skew: f64,
    /// General-corpus mixture: fraction of everyday-prose documents.
    pub general_frac: f64,
    /// General-corpus mixture: fraction of textbook-astronomy documents.
    pub textbook_frac: f64,
    /// Number of MCQs per exam-primer document (the remaining corpus
    /// fraction). Real web pretraining data is saturated with exam
    /// content; this is the knob that controls how much of the MCQ task
    /// format the natives absorb.
    pub mcqs_per_primer: usize,
    /// Fraction of primer MCQs preceded by the supporting fact statement
    /// ("study text followed by quiz"), the ubiquitous web pattern that
    /// teaches option matching as pure in-context induction. Eval
    /// questions never include the fact, so scores still measure
    /// knowledge.
    pub primer_context_fraction: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            n_articles: 885,
            n_entities: 450,
            n_general_entities: 160,
            consensus_fraction: 0.55,
            detail_fraction: 0.15,
            facts_per_article: 10,
            popularity_skew: 0.8,
            general_frac: 0.25,
            textbook_frac: 0.30,
            mcqs_per_primer: 2,
            primer_context_fraction: 0.7,
        }
    }
}

impl WorldConfig {
    /// A reduced world for unit tests and the fast experiment preset.
    pub fn small() -> Self {
        WorldConfig {
            n_articles: 60,
            n_entities: 60,
            n_general_entities: 40,
            facts_per_article: 8,
            ..Default::default()
        }
    }
}

/// The fully generated world: fact graph, articles, and the general world.
#[derive(Clone, Debug)]
pub struct World {
    /// Configuration used for generation.
    pub config: WorldConfig,
    /// Master seed.
    pub seed: u64,
    /// Astronomical entities.
    pub entities: Vec<Entity>,
    /// All astro facts, indexed by `fact_id`.
    pub facts: Vec<Fact>,
    /// Everyday-world facts for the general corpus.
    pub general_facts: Vec<GeneralFact>,
    /// The 885 (or configured) review articles.
    pub articles: Vec<Article>,
}

impl World {
    /// Generate a world from a seed and configuration.
    pub fn generate(seed: u64, config: WorldConfig) -> Self {
        let root = Rng::seed_from(seed).substream("world");
        let entities = entities::generate_entities(&root, config.n_entities);
        let facts = facts::generate_facts(
            &root,
            &entities,
            config.consensus_fraction,
            config.detail_fraction,
        );
        let general_facts = general::generate_general_facts(&root, config.n_general_entities);
        let articles = articles::assign_articles(
            &root,
            &config,
            entities.len(),
            &facts,
        );
        World {
            config,
            seed,
            entities,
            facts,
            general_facts,
            articles,
        }
    }

    /// All facts of a given tier.
    pub fn facts_of_tier(&self, tier: FactTier) -> impl Iterator<Item = &Fact> {
        self.facts.iter().filter(move |f| f.tier == tier)
    }

    /// The entity a fact is about.
    pub fn entity_of(&self, fact: &Fact) -> &Entity {
        &self.entities[fact.entity]
    }

    /// Render one fact as a sentence, choosing a phrasing template with
    /// `rng`.
    pub fn render_fact(&self, fact: &Fact, rng: &mut Rng) -> String {
        facts::render_fact(&self.entities[fact.entity], fact, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(7, WorldConfig::small());
        let b = World::generate(7, WorldConfig::small());
        assert_eq!(a.entities.len(), b.entities.len());
        assert_eq!(a.facts.len(), b.facts.len());
        assert_eq!(a.facts[0].value, b.facts[0].value);
        assert_eq!(a.articles[0].fact_ids, b.articles[0].fact_ids);
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(1, WorldConfig::small());
        let b = World::generate(2, WorldConfig::small());
        let same = a
            .facts
            .iter()
            .zip(b.facts.iter())
            .filter(|(x, y)| x.value == y.value)
            .count();
        assert!(same < a.facts.len(), "worlds identical across seeds");
    }

    #[test]
    fn article_count_matches_config() {
        let w = World::generate(3, WorldConfig::small());
        assert_eq!(w.articles.len(), w.config.n_articles);
    }

    #[test]
    fn fact_tiers_cover_all_three() {
        let w = World::generate(4, WorldConfig::default());
        assert!(w.facts_of_tier(FactTier::Consensus).count() > 0);
        assert!(w.facts_of_tier(FactTier::Frontier).count() > 0);
        assert!(w.facts_of_tier(FactTier::Detail).count() > 0);
    }

    #[test]
    fn tier_fractions_roughly_match_config() {
        let cfg = WorldConfig::default();
        let w = World::generate(5, cfg.clone());
        let total = w.facts.len() as f64;
        let consensus = w.facts_of_tier(FactTier::Consensus).count() as f64 / total;
        let detail = w.facts_of_tier(FactTier::Detail).count() as f64 / total;
        assert!((consensus - cfg.consensus_fraction).abs() < 0.07, "consensus {consensus}");
        assert!((detail - cfg.detail_fraction).abs() < 0.07, "detail {detail}");
    }

    #[test]
    fn every_article_has_facts_within_range() {
        let w = World::generate(6, WorldConfig::small());
        for art in &w.articles {
            assert!(!art.fact_ids.is_empty());
            for &fid in &art.fact_ids {
                assert!(fid < w.facts.len());
            }
        }
    }

    #[test]
    fn render_fact_mentions_entity_and_value() {
        let w = World::generate(8, WorldConfig::small());
        let mut rng = Rng::seed_from(0);
        let fact = &w.facts[0];
        let s = w.render_fact(fact, &mut rng);
        assert!(s.contains(&w.entity_of(fact).name), "{s}");
        assert!(s.contains(fact.value), "{s}");
    }
}
