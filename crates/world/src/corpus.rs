//! Document generators: the general pretraining corpus and the three CPT
//! recipes of the paper (*Abstract*, *AIC*, *Summary*).
//!
//! Per-article fact placement mirrors where information lives in a real
//! paper:
//!
//! * the **abstract** states a subset of the headline (non-detail) facts;
//! * **introduction + conclusion** restate the remaining headline facts;
//! * the **body** holds everything, including [`FactTier::Detail`] facts
//!   that never surface in A/I/C — which is exactly why the paper's
//!   `Summary` recipe (LLM summaries of full text) can carry knowledge the
//!   `AIC` recipe cannot.
//!
//! `Abstract` and `AIC` documents pass through the LaTeX/OCR noise channel
//! (the paper found "some methods did not fully provide excellent data
//! quality" for the LaTeX-derived AIC set); `Summary` documents are clean.

use crate::facts::FactTier;
use crate::general::{render_general_fact, render_general_question};
use crate::ocr::{noisify, NoiseConfig};
use crate::{Article, World};
use astro_prng::Rng;

/// What kind of text a document is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DocumentKind {
    /// Everyday prose from the general world.
    General,
    /// Consensus astronomy stated textbook-style.
    Textbook,
    /// Exam-format primer (MCQ with answer) over known facts.
    ExamPrimer,
    /// An astro-ph style abstract.
    Abstract,
    /// Abstract + introduction + conclusion.
    Aic,
    /// Full paper text.
    FullText,
    /// Clean LLM-style summary of the full text.
    Summary,
}

/// One generated document.
#[derive(Clone, Debug)]
pub struct Document {
    /// The document's kind.
    pub kind: DocumentKind,
    /// Source article, for astro documents.
    pub article: Option<usize>,
    /// The text.
    pub text: String,
}

/// The three continual-pretraining data recipes of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorpusRecipe {
    /// CPT on abstracts only (AstroLLaMA-2-7B-Abstract, ref [27]).
    Abstract,
    /// CPT on abstract+introduction+conclusion (the "AIC" models, ref [28]).
    Aic,
    /// CPT on clean full-text summaries (AstroLLaMA-3-8B-Summary).
    Summary,
}

impl CorpusRecipe {
    /// Display label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            CorpusRecipe::Abstract => "Abstract",
            CorpusRecipe::Aic => "AIC",
            CorpusRecipe::Summary => "Summary",
        }
    }

    /// The noise channel this recipe's documents pass through.
    pub fn noise(self) -> NoiseConfig {
        match self {
            // LaTeX-derived sets carry artefacts.
            CorpusRecipe::Abstract | CorpusRecipe::Aic => NoiseConfig::latex_artifacts(),
            // LLM summaries are clean.
            CorpusRecipe::Summary => NoiseConfig::clean(),
        }
    }
}

/// Filler sentences that pad astro documents (no fact content).
const ASTRO_FILLER: [&str; 8] = [
    "We discuss the implications for structure formation.",
    "These results are consistent with previous surveys.",
    "Further observations are required to confirm this scenario.",
    "The data were reduced with standard pipelines.",
    "We compare our findings with theoretical models.",
    "Systematic uncertainties are discussed in detail.",
    "This review summarizes the current state of the field.",
    "Future instruments will improve these constraints.",
];

/// Filler sentences for general documents.
const GENERAL_FILLER: [&str; 6] = [
    "People talk about this all the time.",
    "It is a common topic of conversation.",
    "Many travelers mention it in their notes.",
    "The markets were busy that season.",
    "Records of this are kept carefully.",
    "This is taught in every school.",
];

/// Fraction of an article's non-detail facts that appear in its abstract.
const ABSTRACT_COVERAGE: f64 = 0.4;

/// Partition an article's facts into (abstract, intro/conclusion, body)
/// id lists. Detail-tier facts always land in the body.
pub fn partition_article_facts(world: &World, article: &Article) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut headline: Vec<usize> = Vec::new();
    let mut body: Vec<usize> = Vec::new();
    for &fid in &article.fact_ids {
        if world.facts[fid].tier == FactTier::Detail {
            body.push(fid);
        } else {
            headline.push(fid);
        }
    }
    let n_abs = ((headline.len() as f64) * ABSTRACT_COVERAGE).ceil() as usize;
    let ic = headline.split_off(n_abs.min(headline.len()));
    (headline, ic, body)
}

/// Render one article under a CPT recipe (clean text, before noise).
pub fn render_article(world: &World, article: &Article, recipe: CorpusRecipe, rng: &mut Rng) -> String {
    let (abs_facts, ic_facts, body_facts) = partition_article_facts(world, article);
    let mut s = String::with_capacity(512);
    match recipe {
        CorpusRecipe::Abstract => {
            push_section(world, &mut s, "Abstract.", &abs_facts, rng, 1);
        }
        CorpusRecipe::Aic => {
            push_section(world, &mut s, "Abstract.", &abs_facts, rng, 1);
            push_section(world, &mut s, "Introduction.", &ic_facts, rng, 2);
            push_section(world, &mut s, "Conclusion.", &ic_facts, rng, 1);
        }
        CorpusRecipe::Summary => {
            s.push_str("Summary. ");
            for &fid in abs_facts.iter().chain(ic_facts.iter()).chain(body_facts.iter()) {
                s.push_str(&world.render_fact(&world.facts[fid], rng));
                s.push(' ');
            }
        }
    }
    s.trim_end().to_string()
}

fn push_section(
    world: &World,
    s: &mut String,
    header: &str,
    fact_ids: &[usize],
    rng: &mut Rng,
    filler: usize,
) {
    s.push_str(header);
    s.push(' ');
    for &fid in fact_ids {
        s.push_str(&world.render_fact(&world.facts[fid], rng));
        s.push(' ');
    }
    for _ in 0..filler {
        s.push_str(ASTRO_FILLER[rng.index(ASTRO_FILLER.len())]);
        s.push(' ');
    }
}

/// Build the full CPT corpus for a recipe: one document per article, with
/// the recipe's noise channel applied.
pub fn cpt_corpus(world: &World, recipe: CorpusRecipe, rng: &mut Rng) -> Vec<Document> {
    let noise = recipe.noise();
    world
        .articles
        .iter()
        .map(|article| {
            let clean = render_article(world, article, recipe, rng);
            let text = noisify(&clean, &noise, rng);
            Document {
                kind: match recipe {
                    CorpusRecipe::Abstract => DocumentKind::Abstract,
                    CorpusRecipe::Aic => DocumentKind::Aic,
                    CorpusRecipe::Summary => DocumentKind::Summary,
                },
                article: Some(article.id),
                text,
            }
        })
        .collect()
}

/// One exam-primer document: an MCQ in the canonical evaluation format,
/// with the correct answer, about a fact the reader (native model) can
/// know. `options` are drawn from the relation's value pool.
///
/// The answer line states the winning option's *value* (`Answer: 0.45`)
/// rather than its letter. Real LLMs answer by letter because web-scale
/// pretraining installs the letter-indirection circuit; at CPU scale that
/// circuit does not form (docs/TUNING.md round 5 — the isolated matching
/// micro-task sits at chance while pure attention-copy reaches 100%), so
/// this world's exam convention names the value. The evaluation readout
/// compares the four options' value tokens, preserving the paper's
/// "next-token logit over answer representations" method; the letter
/// readout remains available as an ablation.
pub fn exam_primer_doc(question: &str, options: &[&str; 4], answer_idx: usize) -> String {
    let letters = ['A', 'B', 'C', 'D'];
    let mut s = String::with_capacity(128);
    s.push_str("Question: ");
    s.push_str(question);
    s.push('\n');
    for (i, opt) in options.iter().enumerate() {
        s.push_str(&format!("{}: {}\n", letters[i], opt));
    }
    s.push_str(&format!("Answer: {}", options[answer_idx]));
    s
}

/// Build the general pretraining corpus: everyday facts, consensus
/// astronomy stated textbook-style, and exam-format primer MCQs over both.
///
/// `n_docs` controls total size; the mixture fractions come from
/// [`crate::WorldConfig`] (`general_frac` / `textbook_frac`, remainder
/// exam primer — teaching the evaluation format is what real LLM
/// pretraining gets from web exam corpora).
pub fn general_corpus(world: &World, n_docs: usize, rng: &mut Rng) -> Vec<Document> {
    let consensus: Vec<usize> = world
        .facts_of_tier(FactTier::Consensus)
        .map(|f| f.id)
        .collect();
    let cfg = &world.config;
    let mut out = Vec::with_capacity(n_docs);
    for _ in 0..n_docs {
        let roll = rng.f64();
        if roll < cfg.general_frac {
            // General prose paragraph: a few everyday facts + filler.
            let mut s = String::new();
            for _ in 0..3 {
                let f = rng.choose(&world.general_facts);
                s.push_str(&render_general_fact(f, rng));
                s.push(' ');
            }
            s.push_str(GENERAL_FILLER[rng.index(GENERAL_FILLER.len())]);
            out.push(Document {
                kind: DocumentKind::General,
                article: None,
                text: s,
            });
        } else if roll < cfg.general_frac + cfg.textbook_frac {
            // Textbook astronomy: consensus facts.
            let mut s = String::from("From the textbook: ");
            for _ in 0..3 {
                let fid = consensus[rng.index(consensus.len())];
                s.push_str(&world.render_fact(&world.facts[fid], rng));
                s.push(' ');
            }
            out.push(Document {
                kind: DocumentKind::Textbook,
                article: None,
                text: s.trim_end().to_string(),
            });
        } else {
            // Exam primer: several MCQs over everyday facts and consensus
            // astro facts, in the canonical evaluation format.
            let mut text = String::new();
            for i in 0..cfg.mcqs_per_primer.max(1) {
                if i > 0 {
                    text.push_str("\n\n");
                }
                let with_context = rng.chance(cfg.primer_context_fraction);
                let block = if rng.chance(0.5) {
                    let f = rng.choose(&world.general_facts);
                    let pool = f.relation.values();
                    let (options, answer) = build_options(pool, f.value, rng);
                    let mcq = exam_primer_doc(&render_general_question(f), &options, answer);
                    if with_context {
                        format!("{}\n{mcq}", render_general_fact(f, rng))
                    } else {
                        mcq
                    }
                } else {
                    let fid = consensus[rng.index(consensus.len())];
                    let f = &world.facts[fid];
                    let entity = world.entity_of(f);
                    let pool = f.relation.values();
                    let (options, answer) = build_options(pool, f.value, rng);
                    let mcq = exam_primer_doc(
                        &crate::facts::render_question(entity, f.relation),
                        &options,
                        answer,
                    );
                    if with_context {
                        format!("{}\n{mcq}", world.render_fact(f, rng))
                    } else {
                        mcq
                    }
                };
                text.push_str(&block);
            }
            out.push(Document {
                kind: DocumentKind::ExamPrimer,
                article: None,
                text,
            });
        }
    }
    out
}

/// Pick 3 distractors from `pool` (≠ `correct`) and place the correct
/// value at a random position. Returns the options and the answer index.
pub fn build_options<'a>(
    pool: &[&'a str],
    correct: &'a str,
    rng: &mut Rng,
) -> ([&'a str; 4], usize) {
    let mut distractors: Vec<&str> = pool.iter().copied().filter(|&v| v != correct).collect();
    rng.shuffle(&mut distractors);
    distractors.truncate(3);
    assert!(distractors.len() == 3, "value pool too small for 4 options");
    let answer = rng.index(4);
    let mut options = [""; 4];
    let mut d = distractors.into_iter();
    for (i, slot) in options.iter_mut().enumerate() {
        *slot = if i == answer {
            correct
        } else {
            d.next().expect("three distractors")
        };
    }
    (options, answer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorldConfig;

    fn world() -> World {
        World::generate(21, WorldConfig::small())
    }

    #[test]
    fn partition_sends_detail_to_body() {
        let w = world();
        for a in &w.articles {
            let (abs_f, ic, body) = partition_article_facts(&w, a);
            for &fid in abs_f.iter().chain(ic.iter()) {
                assert_ne!(w.facts[fid].tier, FactTier::Detail);
            }
            for &fid in &body {
                assert_eq!(w.facts[fid].tier, FactTier::Detail);
            }
        }
    }

    #[test]
    fn summary_recipe_covers_detail_facts() {
        let w = world();
        let mut rng = Rng::seed_from(0);
        // Find an article with at least one detail fact.
        let art = w
            .articles
            .iter()
            .find(|a| a.fact_ids.iter().any(|&f| w.facts[f].tier == FactTier::Detail))
            .expect("some article has detail facts");
        let detail_fact = art
            .fact_ids
            .iter()
            .map(|&f| &w.facts[f])
            .find(|f| f.tier == FactTier::Detail)
            .unwrap();
        let summary = render_article(&w, art, CorpusRecipe::Summary, &mut rng);
        assert!(summary.contains(&w.entity_of(detail_fact).name));
        let aic = render_article(&w, art, CorpusRecipe::Aic, &mut rng);
        // AIC must NOT contain the detail fact's sentence. The entity name
        // may appear for other facts, so check the (name, value) pairing
        // cannot appear via this fact: count occurrences of the value next
        // to the relation phrase is overkill — instead assert the body-only
        // fact's value string count in summary ≥ in AIC.
        let val = detail_fact.value;
        let in_summary = summary.matches(val).count();
        let in_aic = aic.matches(val).count();
        assert!(in_summary >= 1);
        assert!(in_summary >= in_aic);
    }

    #[test]
    fn abstract_is_shorter_than_aic() {
        let w = world();
        let mut rng = Rng::seed_from(1);
        let a = render_article(&w, &w.articles[0], CorpusRecipe::Abstract, &mut rng);
        let b = render_article(&w, &w.articles[0], CorpusRecipe::Aic, &mut rng);
        assert!(a.len() < b.len());
    }

    #[test]
    fn cpt_corpus_one_doc_per_article() {
        let w = world();
        let mut rng = Rng::seed_from(2);
        for recipe in [CorpusRecipe::Abstract, CorpusRecipe::Aic, CorpusRecipe::Summary] {
            let docs = cpt_corpus(&w, recipe, &mut rng);
            assert_eq!(docs.len(), w.articles.len());
        }
    }

    #[test]
    fn summary_docs_are_clean_of_latex() {
        let w = world();
        let mut rng = Rng::seed_from(3);
        let docs = cpt_corpus(&w, CorpusRecipe::Summary, &mut rng);
        for d in &docs {
            assert!(!d.text.contains('\\'), "summary has LaTeX noise: {}", d.text);
        }
    }

    #[test]
    fn general_corpus_has_all_kinds() {
        let w = world();
        let mut rng = Rng::seed_from(4);
        let docs = general_corpus(&w, 300, &mut rng);
        assert_eq!(docs.len(), 300);
        for kind in [DocumentKind::General, DocumentKind::Textbook, DocumentKind::ExamPrimer] {
            assert!(docs.iter().any(|d| d.kind == kind), "{kind:?} missing");
        }
    }

    #[test]
    fn exam_primer_format_matches_eval_format() {
        let options = ["0.1", "0.2", "0.3", "0.4"];
        let doc = exam_primer_doc("What is the redshift of NGC-1?", &options, 2);
        assert!(doc.starts_with("Question: What is the redshift of NGC-1?\n"));
        assert!(doc.contains("\nA: 0.1\n"));
        assert!(doc.ends_with("Answer: 0.3"), "{doc}");
    }

    #[test]
    fn primer_docs_contain_configured_mcq_count() {
        let mut cfg = WorldConfig::small();
        cfg.mcqs_per_primer = 4;
        cfg.primer_context_fraction = 0.0;
        let w = World::generate(77, cfg);
        let mut rng = Rng::seed_from(7);
        let docs = general_corpus(&w, 200, &mut rng);
        let primer = docs
            .iter()
            .find(|d| d.kind == DocumentKind::ExamPrimer)
            .expect("primer docs exist");
        assert_eq!(primer.text.matches("Question: ").count(), 4);
        assert_eq!(primer.text.matches("Answer: ").count(), 4);
    }

    #[test]
    fn primer_context_fraction_controls_fact_lines() {
        let mk = |frac: f64| {
            let mut cfg = WorldConfig::small();
            cfg.mcqs_per_primer = 1;
            cfg.primer_context_fraction = frac;
            let w = World::generate(78, cfg);
            let mut rng = Rng::seed_from(8);
            let docs = general_corpus(&w, 400, &mut rng);
            docs.into_iter()
                .filter(|d| d.kind == DocumentKind::ExamPrimer)
                .collect::<Vec<_>>()
        };
        // frac 0: every primer starts at the question.
        for d in mk(0.0) {
            assert!(d.text.starts_with("Question: "), "{}", d.text);
        }
        // frac 1: every primer starts with a context sentence.
        for d in mk(1.0) {
            assert!(!d.text.starts_with("Question: "), "{}", d.text);
            assert!(d.text.contains("\nQuestion: "), "{}", d.text);
        }
    }

    #[test]
    fn primer_context_line_supports_the_question() {
        // With context on, the fact value must appear both in the context
        // line and among the options.
        let mut cfg = WorldConfig::small();
        cfg.mcqs_per_primer = 1;
        cfg.primer_context_fraction = 1.0;
        let w = World::generate(79, cfg);
        let mut rng = Rng::seed_from(9);
        let docs = general_corpus(&w, 100, &mut rng);
        for d in docs.iter().filter(|d| d.kind == DocumentKind::ExamPrimer) {
            let (context, _) = d.text.split_once("\nQuestion: ").expect("context + question");
            let answer_value = d
                .text
                .rsplit_once("Answer: ")
                .map(|(_, v)| v)
                .expect("answer line");
            assert!(
                context.contains(answer_value),
                "context {context:?} does not contain answer value {answer_value:?}"
            );
        }
    }

    #[test]
    fn build_options_contains_answer_and_three_distractors() {
        let pool = ["a", "b", "c", "d", "e"];
        let mut rng = Rng::seed_from(5);
        for _ in 0..100 {
            let (opts, idx) = build_options(&pool, "c", &mut rng);
            assert_eq!(opts[idx], "c");
            let mut uniq = opts.to_vec();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 4, "options must be distinct");
        }
    }

    #[test]
    fn build_options_answer_position_varies() {
        let pool = ["a", "b", "c", "d", "e"];
        let mut rng = Rng::seed_from(6);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let (_, idx) = build_options(&pool, "a", &mut rng);
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s), "answer should land in every slot");
    }
}
