//! The model zoo. Every trained model is a [`Recipe`]: a native, or a
//! parent continually pretrained on a corpus or SFT'd on a mixture (paper
//! §III). Table I's eight models are eight of them, named by [`ModelId`];
//! the ablations' variants are more.

use astro_model::Tier;
use astro_prng::Rng;
use astro_world::{clean_ocr, noisify, CorpusRecipe, NoiseConfig, SftMixtureConfig};

/// How a model is made. A recipe is its model's identity:
/// [`RunDir`](crate::RunDir) trains, checkpoints, scores and ledgers
/// models by recipe.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Recipe {
    /// Pretrained from scratch on the general corpus.
    Native {
        /// Capacity tier.
        tier: Tier,
    },
    /// `parent` continually pretrained on `corpus`.
    Cpt {
        /// The model it starts from.
        parent: Box<Recipe>,
        /// What it trains on.
        corpus: Corpus,
    },
    /// `parent` supervised-fine-tuned on `mixture`.
    Sft {
        /// The model it starts from.
        parent: Box<Recipe>,
        /// What it trains on.
        mixture: Mixture,
    },
}

impl Recipe {
    /// A native of `tier`.
    pub fn native(tier: Tier) -> Recipe {
        Recipe::Native { tier }
    }

    /// This model continually pretrained on `corpus`.
    pub fn cpt(self, corpus: impl Into<Corpus>) -> Recipe {
        Recipe::Cpt {
            parent: Box::new(self),
            corpus: corpus.into(),
        }
    }

    /// This model SFT'd on `mixture`.
    pub fn sft(self, mixture: Mixture) -> Recipe {
        Recipe::Sft {
            parent: Box::new(self),
            mixture,
        }
    }

    /// The model this one starts from; `None` for a native.
    pub fn parent(&self) -> Option<&Recipe> {
        match self {
            Recipe::Native { .. } => None,
            Recipe::Cpt { parent, .. } | Recipe::Sft { parent, .. } => Some(parent),
        }
    }

    /// Display name: Table I's for its models. A CPT'd model's name is
    /// `Astro`, its parent's and `-<corpus>`; an SFT'd model's is its
    /// parent's and the mixture's, or just its parent's on the paper's
    /// mixture (Table I shows an instruct model in its base model's row).
    pub fn name(&self) -> String {
        match self {
            Recipe::Native { tier: Tier::S7b } => "LLaMA-2-7B (sim)".to_string(),
            Recipe::Native { tier: Tier::S8b } => "LLaMA-3-8B (sim)".to_string(),
            Recipe::Native { tier: Tier::S70b } => "LLaMA-2-70B (sim)".to_string(),
            Recipe::Cpt { parent, corpus } => {
                let parent = parent.name();
                let stem = parent.strip_suffix(" (sim)").unwrap_or(&parent);
                format!("Astro{stem}-{} (sim)", corpus.label())
            }
            Recipe::Sft {
                parent,
                mixture: Mixture::Paper,
            } => parent.name(),
            Recipe::Sft { parent, mixture } => format!("{} {}", parent.name(), mixture.label()),
        }
    }
}

/// What a CPT stage trains on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Corpus {
    /// One of the paper's three corpora, as [`Study::prepare`] packs it.
    ///
    /// [`Study::prepare`]: crate::Study::prepare
    Paper(CorpusRecipe),
    /// A1's: every article rendered once as AIC text, through a noise
    /// channel.
    Noisy(Noise),
}

impl From<CorpusRecipe> for Corpus {
    fn from(recipe: CorpusRecipe) -> Corpus {
        Corpus::Paper(recipe)
    }
}

impl Corpus {
    /// Display label, e.g. `AIC` or `AIC-heavy-ocr`.
    pub fn label(self) -> String {
        match self {
            Corpus::Paper(recipe) => recipe.label().to_string(),
            Corpus::Noisy(noise) => format!("AIC-{}", noise.label()),
        }
    }
}

/// A1's noise channels, from clean text to heavy OCR noise.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Noise {
    /// The text as rendered.
    Clean,
    /// The LaTeX-artefact rates of the paper's AIC data.
    LatexArtifacts,
    /// Heavy raw-OCR noise.
    HeavyOcr,
    /// Heavy raw-OCR noise, then the Nougat-style cleaner.
    HeavyOcrNougat,
}

impl Noise {
    /// A1's four channels in table order.
    pub const ALL: [Noise; 4] = [
        Noise::Clean,
        Noise::LatexArtifacts,
        Noise::HeavyOcr,
        Noise::HeavyOcrNougat,
    ];

    /// Display label, also the name of the channel's RNG substream.
    pub fn label(self) -> &'static str {
        match self {
            Noise::Clean => "clean",
            Noise::LatexArtifacts => "latex-artifacts",
            Noise::HeavyOcr => "heavy-ocr",
            Noise::HeavyOcrNougat => "heavy-ocr+nougat",
        }
    }

    /// Pass `text` through the channel (`Clean` draws nothing from `rng`).
    pub fn apply(self, text: &str, rng: &mut Rng) -> String {
        match self {
            Noise::Clean => text.to_string(),
            Noise::LatexArtifacts => noisify(text, &NoiseConfig::latex_artifacts(), rng),
            Noise::HeavyOcr => noisify(text, &NoiseConfig::heavy_ocr(), rng),
            Noise::HeavyOcrNougat => clean_ocr(&noisify(text, &NoiseConfig::heavy_ocr(), rng)),
        }
    }
}

/// What an SFT stage trains on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mixture {
    /// The paper's conversation mixture, as [`Study::prepare`] renders it.
    ///
    /// [`Study::prepare`]: crate::Study::prepare
    Paper,
    /// A2: general conversations only, at the paper mixture's size.
    GeneralOnly,
    /// A2: one third astronomy, at the paper mixture's size.
    AstroThird,
    /// A2: astronomy only, at the paper mixture's size.
    AstroOnly,
    /// A2: one third astronomy, a tenth of the paper mixture's size.
    AstroThirdSmall,
}

impl Mixture {
    /// A2's four mixtures in table order.
    pub const A2: [Mixture; 4] = [
        Mixture::GeneralOnly,
        Mixture::AstroThird,
        Mixture::AstroOnly,
        Mixture::AstroThirdSmall,
    ];

    /// Display label, also the name of an A2 mixture's RNG substream.
    pub fn label(self) -> &'static str {
        match self {
            Mixture::Paper => "paper",
            Mixture::GeneralOnly => "astro 0% (general only)",
            Mixture::AstroThird => "astro 33% (paper mixture)",
            Mixture::AstroOnly => "astro 100%",
            Mixture::AstroThirdSmall => "astro 33%, 10x smaller",
        }
    }

    /// The conversation counts of an A2 mixture, sized against the paper
    /// mixture's `paper_total` conversations; `None` for the paper's own.
    pub fn config(self, paper_total: usize, astro_json_fraction: f64) -> Option<SftMixtureConfig> {
        let (astro_frac, size) = match self {
            Mixture::Paper => return None,
            Mixture::GeneralOnly => (0.0, paper_total),
            Mixture::AstroThird => (1.0 / 3.0, paper_total),
            Mixture::AstroOnly => (1.0, paper_total),
            Mixture::AstroThirdSmall => (1.0 / 3.0, (paper_total / 10).max(4)),
        };
        let n_astro = ((size as f64) * astro_frac).round() as usize;
        let n_general = size - n_astro;
        Some(SftMixtureConfig {
            n_astro: n_astro.max(usize::from(astro_frac > 0.0)),
            n_lima: (n_general / 21).max(1),
            n_orca: (n_general * 10 / 21).max(1),
            n_ultrachat: (n_general * 10 / 21).max(1),
            astro_json_fraction,
        })
    }
}

/// Every model evaluated in the paper's Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// Native LLaMA-2-7B stand-in.
    Llama2_7b,
    /// AstroLLaMA-2-7B-AIC (ref [28]).
    AstroLlama2_7bAic,
    /// AstroLLaMA-2-7B-Abstract (ref [27]; no instruct release → no
    /// instruct-mode scores).
    AstroLlama2_7bAbstract,
    /// Native LLaMA-3-8B stand-in.
    Llama3_8b,
    /// AstroLLaMA-3-8B-AIC (this study).
    AstroLlama3_8bAic,
    /// AstroLLaMA-3-8B-Summary (this study).
    AstroLlama3_8bSummary,
    /// Native LLaMA-2-70B stand-in.
    Llama2_70b,
    /// AstroLLaMA-2-70B-AIC (this study's headline model).
    AstroLlama2_70bAic,
}

impl ModelId {
    /// All models in Table I row order.
    pub fn all() -> [ModelId; 8] {
        [
            ModelId::Llama2_7b,
            ModelId::AstroLlama2_7bAic,
            ModelId::AstroLlama2_7bAbstract,
            ModelId::Llama3_8b,
            ModelId::AstroLlama3_8bAic,
            ModelId::AstroLlama3_8bSummary,
            ModelId::Llama2_70b,
            ModelId::AstroLlama2_70bAic,
        ]
    }

    /// Display name (with the `(sim)` marker making the substitution
    /// explicit).
    pub fn name(self) -> &'static str {
        match self {
            ModelId::Llama2_7b => "LLaMA-2-7B (sim)",
            ModelId::AstroLlama2_7bAic => "AstroLLaMA-2-7B-AIC (sim)",
            ModelId::AstroLlama2_7bAbstract => "AstroLLaMA-2-7B-Abstract (sim)",
            ModelId::Llama3_8b => "LLaMA-3-8B (sim)",
            ModelId::AstroLlama3_8bAic => "AstroLLaMA-3-8B-AIC (sim)",
            ModelId::AstroLlama3_8bSummary => "AstroLLaMA-3-8B-Summary (sim)",
            ModelId::Llama2_70b => "LLaMA-2-70B (sim)",
            ModelId::AstroLlama2_70bAic => "AstroLLaMA-2-70B-AIC (sim)",
        }
    }

    /// Table I series header.
    pub fn series(self) -> &'static str {
        match self {
            ModelId::Llama2_7b => "LLaMA-2 Series (7B Parameters)",
            ModelId::AstroLlama2_7bAic | ModelId::AstroLlama2_7bAbstract => {
                "AstroLLaMA-2 Series (7B Parameters)"
            }
            ModelId::Llama3_8b => "LLaMA-3 Series (8B Parameters)",
            ModelId::AstroLlama3_8bAic | ModelId::AstroLlama3_8bSummary => {
                "AstroLLaMA-3 Series (8B Parameters)"
            }
            ModelId::Llama2_70b => "LLaMA-2 Series (70B Parameters)",
            ModelId::AstroLlama2_70bAic => "AstroLLaMA-2 Series (70B Parameters)",
        }
    }

    /// Source column of Table I.
    pub fn source(self) -> &'static str {
        match self {
            ModelId::Llama2_7b | ModelId::Llama3_8b | ModelId::Llama2_70b => "Meta",
            ModelId::AstroLlama2_7bAic | ModelId::AstroLlama2_7bAbstract => "uTBD",
            _ => "AstroMLab",
        }
    }

    /// How this model is made: a native, or a native continually
    /// pretrained on one of the paper's corpora.
    pub fn recipe(self) -> Recipe {
        let (tier, corpus) = match self {
            ModelId::Llama2_7b => (Tier::S7b, None),
            ModelId::AstroLlama2_7bAic => (Tier::S7b, Some(CorpusRecipe::Aic)),
            ModelId::AstroLlama2_7bAbstract => (Tier::S7b, Some(CorpusRecipe::Abstract)),
            ModelId::Llama3_8b => (Tier::S8b, None),
            ModelId::AstroLlama3_8bAic => (Tier::S8b, Some(CorpusRecipe::Aic)),
            ModelId::AstroLlama3_8bSummary => (Tier::S8b, Some(CorpusRecipe::Summary)),
            ModelId::Llama2_70b => (Tier::S70b, None),
            ModelId::AstroLlama2_70bAic => (Tier::S70b, Some(CorpusRecipe::Aic)),
        };
        let native = Recipe::native(tier);
        match corpus {
            Some(corpus) => native.cpt(corpus),
            None => native,
        }
    }

    /// This model's instruct release: its recipe SFT'd on the paper's
    /// mixture. `None` only for AstroLLaMA-2-7B-Abstract, which has none.
    pub fn instruct(self) -> Option<Recipe> {
        (self != ModelId::AstroLlama2_7bAbstract).then(|| self.recipe().sft(Mixture::Paper))
    }

    /// The paper's measured scores `[full instruct, token instruct, token
    /// base]` (percent), for shape comparison in EXPERIMENTS.md.
    pub fn paper_scores(self) -> [Option<f64>; 3] {
        match self {
            ModelId::Llama2_7b => [Some(50.3), Some(62.6), Some(51.3)],
            ModelId::AstroLlama2_7bAic => [Some(41.4), Some(47.2), Some(44.3)],
            ModelId::AstroLlama2_7bAbstract => [None, None, Some(43.5)],
            ModelId::Llama3_8b => [Some(72.9), Some(73.6), Some(72.0)],
            ModelId::AstroLlama3_8bAic => [Some(61.8), Some(68.4), Some(71.9)],
            ModelId::AstroLlama3_8bSummary => [Some(69.0), Some(70.9), Some(72.3)],
            ModelId::Llama2_70b => [Some(70.7), Some(71.4), Some(73.9)],
            ModelId::AstroLlama2_70bAic => [Some(64.7), Some(75.4), Some(76.0)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_models_in_order() {
        let all = ModelId::all();
        assert_eq!(all.len(), 8);
        assert_eq!(all[0], ModelId::Llama2_7b);
        assert_eq!(all[7], ModelId::AstroLlama2_70bAic);
    }

    #[test]
    fn natives_have_no_parent_and_cpt_models_start_from_their_native() {
        for id in [ModelId::Llama2_7b, ModelId::Llama3_8b, ModelId::Llama2_70b] {
            assert_eq!(id.recipe().parent(), None);
            assert_eq!(id.source(), "Meta");
        }
        let parent = |id: ModelId| id.recipe().parent().cloned();
        assert_eq!(
            parent(ModelId::AstroLlama2_70bAic),
            Some(ModelId::Llama2_70b.recipe())
        );
        assert_eq!(
            parent(ModelId::AstroLlama3_8bSummary),
            Some(ModelId::Llama3_8b.recipe())
        );
        assert_eq!(
            parent(ModelId::AstroLlama2_7bAbstract),
            Some(ModelId::Llama2_7b.recipe())
        );
    }

    #[test]
    fn abstract_model_has_no_instruct() {
        assert!(ModelId::AstroLlama2_7bAbstract.instruct().is_none());
        assert_eq!(
            ModelId::AstroLlama2_70bAic.instruct(),
            Some(ModelId::AstroLlama2_70bAic.recipe().sft(Mixture::Paper))
        );
    }

    #[test]
    fn paper_scores_match_table1_headlines() {
        let s = ModelId::AstroLlama2_70bAic.paper_scores();
        assert_eq!(s[2], Some(76.0));
        assert_eq!(ModelId::Llama2_70b.paper_scores()[2], Some(73.9));
        assert_eq!(ModelId::AstroLlama2_7bAbstract.paper_scores()[0], None);
    }

    /// A model's recipe names it: the name Table I prints is derived from
    /// the tier, corpus and mixture alone.
    #[test]
    fn every_model_is_named_by_its_recipe() {
        for id in ModelId::all() {
            assert_eq!(id.recipe().name(), id.name());
            if let Some(instruct) = id.instruct() {
                assert_eq!(instruct.name(), id.name());
            }
        }
        let variant = ModelId::Llama3_8b
            .recipe()
            .cpt(Corpus::Noisy(Noise::HeavyOcrNougat));
        assert_eq!(variant.name(), "AstroLLaMA-3-8B-AIC-heavy-ocr+nougat (sim)");
        let a2 = ModelId::AstroLlama3_8bAic.recipe().sft(Mixture::AstroOnly);
        assert_eq!(a2.name(), "AstroLLaMA-3-8B-AIC (sim) astro 100%");
    }

    /// A2's mixtures keep their sizes: the paper mixture's total, or a
    /// tenth of it, split by astronomy share.
    #[test]
    fn a2_mixtures_split_the_paper_total() {
        let sizes: Vec<(usize, usize)> = Mixture::A2
            .iter()
            .map(|m| m.config(210, 0.35).expect("A2 mixtures are drawn"))
            .map(|c| (c.n_astro, c.total()))
            .collect();
        assert_eq!(sizes, [(0, 210), (70, 208), (210, 213), (7, 20)]);
        assert!(Mixture::Paper.config(210, 0.35).is_none());
    }

    #[test]
    fn names_and_series_are_unique() {
        let names: std::collections::HashSet<&str> =
            ModelId::all().iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 8);
    }
}
