//! Study configuration and presets.
//!
//! Three presets trade fidelity for wall-clock on a single CPU core:
//!
//! * [`StudyConfig::smoke`] — seconds; CI and unit tests;
//! * [`StudyConfig::fast`] — minutes; the default for the bench binaries;
//! * [`StudyConfig::full`] — tens of minutes; the setting recorded in
//!   EXPERIMENTS.md.
//!
//! Learning rates mirror the paper's *relations* (SFT ≪ CPT ≤ pretrain;
//! paper: CPT 2e-5, SFT 3e-7) rescaled to our model scale.

use astro_model::{ModelConfig, Tier};
use astro_serve::EngineConfig;
use astro_world::WorldConfig;

/// All knobs of one end-to-end study.
#[derive(Clone, Debug)]
pub struct StudyConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Synthetic world parameters.
    pub world: WorldConfig,
    /// Target BPE vocabulary size.
    pub vocab_size: usize,
    /// Number of general-corpus documents for native pretraining.
    pub general_docs: usize,
    /// Native pretraining steps per tier `[S7b, S8b, S70b]`. The 8B
    /// stand-in gets the most tokens — LLaMA-3's better pretraining is
    /// what lets the real 8B rival the older 70B.
    pub native_steps: [u64; 3],
    /// CPT optimizer steps (per model).
    pub cpt_steps: u64,
    /// SFT optimizer steps (per model).
    pub sft_steps: u64,
    /// Peak learning rates.
    pub native_lr: f32,
    /// CPT peak LR (paper: 2e-5 at 7–70B scale).
    pub cpt_lr: f32,
    /// SFT peak LR (paper: 3e-7 — far below CPT).
    pub sft_lr: f32,
    /// Rows per micro-batch.
    pub batch: usize,
    /// Training window length.
    pub seq: usize,
    /// Simulated data-parallel devices.
    pub devices: usize,
    /// Scale of the SFT mixture relative to the paper's 31k conversations.
    pub sft_scale: f64,
    /// Fraction of astro SFT conversations demonstrating the JSON MCQ
    /// format.
    pub sft_json_fraction: f64,
    /// Questions evaluated per model/method (the paper runs all 4,417
    /// scored + 8 exemplars; presets subsample).
    pub n_eval_questions: usize,
    /// Use the verbose Appendix-B prompt in the full-instruct method.
    pub verbose_prompt: bool,
    /// Evaluation execution strategy. Presets default to
    /// [`EngineConfig::pooled`] — safe because the engine is bit-identical
    /// to the serial path for every setting (`tests/eval_parity.rs`).
    pub eval_engine: EngineConfig,
}

impl StudyConfig {
    /// Seconds-scale preset for tests.
    pub fn smoke(seed: u64) -> Self {
        StudyConfig {
            seed,
            world: WorldConfig {
                n_articles: 40,
                n_entities: 30,
                n_general_entities: 24,
                facts_per_article: 6,
                ..WorldConfig::default()
            },
            vocab_size: 420,
            general_docs: 400,
            native_steps: [30, 40, 30],
            cpt_steps: 15,
            sft_steps: 10,
            native_lr: 2e-3,
            cpt_lr: 2e-4,
            sft_lr: 5e-5,
            batch: 4,
            seq: 64,
            devices: 1,
            sft_scale: 0.004,
            sft_json_fraction: 0.35,
            n_eval_questions: 24,
            verbose_prompt: false,
            eval_engine: EngineConfig::pooled(),
        }
    }

    /// Sub-second preset for the chaos suite: the smallest configuration
    /// that still exercises every stage of [`crate::Study::run_study`]
    /// (all tiers, all recipes, all three eval methods), so
    /// kill-at-every-ledger-boundary sweeps stay affordable.
    pub fn micro(seed: u64) -> Self {
        StudyConfig {
            native_steps: [2, 2, 2],
            cpt_steps: 2,
            sft_steps: 2,
            n_eval_questions: 6,
            ..StudyConfig::smoke(seed)
        }
    }

    /// Minutes-scale preset (default for the bench binaries).
    pub fn fast(seed: u64) -> Self {
        StudyConfig {
            seed,
            world: WorldConfig {
                n_articles: 885,
                n_entities: 60,
                n_general_entities: 50,
                facts_per_article: 8,
                ..WorldConfig::default()
            },
            vocab_size: 512,
            general_docs: 8000,
            native_steps: [600, 1000, 700],
            cpt_steps: 200,
            sft_steps: 60,
            native_lr: 2e-3,
            // The paper's CPT LR (2e-5) is ~1/15 of a typical pretraining
            // peak; keep the same relation at our scale.
            cpt_lr: 2e-4,
            sft_lr: 5e-5,
            // The two-shot evaluation prompt is ~225 tokens; train at the
            // same context length so no unseen relative distances appear
            // at eval time.
            batch: 4,
            seq: 224,
            devices: 1,
            sft_scale: 0.02,
            sft_json_fraction: 0.35,
            n_eval_questions: 120,
            verbose_prompt: false,
            eval_engine: EngineConfig::pooled(),
        }
    }

    /// The highest-fidelity preset we can afford on one core; used for the
    /// numbers recorded in EXPERIMENTS.md.
    pub fn full(seed: u64) -> Self {
        StudyConfig {
            general_docs: 9000,
            native_steps: [1500, 2600, 2000],
            cpt_steps: 500,
            sft_steps: 160,
            sft_scale: 0.05,
            n_eval_questions: 400,
            ..StudyConfig::fast(seed)
        }
    }

    /// Cheap structural validation, run by [`crate::Study::prepare`]
    /// before any compute is spent: the one place a study's config is
    /// checked, so every rule a run would otherwise trip as a runtime
    /// assert lives here (the architecture's own rules live in
    /// `ModelConfig::validate`).
    pub fn validate(&self) -> Result<(), String> {
        let floor = 256 + astro_tokenizer::SPECIALS.len();
        if self.vocab_size < floor {
            return Err(format!(
                "vocab_size {} is below the structural floor {floor} \
                 (256 byte tokens + {} specials)",
                self.vocab_size,
                astro_tokenizer::SPECIALS.len()
            ));
        }
        if self.batch == 0 || self.seq == 0 || self.devices == 0 {
            return Err(format!(
                "batch {}, seq {} and devices {} must all be nonzero",
                self.batch, self.seq, self.devices
            ));
        }
        for tier in [Tier::S7b, Tier::S8b, Tier::S70b] {
            let max_seq = ModelConfig::tier(tier, self.vocab_size).max_seq;
            if self.seq > max_seq {
                return Err(format!(
                    "seq {} exceeds the {} max_seq {max_seq}; no RoPE rows exist past it",
                    self.seq,
                    tier.label()
                ));
            }
        }
        if self.native_steps.contains(&0) || self.cpt_steps == 0 || self.sft_steps == 0
        {
            return Err(format!(
                "step counts must be nonzero: native {:?}, cpt {}, sft {}",
                self.native_steps, self.cpt_steps, self.sft_steps
            ));
        }
        for (name, lr) in
            [("native_lr", self.native_lr), ("cpt_lr", self.cpt_lr), ("sft_lr", self.sft_lr)]
        {
            if !(lr > 0.0 && lr.is_finite()) {
                return Err(format!("{name} must be positive and finite, got {lr}"));
            }
        }
        if !(0.0..=1.0).contains(&self.sft_json_fraction) {
            return Err(format!(
                "sft_json_fraction {} outside [0, 1]",
                self.sft_json_fraction
            ));
        }
        if !(self.sft_scale > 0.0 && self.sft_scale.is_finite()) {
            return Err(format!("sft_scale must be positive and finite, got {}", self.sft_scale));
        }
        if self.n_eval_questions == 0 {
            return Err("n_eval_questions must be nonzero".to_string());
        }
        self.eval_engine
            .validate()
            .map_err(|e| format!("eval_engine: {e}"))?;
        Ok(())
    }

    /// Tokens one native pretraining run processes for tier index `i`.
    pub fn native_tokens(&self, tier_idx: usize) -> u64 {
        self.native_steps[tier_idx] * (self.batch * self.seq * self.devices) as u64
    }

    /// Tokens per CPT run.
    pub fn cpt_tokens(&self) -> u64 {
        self.cpt_steps * (self.batch * self.seq * self.devices) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_monotonically() {
        let m = StudyConfig::micro(1);
        let s = StudyConfig::smoke(1);
        let f = StudyConfig::fast(1);
        let u = StudyConfig::full(1);
        assert!(m.cpt_steps < s.cpt_steps);
        assert!(s.cpt_steps < f.cpt_steps && f.cpt_steps < u.cpt_steps);
        assert!(m.n_eval_questions < s.n_eval_questions);
        assert!(s.n_eval_questions < f.n_eval_questions);
        assert!(f.n_eval_questions < u.n_eval_questions);
    }

    #[test]
    fn all_presets_validate() {
        for cfg in [
            StudyConfig::micro(3),
            StudyConfig::smoke(3),
            StudyConfig::fast(3),
            StudyConfig::full(3),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_bad_eval_engine() {
        let mut cfg = StudyConfig::micro(3);
        cfg.eval_engine.parallelism = astro_serve::MAX_PARALLELISM + 1;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("eval_engine"), "{err}");
    }

    #[test]
    fn validate_rejects_each_broken_scalar() {
        let smoke = StudyConfig::smoke(1);
        for (field, cfg) in [
            ("vocab_size", StudyConfig { vocab_size: 100, ..smoke.clone() }),
            ("seq", StudyConfig { seq: 0, ..smoke.clone() }),
            ("cpt", StudyConfig { cpt_steps: 0, ..smoke.clone() }),
            ("cpt_lr", StudyConfig { cpt_lr: f32::NAN, ..smoke.clone() }),
            ("sft_json_fraction", StudyConfig { sft_json_fraction: 1.5, ..smoke.clone() }),
            ("sft_scale", StudyConfig { sft_scale: 0.0, ..smoke.clone() }),
            ("n_eval_questions", StudyConfig { n_eval_questions: 0, ..smoke.clone() }),
        ] {
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn validate_rejects_seq_past_max_seq() {
        let mut cfg = StudyConfig::micro(3);
        cfg.seq = 288;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.seq = 289;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("max_seq 288"), "{err}");
    }

    #[test]
    fn lr_relations_follow_paper() {
        for cfg in [StudyConfig::smoke(0), StudyConfig::fast(0), StudyConfig::full(0)] {
            assert!(cfg.sft_lr < cfg.cpt_lr, "SFT LR must be far below CPT");
            assert!(cfg.cpt_lr <= cfg.native_lr);
        }
    }

    #[test]
    fn eight_b_gets_most_pretraining() {
        let f = StudyConfig::fast(0);
        assert!(f.native_steps[1] > f.native_steps[0]);
        assert!(f.native_steps[1] > f.native_steps[2]);
    }

    #[test]
    fn token_accounting() {
        let f = StudyConfig::fast(0);
        assert_eq!(f.cpt_tokens(), f.cpt_steps * (f.batch * f.seq) as u64);
        assert_eq!(f.native_tokens(1), f.native_steps[1] * (f.batch * f.seq) as u64);
    }

    #[test]
    fn fast_preset_keeps_paper_article_count() {
        assert_eq!(StudyConfig::fast(0).world.n_articles, 885);
    }
}
