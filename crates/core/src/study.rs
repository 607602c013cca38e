//! The end-to-end study pipeline (paper §III–§VI).
//!
//! Every trained model lives in a run directory: [`Study::open_run`]
//! replays its ledger and hands out any zoo model's weights or scores,
//! each saved as an atomic checkpoint or appended to the ledger the first
//! time it is built. [`Study::run_study`] is that handle's loop over the
//! whole zoo. A re-run after an interruption resumes from the last
//! durable artifact and reproduces the remaining stages bit-for-bit (see
//! `docs/RESILIENCE.md`).

use crate::presets::StudyConfig;
use crate::zoo::ModelId;
use astro_eval::json::Json;
use astro_eval::report::{render_figure1, render_table1, ModelRow};
use astro_eval::{
    evaluate_checked, EvalFailure, EvalModel, InstructEvalConfig, Method, Score, TokenEvalConfig,
};
use astro_mcq::{Mcq, McqConfig, McqDataset};
use astro_model::serial::save_checkpoint;
use astro_model::{CkptError, ModelConfig, Params, Tier};
use astro_prng::Rng;
use astro_resilience::{fnv64, Journal, RetryPolicy};
use astro_tokenizer::{train_bpe, BpeTrainerConfig, Tokenizer};
use astro_train::{
    pack_documents, render_conversations, train_lm, BatchSource, SftExample, TokenStream,
    TrainError, TrainReport, TrainerConfig,
};
use astro_world::{cpt_corpus, general_corpus, sft_dataset, CorpusRecipe, SftMixtureConfig, World};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Why a study stage could not complete. Every failure on the study path
/// is typed: callers can distinguish a bad configuration from a training
/// divergence, a corrupt checkpoint, an exhausted eval retry budget or an
/// injected interruption, and decide to resume.
#[derive(Debug)]
pub enum StudyError {
    /// The configuration failed [`StudyConfig::validate`].
    InvalidConfig(String),
    /// Training failed (divergence, bad trainer config, unknown role).
    Train {
        /// Stage label, e.g. `cpt-AstroLLaMA-2-7B-AIC`.
        stage: String,
        /// The underlying trainer error.
        source: TrainError,
    },
    /// A checkpoint could not be written or read back.
    Ckpt {
        /// Filesystem path of the offending checkpoint.
        path: String,
        /// The underlying checkpoint error.
        source: CkptError,
    },
    /// The run ledger is unusable (unparseable line, or it belongs to a
    /// different study configuration).
    Ledger(String),
    /// Evaluation kept failing after bounded retries.
    Eval {
        /// Stage label, e.g. `eval-LLaMA-3-8B-token_base`.
        stage: String,
        /// Attempts made before giving up.
        attempts: u32,
        /// The last failure.
        failure: EvalFailure,
    },
    /// An injected `study.stage_boundary` fault fired — the simulated
    /// crash used by the chaos suite to exercise resume.
    Interrupted {
        /// The fault site that fired.
        site: &'static str,
        /// The stage whose boundary was interrupted.
        stage: String,
    },
    /// Ledger or filesystem I/O failed.
    Io(String),
}

impl std::fmt::Display for StudyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StudyError::InvalidConfig(msg) => write!(f, "invalid StudyConfig: {msg}"),
            StudyError::Train { stage, source } => write!(f, "training failed at {stage}: {source}"),
            StudyError::Ckpt { path, source } => write!(f, "checkpoint {path}: {source}"),
            StudyError::Ledger(msg) => write!(f, "run ledger: {msg}"),
            StudyError::Eval { stage, attempts, failure } => {
                write!(f, "evaluation {stage} failed after {attempts} attempts: {failure}")
            }
            StudyError::Interrupted { site, stage } => {
                write!(f, "interrupted by injected fault {site} at stage {stage}")
            }
            StudyError::Io(msg) => write!(f, "study I/O: {msg}"),
        }
    }
}

impl std::error::Error for StudyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StudyError::Train { source, .. } => Some(source),
            StudyError::Ckpt { source, .. } => Some(source),
            StudyError::Eval { failure, .. } => Some(failure),
            _ => None,
        }
    }
}

/// Tier index into per-tier arrays.
fn tier_idx(tier: Tier) -> usize {
    match tier {
        Tier::S7b => 0,
        Tier::S8b => 1,
        Tier::S70b => 2,
    }
}

/// A prepared study: world, tokenizer, benchmark and packed corpora.
pub struct Study {
    /// The configuration the study was prepared with.
    pub config: StudyConfig,
    /// The synthetic world.
    pub world: World,
    /// The shared tokenizer.
    pub tokenizer: Tokenizer,
    /// The MCQ benchmark.
    pub mcq: McqDataset,
    /// Packed general corpus (native pretraining).
    pub general_stream: TokenStream,
    /// Packed CPT corpora per recipe.
    pub cpt_streams: Vec<(CorpusRecipe, TokenStream)>,
    /// Rendered SFT examples.
    pub sft_examples: Vec<SftExample>,
    root: Rng,
}

/// The study's measured outputs.
pub struct StudyResult {
    /// Scores per model: `[full instruct, token instruct, token base]`.
    pub scores: Vec<(ModelId, [Option<Score>; 3])>,
    /// Rendered Table I.
    pub table1: String,
    /// Rendered ASCII Figure 1.
    pub figure1: String,
    /// Figure 1 data as CSV.
    pub figure1_csv: String,
}

impl StudyResult {
    /// Measured score of one model under one method, %.
    pub fn score(&self, id: ModelId, method: Method) -> Option<f64> {
        let col = match method {
            Method::FullInstruct => 0,
            Method::TokenInstruct => 1,
            Method::TokenBase => 2,
        };
        self.scores
            .iter()
            .find(|(m, _)| *m == id)
            .and_then(|(_, s)| s[col].as_ref().map(Score::percent))
    }
}

impl Study {
    /// Generate the world, train the tokenizer, build the benchmark and
    /// pack every corpus.
    pub fn prepare(config: StudyConfig) -> Result<Study, StudyError> {
        let _span = astro_telemetry::span!("study.prepare", seed = config.seed);
        config.validate().map_err(StudyError::InvalidConfig)?;
        astro_telemetry::info!(
            "prepare: world + tokenizer + benchmark (seed {})",
            config.seed
        );
        let root = Rng::seed_from(config.seed);
        let world = World::generate(config.seed, config.world.clone());

        // Corpora.
        let mut corpus_rng = root.substream("general-corpus");
        let general_docs = general_corpus(&world, config.general_docs, &mut corpus_rng);
        let mut cpt_rng = root.substream("cpt-corpus");
        let cpt_docs: Vec<(CorpusRecipe, Vec<astro_world::Document>)> =
            [CorpusRecipe::Abstract, CorpusRecipe::Aic, CorpusRecipe::Summary]
                .into_iter()
                .map(|r| (r, cpt_corpus(&world, r, &mut cpt_rng)))
                .collect();

        // Tokenizer: train on a blend of general + astro text so both
        // domains tokenise compactly (as LLaMA's web-trained BPE does).
        let mut tok_corpus: Vec<String> = general_docs
            .iter()
            .take(400)
            .map(|d| d.text.clone())
            .collect();
        for (_, docs) in &cpt_docs {
            tok_corpus.extend(docs.iter().take(120).map(|d| d.text.clone()));
        }
        // Guarantee the answer-letter variants exist as single tokens (as
        // they do in real LLM tokenizers) — the next-token method reads
        // their logits directly — and make every attribute value's head
        // word a single token, mirroring how common words are whole
        // tokens in web-scale BPE vocabularies.
        let mut ensure: Vec<String> = [" A", " B", " C", " D"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        for rel in astro_world::RELATIONS {
            for v in rel.values() {
                let head = v.split(' ').next().unwrap_or(v);
                ensure.push(format!(" {head}"));
            }
        }
        for rel in astro_world::GENERAL_RELATIONS {
            for v in rel.values() {
                ensure.push(format!(" {v}"));
            }
        }
        ensure.sort();
        ensure.dedup();
        let tokenizer = train_bpe(
            &tok_corpus,
            &BpeTrainerConfig {
                vocab_size: config.vocab_size,
                min_pair_count: 2,
                ensure_pieces: ensure,
            },
        );

        // Benchmark.
        let mut mcq_rng = root.substream("mcq-gen");
        let mcq = McqDataset::generate(&world, &McqConfig::default(), &mut mcq_rng);

        // Packing.
        let general_stream = pack_documents(&tokenizer, &general_docs);
        let cpt_streams = cpt_docs
            .iter()
            .map(|(r, docs)| (*r, pack_documents(&tokenizer, docs)))
            .collect();

        // SFT set.
        let mut sft_rng = root.substream("sft-data");
        let mut mixture = SftMixtureConfig::paper_mixture(config.sft_scale);
        mixture.astro_json_fraction = config.sft_json_fraction;
        let convs = sft_dataset(&world, &mixture, &mut sft_rng);
        let sft_examples = render_conversations(&tokenizer, &convs).map_err(|e| {
            StudyError::Train { stage: "prepare.sft-render".to_string(), source: e }
        })?;

        Ok(Study {
            config,
            world,
            tokenizer,
            mcq,
            general_stream,
            cpt_streams,
            sft_examples,
            root,
        })
    }

    /// The packed CPT stream for a recipe. `None` only for a recipe that
    /// [`Study::prepare`] did not pack (it packs all three).
    pub fn cpt_stream(&self, recipe: CorpusRecipe) -> Option<&TokenStream> {
        self.cpt_streams.iter().find(|(r, _)| *r == recipe).map(|(_, s)| s)
    }

    /// Model configuration for a tier under this study's tokenizer.
    pub fn model_config(&self, tier: Tier) -> ModelConfig {
        ModelConfig::tier(tier, self.tokenizer.vocab_size())
    }

    fn trainer_config(&self, steps: u64, lr: f32) -> TrainerConfig {
        TrainerConfig {
            lr,
            batch: self.config.batch,
            seq: self.config.seq,
            steps,
            warmup_ratio: 0.03,
            grad_clip: 1.0,
            grad_accum: 1,
            devices: self.config.devices,
            bf16_weights: true,
            weight_decay: 0.01,
            log_every: 20,
        }
    }

    /// Pretrain one native model on the general corpus.
    pub fn pretrain_native(&self, tier: Tier) -> Result<(Params, TrainReport), StudyError> {
        let span = astro_telemetry::span!("study.pretrain_native", tier = tier.label());
        astro_telemetry::info!("pretrain_native: tier {}", tier.label());
        let cfg = self.model_config(tier);
        let mut rng = self.root.substream_idx("native-init", tier_idx(tier) as u64);
        let mut params = Params::init(cfg, &mut rng);
        let tc = self.trainer_config(self.config.native_steps[tier_idx(tier)], self.config.native_lr);
        let report = train_lm(
            &mut params,
            BatchSource::Lm(&self.general_stream),
            &tc,
            &self.root.substream_idx("native-train", tier_idx(tier) as u64),
        )
        .map_err(|e| StudyError::Train {
            stage: format!("pretrain-native-{}", tier.label()),
            source: e,
        })?;
        span.record_f64("tokens", report.tokens_processed as f64);
        Ok((params, report))
    }

    /// Continually pretrain a base model on a recipe corpus (paper §III).
    pub fn cpt(&self, base: &Params, recipe: CorpusRecipe) -> Result<(Params, TrainReport), StudyError> {
        let span = astro_telemetry::span!("study.cpt", recipe = recipe.label());
        astro_telemetry::info!("cpt: recipe {}", recipe.label());
        let stream = self.cpt_stream(recipe).ok_or_else(|| {
            StudyError::InvalidConfig(format!("no packed corpus for recipe {}", recipe.label()))
        })?;
        let mut params = base.clone();
        let tc = self.trainer_config(self.config.cpt_steps, self.config.cpt_lr);
        let report = train_lm(
            &mut params,
            BatchSource::Lm(stream),
            &tc,
            &self.root.substream(&format!("cpt-{}", recipe.label())),
        )
        .map_err(|e| StudyError::Train {
            stage: format!("cpt-{}", recipe.label()),
            source: e,
        })?;
        span.record_f64("tokens", report.tokens_processed as f64);
        Ok((params, report))
    }

    /// SFT a base model into an instruct model.
    pub fn sft(&self, base: &Params, label: &str) -> Result<(Params, TrainReport), StudyError> {
        let span = astro_telemetry::span!("study.sft", model = label);
        astro_telemetry::info!("sft: {label}");
        let mut params = base.clone();
        let tc = self.trainer_config(self.config.sft_steps, self.config.sft_lr);
        let report = train_lm(
            &mut params,
            BatchSource::Sft(&self.sft_examples, self.tokenizer.pad()),
            &tc,
            &self.root.substream(&format!("sft-{label}")),
        )
        .map_err(|e| StudyError::Train { stage: format!("sft-{label}"), source: e })?;
        span.record_f64("tokens", report.tokens_processed as f64);
        Ok((params, report))
    }

    /// The deterministic evaluation subset.
    pub fn eval_questions(&self) -> Vec<&Mcq> {
        let mut rng = self.root.substream("eval-subset");
        self.mcq.subset(self.config.n_eval_questions, &mut rng)
    }

    /// Evaluate one parameter set under one method; a question whose
    /// engine job failed scores as wrong.
    pub fn eval(&self, params: &Params, method: Method) -> Score {
        self.eval_checked(params, method).unwrap_or_else(|failure| failure.degraded)
    }

    /// Like [`Study::eval`], but transient engine failures (worker panics,
    /// cache exhaustion that survives the uncached retry) surface as a
    /// typed [`EvalFailure`] instead of being silently scored wrong.
    pub fn eval_checked(&self, params: &Params, method: Method) -> Result<Score, EvalFailure> {
        let model = EvalModel {
            params,
            tokenizer: &self.tokenizer,
        };
        let questions = self.eval_questions();
        let mut rng = self.root.substream("eval-run");
        evaluate_checked(
            &model,
            &questions,
            &self.mcq.exemplars,
            method,
            &TokenEvalConfig {
                engine: self.config.eval_engine,
                ..Default::default()
            },
            &InstructEvalConfig {
                verbose_prompt: self.config.verbose_prompt,
                engine: self.config.eval_engine,
                ..Default::default()
            },
            &mut rng,
        )
    }

    /// Open the run directory `dir` (created if absent): replay its
    /// ledger (`dir/ledger.jsonl`) and check it belongs to this study and
    /// this build, or start it with a fingerprint line.
    pub fn open_run(&self, dir: &Path) -> Result<RunDir<'_>, StudyError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StudyError::Io(format!("create {}: {e}", dir.display())))?;
        let journal = Journal::at(&dir.join("ledger.jsonl"));
        let done = load_ledger(&journal)?;
        self.check_fingerprint(&journal, &done)?;
        Ok(RunDir {
            study: self,
            dir: dir.to_path_buf(),
            journal,
            done,
            weights: HashMap::new(),
        })
    }

    /// Train and score the whole zoo in the run directory `dir`: every
    /// trained model is saved as an atomic checkpoint and every completed
    /// stage recorded in an fsync'd run ledger. Re-running after an
    /// interruption (process kill, injected fault) replays completed
    /// stages and resumes with the first missing one; because every stage
    /// draws its randomness from a named substream of the root seed, a
    /// resumed run produces bitwise-identical scores to an uninterrupted
    /// one.
    pub fn run_study(&self, dir: &Path) -> Result<StudyResult, StudyError> {
        let _span = astro_telemetry::span!("study.run_study", seed = self.config.seed);
        let mut run = self.open_run(dir)?;
        let mut scores = Vec::new();
        for id in ModelId::all() {
            // Every checkpoint is replayed (digest-checked) or built even
            // when the model's scores are all ledgered, so the directory
            // always ends up holding the whole zoo.
            run.base(id)?;
            run.instruct(id)?;
            let token_base = run.score(id, Method::TokenBase)?;
            let full = run.score(id, Method::FullInstruct)?;
            let token_instr = run.score(id, Method::TokenInstruct)?;
            scores.push((id, [full, token_instr, token_base]));
        }
        let percents: Vec<_> = scores
            .iter()
            .map(|(id, s)| (*id, s.each_ref().map(|s| s.as_ref().map(Score::percent))))
            .collect();
        let rows = build_rows(&percents);
        let (lo, hi) = score_range(&rows);
        Ok(StudyResult {
            table1: render_table1(&rows),
            figure1: render_figure1(&rows, lo, hi),
            figure1_csv: astro_eval::report::figure1_csv(&rows),
            scores,
        })
    }

    /// The study's identity for ledger compatibility: FNV-1a digests of
    /// the configuration's debug rendering and the trained tokenizer, and
    /// the [`build_id`] of the running executable.
    fn fingerprint(&self) -> [(&'static str, String); 3] {
        let config = fnv64(format!("{:?}", self.config).as_bytes());
        let tokenizer = fnv64(&self.tokenizer.to_bytes());
        [
            ("config", format!("{config:016x}")),
            ("tokenizer", format!("{tokenizer:016x}")),
            ("build", build_id().to_string()),
        ]
    }

    /// Verify an existing ledger belongs to this study and build, or
    /// start a fresh ledger with a fingerprint line. Resuming someone
    /// else's ledger would silently mix artifacts from two different
    /// studies, and one written by another build may hold checkpoints its
    /// training code no longer produces.
    fn check_fingerprint(
        &self,
        journal: &Journal,
        done: &HashMap<String, Json>,
    ) -> Result<(), StudyError> {
        let want = self.fingerprint();
        match done.get("fingerprint") {
            Some(entry) => {
                let differ: Vec<&str> = want
                    .iter()
                    .filter(|(k, v)| entry.get(k).and_then(Json::as_str) != Some(v.as_str()))
                    .map(|(k, _)| *k)
                    .collect();
                if !differ.is_empty() {
                    return Err(StudyError::Ledger(format!(
                        "{} belongs to a different study ({} fingerprint mismatch)",
                        journal.path().display(),
                        differ.join("/")
                    )));
                }
                Ok(())
            }
            None => {
                let fields: String = want
                    .iter()
                    .map(|(k, v)| format!(r#","{k}":"{v}""#))
                    .collect();
                journal
                    .append(&format!(r#"{{"stage":"fingerprint"{fields}}}"#))
                    .map_err(|e| StudyError::Io(format!("append ledger: {e}")))
            }
        }
    }
}

/// The running executable's length and modification time, read once per
/// process: a rebuild changes it. `unknown` when the executable cannot be
/// inspected.
fn build_id() -> &'static str {
    static ID: OnceLock<String> = OnceLock::new();
    ID.get_or_init(|| {
        let Ok(meta) = std::env::current_exe().and_then(std::fs::metadata) else {
            return "unknown".to_string();
        };
        let mtime = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_nanos());
        format!("{}-{mtime}", meta.len())
    })
}

/// A run directory opened by [`Study::open_run`]: its ledger replayed and
/// checked against the study's fingerprint. It hands out every zoo
/// model's weights and scores by [`ModelId`] — replayed from a durable
/// artifact when the ledger holds one, otherwise built, made durable and
/// ledgered. The ledger's stages are `native-<tier>`, `cpt-<model>`,
/// `sft-<model>` and `eval-<model>-<method>`.
pub struct RunDir<'s> {
    study: &'s Study,
    dir: PathBuf,
    journal: Journal,
    done: HashMap<String, Json>,
    /// Weights built or replayed through this handle, by stage: a CPT or
    /// SFT stage starts from here, not from a second read of its input.
    weights: HashMap<String, Params>,
}

impl<'s> RunDir<'s> {
    /// The study this run directory belongs to.
    pub fn study(&self) -> &'s Study {
        self.study
    }

    /// The weights of `id` before SFT: the pretrained native, or the
    /// native continually pretrained on `id`'s recipe.
    pub fn base(&mut self, id: ModelId) -> Result<&Params, StudyError> {
        let study = self.study;
        match id.recipe() {
            None => self.weights(format!("native-{}", slug(id.tier().label())), |_| {
                study.pretrain_native(id.tier()).map(|(p, _)| p)
            }),
            Some(recipe) => self.weights(format!("cpt-{}", slug(id.name())), |run| {
                study.cpt(run.base(id.baseline())?, recipe).map(|(p, _)| p)
            }),
        }
    }

    /// The post-SFT weights of `id`; `None` for the one model with no
    /// instruct release (AstroLLaMA-2-7B-Abstract).
    pub fn instruct(&mut self, id: ModelId) -> Result<Option<&Params>, StudyError> {
        if !id.has_instruct() {
            return Ok(None);
        }
        let study = self.study;
        self.weights(format!("sft-{}", slug(id.name())), |run| {
            study.sft(run.base(id)?, id.name()).map(|(p, _)| p)
        })
        .map(Some)
    }

    /// The score of `id` under `method`; `None` when `method` needs
    /// instruct weights `id` does not have. An evaluation is retried
    /// under [`RetryPolicy::evals`] around transient engine failures and
    /// ledgered as its per-question outcomes, so replay is exact. A ledger
    /// entry that does not decode to one outcome per question of the eval
    /// subset is not trusted — the stage re-runs.
    pub fn score(&mut self, id: ModelId, method: Method) -> Result<Option<Score>, StudyError> {
        let stage = format!("eval-{}-{}", slug(id.name()), method.key());
        if let Some(entry) = self.done.get(&stage) {
            let asked = self.study.eval_questions().len();
            if let Some(score) = Score::from_ledger(entry).filter(|s| s.total() == asked) {
                astro_telemetry::info!("run_study: resume {stage} from ledger");
                astro_telemetry::counter("study.stages_resumed").inc();
                return Ok(Some(score));
            }
            astro_telemetry::info!(
                "run_study: ledger entry for {stage} is not {asked} outcomes; re-evaluating"
            );
        }
        let study = self.study;
        let params = match method {
            Method::TokenBase => self.base(id)?,
            Method::FullInstruct | Method::TokenInstruct => match self.instruct(id)? {
                Some(p) => p,
                None => return Ok(None),
            },
        };
        let policy = RetryPolicy::evals();
        let score = policy
            .run(&stage, |_| study.eval_checked(params, method))
            .map_err(|failure| StudyError::Eval {
                stage: stage.clone(),
                attempts: policy.max_attempts,
                failure,
            })?;
        self.commit(&stage, &score.ledger_line(&stage))?;
        Ok(Some(score))
    }

    /// The weights of `stage`: held by this handle, else replayed from a
    /// ledgered checkpoint, else built, checkpointed atomically and
    /// ledgered. A ledger entry whose checkpoint is missing, corrupt or
    /// altered (digest mismatch) is not trusted — the stage re-runs.
    fn weights(
        &mut self,
        stage: String,
        build: impl FnOnce(&mut Self) -> Result<Params, StudyError>,
    ) -> Result<&Params, StudyError> {
        if !self.weights.contains_key(&stage) {
            let file = format!("{stage}.ckpt");
            let path = self.dir.join(&file);
            let params = match self.done.get(&stage).map(|entry| replay_checkpoint(entry, &path)) {
                Some(Ok(p)) => {
                    astro_telemetry::info!("run_study: resume {stage} from {file}");
                    astro_telemetry::counter("study.stages_resumed").inc();
                    p
                }
                replay => {
                    if let Some(Err(why)) = replay {
                        astro_telemetry::info!("run_study: rebuild {stage}: {why}");
                        astro_telemetry::counter("study.ckpt_replay_failures").inc();
                    }
                    let params = build(self)?;
                    save_checkpoint(&params, &path).map_err(|e| StudyError::Ckpt {
                        path: path.display().to_string(),
                        source: e,
                    })?;
                    let digest = fnv64(&astro_model::serial::params_to_bytes(&params));
                    self.commit(
                        &stage,
                        &format!(
                            r#"{{"stage":"{stage}","kind":"ckpt","file":"{file}","fnv":"{digest:016x}"}}"#
                        ),
                    )?;
                    params
                }
            };
            self.weights.insert(stage.clone(), params);
        }
        Ok(&self.weights[&stage])
    }

    /// Ledger a completed stage, then cross the stage boundary: where the
    /// chaos suite's `study.stage_boundary` fault simulates a crash
    /// immediately after a stage became durable.
    fn commit(&self, stage: &str, line: &str) -> Result<(), StudyError> {
        self.journal
            .append(line)
            .map_err(|e| StudyError::Io(format!("append ledger: {e}")))?;
        astro_telemetry::counter("study.stages_completed").inc();
        if astro_telemetry::fault::should_fault("study.stage_boundary") {
            return Err(StudyError::Interrupted {
                site: "study.stage_boundary",
                stage: stage.to_string(),
            });
        }
        Ok(())
    }
}

/// Parse the ledger into a stage → entry map (later entries win).
fn load_ledger(journal: &Journal) -> Result<HashMap<String, Json>, StudyError> {
    let mut done = HashMap::new();
    for line in journal
        .lines()
        .map_err(|e| StudyError::Io(format!("read {}: {e}", journal.path().display())))?
    {
        let entry = Json::parse(&line)
            .map_err(|e| StudyError::Ledger(format!("unparseable ledger line: {e}")))?;
        let stage = entry
            .get("stage")
            .and_then(Json::as_str)
            .ok_or_else(|| StudyError::Ledger("ledger line missing \"stage\"".to_string()))?
            .to_string();
        done.insert(stage, entry);
    }
    Ok(done)
}

/// Load a ledgered checkpoint, verifying the file digest recorded at
/// write time; any mismatch means the stage must re-run.
fn replay_checkpoint(entry: &Json, path: &Path) -> Result<Params, String> {
    let want = entry
        .get("fnv")
        .and_then(Json::as_str)
        .ok_or_else(|| "ledger entry has no checkpoint digest".to_string())?;
    let bytes = astro_resilience::durable::read_all(path).map_err(|e| e.to_string())?;
    let got = format!("{:016x}", fnv64(&bytes));
    if got != want {
        return Err(format!("checkpoint digest {got} != ledgered {want}"));
    }
    astro_model::serial::params_from_bytes(&bytes).map_err(|e| e.to_string())
}

/// A filesystem- and JSON-safe stage name: alphanumerics and dashes only
/// (model names contain spaces and parentheses, e.g. `" (sim)"`).
fn slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Convert raw scores into Table-I rows with baseline indices.
pub fn build_rows(scores: &[(ModelId, [Option<f64>; 3])]) -> Vec<ModelRow> {
    // `ModelId::all()` lists every variant, so the position lookup is
    // total; `flatten` keeps this panic-free regardless.
    let index_of = |id: ModelId| ModelId::all().iter().position(|&m| m == id);
    scores
        .iter()
        .map(|(id, s)| ModelRow {
            name: id.name().to_string(),
            series: id.series().to_string(),
            scores: *s,
            baseline: (id.baseline() != *id)
                .then(|| index_of(id.baseline()))
                .flatten(),
            source: id.source().to_string(),
        })
        .collect()
}

/// A padded (lo, hi) range covering every present score.
fn score_range(rows: &[ModelRow]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for r in rows {
        for s in r.scores.iter().flatten() {
            lo = lo.min(*s);
            hi = hi.max(*s);
        }
    }
    if !lo.is_finite() || !hi.is_finite() {
        return (0.0, 100.0);
    }
    let pad = ((hi - lo) * 0.1).max(2.0);
    ((lo - pad).max(0.0), (hi + pad).min(100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_study() -> Study {
        Study::prepare(StudyConfig::smoke(11)).expect("smoke prepare")
    }

    fn stream(s: &Study, recipe: CorpusRecipe) -> &TokenStream {
        s.cpt_stream(recipe).expect("all recipes prepared")
    }

    #[test]
    fn prepare_builds_all_streams() {
        let s = smoke_study();
        assert!(!s.general_stream.is_empty());
        for recipe in [CorpusRecipe::Abstract, CorpusRecipe::Aic, CorpusRecipe::Summary] {
            assert!(stream(&s, recipe).len() > s.config.seq, "{recipe:?} stream too small");
        }
        assert!(!s.sft_examples.is_empty());
        assert_eq!(s.mcq.questions.len() + s.mcq.exemplars.len(), 40 * 5);
    }

    #[test]
    fn prepare_rejects_invalid_config() {
        let mut cfg = StudyConfig::smoke(11);
        cfg.batch = 0;
        match Study::prepare(cfg) {
            Err(StudyError::InvalidConfig(msg)) => assert!(msg.contains("batch"), "{msg}"),
            other => panic!("expected InvalidConfig, got {:?}", other.err()),
        }
    }

    #[test]
    fn aic_stream_larger_than_abstract() {
        let s = smoke_study();
        assert!(stream(&s, CorpusRecipe::Aic).len() > stream(&s, CorpusRecipe::Abstract).len());
    }

    #[test]
    fn eval_questions_deterministic_and_sized() {
        let s = smoke_study();
        let a = s.eval_questions();
        let b = s.eval_questions();
        assert_eq!(a.len(), s.config.n_eval_questions.min(s.mcq.len()));
        assert_eq!(
            a.iter().map(|q| q.id).collect::<Vec<_>>(),
            b.iter().map(|q| q.id).collect::<Vec<_>>()
        );
    }

    /// A ledgered score line one outcome short of the eval subset is not
    /// resumed: that stage is evaluated again, bit for bit, and every other
    /// stage resumes — the re-run appends exactly one ledger line.
    #[test]
    fn a_score_line_short_of_the_subset_is_re_evaluated_and_nothing_else_is() {
        let study = Study::prepare(StudyConfig::micro(11)).expect("micro prepare");
        let dir = std::env::temp_dir().join(format!("astro-short-score-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cells = [ModelId::Llama2_7b, ModelId::Llama3_8b];
        let score_all = |run: &mut RunDir<'_>| -> Vec<Score> {
            let mut score = |id| run.score(id, Method::TokenBase).expect("score").expect("base");
            cells.map(&mut score).to_vec()
        };
        let first = score_all(&mut study.open_run(&dir).expect("open"));
        let stage = format!("eval-{}-{}", slug(cells[0].name()), Method::TokenBase.key());
        let ledger = dir.join("ledger.jsonl");
        let lines = Journal::at(&ledger).lines().expect("ledger");
        let short = Score { outcomes: first[0].outcomes[1..].to_vec() };
        let at_stage = format!(r#""stage":"{stage}""#);
        let edited: String = lines
            .iter()
            .map(|l| if l.contains(&at_stage) { short.ledger_line(&stage) } else { l.clone() })
            .map(|l| l + "\n")
            .collect();
        std::fs::write(&ledger, edited).expect("edit ledger");

        let again = score_all(&mut study.open_run(&dir).expect("reopen"));
        assert_eq!(again, first, "re-evaluation changed a score");
        let after = Journal::at(&ledger).lines().expect("ledger");
        assert_eq!(after.len(), lines.len() + 1, "only the edited stage re-runs: {after:#?}");
        assert_eq!(after.last(), Some(&first[0].ledger_line(&stage)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pretrain_reduces_loss() {
        let s = smoke_study();
        let (_, report) = s.pretrain_native(Tier::S7b).expect("pretrain");
        assert!(report.tail_loss(2) < report.losses[0].1, "{:?}", report.losses);
    }

    #[test]
    fn cpt_starts_from_base_and_changes_weights() {
        let s = smoke_study();
        let (native, _) = s.pretrain_native(Tier::S7b).expect("pretrain");
        let (cpt, report) = s.cpt(&native, CorpusRecipe::Aic).expect("cpt");
        assert_eq!(cpt.data.len(), native.data.len());
        assert_ne!(cpt.data, native.data);
        assert!(report.steps == s.config.cpt_steps);
    }

    #[test]
    fn sft_changes_weights_less_than_cpt() {
        // SFT's tiny LR must move weights much less than CPT does.
        let s = smoke_study();
        let (native, _) = s.pretrain_native(Tier::S7b).expect("pretrain");
        let (cpt, _) = s.cpt(&native, CorpusRecipe::Aic).expect("cpt");
        let (instr, _) = s.sft(&native, "t").expect("sft");
        let dist = |a: &Params, b: &Params| -> f64 {
            a.data
                .iter()
                .zip(b.data.iter())
                .map(|(x, y)| ((x - y) as f64).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        assert!(dist(&instr, &native) < dist(&cpt, &native));
    }

    #[test]
    fn build_rows_assigns_baselines() {
        let scores: Vec<(ModelId, [Option<f64>; 3])> = ModelId::all()
            .iter()
            .map(|&id| (id, id.paper_scores()))
            .collect();
        let rows = build_rows(&scores);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].baseline, None);
        assert_eq!(rows[1].baseline, Some(0)); // 7B-AIC → LLaMA-2-7B
        assert_eq!(rows[7].baseline, Some(6)); // 70B-AIC → LLaMA-2-70B
    }

    #[test]
    fn table_and_figure_render_from_paper_scores() {
        let scores: Vec<(ModelId, [Option<f64>; 3])> = ModelId::all()
            .iter()
            .map(|&id| (id, id.paper_scores()))
            .collect();
        let rows = build_rows(&scores);
        let t = render_table1(&rows);
        assert!(t.contains("76.0 ↑"), "{t}");
        assert!(t.contains("41.4 ↓"), "{t}");
        let (lo, hi) = score_range(&rows);
        assert!(lo < 41.4 && hi > 76.0);
        let f = render_figure1(&rows, lo, hi);
        assert!(f.contains('*'));
    }

    #[test]
    fn score_range_handles_empty() {
        assert_eq!(score_range(&[]), (0.0, 100.0));
    }

    #[test]
    fn slug_is_filesystem_safe() {
        assert_eq!(slug("AstroLLaMA-2-7B-AIC (sim)"), "AstroLLaMA-2-7B-AIC--sim-");
        assert_eq!(slug("7B-class"), "7B-class");
    }
}
