//! # bhive-eval
//!
//! Evaluation pipelines and experiment drivers: one driver per table and
//! figure of the paper, each returning a printable/serializable
//! [`Report`] whose rows mirror the paper's artifact (with the paper's
//! own numbers alongside for comparison — see EXPERIMENTS.md at the
//! repository root).
//!
//! The [`Pipeline`] caches the expensive shared artifacts — generated
//! corpora, measured ground truth per microarchitecture, the LDA
//! classifier, trained Ithemal models — so running every experiment in
//! one process (as the `bhive all` CLI command does) measures each corpus
//! once.
//!
//! # Example
//!
//! ```no_run
//! use bhive_eval::{experiments, Pipeline};
//! use bhive_corpus::Scale;
//!
//! let pipeline = Pipeline::new(Scale::PerApp(200), 42, 0);
//! let report = experiments::table1(&pipeline);
//! println!("{report}");
//! ```

mod classify;
mod dataset;
mod evalrun;
pub mod experiments;
mod report;

pub use classify::{block_document, Category, Classifier};
pub use dataset::{MeasuredBlock, MeasuredCorpus};
pub use evalrun::{EvalRun, Prediction};
pub use report::{fmt_f, fmt_pct, Report};

use bhive_corpus::{Corpus, Scale};
use bhive_harness::{ObsConfig, ProfileConfig, ProfileStats, Profiler, Supervision};
use bhive_models::{IacaModel, IthemalConfig, IthemalModel, McaModel, OsacaModel, ThroughputModel};
use bhive_uarch::{Uarch, UarchKind};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::sync::Mutex;

/// Which corpus an experiment wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorpusKind {
    /// The open-source benchmark suite (Table 3 applications + OpenSSL).
    Main,
    /// The Spanner/Dremel production corpora.
    Google,
    /// A disjoint corpus (different seed) used to train the learned model.
    Training,
}

impl CorpusKind {
    /// Stable lower-case name (the CLI's `--corpus` values, and the
    /// label baked into shard-report filenames).
    pub fn name(self) -> &'static str {
        match self {
            CorpusKind::Main => "main",
            CorpusKind::Google => "google",
            CorpusKind::Training => "training",
        }
    }

    /// Parses a [`CorpusKind::name`] (case-insensitive).
    pub fn parse(text: &str) -> Option<CorpusKind> {
        match text.to_ascii_lowercase().as_str() {
            "main" => Some(CorpusKind::Main),
            "google" => Some(CorpusKind::Google),
            "training" => Some(CorpusKind::Training),
            _ => None,
        }
    }
}

impl std::fmt::Display for CorpusKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared context for the experiment drivers.
pub struct Pipeline {
    scale: Scale,
    seed: u64,
    threads: usize,
    retries: u32,
    tables: Option<&'static Uarch>,
    cache_dir: Option<PathBuf>,
    obs: ObsConfig,
    corpora: Mutex<HashMap<CorpusKind, Arc<Corpus>>>,
    measured: Mutex<HashMap<(CorpusKind, UarchKind), Arc<MeasuredCorpus>>>,
    profile_stats: Mutex<Vec<(String, ProfileStats)>>,
    classifier: Mutex<Option<Arc<Classifier>>>,
    ithemal: Mutex<HashMap<UarchKind, Arc<IthemalModel>>>,
}

impl Pipeline {
    /// Creates a pipeline at a given corpus scale and seed;
    /// `threads = 0` means one worker per CPU.
    pub fn new(scale: Scale, seed: u64, threads: usize) -> Pipeline {
        Pipeline {
            scale,
            seed,
            threads,
            retries: 0,
            tables: None,
            cache_dir: None,
            obs: ObsConfig::default(),
            corpora: Mutex::new(HashMap::new()),
            measured: Mutex::new(HashMap::new()),
            profile_stats: Mutex::new(Vec::new()),
            classifier: Mutex::new(None),
            ithemal: Mutex::new(HashMap::new()),
        }
    }

    /// Enables the on-disk measurement cache rooted at `dir`: every
    /// corpus measurement this pipeline performs first consults the
    /// cache and persists what it had to measure, so repeated experiment
    /// runs (and reruns after an interruption) are warm. Results are
    /// bit-identical with or without the cache.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Pipeline {
        self.cache_dir = Some(dir.into());
        self
    }

    /// The measurement-cache directory, when caching is enabled.
    pub fn cache_dir(&self) -> Option<&std::path::Path> {
        self.cache_dir.as_deref()
    }

    /// Allows up to `retries` escalating re-attempts per transiently
    /// failed block (see [`bhive_harness::RetryPolicy`]). The budget is
    /// part of the profiling config — and therefore of its fingerprint —
    /// so cached measurements never cross retry budgets. Recovered and
    /// retried counts surface in [`Pipeline::profile_stats`].
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Pipeline {
        self.retries = retries;
        self
    }

    /// Runs every measurement and model for `uarch.kind` on `uarch`'s
    /// tables (fitted ones, from [`bhive_uarch::fitted_uarch`]) instead
    /// of the shipped ones. The tables fold into the cache binding, so
    /// their measurements never mix with shipped-table records.
    #[must_use]
    pub fn with_tables(mut self, uarch: &'static Uarch) -> Pipeline {
        self.tables = Some(uarch);
        self
    }

    /// The description this pipeline runs `kind` on: the tables given
    /// to [`Pipeline::with_tables`] for their kind, the shipped ones
    /// otherwise.
    pub fn uarch(&self, kind: UarchKind) -> &'static Uarch {
        self.tables
            .filter(|tables| tables.kind == kind)
            .unwrap_or_else(|| kind.desc())
    }

    /// The retry budget per transiently failed block.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Enables observability on every corpus measurement: structured
    /// trace events and a metrics registry accumulate per worker and
    /// merge into each measurement's [`ProfileStats::obs`] record (read
    /// them back via [`Pipeline::profile_stats`]). Observation never
    /// perturbs results — measurements are bit-identical either way —
    /// and stays out of the cache fingerprint.
    #[must_use]
    pub fn with_observability(mut self, obs: ObsConfig) -> Pipeline {
        self.obs = obs;
        self
    }

    /// The observability configuration for corpus measurements.
    pub fn observability(&self) -> &ObsConfig {
        &self.obs
    }

    /// The corpus scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Worker thread count (0 = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The paper's full profiling configuration (with realistic OS noise;
    /// noise is deterministic per block and attempt, so every run
    /// reproduces), plus this pipeline's retry budget.
    pub fn profile_config(&self) -> ProfileConfig {
        ProfileConfig::bhive().with_retries(self.retries)
    }

    /// Returns (and caches) a corpus.
    pub fn corpus(&self, kind: CorpusKind) -> Arc<Corpus> {
        let mut corpora = self.corpora.lock().unwrap();
        corpora
            .entry(kind)
            .or_insert_with(|| {
                Arc::new(match kind {
                    CorpusKind::Main => Corpus::generate(self.scale, self.seed),
                    CorpusKind::Google => Corpus::google(self.scale, self.seed ^ 0x600_61E),
                    CorpusKind::Training => {
                        // The learned model gets a larger (disjoint)
                        // training corpus, as Ithemal trains on millions
                        // of blocks while evaluation uses a sample.
                        Corpus::generate(self.scale.times(3.0), self.seed.wrapping_add(0x7EA1))
                    }
                })
            })
            .clone()
    }

    /// Returns (and caches) the measured ground truth for a corpus on a
    /// microarchitecture.
    pub fn measured(&self, kind: CorpusKind, uarch: UarchKind) -> Arc<MeasuredCorpus> {
        if let Some(hit) = self.measured.lock().unwrap().get(&(kind, uarch)) {
            return hit.clone();
        }
        let corpus = self.corpus(kind);
        let profiler = Profiler::new(self.uarch(uarch), self.profile_config());
        let (measured, stats) = MeasuredCorpus::measure(
            &corpus,
            &profiler,
            self.threads,
            self.cache_dir.as_deref(),
            &Supervision::with_obs(self.obs.clone()),
        );
        let measured = Arc::new(measured);
        self.profile_stats
            .lock()
            .unwrap()
            .push((format!("{kind:?}/{}", uarch.short_name()), stats));
        self.measured
            .lock()
            .unwrap()
            .insert((kind, uarch), measured.clone());
        measured
    }

    /// Observability: one [`ProfileStats`] per corpus measured so far, in
    /// measurement order, labelled `"<corpus>/<uarch>"`. Cached hits do
    /// not add entries — each corpus/uarch pair is profiled once.
    pub fn profile_stats(&self) -> Vec<(String, ProfileStats)> {
        self.profile_stats.lock().unwrap().clone()
    }

    /// Returns (and caches) the LDA classifier, fitted on the main corpus
    /// with the paper's Haswell port vocabulary.
    pub fn classifier(&self) -> Arc<Classifier> {
        if let Some(hit) = self.classifier.lock().unwrap().as_ref() {
            return hit.clone();
        }
        // The classification is a property of the *full* suite: fit the
        // topics on a corpus with the paper's application proportions
        // (LLVM dominates at 59%), independent of the evaluation sample
        // size. ~11k blocks converge the Gibbs sampler comfortably.
        let train = Corpus::generate(Scale::Fraction(0.03), self.seed);
        let blocks: Vec<_> = train.blocks().iter().map(|b| b.block.clone()).collect();
        let classifier = Arc::new(Classifier::fit(&blocks, UarchKind::Haswell));
        *self.classifier.lock().unwrap() = Some(classifier.clone());
        classifier
    }

    /// Returns (and caches) the Ithemal model trained on the *training*
    /// corpus measured on `uarch` — a disjoint corpus, so evaluation is
    /// honest out-of-sample prediction.
    pub fn ithemal(&self, uarch: UarchKind) -> Arc<IthemalModel> {
        if let Some(hit) = self.ithemal.lock().unwrap().get(&uarch) {
            return hit.clone();
        }
        let data = self.measured(CorpusKind::Training, uarch);
        let model = Arc::new(IthemalModel::train(
            &data.training_pairs(),
            self.uarch(uarch),
            IthemalConfig::default(),
        ));
        self.ithemal.lock().unwrap().insert(uarch, model.clone());
        model
    }

    /// The paper's four models for one microarchitecture, in the paper's
    /// reporting order (IACA, llvm-mca, Ithemal, OSACA).
    pub fn models(&self, uarch: UarchKind) -> Vec<Box<dyn ThroughputModel>> {
        let desc = self.uarch(uarch);
        vec![
            Box::new(IacaModel::new(desc)),
            Box::new(McaModel::new(desc)),
            Box::new(IthemalArc(self.ithemal(uarch))),
            Box::new(OsacaModel::new(desc)),
        ]
    }
}

/// Adapter so the cached Ithemal model can be boxed alongside the others.
struct IthemalArc(Arc<IthemalModel>);

impl ThroughputModel for IthemalArc {
    fn name(&self) -> &'static str {
        "ithemal"
    }

    fn uarch(&self) -> UarchKind {
        self.0.uarch()
    }

    fn predict(&self, block: &bhive_asm::BasicBlock) -> Option<f64> {
        self.0.predict(block)
    }
}
