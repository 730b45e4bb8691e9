//! The batch-pipeline workloads: `run-small` and `resume-small`.

use crate::report::Report;
use crate::stats::{cpu_seconds, fnv1a, median, now, peak_rss_mb, reset_peak_rss, FNV_OFFSET};
use crate::trace::Tracer;
use crate::{layers, BenchError, Config, GEN_REPS};
use meme_core::pipeline::{Pipeline, PipelineConfig, PipelineOutput, ScreenshotFilterMode};
use meme_core::runner::{
    dataset_fingerprint, decode_checkpoint, encode_checkpoint, CheckpointMedium, MediumError,
    RunnerOutcome, StageId,
};
use meme_core::supervise::{StagePolicy, SupervisedRunner};
use meme_hawkes::{ClusterInfluence, InfluenceEstimator};
use meme_metrics::{Metrics, Registry};
use meme_simweb::{Community, Dataset, SimConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Where the resume workload keeps its checkpoint inside [`MemMedium`].
const CKPT_PATH: &str = "post-hash.ckpt";

/// Hawkes decay rate used by `memes influence` and `memes serve`.
const HAWKES_BETA: f64 = 3.0;

/// An in-memory [`CheckpointMedium`], so resume timings contain no disk.
/// It keeps every checkpoint written to it, so the traced pass can
/// replay the encoding work the runner did.
#[derive(Debug, Default)]
pub struct MemMedium {
    files: Mutex<HashMap<PathBuf, Vec<u8>>>,
    /// `Some` when writes are logged (traced pass only, so untimed
    /// copies never land inside a timed op).
    writes: Option<Mutex<Vec<Vec<u8>>>>,
}

impl MemMedium {
    /// A medium holding one file; `log_writes` keeps a copy of every
    /// later write.
    pub fn with_file(path: &Path, bytes: Vec<u8>, log_writes: bool) -> Self {
        let medium = Self {
            writes: log_writes.then(Mutex::default),
            ..Self::default()
        };
        medium.lock().insert(path.to_path_buf(), bytes);
        medium
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<PathBuf, Vec<u8>>> {
        self.files.lock().expect("medium lock poisoned")
    }

    /// Every checkpoint written so far, in write order (empty unless
    /// writes are logged).
    pub fn writes(&self) -> Vec<Vec<u8>> {
        self.writes.as_ref().map_or_else(Vec::new, |w| {
            w.lock().expect("medium lock poisoned").clone()
        })
    }

    fn missing(op: &'static str, path: &Path) -> MediumError {
        MediumError {
            op,
            path: path.display().to_string(),
            detail: "no such file".to_string(),
        }
    }
}

impl CheckpointMedium for MemMedium {
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), MediumError> {
        self.lock().insert(path.to_path_buf(), bytes.to_vec());
        if let Some(log) = &self.writes {
            log.lock()
                .expect("medium lock poisoned")
                .push(bytes.to_vec());
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), MediumError> {
        let mut files = self.lock();
        let bytes = files
            .remove(from)
            .ok_or_else(|| Self::missing("rename", from))?;
        files.insert(to.to_path_buf(), bytes);
        Ok(())
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, MediumError> {
        self.lock()
            .get(path)
            .cloned()
            .ok_or_else(|| Self::missing("read", path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.lock().contains_key(path)
    }
}

/// Steps 1–7 finished: the output, the influence, and the number of
/// clusters whose Hawkes fit was skipped.
pub type Finished = (PipelineOutput, ClusterInfluence, usize);

/// A completed Steps 1–7 result and its digest.
#[derive(Debug)]
pub struct OpResult {
    /// Steps 1–6.
    pub output: PipelineOutput,
    /// Step 7.
    pub influence: ClusterInfluence,
    /// Clusters whose Hawkes fit was skipped.
    pub skipped: usize,
    /// FNV-1a over `PipelineOutput::to_json` and the influence matrices.
    pub digest: u64,
}

impl OpResult {
    /// Bundle a completed result with its digest.
    pub fn new(output: PipelineOutput, influence: ClusterInfluence, skipped: usize) -> Self {
        let digest = digest(&output, &influence, skipped);
        OpResult {
            output,
            influence,
            skipped,
            digest,
        }
    }
}

/// One seeded dataset plus the fixed pipeline configuration.
#[derive(Debug)]
pub struct Pipe {
    /// The generated corpus.
    pub dataset: Dataset,
    /// Pipeline configuration (`memes` defaults, fixed thread count).
    pub config: PipelineConfig,
    /// Worker threads for the pipeline and Step 7.
    pub threads: usize,
    seed: u64,
}

impl Pipe {
    /// Generate the dataset [`GEN_REPS`] times and keep the last;
    /// returns the pipe and the median generation time.
    pub fn generate(cfg: &Config) -> Result<(Pipe, f64), BenchError> {
        let sim = SimConfig::new(cfg.scale(), cfg.seed);
        let mut times = Vec::new();
        let mut dataset = None;
        for _ in 0..GEN_REPS {
            let t = now();
            let d = sim.try_generate().map_err(BenchError::Dataset)?;
            times.push(t.elapsed().as_secs_f64());
            dataset = Some(d);
        }
        let dataset = dataset.expect("at least one generation ran");
        let config = PipelineConfig {
            screenshot_filter: ScreenshotFilterMode::Oracle,
            threads: cfg.threads,
            ..PipelineConfig::default()
        };
        let pipe = Pipe {
            dataset,
            config,
            threads: cfg.threads,
            seed: cfg.seed,
        };
        Ok((pipe, median(&times)))
    }

    /// The supervised runner `memes run`/`memes influence` builds.
    pub fn runner(&self, metrics: &Metrics) -> SupervisedRunner {
        SupervisedRunner::new(Pipeline::new(self.config.clone()))
            .with_metrics(metrics.clone())
            .with_policy(StagePolicy {
                seed: self.seed,
                ..StagePolicy::default()
            })
    }

    /// Step 7 on a completed output, recording into `metrics`; returns
    /// the influence and the number of skipped clusters.
    pub fn step7(&self, output: &PipelineOutput, metrics: &Metrics) -> (ClusterInfluence, usize) {
        let estimator = InfluenceEstimator::new(Community::COUNT, HAWKES_BETA);
        let (influence, skipped) = output.estimate_influence_instrumented(
            &self.dataset,
            &estimator,
            self.threads,
            metrics,
        );
        (influence, skipped.len())
    }

    /// The `memes influence` path: `SupervisedRunner::run`, then Step 7.
    pub fn full_run(&self, metrics: &Metrics) -> Result<Finished, BenchError> {
        let run =
            self.runner(metrics)
                .run(&self.dataset)
                .map_err(|source| BenchError::Pipeline {
                    during: "run",
                    source,
                })?;
        self.finish(run.outcome, metrics)
    }

    /// Run Step 1 only and return the encoded post-hash checkpoint.
    pub fn post_hash_checkpoint(&self, metrics: &Metrics) -> Result<Vec<u8>, BenchError> {
        let medium = Arc::new(MemMedium::default());
        let run = self
            .runner(metrics)
            .with_medium(medium.clone())
            .with_checkpoint(CKPT_PATH)
            .halt_after(StageId::Hash)
            .run(&self.dataset)
            .map_err(|source| BenchError::Pipeline {
                during: "post-hash checkpoint run",
                source,
            })?;
        match run.outcome {
            RunnerOutcome::Halted {
                after: StageId::Hash,
            } => {}
            other => {
                return Err(BenchError::Unexpected(format!(
                    "checkpoint run did not halt after hash: {other:?}"
                )))
            }
        }
        medium
            .read(Path::new(CKPT_PATH))
            .map_err(|e| BenchError::Unexpected(format!("post-hash checkpoint was not saved: {e}")))
    }

    /// `SupervisedRunner::resume` from the post-hash checkpoint held in
    /// `medium` (prepared outside the timed section), then Step 7.
    pub fn resume_on(
        &self,
        medium: Arc<MemMedium>,
        metrics: &Metrics,
    ) -> Result<Finished, BenchError> {
        let run = self
            .runner(metrics)
            .with_medium(medium)
            .with_checkpoint(CKPT_PATH)
            .resume(&self.dataset)
            .map_err(|source| BenchError::Pipeline {
                during: "resume",
                source,
            })?;
        self.finish(run.outcome, metrics)
    }

    /// Step 7 on a run that completed.
    fn finish(&self, outcome: RunnerOutcome, metrics: &Metrics) -> Result<Finished, BenchError> {
        let output = complete(outcome)?;
        let (influence, skipped) = self.step7(&output, metrics);
        Ok((output, influence, skipped))
    }
}

pub(crate) fn complete(outcome: RunnerOutcome) -> Result<PipelineOutput, BenchError> {
    match outcome {
        RunnerOutcome::Complete(out) => Ok(*out),
        RunnerOutcome::Halted { after } => Err(BenchError::Unexpected(format!(
            "pipeline halted after {after}"
        ))),
    }
}

/// The digest every repetition of a pipeline op must reproduce.
pub fn digest(output: &PipelineOutput, influence: &ClusterInfluence, skipped: usize) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, output.to_json().as_bytes());
    for m in influence
        .per_cluster
        .iter()
        .chain(std::iter::once(&influence.total))
    {
        for src in 0..m.k() {
            for dst in 0..m.k() {
                h = fnv1a(h, &m.count(src, dst).to_bits().to_le_bytes());
            }
        }
    }
    fnv1a(h, &(skipped as u64).to_le_bytes())
}

/// Checks one op's output against the reference digest and the shape
/// any completed run has; returns a description of the first defect.
fn check_op(op: &OpResult, reference: u64) -> Option<String> {
    let annotated = op.output.annotated_clusters().len();
    if op.digest != reference {
        return Some(format!(
            "digest {:016x} != reference {reference:016x}",
            op.digest
        ));
    }
    if op.output.clustering.n_clusters() == 0 || annotated == 0 {
        return Some("run produced no (annotated) clusters".to_string());
    }
    if op.influence.per_cluster.len() != annotated {
        return Some("influence rows do not match annotated clusters".to_string());
    }
    let total = &op.influence.total;
    let sum: f64 = (0..total.k())
        .flat_map(|s| (0..total.k()).map(move |d| (s, d)))
        .map(|(s, d)| total.count(s, d))
        .sum();
    if !sum.is_finite() || sum <= 0.0 {
        return Some(format!("influence total {sum} is not a positive number"));
    }
    None
}

/// Which pipeline workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Resume,
}

/// `run-small`: the `memes influence` path over a fresh dataset.
pub fn run_small(cfg: &Config) -> Report {
    pipeline_workload(cfg, Mode::Run)
}

/// `resume-small`: resume from a post-hash checkpoint held in memory.
pub fn resume_small(cfg: &Config) -> Report {
    pipeline_workload(cfg, Mode::Resume)
}

fn pipeline_workload(cfg: &Config, mode: Mode) -> Report {
    let mut report = Report::default();
    if let Err(e) = pipeline_inner(cfg, mode, &mut report) {
        report.count(1, 1);
        report.problems.push(e.to_string());
    }
    report
}

/// Runs set-up, the timed ops, and (traced) the per-layer pass.
fn pipeline_inner(cfg: &Config, mode: Mode, report: &mut Report) -> Result<(), BenchError> {
    let (pipe, gen_s) = Pipe::generate(cfg)?;
    let mut setup_s = gen_s;
    let checkpoint = match mode {
        Mode::Run => None,
        Mode::Resume => {
            let t = now();
            let bytes = pipe.post_hash_checkpoint(&Metrics::disabled())?;
            setup_s += t.elapsed().as_secs_f64();
            Some(bytes)
        }
    };
    let posts = pipe.dataset.posts.len() as f64;
    report.notes.push(format!(
        "{} posts, {} memes, seed {}, threads {}",
        pipe.dataset.posts.len(),
        pipe.dataset.universe.len(),
        cfg.seed,
        cfg.threads
    ));

    // Untraced pass: repeat the op until `seconds` of op time (at least
    // two ops, so the digest is checked against a repetition; exactly
    // two before a traced pass).
    let min_ops = 2;
    let mut times = Vec::new();
    let mut cpus = Vec::new();
    let mut rss = Vec::new();
    let mut reference: Option<u64> = None;
    while times.len() < min_ops || times.iter().sum::<f64>() < cfg.seconds && !cfg.trace {
        let medium = checkpoint
            .as_ref()
            .map(|c| Arc::new(MemMedium::with_file(Path::new(CKPT_PATH), c.clone(), false)));
        reset_peak_rss();
        let cpu0 = cpu_seconds(None).unwrap_or(0.0);
        let t = now();
        let result = match &medium {
            None => pipe.full_run(&Metrics::disabled()),
            Some(m) => pipe.resume_on(Arc::clone(m), &Metrics::disabled()),
        };
        let dt = t.elapsed().as_secs_f64();
        let cpu = cpu_seconds(None).unwrap_or(0.0) - cpu0;
        rss.push(peak_rss_mb(None).unwrap_or(0.0));
        match result {
            Ok((output, influence, skipped)) => {
                let op = OpResult::new(output, influence, skipped);
                let expect = *reference.get_or_insert(op.digest ^ u64::from(cfg.corrupt));
                match check_op(&op, expect) {
                    None => report.count(1, 0),
                    Some(defect) => {
                        report.count(1, 1);
                        report.notes.push(format!("op {}: {defect}", times.len()));
                    }
                }
            }
            Err(e) => {
                report.count(1, 1);
                report.notes.push(format!("op {}: {e}", times.len()));
            }
        }
        times.push(dt);
        cpus.push(cpu);
    }
    let op_s = median(&times);
    let slowest = times.iter().copied().fold(0.0, f64::max);
    report.named("posts_per_s", posts / op_s, "posts/s");
    report.named("p50_us", op_s * 1e6, "us");
    report.named("p99_us", slowest * 1e6, "us");
    report.e2e("setup_s", setup_s, "s");
    report.e2e("throughput_per_s", posts / op_s, "1/s");
    report.e2e("cpu_s", median(&cpus), "s");
    report.e2e("peak_rss_mb", median(&rss), "MB");
    report.notes.push(format!(
        "{} timed op(s), op wall times {:?} s",
        times.len(),
        times
            .iter()
            .map(|t| (t * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    ));

    if !cfg.trace {
        return Ok(());
    }
    let Some(reference) = reference else {
        return Err(BenchError::Unexpected(
            "no untraced op completed".to_string(),
        ));
    };
    let mut tracer = Tracer::new();

    // Traced set-up (resume: the hash stage runs here, not in the op).
    let setup_registry = Arc::new(Registry::new());
    let checkpoint = match mode {
        Mode::Run => None,
        Mode::Resume => {
            let metrics = Metrics::from_registry(Arc::clone(&setup_registry));
            let (bytes, _) = tracer.span("core.setup_checkpoint", |_| {
                pipe.post_hash_checkpoint(&metrics)
            });
            Some(bytes?)
        }
    };

    // Traced op: the same op under a registry, stage spans imported.
    let registry = Arc::new(Registry::new());
    let metrics = Metrics::from_registry(Arc::clone(&registry));
    let medium = checkpoint
        .as_ref()
        .map(|c| Arc::new(MemMedium::with_file(Path::new(CKPT_PATH), c.clone(), true)));
    let ((run, influence), op_span) = tracer.span("core.op", |t| {
        let (run, _) = t.span("core.runner", |_| match &medium {
            None => pipe.runner(&metrics).run(&pipe.dataset),
            Some(m) => pipe
                .runner(&metrics)
                .with_medium(Arc::clone(m) as Arc<dyn CheckpointMedium>)
                .with_checkpoint(CKPT_PATH)
                .resume(&pipe.dataset),
        });
        let output = run
            .map_err(|source| BenchError::Pipeline {
                during: "traced op",
                source,
            })
            .and_then(|r| complete(r.outcome));
        let (influence, _) = t.span("hawkes.fit", |_| {
            output.as_ref().ok().map(|o| pipe.step7(o, &metrics))
        });
        (output, influence)
    });
    let runner_span = op_span + 1;
    let spans = registry.snapshot().spans;
    for stage in StageId::ALL {
        if let Some(s) = spans.get(&format!("pipeline/{}", stage.name())) {
            tracer.import(
                runner_span,
                &format!("core.stage.{}", stage.name()),
                s.total_secs,
            );
        }
    }
    // The runner's own work between stages, replayed after the op on the
    // same inputs: fingerprinting the dataset, decoding the checkpoint
    // it resumed from, and encoding every checkpoint it saved.
    let replay = |f: &mut dyn FnMut()| {
        let t = now();
        f();
        t.elapsed().as_secs_f64()
    };
    let fp = replay(&mut || {
        std::hint::black_box(dataset_fingerprint(&pipe.dataset));
    });
    tracer.import(runner_span, "core.dataset_fingerprint", fp);
    if let (Some(bytes), Some(m)) = (&checkpoint, &medium) {
        let decode = replay(&mut || {
            std::hint::black_box(decode_checkpoint(bytes).is_ok());
        });
        tracer.import(runner_span, "core.checkpoint_decode", decode);
        let saved: Vec<_> = m
            .writes()
            .iter()
            .filter_map(|b| decode_checkpoint(b).ok())
            .collect();
        let encode = replay(&mut || {
            for c in &saved {
                std::hint::black_box(encode_checkpoint(c).len());
            }
        });
        tracer.import(runner_span, "core.checkpoint_encode", encode);
    }
    let (influence, skipped) = influence
        .ok_or_else(|| BenchError::Unexpected("traced op produced no output".to_string()))?;
    let traced = OpResult::new(run?, influence, skipped);

    if let Some(defect) = check_op(&traced, reference) {
        report.count(1, 1);
        report.notes.push(format!("traced op: {defect}"));
    } else {
        report.count(1, 0);
    }

    // Accounting: stage and Step-7 spans must cover the op's wall time.
    let op_secs = tracer.secs(op_span);
    let covered: f64 = tracer
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent == Some(runner_span) || s.name == "hawkes.fit")
        .map(|(i, _)| tracer.self_secs(i))
        .sum();
    report.notes.push(format!(
        "traced op {op_secs:.3} s; stages, checkpoint work and Step 7 cover {covered:.3} s ({:.1}%)",
        100.0 * covered / op_secs
    ));
    if covered < 0.9 * op_secs {
        report.problems.push(format!(
            "stage, checkpoint and Step-7 self times cover {:.1}% of the op's wall time (need >= 90%)",
            100.0 * covered / op_secs
        ));
    }
    // Against the fastest untraced op: the first op of a process also
    // pays for first-touch page faults, which the traced op does not.
    let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
    report.layer("trace.overhead_ratio", op_secs / fastest, "ratio");
    report.layer("loadgen.late_p99_us", 0.0, "us");
    report.layer("loadgen.backlog", 0.0, "count");

    let mut stage_spans = setup_registry.snapshot().spans;
    stage_spans.extend(registry.snapshot().spans);
    let mut snap = setup_registry.snapshot();
    let op_snap = registry.snapshot();
    snap.spans = stage_spans;
    snap.counters.extend(op_snap.counters);
    snap.histograms.extend(op_snap.histograms);
    let ctx = layers::Ctx {
        cfg,
        pipe: &pipe,
        op: &traced,
        registry: &snap,
        hawkes_fit_s: tracer.total("hawkes.fit"),
        checkpoint: checkpoint.as_deref(),
    };
    layers::pipeline_layers(&ctx, &mut tracer, report)?;
    crate::serve::layers_in_process(cfg, &pipe, &traced, &mut tracer, report)?;
    crate::write_trace(cfg, &tracer);
    Ok(())
}
