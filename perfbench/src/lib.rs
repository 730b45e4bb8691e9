//! Repeated-trial, layer-by-layer benchmark of the meme pipeline and
//! the snapshot lookup server. See `README.md` for the workloads, the
//! metrics and which end-to-end metric each per-layer metric should
//! move.

pub mod layers;
pub mod pipeline;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use meme_core::pipeline::PipelineError;
use meme_core::runner::CheckpointDefect;
use meme_serve::ServeError;
use meme_simweb::{SimConfigError, SimScale};
use report::Report;
use std::fmt;
use std::path::PathBuf;

/// Why a workload could not be measured at all. (Outputs that are
/// wrong are not errors: they are counted as failed operations.)
#[derive(Debug)]
pub enum BenchError {
    /// Dataset generation rejected its configuration.
    Dataset(SimConfigError),
    /// A pipeline run or resume failed.
    Pipeline {
        /// What the benchmark was doing.
        during: &'static str,
        /// The pipeline's error.
        source: PipelineError,
    },
    /// A checkpoint did not decode.
    Checkpoint(CheckpointDefect),
    /// The serving layer refused an artifact or could not start.
    Serve(ServeError),
    /// A file, socket, thread or child-process operation failed.
    Io {
        /// The operation and its target.
        what: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The system under test answered in a shape the benchmark cannot
    /// measure (a halted run, a malformed server banner, …).
    Unexpected(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Dataset(e) => write!(f, "dataset: {e}"),
            BenchError::Pipeline { during, source } => write!(f, "{during}: {source}"),
            BenchError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            BenchError::Serve(e) => write!(f, "serve: {e}"),
            BenchError::Io { what, source } => write!(f, "{what}: {source}"),
            BenchError::Unexpected(what) => f.write_str(what),
        }
    }
}

impl std::error::Error for BenchError {}

impl BenchError {
    /// An I/O error on `what`.
    pub fn io(what: impl fmt::Display, source: std::io::Error) -> Self {
        BenchError::Io {
            what: what.to_string(),
            source,
        }
    }
}

/// How many times set-up generates the dataset (the median time is
/// reported as part of `setup_s`).
pub const GEN_REPS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `memes influence` from a fresh dataset: hashing dominates.
    RunSmall,
    /// Resume from a post-hash checkpoint: nothing is hashed.
    ResumeSmall,
    /// Open-loop lookups against `memes serve`, then the `max_qps` ladder.
    ServeLookup,
    /// Lookups beside periodic `reload`s of the same artifact.
    ServeReload,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::RunSmall,
        Workload::ResumeSmall,
        Workload::ServeLookup,
        Workload::ServeReload,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RunSmall => "run-small",
            Workload::ResumeSmall => "resume-small",
            Workload::ServeLookup => "serve-lookup",
            Workload::ServeReload => "serve-reload",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed section, in seconds.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Pipeline and Step-7 worker threads.
    pub threads: usize,
    /// `max_qps` latency limit on p99, in µs.
    pub latency_limit_us: f64,
    /// Tiny dataset and low rates: a quick check that everything works.
    pub smoke: bool,
    /// The `memes` binary to serve with; `None` serves in process.
    pub memes: Option<PathBuf>,
    /// Base directory: artifacts go to a per-process directory under it
    /// (removed at the end of the run), spans to `traces/`.
    pub work_dir: PathBuf,
    /// Tamper with the expected outputs, so correct outputs count as
    /// failures (shows the checks cannot pass silently).
    pub corrupt: bool,
}

impl Config {
    /// Defaults for `workload`: seed 7, 10 s, 2 threads, 1 ms limit.
    pub fn new(workload: Workload, work_dir: PathBuf) -> Self {
        Config {
            workload,
            seed: 7,
            seconds: 10.0,
            trace: false,
            threads: 2,
            latency_limit_us: 1000.0,
            smoke: false,
            memes: None,
            work_dir,
            corrupt: false,
        }
    }

    /// The dataset scale: `Small`, or `Tiny` in smoke mode.
    pub fn scale(&self) -> SimScale {
        if self.smoke {
            SimScale::Tiny
        } else {
            SimScale::Small
        }
    }

    /// The scale as `memes --scale` spells it.
    pub fn scale_name(&self) -> &'static str {
        if self.smoke {
            "tiny"
        } else {
            "small"
        }
    }

    /// This run's scratch directory for artifacts.
    pub fn scratch_dir(&self) -> PathBuf {
        self.work_dir.join(format!("run-{}", std::process::id()))
    }
}

/// Run one workload.
pub fn run(cfg: &Config) -> Report {
    let report = match cfg.workload {
        Workload::RunSmall => pipeline::run_small(cfg),
        Workload::ResumeSmall => pipeline::resume_small(cfg),
        Workload::ServeLookup => serve::serve_workload(cfg, false),
        Workload::ServeReload => serve::serve_workload(cfg, true),
    };
    let _ = std::fs::remove_dir_all(cfg.scratch_dir());
    report
}

/// Write the traced pass's spans to
/// `<work_dir>/traces/<workload>-seed<seed>.json`.
pub fn write_trace(cfg: &Config, tracer: &trace::Tracer) {
    let path =
        cfg.work_dir
            .join("traces")
            .join(format!("{}-seed{}.json", cfg.workload.name(), cfg.seed));
    if let Err(e) = tracer.write_json(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
