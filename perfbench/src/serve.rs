//! The lookup-server workloads: `serve-lookup` and `serve-reload`.
//!
//! The server under test is `memes serve` as a child process in its
//! production configuration (or, without a `memes` binary, the same
//! `Server` in process). Load is an open loop: Poisson arrivals at a
//! fixed offered rate over two connections, each request timed from
//! when it was due, every reply compared byte for byte with what an
//! in-process oracle renders from the same artifact.

use crate::pipeline::{complete, OpResult, Pipe};
use crate::report::Report;
use crate::stats::{
    cpu_seconds, median, now, peak_rss_mb, percentile, status_field, time_median, SplitMix64,
};
use crate::trace::Tracer;
use crate::{layers, BenchError, Config};
use meme_bench::serveload::query_schedule;
use meme_core::pipeline::PipelineOutput;
use meme_hawkes::ClusterInfluence;
use meme_metrics::{Metrics, Registry};
use meme_phash::PHash;
use meme_serve::protocol::{parse_request, render_hit, render_miss};
use meme_serve::{
    load_output, ServeScratch, Server, ServerConfig, Snapshot, SnapshotStore, DEFAULT_THETA,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Distinct queries in the seeded mix (cycled through by the load).
const QUERY_MIX: usize = 4096;

/// Connections carrying lookups on `serve-lookup`.
const LOOKUP_CONNS: usize = 2;

/// Fixed offered lookup rates (requests/s): about half of what the
/// server sustains on two cores, where it is busy but not queueing.
const LOOKUP_RATE: f64 = 20_000.0;
const RELOAD_LOOKUP_RATE: f64 = 10_000.0;
const SMOKE_RATE: f64 = 20_000.0;

/// Interval between `reload` requests on `serve-reload`.
const RELOAD_INTERVAL: Duration = Duration::from_millis(250);

/// How long a reply may take before the request counts as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Server starts in set-up; the median start time is reported.
const SERVER_STARTS: usize = 3;

/// Closed-loop round trips per probe in the traced pass.
const PROBE_REQUESTS: usize = 2000;

/// One request of the query mix and the replies the oracle expects,
/// both cut before the trailing `,"generation":N}`.
#[derive(Debug, Clone)]
pub struct Query {
    /// The query hash.
    pub hash: PHash,
    /// The request line, newline included.
    pub line: String,
    /// Expected reply from the startup snapshot (with influence rows).
    pub expect: String,
    /// Expected reply from a reload-built snapshot (no influence rows).
    pub expect_reloaded: String,
    /// Whether the query matches an annotated meme.
    pub hit: bool,
}

/// Renders the expected reply to every query of the seeded mix.
#[derive(Debug)]
pub struct Oracle {
    /// The seeded query mix.
    pub queries: Vec<Query>,
    /// Memes in the snapshot.
    pub memes: usize,
    /// The startup snapshot, for the per-layer timings.
    pub snapshot: Snapshot,
}

/// Split a reply into the part before `,"generation":` and the
/// generation number.
fn split_generation(reply: &str) -> Option<(&str, u64)> {
    let at = reply.rfind(",\"generation\":")?;
    let digits = reply[at..]
        .strip_prefix(",\"generation\":")?
        .strip_suffix('}')?;
    Some((&reply[..at], digits.parse().ok()?))
}

fn render(snapshot: &Snapshot, hash: PHash, scratch: &mut ServeScratch) -> (String, bool) {
    let mut buf = String::new();
    let hit = match snapshot.lookup(hash, scratch) {
        Some(h) => {
            render_hit(&mut buf, hash, &h, snapshot);
            true
        }
        None => {
            render_miss(&mut buf, hash, snapshot.generation());
            false
        }
    };
    let cut = split_generation(&buf).map_or(buf.len(), |(p, _)| p.len());
    buf.truncate(cut);
    (buf, hit)
}

impl Oracle {
    /// The oracle for `output` served with `influence`; the mix is
    /// `query_schedule` over the annotated medoids (0–12 bit flips).
    pub fn build(
        output: &PipelineOutput,
        influence: &ClusterInfluence,
        seed: u64,
    ) -> Result<Oracle, BenchError> {
        let snapshot = Snapshot::build(output, Some(influence), DEFAULT_THETA, 0)
            .map_err(BenchError::Serve)?;
        let reloaded =
            Snapshot::build(output, None, DEFAULT_THETA, 0).map_err(BenchError::Serve)?;
        let medoids: Vec<PHash> = snapshot.records().iter().map(|r| r.medoid).collect();
        if medoids.is_empty() {
            return Err(BenchError::Unexpected(
                "no annotated memes to query".to_string(),
            ));
        }
        let mut scratch = ServeScratch::new();
        let queries = query_schedule(&medoids, seed, QUERY_MIX)
            .into_iter()
            .map(|hash| {
                let (expect, hit) = render(&snapshot, hash, &mut scratch);
                let (expect_reloaded, _) = render(&reloaded, hash, &mut scratch);
                Query {
                    hash,
                    line: format!("{{\"hash\":\"{hash}\"}}\n"),
                    expect,
                    expect_reloaded,
                    hit,
                }
            })
            .collect();
        Ok(Oracle {
            queries,
            memes: snapshot.len(),
            snapshot,
        })
    }

    /// Whether `reply` is exactly what query `q` should get: the
    /// startup snapshot answers as generation 1; with reloads allowed,
    /// later generations answer without influence rows.
    pub fn check(&self, q: &Query, reply: &str, reloads: bool) -> bool {
        match split_generation(reply) {
            Some((body, 1)) => body == q.expect,
            Some((body, g)) if reloads && g > 1 => body == q.expect_reloaded,
            _ => false,
        }
    }

    /// Replace every expected reply with a wrong one, so that every
    /// correct answer is counted as a failure (used to show the checks
    /// cannot pass silently).
    pub fn corrupt(&mut self) {
        for q in &mut self.queries {
            q.expect.push(' ');
            q.expect_reloaded.push(' ');
        }
    }
}

/// A `memes serve` child, killed and reaped when dropped.
#[derive(Debug)]
struct ChildServer(Child);

impl Drop for ChildServer {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The server under test.
#[derive(Debug)]
enum Target {
    Child(ChildServer, SocketAddr),
    InProcess(Server),
}

impl Target {
    fn addr(&self) -> SocketAddr {
        match self {
            Target::Child(_, addr) => *addr,
            Target::InProcess(s) => s.local_addr(),
        }
    }

    /// The serving process (`None`: this one).
    fn pid(&self) -> Option<u32> {
        match self {
            Target::Child(c, _) => Some(c.0.id()),
            Target::InProcess(_) => None,
        }
    }
}

/// Start the server under test and wait for its first answered
/// request (a `stats` round trip reporting the expected meme count).
fn start_target(
    cfg: &Config,
    artifact: &Path,
    output: &PipelineOutput,
    influence: &ClusterInfluence,
    reload: bool,
    memes: usize,
) -> Result<Target, BenchError> {
    let target = match &cfg.memes {
        Some(bin) => {
            let mut cmd = Command::new(bin);
            cmd.arg("serve").arg("--artifact").arg(artifact).args([
                "--scale",
                cfg.scale_name(),
                "--seed",
                &cfg.seed.to_string(),
            ]);
            if reload {
                cmd.arg("--reload");
            }
            sys::kill_with_parent(&mut cmd);
            let child = cmd
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| BenchError::io(format_args!("spawn {}", bin.display()), e))?;
            let mut child = ChildServer(child);
            let stdout = child
                .0
                .stdout
                .take()
                .ok_or_else(|| BenchError::Unexpected("child has no stdout".to_string()))?;
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .map_err(|e| BenchError::io("memes serve stdout", e))?;
            let addr = line
                .trim()
                .strip_prefix("serving on ")
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| {
                    BenchError::Unexpected(format!(
                        "unexpected first line from memes serve: {line:?}"
                    ))
                })?;
            Target::Child(child, addr)
        }
        None => {
            let snapshot = Snapshot::build(output, Some(influence), DEFAULT_THETA, 0)
                .map_err(BenchError::Serve)?;
            let config = ServerConfig {
                allow_reload: reload,
                ..ServerConfig::default()
            };
            let server = Server::start(
                Arc::new(SnapshotStore::new(snapshot)),
                config,
                Metrics::disabled(),
            )
            .map_err(BenchError::Serve)?;
            Target::InProcess(server)
        }
    };
    let reply = round_trips(target.addr(), "{\"op\":\"stats\"}\n", 1)?.1;
    if !reply.contains(&format!("\"memes\":{memes},")) {
        return Err(BenchError::Unexpected(format!(
            "first stats reply {reply:?} does not report {memes} memes"
        )));
    }
    Ok(target)
}

/// `n` closed-loop round trips of `line` on one connection; returns the
/// latencies in µs and the last reply.
fn round_trips(addr: SocketAddr, line: &str, n: usize) -> Result<(Vec<f64>, String), BenchError> {
    let stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| BenchError::io(addr, e))?);
    let mut writer = stream;
    let mut reply = String::new();
    let mut lat = Vec::with_capacity(n);
    for _ in 0..n {
        reply.clear();
        let t = now();
        writer
            .write_all(line.as_bytes())
            .map_err(|e| BenchError::io(addr, e))?;
        reader
            .read_line(&mut reply)
            .map_err(|e| BenchError::io(addr, e))?;
        lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok((lat, reply.trim_end().to_string()))
}

fn connect(addr: SocketAddr) -> Result<TcpStream, BenchError> {
    let stream = TcpStream::connect(addr).map_err(|e| BenchError::io(addr, e))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| BenchError::io(addr, e))?;
    Ok(stream)
}

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const PR_SET_TIMERSLACK: i32 = 29;
    const SIGKILL: u64 = 9;

    /// Lower this thread's timer slack to 1 ns so sleeps that pace the
    /// open loop wake on time instead of up to 50 µs late.
    pub fn tighten_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
        // only changes the calling thread's timer slack; no memory is
        // passed.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1u64);
        }
    }

    /// Have the kernel kill the child when this process dies, so a run
    /// that is interrupted leaves no server behind.
    pub fn kill_with_parent(cmd: &mut std::process::Command) {
        use std::os::unix::process::CommandExt;
        // SAFETY: the hook runs in the forked child before exec and only
        // makes the prctl system call, which is async-signal-safe and
        // reads no memory of this process.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn tighten_timer_slack() {}
    pub fn kill_with_parent(_: &mut std::process::Command) {}
}

fn sleep_until(due: Instant) {
    let t = now();
    if due > t {
        std::thread::sleep(due - t);
    }
}

/// Reloads sent beside the lookups: the artifact and the interval.
#[derive(Debug, Clone)]
struct ReloadPlan {
    artifact: PathBuf,
    interval: Duration,
}

/// Requests per group for the windowed tail: each group's p99 has
/// ten samples beyond it.
const GROUP: usize = 1000;

/// The tail statistic every serve latency uses: the p99 of each run of
/// [`GROUP`] consecutive requests (in due order), median over the runs.
/// Host stalls of several milliseconds hit a minority of groups; a
/// whole-step p99 swings with how many of them a step happened to
/// catch, the median of group p99s does not.
pub fn group_p99(values_in_due_order: &[f64]) -> f64 {
    let groups: Vec<f64> = values_in_due_order
        .chunks(GROUP)
        .filter(|g| g.len() == GROUP || values_in_due_order.len() < GROUP)
        .map(|g| percentile(g, 0.99))
        .collect();
    median(&groups)
}

/// What one open-loop step measured.
#[derive(Debug, Default)]
struct Step {
    /// (due time in seconds into the step, latency in µs) per lookup;
    /// failed lookups have infinite latency.
    samples: Vec<(f64, f64)>,
    /// How late the generator sent each request, µs, in due order.
    late_us: Vec<f64>,
    /// Lookups that failed (error, shed, timeout, wrong reply).
    failed: u64,
    /// Lookups sent but not yet answered when the last was due.
    backlog: u64,
    /// Reload latencies from due time, ms.
    reload_ms: Vec<f64>,
    /// Reloads that failed.
    reload_failed: u64,
    /// The first wrong reply seen, for the notes.
    first_defect: Option<String>,
}

impl Step {
    /// Latencies in due order.
    fn latencies(&self) -> Vec<f64> {
        let mut s = self.samples.clone();
        s.sort_by(|a, b| a.0.total_cmp(&b.0));
        s.into_iter().map(|(_, lat)| lat).collect()
    }

    /// Whether this step meets the latency limit with no failures, a
    /// backlog that did not grow, and a generator that kept time.
    fn meets(&self, rate: f64, limit_us: f64) -> bool {
        let allowed_backlog = (rate * limit_us / 1e6).max(16.0);
        self.failed == 0
            && group_p99(&self.latencies()) <= limit_us
            && (self.backlog as f64) <= allowed_backlog
            && group_p99(&self.late_us) <= limit_us / 2.0
    }
}

/// Offer `rate` lookups/s for `secs` over `conns` connections (Poisson
/// arrivals), plus reloads on their own connection when planned.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    addr: SocketAddr,
    oracle: &Oracle,
    rate: f64,
    secs: f64,
    conns: usize,
    seed: u64,
    reload: Option<&ReloadPlan>,
    reloads_allowed: bool,
) -> Result<Step, BenchError> {
    let mut rng = SplitMix64::new(seed);
    let n = (rate * secs).round().max(1.0) as usize;
    let mut offsets = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for _ in 0..n {
        t += -rng.next_unit().ln() / rate;
        offsets.push(Duration::from_secs_f64(t));
    }
    let first = (rng.next_u64() as usize) % oracle.queries.len();
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..conns {
        let stream = connect(addr)?;
        readers.push(BufReader::new(
            stream.try_clone().map_err(|e| BenchError::io(addr, e))?,
        ));
        writers.push(stream);
    }
    let received = AtomicU64::new(0);
    let queries = &oracle.queries;
    let t0 = now() + Duration::from_millis(2);
    let end = t0 + Duration::from_secs_f64(secs);

    std::thread::scope(|s| -> Result<Step, BenchError> {
        let mut pending = Vec::new();
        let mut handles = Vec::new();
        for mut reader in readers.drain(..) {
            let (tx, rx) = mpsc::channel::<(Instant, usize)>();
            pending.push(tx);
            let received = &received;
            handles.push(s.spawn(move || {
                let mut step = Step::default();
                let mut line = String::new();
                let mut broken = false;
                while let Ok((due, qi)) = rx.recv() {
                    line.clear();
                    if !broken && !matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                        broken = true;
                        step.first_defect
                            .get_or_insert("connection lost or timed out".into());
                    }
                    let at = now();
                    received.fetch_add(1, Ordering::Relaxed);
                    let reply = line.trim_end();
                    let due_s = (due - t0).as_secs_f64();
                    if !broken && oracle.check(&queries[qi], reply, reloads_allowed) {
                        step.samples.push((due_s, (at - due).as_secs_f64() * 1e6));
                    } else {
                        step.failed += 1;
                        step.samples.push((due_s, f64::INFINITY));
                        if !broken {
                            step.first_defect
                                .get_or_insert_with(|| format!("query {qi}: got {reply:?}"));
                        }
                    }
                }
                step
            }));
        }
        let reloader = reload.map(|plan| {
            s.spawn(move || -> Result<(Vec<f64>, u64), BenchError> {
                sys::tighten_timer_slack();
                let artifact = plan.artifact.display().to_string();
                let escaped = artifact.replace('\\', "\\\\").replace('"', "\\\"");
                let line = format!("{{\"op\":\"reload\",\"artifact\":\"{escaped}\"}}\n");
                let stream = connect(addr)?;
                let mut reader =
                    BufReader::new(stream.try_clone().map_err(|e| BenchError::io(addr, e))?);
                let mut writer = stream;
                let (mut lat, mut failed, mut last_gen) = (Vec::new(), 0u64, 1u64);
                let mut reply = String::new();
                let mut due = t0 + plan.interval;
                while due < end {
                    sleep_until(due);
                    reply.clear();
                    let ok = writer.write_all(line.as_bytes()).is_ok()
                        && matches!(reader.read_line(&mut reply), Ok(n) if n > 0);
                    lat.push((now() - due).as_secs_f64() * 1e3);
                    let gen = reply
                        .trim_end()
                        .strip_prefix("{\"reloaded\":true,\"generation\":")
                        .and_then(|r| r.strip_suffix(&format!(",\"memes\":{}}}", oracle.memes)))
                        .and_then(|g| g.parse::<u64>().ok());
                    match gen {
                        Some(g) if ok && g > last_gen => last_gen = g,
                        _ => failed += 1,
                    }
                    due += plan.interval;
                }
                Ok((lat, failed))
            })
        });

        sys::tighten_timer_slack();
        let mut late = Vec::with_capacity(n);
        let mut send_failed = 0u64;
        for (i, off) in offsets.iter().enumerate() {
            let due = t0 + *off;
            sleep_until(due);
            late.push((now() - due).as_secs_f64() * 1e6);
            let c = i % conns;
            let qi = (first + i) % queries.len();
            if pending[c].send((due, qi)).is_err()
                || writers[c].write_all(queries[qi].line.as_bytes()).is_err()
            {
                send_failed += 1;
            }
        }
        let backlog = (n as u64).saturating_sub(received.load(Ordering::Relaxed));
        drop(pending);
        let mut step = Step {
            late_us: late,
            backlog,
            failed: send_failed,
            ..Step::default()
        };
        for h in handles {
            let part = h
                .join()
                .map_err(|_| BenchError::Unexpected("reader thread panicked".to_string()))?;
            step.samples.extend(part.samples);
            step.failed += part.failed;
            if step.first_defect.is_none() {
                step.first_defect = part.first_defect;
            }
        }
        if let Some(h) = reloader {
            let (lat, failed) = h
                .join()
                .map_err(|_| BenchError::Unexpected("reload thread panicked".to_string()))??;
            step.reload_ms = lat;
            step.reload_failed = failed;
        }
        Ok(step)
    })
}

/// The fixed offered lookup rate and the connections carrying it.
fn fixed_rate(cfg: &Config, reload: bool) -> (f64, usize) {
    match (cfg.smoke, reload) {
        (true, false) => (SMOKE_RATE, LOOKUP_CONNS),
        (true, true) => (SMOKE_RATE, 1),
        (false, false) => (LOOKUP_RATE, LOOKUP_CONNS),
        (false, true) => (RELOAD_LOOKUP_RATE, 1),
    }
}

/// `serve-lookup` (`reload == false`) and `serve-reload`.
pub fn serve_workload(cfg: &Config, reload: bool) -> Report {
    let mut report = Report::default();
    if let Err(e) = serve_inner(cfg, reload, &mut report) {
        report.count(1, 1);
        report.problems.push(e.to_string());
    }
    report
}

fn serve_inner(cfg: &Config, reload: bool, report: &mut Report) -> Result<(), BenchError> {
    let dir = cfg.scratch_dir();
    std::fs::create_dir_all(&dir).map_err(|e| BenchError::io(dir.display(), e))?;
    let artifact = std::fs::canonicalize(&dir)
        .map_err(|e| BenchError::io(dir.display(), e))?
        .join("run.json");
    let mut tracer = Tracer::new();
    let registry = Arc::new(Registry::new());
    let metrics = if cfg.trace {
        Metrics::from_registry(Arc::clone(&registry))
    } else {
        Metrics::disabled()
    };

    // Set-up: dataset, pipeline run, artifact; the server start is
    // repeated and its median taken.
    let (pipe, gen_s) = Pipe::generate(cfg)?;
    let t = now();
    let run = pipe
        .runner(&metrics)
        .run(&pipe.dataset)
        .map_err(|source| BenchError::Pipeline {
            during: "set-up run",
            source,
        })?;
    let output = complete(run.outcome)?;
    std::fs::write(&artifact, output.to_json())
        .map_err(|e| BenchError::io(artifact.display(), e))?;
    let pipeline_s = t.elapsed().as_secs_f64();

    // The oracle (benchmark work, outside set-up time).
    let ((influence, skipped), _) = tracer.span("hawkes.fit", |_| pipe.step7(&output, &metrics));
    let op = OpResult::new(output, influence, skipped);
    let mut oracle = Oracle::build(&op.output, &op.influence, cfg.seed)?;
    if cfg.corrupt {
        oracle.corrupt();
    }

    let mut starts = Vec::new();
    let mut target = None;
    for _ in 0..SERVER_STARTS {
        drop(target.take());
        let t = now();
        target = Some(start_target(
            cfg,
            &artifact,
            &op.output,
            &op.influence,
            reload,
            oracle.memes,
        )?);
        starts.push(t.elapsed().as_secs_f64());
    }
    let target = target.expect("at least one server start");
    let setup_s = gen_s + pipeline_s + median(&starts);
    let pid = target.pid();
    let hits = oracle.queries.iter().filter(|q| q.hit).count();
    report.notes.push(format!(
        "{} posts, seed {}, {} memes served, query mix {} hits of {}, server {}",
        pipe.dataset.posts.len(),
        cfg.seed,
        oracle.memes,
        hits,
        oracle.queries.len(),
        if pid.is_some() {
            "memes serve (child)"
        } else {
            "in process"
        },
    ));

    // Timed: the fixed-rate phase.
    let (rate, conns) = fixed_rate(cfg, reload);
    let plan = reload.then(|| ReloadPlan {
        artifact: artifact.clone(),
        interval: if cfg.smoke {
            Duration::from_millis(200)
        } else {
            RELOAD_INTERVAL
        },
    });
    let fixed_secs = if reload {
        cfg.seconds * 0.8
    } else {
        cfg.seconds * 0.5
    };
    let cpu0 = cpu_seconds(pid).unwrap_or(0.0);
    let fixed = open_loop(
        target.addr(),
        &oracle,
        rate,
        fixed_secs,
        conns,
        cfg.seed,
        plan.as_ref(),
        reload,
    )?;
    let cpu = cpu_seconds(pid).unwrap_or(0.0) - cpu0;
    let threads = status_field(pid, "Threads").unwrap_or(0);
    let lat = fixed.latencies();
    report.count(
        lat.len() as u64 + fixed.reload_ms.len() as u64,
        fixed.failed + fixed.reload_failed,
    );
    if let Some(d) = &fixed.first_defect {
        report.notes.push(format!("first failed lookup: {d}"));
    }
    let p50 = percentile(&lat, 0.5);
    let p99 = group_p99(&lat);
    let late_p99 = group_p99(&fixed.late_us);
    report.notes.push(format!(
        "fixed rate {rate}/s, open loop over {conns} connection(s) for {fixed_secs:.1} s: \
         {} lookups; whole-run p99 {:.1} us, p99.9 {:.1} us; generator late p99 {late_p99:.1} us; \
         backlog {}",
        lat.len(),
        percentile(&lat, 0.99),
        percentile(&lat, 0.999),
        fixed.backlog
    ));

    let throughput = if reload {
        let reload_ms = median(&fixed.reload_ms);
        report.named("reload_ms", reload_ms, "ms");
        report
            .notes
            .push(format!("{} reloads", fixed.reload_ms.len()));
        1e3 / reload_ms
    } else if cfg.trace {
        0.0
    } else {
        let max_qps = ladder(cfg, &target, &oracle)?;
        report.named("max_qps", max_qps, "req/s");
        max_qps
    };
    let rss = peak_rss_mb(pid).unwrap_or(0.0);
    report.named("p50_us", p50, "us");
    report.named("p99_us", p99, "us");
    report.e2e("setup_s", setup_s, "s");
    report.e2e("throughput_per_s", throughput, "1/s");
    report.e2e("cpu_s", cpu, "s");
    report.e2e("peak_rss_mb", rss, "MB");

    if !cfg.trace {
        return Ok(());
    }
    report.layer("loadgen.late_p99_us", late_p99, "us");
    report.layer("loadgen.backlog", fixed.backlog as f64, "count");
    report.layer("serve.threads", threads as f64, "count");
    let ctx_registry = registry.snapshot();
    let ctx = layers::Ctx {
        cfg,
        pipe: &pipe,
        op: &op,
        registry: &ctx_registry,
        hawkes_fit_s: tracer.total("hawkes.fit"),
        checkpoint: None,
    };
    layers::pipeline_layers(&ctx, &mut tracer, report)?;
    let overhead = serve_layers(cfg, &oracle, &target, &artifact, &op, &mut tracer, report)?;
    report.layer("trace.overhead_ratio", overhead, "ratio");
    drop(target);
    crate::write_trace(cfg, &tracer);
    Ok(())
}

/// Rate `k` of the fixed `max_qps` ladder: 8000 req/s and up in 5%
/// steps.
fn ladder_rate(k: u32) -> f64 {
    (8000.0 * 1.05f64.powi(k as i32)).round()
}

/// Ladder rates above this index are never tried (~142k req/s, well
/// past what two cores serve).
const LADDER_TOP: u32 = 59;

/// The coarse pass visits every sixth ladder rate (~34% apart).
const COARSE: u32 = 6;

/// Tries per ladder rate; the rate is met when any try meets it.
const TRIES: u64 = 3;

/// How one ladder rate went: met (by any of [`TRIES`] tries), and
/// overloaded (the backlog grew on every try).
struct Rung {
    met: bool,
    overloaded: bool,
}

/// `max_qps`: the highest ladder rate that meets the latency limit with
/// no failures, no growing backlog and a punctual generator. A coarse
/// pass walks every sixth rate until the backlog grows (the server is
/// past capacity); a fine pass then tries every rate between the highest
/// coarse rate met and that one. A rate counts as met when any of
/// [`TRIES`] tries meets it, so a host stall during one try does not
/// decide the rate.
fn ladder(cfg: &Config, target: &Target, oracle: &Oracle) -> Result<f64, BenchError> {
    let rung = |k: u32| -> Result<Rung, BenchError> {
        let rate = ladder_rate(k);
        let min_groups = if cfg.smoke { 1.0 } else { 5.0 };
        let requests = (rate * cfg.seconds / 40.0).max(min_groups * GROUP as f64);
        let allowed_backlog = (rate * cfg.latency_limit_us / 1e6).max(16.0);
        let mut overloaded = true;
        for attempt in 0..TRIES {
            let seed = cfg.seed ^ (u64::from(k) << 8 | attempt);
            let step = open_loop(
                target.addr(),
                oracle,
                rate,
                requests / rate,
                LOOKUP_CONNS,
                seed,
                None,
                false,
            )?;
            let met = step.meets(rate, cfg.latency_limit_us);
            overloaded &= step.backlog as f64 > allowed_backlog;
            eprintln!(
                "perfbench: ladder {rate}/s try {attempt}: p99 {:.0} us, late p99 {:.0} us, \
                 backlog {}, failed {} -> {}",
                group_p99(&step.latencies()),
                group_p99(&step.late_us),
                step.backlog,
                step.failed,
                if met { "met" } else { "not met" }
            );
            if met {
                return Ok(Rung {
                    met,
                    overloaded: false,
                });
            }
        }
        Ok(Rung {
            met: false,
            overloaded,
        })
    };
    let mut best: Option<u32> = None;
    let mut over = LADDER_TOP + 1;
    for k in (0..=LADDER_TOP).step_by(COARSE as usize) {
        let r = rung(k)?;
        if r.met {
            best = Some(k);
        }
        if r.overloaded {
            over = k;
            break;
        }
    }
    let first_fine = best.map_or(0, |b| b + 1);
    for k in (first_fine..over).filter(|k| k % COARSE != 0) {
        let r = rung(k)?;
        if r.met {
            best = Some(k);
        }
        if r.overloaded {
            break;
        }
    }
    Ok(best.map_or(0.0, ladder_rate))
}

/// The per-layer serve metrics against the server under test, plus an
/// in-process server with a registry for the `serve/query` span.
/// Returns the lookup round trip with a registry ÷ without one.
fn serve_layers(
    cfg: &Config,
    oracle: &Oracle,
    target: &Target,
    artifact: &Path,
    op: &OpResult,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<f64, BenchError> {
    let queries = &oracle.queries;
    let per_query = |secs: f64| secs * 1e9 / queries.len() as f64;
    let reps = 5;
    let (parse_s, _) = tr.span("serve.parse", |_| {
        time_median(reps, || {
            queries
                .iter()
                .filter(|q| parse_request(q.line.trim_end()).is_ok())
                .count()
        })
    });
    let snap = &oracle.snapshot;
    let mut scratch = ServeScratch::new();
    let (lookup_s, _) = tr.span("serve.lookup", |_| {
        time_median(reps, || {
            queries
                .iter()
                .filter(|q| snap.lookup(q.hash, &mut scratch).is_some())
                .count()
        })
    });
    let hits: Vec<_> = queries
        .iter()
        .map(|q| snap.lookup(q.hash, &mut scratch))
        .collect();
    let mut buf = String::new();
    let (render_s, _) = tr.span("serve.render", |_| {
        time_median(reps, || {
            for (q, hit) in queries.iter().zip(&hits) {
                match hit {
                    Some(h) => render_hit(&mut buf, q.hash, h, snap),
                    None => render_miss(&mut buf, q.hash, snap.generation()),
                }
            }
            buf.len()
        })
    });
    let (parse_ns, lookup_ns, render_ns) =
        (per_query(parse_s), per_query(lookup_s), per_query(render_s));
    report.layer("serve.parse_ns", parse_ns, "ns");
    report.layer("serve.lookup_ns", lookup_ns, "ns");
    report.layer("serve.render_ns", render_ns, "ns");
    report.layer(
        "serve.hit_ratio",
        queries.iter().filter(|q| q.hit).count() as f64 / queries.len() as f64,
        "ratio",
    );

    // Round trips on one connection: the inline `stats` op against a
    // lookup, which also crosses the batch-queue hand-off.
    let addr = target.addr();
    let (round_trips_us, _) = tr.span("serve.round_trips", |_| -> Result<(f64, f64), BenchError> {
        let stats = round_trips(addr, "{\"op\":\"stats\"}\n", PROBE_REQUESTS)?.0;
        let lookup = round_trips(addr, &queries[0].line, PROBE_REQUESTS)?.0;
        Ok((percentile(&stats, 0.5), percentile(&lookup, 0.5)))
    });
    let (stats_rtt, lookup_rtt) = round_trips_us?;
    let handoff = lookup_rtt - stats_rtt - (parse_ns + lookup_ns + render_ns) / 1e3;
    report.layer("serve.stats_rtt_us", stats_rtt, "us");
    report.layer("serve.handoff_us", handoff, "us");
    if handoff < 0.0 {
        report.problems.push(format!(
            "serve.handoff_us is negative ({handoff:.2} us): lookup p50 {lookup_rtt:.2} us, \
             stats p50 {stats_rtt:.2} us"
        ));
    }

    // In-process servers over the same snapshot. Tracing overhead is
    // the closed-loop lookup round trip with a registry over without
    // one; the serve/query span and batch sizes come from a third server
    // with a registry, under the workload's fixed open-loop rate.
    let build = || {
        Snapshot::build(&op.output, Some(&op.influence), DEFAULT_THETA, 0)
            .map_err(BenchError::Serve)
    };
    let start = |metrics: Metrics| {
        Server::start(
            Arc::new(SnapshotStore::new(build()?)),
            ServerConfig::default(),
            metrics,
        )
        .map_err(BenchError::Serve)
    };
    let mut rtt = Vec::new();
    for metrics in [Metrics::disabled(), Metrics::enabled()] {
        let server = start(metrics)?;
        let lat = round_trips(server.local_addr(), &queries[0].line, PROBE_REQUESTS)?.0;
        rtt.push(percentile(&lat, 0.5));
        server.shutdown();
    }
    let registry = Arc::new(Registry::new());
    let server = start(Metrics::from_registry(Arc::clone(&registry)))?;
    let (rate, _) = fixed_rate(cfg, false);
    let step = open_loop(
        server.local_addr(),
        oracle,
        rate,
        1.0,
        LOOKUP_CONNS,
        cfg.seed,
        None,
        false,
    )?;
    server.shutdown();
    report.count(step.samples.len() as u64, step.failed);
    let snap_reg = registry.snapshot();
    let missing = |what: &str| BenchError::Unexpected(format!("no {what} recorded"));
    let query = snap_reg
        .spans
        .get("serve/query")
        .ok_or_else(|| missing("serve/query span"))?;
    report.layer(
        "serve.query_us",
        query.total_secs / query.calls as f64 * 1e6,
        "us",
    );
    let batches = snap_reg
        .histograms
        .get("serve.batch_size")
        .ok_or_else(|| missing("serve.batch_size histogram"))?;
    report.layer(
        "serve.batch_size_mean",
        batches.sum / batches.count.max(1) as f64,
        "count",
    );

    // The reload path, piece by piece.
    let (load_s, _) = tr.span("serve.artifact_load", |_| {
        time_median(3, || load_output(artifact).is_ok())
    });
    report.layer("serve.artifact_load_ms", load_s * 1e3, "ms");
    let (build_s, _) = tr.span("serve.snapshot_build", |_| {
        time_median(3, || build().is_ok())
    });
    report.layer("serve.snapshot_build_ms", build_s * 1e3, "ms");
    let store = SnapshotStore::new(build()?);
    let fresh: Vec<Snapshot> = (0..9).map(|_| build()).collect::<Result<_, _>>()?;
    let mut swaps = Vec::new();
    tr.span("serve.swap", |_| {
        for s in fresh {
            let t = now();
            let installed = store.swap(s);
            swaps.push(t.elapsed().as_secs_f64());
            drop(installed);
        }
    });
    report.layer("serve.swap_us", median(&swaps) * 1e6, "us");
    Ok(rtt[1] / rtt[0])
}

/// The serve-layer metrics for a pipeline workload's traced pass, with
/// an in-process server over the op's output as the server under test.
pub fn layers_in_process(
    cfg: &Config,
    _pipe: &Pipe,
    op: &OpResult,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), BenchError> {
    let dir = cfg.scratch_dir();
    std::fs::create_dir_all(&dir).map_err(|e| BenchError::io(dir.display(), e))?;
    let artifact = dir.join("run.json");
    std::fs::write(&artifact, op.output.to_json())
        .map_err(|e| BenchError::io(artifact.display(), e))?;
    let oracle = Oracle::build(&op.output, &op.influence, cfg.seed)?;
    let in_process = Config {
        memes: None,
        ..cfg.clone()
    };
    let target = start_target(
        &in_process,
        &artifact,
        &op.output,
        &op.influence,
        false,
        oracle.memes,
    )?;
    report.layer(
        "serve.threads",
        status_field(None, "Threads").unwrap_or(0) as f64,
        "count",
    );
    serve_layers(cfg, &oracle, &target, &artifact, op, tr, report).map(|_| ())
}
