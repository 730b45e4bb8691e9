//! `perfbench` — run one workload (or all of them) and print every
//! metric by name with its unit; the last line of stdout is the JSON
//! result.
//!
//! ```text
//! perfbench --workload run-small|resume-small|serve-lookup|serve-reload|all
//!           [--seed N|default|heldout] [--seconds S] [--trace 0|1]
//!           [--threads N] [--latency-limit-us US]
//!           [--default-seed N] [--heldout-seed N]
//!           [--memes PATH] [--work-dir DIR] [--smoke]
//! ```
//!
//! `bash perfbench/run.sh` builds `memes` and this binary and passes
//! `--memes` and `--work-dir`. Exit code 0 after printing a result
//! (correct or not), 2 on bad usage.

use perfbench::report::Report;
use perfbench::{run, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    all: bool,
    cfg: Config,
}

fn usage() -> String {
    "usage: perfbench --workload NAME|all [--seed N|default|heldout] [--seconds S] \
     [--trace 0|1] [--threads N] [--latency-limit-us US] [--default-seed N] \
     [--heldout-seed N] [--memes PATH] [--work-dir DIR] [--smoke]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config::new(
        Workload::RunSmall,
        PathBuf::from(".bench_build/perfbench-work"),
    );
    let mut workload: Option<String> = None;
    let mut seed = "default".to_string();
    let (mut default_seed, mut heldout_seed) = (7u64, 1009u64);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cfg.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        let int = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad integer {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.clone(),
            "--seconds" => cfg.seconds = num(value)?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--threads" => cfg.threads = int(value)? as usize,
            "--latency-limit-us" => cfg.latency_limit_us = num(value)?,
            "--default-seed" => default_seed = int(value)?,
            "--heldout-seed" => heldout_seed = int(value)?,
            "--memes" => cfg.memes = Some(PathBuf::from(value)),
            "--work-dir" => cfg.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    cfg.seed = match seed.as_str() {
        "default" => default_seed,
        "heldout" => heldout_seed,
        n => n.parse().map_err(|_| format!("--seed: bad seed {n:?}"))?,
    };
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    if cfg.threads == 0 || cfg.latency_limit_us <= 0.0 {
        return Err("--threads and --latency-limit-us must be positive".to_string());
    }
    if let Some(memes) = &cfg.memes {
        if !memes.is_file() {
            return Err(format!("--memes {}: no such file", memes.display()));
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let (workloads, all) = if name == "all" {
        (Workload::ALL.to_vec(), true)
    } else {
        let w = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        (vec![w], false)
    };
    Ok(Args {
        workloads,
        all,
        cfg,
    })
}

fn print_report(name: &str, report: &Report) {
    for line in report.human_lines(name) {
        println!("{line}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if !args.all {
        let cfg = Config {
            workload: args.workloads[0],
            ..args.cfg
        };
        let report = run(&cfg);
        print_report(cfg.workload.name(), &report);
        println!("{}", report.result_line(cfg.trace));
        return ExitCode::SUCCESS;
    }
    // Every workload, untraced then traced; one combined result line
    // with `<workload>/<metric>` keys.
    let mut combined = Report::default();
    for workload in args.workloads {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                trace,
                ..args.cfg.clone()
            };
            let report = run(&cfg);
            let tag = format!("{}{}", workload.name(), if trace { "+trace" } else { "" });
            print_report(&tag, &report);
            combined.count(report.attempted, report.failed);
            combined
                .problems
                .extend(report.problems.iter().map(|p| format!("{tag}: {p}")));
            let metrics = if trace {
                &report.layers
            } else {
                &report.end_to_end
            };
            for m in metrics {
                combined.e2e(&format!("{}/{}", workload.name(), m.name), m.value, m.unit);
            }
        }
    }
    println!("{}", combined.result_line(false));
    ExitCode::SUCCESS
}
