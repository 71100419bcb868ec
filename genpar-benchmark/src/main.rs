//! `genpar-benchmark`: build the release `genpar`, run workloads against
//! `genpar serve`, print every metric by name and unit, and end with one
//! JSON result line.
//!
//! ```text
//! genpar-benchmark [--workload point|scan|closure|all] [--seed N]
//!                  [--seconds S] [--trace 0|1] [--repeat N]
//! ```
//!
//! Exit status: 0 when every answer was correct (and, with `--repeat`,
//! every set agreed within the bounds), 1 when a check failed, 2 on a
//! usage or set-up error.

use genpar_benchmark::metrics::{result_line, Better, Metric, END_TO_END};
use genpar_benchmark::run::{self, Outcome};
use genpar_benchmark::stats::median;
use genpar_benchmark::workload::{Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 30,
        trace: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = match v.as_str() {
                    "all" => WORKLOADS.to_vec(),
                    name => vec![Workload::from_name(name).ok_or(format!(
                        "unknown workload {name:?} (point|scan|closure|all)"
                    ))?],
                };
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--repeat" => args.repeat = number(value()?)?.max(1) as usize,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.trace && args.repeat > 1 {
        return Err("--repeat compares untraced runs; drop --trace".to_string());
    }
    Ok(args)
}

/// The target directory cargo builds into, as seen from `root`.
fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// Build the release `genpar` binary from the repository's own
/// workspace and return its path.
fn build_server(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "genpar-cli",
            "--bin",
            "genpar",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building genpar failed ({status})"));
    }
    let bin = target_dir(root).join("release").join("genpar");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

fn print_outcome(label: &str, o: &Outcome) {
    for line in &o.report {
        println!("[{label}] {line}");
    }
    for m in &o.metrics {
        println!("[{label}] {} = {} {}", m.name, m.value, m.unit);
    }
}

/// Do the sets agree? Every set's value must lie within the metric's
/// bound of the first set's, in either direction.
fn agreement(results: &[Vec<(Workload, Outcome)>], out: &mut Vec<Metric>) -> bool {
    let mut all_agree = true;
    println!("repeat: {} sets", results.len());
    for (wi, (workload, _)) in results[0].iter().enumerate() {
        for spec in END_TO_END.iter() {
            let per_set: Vec<f64> = results
                .iter()
                .filter_map(|set| set[wi].1.metrics.iter().find(|m| m.name == spec.name))
                .map(|m| m.value)
                .collect();
            let base = per_set.first().copied().unwrap_or(f64::NAN);
            let agree = per_set.len() == results.len()
                && per_set
                    .iter()
                    .all(|v| ((v - base) / base).abs() <= spec.bound);
            all_agree &= agree;
            let direction = match spec.better {
                Better::Higher => "higher is better",
                Better::Lower => "lower is better",
            };
            println!(
                "repeat: {:<8} {:<15} per-set {} {} ({direction}; bound {}): {}",
                workload.name(),
                spec.name,
                per_set
                    .iter()
                    .map(|v| format!("{v:.6}"))
                    .collect::<Vec<_>>()
                    .join(" / "),
                spec.unit,
                spec.bound,
                if agree { "agree" } else { "DISAGREE" }
            );
            out.push(Metric {
                name: format!("{}.{}", workload.name(), spec.name),
                unit: spec.unit,
                value: median(&per_set).unwrap_or(f64::NAN),
            });
        }
    }
    all_agree
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("genpar-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate sits inside the repository")
        .to_path_buf();
    let bin = match build_server(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("genpar-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let runs_dir = target_dir(&root).join("genpar-benchmark");
    println!(
        "genpar-benchmark: seed {}, {} s per run, {}, hardware_threads {}",
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let mut sets: Vec<Vec<(Workload, Outcome)>> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for set in 0..args.repeat {
        let mut results = Vec::new();
        for &w in &args.workloads {
            let label = if args.repeat > 1 {
                format!("set {} {}", set + 1, w.name())
            } else {
                w.name().to_string()
            };
            let dir = runs_dir.join(w.name());
            let outcome = run::run(&bin, &dir, w, args.seed, args.seconds, args.trace)
                .unwrap_or_else(|e| Outcome {
                    failed: 1,
                    report: vec![format!("FAILED: {e}")],
                    ..Outcome::default()
                });
            print_outcome(&label, &outcome);
            attempted += outcome.attempted;
            failed += outcome.failed;
            results.push((w, outcome));
        }
        sets.push(results);
    }

    let mut correct = failed == 0;
    let metrics: Vec<Metric> = if args.repeat > 1 {
        let mut merged = Vec::new();
        correct &= agreement(&sets, &mut merged);
        merged
    } else if args.workloads.len() == 1 {
        std::mem::take(&mut sets[0][0].1.metrics)
    } else {
        // several workloads in one line: names carry the workload
        sets.iter()
            .flatten()
            .flat_map(|(w, o)| {
                o.metrics.iter().map(move |m| Metric {
                    name: format!("{}.{}", w.name(), m.name),
                    ..m.clone()
                })
            })
            .collect()
    };
    println!("{}", result_line(correct, attempted, failed, &metrics));
    std::process::exit(if correct { 0 } else { 1 });
}
