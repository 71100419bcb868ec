//! One run of one workload: set-up, a discarded warm-up, the measured
//! window and, when traced, the in-process replay.

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::replay::{self, Replay, SERVE_WORKERS};
use crate::stats::{mean, median, p99, percentile};
use crate::wire::{command_line, drive, scrubbed_env_vars, server_counters, Server, Window};
use crate::workload::{generate, Sizes, Workload};
use std::path::Path;
use std::time::Duration;

/// Server spawns timed before the warm-up, and again after the window;
/// `setup_s` is the median of both groups. Timing on both sides of the
/// window spreads them over the run, so one slow stretch of the machine
/// does not set the value.
pub const SETUP_SPAWNS: usize = 15;
/// Load before the measured window, discarded; it lets the morsel tuner
/// settle.
pub const WARMUP: Duration = Duration::from_secs(3);
/// Requests whose spans go to the span file; later ones are measured
/// but not written, which keeps the file a few MB.
pub const SPAN_FILE_REQUESTS: u64 = 1000;

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Requests checked.
    pub attempted: u64,
    /// Checked requests that failed, plus failed server checks.
    pub failed: u64,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

/// Run `workload` from `seed` against the server binary `bin`, keeping
/// its files in `dir`. `seconds` is the measured time: the served window
/// untraced, the served window and the replay split evenly when traced.
pub fn run(
    bin: &Path,
    dir: &Path,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Outcome, String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot clear {}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let gen = generate(workload, seed, &Sizes::full());
    let gdb_path = dir.join("db.gdb");
    std::fs::write(&gdb_path, &gen.gdb)
        .map_err(|e| format!("cannot write {}: {e}", gdb_path.display()))?;
    let expected = crate::expected_outputs(&gen)?;

    let args = vec![
        "serve".to_string(),
        gdb_path.to_string_lossy().to_string(),
        "--port".into(),
        "0".into(),
        "--parallel".into(),
        SERVE_WORKERS.to_string(),
    ];
    let mut out = Outcome::default();
    out.report
        .push(format!("server: {}", command_line(bin, &args)));
    let removed = scrubbed_env_vars();
    out.report.push(format!(
        "server env: inherited, with GENPAR_* removed ({})",
        if removed.is_empty() {
            "none was set".to_string()
        } else {
            removed.join(", ")
        }
    ));

    let spawns = if trace { 1 } else { SETUP_SPAWNS };
    let mut setups = time_setups(bin, &args, spawns - 1)?;
    let server = Server::spawn(bin, &args)?;
    setups.push(server.setup.as_secs_f64());
    let window_len = if trace {
        Duration::from_secs_f64(seconds as f64 / 2.0)
    } else {
        Duration::from_secs(seconds)
    };
    let window = drive(&server.addr, &gen.requests, &expected, WARMUP, window_len)?;
    let (degrade_steps, shed) = server_counters(&server.addr)?;
    let rss_mib = server.peak_rss_mib()?;
    server.shutdown()?;
    if !trace {
        setups.extend(time_setups(bin, &args, SETUP_SPAWNS)?);
    }

    out.attempted = window.checked;
    out.failed = window.failed;
    for f in &window.failures {
        out.report.push(format!("FAILED: {f}"));
    }
    if degrade_steps > 0.0 || shed > 0.0 {
        out.failed += 1;
        out.report.push(format!(
            "FAILED: the server degraded {degrade_steps} step(s) and shed {shed} request(s)"
        ));
    }
    report_window(&mut out.report, &gen, &window, window_len);

    if !trace {
        // latency is printed, not in BENCHMARK.json: with one
        // closed-loop connection throughput is the reciprocal of mean
        // latency, and the median and p99 repeat worse (README.md)
        let latency: Vec<f64> = window.samples.iter().map(|s| s.latency_us).collect();
        if let Some(v) = percentile(&latency, 50.0) {
            out.report.push(format!("latency_p50_us = {v} us"));
        }
        match p99(&latency) {
            Ok(v) => out.report.push(format!(
                "latency_p99_us = {v} us over {} samples",
                latency.len()
            )),
            Err(e) => out.report.push(format!("latency_p99_us not reported: {e}")),
        }
        let values = [
            window.samples.len() as f64 / window.wall.as_secs_f64(),
            median(&setups).unwrap_or(f64::NAN),
            rss_mib,
        ];
        out.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(spec, v)| Metric::of(spec, v))
            .collect();
        out.report.push(format!(
            "setup: {} spawns, {}",
            setups.len(),
            setups
                .iter()
                .map(|s| format!("{:.2} ms", s * 1e3))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        return Ok(out);
    }

    let replay_dir = dir.join("replay");
    let rep = replay::replay(&replay::Input {
        gen: &gen,
        expected: &expected,
        gdb_path: &gdb_path,
        dir: &replay_dir,
        budget: Duration::from_secs(seconds).saturating_sub(window_len),
    })?;
    let span_file = dir.join("spans.json");
    std::fs::write(&span_file, rep.tracer.chrome_json(SPAN_FILE_REQUESTS))
        .map_err(|e| format!("cannot write {}: {e}", span_file.display()))?;
    out.attempted += rep.requests;
    out.failed += rep.failed;
    for f in &rep.failures {
        out.report.push(format!("FAILED (replay): {f}"));
    }
    out.report.push(format!(
        "replay: {} requests, {} spans; those of the first {SPAN_FILE_REQUESTS} requests written to {}",
        rep.requests,
        rep.tracer.spans().len(),
        span_file.display()
    ));
    out.metrics = layer_metrics(&window, degrade_steps, shed, &rep)?;
    Ok(out)
}

/// Spawn the server `n` times, each killed once it is ready, and return
/// each set-up time in seconds.
fn time_setups(bin: &Path, args: &[String], n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| Server::spawn(bin, args).map(|s| s.setup.as_secs_f64()))
        .collect()
}

/// Every per-layer metric, in `BENCHMARK.json` order: the wire split of
/// the served window, then the replay's.
pub fn layer_metrics(
    window: &Window,
    degrade_steps: f64,
    shed: f64,
    rep: &Replay,
) -> Result<Vec<Metric>, String> {
    let s = &window.samples;
    let col = |f: fn(&crate::wire::Sample) -> f64| s.iter().map(f).collect::<Vec<f64>>();
    let handler = col(|x| x.handler_us);
    let p = |v: &[f64], q: f64| percentile(v, q).ok_or("the served window has no samples");
    let mut served_by_request = vec![Vec::new(); rep.wholes_us.len()];
    for x in s {
        served_by_request[x.request].push(x.handler_us);
    }
    let wire = [
        ("serve.handler_us.p50", p(&handler, 50.0)?),
        ("serve.handler_us.p99", p(&handler, 99.0)?),
        (
            "serve.outside_handler_us.p50",
            p(&col(|x| x.latency_us - x.handler_us), 50.0)?,
        ),
        (
            "serve.first_byte_us.p50",
            p(&col(|x| x.first_byte_us), 50.0)?,
        ),
        (
            "serve.response_stream_us.p50",
            p(&col(|x| x.latency_us - x.first_byte_us), 50.0)?,
        ),
        (
            "serve.response_bytes",
            mean(&col(|x| x.bytes as f64)).ok_or("no samples")?,
        ),
        ("serve.shed", shed),
        ("exec.degrade_steps", degrade_steps),
    ];
    let values: Vec<(&str, f64)> = wire
        .into_iter()
        .chain(rep.values(&served_by_request)?)
        .collect();
    PER_LAYER
        .iter()
        .map(|spec| {
            values
                .iter()
                .find(|(name, _)| *name == spec.name)
                .map(|(_, v)| Metric::of(spec, *v))
                .ok_or_else(|| format!("no value for {}", spec.name))
        })
        .collect()
}

/// Sample counts, error ratio and the one-worker/two-worker split.
fn report_window(
    report: &mut Vec<String>,
    gen: &crate::workload::Generated,
    window: &Window,
    window_len: Duration,
) {
    let ok = window.samples.len() as u64;
    report.push(format!(
        "window: one connection closed-loop, {:.1} s after {:.0} s warm-up; {} offered, {} correct ok, \
         {} failed of {} checked; error_ratio {:.6}; {} latency samples",
        window_len.as_secs_f64(),
        WARMUP.as_secs_f64(),
        window.offered,
        ok,
        window.failed,
        window.checked,
        window.offered.saturating_sub(ok) as f64 / window.offered.max(1) as f64,
        ok
    ));
    let mut by_query: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for s in &window.samples {
        by_query
            .entry(gen.requests[s.request].query.as_str())
            .or_default()
            .push(s.latency_us);
    }
    let slowest = by_query
        .iter()
        .filter_map(|(k, v)| Some((k, percentile(v, 50.0)?)))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    let all: Vec<f64> = window.samples.iter().map(|s| s.latency_us).collect();
    if let (Some((query, p50)), Some(overall)) = (slowest, percentile(&all, 50.0)) {
        report.push(format!(
            "slowest query: {query}: p50 {p50:.1} us, {:.2}x the workload p50",
            p50 / overall
        ));
    }
    let mut per_second = vec![0u32; window_len.as_secs() as usize];
    for s in &window.samples {
        if let Some(n) = per_second.get_mut(s.sent.as_secs() as usize) {
            *n += 1;
        }
    }
    report.push(format!("per-second completions: {per_second:?}"));
    for workers in [1, 2] {
        let of = |f: fn(&crate::wire::Sample) -> f64| -> Vec<f64> {
            window
                .samples
                .iter()
                .filter(|s| gen.requests[s.request].workers == workers)
                .map(f)
                .collect()
        };
        let lat = of(|s| s.latency_us);
        let handler = of(|s| s.handler_us);
        if let (Some(l), Some(h)) = (percentile(&lat, 50.0), percentile(&handler, 50.0)) {
            report.push(format!(
                "workers={workers}: {} samples, latency p50 {l:.1} us, handler p50 {h:.1} us",
                lat.len()
            ));
        }
    }
}
