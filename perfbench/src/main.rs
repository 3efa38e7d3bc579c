//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <dse-frontier|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1> [--codesign-bin PATH]
//! ```
//!
//! Each run generates its inputs from the seed and sets the program up
//! several times before, between and after the segments of its window
//! (the median is `setup_s`); the window runs closed-loop timed ops for
//! `--seconds` (and at least 100 ops, so `op_ms_p90` has ten
//! samples beyond it), checks every op's output, and prints one JSON
//! object as the last line of stdout. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics from
//! the span-instrumented probe suite plus the tracing overhead measured
//! on the workload itself. The line before the result carries the run
//! details (input digest, sample counts, host reference-loop times),
//! and the same record is kept under `.bench_runs/`.

mod dse_frontier;
mod fidelity;
mod host;
mod inputs;
mod probes;
mod serve_mix;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use codesign_bench::experiments::{table2, Context};

use crate::spans::Spans;
use crate::stats::{median, tail_percentile};
use crate::workload::{Env, Window, Workload};

/// An untraced run's window is cut into this many segments, and the
/// workload is set up before, between and after them. The host's speed
/// changes in phases of seconds; set-up times so spread over the run
/// sample those phases as the window's ops do, and their median is
/// `setup_s`.
const SEGMENTS: usize = 16;
/// Set-ups at each of those points: at least `SETUPS.0`, and more (up
/// to `SETUPS.1`) until they took `SETUP_S` in total, so that short
/// set-ups are sampled often enough to be steady.
const SETUPS: (usize, usize) = (1, 8);
const SETUP_S: f64 = 0.05;
/// Where run records and span dumps go, relative to the working
/// directory.
const RUNS_DIR: &str = ".bench_runs";

const USAGE: &str = "usage: perfbench --workload <dse-frontier|serve-mix> \
--seed <n> --seconds <s> --trace <0|1> [--codesign-bin PATH]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    codesign_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        codesign_bin: PathBuf::from(".bench_build/release/codesign"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("positive seconds"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--codesign-bin" => args.codesign_bin = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self { name: name.to_owned(), value, unit }
    }
}

/// Everything a run prints and records.
struct RunResult {
    attempted: usize,
    failed: usize,
    checks_passed: bool,
    metrics: Vec<Metric>,
    details: BTreeMap<&'static str, String>,
}

impl RunResult {
    fn result_json(&self) -> String {
        let correct = self.checks_passed
            && self.failed == 0
            && self.metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        let finite: Vec<&Metric> = self.metrics.iter().filter(|m| m.value.is_finite()).collect();
        for (i, m) in finite.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    fn details_json(&self) -> String {
        let fields: Vec<String> =
            self.details.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Applies post-window check failures to the window's ops; returns
/// `(attempted, failed)`.
fn tally(window: &Window, bad: &[(usize, String)]) -> (usize, usize) {
    let failed =
        window.ops.iter().filter(|op| !op.ok || bad.iter().any(|(k, _)| *k == op.key)).count();
    (window.ops.len(), failed)
}

fn latencies(window: &Window) -> Vec<f64> {
    window.ops.iter().map(|op| op.ms).collect()
}

/// Latencies of the window's ops that were (or were not) traced.
fn latencies_traced(window: &Window, traced: bool) -> Vec<f64> {
    window.ops.iter().filter(|op| op.traced == traced).map(|op| op.ms).collect()
}

/// The first few check failures as a JSON list.
fn failure_list<'a>(failures: impl Iterator<Item = &'a String>) -> String {
    let all: Vec<String> = failures.take(8).map(|e| json_str(e)).collect();
    format!("[{}]", all.join(", "))
}

fn ref_loops() -> Vec<f64> {
    (0..5).map(|_| host::reference_loop_ms()).collect()
}

/// Sets the workload up repeatedly (see [`SETUPS`]); returns the last
/// set-up and every set-up time in seconds.
fn set_up_repeatedly<W: Workload>(env: &Env) -> Result<(W, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut w: Option<W> = None;
    while setups.len() < SETUPS.0
        || (setups.len() < SETUPS.1 && setups.iter().sum::<f64>() < SETUP_S)
    {
        drop(w.take());
        let t = Instant::now();
        w = Some(W::setup(env)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    Ok((w.expect("at least one set-up"), setups))
}

/// The untraced run: the end-to-end metrics.
fn run_untraced<W: Workload>(env: &Env, seconds: f64) -> Result<RunResult, String> {
    let ref_before = ref_loops();
    let (mut w, mut setups) = set_up_repeatedly::<W>(env)?;
    let mut window = Window::default();
    for segment in 1..=SEGMENTS {
        if segment > 1 {
            setups.extend(set_up_repeatedly::<W>(env)?.1);
        }
        // A segment that ran long (it ends on a whole round of inputs)
        // shortens the next, so the window stays near `seconds`.
        let left = seconds * segment as f64 / SEGMENTS as f64 - window.timed_s;
        window.append(w.measure(left.max(0.0), workload::MIN_OPS.div_ceil(SEGMENTS), None));
    }
    let rss = host::peak_rss_mb(w.program_pid()).unwrap_or(f64::NAN);
    let bad = w.verify();
    let digest = w.digest();
    drop(w);
    // The simulated results' fidelity, so that a speed change that moves
    // them shows: untimed, and the same for every workload.
    let t2 = fidelity::t2_error(&table2(&Context::with_jobs(env.jobs)).to_csv());
    setups.extend(set_up_repeatedly::<W>(env)?.1);
    let (attempted, failed) = tally(&window, &bad);
    let lat = latencies(&window);
    let ref_after = ref_loops();

    let ok = (attempted - failed) as f64;
    let mut metrics = vec![
        Metric::new("setup_s", median(&setups).unwrap_or(f64::NAN), "s"),
        Metric::new("op_ms_p50", median(&lat).unwrap_or(f64::NAN), "ms"),
    ];
    match tail_percentile(&lat, 90) {
        Ok(p90) => metrics.push(Metric::new("op_ms_p90", p90, "ms")),
        Err(short) => eprintln!("op_ms_p90 not reportable: {short} more timed ops needed"),
    }
    metrics.push(Metric::new("ops_per_s", ok / window.timed_s, "1/s"));
    metrics.push(Metric::new("ok_fraction", ok / attempted.max(1) as f64, "fraction"));
    metrics.push(Metric::new("peak_rss_mb", rss, "MB"));
    let t2_ok = match t2 {
        Ok(e) => {
            metrics.push(Metric::new("t2_speedup_err_pct", e.speedup_err_pct, "%"));
            metrics.push(Metric::new("t2_energy_err_pts", e.energy_err_pts, "pts"));
            true
        }
        Err(e) => {
            eprintln!("table 2 fidelity: {e}");
            false
        }
    };
    let mut details = BTreeMap::new();
    details.insert("inputs_digest", format!("\"{digest:016x}\""));
    details.insert("op_samples", lat.len().to_string());
    details.insert("setup_s_samples", format!("{setups:?}"));
    details.insert("host_ref_loop_ms", format!("{:?}", [ref_before, ref_after].concat()));
    details
        .insert("failures", failure_list(window.failures.iter().chain(bad.iter().map(|b| &b.1))));
    Ok(RunResult {
        attempted,
        failed,
        checks_passed: t2_ok && lat.len() >= workload::MIN_OPS,
        metrics,
        details,
    })
}

/// The unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    let suffix = |s: &str| name.ends_with(s);
    if suffix("_us") || suffix(".us") || suffix("us_per_eval") {
        "us"
    } else if suffix("_ms") || suffix(".ms") {
        "ms"
    } else if suffix(".gmacs") {
        "GMAC/s"
    } else if suffix("_pct") {
        "%"
    } else if suffix("hit_rate") || suffix("_frac") {
        "fraction"
    } else if suffix("mcycles_per_host_s") {
        "Mcycle/s"
    } else if suffix("scaling") || suffix("speedup") {
        "x"
    } else {
        "count"
    }
}

/// The traced run: the workload in alternating untraced and traced
/// blocks of ops (the difference of their medians is the tracing
/// overhead), then the per-layer probe suite.
fn run_traced<W: Workload>(env: &Env, seconds: f64, name: &str) -> Result<RunResult, String> {
    let ref_before = ref_loops();
    let spans = Spans::new();
    let mut w = W::setup(env)?;
    let window = w.measure(seconds, workload::MIN_OPS, Some(&spans));
    let bad = w.verify();
    let digest = w.digest();
    drop(w);
    let (attempted, failed) = tally(&window, &bad);
    let (plain, traced) = (latencies_traced(&window, false), latencies_traced(&window, true));
    let p50 = |lat: &[f64]| median(lat).unwrap_or(f64::NAN);
    let overhead = (p50(&traced) / p50(&plain) - 1.0) * 100.0;
    let probes = probes::run_all(env, &spans);
    let ref_after = ref_loops();

    let mut failures = window.failures.clone();
    failures.extend(bad.into_iter().map(|(_, e)| e));
    let mut probe_digest = None;
    let mut metrics: Vec<Metric> = match probes {
        Ok((m, d)) => {
            probe_digest = Some(d);
            m.into_iter()
                .map(|(name, value)| Metric::new(&name, value, layer_unit(&name)))
                .collect()
        }
        Err(e) => {
            failures.insert(0, format!("probe: {e}"));
            Vec::new()
        }
    };
    let probes_ok = !metrics.is_empty();
    let host = [ref_before, ref_after].concat();
    metrics.push(Metric::new("bench.trace_overhead_pct", overhead, "%"));
    metrics.push(Metric::new("host.ref_loop_ms", median(&host).unwrap_or(f64::NAN), "ms"));

    std::fs::create_dir_all(RUNS_DIR).map_err(|e| format!("cannot create {RUNS_DIR}: {e}"))?;
    let dump = PathBuf::from(RUNS_DIR).join(format!("spans-{name}-seed{}.jsonl", env.seed));
    std::fs::write(&dump, spans.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;
    let mut details = BTreeMap::new();
    details.insert("inputs_digest", format!("\"{digest:016x}\""));
    if let Some(d) = probe_digest {
        details.insert("probe_inputs_digest", format!("\"{d:016x}\""));
    }
    details.insert("op_samples", format!("[{}, {}]", plain.len(), traced.len()));
    details.insert("host_ref_loop_ms", format!("{host:?}"));
    details.insert("spans", json_str(&dump.display().to_string()));
    details.insert("failures", failure_list(failures.iter()));
    Ok(RunResult { attempted, failed, checks_passed: probes_ok, metrics, details })
}

fn run<W: Workload>(env: &Env, args: &Args) -> Result<RunResult, String> {
    if args.trace {
        run_traced::<W>(env, args.seconds, &args.workload)
    } else {
        run_untraced::<W>(env, args.seconds)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("--workload is required\n{USAGE}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = Env { seed: args.seed, jobs: 2, codesign_bin: args.codesign_bin.clone() };
    let result = match args.workload.as_str() {
        "dse-frontier" => run::<dse_frontier::DseFrontier>(&env, &args),
        "serve-mix" => run::<serve_mix::ServeMix>(&env, &args),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    result.details.insert("workload", json_str(&args.workload));
    result.details.insert("seed", args.seed.to_string());
    result.details.insert("trace", u8::from(args.trace).to_string());
    let details = result.details_json();
    let line = result.result_json();
    let record = format!("{{\"details\": {details}, \"result\": {line}}}\n");
    let path = PathBuf::from(RUNS_DIR).join(format!(
        "run-{}-seed{}-trace{}-{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(RUNS_DIR).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("cannot record the run in {}: {e}", path.display());
    }
    println!("{details}");
    println!("{line}");
    ExitCode::SUCCESS
}
