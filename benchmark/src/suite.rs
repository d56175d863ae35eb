//! The parent side: spawning reps, aggregating them, and the two ways to
//! run the benchmark — one workload for a fixed time (the one-line
//! result `BENCHMARK.json`'s command prints) and the interleaved suite
//! (`ccdb-benchmark run`, which writes a `ccdb.benchmark/v1` document).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ccdb_obs::Json;

use crate::spec::{end_to_end, per_layer, Workload};
use crate::stats::{quartiles, MIN_BEYOND};
use crate::sys;

/// Schema tag of the run document.
pub const SCHEMA: &str = "ccdb.benchmark/v1";

/// Where and how reps run.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The `ccdb-benchmark` binary (reps and the server run as its
    /// subcommands).
    pub exe: PathBuf,
    /// Scratch directory for server stderr, wire traces and Chrome traces.
    pub dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Tiny sizes.
    pub quick: bool,
}

/// Run one rep in a fresh child process and parse its line.
pub fn child_rep(ctx: &Ctx, w: Workload, traced: bool, shards: u32) -> Result<Json, String> {
    let mut cmd = Command::new(&ctx.exe);
    cmd.arg("rep")
        .args(["--workload", w.name()])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--shards", &shards.to_string()])
        .arg("--dir")
        .arg(&ctx.dir);
    if ctx.quick {
        cmd.arg("--quick");
    }
    if traced {
        cmd.arg("--traced");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn rep: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{} rep exited with {}", w.name(), out.status));
    }
    Json::parse(text.lines().last().unwrap_or_default())
        .map_err(|e| format!("{} rep printed no result: {e}", w.name()))
}

/// A finite number (`Json::as_f64` reads `null` as NaN).
fn finite(j: &Json) -> Option<f64> {
    j.as_f64().filter(|x| x.is_finite())
}

fn num(j: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(j, |j, k| j.get(k)).and_then(finite)
}

fn errors_of(j: &Json) -> Vec<String> {
    j.get("errors")
        .and_then(|e| e.items())
        .unwrap_or_default()
        .iter()
        .filter_map(|e| e.as_str().map(str::to_string))
        .collect()
}

/// Untraced reps of one workload, gathered.
#[derive(Debug, Default)]
pub struct Reps {
    /// Per end-to-end metric, one value per rep (`None`: not measured).
    pub values: BTreeMap<String, Vec<Option<f64>>>,
    /// Per latency metric, the fewest samples beyond it in any rep.
    pub min_beyond: BTreeMap<String, u64>,
    /// Correctness failures.
    pub errors: Vec<String>,
    /// Transactions attempted and failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    fingerprint: Option<String>,
}

impl Reps {
    /// Add one rep's line.
    pub fn add(&mut self, j: &Json) {
        self.errors.extend(errors_of(j));
        self.attempted += j.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
        self.failed += j.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
        for m in end_to_end() {
            self.values
                .entry(m.name.clone())
                .or_default()
                .push(num(j, &["e2e", &m.name]));
            if let Some(b) = j
                .get("beyond")
                .and_then(|b| b.get(&m.name))
                .and_then(|v| v.as_u64())
            {
                let e = self.min_beyond.entry(m.name).or_insert(b);
                *e = (*e).min(b);
            }
        }
        // A DES rep's simulated outcome is a pure function of the seed:
        // every rep must report the same events and commits.
        if let Some(fp) = j.get("fingerprint").and_then(|v| v.as_str()) {
            match &self.fingerprint {
                None => self.fingerprint = Some(fp.to_string()),
                Some(first) if first != fp => self.errors.push(format!(
                    "simulated outcome differs across reps: {first} vs {fp}"
                )),
                Some(_) => {}
            }
        }
    }

    /// Number of reps added.
    pub fn len(&self) -> usize {
        self.values.values().next().map_or(0, Vec::len)
    }

    /// True if no rep was added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every value of `metric`, or `None` if any rep lacks it.
    pub fn all(&self, metric: &str) -> Option<Vec<f64>> {
        self.values.get(metric)?.iter().copied().collect()
    }
}

/// One set of per-layer measurements of a workload.
pub struct LayerSet {
    /// Every per-layer metric.
    pub metrics: BTreeMap<String, f64>,
    /// Correctness failures.
    pub errors: Vec<String>,
    /// The traced rep's Chrome trace.
    pub chrome: Option<String>,
    /// Transactions the traced rep ran.
    pub attempted: u64,
}

/// The other driver's layers, which a workload never enters.
fn foreign(w: Workload, metric: &str) -> bool {
    if w.is_des() {
        metric.starts_with("load.") || metric.starts_with("server.")
    } else {
        metric.starts_with("des.")
    }
}

/// Measure every per-layer metric of `w` once: a traced rep, plus (for a
/// live workload) plain reps at one and two engine shards for the
/// tracing overhead, server CPU and the parallel ratio.
pub fn layer_set(ctx: &Ctx, w: Workload) -> Result<LayerSet, String> {
    let t = child_rep(ctx, w, true, 1)?;
    let mut errors = errors_of(&t);
    let mut metrics: BTreeMap<String, f64> = match t.get("layer") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
            .collect(),
        _ => BTreeMap::new(),
    };
    if !w.is_des() {
        let one = child_rep(ctx, w, false, 1)?;
        let two = child_rep(ctx, w, false, 2)?;
        errors.extend(errors_of(&one));
        errors.extend(errors_of(&two));
        let get = |j: &Json, p: &[&str]| num(j, p).unwrap_or(f64::NAN);
        metrics.insert(
            "trace.overhead".into(),
            get(&t, &["extra", "latency_mean_ms"]) / get(&one, &["extra", "latency_mean_ms"]),
        );
        metrics.insert(
            "cpu.us_per_txn".into(),
            get(&one, &["extra", "cpu_us_per_txn"]),
        );
        metrics.insert(
            "parallel.jobs2_ratio".into(),
            get(&one, &["e2e", "commits_per_s"]) / get(&two, &["e2e", "commits_per_s"]),
        );
    }
    for m in per_layer() {
        if foreign(w, &m.name) {
            metrics.entry(m.name).or_insert(0.0);
        } else if !metrics.contains_key(&m.name) && errors.is_empty() {
            errors.push(format!("traced run did not measure {}", m.name));
        }
    }
    if metrics.values().any(|v| !v.is_finite()) {
        errors.push("a per-layer metric is not a finite number".to_string());
    }
    Ok(LayerSet {
        metrics,
        errors,
        chrome: t.get("chrome").and_then(|v| v.as_str()).map(str::to_string),
        attempted: t.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0),
    })
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &str)>,
) -> Json {
    let mut m = Json::obj();
    for (name, value, unit) in metrics {
        let mut v = Json::obj();
        v.set("value", value).set("unit", unit);
        m.set(name, v);
    }
    let mut j = Json::obj();
    j.set("correct", correct)
        .set("attempted", attempted.max(1))
        .set("failed", failed)
        .set("metrics", m);
    j
}

/// Measure one workload for `seconds`: a discarded warm-up rep, then
/// reps (or, traced, per-layer sets) until the time is used, reporting
/// each metric's median. Returns the one-line result.
pub fn drive(ctx: &Ctx, w: Workload, seconds: f64, traced: bool) -> Json {
    let mut errors = Vec::new();
    match child_rep(ctx, w, false, 1) {
        Ok(j) => errors.extend(errors_of(&j)),
        Err(e) => errors.push(e),
    }
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    if !traced {
        let mut reps = Reps::default();
        while reps.is_empty() || started.elapsed() < budget {
            match child_rep(ctx, w, false, 1) {
                Ok(j) => {
                    eprintln!(
                        "{}: rep {}: {}",
                        w.name(),
                        reps.len(),
                        j.get("e2e").map_or_else(String::new, Json::render)
                    );
                    reps.add(&j);
                }
                Err(e) => {
                    errors.push(e);
                    break;
                }
            }
        }
        errors.extend(reps.errors.iter().cloned());
        let mut metrics = Vec::new();
        for m in end_to_end() {
            match reps.all(&m.name).as_deref().and_then(quartiles) {
                Some((median, _, _)) => metrics.push((m.name, median, m.unit)),
                None => errors.push(format!("{} was not measured", m.name)),
            }
        }
        eprintln!("{}: {} reps", w.name(), reps.len());
        for e in &errors {
            eprintln!("{}: error: {e}", w.name());
        }
        return result_line(errors.is_empty(), reps.attempted, reps.failed, metrics);
    }
    let mut sets = Vec::new();
    while sets.is_empty() || started.elapsed() < budget {
        match layer_set(ctx, w) {
            Ok(s) => sets.push(s),
            Err(e) => {
                errors.push(e);
                break;
            }
        }
    }
    let mut metrics = Vec::new();
    for m in per_layer() {
        let values: Vec<f64> = sets
            .iter()
            .filter_map(|s| s.metrics.get(&m.name).copied())
            .collect();
        match quartiles(&values) {
            Some((median, _, _)) => metrics.push((m.name, median, m.unit)),
            None => errors.push(format!("{} was not measured", m.name)),
        }
    }
    for s in &sets {
        errors.extend(s.errors.iter().cloned());
    }
    eprintln!("{}: {} traced sets", w.name(), sets.len());
    for e in &errors {
        eprintln!("{}: error: {e}", w.name());
    }
    let attempted = sets.iter().map(|s| s.attempted).sum();
    result_line(errors.is_empty(), attempted, 0, metrics)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host fingerprint: CPUs, CPU model, compiler, source revision.
pub fn host() -> Json {
    let mut h = Json::obj();
    h.set("nproc", sys::nproc() as u64)
        .set("cpu_model", sys::cpu_model())
        .set("rustc", command_line("rustc", &["-V"]))
        .set("git_head", command_line("git", &["rev-parse", "HEAD"]));
    h
}

/// The document entry of one end-to-end metric over the measured reps.
fn e2e_entry(reps: &Reps, name: &str, unit: &str, better: &str) -> Json {
    let mut e = Json::obj();
    e.set("unit", unit)
        .set("better", better)
        .set("n", reps.len() as u64);
    let beyond = reps.min_beyond.get(name).copied();
    if let Some(b) = beyond {
        e.set("min_beyond", b);
    }
    let values = reps.all(name);
    let stats = values.as_deref().and_then(quartiles);
    match (values, stats) {
        (Some(values), Some((median, q1, q3))) if beyond.is_none_or(|b| b >= MIN_BEYOND as u64) => {
            e.set(
                "values",
                Json::Arr(values.into_iter().map(Json::Num).collect()),
            )
            .set("median", median)
            .set("q1", q1)
            .set("q3", q3);
        }
        _ => {
            let reason = match beyond {
                Some(b) if b < MIN_BEYOND as u64 => format!(
                    "a rep had only {b} samples beyond this percentile (needs {MIN_BEYOND})"
                ),
                _ => "not measured in every rep".to_string(),
            };
            e.set("values", Json::Null)
                .set("median", Json::Null)
                .set("reason", reason);
        }
    }
    e
}

/// Measured reps per workload of the interleaved suite.
pub const SUITE_REPS: usize = 7;

/// The interleaved suite: per workload one discarded warm-up rep and
/// [`SUITE_REPS`] measured reps (one with `--quick`), round-robin across
/// workloads, each in a fresh child process; then one per-layer set per
/// workload. Returns the `ccdb.benchmark/v1` document.
pub fn run_suite(ctx: &Ctx) -> Json {
    let reps = if ctx.quick { 1 } else { SUITE_REPS };
    let workloads = Workload::ALL;
    let mut gathered: Vec<Reps> = workloads.iter().map(|_| Reps::default()).collect();
    for round in 0..=reps {
        for (w, g) in workloads.iter().zip(&mut gathered) {
            eprintln!("rep {round}/{reps}: {}", w.name());
            match child_rep(ctx, *w, false, 1) {
                Ok(j) if round == 0 => g.errors.extend(errors_of(&j)),
                Ok(j) => g.add(&j),
                Err(e) => g.errors.push(e),
            }
        }
    }
    let mut doc_w = Json::obj();
    let mut all_correct = true;
    for (w, g) in workloads.iter().zip(gathered) {
        eprintln!("traced: {}", w.name());
        let mut errors = g.errors.clone();
        let mut e2e = Json::obj();
        for m in end_to_end() {
            e2e.set(m.name.as_str(), e2e_entry(&g, &m.name, m.unit, m.better));
        }
        let mut layer = Json::obj();
        let mut chrome = Json::Null;
        match layer_set(ctx, *w) {
            Ok(s) => {
                for m in per_layer() {
                    layer.set(
                        m.name.as_str(),
                        s.metrics.get(&m.name).copied().unwrap_or(f64::NAN),
                    );
                }
                errors.extend(s.errors);
                if let Some(c) = s.chrome {
                    chrome = Json::Str(c);
                }
            }
            Err(e) => errors.push(e),
        }
        all_correct &= errors.is_empty();
        let mut entry = Json::obj();
        entry
            .set("correct", errors.is_empty())
            .set(
                "errors",
                Json::Arr(errors.into_iter().map(Json::Str).collect()),
            )
            .set("attempted", g.attempted)
            .set("failed", g.failed)
            .set("end_to_end", e2e)
            .set("per_layer", layer)
            .set("chrome_trace", chrome);
        doc_w.set(w.name(), entry);
    }
    let mut doc = Json::obj();
    doc.set("schema", SCHEMA)
        .set("seed", ctx.seed)
        .set("quick", ctx.quick)
        .set("reps", reps as u64)
        .set("host", host())
        .set("correct", all_correct)
        .set("workloads", doc_w);
    doc
}

/// A human-readable table of a run document's end-to-end metrics.
pub fn table(doc: &Json) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<16} {:>6} {:>14} {:>14} {:>14} {:>3}",
        "workload", "metric", "unit", "median", "q1", "q3", "n"
    );
    let Some(Json::Obj(ws)) = doc.get("workloads") else {
        return out;
    };
    for (w, entry) in ws {
        let Some(Json::Obj(ms)) = entry.get("end_to_end") else {
            continue;
        };
        for (name, m) in ms {
            let f = |k: &str| {
                m.get(k)
                    .and_then(finite)
                    .map_or_else(|| "null".to_string(), |x| format!("{x:.4}"))
            };
            let _ = writeln!(
                out,
                "{:<16} {:<16} {:>6} {:>14} {:>14} {:>14} {:>3}",
                w,
                name,
                m.get("unit").and_then(|v| v.as_str()).unwrap_or(""),
                f("median"),
                f("q1"),
                f("q3"),
                m.get("n").and_then(|v| v.as_u64()).unwrap_or(0)
            );
        }
        if let Some(Json::Arr(errors)) = entry.get("errors") {
            for e in errors {
                let _ = writeln!(out, "{w}: error: {}", e.as_str().unwrap_or(""));
            }
        }
    }
    out
}
