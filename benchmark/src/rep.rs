//! One rep, run in a fresh child process: the measurement itself, printed
//! as one JSON line for the parent to aggregate.
//!
//! Line shape: `workload`, `traced`, `errors` (correctness failures),
//! `attempted`/`failed` (transactions), and either `e2e` (plus `beyond`,
//! the samples beyond each latency percentile, and `fingerprint`, which
//! must repeat across reps) or `layer` (per-layer metrics) with `chrome`,
//! the path of the rep's Chrome trace. `extra` carries numbers the parent
//! combines across reps.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ccdb_obs::Json;

use crate::live::{run_live, LiveRun};
use crate::spans::Spans;
use crate::spec::{live_spec, Workload};
use crate::stats::{median, percentile};
use crate::{des, load, replay};

/// Options of one rep.
#[derive(Clone, Debug)]
pub struct RepOptions {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Tiny sizes (tests and smoke runs).
    pub quick: bool,
    /// Record spans / profile instead of measuring end to end.
    pub traced: bool,
    /// Engine shards of the live server.
    pub shards: u32,
    /// Scratch directory for server stderr, wire traces and Chrome traces.
    pub dir: PathBuf,
}

/// Extra zero-transaction server lifetimes per live rep, so set-up is
/// sampled several times.
const SETUP_CYCLES: u32 = 2;

/// Cap on spans written to a Chrome trace, per recorder.
const CHROME_CAP: usize = 20_000;

fn line(o: &RepOptions) -> Json {
    let mut j = Json::obj();
    j.set("workload", o.workload.name()).set("traced", o.traced);
    j
}

fn errors_json(errors: &[String]) -> Json {
    Json::Arr(errors.iter().map(|e| Json::Str(e.clone())).collect())
}

fn map_json(m: &BTreeMap<String, f64>) -> Json {
    let mut j = Json::obj();
    for (k, v) in m {
        j.set(k.as_str(), *v);
    }
    j
}

/// The end-to-end metrics of one rep, and the samples beyond each
/// latency percentile. `attempts` counts committed and aborted attempts.
fn e2e_json(
    setup: f64,
    rss: f64,
    cps: f64,
    lat_ms: &[f64],
    attempts: u64,
    commits: u64,
) -> (Json, Json) {
    let mut e = Json::obj();
    let mut b = Json::obj();
    e.set("setup_s", setup)
        .set("peak_rss_mb", rss)
        .set("commits_per_s", cps)
        .set(
            "attempts_per_commit",
            attempts as f64 / commits.max(1) as f64,
        );
    for (name, p) in [("latency_p50_ms", 50.0), ("latency_p95_ms", 95.0)] {
        match percentile(lat_ms, p) {
            Some(q) => {
                e.set(name, q.value);
                b.set(name, q.beyond as u64);
            }
            None => {
                e.set(name, Json::Null);
                b.set(name, 0u64);
            }
        }
    }
    (e, b)
}

/// Run one rep and return its JSON line.
///
/// A live rep first pins itself, and so its client threads and the server
/// child, to one CPU, so it measures the code's own work and hand-offs,
/// not the host's cross-CPU wake-up latency. On two CPUs of a 2-vCPU VM
/// that latency drifted throughput by up to 2x for tens of seconds at a
/// time unpinned, and with the load generator and the server on separate
/// CPUs the run-median p99 latency of `srv_cb_uniform` spread by about
/// 35 %. The cost: a live rep cannot show a parallel speed-up inside the
/// server.
pub fn run(o: &RepOptions, exe: &Path) -> Json {
    let mut j = line(o);
    if !o.workload.is_des() {
        match crate::sys::pin_to_one_cpu() {
            Some(cpu) => j.set("cpu", cpu as u64),
            None => j.set("cpu", Json::Null),
        };
    }
    let r = match (o.workload.is_des(), o.traced) {
        (true, false) => des_plain(o, &mut j),
        (true, true) => des_traced(o, &mut j),
        (false, false) => live_plain(o, exe, &mut j),
        (false, true) => live_traced(o, exe, &mut j),
    };
    let errors = match r {
        Ok(errors) => errors,
        Err(e) => vec![e],
    };
    j.set("errors", errors_json(&errors));
    j
}

fn des_plain(o: &RepOptions, j: &mut Json) -> Result<Vec<String>, String> {
    let rep = des::run_rep(o.workload, o.seed, o.quick);
    let lat: Vec<f64> = rep.op_wall_s.iter().map(|s| s * 1e3).collect();
    let (e, b) = e2e_json(
        rep.setup_median(),
        rep.peak_rss_mib,
        rep.commits_per_s(),
        &lat,
        rep.commits + rep.aborts,
        rep.commits,
    );
    j.set("e2e", e)
        .set("beyond", b)
        .set("fingerprint", rep.fingerprint.as_str())
        .set("attempted", rep.commits)
        .set("failed", 0u64);
    Ok(if rep.commits == 0 {
        vec!["no simulated commits".to_string()]
    } else {
        Vec::new()
    })
}

fn des_traced(o: &RepOptions, j: &mut Json) -> Result<Vec<String>, String> {
    let des::DesTraced {
        metrics: m,
        mut errors,
        commits,
        spans,
    } = des::run_traced(o.workload, o.seed, o.quick);
    let loop_share = m["des.kernel.loop.share"];
    if !(-0.05..=0.05).contains(&loop_share) {
        errors.push(format!(
            "per-kind dispatch time covers {:.1}% of the profiled wall time (needs 95-105%)",
            (1.0 - loop_share) * 100.0
        ));
    }
    let chrome = o.dir.join(format!("trace-{}.json", o.workload.name()));
    write_chrome(&chrome, &[&spans], &[])?;
    j.set("layer", map_json(&m))
        .set("chrome", chrome.display().to_string())
        .set("attempted", commits)
        .set("failed", 0u64);
    Ok(errors)
}

fn live_plain(o: &RepOptions, exe: &Path, j: &mut Json) -> Result<Vec<String>, String> {
    let mut spec = live_spec(o.workload, o.seed, o.quick);
    spec.engine_shards = o.shards;
    let mut setups = Vec::new();
    let mut idle = spec.clone();
    idle.warmup_txns = 0;
    idle.txns = 0;
    for i in 0..SETUP_CYCLES {
        setups.push(run_live(exe, &o.dir, &idle, false, &format!("setup{i}"))?.setup_s);
    }
    let run = run_live(exe, &o.dir, &spec, false, "plain")?;
    setups.push(run.setup_s);
    let lat = run.latencies_ms();
    let measured = run.measured_commits();
    let (e, b) = e2e_json(
        median(&setups).unwrap_or(0.0),
        run.server.peak_rss_mib,
        run.commits_per_s(),
        &lat,
        measured + run.sum(|c| c.aborts),
        measured,
    );
    let quota = run.sum(|c| c.total_commits);
    let mut x = Json::obj();
    x.set("latency_mean_ms", run.mean_latency_ms()).set(
        "cpu_us_per_txn",
        run.server.cpu_s * 1e6 / quota.max(1) as f64,
    );
    j.set("e2e", e)
        .set("beyond", b)
        .set("extra", x)
        .set("attempted", measured)
        .set("failed", 0u64);
    Ok(Vec::new())
}

/// Per-layer metrics of a traced live run and its timed replay.
fn live_layers(run: &LiveRun, t: &replay::ReplayTimes) -> BTreeMap<String, f64> {
    let measured = run.measured_commits().max(1) as f64;
    let quota = run.sum(|c| c.total_commits).max(1) as f64;
    let root_ns: f64 = run.clients.iter().map(|c| c.spans.root_ns() as f64).sum();
    let mut own = vec![0u64; load::SPAN_NAMES.len()];
    for c in &run.clients {
        for (o, s) in own.iter_mut().zip(c.spans.self_ns()) {
            *o += s;
        }
    }
    let share = |ns: f64| ns / root_ns.max(1.0);
    let mut m = BTreeMap::new();
    for (i, ns) in own.iter().enumerate() {
        m.insert(
            format!("load.{}.share", load::layer_key(i)),
            share(*ns as f64),
        );
    }
    // Server service per committed transaction, as a share of the mean
    // traced transaction time (these are parts of `load.wait`).
    let txn_ns = root_ns / measured;
    let mut service = 0.0;
    for (i, name) in replay::SPAN_NAMES.iter().enumerate() {
        let s = t.layer_ns[i] as f64 / quota / txn_ns.max(1.0);
        service += s;
        m.insert(format!("server.{name}.share"), s);
    }
    m.insert(
        "server.residual.share".into(),
        m["load.wait.share"] - service,
    );
    let sum = |f: &dyn Fn(&load::ClientResult) -> u64| run.sum(f) as f64;
    m.insert(
        "load.round_trips_per_txn".into(),
        sum(&|c| c.round_trips) / measured,
    );
    m.insert("load.bytes_per_txn".into(), sum(&|c| c.bytes) / measured);
    m.insert("net.msgs_per_txn".into(), sum(&|c| c.msgs) / measured);
    m.insert(
        "core.restarts_per_txn".into(),
        sum(&|c| c.aborts) / measured,
    );
    let hits = sum(&|c| c.cache_hits);
    let misses = sum(&|c| c.cache_misses);
    m.insert(
        "storage.cache.hit_ratio".into(),
        hits / (hits + misses).max(1.0),
    );
    m.insert(
        "lock.requests_per_txn".into(),
        t.lock_requests as f64 / quota,
    );
    m.insert("lock.blocks_per_txn".into(), t.lock_blocks as f64 / quota);
    m.insert(
        "lock.deadlocks_per_txn".into(),
        t.lock_deadlocks as f64 / quota,
    );
    m.insert("proto.callbacks_per_txn".into(), t.callbacks as f64 / quota);
    m.insert("trace.us_per_txn".into(), txn_ns / 1e3);
    m
}

/// Write a Chrome trace: `driver` recorders on process 1 (one thread
/// each), `server` recorders on process 2.
fn write_chrome(path: &Path, driver: &[&Spans], server: &[&Spans]) -> Result<(), String> {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, sp) in driver.iter().enumerate() {
        sp.chrome_events(1, i as u32, CHROME_CAP, &mut out);
    }
    for (i, sp) in server.iter().enumerate() {
        sp.chrome_events(2, i as u32, CHROME_CAP, &mut out);
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

fn live_traced(o: &RepOptions, exe: &Path, j: &mut Json) -> Result<Vec<String>, String> {
    let spec = live_spec(o.workload, o.seed, o.quick);
    let run = run_live(exe, &o.dir, &spec, true, "traced")?;
    let wire = run
        .wire_trace
        .clone()
        .expect("traced runs record a wire trace");
    let timed = replay::check_and_time(&wire);
    let _ = std::fs::remove_file(&wire);
    let t = timed?;
    let mut errors = Vec::new();
    let m = live_layers(&run, &t);
    let other = m["load.other.share"];
    if other > 0.05 {
        errors.push(format!(
            "driver layer self times cover {:.1}% of the traced transaction time (needs 95%)",
            (1.0 - other) * 100.0
        ));
    }
    let chrome = o.dir.join(format!("trace-{}.json", o.workload.name()));
    let driver: Vec<&Spans> = run.clients.iter().map(|c| &c.spans).collect();
    let server: Vec<&Spans> = t.spans.iter().collect();
    write_chrome(&chrome, &driver, &server)?;
    let mut x = Json::obj();
    x.set("latency_mean_ms", run.mean_latency_ms());
    j.set("layer", map_json(&m))
        .set("extra", x)
        .set("chrome", chrome.display().to_string())
        .set("attempted", run.measured_commits())
        .set("failed", 0u64);
    Ok(errors)
}
