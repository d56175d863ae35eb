//! DES reps: timed simulation runs through the public entry points
//! (`ccdb_core::run_simulation*`).

use std::collections::BTreeMap;
use std::time::Instant;

use ccdb_core::{
    run_simulation, run_simulation_observed, run_simulation_profiled, Algorithm, ObsOptions,
    RunReport, Trace,
};
use ccdb_des::{EventKind, SimDuration};

use crate::spans::Spans;
use crate::spec::{des_ops, DesOp, Workload};
use crate::stats::median;
use crate::sys;

/// What an untraced DES rep measured.
pub struct DesRep {
    /// Set-up samples: a 1-simulated-second run of each op's config, s.
    pub setup_s: Vec<f64>,
    /// Wall time of each op (one simulation run), s.
    pub op_wall_s: Vec<f64>,
    /// Simulated commits across ops.
    pub commits: u64,
    /// Simulated aborted attempts across ops.
    pub aborts: u64,
    /// `label:events:commits` per op; must be identical across reps.
    pub fingerprint: String,
    /// Peak resident set of this process, MiB.
    pub peak_rss_mib: f64,
}

impl DesRep {
    /// Simulated commits per wall second.
    pub fn commits_per_s(&self) -> f64 {
        self.commits as f64 / self.op_wall_s.iter().sum::<f64>().max(1e-9)
    }

    /// Median set-up time, s.
    pub fn setup_median(&self) -> f64 {
        median(&self.setup_s).unwrap_or(0.0)
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn fingerprint(label: &str, r: &RunReport) -> String {
    format!("{label}:{}:{}", r.events, r.commits)
}

/// Time the set-up of every op: a 1-simulated-second run of its config
/// (model construction plus the first simulated second).
fn setup_samples(ops: &[DesOp]) -> Vec<f64> {
    ops.iter()
        .map(|op| {
            let cfg = op
                .cfg
                .clone()
                .with_horizon(SimDuration::ZERO, SimDuration::from_secs(1));
            timed(|| std::hint::black_box(run_simulation(cfg))).1
        })
        .collect()
}

/// Run one untraced DES rep of `w`.
pub fn run_rep(w: Workload, seed: u64, quick: bool) -> DesRep {
    let ops = des_ops(w, seed, quick);
    let setup_s = setup_samples(&ops);
    let mut op_wall_s = Vec::with_capacity(ops.len());
    let (mut commits, mut aborts) = (0, 0);
    let mut prints = Vec::with_capacity(ops.len());
    for op in ops {
        let (report, wall) = timed(|| run_simulation(op.cfg));
        op_wall_s.push(wall);
        commits += report.commits;
        aborts += report.aborts;
        prints.push(fingerprint(op.label, &report));
    }
    DesRep {
        setup_s,
        op_wall_s,
        commits,
        aborts,
        fingerprint: prints.join(";"),
        peak_rss_mib: sys::peak_rss_mib(),
    }
}

/// Span layers of a traced DES rep: each op runs profiled, plain, and
/// through a two-worker dispatch window, one span each (group = op).
pub const SPAN_NAMES: &[&str] = &["profiled", "plain", "jobs2"];

/// What a traced DES rep produced.
pub struct DesTraced {
    /// The per-layer metrics this rep measures.
    pub metrics: BTreeMap<String, f64>,
    /// Correctness failures.
    pub errors: Vec<String>,
    /// Simulated commits of the plain runs.
    pub commits: u64,
    /// One span per simulation run.
    pub spans: Spans,
}

/// Run one traced DES rep of `w`: every op profiled, then plain, then
/// through a two-worker dispatch window.
pub fn run_traced(w: Workload, seed: u64, quick: bool) -> DesTraced {
    let ops = des_ops(w, seed, quick);
    let mut sp = Spans::new(SPAN_NAMES, Instant::now(), true);
    let mut errors = Vec::new();
    let mut nanos = [0u64; EventKind::ALL.len()];
    let mut counts = [0u64; EventKind::ALL.len()];
    let (mut profiled_s, mut serial_s, mut jobs2_s, mut cpu_s) = (0.0, 0.0, 0.0, 0.0);
    let mut variant_s: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut commits, mut requests, mut blocks, mut deadlocks) = (0u64, 0u64, 0u64, 0u64);
    let (mut callbacks, mut aborts) = (0u64, 0u64);
    let (mut msgs, mut hits) = (0.0, 0.0);
    for (i, op) in ops.into_iter().enumerate() {
        sp.set_group(i as u64);
        let s = sp.open(0);
        let (profiled, wall) = timed(|| run_simulation_profiled(op.cfg.clone()));
        sp.close(s);
        profiled_s += wall;
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            nanos[i] += profiled.profile.nanos(kind);
            counts[i] += profiled.profile.count(kind);
        }

        let cpu0 = sys::cpu_seconds();
        let s = sp.open(1);
        let (serial, wall) = timed(|| run_simulation(op.cfg.clone()));
        sp.close(s);
        cpu_s += sys::cpu_seconds() - cpu0;
        serial_s += wall;
        *variant_s.entry(op.label).or_default() += wall;

        let obs = ObsOptions {
            kernel_jobs: 2,
            ..ObsOptions::default()
        };
        let s = sp.open(2);
        let (windowed, wall) =
            timed(|| run_simulation_observed(op.cfg.clone(), Trace::disabled(), obs).report);
        sp.close(s);
        jobs2_s += wall;

        let rendered = serial.to_json().render();
        if windowed.to_json().render() != rendered {
            errors.push(format!(
                "{}: kernel_jobs=2 report differs from serial",
                op.label
            ));
        }
        if profiled.report.to_json().render() != rendered {
            errors.push(format!("{}: profiled report differs from plain", op.label));
        }
        let c = serial.commits;
        commits += c;
        requests += serial.lock_stats.requests;
        blocks += serial.lock_stats.blocks;
        deadlocks += serial.lock_stats.deadlocks;
        callbacks += serial.callbacks;
        aborts += serial.aborts;
        msgs += serial.msgs_per_commit * c as f64;
        hits += serial.cache_hit_ratio * c as f64;
    }

    let per_txn = |x: f64| x / (commits.max(1)) as f64;
    let wall_ns = profiled_s * 1e9;
    let mut m = BTreeMap::new();
    let mut kinds_share = 0.0;
    for (i, kind) in EventKind::ALL.into_iter().enumerate() {
        let share = nanos[i] as f64 / wall_ns.max(1.0);
        kinds_share += share;
        m.insert(format!("des.kernel.{}.share", kind.label()), share);
        m.insert(
            format!("des.kernel.{}.per_txn", kind.label()),
            per_txn(counts[i] as f64),
        );
    }
    m.insert("des.kernel.loop.share".into(), 1.0 - kinds_share);
    for alg in Algorithm::ALL {
        let s = variant_s.get(alg.label()).copied().unwrap_or(0.0);
        m.insert(
            format!("des.variant.{}.share", alg.label()),
            s / serial_s.max(1e-9),
        );
    }
    m.insert("lock.requests_per_txn".into(), per_txn(requests as f64));
    m.insert("lock.blocks_per_txn".into(), per_txn(blocks as f64));
    m.insert("lock.deadlocks_per_txn".into(), per_txn(deadlocks as f64));
    m.insert("proto.callbacks_per_txn".into(), per_txn(callbacks as f64));
    m.insert("net.msgs_per_txn".into(), per_txn(msgs));
    m.insert("core.restarts_per_txn".into(), per_txn(aborts as f64));
    m.insert("storage.cache.hit_ratio".into(), per_txn(hits));
    m.insert("trace.us_per_txn".into(), per_txn(profiled_s * 1e6));
    m.insert("trace.overhead".into(), profiled_s / serial_s.max(1e-9));
    m.insert("cpu.us_per_txn".into(), per_txn(cpu_s * 1e6));
    m.insert("parallel.jobs2_ratio".into(), jobs2_s / serial_s.max(1e-9));
    if commits == 0 {
        errors.push("no simulated commits".to_string());
    }
    DesTraced {
        metrics: m,
        errors,
        commits,
        spans: sp,
    }
}
