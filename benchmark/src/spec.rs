//! What the benchmark runs and reports: the four pinned workloads, their
//! sizes, and the metric names `BENCHMARK.json` declares.

use ccdb_core::{experiments, Algorithm, SimConfig};
use ccdb_des::EventKind;
use ccdb_des::SimDuration;
use ccdb_model::AccessSkew;
use ccdb_obs::Json;

/// The default workload seed of `ccdb-benchmark run`.
pub const DEFAULT_SEED: u64 = 0xCCDB;

/// The pinned workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// DES at the §5.1 base point, all seven algorithm variants.
    DesShort,
    /// DES, callback locking, 50 clients on a 10 % hot region.
    DesHot,
    /// Live reactor page-server, callback locking, uniform access.
    SrvCbUniform,
    /// Live reactor page-server, caching certification, hot access.
    SrvOccHot,
}

impl Workload {
    /// Every workload, in reporting (and interleaving) order.
    pub const ALL: [Workload; 4] = [
        Workload::DesShort,
        Workload::DesHot,
        Workload::SrvCbUniform,
        Workload::SrvOccHot,
    ];

    /// Stable name, as in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DesShort => "des_short",
            Workload::DesHot => "des_hot",
            Workload::SrvCbUniform => "srv_cb_uniform",
            Workload::SrvOccHot => "srv_occ_hot",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the simulator workloads.
    pub fn is_des(self) -> bool {
        matches!(self, Workload::DesShort | Workload::DesHot)
    }
}

/// One DES simulation run of a workload: a label and its configuration.
pub struct DesOp {
    /// The algorithm label (the op's name in reports).
    pub label: &'static str,
    /// The full configuration, seed and horizon included.
    pub cfg: SimConfig,
}

/// The simulation runs one DES rep performs, in order.
pub fn des_ops(w: Workload, seed: u64, quick: bool) -> Vec<DesOp> {
    let secs = SimDuration::from_secs;
    match w {
        Workload::DesShort => {
            let (warmup, measure) = if quick { (2, 30) } else { (10, 1500) };
            Algorithm::ALL
                .into_iter()
                .map(|alg| DesOp {
                    label: alg.label(),
                    cfg: experiments::short_txn(alg, 25, 0.25, 0.2)
                        .with_seed(seed)
                        .with_horizon(secs(warmup), secs(measure)),
                })
                .collect()
        }
        Workload::DesHot => {
            // 8000 simulated seconds measured, as four replications so a
            // rep yields more than one run time.
            let (reps, warmup, measure) = if quick { (2, 2, 50) } else { (4, 10, 2000) };
            (0..reps)
                .map(|i| {
                    let mut cfg = experiments::short_txn(Algorithm::Callback, 50, 0.25, 0.5)
                        .with_seed(seed.wrapping_add(i))
                        .with_horizon(secs(warmup), secs(measure));
                    cfg.db = cfg.db.with_skew(AccessSkew {
                        hot_fraction: 0.1,
                        hot_access_prob: 0.7,
                    });
                    DesOp {
                        label: Algorithm::Callback.label(),
                        cfg,
                    }
                })
                .collect()
        }
        _ => panic!("{} is not a DES workload", w.name()),
    }
}

/// A live-server workload's protocol and load shape.
#[derive(Clone, Debug)]
pub struct LiveSpec {
    /// Algorithm the server runs.
    pub algorithm: Algorithm,
    /// Skewed access, or `None` for the paper's uniform model.
    pub skew: Option<AccessSkew>,
    /// `ProbWrite` of the short-batch transactions.
    pub prob_write: f64,
    /// Concurrent client connections (one thread each).
    pub clients: u32,
    /// Discarded warm-up transactions per client.
    pub warmup_txns: u32,
    /// Measured transactions per client.
    pub txns: u32,
    /// Engine shards of the server.
    pub engine_shards: u32,
    /// Workload seed.
    pub seed: u64,
}

/// Client connections of every live workload: one thread and one socket
/// each, which on a 2-CPU host is one per CPU.
pub const LIVE_CLIENTS: u32 = 2;

/// The live-server spec of a workload: about 1.5 s of load per rep, which
/// gives a rep's p95 600 samples beyond it.
pub fn live_spec(w: Workload, seed: u64, quick: bool) -> LiveSpec {
    let (algorithm, skew, prob_write) = match w {
        Workload::SrvCbUniform => (Algorithm::Callback, None, 0.2),
        Workload::SrvOccHot => (
            Algorithm::Certification { inter: true },
            Some(AccessSkew {
                hot_fraction: 0.04,
                hot_access_prob: 0.8,
            }),
            0.5,
        ),
        _ => panic!("{} is not a live-server workload", w.name()),
    };
    let (warmup_txns, txns) = if quick { (20, 100) } else { (500, 6000) };
    LiveSpec {
        algorithm,
        skew,
        prob_write,
        clients: LIVE_CLIENTS,
        warmup_txns,
        txns,
        engine_shards: 1,
        seed,
    }
}

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Stable name.
    pub name: String,
    /// Unit label.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics, reported by every untraced run.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("peak_rss_mb", "MiB", "lower"),
        def("commits_per_s", "1/s", "higher"),
        def("latency_p50_ms", "ms", "lower"),
        def("latency_p95_ms", "ms", "lower"),
        def("attempts_per_commit", "count", "lower"),
    ]
}

/// The per-layer metrics, reported by every traced run. A workload that
/// never enters a layer reports that layer's share or count as 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = Vec::new();
    for kind in EventKind::ALL {
        m.push(def(
            format!("des.kernel.{}.share", kind.label()),
            "share",
            "lower",
        ));
    }
    m.push(def("des.kernel.loop.share", "share", "lower"));
    for kind in EventKind::ALL {
        m.push(def(
            format!("des.kernel.{}.per_txn", kind.label()),
            "count",
            "lower",
        ));
    }
    for alg in Algorithm::ALL {
        m.push(def(
            format!("des.variant.{}.share", alg.label()),
            "share",
            "lower",
        ));
    }
    for i in 0..crate::load::SPAN_NAMES.len() {
        m.push(def(
            format!("load.{}.share", crate::load::layer_key(i)),
            "share",
            "lower",
        ));
    }
    m.push(def("load.round_trips_per_txn", "count", "lower"));
    m.push(def("load.bytes_per_txn", "bytes", "lower"));
    for layer in crate::replay::SPAN_NAMES {
        m.push(def(format!("server.{layer}.share"), "share", "lower"));
    }
    m.push(def("server.residual.share", "share", "lower"));
    m.push(def("lock.requests_per_txn", "count", "lower"));
    m.push(def("lock.blocks_per_txn", "count", "lower"));
    m.push(def("lock.deadlocks_per_txn", "count", "lower"));
    m.push(def("proto.callbacks_per_txn", "count", "lower"));
    m.push(def("net.msgs_per_txn", "count", "lower"));
    m.push(def("core.restarts_per_txn", "count", "lower"));
    m.push(def("storage.cache.hit_ratio", "ratio", "higher"));
    m.push(def("trace.us_per_txn", "us", "lower"));
    m.push(def("trace.overhead", "ratio", "lower"));
    m.push(def("cpu.us_per_txn", "us", "lower"));
    m.push(def("parallel.jobs2_ratio", "ratio", "lower"));
    m
}

/// The repository's `BENCHMARK.json`, built into the binary.
const DECLARED: &str = include_str!("../../BENCHMARK.json");

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Clone, Debug)]
pub struct BenchSpec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics: name, better, bound.
    pub end_to_end: Vec<(String, String, f64)>,
    /// Per-layer metric names.
    pub per_layer: Vec<String>,
}

impl BenchSpec {
    /// Read and check the `BENCHMARK.json` the benchmark was built with.
    pub fn declared() -> Result<BenchSpec, String> {
        let doc = Json::parse(DECLARED)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(|v| v.items())
                .ok_or_else(|| format!("BENCHMARK.json: missing {key}"))
        };
        let name_of = |j: &Json| -> Result<String, String> {
            j.get("name")
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| "entry without a name".to_string())
        };
        let workloads = list("workloads")?
            .iter()
            .map(name_of)
            .collect::<Result<_, _>>()?;
        let end_to_end = list("end_to_end")?
            .iter()
            .map(|j| {
                let better = j
                    .get("better")
                    .and_then(|v| v.as_str())
                    .ok_or("end_to_end entry without better")?;
                let bound = j
                    .get("bound")
                    .and_then(|v| v.as_f64())
                    .ok_or("end_to_end entry without bound")?;
                Ok((name_of(j)?, better.to_string(), bound))
            })
            .collect::<Result<_, String>>()?;
        let per_layer = list("per_layer")?
            .iter()
            .map(name_of)
            .collect::<Result<_, _>>()?;
        Ok(BenchSpec {
            workloads,
            end_to_end,
            per_layer,
        })
    }

    /// The regression bound of an end-to-end metric.
    pub fn bound(&self, metric: &str) -> Option<(f64, bool)> {
        self.end_to_end
            .iter()
            .find(|(n, _, _)| n == metric)
            .map(|(_, better, bound)| (*bound, better == "higher"))
    }
}

/// True if `name` is a legal metric or workload name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
