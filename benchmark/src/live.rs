//! One live-server rep: the reactor page-server in a child process,
//! driven over loopback by the load generator's client threads.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::AtomicU32;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use ccdb_obs::Json;

use crate::load::{run_client, ClientResult, Phases};
use crate::spec::LiveSpec;

/// What the server child reports on its last stdout line.
#[derive(Clone, Debug, Default)]
pub struct ServerResult {
    /// Commits the server processed.
    pub commits: u64,
    /// Peak resident set of the server process, MiB.
    pub peak_rss_mib: f64,
    /// Server-process CPU seconds (user + system, all threads).
    pub cpu_s: f64,
}

/// One server lifetime: setup, load, shutdown.
pub struct LiveRun {
    /// Spawn of the server until every client had its `HelloAck`, s.
    pub setup_s: f64,
    /// The server child's own report.
    pub server: ServerResult,
    /// One result per client.
    pub clients: Vec<ClientResult>,
    /// The wire trace the server wrote, if tracing.
    pub wire_trace: Option<PathBuf>,
}

impl LiveRun {
    /// The window in which every client was running measured
    /// transactions: from the common start to the first client's last
    /// commit, in s since the origin.
    pub fn window(&self) -> (f64, f64) {
        let start = self
            .clients
            .iter()
            .map(|c| c.measured_start)
            .fold(0.0, f64::max);
        let end = self
            .clients
            .iter()
            .filter_map(|c| c.txns.last().map(|t| t.0))
            .fold(f64::INFINITY, f64::min);
        (start, end)
    }

    /// Committed transactions per second over [`LiveRun::window`].
    pub fn commits_per_s(&self) -> f64 {
        let (start, end) = self.window();
        let commits = self
            .clients
            .iter()
            .flat_map(|c| &c.txns)
            .filter(|t| t.0 <= end)
            .count();
        commits as f64 / (end - start).max(1e-9)
    }

    /// Every measured transaction's response time, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| c.txns.iter().map(|t| t.1))
            .collect()
    }

    /// Mean response time of the measured transactions, ms.
    pub fn mean_latency_ms(&self) -> f64 {
        let lat = self.latencies_ms();
        lat.iter().sum::<f64>() / lat.len().max(1) as f64
    }

    /// Measured commits across clients.
    pub fn measured_commits(&self) -> u64 {
        self.clients.iter().map(|c| c.txns.len() as u64).sum()
    }

    /// Sum of a per-client counter.
    pub fn sum(&self, f: impl Fn(&ClientResult) -> u64) -> u64 {
        self.clients.iter().map(f).sum()
    }

    /// The commit-total check: server commits plus the commits clients
    /// made locally must equal every client's quota. (Callback locking
    /// commits a transaction that ran on retained locks and wrote nothing
    /// without a server message, so server commits alone fall short.)
    pub fn check_commit_total(&self) -> Result<(), String> {
        let local = self.sum(|c| c.local_commits);
        let quota = self.sum(|c| c.total_commits);
        if self.server.commits + local != quota {
            return Err(format!(
                "commit total: server {} + local {local} != quota {quota}",
                self.server.commits
            ));
        }
        Ok(())
    }
}

fn kill(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Spawn the server child and run `spec`'s load against it.
///
/// `exe` is the `ccdb-benchmark` binary (the server runs as its `serve`
/// subcommand); `dir` receives the server's stderr and,
/// with `trace`, the wire trace.
pub fn run_live(
    exe: &Path,
    dir: &Path,
    spec: &LiveSpec,
    traced: bool,
    tag: &str,
) -> Result<LiveRun, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let err_file = dir.join(format!("server-{tag}.stderr"));
    let wire_trace = traced.then(|| dir.join(format!("wire-{tag}.jsonl")));
    // A free loopback port for the server, so the clients can connect as
    // soon as it listens (a port file would add a file sync to set-up).
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("pick a port: {e}"))?
        .port();
    let stderr = std::fs::File::create(&err_file).map_err(|e| format!("server stderr: {e}"))?;

    let mut cmd = Command::new(exe);
    cmd.arg("serve")
        .args(["--alg", spec.algorithm.label()])
        .args(["--clients", &spec.clients.to_string()])
        .args(["--shards", &spec.engine_shards.to_string()])
        .args(["--port", &port.to_string()]);
    if let Some(t) = &wire_trace {
        cmd.arg("--trace").arg(t);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(stderr));

    let origin = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawn server: {e}"))?;
    let addr = format!("127.0.0.1:{port}");

    let connected = Barrier::new(spec.clients as usize);
    let warmed = AtomicU32::new(0);
    let done = AtomicU32::new(0);
    let hello_at = Mutex::new(Vec::new());
    let phases = Phases {
        connected: &connected,
        warmed: &warmed,
        done: &done,
        hello_at: &hello_at,
    };
    let results: Vec<std::io::Result<ClientResult>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|id| {
                let (addr, phases) = (&addr, &phases);
                s.spawn(move || run_client(id, addr, spec, traced, origin, phases))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("client thread panicked")))
            })
            .collect()
    });
    let mut clients = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok(c) => clients.push(c),
            Err(e) => {
                kill(&mut child);
                return Err(format!("load client failed: {e}"));
            }
        }
    }
    let setup_s = hello_at
        .into_inner()
        .expect("hello times poisoned")
        .into_iter()
        .fold(0.0, f64::max);

    // The server exits once every client has said Bye.
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            _ => {
                kill(&mut child);
                return Err("server did not exit after every client left".to_string());
            }
        }
    };
    let mut out = String::new();
    if let Some(mut so) = child.stdout.take() {
        let _ = so.read_to_string(&mut out);
    }
    let errors = std::fs::read_to_string(&err_file).unwrap_or_default();
    let _ = std::fs::remove_file(&err_file);
    if !status.success() {
        return Err(format!("server exited with {status}: {}", errors.trim()));
    }
    if errors.contains("mismatch") {
        return Err(format!(
            "server reported page-image mismatches: {}",
            errors.trim()
        ));
    }
    let last = out.lines().last().unwrap_or_default();
    let j = Json::parse(last).map_err(|e| format!("server result line {last:?}: {e}"))?;
    let num = |k: &str| j.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let server = ServerResult {
        commits: j.get("commits").and_then(|v| v.as_u64()).unwrap_or(0),
        peak_rss_mib: num("peak_rss_mib"),
        cpu_s: num("cpu_s"),
    };
    let run = LiveRun {
        setup_s,
        server,
        clients,
        wire_trace,
    };
    run.check_commit_total()?;
    if run.measured_commits() > 0 && run.sum(|c| c.verified) == 0 {
        return Err("no page image was verified".to_string());
    }
    Ok(run)
}

/// The server child: serve `clients` connections once, then print the
/// commit count, peak resident set and CPU time as one JSON line.
pub fn serve_child(opts: &ccdb_server::ServeOptions) -> Result<(), String> {
    let commits = ccdb_server::serve(opts).map_err(|e| format!("serve: {e}"))?;
    let mut j = Json::obj();
    j.set("commits", commits)
        .set("peak_rss_mib", crate::sys::peak_rss_mib())
        .set("cpu_s", crate::sys::cpu_seconds());
    println!("{}", j.render());
    Ok(())
}
