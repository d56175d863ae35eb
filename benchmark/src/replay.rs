//! Checking and timing a live rep's wire trace.
//!
//! [`check_and_time`] first runs `ccdb_server::replay` (the oracle
//! check: zero decision diffs), then re-drives every recorded message
//! single-threaded through a fresh [`ShardedEngine`] with tracing off,
//! timing each layer's calls: frame decode, the control section
//! ([`ShardedEngine::step`]: the `ServerCore` decision, MPL admission and
//! lock table) and render ([`ShardedEngine::render`]: image verify and
//! install, image reads, frame encode). Inbound commit payloads are
//! regenerated with `page_image(p, ServerCore::commit_version(txn))`.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::time::Instant;

use ccdb_lock::ClientId;
use ccdb_model::table5_database;
use ccdb_obs::Json;
use ccdb_proto::{Algorithm, ServerCore, Tuning, C2S};
use ccdb_server::engine::Decision;
use ccdb_server::trace::c2s_from_json;
use ccdb_server::{decode_frame_with_payload, encode_frame_with_payload, Frame, ShardedEngine};
use ccdb_storage::page_image;

use crate::spans::Spans;

/// Replay span layers.
pub const SPAN_NAMES: &[&str] = &["decode", "step", "render"];

/// What the timed replay measured.
#[derive(Default)]
pub struct ReplayTimes {
    /// Commits the fresh engine made.
    pub commits: u64,
    /// Lock requests, blocks and deadlocks decided.
    pub lock_requests: u64,
    /// See `lock_requests`.
    pub lock_blocks: u64,
    /// See `lock_requests`.
    pub lock_deadlocks: u64,
    /// Callbacks sent.
    pub callbacks: u64,
    /// Self time per [`SPAN_NAMES`] layer, ns.
    pub layer_ns: Vec<u64>,
    /// The replay's spans (for the Chrome trace).
    pub spans: Option<Spans>,
}

fn lines(path: &Path) -> Result<std::io::Lines<BufReader<File>>, String> {
    let f = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    Ok(BufReader::new(f).lines())
}

/// Oracle-check a wire trace, then time its re-execution.
pub fn check_and_time(path: &Path) -> Result<ReplayTimes, String> {
    let f = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let report = ccdb_server::replay(BufReader::new(f))?;
    if !report.ok() {
        return Err(format!(
            "replay found {} diffs; first: {}",
            report.diffs.len(),
            report.diffs[0]
        ));
    }

    let mut it = lines(path)?;
    let header = it.next().ok_or("empty trace")?.map_err(|e| e.to_string())?;
    let h = Json::parse(&header)?;
    let num = |k: &str| -> Result<u32, String> {
        h.get(k)
            .and_then(|v| v.as_u64())
            .map(|v| v as u32)
            .ok_or_else(|| format!("trace header lacks {k}"))
    };
    let alg = h.get("alg").and_then(|v| v.as_str()).ok_or("no alg")?;
    let algorithm = Algorithm::from_label(alg).ok_or_else(|| format!("unknown alg {alg}"))?;
    let page_size = num("page_size")?;
    let engine = ShardedEngine::new(
        algorithm,
        Tuning::default(),
        num("clients")?,
        num("mpl")?,
        num("lock_shards")?,
        num("engine_shards").unwrap_or(1),
        page_size,
        false,
        table5_database(),
    );

    let mut sp = Spans::new(SPAN_NAMES, Instant::now(), true);
    let mut t = ReplayTimes::default();
    for line in it {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(&line)?;
        if j.get("footer").is_some() {
            continue;
        }
        let seq = j
            .get("seq")
            .and_then(|v| v.as_u64())
            .ok_or("line without seq")?;
        let from = ClientId(
            j.get("from")
                .and_then(|v| v.as_u64())
                .ok_or("line without from")? as u32,
        );
        let c2s = j.get("c2s").ok_or("line without c2s")?;
        sp.set_group(seq);
        let (msg, payload) = if c2s.get("t").and_then(|v| v.as_str()) == Some("bye") {
            (None, Vec::new())
        } else {
            let msg = c2s_from_json(c2s)?;
            let payload = match &msg {
                C2S::Commit { txn, dirty, .. } => {
                    let v = ServerCore::commit_version(*txn);
                    dirty
                        .iter()
                        .flat_map(|p| page_image(*p, v, page_size as usize))
                        .collect()
                }
                _ => Vec::new(),
            };
            let bytes = encode_frame_with_payload(&Frame::C2S(msg), page_size, &payload)
                .map_err(|e| format!("seq {seq}: {e}"))?;
            let d = sp.open(0);
            let decoded = decode_frame_with_payload(&bytes, page_size);
            sp.close(d);
            match decoded.map_err(|e| format!("seq {seq}: {e}"))? {
                (Frame::C2S(m), payload, _) => (Some(m), payload),
                (other, _, _) => return Err(format!("seq {seq}: decoded {other:?}")),
            }
        };
        let s = sp.open(1);
        let step = engine.step(from, msg, payload);
        sp.close(s);
        let r = sp.open(2);
        let rendered = engine.render(&step);
        sp.close(r);
        if !rendered.payload_ok {
            return Err(format!(
                "seq {seq}: regenerated commit image failed to verify"
            ));
        }
        for d in &step.eff.decisions {
            match d {
                Decision::LockGranted { .. } => t.lock_requests += 1,
                Decision::LockBlocked { .. } => {
                    t.lock_requests += 1;
                    t.lock_blocks += 1;
                }
                Decision::LockDeadlock { .. } => {
                    t.lock_requests += 1;
                    t.lock_deadlocks += 1;
                }
                Decision::Callback { .. } => t.callbacks += 1,
                Decision::Committed { .. } => t.commits += 1,
                _ => {}
            }
        }
    }
    if t.commits != report.commits {
        return Err(format!(
            "timed replay made {} commits, the oracle replay {}",
            t.commits, report.commits
        ));
    }
    t.layer_ns = sp.self_ns();
    t.spans = Some(sp);
    Ok(t)
}
