//! End-to-end checks of the benchmark binary at tiny (`--quick`) sizes.

use std::path::{Path, PathBuf};
use std::process::Command;

use ccdb_benchmark::live::run_live;
use ccdb_benchmark::replay::check_and_time;
use ccdb_benchmark::spec::{live_spec, valid_name, BenchSpec, Workload};
use ccdb_model::AccessSkew;
use ccdb_obs::Json;

const EXE: &str = env!("CARGO_BIN_EXE_ccdb-benchmark");

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn last_line(out: &std::process::Output) -> Json {
    let text = String::from_utf8_lossy(&out.stdout);
    Json::parse(text.lines().last().expect("a result line")).expect("a JSON result line")
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("no metrics object in {}", result.render()),
    }
}

#[test]
fn every_declared_name_is_reported_and_nothing_else() {
    let spec = BenchSpec::declared().expect("BENCHMARK.json loads");
    let declared: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, declared);
    let e2e: Vec<String> = spec.end_to_end.iter().map(|(n, _, _)| n.clone()).collect();
    for name in spec.workloads.iter().chain(&e2e).chain(&spec.per_layer) {
        assert!(valid_name(name), "bad name {name:?}");
    }
    for w in &spec.workloads {
        for (trace, expected) in [("0", &e2e), ("1", &spec.per_layer)] {
            let out = Command::new(EXE)
                .args(["--workload", w, "--seed", "7", "--seconds", "0"])
                .args(["--trace", trace, "--quick"])
                .output()
                .unwrap();
            assert!(out.status.success(), "{w} --trace {trace} failed");
            let result = last_line(&out);
            assert_eq!(
                result.get("correct").and_then(|v| v.as_bool()),
                Some(true),
                "{w} --trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(result.get("attempted").and_then(|v| v.as_u64()).unwrap() >= 1);
            assert_eq!(result.get("failed").and_then(|v| v.as_u64()), Some(0));
            let mut got = metric_names(&result);
            let mut want = expected.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{w} --trace {trace}");
            for name in &got {
                let value = result.get("metrics").unwrap().get(name).unwrap();
                assert!(value.get("value").and_then(|v| v.as_f64()).is_some());
            }
        }
    }
}

#[test]
fn run_document_reports_unsupported_percentiles_as_null() {
    let out_file = scratch("run-doc").join("benchmark.json");
    let out = Command::new(EXE)
        .args(["run", "--quick", "--seed", "3", "--out"])
        .arg(&out_file)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(&out_file).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("ccdb.benchmark/v1")
    );
    for key in ["nproc", "cpu_model", "rustc", "git_head"] {
        assert!(doc.get("host").unwrap().get(key).is_some(), "host.{key}");
    }
    let workloads = doc.get("workloads").unwrap();
    // Seven simulation run times leave no sample beyond p95: not reportable.
    let des = workloads
        .get("des_short")
        .unwrap()
        .get("end_to_end")
        .unwrap();
    let p95 = des.get("latency_p95_ms").unwrap();
    assert_eq!(p95.get("median"), Some(&Json::Null));
    assert!(p95.get("reason").and_then(|v| v.as_str()).is_some());
    // 200 quick transactions leave 10 samples beyond p95: reportable.
    let srv = workloads.get("srv_cb_uniform").unwrap();
    let e2e = srv.get("end_to_end").unwrap();
    for name in ["latency_p50_ms", "latency_p95_ms"] {
        let p = e2e.get(name).unwrap();
        assert!(p.get("median").and_then(|v| v.as_f64()).is_some(), "{name}");
        assert_eq!(
            p.get("values").and_then(|v| v.items()).map(<[Json]>::len),
            Some(1)
        );
    }
    let chrome = srv.get("chrome_trace").and_then(|v| v.as_str()).unwrap();
    let trace = Json::parse(&std::fs::read_to_string(chrome).unwrap()).unwrap();
    assert!(!trace
        .get("traceEvents")
        .unwrap()
        .items()
        .unwrap()
        .is_empty());

    // A run compares clean against itself.
    let cmp = Command::new(EXE)
        .arg("compare")
        .arg(&out_file)
        .arg(&out_file)
        .output()
        .unwrap();
    assert!(cmp.status.success());
    assert!(!String::from_utf8_lossy(&cmp.stdout).contains("worse"));
}

#[test]
fn tampered_wire_trace_fails_the_replay_check() {
    let dir = scratch("tamper");
    let spec = live_spec(Workload::SrvCbUniform, 5, true);
    let run = run_live(Path::new(EXE), &dir, &spec, true, "t").unwrap();
    let wire = run.wire_trace.expect("a traced run writes a wire trace");
    check_and_time(&wire).expect("the faithful trace replays clean");

    let text = std::fs::read_to_string(&wire).unwrap();
    let tampered = text.replacen("-> granted", "-> blocked", 1);
    assert_ne!(text, tampered, "the trace grants a lock somewhere");
    let bad = dir.join("tampered.jsonl");
    std::fs::write(&bad, tampered).unwrap();
    assert!(check_and_time(&bad).is_err());
}

#[test]
fn hot_skew_callback_commits_count_local_commits() {
    // Callback locking on a hot set that fits the client cache: read-only
    // transactions running on retained locks commit without a server
    // message, so server commits alone fall short of the quota.
    let mut spec = live_spec(Workload::SrvCbUniform, 11, true);
    spec.skew = Some(AccessSkew {
        hot_fraction: 0.02,
        hot_access_prob: 0.95,
    });
    spec.prob_write = 0.05;
    let run = run_live(Path::new(EXE), &scratch("local-commits"), &spec, false, "t").unwrap();
    let local = run.sum(|c| c.local_commits);
    let quota = run.sum(|c| c.total_commits);
    assert!(local > 0, "the workload commits locally");
    assert!(run.server.commits < quota);
    assert_eq!(run.server.commits + local, quota);
    run.check_commit_total().unwrap();
}
