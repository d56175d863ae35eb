//! `ccdb-benchmark`: see the crate README.
//!
//! ```text
//! ccdb-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//! ccdb-benchmark run [--seed N] [--quick] [--out FILE]
//! ccdb-benchmark compare BASE.json NEW.json
//! ```
//!
//! `rep` and `serve` are internal: the child processes the benchmark
//! spawns for each rep and for the page-server.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ccdb_benchmark::compare;
use ccdb_benchmark::rep::{self, RepOptions};
use ccdb_benchmark::spec::{BenchSpec, Workload, DEFAULT_SEED};
use ccdb_benchmark::suite::{self, Ctx};
use ccdb_obs::Json;
use ccdb_proto::Algorithm;

const USAGE: &str = "usage:
  ccdb-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
  ccdb-benchmark run [--seed N] [--quick] [--out FILE]
  ccdb-benchmark compare BASE.json NEW.json";

const FLAGS: [&str; 2] = ["--quick", "--traced"];

/// `--key value` options and bare flags, plus positional arguments.
struct Args {
    opts: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut opts = HashMap::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if FLAGS.contains(&a.as_str()) {
                opts.insert(a.clone(), String::new());
            } else if a.starts_with("--") {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                opts.insert(a.clone(), v.clone());
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { opts, positional })
    }

    fn flag(&self, k: &str) -> bool {
        self.opts.contains_key(k)
    }

    fn get(&self, k: &str) -> Option<&str> {
        self.opts.get(k).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, k: &str, default: T) -> Result<T, String> {
        match self.get(k) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{k}: bad value {v:?}")),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("--workload").ok_or("--workload is required")?;
        Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

/// Scratch output lives next to the build: `<target dir>/ccdb-benchmark`.
fn out_root(exe: &Path) -> PathBuf {
    exe.parent()
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
        .join("ccdb-benchmark")
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ccdb-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn real_main(raw: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (cmd, rest) = match raw.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &raw[1..]),
        _ => ("drive", raw),
    };
    let args = Args::parse(rest)?;
    let ctx = |dir: PathBuf| -> Result<Ctx, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Ctx {
            exe: exe.clone(),
            dir,
            seed: args.num("--seed", DEFAULT_SEED)?,
            quick: args.flag("--quick"),
        })
    };
    match cmd {
        "drive" => {
            let w = args.workload()?;
            let seconds: f64 = args.num("--seconds", 10.0)?;
            let traced = match args.get("--trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            };
            let ctx = ctx(out_root(&exe).join(w.name()))?;
            println!("{}", suite::drive(&ctx, w, seconds, traced).render());
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let root = out_root(&exe);
            let ctx = ctx(root.join("run"))?;
            let doc = suite::run_suite(&ctx);
            let out = args
                .get("--out")
                .map_or_else(|| root.join("benchmark.json"), PathBuf::from);
            std::fs::write(&out, doc.render_pretty())
                .map_err(|e| format!("write {}: {e}", out.display()))?;
            print!("{}", suite::table(&doc));
            println!("document: {}", out.display());
            let correct = doc.get("correct").and_then(|v| v.as_bool()) == Some(true);
            Ok(if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "compare" => {
            let [base, new] = args.positional.as_slice() else {
                return Err("compare takes BASE.json NEW.json".to_string());
            };
            let read = |p: &str| -> Result<Json, String> {
                Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            };
            let spec = BenchSpec::declared()?;
            let (table, worse) = compare::compare(&read(base)?, &read(new)?, &spec)?;
            print!("{table}");
            Ok(if worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "rep" => {
            let o = RepOptions {
                workload: args.workload()?,
                seed: args.num("--seed", DEFAULT_SEED)?,
                quick: args.flag("--quick"),
                traced: args.flag("--traced"),
                shards: args.num("--shards", 1)?,
                dir: PathBuf::from(args.get("--dir").ok_or("--dir is required")?),
            };
            println!("{}", rep::run(&o, &exe).render());
            Ok(ExitCode::SUCCESS)
        }
        "serve" => {
            let alg = args.get("--alg").ok_or("--alg is required")?;
            let algorithm =
                Algorithm::from_label(alg).ok_or_else(|| format!("unknown algorithm {alg:?}"))?;
            let mut opts = ccdb_server::ServeOptions::new(algorithm);
            opts.clients = args.num("--clients", 2)?;
            opts.engine_shards = args.num("--shards", 1)?;
            opts.once = true;
            opts.port = args.num("--port", 0)?;
            opts.trace = args.get("--trace").map(PathBuf::from);
            ccdb_benchmark::live::serve_child(&opts)?;
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}
