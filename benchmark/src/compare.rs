//! `ccdb-benchmark compare BASE.json NEW.json`: one row per end-to-end
//! metric × workload, with a verdict against the metric's bound from
//! `BENCHMARK.json`.

use std::fmt;

use ccdb_obs::Json;

use crate::spec::BenchSpec;
use crate::stats::quartiles;

/// How NEW relates to BASE on one metric × workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every NEW run beats every BASE run, or the median improved by
    /// more than the bound.
    Better,
    /// The median got worse by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    WithinBound,
    /// A side's spread (IQR over median) is wider than the bound, so the
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Median and IQR-over-median of a side's raw values.
fn spread(values: &[f64]) -> Option<(f64, f64)> {
    let (m, q1, q3) = quartiles(values)?;
    Some((m, (q3 - q1) / m.abs().max(f64::MIN_POSITIVE)))
}

/// The verdict for raw per-rep values `base` and `new` of a metric with
/// regression `bound` (a share of the base median).
pub fn verdict(base: &[f64], new: &[f64], bound: f64, higher_better: bool) -> Option<Verdict> {
    let (bm, biqr) = spread(base)?;
    let (nm, niqr) = spread(new)?;
    let better = |a: f64, b: f64| if higher_better { a > b } else { a < b };
    if new.iter().all(|n| base.iter().all(|b| better(*n, *b))) {
        return Some(Verdict::Better);
    }
    if biqr > bound || niqr > bound {
        return Some(Verdict::Unresolved);
    }
    let delta = (nm - bm) / bm.abs().max(f64::MIN_POSITIVE);
    let worsened = if higher_better { -delta } else { delta };
    Some(if worsened > bound {
        Verdict::Worse
    } else if worsened < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    })
}

fn values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .items()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Compare two run documents. Returns the table and whether any row is
/// "worse".
pub fn compare(base: &Json, new: &Json, spec: &BenchSpec) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    for (doc, which) in [(base, "BASE"), (new, "NEW")] {
        if doc.get("schema").and_then(|s| s.as_str()) != Some(crate::suite::SCHEMA) {
            return Err(format!(
                "{which} is not a {} document",
                crate::suite::SCHEMA
            ));
        }
    }
    if base.get("quick").map(Json::render) != new.get("quick").map(Json::render) {
        return Err("one document is a quick run and the other is not".to_string());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<16} {:>12} {:>8} {:>12} {:>8} {:>8}  verdict",
        "workload", "metric", "base", "iqr", "new", "iqr", "delta"
    );
    let mut any_worse = false;
    for w in &spec.workloads {
        for (metric, better, bound) in &spec.end_to_end {
            let (Some(b), Some(n)) = (values(base, w, metric), values(new, w, metric)) else {
                let _ = writeln!(out, "{w:<16} {metric:<16} {:>62}", "n/a (no values)");
                continue;
            };
            let Some(v) = verdict(&b, &n, *bound, better == "higher") else {
                continue;
            };
            any_worse |= v == Verdict::Worse;
            let (bm, biqr) = spread(&b).expect("verdict had values");
            let (nm, niqr) = spread(&n).expect("verdict had values");
            let _ = writeln!(
                out,
                "{w:<16} {metric:<16} {bm:>12.4} {:>7.1}% {nm:>12.4} {:>7.1}% {:>+7.1}%  {v} (bound {:.0}%)",
                biqr * 100.0,
                niqr * 100.0,
                (nm / bm - 1.0) * 100.0,
                bound * 100.0
            );
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_verdict() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better (a latency): +2 % is within a 10 % bound.
        assert_eq!(
            verdict(&base, &[102.0, 101.5, 102.5, 101.0, 103.0], 0.1, false),
            Some(Verdict::WithinBound)
        );
        // +20 % with a tight spread is worse.
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0, 120.5, 119.5], 0.1, false),
            Some(Verdict::Worse)
        );
        // Every NEW run beats every BASE run: better even within bound.
        assert_eq!(
            verdict(&base, &[98.0, 98.5, 97.0, 98.2, 98.9], 0.1, false),
            Some(Verdict::Better)
        );
        // A median improved beyond the bound counts as better, even when
        // one NEW run is no better than the BASE runs.
        let new = [80.0, 80.5, 79.5, 80.2, 79.8, 80.1, 79.9, 80.3, 100.0];
        assert_eq!(verdict(&base, &new, 0.1, false), Some(Verdict::Better));
        // A wide NEW spread leaves the comparison unresolved.
        assert_eq!(
            verdict(&base, &[70.0, 130.0, 100.0, 60.0, 140.0], 0.1, false),
            Some(Verdict::Unresolved)
        );
        // Direction matters: for a throughput, lower is worse.
        assert_eq!(
            verdict(&base, &[80.0, 81.0, 79.0, 80.5, 79.5], 0.1, true),
            Some(Verdict::Worse)
        );
        assert_eq!(verdict(&[], &base, 0.1, true), None);
    }

    fn doc(values: &[f64], quick: bool) -> Json {
        let mut m = Json::obj();
        m.set(
            "values",
            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
        );
        let mut e2e = Json::obj();
        e2e.set("commits_per_s", m);
        let mut w = Json::obj();
        w.set("end_to_end", e2e);
        let mut ws = Json::obj();
        ws.set("des_short", w);
        let mut d = Json::obj();
        d.set("schema", crate::suite::SCHEMA)
            .set("quick", quick)
            .set("workloads", ws);
        d
    }

    #[test]
    fn documents_compare_and_flag_worse() {
        let spec = BenchSpec {
            workloads: vec!["des_short".into()],
            end_to_end: vec![("commits_per_s".into(), "higher".into(), 0.05)],
            per_layer: vec![],
        };
        let base = doc(&[100.0, 100.5, 99.5], false);
        let (table, worse) = compare(&base, &base, &spec).unwrap();
        assert!(!worse);
        assert!(table.contains("within bound"), "{table}");
        let (table, worse) = compare(&base, &doc(&[90.0, 90.5, 89.5], false), &spec).unwrap();
        assert!(worse);
        assert!(table.contains("worse"), "{table}");
        assert!(compare(&base, &doc(&[1.0], true), &spec).is_err());
    }
}
