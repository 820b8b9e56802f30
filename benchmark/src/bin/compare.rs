//! `compare A B`: two results files (one JSON line per workload, as
//! `bluedbm-benchmark --append` writes them) → one row per workload ×
//! metric with the delta and the bound from the contract.
//!
//! A host-time metric is flagged when B is worse than A by more than its
//! bound. A simulated metric, the digest and the event count are flagged
//! on any difference when both files ran the same seed — they are pure
//! functions of it. Exit code 1 when anything is flagged, 2 on unusable
//! input.

use std::process::ExitCode;

use bluedbm_benchmark::spec::{self, Better, Kind};
use bluedbm_trace::json::{self, Json};

fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

fn text<'a>(record: &'a Json, key: &str) -> &'a str {
    record.get(key).and_then(Json::as_str).unwrap_or("?")
}

fn number(record: &Json, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(record, |node, key| node.get(key))?
        .as_f64()
}

/// Compare the two files; returns how many rows were flagged.
fn compare(a: &[Json], b: &[Json]) -> Result<usize, String> {
    let mut flagged = 0;
    println!(
        "{:<18} {:<18} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "delta %", "bound %"
    );
    for w in &spec::WORKLOADS {
        let find = |records: &'_ [Json]| {
            records
                .iter()
                .rev()
                .find(|r| text(r, "workload") == w.name)
                .cloned()
        };
        let (Some(ra), Some(rb)) = (find(a), find(b)) else {
            return Err(format!(
                "workload `{}` is missing from one of the files",
                w.name
            ));
        };
        let meta = |r: &Json, key: &str| r.get("meta").and_then(|m| m.get(key)).cloned();
        let same_seed =
            meta(&ra, "seed") == meta(&rb, "seed") && meta(&ra, "smoke") == meta(&rb, "smoke");
        let mut row =
            |metric: &str, va: String, vb: String, delta: String, bound: String, verdict: &str| {
                println!(
                    "{:<18} {:<18} {:>16} {:>16} {:>9} {:>7}  {verdict}",
                    w.name, metric, va, vb, delta, bound
                );
                if verdict.starts_with("FLAG") {
                    flagged += 1;
                }
            };
        for m in spec::END_TO_END
            .iter()
            .filter(|m| m.workloads.contains(&w.name))
        {
            let (Some(va), Some(vb)) = (
                number(&ra, &["metrics", m.name, "value"]),
                number(&rb, &["metrics", m.name, "value"]),
            ) else {
                return Err(format!(
                    "{}: metric `{}` is missing from one of the files",
                    w.name, m.name
                ));
            };
            let delta = (vb / va - 1.0) * 100.0;
            let worse = if m.better == Better::Lower {
                delta
            } else {
                -delta
            };
            let unresolved = [&ra, &rb].iter().any(|r| {
                r.get("metrics")
                    .and_then(|x| x.get(m.name))
                    .and_then(|x| x.get("unresolved"))
                    == Some(&Json::Bool(true))
            });
            let verdict = match m.kind {
                _ if unresolved => "unresolved (host cannot resolve this metric)",
                Kind::Sim if same_seed && va != vb => {
                    "FLAG: simulated metric changed at the same seed"
                }
                Kind::Sim if same_seed => "identical",
                _ if worse > m.bound * 100.0 => "FLAG: worse than the bound",
                _ => "within bound",
            };
            row(
                m.name,
                format!("{va:.6}"),
                format!("{vb:.6}"),
                format!("{delta:+.2}"),
                format!("{:.1}", m.bound * 100.0),
                verdict,
            );
        }
        for key in ["digest", "events"] {
            let show = |r: &Json| match r.get(key) {
                Some(Json::Str(s)) => s.clone(),
                Some(Json::Num(n)) => format!("{n}"),
                _ => "?".into(),
            };
            let (va, vb) = (show(&ra), show(&rb));
            let verdict = match (same_seed, va == vb) {
                (true, true) => "identical",
                (true, false) => "FLAG: changed at the same seed",
                (false, _) => "different seeds, not compared",
            };
            row(key, va, vb, String::new(), String::new(), verdict);
        }
        for (label, r) in [("A", &ra), ("B", &rb)] {
            if number(r, &["failed"]) != Some(0.0) {
                row(
                    "fail_share",
                    String::new(),
                    String::new(),
                    String::new(),
                    "0".into(),
                    &format!("FLAG: run {label} failed its output checks"),
                );
            }
        }
    }
    Ok(flagged)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [a, b] = args.as_slice() else {
        eprintln!("usage: compare A.jsonl B.jsonl");
        return ExitCode::from(2);
    };
    match load(a).and_then(|ra| load(b).and_then(|rb| compare(&ra, &rb))) {
        Ok(0) => {
            println!("no metric flagged");
            ExitCode::SUCCESS
        }
        Ok(n) => {
            println!("{n} row(s) flagged");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}
