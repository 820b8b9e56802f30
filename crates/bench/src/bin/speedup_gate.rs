//! CI gate for the sharded engine's parallel speedup.
//!
//! Reads a `BENCH_engine.json` trajectory (JSON lines, as written by
//! `scripts/bench.sh`) and — when the recorded host had at least as
//! many cores as the widest sharded row — asserts that on the
//! `mesh8x8_scatter` workload 4-shard execution beats the sequential
//! engine by [`MIN_SPEEDUP`].
//!
//! On oversubscribed hosts (fewer cores than shards) the sharded rows
//! measure the sync protocol's overhead floor, not parallelism, so the
//! gate prints a visible skip notice instead of a verdict.
//!
//! Usage: `speedup_gate [BENCH_engine.json]` — exits non-zero on a
//! missed bar or a malformed/incomplete trajectory file.

use std::process::ExitCode;

/// Minimum events/sec ratio of `sharded4` over `sharded1` on hosts
/// with at least 4 cores (identical event counts per run, so wall-time
/// ratios are inverted events/sec ratios).
const MIN_SPEEDUP: f64 = 1.3;

const SEQ_ROW: &str = "sim_throughput/mesh8x8_scatter_sharded1";
const PAR_ROW: &str = "sim_throughput/mesh8x8_scatter_sharded4";

/// Pull a string field out of a single flat JSON object line. The bench
/// trajectory is machine-written with no nesting or escapes, so a
/// hand-rolled scan keeps the gate dependency-free.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Pull a numeric field out of a single flat JSON object line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("speedup_gate: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };

    let mut host_cpus: Option<f64> = None;
    let mut seq_ns: Option<f64> = None;
    let mut par_ns: Option<f64> = None;
    for line in text.lines() {
        match field_str(line, "id") {
            Some("meta/host_cpus") => host_cpus = field_num(line, "value"),
            Some(id) if id == SEQ_ROW => seq_ns = field_num(line, "ns_per_iter"),
            Some(id) if id == PAR_ROW => par_ns = field_num(line, "ns_per_iter"),
            _ => {}
        }
    }

    let Some(cpus) = host_cpus else {
        eprintln!("speedup_gate: {path} has no meta/host_cpus row");
        return ExitCode::FAILURE;
    };
    if cpus < 4.0 {
        println!(
            "speedup_gate: SKIPPED — host has {cpus} CPU(s) < 4 shards; \
             sharded rows are an overhead floor, not a speedup curve"
        );
        return ExitCode::SUCCESS;
    }

    let (Some(seq), Some(par)) = (seq_ns, par_ns) else {
        eprintln!("speedup_gate: {path} is missing {SEQ_ROW} and/or {PAR_ROW}");
        return ExitCode::FAILURE;
    };
    let speedup = seq / par;
    if speedup < MIN_SPEEDUP {
        eprintln!(
            "speedup_gate: FAIL — sharded4 is only {speedup:.2}x sharded1 \
             (bar {MIN_SPEEDUP}x on a {cpus}-CPU host; seq {seq:.0}ns, sharded4 {par:.0}ns)"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "speedup_gate: PASS — sharded4 is {speedup:.2}x sharded1 \
         (bar {MIN_SPEEDUP}x, {cpus} CPUs)"
    );
    ExitCode::SUCCESS
}
