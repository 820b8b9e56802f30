//! Turning outcomes into text: the human-readable report, the one-line
//! JSON result the driver reads, and the result-file lines `compare`
//! reads (which also carry `meta`).

use bluedbm_trace::json::{self, escape, Json};

use crate::{spec, LayersOutcome, Outcome, Params, ProcessSamples, Rep};

/// Cores the host offers this process.
pub fn host_cpus() -> usize {
    // detlint::allow(no-wallclock): recorded in `meta` so parallel rows can be judged; never feeds the simulation
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The process's peak resident set (`VmHWM`), MB. Linux only; elsewhere
/// (or if `/proc` is unreadable) the metric cannot be measured and the
/// run must not pretend otherwise.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("peak_rss_mb needs /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// `"name":{"value":…,"unit":"…"}` — one metric of a driver result line.
fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
        num(value)
    )
}

/// A float with every digit it has (`{}` on f64 round-trips).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `meta` of a result line: what the numbers were measured on. The git
/// commit and compiler come from `run.sh` through the environment (the
/// driver's checkout is not a repository).
pub fn meta_json(p: &Params, repetitions: usize) -> String {
    let env = |key: &str| escape(&std::env::var(key).unwrap_or_else(|_| "unknown".into()));
    format!(
        "{{\"host_cpus\":{},\"seed\":\"{:#x}\",\"repetitions\":{repetitions},\"git_commit\":\"{}\",\"rustc\":\"{}\",\"smoke\":{}}}",
        host_cpus(),
        p.seed,
        env("BENCH_GIT_COMMIT"),
        env("BENCH_RUSTC"),
        p.smoke
    )
}

/// The human-readable plain-pass report.
pub fn print_outcome(o: &Outcome) {
    println!(
        "== {} (seed {:#x}{}) ==",
        o.workload,
        o.params.seed,
        if o.params.smoke { ", smoke" } else { "" }
    );
    if o.metrics.iter().any(|m| m.unresolved) {
        println!(
            "!!! WARNING: host has fewer than 2 CPUs — two worker threads time-slice one core."
        );
        println!(
            "!!! WARNING: host-time metrics of {} are UNRESOLVED on this host.",
            o.workload
        );
    }
    for m in &o.metrics {
        if m.not_applicable {
            println!("  {:<18} n/a", m.name);
        } else if m.n > 1 {
            println!(
                "  {:<18} {:>16.6} {:<7} median of {} (q1 {:.6}, q3 {:.6}){}",
                m.name,
                m.value,
                m.unit,
                m.n,
                m.q1,
                m.q3,
                if m.unresolved { "  UNRESOLVED" } else { "" }
            );
        } else {
            println!("  {:<18} {:>16.6} {:<7}", m.name, m.value, m.unit);
        }
    }
    println!(
        "  {:<18} {:>16.6} ratio   ({} failed of {} attempted, {} repetitions)",
        "fail_share",
        o.fail_share(),
        o.failed,
        o.attempted,
        o.wall_samples.len()
    );
    let walls: Vec<String> = o.wall_samples.iter().map(|w| format!("{w:.3}")).collect();
    println!("  wall_s by process: {}", walls.join(" "));
    println!(
        "  digest {:#018x}, {} events per repetition",
        o.digest, o.events
    );
    for note in &o.notes {
        println!("  CHECK FAILED: {note}");
    }
    for remark in &o.remarks {
        println!("  remark: {remark}");
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, with every end-to-end metric of the contract.
pub fn outcome_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| metric_json(m.name, m.value, m.unit))
        .collect();
    result_line(o.correct(), o.attempted, o.failed, &metrics)
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

/// One line of a results file: the applicable metrics with their spread,
/// plus digest, events and `meta`.
pub fn outcome_record(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .filter(|m| !m.not_applicable)
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"q1\":{},\"q3\":{},\"n\":{},\"unresolved\":{}}}",
                m.name,
                num(m.value),
                m.unit,
                num(m.q1),
                num(m.q3),
                m.n,
                m.unresolved
            )
        })
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"meta\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"fail_share\":{},\
         \"digest\":\"{:#018x}\",\"events\":{},\"metrics\":{{{}}}}}",
        o.workload,
        meta_json(&o.params, o.wall_samples.len()),
        o.correct(),
        o.attempted,
        o.failed,
        num(o.fail_share()),
        o.digest,
        o.events,
        metrics.join(",")
    )
}

/// The human-readable layers-pass report.
pub fn print_layers(l: &LayersOutcome) {
    println!(
        "== {} layers (seed {:#x}{}) ==",
        l.workload,
        l.params.seed,
        if l.params.smoke { ", smoke" } else { "" }
    );
    for (m, &(_, value)) in crate::spec::PER_LAYER.iter().zip(&l.values) {
        if value != 0.0 {
            println!("  {:<42} {:>18.6} {}", m.name, value, m.unit);
        }
    }
    println!(
        "  self time by span, instrumented repetition ({:.6} s wall; plain repetition before it {:.6} s):",
        l.wall_s, l.plain_wall_s
    );
    for (name, secs) in &l.self_times {
        println!(
            "    {:<30} {:>12.6} s  {:>5.1} %",
            name,
            secs,
            secs / l.wall_s * 100.0
        );
    }
    for note in &l.notes {
        println!("  CHECK FAILED: {note}");
    }
    for remark in &l.remarks {
        println!("  remark: {remark}");
    }
}

/// The driver's result line for the layers pass: every per-layer metric.
pub fn layers_line(l: &LayersOutcome) -> String {
    let metrics: Vec<String> = crate::spec::PER_LAYER
        .iter()
        .zip(&l.values)
        .map(|(m, &(_, value))| metric_json(m.name, value, m.unit))
        .collect();
    result_line(l.failed == 0, l.attempted, l.failed, &metrics)
}

/// `layers-<workload>.json`: the per-layer metrics, span self times and
/// `meta`.
pub fn layers_file(l: &LayersOutcome) -> String {
    let values: Vec<String> = crate::spec::PER_LAYER
        .iter()
        .zip(&l.values)
        .map(|(m, &(_, value))| {
            format!(
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(value),
                m.unit
            )
        })
        .collect();
    let own: Vec<String> = l
        .self_times
        .iter()
        .map(|(name, secs)| format!("    \"{name}\": {}", num(*secs)))
        .collect();
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"meta\": {},\n  \"wall_s\": {},\n  \"failed\": {},\n  \"self_time_s\": {{\n{}\n  }},\n  \"layers\": {{\n{}\n  }}\n}}\n",
        l.workload,
        meta_json(&l.params, 1),
        num(l.wall_s),
        l.failed,
        own.join(",\n"),
        values.join(",\n")
    )
}

fn string_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(","))
}

/// One measuring process's samples as a JSON line, for the parent that
/// spawned it. Floats print with every digit, so [`parse_samples`]
/// returns them bit for bit.
pub fn samples_line(s: &ProcessSamples) -> String {
    let setups: Vec<String> = s.setups.iter().map(|&v| num(v)).collect();
    let sim: Vec<String> = s
        .rep
        .sim
        .iter()
        .map(|(n, v)| format!("\"{n}\":{}", num(*v)))
        .collect();
    format!(
        "{{\"setups\":[{}],\"wall_s\":{},\"events\":\"{}\",\"ops\":\"{}\",\"attempted\":\"{}\",\"failed\":\"{}\",\"digest\":\"{:x}\",\
         \"sim\":{{{}}},\"notes\":{},\"failed_checks\":{},\"remarks\":{},\"peak_rss_mb\":{}}}",
        setups.join(","),
        num(s.rep.wall_s),
        s.rep.events,
        s.rep.ops,
        s.rep.attempted,
        s.rep.failed,
        s.rep.digest,
        sim.join(","),
        string_array(&s.rep.notes),
        string_array(&s.failed_checks),
        string_array(&s.remarks),
        num(s.peak_rss_mb)
    )
}

/// Inverse of [`samples_line`]. 64-bit counters travel as strings: JSON
/// numbers are doubles.
///
/// # Errors
///
/// A description of the first missing or malformed field.
pub fn parse_samples(line: &str) -> Result<ProcessSamples, String> {
    let doc = json::parse(line)?;
    let field = |key: &str| doc.get(key).ok_or(format!("process samples: no `{key}`"));
    let float = |key: &str| {
        field(key)?
            .as_f64()
            .ok_or(format!("process samples: `{key}` is not a number"))
    };
    let int = |key: &str, radix: u32| {
        let text = field(key)?
            .as_str()
            .ok_or(format!("process samples: `{key}` is not a string"))?;
        u64::from_str_radix(text, radix).map_err(|e| format!("process samples: `{key}`: {e}"))
    };
    let strings = |key: &str| -> Result<Vec<String>, String> {
        let items = field(key)?
            .as_arr()
            .ok_or(format!("process samples: `{key}` is not an array"))?;
        Ok(items
            .iter()
            .filter_map(|i| i.as_str().map(str::to_string))
            .collect())
    };
    let floats = field("setups")?
        .as_arr()
        .ok_or("process samples: `setups` is not an array")?;
    let Json::Obj(sim) = field("sim")? else {
        return Err("process samples: `sim` is not an object".into());
    };
    let sim = sim
        .iter()
        .map(|(name, value)| {
            // Back to the contract's static name; anything else is not ours.
            let spec =
                spec::e2e(name).ok_or(format!("process samples: unknown metric `{name}`"))?;
            Ok((
                spec.name,
                value
                    .as_f64()
                    .ok_or(format!("process samples: `{name}` is not a number"))?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ProcessSamples {
        setups: floats.iter().filter_map(Json::as_f64).collect(),
        rep: Rep {
            wall_s: float("wall_s")?,
            events: int("events", 10)?,
            ops: int("ops", 10)?,
            attempted: int("attempted", 10)?,
            failed: int("failed", 10)?,
            digest: int("digest", 16)?,
            sim,
            layers: Vec::new(),
            notes: strings("notes")?,
        },
        failed_checks: strings("failed_checks")?,
        remarks: strings("remarks")?,
        peak_rss_mb: float("peak_rss_mb")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_samples_round_trip_bit_for_bit() {
        let samples = ProcessSamples {
            setups: vec![0.1 + 0.2, 1e-9],
            rep: Rep {
                wall_s: std::f64::consts::PI,
                events: u64::MAX,
                ops: 3,
                attempted: 4,
                failed: 1,
                digest: 0xdead_beef_0000_0001,
                sim: vec![("sim_time_ms", 786.302346071), ("write_amp", 1.0)],
                layers: Vec::new(),
                notes: vec!["a \"quoted\" note".into()],
            },
            failed_checks: vec!["x".into()],
            remarks: Vec::new(),
            peak_rss_mb: 685.335_937_5,
        };
        let back = parse_samples(&samples_line(&samples)).expect("parses");
        assert_eq!(back.setups, samples.setups);
        assert_eq!(back.rep.wall_s.to_bits(), samples.rep.wall_s.to_bits());
        assert_eq!(back.rep.events, u64::MAX);
        assert_eq!((back.rep.ops, back.rep.attempted), (3, 4));
        assert_eq!(back.rep.digest, samples.rep.digest);
        assert_eq!(back.rep.sim, samples.rep.sim);
        assert_eq!(back.rep.notes, samples.rep.notes);
        assert_eq!(back.failed_checks, samples.failed_checks);
        assert_eq!(back.peak_rss_mb, samples.peak_rss_mb);
        assert!(parse_samples("{}").is_err());
    }
}
