//! `bluedbm-benchmark`: measure one workload.
//!
//! ```text
//! bluedbm-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                   [--smoke] [--out DIR] [--append FILE]
//! bluedbm-benchmark list      # workload names, one per line
//! bluedbm-benchmark spec      # BENCHMARK.json, generated from src/spec.rs
//! ```
//!
//! `--trace 0` (default) is the plain pass and prints every end-to-end
//! metric; it measures in child processes of this same binary (`--process
//! I`, an internal flag), one after the other, and merges their samples.
//! `--trace 1` is the layers pass, prints every per-layer metric and
//! writes `layers-NAME.json` and `spans-NAME.json` under `--out` (default
//! `benchmark/out`). The last line of standard output is the result as
//! one JSON object. Exit code 1 on a failed output check, 2 on a usage
//! error.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use bluedbm_benchmark::{
    layers_pass, process, report, run_plain, spec, Params, ProcessSamples, DEFAULT_SEED,
};

struct Args {
    workload: String,
    params: Params,
    seconds: f64,
    layers: bool,
    /// Set in a measuring child: which process of the plain pass this is.
    process: Option<u32>,
    out: PathBuf,
    append: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        params: Params {
            seed: DEFAULT_SEED,
            smoke: false,
            fault: false,
        },
        seconds: f64::from(spec::RUN_SECONDS),
        layers: false,
        process: None,
        out: PathBuf::from("benchmark/out"),
        append: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.params.seed = parse_u64(&v).ok_or(format!("--seed: `{v}` is not a number"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("--seconds: `{v}`"))?;
            }
            "--trace" => {
                args.layers = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--process" => {
                let v = value()?;
                args.process = Some(v.parse().map_err(|_| format!("--process: `{v}`"))?);
            }
            "--smoke" => args.params.smoke = true,
            // Test hook: corrupt one expected value; the run must fail.
            "--fault" => args.params.fault = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--append" => args.append = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if spec::workload(&args.workload).is_none() {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(args)
}

fn write_file(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}

/// Measure process `index` of the plain pass in a fresh child of this
/// binary and read its samples back from the last line it prints.
fn spawn_process(args: &Args, index: u32) -> Result<ProcessSamples, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", &args.workload])
        .args(["--seed", &args.params.seed.to_string()])
        .args(["--process", &index.to_string()]);
    if args.params.smoke {
        child.arg("--smoke");
    }
    if args.params.fault {
        child.arg("--fault");
    }
    // `output()` waits for the child to end; its stderr passes through.
    let output = child
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start measuring process {index}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "measuring process {index} ended with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("measuring process {index} printed nothing"))?;
    report::parse_samples(last)
}

fn run(args: &Args) -> Result<bool, String> {
    let workload = spec::workload(&args.workload)
        .expect("workload name was checked")
        .name;
    let io = |e: std::io::Error| e.to_string();
    if let Some(index) = args.process {
        let samples = process(workload, &args.params, index).expect("workload name was checked");
        println!("{}", report::samples_line(&samples));
        return Ok(true);
    }
    let (correct, line) = if args.layers {
        let l = layers_pass(workload, &args.params).expect("workload name was checked");
        report::print_layers(&l);
        write_file(
            &args.out.join(format!("layers-{}.json", l.workload)),
            &report::layers_file(&l),
        )
        .map_err(io)?;
        write_file(
            &args.out.join(format!("spans-{}.json", l.workload)),
            &l.spans.to_json(),
        )
        .map_err(io)?;
        (l.failed == 0, report::layers_line(&l))
    } else {
        let o = run_plain(workload, &args.params, args.seconds, |i| {
            spawn_process(args, i)
        })?;
        report::print_outcome(&o);
        if let Some(path) = &args.append {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(io)?;
            }
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(io)?;
            writeln!(file, "{}", report::outcome_record(&o)).map_err(io)?;
        }
        (o.correct(), report::outcome_line(&o))
    };
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("list") => {
            for w in &spec::WORKLOADS {
                println!("{}", w.name);
            }
            return ExitCode::SUCCESS;
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bluedbm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bluedbm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
