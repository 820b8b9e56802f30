//! # bluedbm-benchmark
//!
//! The repo's benchmark: six closed-loop workloads over the crates'
//! public API, end-to-end metrics with regression bounds, and a per-layer
//! budget measured from outside (spans around each call into a layer plus
//! the layers' own public counters). `README.md` explains the choices;
//! `../BENCHMARK.json` is the contract later performance PRs claim
//! against.
//!
//! A run measures one workload:
//!
//! * the **plain pass** ([`run_plain`]) spreads its time budget over
//!   several fresh *processes*, each doing its own set-up and one timed
//!   repetition ([`run_process`]), and reports medians of the host-time
//!   metrics beside the deterministic simulated ones. Processes, not
//!   repetitions in one process, because on the hosts this runs on the
//!   same work differs by ±10 % from one process to the next while
//!   repetitions inside a process agree to ±2 % — a median over
//!   repetitions of one process would be a sample of one;
//! * the **layers pass** ([`run_layers`]) runs one un-instrumented and one
//!   span-instrumented repetition plus the micro-probes in one process and
//!   reports the per-layer metrics; end-to-end numbers never come from it.

pub mod exhibits;
pub mod kv;
pub mod layers;
pub mod mesh;
pub mod probes;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;

use layers::Layers;
use spans::Spans;
use spec::{Kind, END_TO_END, NOT_APPLICABLE};

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 0xB1DE_B1DE;

/// Inputs common to every workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Every generated input derives from this.
    pub seed: u64,
    /// Shrink every size (~1/20) for tests.
    pub smoke: bool,
    /// Negative test: corrupt one expected value so the output check
    /// must fail.
    pub fault: bool,
}

/// What one timed repetition produced.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Simulator events delivered in the timed region (0: not counted).
    pub events: u64,
    /// Operations completed in the timed region (the numerator of
    /// `ops_per_s`).
    pub ops: u64,
    /// Operations attempted and checked, timed or not (`ops` plus, e.g.,
    /// an untimed read-back).
    pub attempted: u64,
    /// Operations that failed, errored, went missing or failed the
    /// output check.
    pub failed: u64,
    /// Order-independent digest of every per-op observable.
    pub digest: u64,
    /// Deterministic end-to-end metrics, by name.
    pub sim: Vec<(&'static str, f64)>,
    /// Per-layer metrics (instrumented repetitions only).
    pub layers: Layers,
    /// The first few failed checks, for the report.
    pub notes: Vec<String>,
}

/// One benchmark workload.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Whether each repetition needs its own set-up (a fresh store) or
    /// repetitions can share one (the layers pass runs two).
    const FRESH_PER_REP: bool;

    /// Everything before the first timed call: cluster construction,
    /// preload, warm-up. Timed as one `setup_s` sample.
    fn setup(p: &Params, spans: &mut Spans) -> Self;

    /// One timed repetition. `index` says which repetition of the run
    /// this is: the measuring process's index in the plain pass, 0 (plain)
    /// or 1 (instrumented) in the layers pass.
    fn rep(&mut self, index: u32, spans: &mut Spans) -> Rep;

    /// Checks that need more than one repetition's view. `first` is
    /// repetition 0.
    fn finish(self, _p: &Params, _first: &Rep) -> Finish {
        Finish::default()
    }
}

/// What [`Workload::finish`] found.
#[derive(Default)]
pub struct Finish {
    /// Failed checks; each counts as one failed operation.
    pub failed: Vec<String>,
    /// Observations worth printing that are not failures.
    pub remarks: Vec<String>,
    /// Per-layer metrics measured on the way.
    pub layers: Layers,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    /// Median over `n` samples (the one value, for deterministic metrics).
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// Not defined on this workload; `value` is the placeholder.
    pub not_applicable: bool,
    /// Measured, but on a host where the number cannot mean what its
    /// name says (parallel rows on one core).
    pub unresolved: bool,
}

/// Result of one run of one workload.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub params: Params,
    pub metrics: Vec<Measured>,
    /// `wall_s` of every repetition (one per measuring process), in run
    /// order.
    pub wall_samples: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub events: u64,
    /// Failed checks.
    pub notes: Vec<String>,
    /// Observations that are not failures.
    pub remarks: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn timed_setup<W: Workload>(p: &Params, spans: &mut Spans, samples: &mut Vec<f64>) -> W {
    let open = spans.enter("setup");
    let state = W::setup(p, spans);
    samples.push(spans.exit(open));
    state
}

/// What one measuring process produced: its set-up samples and its one
/// timed repetition. The plain pass runs several such processes and
/// merges them ([`merge`]).
#[derive(Debug, Default)]
pub struct ProcessSamples {
    pub setups: Vec<f64>,
    pub rep: Rep,
    /// Failed cross-repetition checks (process 0 only).
    pub failed_checks: Vec<String>,
    /// Observations that are not failures (process 0 only).
    pub remarks: Vec<String>,
    pub peak_rss_mb: f64,
}

/// One measuring process of the plain pass: set up twice (so `setup_s`
/// has at least two samples per process), run the one repetition that
/// follows exactly the set-up, and — in process 0 only, they are
/// expensive — the workload's cross-repetition checks.
pub fn run_process<W: Workload>(p: &Params, index: u32) -> ProcessSamples {
    let mut spans = Spans::new(false);
    let mut setups = Vec::new();
    drop(timed_setup::<W>(p, &mut spans, &mut setups));
    let mut state: W = timed_setup(p, &mut spans, &mut setups);
    let rep = state.rep(index, &mut spans);
    let finish = if index == 0 {
        state.finish(p, &rep)
    } else {
        drop(state);
        Finish::default()
    };
    ProcessSamples {
        setups,
        rep,
        failed_checks: finish.failed,
        remarks: finish.remarks,
        peak_rss_mb: report::peak_rss_mb(),
    }
}

/// Fold the processes of one run into reported metrics. Host-time
/// metrics become medians with quartiles. Every process ran the same
/// seed from the same starting state, so digest, events and every
/// simulated metric must agree bit for bit across processes (a mismatch
/// is a failed check); process 0's are reported.
pub fn merge(workload: &'static str, p: &Params, processes: &[ProcessSamples]) -> Outcome {
    let first = &processes[0].rep;
    let mut notes = processes[0].failed_checks.clone();
    let mut failed = notes.len() as u64;
    for (i, other) in processes.iter().enumerate().skip(1) {
        let r = &other.rep;
        if r.digest != first.digest || r.events != first.events || r.sim != first.sim {
            failed += 1;
            notes.push(format!(
                "process {i} does not reproduce process 0 (digest, events or simulated metrics)"
            ));
        }
    }
    let reps = || processes.iter().map(|s| &s.rep);
    let host_cpus = report::host_cpus();
    let worker_threads = spec::workload(workload).map_or(1, |w| w.worker_threads);
    let samples = |name: &str| -> Vec<f64> {
        match name {
            "setup_s" => processes
                .iter()
                .flat_map(|s| s.setups.iter().copied())
                .collect(),
            "wall_s" => reps().map(|r| r.wall_s).collect(),
            "events_per_s" => reps().map(|r| r.events as f64 / r.wall_s).collect(),
            "ops_per_s" => reps().map(|r| r.ops as f64 / r.wall_s).collect(),
            "peak_rss_mb" => processes.iter().map(|s| s.peak_rss_mb).collect(),
            _ => first
                .sim
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .collect(),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let applicable = m.workloads.contains(&workload);
            let values = if applicable {
                samples(m.name)
            } else {
                vec![NOT_APPLICABLE]
            };
            assert!(!values.is_empty(), "{workload} produced no `{}`", m.name);
            let (q1, value, q3) = stats::quartiles(&values);
            Measured {
                name: m.name,
                unit: m.unit,
                value,
                q1,
                q3,
                n: values.len(),
                not_applicable: !applicable,
                // Worker threads sharing a core measure the scheduler.
                unresolved: m.kind == Kind::Host && host_cpus < worker_threads,
            }
        })
        .collect();
    notes.extend(reps().flat_map(|r| r.notes.iter().cloned()));
    Outcome {
        workload,
        params: *p,
        metrics,
        wall_samples: reps().map(|r| r.wall_s).collect(),
        attempted: reps().map(|r| r.attempted).sum(),
        failed: failed + reps().map(|r| r.failed).sum::<u64>(),
        digest: first.digest,
        events: first.events,
        notes,
        remarks: processes[0].remarks.clone(),
    }
}

/// Fewest measuring processes a plain pass reports on.
pub const MIN_PROCESSES: usize = 3;

/// The plain pass: end-to-end metrics, spans off. `measure(i)` produces
/// measuring process `i`'s samples (the binary spawns itself for each and
/// reads them back). Runs the process count nearest the time budget, never
/// fewer than [`MIN_PROCESSES`].
///
/// # Errors
///
/// Whatever `measure` reports: a process that could not start or printed
/// no samples.
pub fn run_plain(
    workload: &'static str,
    p: &Params,
    seconds: f64,
    mut measure: impl FnMut(u32) -> Result<ProcessSamples, String>,
) -> Result<Outcome, String> {
    let mut processes = Vec::new();
    let start = spans::now();
    loop {
        processes.push(measure(processes.len() as u32)?);
        let elapsed = start.elapsed().as_secs_f64();
        if processes.len() >= MIN_PROCESSES
            && elapsed + elapsed / processes.len() as f64 / 2.0 >= seconds
        {
            break;
        }
    }
    Ok(merge(workload, p, &processes))
}

/// Result of the layers pass.
pub struct LayersOutcome {
    pub workload: &'static str,
    pub params: Params,
    /// Every per-layer metric of the contract, in its order (0 where the
    /// workload does not exercise the layer).
    pub values: Vec<(&'static str, f64)>,
    /// Self time per span name in the instrumented repetition.
    pub self_times: Vec<(&'static str, f64)>,
    /// Wall time of the instrumented repetition.
    pub wall_s: f64,
    /// Wall time of the plain repetition run before it.
    pub plain_wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks.
    pub notes: Vec<String>,
    /// Observations that are not failures.
    pub remarks: Vec<String>,
    pub spans: Spans,
}

/// Repetition id the instrumented repetition's spans carry.
const TRACED_REP: u32 = 1;

/// The layers pass: repetition 0 plain, repetition 1 with spans; the
/// difference between the two is what the spans themselves cost.
pub fn run_layers<W: Workload>(p: &Params) -> LayersOutcome {
    let mut quiet = Spans::new(false);
    let mut spans = Spans::new(true);
    spans.set_rep(TRACED_REP);
    let mut unused = Vec::new();

    // Shared state is built once, so its set-up spans are recorded too.
    let mut state: W = timed_setup(
        p,
        if W::FRESH_PER_REP {
            &mut quiet
        } else {
            &mut spans
        },
        &mut unused,
    );
    let plain = state.rep(0, &mut quiet);
    if W::FRESH_PER_REP {
        state = timed_setup(p, &mut spans, &mut unused);
    }
    let traced = state.rep(1, &mut spans);
    let finish = state.finish(p, &plain);
    let (mut notes, extra) = (finish.failed, finish.layers);
    let mut failed = notes.len() as u64 + plain.failed + traced.failed;
    if plain.digest != traced.digest {
        failed += 1;
        notes.push("instrumented repetition's digest differs from the plain one".into());
    }
    notes.extend(plain.notes.iter().chain(&traced.notes).cloned());

    let self_times = spans.self_times(TRACED_REP);
    let own = |name: &str| {
        self_times
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, t)| t)
    };
    let mut found: Layers = traced.layers.clone();
    found.extend(extra);
    // Host-time layer metrics are self times of the spans of that name.
    for (metric, span) in [
        ("workloads.gen_s", "workloads.gen"),
        ("core.kv.submit_s", "core.kv.submit"),
        ("core.kv.drive_s", "core.kv.drive"),
        ("core.kv.teardown_s", "core.kv.teardown"),
        ("core.cluster.build_s", "core.cluster.build"),
        ("core.cluster.preload_s", "core.cluster.preload"),
        ("core.cluster.inject_s", "core.cluster.inject"),
        ("core.cluster.run_s", "core.cluster.run"),
        ("core.cluster.harvest_s", "core.cluster.harvest"),
        ("bench.oracle_s", "bench.oracle"),
        ("bench.check_s", "bench.check"),
    ] {
        found.push((metric, own(span)));
    }
    // Time inside the repetition that no layer span covers: loop glue in
    // the phases and the repetition's own body.
    found.push((
        "bench.unattributed_s",
        own("rep") + own("core.kv.load") + own("core.kv.churn"),
    ));
    found.push((
        "trace.bench_span_overhead_pct",
        (traced.wall_s / plain.wall_s - 1.0) * 100.0,
    ));

    let values = spec::PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name,
                found
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |&(_, v)| v),
            )
        })
        .collect();
    for (name, _) in &found {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == *name),
            "layer metric `{name}` is not in the contract"
        );
    }
    LayersOutcome {
        workload: W::NAME,
        params: *p,
        values,
        self_times,
        wall_s: traced.wall_s,
        plain_wall_s: plain.wall_s,
        attempted: plain.attempted + traced.attempted,
        failed,
        notes,
        remarks: finish.remarks,
        spans,
    }
}

/// Dispatch a workload name to `f`'s generic instantiation.
macro_rules! with_workload {
    ($name:expr, $f:ident ( $($arg:expr),* )) => {
        match $name {
            crate::spec::KV_MIXED => Some($f::<crate::kv::KvMixed>($($arg),*)),
            crate::spec::KV_MIXED_TRACED => Some($f::<crate::kv::KvMixedTraced>($($arg),*)),
            crate::spec::MESH_SCATTER => Some($f::<crate::mesh::MeshScatter>($($arg),*)),
            crate::spec::MESH_SCATTER_SH2 => Some($f::<crate::mesh::MeshScatterSh2>($($arg),*)),
            crate::spec::GC_CHURN => Some($f::<crate::kv::GcChurn>($($arg),*)),
            crate::spec::EXHIBITS => Some($f::<crate::exhibits::Exhibits>($($arg),*)),
            _ => None,
        }
    };
}

/// Run process `index` of `workload`'s plain pass in this process; `None`
/// for an unknown name.
pub fn process(workload: &str, p: &Params, index: u32) -> Option<ProcessSamples> {
    with_workload!(workload, run_process(p, index))
}

/// Run `workload`'s layers pass; `None` for an unknown name.
pub fn layers_pass(workload: &str, p: &Params) -> Option<LayersOutcome> {
    with_workload!(workload, run_layers(p))
}
