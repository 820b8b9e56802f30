//! The key-value workloads: `kv_mixed`, `kv_mixed_traced`, `gc_churn`.
//!
//! All three drive [`KvStore`] the same way — generate a batch of
//! requests, submit it, `drive()`, check the completions — and differ in
//! shape only (keys, geometry, mix, batch size, tracing).
//!
//! ## Output check
//!
//! Submission order is the engine's linearization order, so a bench-side
//! oracle applied in submission order knows what every get must return.
//! The oracle keeps one 64-bit hash per key (keys are dense
//! `(tenant, index)` pairs), so checking a million-key run costs a few
//! megabytes and a hash per op instead of a second copy of the store.

use bluedbm_core::kvstore::{KvCompletion, KvOpKind};
use bluedbm_core::{Cluster, KvStore, NodeId, SystemConfig};
use bluedbm_flash::FlashGeometry;
use bluedbm_sim::{TraceConfig, TraceDoc, STABLE_CATEGORIES};
use bluedbm_workloads::kvgen::{kv_flash_geometry, KvRequest, KvWorkloadSpec};

use crate::layers::{cluster_layers, Layers};
use crate::spans::Spans;
use crate::spec;
use crate::stats::{fnv, fnv_of, p50_p999_us, FNV_OFFSET};
use crate::{probes, Params, Rep, Workload};

const NODES: usize = 4;
/// Smoke runs divide every size by this.
const SMOKE_DIVISOR: u64 = 20;

/// What distinguishes one KV workload from another.
#[derive(Clone)]
struct Shape {
    spec: KvWorkloadSpec,
    geometry: FlashGeometry,
    /// Submissions per `KvStore::drive()`.
    batch: usize,
    trace: TraceConfig,
    /// Read every key back after the timed region (untimed).
    readback: bool,
}

impl Shape {
    fn config(&self) -> SystemConfig {
        let mut config = SystemConfig::scaled_down();
        config.flash.geometry = self.geometry;
        config.sim.trace = self.trace;
        config
    }
}

/// Per-key value hashes, applied in submission order.
#[derive(Default)]
struct Oracle {
    keys_per_tenant: u64,
    /// 0 = absent; value hashes are forced non-zero.
    state: Vec<u64>,
}

const ABSENT: u64 = 0;

fn value_hash(value: &[u8]) -> u64 {
    fnv_of(value) | 1
}

impl Oracle {
    fn new(spec: &KvWorkloadSpec) -> Self {
        Oracle {
            keys_per_tenant: spec.keys_per_tenant,
            state: vec![ABSENT; spec.total_keys() as usize],
        }
    }

    /// Dense index of a `KvWorkloadSpec::key` (2 B tenant + 8 B index,
    /// big-endian).
    fn index(&self, key: &[u8]) -> usize {
        let tenant = u16::from_be_bytes([key[0], key[1]]);
        let k = u64::from_be_bytes(key[2..10].try_into().expect("10-byte key"));
        (u64::from(tenant) * self.keys_per_tenant + k) as usize
    }

    /// Apply `request`; for a get, return the hash it must observe.
    fn apply(&mut self, request: &KvRequest) -> Option<u64> {
        match request {
            KvRequest::Put { key, value, .. } => {
                let i = self.index(key);
                self.state[i] = value_hash(value);
                None
            }
            KvRequest::Delete { key, .. } => {
                let i = self.index(key);
                self.state[i] = ABSENT;
                None
            }
            KvRequest::Get { key, .. } => Some(self.state[self.index(key)]),
        }
    }
}

/// The oracle plus everything a run over one store accumulates.
#[derive(Default)]
struct Tally {
    oracle: Oracle,
    /// Negative test: expect one wrong value; the check must notice.
    corrupt_one: bool,
    ops: u64,
    failed: u64,
    digest: u64,
    get_ps: Vec<u64>,
    put_ps: Vec<u64>,
    drive_calls: u64,
    /// (ops, seconds) per batch, for the load-slowdown ratio.
    batches: Vec<(u64, f64)>,
    notes: Vec<String>,
}

impl Tally {
    fn new(spec: &KvWorkloadSpec, corrupt_one: bool) -> Self {
        Tally {
            oracle: Oracle::new(spec),
            corrupt_one,
            ..Tally::default()
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(what);
        }
    }

    /// Fold one completion: check it, record its latency, digest it.
    fn fold(&mut self, c: &KvCompletion, expect: Option<u64>) {
        self.ops += 1;
        let latency = (c.finished - c.submitted).as_ps();
        match c.kind {
            KvOpKind::Get => self.get_ps.push(latency),
            KvOpKind::Put => self.put_ps.push(latency),
            KvOpKind::Delete => {}
        }
        if let Some(e) = &c.error {
            self.fail(format!("op {} failed: {e}", c.op));
        } else if let Some(want) = expect {
            let got = c.value.as_deref().map_or(ABSENT, value_hash);
            if got != want || c.found != (want != ABSENT) {
                self.fail(format!(
                    "get op {} (tenant {}) returned the wrong value",
                    c.op, c.tenant
                ));
            }
        }
        // Same observables as `KvRunSummary::digest`; XOR-folded so the
        // completion order inside a drive round cannot matter.
        let mut h = FNV_OFFSET;
        fnv(&mut h, &c.op.to_le_bytes());
        fnv(
            &mut h,
            &[
                c.kind as u8 + 1,
                u8::from(c.found),
                u8::from(c.error.is_some()),
            ],
        );
        if let Some(v) = &c.value {
            fnv(&mut h, v);
        }
        self.digest ^= h;
    }
}

/// Drive `requests` through `store` in batches of `batch`, under a span
/// named `phase`.
fn drive_phase(
    phase: &'static str,
    store: &mut KvStore,
    requests: impl Iterator<Item = KvRequest>,
    batch: usize,
    spans: &mut Spans,
    tally: &mut Tally,
) -> f64 {
    let phase_span = spans.enter(phase);
    let mut requests = requests.peekable();
    let mut expect: Vec<Option<u64>> = Vec::with_capacity(batch);
    while requests.peek().is_some() {
        let batch_start = crate::spans::now();
        let (generated, _) = spans.time("workloads.gen", || {
            requests.by_ref().take(batch).collect::<Vec<_>>()
        });

        let open = spans.enter("bench.oracle");
        expect.clear();
        expect.extend(generated.iter().map(|r| tally.oracle.apply(r)));
        if tally.corrupt_one {
            if let Some(e) = expect.iter_mut().flatten().next() {
                *e ^= 0x5A5A;
                tally.corrupt_one = false;
            }
        }
        spans.exit(open);

        let open = spans.enter("core.kv.submit");
        let mut first = None;
        for request in &generated {
            let id = match request {
                KvRequest::Put { tenant, key, value } => store.submit_put(*tenant, key, value),
                KvRequest::Get {
                    tenant,
                    reader,
                    key,
                } => store.submit_get(*tenant, *reader, key),
                KvRequest::Delete { tenant, key } => store.submit_delete(*tenant, key),
            };
            first.get_or_insert(id);
        }
        spans.exit(open);
        let first = first.expect("batch is non-empty");

        let (done, _) = spans.time("core.kv.drive", || store.drive());
        tally.drive_calls += 1;

        let open = spans.enter("bench.check");
        if done.len() != generated.len() {
            tally.fail(format!(
                "{} of {} submitted ops completed",
                done.len(),
                generated.len()
            ));
        }
        for c in &done {
            let slot = expect.get((c.op - first) as usize).copied().flatten();
            tally.fold(c, slot);
        }
        spans.exit(open);
        tally
            .batches
            .push((generated.len() as u64, batch_start.elapsed().as_secs_f64()));
    }
    spans.exit(phase_span)
}

/// One store and the run over it.
struct KvRun {
    shape: Shape,
    store: Option<KvStore>,
    fault: bool,
}

/// What [`KvRun::run`] measured.
struct KvOutcome {
    wall_s: f64,
    events: u64,
    /// Ops completed inside the timed region.
    timed_ops: u64,
    tally: Tally,
    sim: Vec<(&'static str, f64)>,
    layers: Layers,
    /// Stable trace digest and record count (traced shapes only).
    trace: Option<(u64, usize)>,
    gc_erases: u64,
}

impl KvRun {
    fn setup(shape: &Shape, fault: bool, spans: &mut Spans) -> Self {
        let (store, _) = spans.time("core.cluster.build", || {
            KvStore::new(Cluster::ring(NODES, &shape.config()).expect("ring cluster"))
        });
        KvRun {
            shape: shape.clone(),
            store: Some(store),
            fault,
        }
    }

    fn run(&mut self, spans: &mut Spans) -> KvOutcome {
        let mut store = self.store.take().expect("a KV run consumes its store");
        let shape = &self.shape;
        let spec = &shape.spec;
        let mut tally = Tally::new(spec, self.fault);
        let mut layers = Layers::new();

        let rep = spans.enter("rep");
        let load_s = drive_phase(
            "core.kv.load",
            &mut store,
            spec.load(),
            shape.batch,
            spans,
            &mut tally,
        );
        let load_batches = tally.batches.len();
        let churn_s = drive_phase(
            "core.kv.churn",
            &mut store,
            spec.churn(),
            shape.batch,
            spans,
            &mut tally,
        );

        let mut trace = None;
        if shape.trace.enabled {
            let (parts, _) = spans.time("trace.take", || store.take_trace());
            let (doc, merge_s) = spans.time("trace.merge", || TraceDoc::merge(parts));
            if doc.dropped() != 0 {
                tally.fail(format!("trace ring dropped {} records", doc.dropped()));
            }
            if doc.is_empty() {
                tally.fail("enabled trace sink captured nothing".into());
            }
            trace = Some((doc.digest_stable(STABLE_CATEGORIES), doc.len()));
            layers.push(("trace.records", doc.len() as f64));
            layers.push(("trace.dropped", doc.dropped() as f64));
            layers.push(("trace.merge_s", merge_s));
        }

        let open = spans.enter("bench.check");
        let expected_ops = spec.total_keys() + spec.churn_ops;
        if tally.ops != expected_ops {
            tally.fail(format!(
                "{} ops completed, {expected_ops} expected",
                tally.ops
            ));
        }
        // Both audits panic on a leak: a leaked page is a simulator bug,
        // not a measurement, and must stop the benchmark.
        store.assert_no_stranded_pages();
        store.cluster().assert_quiescent();
        spans.exit(open);
        let timed_s = spans.exit(rep);

        // Deterministic observables, read before the untimed read-back
        // moves the clock.
        let cluster = store.cluster();
        let events = cluster.events_delivered();
        let timed_ops = tally.ops;
        let gc = cluster.gc_stats();
        let mut sim = vec![
            ("sim_time_ms", cluster.now().as_ps() as f64 / 1e9),
            ("write_amp", gc.wa()),
        ];
        let (put_p50, put_p999) = p50_p999_us(&mut tally.put_ps);
        sim.push(("sim_put_p50_us", put_p50));
        sim.push(("sim_put_p999_us", put_p999));

        if spans.recording() {
            cluster_layers(cluster, &mut layers);
            layers.push(("core.kv.load_s", load_s));
            layers.push(("core.kv.churn_s", churn_s));
            layers.push(("core.kv.drive_calls", tally.drive_calls as f64));
            layers.push((
                "core.kv.ops_per_drive",
                tally.ops as f64 / tally.drive_calls as f64,
            ));
            layers.push((
                "core.kv.load_slowdown_x",
                load_slowdown(&tally.batches[..load_batches]),
            ));
            let (mut gate_total, mut gate_max) = (0.0, 0.0f64);
            for t in 0..spec.tenants {
                let stats = store.tenant_stats(t);
                gate_total += stats.total_gate_wait.as_ps() as f64 / 1e6;
                gate_max = gate_max.max(stats.max_gate_wait.as_ps() as f64 / 1e6);
            }
            layers.push(("core.kv.gate_wait_total_us", gate_total));
            layers.push(("core.kv.gate_wait_max_us", gate_max));
            let stall_ps = (put_p50 * 1e6 * 10.0) as u64;
            let stalled = tally.put_ps.len() - tally.put_ps.partition_point(|&ps| ps <= stall_ps);
            layers.push((
                "core.gc.stalled_put_share",
                stalled as f64 / tally.put_ps.len() as f64,
            ));
            layers.push(("sim.engine.ns_per_event", timed_s * 1e9 / events as f64));
        }

        if shape.readback {
            // Gets in the timed region are the churn's; here they are the
            // read-back's, kept apart so the two never mix in one tail.
            tally.get_ps.clear();
            let keys = (0..spec.total_keys()).map(|i| {
                let tenant = (i % u64::from(spec.tenants)) as u16;
                KvRequest::Get {
                    tenant,
                    reader: NodeId::from(tenant as usize % NODES),
                    key: KvWorkloadSpec::key(tenant, i / u64::from(spec.tenants)),
                }
            });
            // One span for the whole read-back: its inner calls must not
            // count toward the timed region's layer self times.
            let open = spans.enter("bench.readback");
            drive_phase(
                "bench.readback",
                &mut store,
                keys,
                512,
                &mut Spans::new(false),
                &mut tally,
            );
            spans.exit(open);
        }
        if !tally.get_ps.is_empty() {
            let (p50, p999) = p50_p999_us(&mut tally.get_ps);
            sim.push(("sim_get_p50_us", p50));
            sim.push(("sim_get_p999_us", p999));
        }

        // Dropping a million-key store is real work the user waits for.
        let ((), teardown_s) = spans.time("core.kv.teardown", || drop(store));
        KvOutcome {
            wall_s: timed_s + teardown_s,
            events,
            timed_ops,
            tally,
            sim,
            layers,
            trace,
            gc_erases: gc.erases,
        }
    }
}

/// ns/op over the last tenth of the load batches ÷ the first tenth.
fn load_slowdown(batches: &[(u64, f64)]) -> f64 {
    let tenth = (batches.len() / 10).max(1);
    let rate = |b: &[(u64, f64)]| {
        b.iter().map(|x| x.1).sum::<f64>() / b.iter().map(|x| x.0).sum::<u64>() as f64
    };
    // The final batch is usually partial; leave it out when there is room.
    let end = if batches.len() > 2 * tenth {
        batches.len() - 1
    } else {
        batches.len()
    };
    rate(&batches[end - tenth..end]) / rate(&batches[..tenth])
}

fn into_rep(outcome: KvOutcome) -> Rep {
    Rep {
        wall_s: outcome.wall_s,
        events: outcome.events,
        ops: outcome.timed_ops,
        attempted: outcome.tally.ops,
        failed: outcome.tally.failed,
        digest: outcome.tally.digest,
        sim: outcome.sim,
        layers: outcome.layers,
        notes: outcome.tally.notes,
    }
}

fn million(p: &Params, keys: u64) -> KvWorkloadSpec {
    let keys = if p.smoke { keys / SMOKE_DIVISOR } else { keys };
    KvWorkloadSpec {
        seed: p.seed,
        ..KvWorkloadSpec::million(NODES).scaled_to(keys)
    }
}

/// `kv_mixed`: the ROADMAP's million-key shape.
pub struct KvMixed(KvRun);

impl Workload for KvMixed {
    const NAME: &'static str = spec::KV_MIXED;
    const FRESH_PER_REP: bool = true;

    fn setup(p: &Params, spans: &mut Spans) -> Self {
        let shape = Shape {
            spec: million(p, 1_000_000),
            geometry: kv_flash_geometry(),
            batch: 8192,
            trace: TraceConfig::off(),
            readback: false,
        };
        KvMixed(KvRun::setup(&shape, p.fault, spans))
    }

    fn rep(&mut self, _index: u32, spans: &mut Spans) -> Rep {
        let mut rep = into_rep(self.0.run(spans));
        if spans.recording() {
            probes::kernel(&mut rep.layers);
        }
        rep
    }
}

/// `kv_mixed_traced`: half the keys, full capture, and an untraced twin
/// run in the same process so the capture overhead never depends on
/// another run's file.
pub struct KvMixedTraced {
    traced: KvRun,
    /// The same shape with tracing off; twin stores are built from it.
    untraced: Shape,
}

impl Workload for KvMixedTraced {
    const NAME: &'static str = spec::KV_MIXED_TRACED;
    const FRESH_PER_REP: bool = true;

    fn setup(p: &Params, spans: &mut Spans) -> Self {
        let untraced = Shape {
            spec: million(p, 500_000),
            geometry: kv_flash_geometry(),
            batch: 8192,
            trace: TraceConfig::off(),
            readback: false,
        };
        // ~10 records per op; sized so nothing is ever dropped.
        let traced = Shape {
            trace: TraceConfig::on().with_capacity(1 << 24),
            ..untraced.clone()
        };
        KvMixedTraced {
            traced: KvRun::setup(&traced, p.fault, spans),
            untraced,
        }
    }

    fn rep(&mut self, index: u32, spans: &mut Spans) -> Rep {
        // The twin runs beside repetition 0 (reruns are bit-identical, so
        // one digest comparison covers them all) and beside every
        // instrumented repetition (the capture overhead is a layer
        // metric). It keeps no spans: it is the reference, not the
        // subject. Which side goes first alternates, so neither always
        // inherits the other's warm allocator and caches.
        let twin = |shape: &Shape| {
            let mut quiet = Spans::new(false);
            KvRun::setup(shape, false, &mut quiet).run(&mut quiet)
        };
        let paired = index == 0 || spans.recording();
        let (traced, twin) = if !paired {
            (self.traced.run(spans), None)
        } else if index.is_multiple_of(2) {
            let t = self.traced.run(spans);
            (t, Some(twin(&self.untraced)))
        } else {
            let w = twin(&self.untraced);
            (self.traced.run(spans), Some(w))
        };
        let (trace_digest, records) = traced.trace.expect("traced shape captures");
        let traced_wall_s = traced.wall_s;
        let mut rep = into_rep(traced);
        if let Some(twin) = twin {
            if rep.digest != twin.tally.digest {
                rep.failed += 1;
                rep.notes
                    .push("trace capture changed the result digest".into());
            }
            rep.layers.push((
                "trace.capture_overhead_pct",
                (traced_wall_s / twin.wall_s - 1.0) * 100.0,
            ));
            rep.layers.push((
                "trace.ns_per_record",
                (traced_wall_s - twin.wall_s) * 1e9 / records.max(1) as f64,
            ));
        }
        // Folded into the digest so the runner's repeat-identity check
        // also pins the stable trace digest across repetitions.
        rep.digest ^= trace_digest.rotate_left(17);
        rep
    }
}

/// `gc_churn`: overwrite churn far past capacity on a small geometry.
pub struct GcChurn(KvRun);

impl Workload for GcChurn {
    const NAME: &'static str = spec::GC_CHURN;
    const FRESH_PER_REP: bool = true;

    fn setup(p: &Params, spans: &mut Spans) -> Self {
        const TENANTS: u16 = 4;
        // Smoke keeps enough churn over a quarter of the cells that
        // collection still runs; a smoke run that never erased would
        // leave the one path this workload exists for untested.
        let (ways, churn_x) = if p.smoke { (2, 2) } else { (4, 6) };
        let geometry = FlashGeometry {
            buses: ways,
            chips_per_bus: ways,
            blocks_per_chip: 16,
            pages_per_block: 32,
            page_bytes: 512,
        };
        let mut shape = Shape {
            spec: KvWorkloadSpec {
                tenants: TENANTS,
                keys_per_tenant: 0,
                churn_ops: 0,
                read_fraction: 0.0,
                delete_fraction: 0.0,
                zipf_exponent: 0.99,
                // One page per value.
                value_bytes: 400,
                nodes: NODES,
                seed: p.seed,
            },
            geometry,
            batch: 32,
            trace: TraceConfig::off(),
            readback: true,
        };
        let run = KvRun::setup(&shape, p.fault, spans);
        let cluster = run.store.as_ref().expect("fresh run").cluster();
        let capacity: u64 = (0..NODES)
            .map(|n| cluster.node_capacity_pages(NodeId::from(n)))
            .sum();
        // Live set at 65 % occupancy; churn a multiple of the logical capacity.
        shape.spec.keys_per_tenant = capacity * 65 / 100 / u64::from(TENANTS);
        shape.spec.churn_ops = capacity * churn_x;
        GcChurn(KvRun { shape, ..run })
    }

    fn rep(&mut self, _index: u32, spans: &mut Spans) -> Rep {
        let outcome = self.0.run(spans);
        let collected = outcome.gc_erases > 0
            && outcome
                .sim
                .iter()
                .any(|&(n, v)| n == "write_amp" && v > 1.0);
        let mut rep = into_rep(outcome);
        if !collected {
            rep.failed += 1;
            rep.notes.push(
                "churn never triggered garbage collection (erases = 0 or write_amp = 1)".into(),
            );
        }
        if spans.recording() {
            probes::ftl_step_write(&mut rep.layers);
        }
        rep
    }
}
