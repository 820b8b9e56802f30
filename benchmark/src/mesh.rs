//! The mesh workloads: `mesh_scatter` (sequential engine) and
//! `mesh_scatter_sh2` (the same work on two worker shards).
//!
//! Every node of a 32×32 mesh holds four preloaded pages filled with a
//! per-page 8-byte word. One round: every node injects four ISP reads at
//! scattered remote targets, the cluster runs to quiescence, every node
//! is harvested and every page checked against its target's word. One
//! repetition is the same 20 rounds on one long-lived cluster, so the
//! event queue, routers and pools are measured warm; the cold first
//! round is part of set-up and reported on its own.

use bluedbm_core::node::Consume;
use bluedbm_core::{Cluster, ExecMode, GlobalPageAddr, NodeId, SystemConfig};
use bluedbm_net::topology::Topology;
use bluedbm_sim::{Rng, TraceConfig};

use crate::layers::{cluster_layers, since, Layers};
use crate::spans::Spans;
use crate::spec;
use crate::stats::{fnv, p50_p999_us, FNV_OFFSET};
use crate::{probes, Finish, Params, Rep, Workload};

const PAGES_PER_NODE: usize = 4;
const READS_PER_NODE: usize = 4;

struct Mesh {
    cluster: Cluster,
    /// `addrs[node][page]`
    addrs: Vec<[GlobalPageAddr; PAGES_PER_NODE]>,
    /// The word every 8 bytes of `addrs[node][page]` repeat.
    words: Vec<[u64; PAGES_PER_NODE]>,
    /// `targets[(round * nodes + reader) * READS_PER_NODE + r]`, with one
    /// extra round at the end for the warm-up. Drawn uniformly over the
    /// other nodes: a seed changes which pages travel where, not how far
    /// they travel on average, so runs at different seeds do comparable
    /// work (a seed-shifted stride would change every hop count at once).
    targets: Vec<u16>,
    rounds: usize,
    /// ns per event of the untimed first round.
    cold_ns_per_event: f64,
}

/// What one round's harvest showed.
#[derive(Default)]
struct RoundTally {
    reads: u64,
    failed: u64,
    digest: u64,
    latencies_ps: Vec<u64>,
    notes: Vec<String>,
}

impl Mesh {
    fn setup(p: &Params, shards: usize, spans: &mut Spans) -> Self {
        let (side, rounds) = if p.smoke { (8, 1) } else { (32, 20) };
        let mut config = SystemConfig::scaled_down();
        if shards > 1 {
            config.sim.shards = shards;
            config.sim.exec = ExecMode::Threads;
            // Lane profiles only in the layers pass: they read the host
            // clock inside the workers.
            config.sim.trace = TraceConfig::off().with_wall_profile(spans.recording());
        }
        let (mut cluster, _) = spans.time("core.cluster.build", || {
            Cluster::new(Topology::mesh2d(side, side), &config).expect("mesh cluster")
        });
        let n = cluster.node_count();
        let page_bytes = config.flash.geometry.page_bytes;

        let open = spans.enter("core.cluster.preload");
        let mut rng = Rng::new(p.seed ^ 0x4D45_5348);
        let mut addrs = Vec::with_capacity(n);
        let mut words = Vec::with_capacity(n);
        let mut page = vec![0u8; page_bytes];
        for node in 0..n {
            let node_words: [u64; PAGES_PER_NODE] = std::array::from_fn(|_| rng.next_u64());
            let node_addrs = node_words.map(|word| {
                for chunk in page.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&word.to_le_bytes());
                }
                cluster
                    .preload_page(NodeId::from(node), &page)
                    .expect("preload fits")
            });
            addrs.push(node_addrs);
            words.push(node_words);
        }
        spans.exit(open);

        let mut targets = Vec::with_capacity((rounds + 1) * n * READS_PER_NODE);
        for _round in 0..=rounds {
            for reader in 0..n {
                for _r in 0..READS_PER_NODE {
                    let other = rng.below(n as u64 - 1) as usize;
                    // Skip over the reader itself.
                    targets.push((other + usize::from(other >= reader)) as u16);
                }
            }
        }
        let mut mesh = Mesh {
            cluster,
            addrs,
            words,
            targets,
            rounds,
            cold_ns_per_event: 0.0,
        };
        if p.fault {
            // Negative test: expect, for every node's first page, a word
            // it never stored (targets are random; one node might go unread).
            for words in &mut mesh.words {
                words[0] ^= 1;
            }
        }
        // The first round pays for queue, pool and page-store growth.
        let before = mesh.cluster.events_delivered();
        let open = spans.enter("bench.warmup");
        let mut cold = RoundTally::default();
        mesh.round(rounds, &mut Spans::new(false), &mut cold);
        let cold_s = spans.exit(open);
        mesh.cold_ns_per_event = cold_s * 1e9 / (mesh.cluster.events_delivered() - before) as f64;
        mesh
    }

    /// Target of `reader`'s `r`-th read in `round`.
    fn target(&self, reader: usize, r: usize, round: usize) -> usize {
        let n = self.addrs.len();
        usize::from(self.targets[(round * n + reader) * READS_PER_NODE + r])
    }

    /// Run one round; returns the host seconds inside `run_to_quiescence`.
    fn round(&mut self, round: usize, spans: &mut Spans, tally: &mut RoundTally) -> f64 {
        let n = self.addrs.len();
        let open = spans.enter("core.cluster.inject");
        let first_op = {
            let mut first = None;
            for reader in 0..n {
                for r in 0..READS_PER_NODE {
                    let target = self.target(reader, r, round);
                    let addr = self.addrs[target][r % PAGES_PER_NODE];
                    let op = self
                        .cluster
                        .inject_read(NodeId::from(reader), addr, Consume::Isp);
                    first.get_or_insert(op);
                }
            }
            first.expect("mesh has nodes")
        };
        spans.exit(open);

        let ((), run_s) = spans.time("core.cluster.run", || self.cluster.run_to_quiescence());

        let (harvested, _) = spans.time("core.cluster.harvest", || {
            (0..n)
                .map(|node| self.cluster.harvest_node(NodeId::from(node)))
                .collect::<Vec<_>>()
        });

        let open = spans.enter("bench.check");
        for (reader, done) in harvested.iter().enumerate() {
            if done.len() != READS_PER_NODE {
                tally.failed += (READS_PER_NODE - done.len().min(READS_PER_NODE)) as u64;
                tally.notes.push(format!(
                    "node {reader} completed {} of {READS_PER_NODE} reads",
                    done.len()
                ));
            }
            for c in done {
                tally.reads += 1;
                tally.latencies_ps.push((c.end - c.start).as_ps());
                // Ops were injected reader-major, so the op id gives the read.
                let r = ((c.op_id - first_op) as usize) % READS_PER_NODE;
                let target = self.target(reader, r, round);
                let word = self.words[target][r % PAGES_PER_NODE];
                let intact = c.error.is_none()
                    && c.data.as_deref().is_some_and(|d| {
                        !d.is_empty() && d.chunks_exact(8).all(|chunk| chunk == word.to_le_bytes())
                    });
                if !intact {
                    tally.failed += 1;
                    if tally.notes.len() < 5 {
                        tally.notes.push(format!(
                            "node {reader} read {r}: page is not node {target}'s pattern"
                        ));
                    }
                }
                let mut h = FNV_OFFSET;
                fnv(&mut h, &(c.op_id - first_op).to_le_bytes());
                fnv(&mut h, &(round as u64).to_le_bytes());
                fnv(&mut h, &[u8::from(c.error.is_some())]);
                fnv(
                    &mut h,
                    &c.data
                        .as_deref()
                        .map_or([0; 8], |d| d[..8].try_into().expect("8 bytes")),
                );
                tally.digest ^= h;
            }
        }
        spans.exit(open);
        run_s
    }

    fn rep(&mut self, spans: &mut Spans) -> Rep {
        let events_before = self.cluster.events_delivered();
        let clock_before = self.cluster.now();
        // The cluster has history (warm-up, earlier repetitions): snapshot
        // its counters so the layer metrics are this repetition's own.
        let mut counters_before = Layers::new();
        if spans.recording() {
            cluster_layers(&self.cluster, &mut counters_before);
        }
        let mut tally = RoundTally::default();
        let open = spans.enter("rep");
        let mut run_s = 0.0;
        for round in 0..self.rounds {
            run_s += self.round(round, spans, &mut tally);
        }
        let wall_s = spans.exit(open);
        self.cluster.assert_quiescent();

        let events = self.cluster.events_delivered() - events_before;
        let (p50, p999) = p50_p999_us(&mut tally.latencies_ps);
        let mut layers = Layers::new();
        if spans.recording() {
            cluster_layers(&self.cluster, &mut layers);
            layers = since(&counters_before, layers);
            layers.push(("sim.engine.ns_per_event", run_s * 1e9 / events as f64));
            layers.push(("sim.engine.cold_ns_per_event", self.cold_ns_per_event));
        }
        Rep {
            wall_s,
            events,
            ops: tally.reads,
            attempted: (self.addrs.len() * READS_PER_NODE * self.rounds) as u64,
            failed: tally.failed,
            digest: tally.digest,
            sim: vec![
                (
                    "sim_time_ms",
                    (self.cluster.now() - clock_before).as_ps() as f64 / 1e9,
                ),
                ("sim_read_p50_us", p50),
                ("sim_read_p999_us", p999),
            ],
            layers,
            notes: tally.notes,
        }
    }
}

/// `mesh_scatter`: the sequential engine.
pub struct MeshScatter(Mesh);

impl Workload for MeshScatter {
    const NAME: &'static str = spec::MESH_SCATTER;
    const FRESH_PER_REP: bool = false;

    fn setup(p: &Params, spans: &mut Spans) -> Self {
        MeshScatter(Mesh::setup(p, 1, spans))
    }

    fn rep(&mut self, _index: u32, spans: &mut Spans) -> Rep {
        let mut rep = self.0.rep(spans);
        if spans.recording() {
            probes::kernel(&mut rep.layers);
            probes::router(&mut rep.layers);
        }
        rep
    }
}

/// `mesh_scatter_sh2`: two worker threads, default min-cut partition.
pub struct MeshScatterSh2(Mesh);

impl Workload for MeshScatterSh2 {
    const NAME: &'static str = spec::MESH_SCATTER_SH2;
    const FRESH_PER_REP: bool = false;

    fn setup(p: &Params, spans: &mut Spans) -> Self {
        MeshScatterSh2(Mesh::setup(p, 2, spans))
    }

    fn rep(&mut self, _index: u32, spans: &mut Spans) -> Rep {
        self.0.rep(spans)
    }

    /// Run the same first repetition on the sequential engine and compare.
    /// The engines' contract (README, "Determinism contract"): every
    /// arbitration-independent observable — per-op data and errors, event
    /// totals — is identical always; timing is identical to the ps when
    /// uncontended, and under same-instant contention the engines may
    /// redistribute queueing. So digest and events must match exactly,
    /// and timing must match closely.
    fn finish(self, p: &Params, first: &Rep) -> Finish {
        /// Farthest a timing metric may sit from the sequential engine's.
        const TIMING_TOLERANCE: f64 = 0.01;
        drop(self);
        let mut quiet = Spans::new(false);
        // The twin checks the *engine*, so it sees the same (possibly
        // fault-injected) expectations.
        let mut twin = Mesh::setup(p, 1, &mut quiet);
        let seq = twin.rep(&mut quiet);
        let mut finish = Finish::default();
        if seq.digest != first.digest {
            finish
                .failed
                .push("sharded result digest differs from the sequential engine's".to_string());
        }
        if seq.events != first.events {
            finish.failed.push(format!(
                "sharded run delivered {} events, sequential {}",
                first.events, seq.events
            ));
        }
        for (&(name, sharded), &(_, sequential)) in first.sim.iter().zip(&seq.sim) {
            let delta = sharded / sequential - 1.0;
            if delta.abs() > TIMING_TOLERANCE {
                finish.failed.push(format!(
                    "{name}: sharded {sharded} vs sequential {sequential} ({:+.2} %)",
                    delta * 100.0
                ));
            } else if delta != 0.0 {
                finish.remarks.push(format!(
                    "{name}: sharded {sharded} vs sequential {sequential} ({:+.4} %, arbitration under contention)",
                    delta * 100.0
                ));
            }
        }
        finish
            .layers
            .push(("sim.shard.speedup_x", seq.wall_s / first.wall_s));
        finish
    }
}
