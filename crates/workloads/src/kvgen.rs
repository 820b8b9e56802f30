//! Keyed workload generation for the multi-tenant KV engine.
//!
//! Produces deterministic per-tenant request streams against
//! [`bluedbm_core::KvStore`]: a **load phase** (every key put once,
//! tenants interleaved round-robin) and a **churn phase** (a read/write/
//! delete mix with zipfian or uniform key popularity per tenant). All
//! randomness comes from [`bluedbm_sim::rng`] seeded by the spec, so the
//! same spec generates bit-identical streams on every engine and host —
//! the cross-engine conformance suite and the `kv_million_*` bench rows
//! depend on that.
//!
//! Streams are **iterators**, not materialized vectors: a million-key
//! load costs no workload memory beyond the request being submitted.
//! [`run_requests`] drives a stream through a store in bounded
//! submission batches and folds every completion into a
//! [`KvRunSummary`], whose order-independent `digest` lets two runs (on
//! different engines, or different shard counts) be compared without
//! retaining a million completion records.

use bluedbm_core::kvstore::{KvCompletion, KvOpKind};
use bluedbm_core::{KvStore, NodeId, TenantId};
use bluedbm_flash::FlashGeometry;
use bluedbm_sim::rng::{Rng, Zipf};
use bluedbm_sim::time::SimTime;

/// One generated KV request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvRequest {
    /// Store (or overwrite) a value.
    Put {
        /// Submitting tenant.
        tenant: TenantId,
        /// Key (see [`KvWorkloadSpec::key`]).
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Read a key from the tenant's reader node.
    Get {
        /// Submitting tenant.
        tenant: TenantId,
        /// Node issuing the read.
        reader: NodeId,
        /// Key.
        key: Vec<u8>,
    },
    /// Remove a key.
    Delete {
        /// Submitting tenant.
        tenant: TenantId,
        /// Key.
        key: Vec<u8>,
    },
}

/// Shape of a multi-tenant KV workload.
#[derive(Clone, Debug, PartialEq)]
pub struct KvWorkloadSpec {
    /// Concurrent tenants (each with a private key space and stream).
    pub tenants: u16,
    /// Keys per tenant (the load phase puts each exactly once).
    pub keys_per_tenant: u64,
    /// Churn-phase operations across all tenants.
    pub churn_ops: u64,
    /// Fraction of churn ops that are gets.
    pub read_fraction: f64,
    /// Fraction of churn ops that are deletes (the remainder are
    /// overwriting puts).
    pub delete_fraction: f64,
    /// Key-popularity skew: 0.0 = uniform, ~0.99 = classic zipfian.
    pub zipf_exponent: f64,
    /// Value size in bytes.
    pub value_bytes: usize,
    /// Cluster size; tenant `t` reads from node `t % nodes`.
    pub nodes: usize,
    /// Master seed; every stream derives deterministically from it.
    pub seed: u64,
}

impl KvWorkloadSpec {
    /// The million-key scale point of the ROADMAP: 8 tenants × 125 k
    /// keys on `nodes` nodes, zipfian churn at a 70/20/10
    /// get/overwrite/delete mix. Pair with [`kv_flash_geometry`] so the
    /// full keyspace fits simulated flash comfortably.
    pub fn million(nodes: usize) -> Self {
        KvWorkloadSpec {
            tenants: 8,
            keys_per_tenant: 125_000,
            churn_ops: 100_000,
            read_fraction: 0.7,
            delete_fraction: 0.1,
            zipf_exponent: 0.99,
            value_bytes: 64,
            nodes,
            seed: 0xB1DE_B1DE,
        }
    }

    /// A proportionally scaled copy with `total_keys` keys across the
    /// same tenant count (for tests and smoke runs).
    pub fn scaled_to(&self, total_keys: u64) -> Self {
        let keys_per_tenant = (total_keys / u64::from(self.tenants)).max(1);
        KvWorkloadSpec {
            keys_per_tenant,
            churn_ops: (keys_per_tenant * u64::from(self.tenants)) / 10,
            ..self.clone()
        }
    }

    /// Keys across all tenants.
    pub fn total_keys(&self) -> u64 {
        u64::from(self.tenants) * self.keys_per_tenant
    }

    /// The canonical key encoding: 2 bytes of tenant + 8 bytes of key
    /// index, both big-endian (compact, collision-free, sortable).
    pub fn key(tenant: TenantId, k: u64) -> Vec<u8> {
        let mut key = Vec::with_capacity(10);
        key.extend_from_slice(&tenant.to_be_bytes());
        key.extend_from_slice(&k.to_be_bytes());
        key
    }

    /// The node tenant `t`'s application instance runs on (and reads
    /// from).
    pub(crate) fn reader(&self, tenant: TenantId) -> NodeId {
        NodeId::from(tenant as usize % self.nodes.max(1))
    }

    /// The load phase: every key put exactly once, tenants interleaved
    /// round-robin so all key spaces (and home nodes) fill concurrently.
    pub fn load(&self) -> impl Iterator<Item = KvRequest> + '_ {
        let mut rngs = self.tenant_rngs(0x10AD);
        let tenants = u64::from(self.tenants);
        (0..self.total_keys()).map(move |i| {
            let tenant = (i % tenants) as TenantId;
            let k = i / tenants;
            let mut value = vec![0u8; self.value_bytes];
            rngs[tenant as usize].fill_bytes(&mut value);
            KvRequest::Put {
                tenant,
                key: Self::key(tenant, k),
                value,
            }
        })
    }

    /// The churn phase: `churn_ops` requests, tenants interleaved
    /// round-robin, keys drawn zipfian (or uniform at exponent 0) from
    /// each tenant's space, kinds drawn from the read/delete mix.
    pub fn churn(&self) -> impl Iterator<Item = KvRequest> + '_ {
        let rngs = self.tenant_rngs(0xC4A2);
        let zipf = (self.zipf_exponent > 0.0)
            .then(|| Zipf::new(self.keys_per_tenant as usize, self.zipf_exponent));
        ChurnIter {
            spec: self,
            rngs,
            zipf,
            next: 0,
        }
    }

    /// The sustained-churn phase: `ops` overwriting puts, tenants
    /// interleaved round-robin, each tenant sweeping its key space
    /// cyclically so every pass rewrites every key. Unlike
    /// [`KvWorkloadSpec::churn`] nothing is read or deleted — the
    /// stream is pure write pressure. Sized past the device's logical
    /// capacity (e.g. `2 * Cluster::node_capacity_pages` ops of
    /// one-page values), it forces steady-state garbage collection:
    /// every overwrite strands the key's previous extent, and the
    /// lifecycle has to relocate and erase to keep making room.
    pub fn overwrite_churn(&self, ops: u64) -> impl Iterator<Item = KvRequest> + '_ {
        let mut rngs = self.tenant_rngs(0x5EED);
        let tenants = u64::from(self.tenants);
        (0..ops).map(move |i| {
            let tenant = (i % tenants) as TenantId;
            let k = (i / tenants) % self.keys_per_tenant;
            let mut value = vec![0u8; self.value_bytes];
            rngs[tenant as usize].fill_bytes(&mut value);
            KvRequest::Put {
                tenant,
                key: Self::key(tenant, k),
                value,
            }
        })
    }

    /// Independent per-tenant generators derived from the master seed
    /// and a phase tag.
    fn tenant_rngs(&self, phase: u64) -> Vec<Rng> {
        let mut master = Rng::new(self.seed ^ (phase << 32));
        (0..self.tenants).map(|_| master.fork()).collect()
    }
}

/// Iterator state of [`KvWorkloadSpec::churn`].
struct ChurnIter<'a> {
    spec: &'a KvWorkloadSpec,
    rngs: Vec<Rng>,
    zipf: Option<Zipf>,
    next: u64,
}

impl Iterator for ChurnIter<'_> {
    type Item = KvRequest;

    fn next(&mut self) -> Option<KvRequest> {
        if self.next >= self.spec.churn_ops {
            return None;
        }
        let tenant = (self.next % u64::from(self.spec.tenants)) as TenantId;
        self.next += 1;
        let rng = &mut self.rngs[tenant as usize];
        let k = match &self.zipf {
            Some(zipf) => zipf.sample(rng) as u64,
            None => rng.below(self.spec.keys_per_tenant),
        };
        let key = KvWorkloadSpec::key(tenant, k);
        let draw = rng.unit_f64();
        Some(if draw < self.spec.read_fraction {
            KvRequest::Get {
                tenant,
                reader: self.spec.reader(tenant),
                key,
            }
        } else if draw < self.spec.read_fraction + self.spec.delete_fraction {
            KvRequest::Delete { tenant, key }
        } else {
            let mut value = vec![0u8; self.spec.value_bytes];
            rng.fill_bytes(&mut value);
            KvRequest::Put { tenant, key, value }
        })
    }
}

/// A flash geometry for million-key runs: paper-shaped parallelism
/// (8 buses × 8 chips) with small 128-byte pages, so a million
/// one-page values cost ~150 MB of host RAM instead of gigabytes.
/// 512 Ki pages per card → 1 Mi per two-card node; a 4-node cluster
/// holds a million one-page keys with 4× headroom.
pub fn kv_flash_geometry() -> FlashGeometry {
    FlashGeometry {
        buses: 8,
        chips_per_bus: 8,
        blocks_per_chip: 64,
        pages_per_block: 128,
        page_bytes: 128,
    }
}

/// Outcome of driving one request stream: counters plus an
/// order-independent digest of every per-op observable, for cross-engine
/// comparison without retaining completions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KvRunSummary {
    /// Operations completed.
    pub ops: u64,
    /// Puts completed.
    pub(crate) puts: u64,
    /// Gets completed.
    pub(crate) gets: u64,
    /// Deletes completed.
    pub(crate) deletes: u64,
    /// Gets that found their key.
    pub get_hits: u64,
    /// Gets of absent keys.
    pub get_misses: u64,
    /// Operations that failed.
    pub errors: u64,
    /// XOR-folded FNV digest over (op id, kind, found, error, value) —
    /// identical across engines iff every op's observables are.
    pub digest: u64,
    /// Simulated clock when the run finished. A *timing* observable:
    /// under same-instant contention the engines may quiesce apart by
    /// the redistributed queueing, so cross-engine comparisons should
    /// exclude it (compare `digest` and the counters).
    pub sim_time: SimTime,
}

impl KvRunSummary {
    fn fold(&mut self, c: &KvCompletion) {
        self.ops += 1;
        match c.kind {
            KvOpKind::Put => self.puts += 1,
            KvOpKind::Get => {
                self.gets += 1;
                if c.found {
                    self.get_hits += 1;
                } else {
                    self.get_misses += 1;
                }
            }
            KvOpKind::Delete => self.deletes += 1,
        }
        if c.error.is_some() {
            self.errors += 1;
        }
        let mut h = FNV_OFFSET;
        fnv(&mut h, &c.op.to_le_bytes());
        fnv(&mut h, &[c.kind as u8 + 1, u8::from(c.found)]);
        if let Some(e) = &c.error {
            fnv(&mut h, e.to_string().as_bytes());
        }
        if let Some(v) = &c.value {
            fnv(&mut h, v);
        }
        // XOR-fold: completion order (which can shift across engine
        // round boundaries) cannot change the digest.
        self.digest ^= h;
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x1_0000_01b3);
    }
}

/// Drive `requests` through `store` in bounded submission batches
/// (`batch` ops submitted per [`KvStore::drive`] round-trip), folding
/// every completion into a [`KvRunSummary`].
pub fn run_requests(
    store: &mut KvStore,
    requests: impl IntoIterator<Item = KvRequest>,
    batch: usize,
) -> KvRunSummary {
    let batch = batch.max(1);
    let mut summary = KvRunSummary::default();
    let mut pending = 0usize;
    for request in requests {
        match request {
            KvRequest::Put { tenant, key, value } => {
                store.submit_put(tenant, &key, &value);
            }
            KvRequest::Get {
                tenant,
                reader,
                key,
            } => {
                store.submit_get(tenant, reader, &key);
            }
            KvRequest::Delete { tenant, key } => {
                store.submit_delete(tenant, &key);
            }
        }
        pending += 1;
        if pending >= batch {
            for c in store.drive() {
                summary.fold(&c);
            }
            pending = 0;
        }
    }
    for c in store.drive() {
        summary.fold(&c);
    }
    summary.sim_time = store.cluster().now();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> KvWorkloadSpec {
        KvWorkloadSpec {
            tenants: 4,
            keys_per_tenant: 50,
            churn_ops: 400,
            read_fraction: 0.6,
            delete_fraction: 0.1,
            zipf_exponent: 0.99,
            value_bytes: 48,
            nodes: 4,
            seed: 7,
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let s = spec();
        let a: Vec<KvRequest> = s.load().chain(s.churn()).collect();
        let b: Vec<KvRequest> = s.load().chain(s.churn()).collect();
        assert_eq!(a, b);
        let mut other = spec();
        other.seed = 8;
        let c: Vec<KvRequest> = other.load().collect();
        assert_ne!(a[..c.len()], c[..], "a different seed changes the stream");
    }

    #[test]
    fn load_covers_every_key_once() {
        let s = spec();
        let mut seen = bluedbm_sim::fxhash::FxHashSet::default();
        for req in s.load() {
            let KvRequest::Put { tenant, key, value } = req else {
                panic!("load emits puts only");
            };
            assert_eq!(value.len(), s.value_bytes);
            assert!(seen.insert(key.clone()), "duplicate key in load");
            assert_eq!(key[..2], tenant.to_be_bytes());
        }
        assert_eq!(seen.len() as u64, s.total_keys());
    }

    #[test]
    fn churn_respects_mix_and_key_space() {
        let mut s = spec();
        s.churn_ops = 4000;
        let (mut gets, mut dels, mut puts) = (0u64, 0u64, 0u64);
        for req in s.churn() {
            let (tenant, key) = match &req {
                KvRequest::Get { tenant, reader, key } => {
                    assert_eq!(*reader, s.reader(*tenant));
                    gets += 1;
                    (tenant, key)
                }
                KvRequest::Delete { tenant, key } => {
                    dels += 1;
                    (tenant, key)
                }
                KvRequest::Put { tenant, key, .. } => {
                    puts += 1;
                    (tenant, key)
                }
            };
            let k = u64::from_be_bytes(key[2..].try_into().unwrap());
            assert!(k < s.keys_per_tenant);
            assert!(*tenant < s.tenants);
        }
        let total = (gets + dels + puts) as f64;
        assert_eq!(total as u64, s.churn_ops);
        assert!((gets as f64 / total - 0.6).abs() < 0.05, "gets {gets}");
        assert!((dels as f64 / total - 0.1).abs() < 0.03, "deletes {dels}");
    }

    #[test]
    fn overwrite_churn_sweeps_the_keyspace_cyclically() {
        let s = spec();
        let ops = 2 * s.total_keys() + 3;
        let mut per_key = std::collections::BTreeMap::new();
        for (i, req) in s.overwrite_churn(ops).enumerate() {
            let KvRequest::Put { tenant, key, value } = req else {
                panic!("overwrite churn emits puts only");
            };
            assert_eq!(tenant, (i as u64 % u64::from(s.tenants)) as TenantId);
            assert_eq!(value.len(), s.value_bytes);
            *per_key.entry(key).or_insert(0u64) += 1;
        }
        // Two full passes plus a ragged tail: every key overwritten at
        // least twice, none more than three times.
        assert_eq!(per_key.len() as u64, s.total_keys());
        assert!(per_key.values().all(|&n| (2..=3).contains(&n)));
        // Deterministic like the other phases.
        let a: Vec<KvRequest> = s.overwrite_churn(100).collect();
        let b: Vec<KvRequest> = s.overwrite_churn(100).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn zipf_churn_skews_toward_hot_keys() {
        let mut s = spec();
        s.churn_ops = 8000;
        let mut counts = vec![0u64; s.keys_per_tenant as usize];
        for req in s.churn() {
            let key = match &req {
                KvRequest::Get { key, .. }
                | KvRequest::Delete { key, .. }
                | KvRequest::Put { key, .. } => key,
            };
            counts[u64::from_be_bytes(key[2..].try_into().unwrap()) as usize] += 1;
        }
        let hot: u64 = counts[..5].iter().sum();
        let cold: u64 = counts[45..].iter().sum();
        assert!(hot > 4 * cold, "zipf head {hot} vs tail {cold}");
    }

    #[test]
    fn million_preset_is_a_million_keys() {
        let s = KvWorkloadSpec::million(4);
        assert_eq!(s.total_keys(), 1_000_000);
        let g = kv_flash_geometry();
        // 4 nodes × 2 cards must hold the keyspace with headroom.
        assert!(4 * 2 * g.total_pages() as u64 >= 4 * s.total_keys());
        let scaled = s.scaled_to(10_000);
        assert_eq!(scaled.total_keys(), 10_000);
    }
}
