//! The exported bytes of one fixed trace, pinned: the binary encoding,
//! the CSV and the Chrome JSON (as FNV-1a hashes of their bytes), plus
//! both digests. The trace comes from four sinks, the shapes a real run
//! hands `TraceDoc::merge`: two engine shards that record in time
//! order, the KV driver's sink, which stamps records in the past, and a
//! small sink that drops at capacity. How the records are held between
//! capture and export may change; the bytes written may not.

use bluedbm_trace::{
    binfmt, chrome, TraceCat, TraceConfig, TraceDoc, TraceName, TraceSink, ALL_CATEGORIES, DRIVER_SHARD,
    STABLE_CATEGORIES,
};

/// FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// A small LCG, so the trace is fixed without a seeded RNG crate.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

const CATS: [TraceCat; 6] = [
    TraceCat::Dispatch,
    TraceCat::Mailbox,
    TraceCat::Accel,
    TraceCat::BufPool,
    TraceCat::KvOp,
    TraceCat::Gc,
];

const NAMES: [TraceName; 8] = [
    TraceName::Event,
    TraceName::Flush,
    TraceName::Grant,
    TraceName::Park,
    TraceName::Resume,
    TraceName::Victim,
    TraceName::Move,
    TraceName::Erase,
];

/// `n` records on `sink` at non-decreasing instants from `t`, of every
/// kind; instants repeat, so `seq` decides ties within and across sinks.
fn in_order(sink: &mut TraceSink, rng: &mut Lcg, n: u64) {
    let mut t = 1_000;
    for i in 0..n {
        t += rng.below(3) * 250_000;
        let cat = CATS[rng.below(6) as usize];
        let name = NAMES[rng.below(8) as usize];
        let track = rng.below(4) as u32;
        match rng.below(3) {
            0 => sink.at(t).instant(cat, name, track, i, rng.below(1 << 40)),
            1 => sink.at(t).counter(cat, name, track, rng.below(100)),
            _ => {
                sink.at(t).span_begin(cat, name, track, i, 0);
                sink.at(t + rng.below(2) * 250_000).span_end(cat, name, track, i, 0);
            }
        }
    }
}

/// The KV driver's shape: submit, gate and start at the driver's clock,
/// then a finish stamped at the op's end, which may lie before records
/// already taken.
fn driver(sink: &mut TraceSink, rng: &mut Lcg, ops: u64) {
    let mut now = 1_000;
    for id in 0..ops {
        now += rng.below(4) * 250_000;
        let tenant = rng.below(3) as u32;
        sink.at(now).instant(TraceCat::KvOp, TraceName::Submit, tenant, id, rng.below(3));
        sink.at(now).instant(TraceCat::KvOp, TraceName::Gate, tenant, id, 0);
        sink.at(now + 250_000).instant(TraceCat::KvOp, TraceName::Start, tenant, id, 0);
        let end = now.saturating_sub(rng.below(6) * 250_000) + 125_000;
        sink.at(end).instant(TraceCat::KvOp, TraceName::Finish, tenant, id, rng.below(9));
    }
}

fn fixed_trace() -> TraceDoc {
    let mut rng = Lcg(0x5eed);
    let mut shard0 = TraceSink::new(TraceConfig::on(), 0);
    let mut shard1 = TraceSink::new(TraceConfig::on(), 1);
    let mut drv = TraceSink::new(TraceConfig::on(), DRIVER_SHARD);
    let mut small = TraceSink::new(TraceConfig::on().with_capacity(24), 2);
    in_order(&mut shard0, &mut rng, 60);
    in_order(&mut shard1, &mut rng, 45);
    driver(&mut drv, &mut rng, 30);
    in_order(&mut small, &mut rng, 40);
    TraceDoc::merge(vec![shard1.take(), drv.take(), small.take(), shard0.take()])
}

/// `export` run into a buffer.
fn bytes(export: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> Vec<u8> {
    let mut out = Vec::new();
    export(&mut out).unwrap();
    out
}

#[test]
fn exported_bytes_are_pinned() {
    let doc = fixed_trace();
    let bin = bytes(|out| binfmt::write(&doc, out));
    let csv = bytes(|out| doc.write_csv(out));
    let json = bytes(|out| chrome::write_json(&doc, out));
    let got = (
        doc.len(),
        doc.dropped(),
        fnv(&bin),
        fnv(&csv),
        fnv(&json),
        doc.digest_full(ALL_CATEGORIES),
        doc.digest_stable(STABLE_CATEGORIES),
    );
    // The CSV, the Chrome JSON and both digests were taken before the
    // trace was kept as sorted runs; the binary hash with format 2.
    let want = (
        289,
        40,
        0xf6bd_8259_c5d8_b417,
        0x3ba1_8bd9_112e_2882,
        0x6314_a481_f23c_8d17,
        0xc635_0288_19ae_4640,
        0xb64a_5bb8_8a17_bdf8,
    );
    assert_eq!(got, want, "{got:#x?}");
}
