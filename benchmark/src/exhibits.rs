//! `exhibits`: every paper table and figure driver, as
//! `crates/bench/src/bin/all.rs` runs them. The only workload through the
//! blocking `stream_reads`/`isp_scan`/`read_page*` API, the host PCIe
//! path and the ISP engines. The drivers pin their own seeds, so
//! `--seed` changes nothing here.
//!
//! The accuracy metric, `anchor_err_pct`, is the largest relative
//! distance between a simulated value and the paper's for the six
//! anchors the ROADMAP names: fig11's 8.2 Gb/s/lane and 0.48 µs/hop,
//! fig13's 1.6 / 2.4 / 3.4 / 6.5 GB/s.

use std::hint::black_box;

use bluedbm_workloads::experiments as ex;

use crate::layers::Layers;
use crate::spans::Spans;
use crate::spec;
use crate::{probes, Params, Rep, Workload};

/// Exhibits regenerated per repetition (3 tables + 9 figures).
const EXHIBITS: u64 = 12;
/// A reproduction further than this from a paper anchor is wrong, not slow.
const ANCHOR_LIMIT_PCT: f64 = 10.0;

const FIG13_ANCHORS: [(&str, &str, f64); 4] = [
    ("Host-Local", "workloads.exhibit.fig13_host_local_gbps", 1.6),
    ("ISP-Local", "workloads.exhibit.fig13_isp_local_gbps", 2.4),
    ("ISP-2Nodes", "workloads.exhibit.fig13_isp_2nodes_gbps", 3.4),
    ("ISP-3Nodes", "workloads.exhibit.fig13_isp_3nodes_gbps", 6.5),
];

pub struct Exhibits {
    fault: bool,
}

/// The value in `values` farthest from `paper`, with its error in percent.
fn worst(values: impl Iterator<Item = f64>, paper: f64) -> (f64, f64) {
    values
        .map(|v| (v, (v - paper).abs() / paper * 100.0))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("exhibit has rows")
}

/// One pass over every exhibit.
fn pass(fault: bool, spans: &mut Spans) -> Rep {
    let mut rep = Rep {
        ops: EXHIBITS,
        attempted: EXHIBITS,
        ..Rep::default()
    };
    let open = spans.enter("rep");
    black_box(ex::tables::table1());
    black_box(ex::tables::table2());
    black_box(ex::tables::table3());
    let (fig11, t11) = spans.time("workloads.exhibit.fig11", ex::fig11::run);
    let (_, t12) = spans.time("workloads.exhibit.fig12", || black_box(ex::fig12::run()));
    let (fig13, t13) = spans.time("workloads.exhibit.fig13", ex::fig13::run);
    let (_, t16) = spans.time("workloads.exhibit.fig16", || black_box(ex::fig16::run()));
    let (_, t17) = spans.time("workloads.exhibit.fig17", || black_box(ex::fig17::run()));
    let (_, t18) = spans.time("workloads.exhibit.fig18", || black_box(ex::fig18::run()));
    let (_, t19) = spans.time("workloads.exhibit.fig19", || black_box(ex::fig19::run()));
    let (_, t20) = spans.time("workloads.exhibit.fig20", || black_box(ex::fig20::run()));
    let (fig21, t21) = spans.time("workloads.exhibit.fig21", ex::fig21::run);
    rep.wall_s = spans.exit(open);

    let (lane, lane_err) = worst(fig11.rows.iter().map(|r| r.bandwidth_gbps), 8.2);
    let (hop, hop_err) = worst(fig11.rows.iter().map(|r| r.latency_per_hop_us), 0.48);
    let mut anchor_err = lane_err.max(hop_err);
    rep.layers.push(("workloads.exhibit.fig11_lane_gbps", lane));
    rep.layers.push(("workloads.exhibit.fig11_hop_us", hop));
    for (scenario, metric, paper) in FIG13_ANCHORS {
        match fig13.rows.iter().find(|r| r.scenario == scenario) {
            Some(row) => {
                anchor_err = anchor_err.max((row.bandwidth_gb - paper).abs() / paper * 100.0);
                rep.layers.push((metric, row.bandwidth_gb));
            }
            None => {
                rep.failed += 1;
                rep.notes.push(format!("fig13 has no `{scenario}` row"));
            }
        }
    }
    rep.sim.push(("anchor_err_pct", anchor_err));
    if anchor_err >= ANCHOR_LIMIT_PCT {
        rep.failed += 1;
        rep.notes.push(format!(
            "anchor_err_pct = {anchor_err:.2} (limit {ANCHOR_LIMIT_PCT})"
        ));
    }
    // Negative test: claim one more needle than was planted.
    let planted = fig21.planted + usize::from(fault);
    if fig21.found != planted || planted == 0 {
        rep.failed += 1;
        rep.notes.push(format!(
            "fig21 found {} of {planted} planted needles",
            fig21.found
        ));
    }
    // The exhibits are pure functions of the source; their rendered
    // tables are the digest.
    rep.digest = crate::stats::fnv_of(
        format!("{}{}{}", fig11.render(), fig13.render(), fig21.render()).as_bytes(),
    );

    for (metric, secs) in [
        ("workloads.exhibit.fig11_s", t11),
        ("workloads.exhibit.fig12_s", t12),
        ("workloads.exhibit.fig13_s", t13),
        ("workloads.exhibit.fig16_s", t16),
        ("workloads.exhibit.fig17_s", t17),
        ("workloads.exhibit.fig18_s", t18),
        ("workloads.exhibit.fig19_s", t19),
        ("workloads.exhibit.fig20_s", t20),
        ("workloads.exhibit.fig21_s", t21),
    ] {
        rep.layers.push((metric, secs));
    }
    rep
}

impl Workload for Exhibits {
    const NAME: &'static str = spec::EXHIBITS;
    const FRESH_PER_REP: bool = false;

    /// The drivers build their own clusters inside `run()`, so the only
    /// thing before the first timed call is one untimed warm-up pass
    /// (allocator growth, page faults, lazy statics).
    fn setup(p: &Params, _spans: &mut Spans) -> Self {
        black_box(pass(false, &mut Spans::new(false)));
        Exhibits { fault: p.fault }
    }

    fn rep(&mut self, _index: u32, spans: &mut Spans) -> Rep {
        let mut rep = pass(self.fault, spans);
        if spans.recording() {
            probes::isp(&mut rep.layers);
        } else {
            rep.layers = Layers::new();
        }
        rep
    }
}
