//! The raw, tag-based flash controller (paper Section 3.1.1), as a
//! timing model its client books.
//!
//! The controller exposes the paper's interface semantics:
//!
//! * commands carry a **tag**, which the client hands out: the hardware
//!   has [`FlashController::PAPER_TAGS`] (128), and a client holds any
//!   command past them itself ([`CtrlStats::tag_stalls`] counts the
//!   bookings made while all 128 were already out);
//! * completions return **out of order** with respect to issue order,
//!   interleaved across buses; the tag identifies which request finished;
//! * to saturate the device, *multiple commands must be in flight*,
//!   because a single read spends 50 µs in the NAND cell array while the
//!   bus could be transferring other pages.
//!
//! Contention is modelled per-chip (cell operations serialize on a die)
//! and per-bus (transfers serialize on a channel), which is where the
//! paper's 1.2 GB/s-per-card ceiling comes from: 8 buses x 150 MB/s.
//! A command's finish instant is fixed when it is accepted, so
//! [`FlashController::book`] returns it with the response; the client
//! delivers the response at that instant and then calls
//! [`FlashController::complete`].

use bluedbm_sim::pagestore::{PageRef, PageStore};
use bluedbm_sim::resource::SerialResource;
use bluedbm_sim::stats::{Histogram, Throughput};
use bluedbm_sim::time::SimTime;

use crate::array::FlashArray;
use crate::error::FlashError;
use crate::geometry::Ppa;
use crate::timing::FlashTiming;

/// Identifies one in-flight command (the paper's request tag).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Tag(pub u16);

/// Commands accepted by the [`FlashController`].
#[derive(Clone, Debug)]
pub enum CtrlCmd {
    /// Read one page.
    Read {
        /// Caller-chosen tag echoed in the completion.
        tag: Tag,
        /// Page to read.
        ppa: Ppa,
    },
    /// Program one page.
    Write {
        /// Caller-chosen tag echoed in the completion.
        tag: Tag,
        /// Page to program.
        ppa: Ppa,
        /// Handle to the page contents in the simulator's
        /// [`PageStore`] (must be exactly one page). The controller
        /// consumes the handle: the buffer is freed once the hardware
        /// has read it, mirroring the paper's write-buffer free-queue
        /// discipline.
        data: PageRef,
    },
    /// Erase the block containing `ppa`.
    Erase {
        /// Caller-chosen tag echoed in the completion.
        tag: Tag,
        /// Any page inside the victim block.
        ppa: Ppa,
    },
}

/// A successful page read as delivered by the controller: the data sits
/// in the simulator's [`PageStore`]; the handle's consumer owns the page
/// and must free (or [`PageStore::take`]) it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageRead {
    /// Handle to the page contents (after ECC correction on a card
    /// whose error model can flip bits).
    pub page: PageRef,
}

/// Completions produced by the [`FlashController`].
#[derive(Clone, Debug)]
pub enum CtrlResp {
    /// A read finished (successfully or not).
    ReadDone {
        /// Echo of the command tag.
        tag: Tag,
        /// Handle to the page data after ECC, or the failure.
        result: Result<PageRead, FlashError>,
    },
    /// A program finished.
    WriteDone {
        /// Echo of the command tag.
        tag: Tag,
        /// Success or the failure reason.
        result: Result<(), FlashError>,
    },
    /// An erase finished.
    EraseDone {
        /// Echo of the command tag.
        tag: Tag,
        /// Success or the failure reason.
        result: Result<(), FlashError>,
    },
}

impl CtrlResp {
    /// The tag carried by this completion.
    pub fn tag(&self) -> Tag {
        match self {
            CtrlResp::ReadDone { tag, .. }
            | CtrlResp::WriteDone { tag, .. }
            | CtrlResp::EraseDone { tag, .. } => *tag,
        }
    }
}

/// A one-line hardware-inventory record, the software analogue of the
/// paper's Table 1 resource rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleSpec {
    /// Module name.
    pub name: &'static str,
    /// Instantiation count.
    pub instances: usize,
    /// Queue/scoreboard depth, if the module has one.
    pub queue_depth: usize,
    /// Dedicated buffer bytes (the BRAM analogue).
    pub buffer_bytes: usize,
}

/// Cumulative controller statistics. `PartialEq` so the cross-engine
/// determinism suite can assert sharded and sequential runs observe the
/// exact same controller behaviour.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CtrlStats {
    /// Distribution of read command latency (accept -> data complete).
    pub read_latency: Histogram,
    /// Read payload throughput.
    pub read_throughput: Throughput,
    /// Commands booked while [`FlashController::PAPER_TAGS`] were
    /// already out.
    pub tag_stalls: u64,
    /// Peak simultaneous in-flight commands (booked, not yet completed).
    pub peak_in_flight: usize,
}

impl CtrlStats {
    /// Write the counters and read-latency percentiles into a metrics
    /// subtree (for the unified `bluedbm_trace::MetricsRegistry`).
    pub fn fill_metrics(&self, node: &mut bluedbm_trace::MetricsNode) {
        node.set("tag_stalls", self.tag_stalls);
        node.set("peak_in_flight", self.peak_in_flight);
        node.set("read_bytes", self.read_throughput.total_bytes());
        node.set("read_ops", self.read_throughput.ops());
        self.read_latency.fill_metrics(node.child("read_latency"));
    }
}

/// A [`FlashArray`] with the paper's controller timing and interface:
/// [`FlashController::book`] a [`CtrlCmd`] to get its finish instant
/// and [`CtrlResp`], and [`FlashController::complete`] it once the
/// response is delivered.
pub struct FlashController {
    array: FlashArray,
    timing: FlashTiming,
    in_flight: usize,
    chips: Vec<SerialResource>,
    buses: Vec<SerialResource>,
    stats: CtrlStats,
}

impl FlashController {
    /// The paper's tag budget: 128 outstanding commands.
    pub const PAPER_TAGS: usize = 128;

    /// Wrap an array with `timing`.
    pub fn new(array: FlashArray, timing: FlashTiming) -> Self {
        let geom = array.geometry();
        FlashController {
            array,
            timing,
            in_flight: 0,
            chips: vec![SerialResource::new(); geom.total_chips()],
            buses: vec![SerialResource::new(); geom.buses],
            stats: CtrlStats::default(),
        }
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// Direct access to the wrapped functional array (for test setup:
    /// preloading data without simulating the writes).
    pub fn array_mut(&mut self) -> &mut FlashArray {
        &mut self.array
    }

    /// Shared access to the wrapped functional array.
    pub fn array(&self) -> &FlashArray {
        &self.array
    }

    /// The software analogue of the paper's Table 1: what this controller
    /// instantiates.
    pub fn inventory(&self) -> Vec<ModuleSpec> {
        let geom = self.array.geometry();
        vec![
            ModuleSpec {
                name: "bus controller",
                instances: geom.buses,
                queue_depth: Self::PAPER_TAGS / geom.buses.max(1),
                buffer_bytes: geom.page_bytes,
            },
            ModuleSpec {
                name: "ecc decoder",
                instances: 2 * geom.buses,
                queue_depth: 0,
                buffer_bytes: geom.oob_bytes(),
            },
            ModuleSpec {
                name: "ecc encoder",
                instances: 2 * geom.buses,
                queue_depth: 0,
                buffer_bytes: geom.oob_bytes(),
            },
            ModuleSpec {
                name: "scoreboard",
                instances: 1,
                queue_depth: Self::PAPER_TAGS,
                buffer_bytes: Self::PAPER_TAGS * 8,
            },
            ModuleSpec {
                name: "phy",
                instances: geom.buses,
                queue_depth: 1,
                buffer_bytes: 64,
            },
            ModuleSpec {
                name: "serdes",
                instances: 1,
                queue_depth: 4,
                buffer_bytes: 4096,
            },
        ]
    }

    fn chip_index(&self, ppa: Ppa) -> usize {
        ppa.bus as usize * self.array.geometry().chips_per_bus + ppa.chip as usize
    }

    /// Book a command accepted at `now`: run the functional operation
    /// against `pages`, the simulator's page store, and reserve the chip
    /// and bus time it needs. Returns the instant it finishes and its
    /// response; the command is in flight until
    /// [`FlashController::complete`].
    pub fn book(&mut self, now: SimTime, pages: &mut PageStore, cmd: CtrlCmd) -> (SimTime, CtrlResp) {
        if self.in_flight >= Self::PAPER_TAGS {
            self.stats.tag_stalls += 1;
        }
        self.in_flight += 1;
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight);
        let accept = now + self.timing.command_overhead;
        match cmd {
            CtrlCmd::Read { tag, ppa } => {
                let page_bytes = self.array.geometry().page_bytes as u64;
                // Write-once read path: allocate the store page first and
                // let the array write the page's contents directly into
                // it — no scratch `Vec`, no copy-into-store.
                let page = pages.alloc(page_bytes as usize);
                let result = self
                    .array
                    .read_into(ppa, pages.get_mut(page))
                    .map(|_| PageRead { page });
                if result.is_err() {
                    pages.free(page);
                }
                let done = if self.array.geometry().contains(ppa) {
                    let ci = self.chip_index(ppa);
                    let cell = self.chips[ci].acquire(accept, self.timing.read_cell);
                    let xfer = self.buses[ppa.bus as usize].acquire(
                        cell.end,
                        self.timing.transfer_time(self.array.geometry().page_bytes),
                    );
                    xfer.end
                } else {
                    accept // address errors fail fast
                };
                if result.is_ok() {
                    self.stats.read_latency.record(done - now);
                    self.stats.read_throughput.record(page_bytes);
                }
                (done, CtrlResp::ReadDone { tag, result })
            }
            CtrlCmd::Write { tag, ppa, data } => {
                let bytes = pages.len(data);
                let result = self.array.program(ppa, pages.get(data));
                // The write buffer "will be returned to the free queue
                // when the hardware has finished reading the data from
                // the buffer" (paper Section 3.3): the functional copy
                // above is that read, so the handle is consumed here.
                pages.free(data);
                let done = if self.array.geometry().contains(ppa) {
                    let xfer = self.buses[ppa.bus as usize]
                        .acquire(accept, self.timing.transfer_time(bytes));
                    let ci = self.chip_index(ppa);
                    let prog = self.chips[ci].acquire(xfer.end, self.timing.program_cell);
                    prog.end
                } else {
                    accept
                };
                (done, CtrlResp::WriteDone { tag, result })
            }
            CtrlCmd::Erase { tag, ppa } => {
                let result = self.array.erase(ppa);
                let done = if self.array.geometry().contains(ppa) {
                    let ci = self.chip_index(ppa);
                    self.chips[ci].acquire(accept, self.timing.erase_block).end
                } else {
                    accept
                };
                (done, CtrlResp::EraseDone { tag, result })
            }
        }
    }

    /// Mark one booked command as finished: its response has been
    /// delivered.
    ///
    /// # Panics
    ///
    /// Panics (in a debug build) if no command is in flight.
    pub fn complete(&mut self) {
        self.in_flight -= 1;
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashGeometry;

    /// A tiny card and an empty page store to book against.
    fn setup(timing: FlashTiming) -> (FlashController, PageStore) {
        let array = FlashArray::new(FlashGeometry::tiny(), 5);
        (FlashController::new(array, timing), PageStore::new())
    }

    /// Book a read of `ppa` at `now`, take its page out of `pages` and
    /// complete it; returns the finish instant and the bytes (or error).
    fn read(
        ctl: &mut FlashController,
        pages: &mut PageStore,
        now: SimTime,
        tag: u16,
        ppa: Ppa,
    ) -> (SimTime, Result<Vec<u8>, FlashError>) {
        let (done, resp) = ctl.book(now, pages, CtrlCmd::Read { tag: Tag(tag), ppa });
        ctl.complete();
        let CtrlResp::ReadDone { result, .. } = resp else {
            panic!("a read answers ReadDone")
        };
        (done, result.map(|r| pages.take(r.page)))
    }

    #[test]
    fn write_then_read_round_trip_with_latency() {
        let (mut ctl, mut pages) = setup(FlashTiming::paper());
        let geom = FlashGeometry::tiny();
        let ppa = Ppa::new(0, 0, 0, 0);
        let data = vec![0x77u8; geom.page_bytes];
        let buffer = pages.alloc_from(&data);
        let (write_done, resp) = ctl.book(
            SimTime::ZERO,
            &mut pages,
            CtrlCmd::Write {
                tag: Tag(1),
                ppa,
                data: buffer,
            },
        );
        ctl.complete();
        assert!(matches!(resp, CtrlResp::WriteDone { tag: Tag(1), result: Ok(()) }));
        // tPROG dominates: at least 300 us.
        assert!(write_done >= SimTime::us(300));

        let (read_done, bytes) = read(&mut ctl, &mut pages, write_done, 2, ppa);
        let read_latency = read_done - write_done;
        // tR (50us) + 512B transfer at 150MB/s (~3.4us) + overhead.
        assert!(read_latency >= SimTime::us(50), "latency {read_latency}");
        assert!(read_latency < SimTime::us(60), "latency {read_latency}");
        assert_eq!(bytes.unwrap(), data);
        pages.assert_quiescent();
    }

    #[test]
    fn parallel_reads_across_buses_overlap() {
        // Two reads on different buses should finish at (almost) the same
        // time; two reads on the same chip must serialize their tR.
        let (mut ctl, mut pages) = setup(FlashTiming::paper());
        let data = vec![1u8; FlashGeometry::tiny().page_bytes];
        for ppa in [Ppa::new(0, 0, 0, 0), Ppa::new(1, 0, 0, 0), Ppa::new(0, 0, 0, 1)] {
            ctl.array_mut().program(ppa, &data).unwrap();
        }

        // Different buses in parallel.
        let parallel_done = (0..2u16)
            .map(|bus| read(&mut ctl, &mut pages, SimTime::ZERO, bus, Ppa::new(bus, 0, 0, 0)).0)
            .max()
            .unwrap();
        assert!(parallel_done < SimTime::us(60), "parallel: {parallel_done}");

        // Same chip: must serialize the 50us cell reads.
        let t0 = parallel_done;
        let serial_done = (0..2u32)
            .map(|page| read(&mut ctl, &mut pages, t0, 10 + page as u16, Ppa::new(0, 0, 0, page)).0)
            .max()
            .unwrap();
        let serial_span = serial_done - t0;
        assert!(serial_span >= SimTime::us(100), "serial: {serial_span}");
    }

    #[test]
    fn out_of_order_completion() {
        // Issue a read, then a second read serialized behind it on the
        // same chip, then a read on the other bus: completions interleave.
        let (mut ctl, mut pages) = setup(FlashTiming::test_fast());
        let data = vec![2u8; FlashGeometry::tiny().page_bytes];
        let ppas = [Ppa::new(0, 0, 0, 0), Ppa::new(0, 0, 0, 1), Ppa::new(1, 0, 0, 0)];
        for ppa in ppas {
            ctl.array_mut().program(ppa, &data).unwrap();
        }
        let mut done: Vec<(SimTime, Tag)> = (0..3u16)
            .map(|tag| (read(&mut ctl, &mut pages, SimTime::ZERO, tag, ppas[usize::from(tag)]).0, Tag(tag)))
            .collect();
        done.sort();
        let order: Vec<Tag> = done.iter().map(|&(_, t)| t).collect();
        // Tag 2 (other bus) must complete before tag 1 (serialized behind 0).
        let pos = |t: Tag| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(Tag(2)) < pos(Tag(1)), "completion order {order:?}");
    }

    #[test]
    fn bookings_past_the_paper_tags_count_as_stalls() {
        // `peak_in_flight` counts bookings not yet completed; a booking
        // made while all 128 tags are out is a stall.
        let (mut ctl, mut pages) = setup(FlashTiming::test_fast());
        let data = vec![3u8; FlashGeometry::tiny().page_bytes];
        let ppa = Ppa::new(0, 0, 0, 0);
        ctl.array_mut().program(ppa, &data).unwrap();
        for tag in 0..=FlashController::PAPER_TAGS {
            let (_, resp) = ctl.book(SimTime::ZERO, &mut pages, CtrlCmd::Read { tag: Tag(tag as u16), ppa });
            let CtrlResp::ReadDone { result: Ok(read), .. } = resp else {
                panic!("the read succeeds")
            };
            pages.free(read.page);
        }
        let stats = ctl.stats();
        assert_eq!((stats.peak_in_flight, stats.tag_stalls), (FlashController::PAPER_TAGS + 1, 1));
        ctl.complete();
        ctl.book(SimTime::ZERO, &mut pages, CtrlCmd::Erase { tag: Tag(0), ppa });
        assert_eq!((ctl.stats().peak_in_flight, ctl.stats().tag_stalls), (FlashController::PAPER_TAGS + 1, 2));
        pages.assert_quiescent();
    }

    #[test]
    fn errors_are_reported_not_dropped() {
        let (mut ctl, mut pages) = setup(FlashTiming::test_fast());
        // Never programmed.
        let (_, result) = read(&mut ctl, &mut pages, SimTime::ZERO, 9, Ppa::new(0, 0, 0, 0));
        assert!(matches!(result, Err(FlashError::NotProgrammed(_))));
        pages.assert_quiescent();
    }

    #[test]
    fn deep_queue_saturates_card_bandwidth() {
        // Keep all 4 chips of the tiny geometry busy: with enough tags the
        // sustained rate approaches the 2-bus aggregate transfer limit or
        // the cell-read limit, whichever binds.
        let (mut ctl, mut pages) = setup(FlashTiming::paper());
        let geom = FlashGeometry::tiny();
        let data = vec![4u8; geom.page_bytes];
        const READS_PER_CHIP: u32 = 8;
        let mut ppas = Vec::new();
        for bus in 0..geom.buses as u16 {
            for chip in 0..geom.chips_per_bus as u16 {
                for p in 0..READS_PER_CHIP {
                    ppas.push(Ppa::new(bus, chip, 0, p));
                }
            }
        }
        for &ppa in &ppas {
            ctl.array_mut().program(ppa, &data).unwrap();
        }
        let mut last = SimTime::ZERO;
        for (tag, &ppa) in ppas.iter().enumerate() {
            let (done, bytes) = read(&mut ctl, &mut pages, SimTime::ZERO, tag as u16, ppa);
            assert_eq!(bytes.unwrap(), data);
            last = last.max(done);
        }
        // Each chip serializes 8 x 50us = 400us of cell reads; chips run in
        // parallel, so the whole batch should take ~400-450us, not 1.6ms.
        assert!(last < SimTime::us(480), "took {last}");
        assert!(last >= SimTime::us(400));
    }

    #[test]
    fn inventory_lists_expected_modules() {
        let ctl = FlashController::new(
            FlashArray::new(FlashGeometry::paper_card(), 1),
            FlashTiming::paper(),
        );
        let inv = ctl.inventory();
        let names: Vec<&str> = inv.iter().map(|m| m.name).collect();
        assert!(names.contains(&"bus controller"));
        assert!(names.contains(&"ecc decoder"));
        assert!(names.contains(&"scoreboard"));
        let bus = inv.iter().find(|m| m.name == "bus controller").unwrap();
        assert_eq!(bus.instances, 8);
    }
}
