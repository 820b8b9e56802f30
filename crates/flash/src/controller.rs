//! The raw, tag-based flash controller (paper Section 3.1.1).
//!
//! The controller exposes exactly the paper's interface semantics:
//!
//! * commands carry a **tag**; at most `tag_limit` commands are in flight
//!   (the implementation has 128 tags) — further commands queue;
//! * completions return **out of order** with respect to issue order,
//!   interleaved across buses; the tag identifies which request finished;
//! * to saturate the device, *multiple commands must be in flight*,
//!   because a single read spends 50 µs in the NAND cell array while the
//!   bus could be transferring other pages.
//!
//! Contention is modelled per-chip (cell operations serialize on a die)
//! and per-bus (transfers serialize on a channel), which is where the
//! paper's 1.2 GB/s-per-card ceiling comes from: 8 buses x 150 MB/s.

use std::collections::VecDeque;

use bluedbm_sim::engine::{Batch, Component, ComponentId, Ctx};
use bluedbm_sim::pagestore::{PageRef, PageStore};
use bluedbm_sim::resource::SerialResource;
use bluedbm_sim::stats::{Histogram, Throughput};
use bluedbm_sim::time::SimTime;

use crate::array::FlashArray;
use crate::error::FlashError;
use crate::geometry::Ppa;
use crate::msg::{FlashMsg, FlashProtocol};
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
        /// Component to deliver the [`CtrlResp`] to.
        reply_to: ComponentId,
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
        /// Component to deliver the [`CtrlResp`] to.
        reply_to: ComponentId,
    },
    /// Erase the block containing `ppa`.
    Erase {
        /// Caller-chosen tag echoed in the completion.
        tag: Tag,
        /// Any page inside the victim block.
        ppa: Ppa,
        /// Component to deliver the [`CtrlResp`] to.
        reply_to: ComponentId,
    },
}

impl CtrlCmd {
    /// The tag carried by this command.
    pub fn tag(&self) -> Tag {
        match self {
            CtrlCmd::Read { tag, .. } | CtrlCmd::Write { tag, .. } | CtrlCmd::Erase { tag, .. } => {
                *tag
            }
        }
    }

    /// The reply target carried by this command.
    pub fn reply_to(&self) -> ComponentId {
        match self {
            CtrlCmd::Read { reply_to, .. }
            | CtrlCmd::Write { reply_to, .. }
            | CtrlCmd::Erase { reply_to, .. } => *reply_to,
        }
    }
}

/// A successful page read as delivered by the controller: the data sits
/// in the simulator's [`PageStore`]; the handle's consumer owns the page
/// and must free (or [`PageStore::take`]) it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageRead {
    /// Handle to the page contents after ECC correction.
    pub page: PageRef,
    /// Codewords in which a single-bit error was corrected on this read.
    pub corrected_words: u32,
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
        /// When the command was accepted by the controller.
        issued_at: SimTime,
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

/// Controller-internal delayed completion. Public only because it rides
/// the [`FlashMsg`] enum as a self-send; nothing outside the controller
/// constructs or inspects one. Carries just a slot into the
/// controller's pending-finish slab, so the message stays 4 bytes — the
/// completed response and its reply target wait in the controller until
/// the modelled latency elapses.
#[derive(Clone, Debug)]
pub struct Finish {
    slot: u32,
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
    /// Commands that had to wait for a free tag.
    pub tag_stalls: u64,
    /// Peak simultaneous in-flight commands.
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
        node.histogram("read_latency", &self.read_latency.summary());
    }
}

/// DES component wrapping a [`FlashArray`] with the paper's controller
/// timing and interface. Send it [`CtrlCmd`]s; it replies with
/// [`CtrlResp`]s.
pub struct FlashController {
    array: FlashArray,
    timing: FlashTiming,
    tag_limit: usize,
    in_flight: usize,
    pending: VecDeque<CtrlCmd>,
    chips: Vec<SerialResource>,
    buses: Vec<SerialResource>,
    /// Completed responses awaiting their modelled finish instant,
    /// indexed by the slot a [`Finish`] self-send carries.
    finish_slots: Vec<Option<(CtrlResp, ComponentId)>>,
    free_finish: Vec<u32>,
    stats: CtrlStats,
}

impl FlashController {
    /// The paper's tag budget: 128 outstanding commands.
    pub const PAPER_TAGS: usize = 128;

    /// Wrap an array with paper timing and 128 tags.
    pub fn new(array: FlashArray, timing: FlashTiming) -> Self {
        Self::with_tags(array, timing, Self::PAPER_TAGS)
    }

    /// Wrap an array with a custom tag budget (used by the tag-parallelism
    /// ablation bench).
    ///
    /// # Panics
    ///
    /// Panics if `tag_limit == 0`.
    pub fn with_tags(array: FlashArray, timing: FlashTiming, tag_limit: usize) -> Self {
        assert!(tag_limit > 0, "controller needs at least one tag");
        let geom = array.geometry();
        FlashController {
            array,
            timing,
            tag_limit,
            in_flight: 0,
            pending: VecDeque::new(),
            chips: vec![SerialResource::new(); geom.total_chips()],
            buses: vec![SerialResource::new(); geom.buses],
            finish_slots: Vec::new(),
            free_finish: Vec::new(),
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
                queue_depth: self.tag_limit / geom.buses.max(1),
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
                queue_depth: self.tag_limit,
                buffer_bytes: self.tag_limit * 8,
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

    /// Compute the completion time of a command accepted at `now` and run
    /// the functional operation against `pages`, the simulator's page
    /// store. Returns `(finish_time, response, reply_target)`.
    fn execute(
        &mut self,
        now: SimTime,
        pages: &mut PageStore,
        cmd: CtrlCmd,
    ) -> (SimTime, CtrlResp, ComponentId) {
        let accept = now + self.timing.command_overhead;
        match cmd {
            CtrlCmd::Read { tag, ppa, reply_to } => {
                let page_bytes = self.array.geometry().page_bytes as u64;
                // Write-once read path: allocate the store page first and
                // let the ECC decoder produce the corrected data directly
                // into it — no scratch `Vec`, no copy-into-store.
                let page = pages.alloc(page_bytes as usize);
                let result = self
                    .array
                    .read_into(ppa, pages.get_mut(page))
                    .map(|corrected_words| PageRead {
                        page,
                        corrected_words,
                    });
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
                    self.stats.read_throughput.record(done, page_bytes);
                }
                (
                    done,
                    CtrlResp::ReadDone {
                        tag,
                        result,
                        issued_at: now,
                    },
                    reply_to,
                )
            }
            CtrlCmd::Write {
                tag,
                ppa,
                data,
                reply_to,
            } => {
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
                (done, CtrlResp::WriteDone { tag, result }, reply_to)
            }
            CtrlCmd::Erase { tag, ppa, reply_to } => {
                let result = self.array.erase(ppa);
                let done = if self.array.geometry().contains(ppa) {
                    let ci = self.chip_index(ppa);
                    self.chips[ci].acquire(accept, self.timing.erase_block).end
                } else {
                    accept
                };
                (done, CtrlResp::EraseDone { tag, result }, reply_to)
            }
        }
    }

    fn issue<M: FlashProtocol>(&mut self, ctx: &mut Ctx<'_, M>, cmd: CtrlCmd) {
        self.in_flight += 1;
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight);
        let now = ctx.now();
        let (done, resp, reply_to) = self.execute(now, ctx.pages(), cmd);
        let slot = match self.free_finish.pop() {
            Some(slot) => {
                self.finish_slots[slot as usize] = Some((resp, reply_to));
                slot
            }
            None => {
                self.finish_slots.push(Some((resp, reply_to)));
                (self.finish_slots.len() - 1) as u32
            }
        };
        ctx.send_self(done - now, FlashMsg::Finish(Finish { slot }));
    }

    /// Per-message logic shared by [`Component::handle`] and the batch
    /// hook.
    fn handle_flash<M: FlashProtocol>(&mut self, ctx: &mut Ctx<'_, M>, msg: FlashMsg) {
        match msg {
            FlashMsg::Cmd(cmd) => {
                if self.in_flight >= self.tag_limit {
                    self.stats.tag_stalls += 1;
                    self.pending.push_back(cmd);
                } else {
                    self.issue(ctx, cmd);
                }
            }
            FlashMsg::Finish(Finish { slot }) => {
                let (resp, reply_to) = self.finish_slots[slot as usize]
                    .take()
                    .expect("finish for a slot the controller never armed");
                self.free_finish.push(slot);
                self.in_flight -= 1;
                ctx.send(reply_to, SimTime::ZERO, FlashMsg::Resp(resp));
                if self.in_flight < self.tag_limit {
                    if let Some(next) = self.pending.pop_front() {
                        self.issue(ctx, next);
                    }
                }
            }
            other => panic!("flash controller got an unexpected message: {other:?}"),
        }
    }
}

impl<M: FlashProtocol> Component<M> for FlashController {
    fn handle(&mut self, ctx: &mut Ctx<'_, M>, msg: M) {
        self.handle_flash(ctx, msg.into_flash());
    }

    /// Explicit batch adoption: command trains (the splitter fans one
    /// logical request into many same-instant [`CtrlCmd`]s) drain in one
    /// borrow. Equivalent to the default today — kept as the landing
    /// spot for train-level hoists (shared stats, queue-admission
    /// checks).
    fn handle_batch(&mut self, ctx: &mut Ctx<'_, M>, batch: &mut Batch<M>) {
        while let Some(msg) = batch.next(ctx) {
            self.handle_flash(ctx, msg.into_flash());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashGeometry;
    use bluedbm_sim::engine::Simulator;

    /// Test harness client that records completions.
    struct Client {
        reads: Vec<(Tag, Vec<u8>, SimTime)>,
        writes: Vec<Tag>,
        erases: Vec<Tag>,
        errors: Vec<(Tag, FlashError)>,
    }

    impl Client {
        fn new() -> Self {
            Client {
                reads: vec![],
                writes: vec![],
                erases: vec![],
                errors: vec![],
            }
        }
    }

    impl Component<FlashMsg> for Client {
        fn handle(&mut self, ctx: &mut Ctx<'_, FlashMsg>, msg: FlashMsg) {
            let FlashMsg::Resp(resp) = msg else {
                panic!("CtrlResp expected")
            };
            match resp {
                CtrlResp::ReadDone { tag, result, .. } => match result {
                    Ok(r) => self.reads.push((tag, ctx.pages().take(r.page), ctx.now())),
                    Err(e) => self.errors.push((tag, e)),
                },
                CtrlResp::WriteDone { tag, result } => match result {
                    Ok(()) => self.writes.push(tag),
                    Err(e) => self.errors.push((tag, e)),
                },
                CtrlResp::EraseDone { tag, result } => match result {
                    Ok(()) => self.erases.push(tag),
                    Err(e) => self.errors.push((tag, e)),
                },
            }
        }
    }

    fn setup(timing: FlashTiming) -> (Simulator<FlashMsg>, ComponentId, ComponentId) {
        let mut sim = Simulator::new();
        let array = FlashArray::new(FlashGeometry::tiny(), 5);
        let ctrl = sim.add_component(FlashController::new(array, timing));
        let client = sim.add_component(Client::new());
        (sim, ctrl, client)
    }

    #[test]
    fn write_then_read_round_trip_with_latency() {
        let timing = FlashTiming::paper();
        let (mut sim, ctrl, client) = setup(timing);
        let geom = FlashGeometry::tiny();
        let ppa = Ppa::new(0, 0, 0, 0);
        let data = vec![0x77u8; geom.page_bytes];
        let buffer = sim.page_store_mut().alloc_from(&data);
        sim.schedule(
            SimTime::ZERO,
            ctrl,
            CtrlCmd::Write {
                tag: Tag(1),
                ppa,
                data: buffer,
                reply_to: client,
            },
        );
        sim.run();
        let write_done = sim.now();
        // tPROG dominates: at least 300 us.
        assert!(write_done >= SimTime::us(300));

        sim.schedule(
            SimTime::ZERO,
            ctrl,
            CtrlCmd::Read {
                tag: Tag(2),
                ppa,
                reply_to: client,
            },
        );
        sim.run();
        let read_latency = sim.now() - write_done;
        // tR (50us) + 512B transfer at 150MB/s (~3.4us) + overhead.
        assert!(read_latency >= SimTime::us(50), "latency {read_latency}");
        assert!(read_latency < SimTime::us(60), "latency {read_latency}");

        let c = sim.component::<Client>(client).unwrap();
        assert_eq!(c.writes, vec![Tag(1)]);
        assert_eq!(c.reads.len(), 1);
        assert_eq!(c.reads[0].1, data);
        sim.page_store().assert_quiescent();
    }

    #[test]
    fn parallel_reads_across_buses_overlap() {
        // Two reads on different buses should finish at (almost) the same
        // time; two reads on the same chip must serialize their tR.
        let timing = FlashTiming::paper();
        let (mut sim, ctrl, client) = setup(timing);
        let geom = FlashGeometry::tiny();
        let mut ctl = sim.component_mut::<FlashController>(ctrl).unwrap();
        let data = vec![1u8; geom.page_bytes];
        for bus in 0..2 {
            ctl.array_mut()
                .program(Ppa::new(bus, 0, 0, 0), &data)
                .unwrap();
        }
        ctl = sim.component_mut::<FlashController>(ctrl).unwrap();
        ctl.array_mut().program(Ppa::new(0, 0, 0, 1), &data).unwrap();

        // Different buses in parallel.
        for (i, bus) in [0u16, 1].iter().enumerate() {
            sim.schedule(
                SimTime::ZERO,
                ctrl,
                CtrlCmd::Read {
                    tag: Tag(i as u16),
                    ppa: Ppa::new(*bus, 0, 0, 0),
                    reply_to: client,
                },
            );
        }
        sim.run();
        let parallel_done = sim.now();
        assert!(parallel_done < SimTime::us(60), "parallel: {parallel_done}");

        // Same chip: must serialize the 50us cell reads.
        let t0 = sim.now();
        for page in [0u32, 1] {
            sim.schedule(
                SimTime::ZERO,
                ctrl,
                CtrlCmd::Read {
                    tag: Tag(10 + page as u16),
                    ppa: Ppa::new(0, 0, 0, page),
                    reply_to: client,
                },
            );
        }
        sim.run();
        let serial_span = sim.now() - t0;
        assert!(serial_span >= SimTime::us(100), "serial: {serial_span}");
    }

    #[test]
    fn out_of_order_completion() {
        // Issue a slow read (bus 0) then a fast-only-because-parallel read
        // (bus 1) plus an erase on bus 0 chip 1; completions interleave.
        let timing = FlashTiming::test_fast();
        let (mut sim, ctrl, client) = setup(timing);
        let geom = FlashGeometry::tiny();
        let data = vec![2u8; geom.page_bytes];
        {
            let ctl = sim.component_mut::<FlashController>(ctrl).unwrap();
            // Two pages on one chip (will serialize), one on another bus.
            ctl.array_mut().program(Ppa::new(0, 0, 0, 0), &data).unwrap();
            ctl.array_mut().program(Ppa::new(0, 0, 0, 1), &data).unwrap();
            ctl.array_mut().program(Ppa::new(1, 0, 0, 0), &data).unwrap();
        }
        for (tag, ppa) in [
            (Tag(0), Ppa::new(0, 0, 0, 0)),
            (Tag(1), Ppa::new(0, 0, 0, 1)),
            (Tag(2), Ppa::new(1, 0, 0, 0)),
        ] {
            sim.schedule(
                SimTime::ZERO,
                ctrl,
                CtrlCmd::Read {
                    tag,
                    ppa,
                    reply_to: client,
                },
            );
        }
        sim.run();
        let c = sim.component::<Client>(client).unwrap();
        let order: Vec<Tag> = c.reads.iter().map(|(t, _, _)| *t).collect();
        // Tag 2 (other bus) must complete before tag 1 (serialized behind 0).
        let pos = |t: Tag| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(Tag(2)) < pos(Tag(1)), "completion order {order:?}");
    }

    #[test]
    fn tag_exhaustion_queues_commands() {
        let timing = FlashTiming::test_fast();
        let mut sim = Simulator::new();
        let array = FlashArray::new(FlashGeometry::tiny(), 5);
        let ctrl = sim.add_component(FlashController::with_tags(array, timing, 2));
        let client = sim.add_component(Client::new());
        {
            let ctl = sim.component_mut::<FlashController>(ctrl).unwrap();
            let data = vec![3u8; FlashGeometry::tiny().page_bytes];
            for p in 0..6 {
                ctl.array_mut().program(Ppa::new(0, 0, 0, p), &data).unwrap();
            }
        }
        for p in 0..6u32 {
            sim.schedule(
                SimTime::ZERO,
                ctrl,
                CtrlCmd::Read {
                    tag: Tag(p as u16),
                    ppa: Ppa::new(0, 0, 0, p),
                    reply_to: client,
                },
            );
        }
        sim.run();
        let c = sim.component::<Client>(client).unwrap();
        assert_eq!(c.reads.len(), 6, "all queued commands eventually run");
        let ctl = sim.component::<FlashController>(ctrl).unwrap();
        assert!(ctl.stats().tag_stalls >= 4, "stalls: {}", ctl.stats().tag_stalls);
        assert!(ctl.stats().peak_in_flight <= 2);
    }

    #[test]
    fn errors_are_reported_not_dropped() {
        let timing = FlashTiming::test_fast();
        let (mut sim, ctrl, client) = setup(timing);
        sim.schedule(
            SimTime::ZERO,
            ctrl,
            CtrlCmd::Read {
                tag: Tag(9),
                ppa: Ppa::new(0, 0, 0, 0), // never programmed
                reply_to: client,
            },
        );
        sim.run();
        let c = sim.component::<Client>(client).unwrap();
        assert_eq!(c.errors.len(), 1);
        assert!(matches!(c.errors[0].1, FlashError::NotProgrammed(_)));
    }

    #[test]
    fn deep_queue_saturates_card_bandwidth() {
        // Keep all 4 chips of the tiny geometry busy: with enough tags the
        // sustained rate approaches the 2-bus aggregate transfer limit or
        // the cell-read limit, whichever binds.
        let timing = FlashTiming::paper();
        let (mut sim, ctrl, client) = setup(timing);
        let geom = FlashGeometry::tiny();
        let data = vec![4u8; geom.page_bytes];
        const READS_PER_CHIP: u32 = 8;
        {
            let ctl = sim.component_mut::<FlashController>(ctrl).unwrap();
            for bus in 0..geom.buses as u16 {
                for chip in 0..geom.chips_per_bus as u16 {
                    for p in 0..READS_PER_CHIP {
                        ctl.array_mut()
                            .program(Ppa::new(bus, chip, 0, p), &data)
                            .unwrap();
                    }
                }
            }
        }
        let mut tag = 0u16;
        for bus in 0..geom.buses as u16 {
            for chip in 0..geom.chips_per_bus as u16 {
                for p in 0..READS_PER_CHIP {
                    sim.schedule(
                        SimTime::ZERO,
                        ctrl,
                        CtrlCmd::Read {
                            tag: Tag(tag),
                            ppa: Ppa::new(bus, chip, 0, p),
                            reply_to: client,
                        },
                    );
                    tag += 1;
                }
            }
        }
        sim.run();
        let c = sim.component::<Client>(client).unwrap();
        assert_eq!(c.reads.len(), tag as usize);
        // Each chip serializes 8 x 50us = 400us of cell reads; chips run in
        // parallel, so the whole batch should take ~400-450us, not 1.6ms.
        assert!(sim.now() < SimTime::us(480), "took {}", sim.now());
        assert!(sim.now() >= SimTime::us(400));
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

    #[test]
    #[should_panic(expected = "at least one tag")]
    fn zero_tags_rejected() {
        let _ = FlashController::with_tags(
            FlashArray::new(FlashGeometry::tiny(), 1),
            FlashTiming::paper(),
            0,
        );
    }
}
