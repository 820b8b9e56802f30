//! The Flash Server (paper Section 3.1.2): an in-order, page-buffered
//! convenience interface for in-store processors, with an Address
//! Translation Unit (ATU) that maps file handles to physical addresses.
//!
//! The raw controller returns bursts out of order; that is the fastest
//! interface but a hassle for accelerator developers. The Flash Server
//! "converts the out-of-order and interleaved flash interface into
//! multiple simple in-order request/response interfaces using page
//! buffers" — each client component gets FIFO delivery of its responses,
//! whatever order the flash returns them in.

use std::collections::{BTreeMap, VecDeque};

use bluedbm_sim::fxhash::FxHashMap;

use bluedbm_sim::engine::{Component, ComponentId, Ctx};
use bluedbm_sim::time::SimTime;

use crate::controller::{CtrlCmd, CtrlResp, Tag};
use crate::error::FlashError;
use crate::geometry::Ppa;
use crate::msg::{FlashMsg, FlashProtocol};

/// Requests accepted by the [`FlashServer`].
#[derive(Clone, Debug)]
pub enum ServerReq {
    /// Install (or replace) a file-handle -> extent-list mapping in the
    /// ATU. In the real system the host file system pushes these (paper
    /// Figure 8, step 2).
    MapHandle {
        /// Application-chosen handle.
        handle: u64,
        /// Physical pages of the file, in file order.
        extents: Vec<Ppa>,
    },
    /// Read the `page_offset`-th page of the file mapped at `handle`.
    ReadFilePage {
        /// Handle previously installed with `MapHandle`.
        handle: u64,
        /// Page index within the file.
        page_offset: u64,
        /// Client to deliver the (in-order) [`ServerResp`] to.
        reply_to: ComponentId,
    },
    /// Read a raw physical page, still with in-order delivery.
    ReadPpa {
        /// Page to read.
        ppa: Ppa,
        /// Client to deliver the (in-order) [`ServerResp`] to.
        reply_to: ComponentId,
    },
}

/// In-order response from the [`FlashServer`].
#[derive(Clone, Debug)]
pub struct ServerResp {
    /// 0-based position of this response in the client's request order.
    pub seq: u64,
    /// The physical page that was read.
    pub ppa: Ppa,
    /// Handle to the page contents in the simulator's page store (the
    /// client owns and must free it), or the failure.
    pub result: Result<bluedbm_sim::PageRef, FlashError>,
}

#[derive(Default)]
struct ClientQueue {
    next_assign: u64,
    next_deliver: u64,
    /// Completed but not yet deliverable (a predecessor is missing).
    parked: BTreeMap<u64, ServerResp>,
}

/// Bookkeeping for one in-flight read.
struct InFlight {
    client: ComponentId,
    seq: u64,
    ppa: Ppa,
}

/// Cumulative server statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Reads accepted.
    pub accepted: u64,
    /// Responses delivered.
    pub delivered: u64,
    /// Responses that had to park in a page buffer to restore order.
    pub reordered: u64,
    /// Requests that waited for a free page buffer/tag.
    pub buffer_stalls: u64,
}

/// The Flash Server component. Send it [`ServerReq`]s; it converses with
/// the controller/splitter underneath and replies with in-order
/// [`ServerResp`]s.
pub struct FlashServer {
    /// Controller or splitter to issue reads to.
    backend: ComponentId,
    /// ATU: file handle -> extent list.
    atu: FxHashMap<u64, Vec<Ppa>>,
    free_tags: Vec<u16>,
    in_flight: FxHashMap<u16, InFlight>,
    waiting: VecDeque<(ComponentId, u64, Ppa)>,
    clients: FxHashMap<ComponentId, ClientQueue>,
    stats: ServerStats,
}

impl FlashServer {
    /// Create a server issuing to `backend` with `page_buffers`
    /// concurrent page buffers (command queue depth).
    ///
    /// # Panics
    ///
    /// Panics if `page_buffers` is zero or exceeds `u16::MAX`.
    pub fn new(backend: ComponentId, page_buffers: usize) -> Self {
        assert!(page_buffers > 0 && page_buffers <= u16::MAX as usize);
        FlashServer {
            backend,
            atu: FxHashMap::default(),
            free_tags: (0..page_buffers as u16).rev().collect(),
            in_flight: FxHashMap::default(),
            waiting: VecDeque::new(),
            clients: FxHashMap::default(),
            stats: ServerStats::default(),
        }
    }

    /// Install an ATU mapping directly (test/setup convenience; the
    /// message form is [`ServerReq::MapHandle`]).
    pub fn map_handle(&mut self, handle: u64, extents: Vec<Ppa>) {
        self.atu.insert(handle, extents);
    }

    /// Look up the extent list for `handle`.
    pub fn extents(&self, handle: u64) -> Option<&[Ppa]> {
        self.atu.get(&handle).map(Vec::as_slice)
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    fn accept<M: FlashProtocol>(&mut self, ctx: &mut Ctx<'_, M>, client: ComponentId, ppa: Ppa) {
        let q = self.clients.entry(client).or_default();
        let seq = q.next_assign;
        q.next_assign += 1;
        self.stats.accepted += 1;
        self.issue_or_wait(ctx, client, seq, ppa);
    }

    fn accept_error<M: FlashProtocol>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        client: ComponentId,
        ppa: Ppa,
        err: FlashError,
    ) {
        let q = self.clients.entry(client).or_default();
        let seq = q.next_assign;
        q.next_assign += 1;
        self.stats.accepted += 1;
        self.park_and_deliver(
            ctx,
            client,
            ServerResp {
                seq,
                ppa,
                result: Err(err),
            },
        );
    }

    fn issue_or_wait<M: FlashProtocol>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        client: ComponentId,
        seq: u64,
        ppa: Ppa,
    ) {
        let Some(tag) = self.free_tags.pop() else {
            self.stats.buffer_stalls += 1;
            self.waiting.push_back((client, seq, ppa));
            return;
        };
        self.in_flight.insert(tag, InFlight { client, seq, ppa });
        let me = ctx.self_id();
        ctx.send(
            self.backend,
            SimTime::ZERO,
            FlashMsg::Cmd(CtrlCmd::Read {
                tag: Tag(tag),
                ppa,
                reply_to: me,
            }),
        );
    }

    fn park_and_deliver<M: FlashProtocol>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        client: ComponentId,
        resp: ServerResp,
    ) {
        let q = self.clients.entry(client).or_default();
        if resp.seq != q.next_deliver {
            self.stats.reordered += 1;
        }
        q.parked.insert(resp.seq, resp);
        // Drain the contiguous prefix.
        while let Some(r) = q.parked.remove(&q.next_deliver) {
            q.next_deliver += 1;
            self.stats.delivered += 1;
            ctx.send(client, SimTime::ZERO, FlashMsg::ServerResp(r));
        }
    }
}

impl<M: FlashProtocol> Component<M> for FlashServer {
    fn handle(&mut self, ctx: &mut Ctx<'_, M>, msg: M) {
        let resp = match msg.into_flash() {
            FlashMsg::ServerReq(req) => {
                match req {
                    ServerReq::MapHandle { handle, extents } => {
                        self.map_handle(handle, extents);
                    }
                    ServerReq::ReadFilePage {
                        handle,
                        page_offset,
                        reply_to,
                    } => match self.atu.get(&handle) {
                        None => {
                            self.accept_error(
                                ctx,
                                reply_to,
                                Ppa::default(),
                                FlashError::UnknownHandle(handle),
                            );
                        }
                        Some(extents) => match extents.get(page_offset as usize) {
                            Some(&ppa) => self.accept(ctx, reply_to, ppa),
                            None => self.accept_error(
                                ctx,
                                reply_to,
                                Ppa::default(),
                                FlashError::OffsetOutOfRange {
                                    handle,
                                    page_offset,
                                },
                            ),
                        },
                    },
                    ServerReq::ReadPpa { ppa, reply_to } => self.accept(ctx, reply_to, ppa),
                }
                return;
            }
            FlashMsg::Resp(resp) => resp,
            other => panic!("flash server got an unexpected message: {other:?}"),
        };

        let CtrlResp::ReadDone { tag, result, .. } = resp else {
            panic!("flash server only issues reads");
        };
        let fl = self
            .in_flight
            .remove(&tag.0)
            .expect("completion for a tag the server never issued");
        self.free_tags.push(tag.0);
        self.park_and_deliver(
            ctx,
            fl.client,
            ServerResp {
                seq: fl.seq,
                ppa: fl.ppa,
                result: result.map(|r| r.page),
            },
        );
        if let Some((client, seq, ppa)) = self.waiting.pop_front() {
            self.issue_or_wait(ctx, client, seq, ppa);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FlashArray;
    use crate::controller::FlashController;
    use crate::geometry::FlashGeometry;
    use crate::timing::FlashTiming;
    use bluedbm_sim::engine::Simulator;

    /// Collects in-order responses.
    struct Client {
        seqs: Vec<u64>,
        pages: Vec<Result<Vec<u8>, FlashError>>,
    }

    impl Component<FlashMsg> for Client {
        fn handle(&mut self, ctx: &mut Ctx<'_, FlashMsg>, msg: FlashMsg) {
            let FlashMsg::ServerResp(r) = msg else {
                panic!("ServerResp expected")
            };
            self.seqs.push(r.seq);
            // Consume the page buffer (copy out + free), the software
            // side of the paper's read-buffer discipline.
            self.pages.push(r.result.map(|page| ctx.pages().take(page)));
        }
    }

    fn world() -> (Simulator<FlashMsg>, ComponentId, ComponentId) {
        let mut sim = Simulator::new();
        let mut array = FlashArray::new(FlashGeometry::tiny(), 3);
        // Pages spread across chips so completions arrive out of order.
        for (i, ppa) in extent_list().into_iter().enumerate() {
            let data = vec![i as u8; FlashGeometry::tiny().page_bytes];
            array.program(ppa, &data).unwrap();
        }
        let ctrl = sim.add_component(FlashController::new(array, FlashTiming::paper()));
        let server = sim.add_component(FlashServer::new(ctrl, 16));
        (sim, ctrl, server)
    }

    /// Pages deliberately placed so file order != completion order: pages
    /// 0 and 1 share a chip (serialize) while 2 and 3 sit on other chips.
    fn extent_list() -> Vec<Ppa> {
        vec![
            Ppa::new(0, 0, 0, 0),
            Ppa::new(0, 0, 0, 1),
            Ppa::new(1, 0, 0, 0),
            Ppa::new(1, 1, 0, 0),
        ]
    }

    #[test]
    fn file_reads_are_delivered_in_order() {
        let (mut sim, _ctrl, server) = world();
        let client = sim.add_component(Client {
            seqs: vec![],
            pages: vec![],
        });
        sim.schedule(
            SimTime::ZERO,
            server,
            ServerReq::MapHandle {
                handle: 7,
                extents: extent_list(),
            },
        );
        for off in 0..4u64 {
            sim.schedule(
                SimTime::ns(1),
                server,
                ServerReq::ReadFilePage {
                    handle: 7,
                    page_offset: off,
                    reply_to: client,
                },
            );
        }
        sim.run();
        let c = sim.component::<Client>(client).unwrap();
        assert_eq!(c.seqs, vec![0, 1, 2, 3], "strict FIFO per client");
        for (i, page) in c.pages.iter().enumerate() {
            let page = page.as_ref().expect("read ok");
            assert!(page.iter().all(|&b| b == i as u8), "page {i} contents");
        }
        let s = sim.component::<FlashServer>(server).unwrap();
        assert!(
            s.stats().reordered > 0,
            "flash must have completed out of order for this test to bite"
        );
        assert_eq!(s.stats().delivered, 4);
    }

    #[test]
    fn unknown_handle_and_bad_offset_report_errors_in_order() {
        let (mut sim, _ctrl, server) = world();
        let client = sim.add_component(Client {
            seqs: vec![],
            pages: vec![],
        });
        sim.schedule(
            SimTime::ZERO,
            server,
            ServerReq::MapHandle {
                handle: 7,
                extents: extent_list(),
            },
        );
        sim.schedule(
            SimTime::ns(1),
            server,
            ServerReq::ReadFilePage {
                handle: 99,
                page_offset: 0,
                reply_to: client,
            },
        );
        sim.schedule(
            SimTime::ns(2),
            server,
            ServerReq::ReadFilePage {
                handle: 7,
                page_offset: 100,
                reply_to: client,
            },
        );
        sim.schedule(
            SimTime::ns(3),
            server,
            ServerReq::ReadFilePage {
                handle: 7,
                page_offset: 0,
                reply_to: client,
            },
        );
        sim.run();
        let c = sim.component::<Client>(client).unwrap();
        assert_eq!(c.seqs, vec![0, 1, 2]);
        assert_eq!(c.pages[0], Err(FlashError::UnknownHandle(99)));
        assert_eq!(
            c.pages[1],
            Err(FlashError::OffsetOutOfRange {
                handle: 7,
                page_offset: 100
            })
        );
        assert!(c.pages[2].is_ok());
    }

    #[test]
    fn two_clients_have_independent_orderings() {
        let (mut sim, _ctrl, server) = world();
        let c1 = sim.add_component(Client {
            seqs: vec![],
            pages: vec![],
        });
        let c2 = sim.add_component(Client {
            seqs: vec![],
            pages: vec![],
        });
        for (i, ppa) in extent_list().into_iter().enumerate() {
            let reply_to = if i % 2 == 0 { c1 } else { c2 };
            sim.schedule(SimTime::ZERO, server, ServerReq::ReadPpa { ppa, reply_to });
        }
        sim.run();
        assert_eq!(sim.component::<Client>(c1).unwrap().seqs, vec![0, 1]);
        assert_eq!(sim.component::<Client>(c2).unwrap().seqs, vec![0, 1]);
    }

    #[test]
    fn buffer_exhaustion_stalls_but_completes() {
        let mut sim = Simulator::<FlashMsg>::new();
        let mut array = FlashArray::new(FlashGeometry::tiny(), 3);
        let data = vec![9u8; FlashGeometry::tiny().page_bytes];
        for p in 0..10 {
            array.program(Ppa::new(0, 0, 0, p), &data).unwrap();
        }
        let ctrl = sim.add_component(FlashController::new(array, FlashTiming::test_fast()));
        let server = sim.add_component(FlashServer::new(ctrl, 2));
        let client = sim.add_component(Client {
            seqs: vec![],
            pages: vec![],
        });
        for p in 0..10u32 {
            sim.schedule(
                SimTime::ZERO,
                server,
                ServerReq::ReadPpa {
                    ppa: Ppa::new(0, 0, 0, p),
                    reply_to: client,
                },
            );
        }
        sim.run();
        let c = sim.component::<Client>(client).unwrap();
        assert_eq!(c.seqs, (0..10).collect::<Vec<_>>());
        let s = sim.component::<FlashServer>(server).unwrap();
        assert!(s.stats().buffer_stalls >= 8);
    }

    #[test]
    fn atu_introspection() {
        let mut sim = Simulator::<FlashMsg>::new();
        let backend = sim.reserve();
        let mut server = FlashServer::new(backend, 4);
        server.map_handle(1, extent_list());
        assert_eq!(server.extents(1).unwrap().len(), 4);
        assert!(server.extents(2).is_none());
    }
}
