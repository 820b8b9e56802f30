// detlint fixture (R3 suppressed): the iterations below are justified
// (pretend the sends are order-independent acks), so each carries an
// allow naming map-iteration-order-leak.

struct Fanout {
    peers: FxHashMap<u32, u64>,
}

impl Component<Msg> for Fanout {
    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        // detlint::allow(map-iteration-order-leak): sends commute here
        for (peer, credit) in self.peers.iter() {
            ctx.send(*peer, FANOUT_DELAY, Msg::Credit(*credit));
        }
        let Msg::Tick(at) = msg else {
            return;
        };
        for peer in &self.peers { // detlint::allow(map-iteration-order-leak): ditto
            ctx.send_at(peer.0, at, Msg::Tick);
        }
    }
}
