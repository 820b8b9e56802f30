// detlint fixture (R3 positive): hash-container iteration order
// feeding the event stream from a Component handle body.

struct Fanout {
    peers: FxHashMap<u32, u64>,
}

impl Component<Msg> for Fanout {
    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        for (peer, credit) in self.peers.iter() {
            ctx.send(*peer, FANOUT_DELAY, Msg::Credit(*credit));
        }
        let Msg::Tick(at) = msg else {
            return;
        };
        for peer in &self.peers {
            ctx.send_at(peer.0, at, Msg::Tick);
        }
    }
}
