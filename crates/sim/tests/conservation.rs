//! The books balance on both engines: once the network has drained,
//! every message handed to it — and every extra copy the duplication
//! knob made — was delivered, dropped, or found nobody at its address.
//! One body, run on each engine: loss and duplication on, a receiver
//! crashed mid-traffic, one forged destination.

use drtree_sim::{
    Context, EventNetwork, FaultProfile, LatencyModel, MessageLabel, NetConfig, Network, Process,
    ProcessId, RoundNetwork, Schedule,
};
use rand::Rng;

#[derive(Clone, Debug)]
struct Token(u32);

impl MessageLabel for Token {
    fn label(&self) -> &'static str {
        "token"
    }
}

/// Forwards a decremented token to a random peer — one of which is an
/// id nobody ever allocated.
struct Peer {
    peers: Vec<ProcessId>,
}

impl Process for Peer {
    type Msg = Token;
    type Timer = ();

    fn on_message(&mut self, _from: ProcessId, msg: Token, ctx: &mut Context<'_, Token, ()>) {
        if msg.0 > 0 {
            let next = self.peers[ctx.rng().gen_range(0..self.peers.len())];
            ctx.send(next, Token(msg.0 - 1));
        }
    }

    fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Token, ()>) {}
}

const FORGED: u64 = 9_000;

fn books_balance<Q: Schedule<Peer>>(mut net: Network<Peer, Q>) {
    let ids: Vec<ProcessId> = (0..8)
        .map(|_| net.add_process(Peer { peers: Vec::new() }))
        .collect();
    let mut peers = ids.clone();
    peers.push(ProcessId::from_raw(FORGED));
    for &id in &ids {
        net.process_mut(id).unwrap().peers = peers.clone();
    }
    net.set_faults(FaultProfile {
        drop_probability: 0.05,
        duplicate_probability: 0.1,
        ..FaultProfile::default()
    });
    for &id in &ids {
        for _ in 0..6 {
            net.send_external(id, Token(60));
        }
    }
    net.send_external(ProcessId::from_raw(FORGED), Token(3));
    net.advance(5);
    // Traffic is in flight to and from it: some is queued for it now,
    // more will be addressed to it later.
    net.crash(ids[3]);
    net.advance(2_000);

    let m = net.metrics();
    assert!(m.delivered() > 200, "traffic flowed: {m}");
    assert!(m.dropped() > 0 && m.duplicated() > 0, "knobs were on: {m}");
    assert!(m.to_dead() >= 2, "the crash and the forged id cost: {m}");
    assert_eq!(
        m.sent() + m.duplicated(),
        m.delivered() + m.dropped() + m.to_dead(),
        "{m}"
    );
}

#[test]
fn books_balance_on_the_round_engine() {
    books_balance(RoundNetwork::new(11));
}

#[test]
fn books_balance_on_the_event_engine() {
    let config = NetConfig {
        latency: LatencyModel::Uniform { min: 1, max: 5 },
        ..NetConfig::default()
    };
    books_balance(EventNetwork::new(config, 11));
}
