//! Determinism pin for the event engine alone, beside
//! `crates/core/tests/determinism_pin.rs` (which pins the round engine
//! through the overlay).
//!
//! The fingerprint was captured at the commit *before* the two engines
//! began sharing one fault plane and one process table. A ten-process
//! gossip runs under jittered latency with loss, duplication and
//! reordering all on — every knob draws from the network RNG, and the
//! processes draw from it too, so any change in draw order, in the
//! `(time, seq)` order of the heap or in what a crash discards moves it
//! — through a partition, a heal and one crash, to quiescence.

use drtree_sim::{
    Context, EventNetwork, FaultProfile, LatencyModel, MessageLabel, NetConfig, Process, ProcessId,
};
use rand::Rng;

#[derive(Clone, Debug)]
enum Gossip {
    Rumor(u64),
    Ack(u64),
}

impl MessageLabel for Gossip {
    fn label(&self) -> &'static str {
        match self {
            Gossip::Rumor(_) => "rumor",
            Gossip::Ack(_) => "ack",
        }
    }
}

/// Forwards a decremented rumor to a random peer, acknowledges every
/// third one, and folds everything it hears into a running digest.
struct Peer {
    peers: Vec<ProcessId>,
    heard: u64,
    digest: u64,
}

impl Process for Peer {
    type Msg = Gossip;
    type Timer = u64;

    fn on_message(&mut self, from: ProcessId, msg: Gossip, ctx: &mut Context<'_, Gossip, u64>) {
        self.heard += 1;
        let word = match msg {
            Gossip::Rumor(hops) => {
                if hops > 0 {
                    let next = self.peers[ctx.rng().gen_range(0..self.peers.len())];
                    ctx.send(next, Gossip::Rumor(hops - 1));
                }
                if hops % 3 == 0 {
                    ctx.send(from, Gossip::Ack(hops));
                }
                hops
            }
            Gossip::Ack(hops) => !hops,
        };
        self.digest = fnv([self.digest, from.raw(), word, ctx.now()]);
    }

    fn on_timer(&mut self, hops: u64, ctx: &mut Context<'_, Gossip, u64>) {
        let next = self.peers[ctx.rng().gen_range(0..self.peers.len())];
        ctx.send(next, Gossip::Rumor(hops));
        if hops > 4 {
            ctx.set_timer(7, hops - 4);
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_, Gossip, u64>) {
        ctx.set_timer(3 + ctx.id().raw(), 30);
    }
}

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `[now, sent, delivered, dropped, to_dead, duplicated, reordered,
/// partitioned drops, per-label digest, per-process state digest]`.
fn fingerprint() -> [u64; 10] {
    let config = NetConfig {
        latency: LatencyModel::Uniform { min: 1, max: 6 },
        faults: FaultProfile {
            drop_probability: 0.03,
            duplicate_probability: 0.06,
            reorder_probability: 0.2,
            reorder_extra: 5,
        },
    };
    let mut net: EventNetwork<Peer> = EventNetwork::new(config, 2007);
    let ids: Vec<ProcessId> = (0..10)
        .map(|_| {
            net.add_process(Peer {
                peers: Vec::new(),
                heard: 0,
                digest: 0,
            })
        })
        .collect();
    for &id in &ids {
        net.process_mut(id).unwrap().peers = ids.clone();
    }
    for (i, &id) in ids.iter().enumerate() {
        net.send_external(id, Gossip::Rumor(40 + i as u64));
    }
    net.run_until(25);
    net.partition(&[ids[..4].to_vec(), ids[4..].to_vec()]);
    net.run_until(33);
    net.heal();
    net.crash(ids[7]);
    net.send_external(ids[7], Gossip::Rumor(9));
    net.run_to_quiescence(1_000_000);

    let m = net.metrics();
    let state = net.iter().flat_map(|(id, p)| [id.raw(), p.heard, p.digest]);
    [
        net.now(),
        m.sent(),
        m.delivered(),
        m.dropped(),
        m.to_dead(),
        m.duplicated(),
        m.reordered(),
        m.partitioned_drops(),
        fnv(["rumor", "ack"].map(|l| m.label_count(l))),
        fnv(state),
    ]
}

#[test]
fn event_engine_fingerprint_is_pinned() {
    let got = fingerprint();
    assert_eq!(
        got[1] + got[5],
        got[2] + got[3] + got[4],
        "sent + duplicated == delivered + dropped + to_dead"
    );
    assert_eq!(got, PINNED);
}

const PINNED: [u64; 10] = [
    123,
    870,
    809,
    78,
    43,
    60,
    163,
    51,
    11760453323605008227,
    11747762282503231894,
];
