//! Deterministic simulation substrate for the DR-tree reproduction.
//!
//! The paper assumes "a distributed dynamic system composed of a finite
//! yet unbounded set of processes" communicating over links, subject to
//! joins, leaves, crash failures and transient memory corruption (§2.1).
//! This crate provides that substrate as a *deterministic* discrete-event
//! simulation, so that the convergence-step counts of the paper's
//! stabilization lemmas are exactly reproducible from a seed:
//!
//! * [`Process`] — the protocol trait: react to messages and timers via a
//!   [`Context`] that can send messages, arm timers and draw randomness.
//! * [`Network`] — processes, RNG, [`Metrics`] and the fault plane, and
//!   every operation a harness performs on them, defined once. Its two
//!   instantiations are the two engines, which own only what differs —
//!   the [`Schedule`] holding what is in flight:
//!   * [`RoundNetwork`] — a synchronous round engine: messages sent in
//!     round *r* are delivered in round *r+1* from double-buffered
//!     inboxes, and every process fires its periodic tick each round.
//!     Self-stabilization experiments count rounds with it (the paper's
//!     "steps").
//!   * [`EventNetwork`] — an asynchronous discrete-event engine: a
//!     `(time, seq)` heap and a sampled latency per message (§2.1's
//!     actual system model).
//! * One fault plane for both: [`Network::crash`] / [`Network::revive`],
//!   [`Network::corrupt`], link blocking, first-class partitions
//!   ([`Network::partition`] / [`Network::heal`]), and a
//!   runtime-swappable [`FaultProfile`] of message loss, duplication
//!   and reordering knobs. A message's fate — link down, lost,
//!   duplicated — is decided once, in one function, whichever engine
//!   carries it; each engine then places the surviving copies in its
//!   own RNG draw order, so seeded traces are engine-stable. Every
//!   path settles its [`MsgTag`] exactly, and the books balance on
//!   both engines: `sent + duplicated == delivered + dropped +
//!   to_dead` once the network drains.
//! * A harness written once for both engines is generic over
//!   `Q: Schedule<P>` and moves the clock with [`Network::advance`] in
//!   steps of [`Network::period`]; one that picks its engine at runtime
//!   holds a `Box<`[`DynNetwork`]`<P>>`.
//!
//! # Example
//!
//! ```
//! use drtree_sim::{Context, EventNetwork, MessageLabel, NetConfig, Process, ProcessId};
//!
//! /// Each process forwards a token `hops` more times.
//! struct Relay { received: u32 }
//!
//! #[derive(Clone, Debug)]
//! struct Token { hops: u32, to: ProcessId }
//!
//! impl MessageLabel for Token {
//!     fn label(&self) -> &'static str { "token" }
//! }
//!
//! impl Process for Relay {
//!     type Msg = Token;
//!     type Timer = ();
//!     fn on_message(&mut self, _from: ProcessId, msg: Token,
//!                   ctx: &mut Context<'_, Token, ()>) {
//!         self.received += 1;
//!         if msg.hops > 0 {
//!             ctx.send(msg.to, Token { hops: msg.hops - 1, to: ctx.id() });
//!         }
//!     }
//!     fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Token, ()>) {}
//! }
//!
//! let mut net = EventNetwork::new(NetConfig::default(), 42);
//! let a = net.add_process(Relay { received: 0 });
//! let b = net.add_process(Relay { received: 0 });
//! net.send_external(a, Token { hops: 3, to: b });
//! net.run_to_quiescence(10_000);
//! assert_eq!(net.process(a).unwrap().received + net.process(b).unwrap().received, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod event;
mod fault;
mod metrics;
mod network;
mod process;
mod rounds;

pub use context::Context;
pub use event::{EventNetwork, EventSchedule, LatencyModel, NetConfig};
pub use fault::FaultProfile;
pub use metrics::Metrics;
pub use network::{DynNetwork, Network, Schedule};
pub use process::{MessageLabel, MsgTag, Process, ProcessId};
pub use rounds::{RoundNetwork, RoundSchedule};
