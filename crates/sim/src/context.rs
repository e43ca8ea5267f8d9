use rand::rngs::StdRng;

use crate::ProcessId;

/// The effect buffers a callback fills — messages to send, timers to
/// arm, tags to mark. Each engine owns one set and lends it to every
/// [`Context`], so a callback allocates only while the buffers still
/// grow.
pub(crate) type Effects<M, T> = (Vec<(ProcessId, M)>, Vec<(u64, T)>, Vec<u64>);

/// The interface a [`Process`](crate::Process) uses to act on the world
/// from inside a callback.
///
/// Effects (sends, timers) are buffered and applied by the engine after
/// the callback returns; the engine decides latency, loss and delivery
/// order, keeping runs deterministic for a given seed.
#[derive(Debug)]
pub struct Context<'a, M, T> {
    id: ProcessId,
    now: u64,
    rng: &'a mut StdRng,
    pub(crate) outbox: &'a mut Vec<(ProcessId, M)>,
    pub(crate) timer_requests: &'a mut Vec<(u64, T)>,
    marks: &'a mut Vec<u64>,
}

impl<'a, M, T> Context<'a, M, T> {
    /// The one constructor both engines use. `effects` must be empty:
    /// the engine drains it after the callback returns.
    pub(crate) fn new(
        id: ProcessId,
        now: u64,
        rng: &'a mut StdRng,
        effects: &'a mut Effects<M, T>,
    ) -> Self {
        let (outbox, timer_requests, marks) = effects;
        Self {
            id,
            now,
            rng,
            outbox,
            timer_requests,
            marks,
        }
    }

    /// The id of the process being called.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Current simulation time (event engine: abstract time units; round
    /// engine: the round number).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Sends `msg` to `to`. Delivery is asynchronous and may be dropped
    /// or delayed depending on the engine's [`NetConfig`](crate::NetConfig).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Arms a one-shot timer to fire after `delay` time units (at least
    /// 1; a zero delay is promoted to 1 so a process cannot starve the
    /// engine).
    pub fn set_timer(&mut self, delay: u64, timer: T) {
        self.timer_requests.push((delay.max(1), timer));
    }

    /// Marks that this process reached tagged operation `tag` (see
    /// [`MsgTag`](crate::MsgTag)) — e.g. its first receipt of an event.
    /// The engine logs `(tag, process)` in one place
    /// ([`crate::Metrics::marks`]), so a harness accounts an operation
    /// at the cost of its marks, not of a visit to every process.
    pub fn mark(&mut self, tag: u64) {
        self.marks.push(tag);
    }

    /// Deterministic per-network randomness.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn buffers_effects() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut effects = Effects::default();
        let mut ctx: Context<'_, &str, u8> =
            Context::new(ProcessId::from_raw(3), 99, &mut rng, &mut effects);
        assert_eq!(ctx.id(), ProcessId::from_raw(3));
        assert_eq!(ctx.now(), 99);
        ctx.send(ProcessId::from_raw(4), "hello");
        ctx.set_timer(0, 1); // promoted to 1
        ctx.set_timer(5, 2);
        ctx.mark(41);
        let _: u32 = ctx.rng().gen();
        assert_eq!(ctx.outbox.len(), 1);
        assert_eq!(*ctx.timer_requests, vec![(1, 1), (5, 2)]);
        assert_eq!(*ctx.marks, vec![41]);
    }
}
