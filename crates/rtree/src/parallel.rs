//! Scoped-thread fan-out over independent index shards, and detached
//! background jobs for off-path maintenance.
//!
//! A sharded oracle answers one logical query by running the same
//! probe (or probe batch) against `K` independent [`PackedRTree`]
//! shards and merging the hits. The shards are disjoint data, so the
//! fan is embarrassingly parallel; what needs care is the plumbing —
//! each worker must own a distinct result buffer (no locks on the hot
//! path) and borrowed shards must outlive the workers. [`fan`] wraps
//! exactly that plumbing around [`std::thread::scope`], degrading to a
//! plain inline loop when only one worker is available or useful, so
//! callers write one code path for both the single-core and the
//! many-core case.
//!
//! [`Job`] is the second primitive: a one-shot background task owning
//! its input (e.g. a frozen [`PackedRTree`] snapshot being merged),
//! polled with [`Job::is_finished`] and harvested with [`Job::join`].
//! It is what keeps shard compaction off the publish path — the
//! caller freezes a snapshot, hands it to a job, and keeps serving
//! reads until the merged result is ready to swap in.
//!
//! [`Worker`] is the third: a *long-lived* actor thread owning a piece
//! of mutable state and executing submitted closures against it in
//! strict FIFO order. Where a [`Job`] runs one computation and dies, a
//! `Worker` serializes an open-ended command stream — the shape a
//! concurrent broker commit loop needs, where many producers hand work
//! to exactly one owner of the index without any lock around the state
//! itself.
//!
//! [`PackedRTree`]: crate::PackedRTree

use std::fmt;
use std::num::NonZeroUsize;
use std::sync::mpsc;
use std::thread::JoinHandle;

/// Number of hardware threads worth fanning across (≥ 1); the default
/// worker budget of sharded consumers.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `work(i, &shards[i], &mut bufs[i])` for every shard, spread
/// across at most `max_threads` scoped worker threads.
///
/// Shards are split into contiguous chunks, one worker per chunk, so
/// spawn overhead is bounded by the worker count, not the shard count.
/// With `max_threads <= 1` or a single shard the fan runs inline on
/// the calling thread — same semantics, zero spawn cost. Buffers are
/// handed to workers by disjoint `&mut`, so no synchronization exists
/// beyond the scope join itself.
///
/// # Panics
///
/// Panics if `shards` and `bufs` differ in length, or if a worker
/// panics (the panic is propagated by the scope join).
pub fn fan<S, B, F>(shards: &[S], bufs: &mut [B], max_threads: usize, work: F)
where
    S: Sync,
    B: Send,
    F: Fn(usize, &S, &mut B) + Sync,
{
    assert_eq!(
        shards.len(),
        bufs.len(),
        "one result buffer per shard is required"
    );
    let workers = max_threads.min(shards.len()).max(1);
    if workers <= 1 {
        for (i, (shard, buf)) in shards.iter().zip(bufs.iter_mut()).enumerate() {
            work(i, shard, buf);
        }
        return;
    }
    let per_worker = shards.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (chunk, (shard_chunk, buf_chunk)) in shards
            .chunks(per_worker)
            .zip(bufs.chunks_mut(per_worker))
            .enumerate()
        {
            let work = &work;
            scope.spawn(move || {
                for (j, (shard, buf)) in shard_chunk.iter().zip(buf_chunk.iter_mut()).enumerate() {
                    work(chunk * per_worker + j, shard, buf);
                }
            });
        }
    });
}

/// A one-shot background task producing a `T`.
///
/// Two flavors share the interface: [`Job::spawn`] runs the closure on
/// a dedicated OS thread (the concurrent-compaction path), while
/// [`Job::ready`] wraps an already-computed value (the synchronous
/// fallback, so callers keep one code path whether the work ran inline
/// or off-thread).
///
/// Dropping an unjoined spawned job detaches the thread: the work
/// finishes on its own and the result is discarded — the semantics an
/// owner wants when a rebalance supersedes an in-flight merge.
pub struct Job<T> {
    inner: JobInner<T>,
}

enum JobInner<T> {
    Spawned(JoinHandle<T>),
    Ready(T),
}

impl<T: Send + 'static> Job<T> {
    /// Runs `work` on a new background thread.
    pub fn spawn<F>(work: F) -> Self
    where
        F: FnOnce() -> T + Send + 'static,
    {
        Self {
            inner: JobInner::Spawned(std::thread::spawn(work)),
        }
    }

    /// A job that completed at construction — the inline fallback.
    pub fn ready(value: T) -> Self {
        Self {
            inner: JobInner::Ready(value),
        }
    }

    /// `true` once [`Job::join`] would return without blocking.
    pub fn is_finished(&self) -> bool {
        match &self.inner {
            JobInner::Spawned(handle) => handle.is_finished(),
            JobInner::Ready(_) => true,
        }
    }

    /// Blocks until the work completes and returns its result.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the worker thread.
    pub fn join(self) -> T {
        match self.inner {
            JobInner::Spawned(handle) => handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            JobInner::Ready(value) => value,
        }
    }
}

impl<T> fmt::Debug for Job<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            JobInner::Spawned(handle) => f
                .debug_struct("Job")
                .field("finished", &handle.is_finished())
                .finish(),
            JobInner::Ready(_) => f.debug_struct("Job").field("finished", &true).finish(),
        }
    }
}

/// A message consumed by a [`Worker`] thread: a command to run against
/// the owned state, or the stop sentinel sent by [`Worker::join`].
enum Command<T> {
    Run(Box<dyn FnOnce(&mut T) + Send + 'static>),
    Stop,
}

/// A long-lived actor thread owning a mutable state `T`.
///
/// Commands submitted through the worker (or any [`WorkerHandle`]
/// clone) run one at a time, in submission order, on the worker's
/// dedicated thread — the state needs no lock because exactly one
/// thread ever touches it. [`Worker::join`] enqueues a stop sentinel
/// and waits: everything submitted *before* the join runs to
/// completion, the final state comes back, and commands that race in
/// after the sentinel are dropped unrun (their `submit` may still
/// report success — a caller needing a receipt should get it from the
/// command itself). Shutdown therefore cannot deadlock on surviving
/// handles, including handles stored inside the state itself, the
/// shape a self-pumping commit loop uses.
///
/// This is the serialization primitive behind concurrent broker
/// ingress: many publisher threads enqueue, one worker owns the index.
pub struct Worker<T> {
    tx: mpsc::Sender<Command<T>>,
    handle: JoinHandle<T>,
}

/// A clonable submission endpoint for a [`Worker`].
///
/// Handles stay valid after the worker is gone; [`WorkerHandle::submit`]
/// then reports failure instead of panicking, so shutdown races are a
/// return value rather than a crash.
pub struct WorkerHandle<T> {
    tx: mpsc::Sender<Command<T>>,
}

impl<T> Clone for WorkerHandle<T> {
    fn clone(&self) -> Self {
        Self {
            tx: self.tx.clone(),
        }
    }
}

impl<T> fmt::Debug for WorkerHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerHandle").finish_non_exhaustive()
    }
}

impl<T: Send + 'static> Worker<T> {
    /// Spawns the actor thread, handing it ownership of `state`.
    pub fn spawn(state: T) -> Self {
        let (tx, rx) = mpsc::channel::<Command<T>>();
        let handle = std::thread::spawn(move || {
            let mut state = state;
            while let Ok(cmd) = rx.recv() {
                match cmd {
                    Command::Run(cmd) => cmd(&mut state),
                    Command::Stop => break,
                }
            }
            state
        });
        Self { tx, handle }
    }

    /// Enqueues `cmd` to run against the state after all previously
    /// submitted commands.
    ///
    /// # Panics
    ///
    /// Panics if the worker thread has died (i.e. a previous command
    /// panicked) — submitting to a dead owner is a logic error here,
    /// unlike on a [`WorkerHandle`] where shutdown races are expected.
    pub fn submit<F>(&self, cmd: F)
    where
        F: FnOnce(&mut T) + Send + 'static,
    {
        self.tx
            .send(Command::Run(Box::new(cmd)))
            .expect("worker thread died with commands outstanding");
    }

    /// A clonable endpoint other threads can submit through.
    pub fn handle(&self) -> WorkerHandle<T> {
        WorkerHandle {
            tx: self.tx.clone(),
        }
    }

    /// Runs every command submitted before this call, stops the actor,
    /// and returns the final state.
    ///
    /// Commands racing in after the stop sentinel are dropped unrun;
    /// surviving [`WorkerHandle`] clones keep failing over to
    /// `submit() == false` once the thread exits.
    ///
    /// # Panics
    ///
    /// Propagates a panic from a command closure.
    pub fn join(self) -> T {
        // A send can only fail if the thread already died, in which
        // case the join below surfaces its panic.
        let _ = self.tx.send(Command::Stop);
        self.handle
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }
}

impl<T> WorkerHandle<T> {
    /// Enqueues `cmd`, returning `false` if the worker is gone.
    ///
    /// A `true` return means the command was queued, not that it will
    /// run: a concurrent [`Worker::join`] may drop it. Receipts belong
    /// in the command itself.
    pub fn submit<F>(&self, cmd: F) -> bool
    where
        F: FnOnce(&mut T) + Send + 'static,
    {
        self.tx.send(Command::Run(Box::new(cmd))).is_ok()
    }
}

impl<T> fmt::Debug for Worker<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Worker")
            .field("finished", &self.handle.is_finished())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_visits_every_shard_exactly_once() {
        for max_threads in [1usize, 2, 3, 16] {
            let shards: Vec<usize> = (0..7).collect();
            let mut bufs: Vec<Vec<usize>> = vec![Vec::new(); shards.len()];
            fan(&shards, &mut bufs, max_threads, |i, &shard, buf| {
                assert_eq!(i, shard, "index must match shard position");
                buf.push(shard * 10);
            });
            let got: Vec<Vec<usize>> = bufs;
            let want: Vec<Vec<usize>> = (0..7).map(|i| vec![i * 10]).collect();
            assert_eq!(got, want, "max_threads={max_threads}");
        }
    }

    #[test]
    fn fan_handles_empty_and_singleton() {
        let shards: [u8; 0] = [];
        let mut bufs: [u8; 0] = [];
        fan(&shards, &mut bufs, 4, |_, _, _| unreachable!());
        let mut one = [0u32];
        fan(&[5u32], &mut one, 4, |_, &s, b| *b = s + 1);
        assert_eq!(one[0], 6);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn jobs_run_and_join() {
        let spawned = Job::spawn(|| (0..100u64).sum::<u64>());
        let ready = Job::ready(4950u64);
        assert!(ready.is_finished());
        assert_eq!(spawned.join(), 4950);
        assert_eq!(ready.join(), 4950);
    }

    #[test]
    fn dropping_a_job_detaches_it() {
        let job = Job::spawn(|| 7u32);
        drop(job); // must not block or panic; the thread finishes alone
    }

    #[test]
    #[should_panic(expected = "worker exploded")]
    fn join_propagates_worker_panics() {
        let job: Job<()> = Job::spawn(|| panic!("worker exploded"));
        job.join();
    }

    #[test]
    fn worker_runs_commands_in_fifo_order() {
        let worker = Worker::spawn(Vec::<u32>::new());
        for i in 0..100u32 {
            worker.submit(move |v| v.push(i));
        }
        let state = worker.join();
        assert_eq!(state, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn worker_handles_submit_from_many_threads() {
        let worker = Worker::spawn(0u64);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = worker.handle();
                scope.spawn(move || {
                    for _ in 0..250 {
                        assert!(handle.submit(|n| *n += 1));
                    }
                });
            }
        });
        assert_eq!(worker.join(), 1000);
    }

    #[test]
    fn worker_join_drains_outstanding_commands() {
        let worker = Worker::spawn(0u32);
        worker.submit(|n| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            *n += 1;
        });
        for _ in 0..50 {
            worker.submit(|n| *n += 1);
        }
        // join must not drop the 50 queued commands behind the sleeper.
        assert_eq!(worker.join(), 51);
    }

    #[test]
    fn worker_handle_reports_shutdown_instead_of_panicking() {
        let worker = Worker::spawn(());
        let handle = worker.handle();
        worker.join();
        assert!(!handle.submit(|()| {}));
    }

    #[test]
    fn worker_commands_can_resubmit_through_a_handle() {
        // A command that reschedules itself through the handle — the
        // self-pumping shape the ingress commit loop uses.
        let worker = Worker::spawn(0u32);
        let handle = worker.handle();
        fn pump(n: &mut u32, handle: &WorkerHandle<u32>) {
            *n += 1;
            if *n < 5 {
                let again = handle.clone();
                handle.submit(move |n| pump(n, &again));
            }
        }
        let h2 = handle.clone();
        handle.submit(move |n| pump(n, &h2));
        // Wait until the chain has finished, then stop the actor. The
        // surviving `handle` must not deadlock the join.
        let (done_tx, done_rx) = std::sync::mpsc::channel::<u32>();
        loop {
            let tx = done_tx.clone();
            assert!(handle.submit(move |n| {
                let _ = tx.send(*n);
            }));
            if done_rx.recv() == Ok(5) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(worker.join(), 5);
    }
}
