//! The persistent decode worker pool.
//!
//! Long-lived threads owned by the engine (a thread spawn, ~25 µs, per
//! worker per step would dominate a small model's step): workers park on a
//! job channel, a step sends each one a chunk of the batch, and the
//! dispatcher blocks until every chunk is reported done. Every chunk, the
//! caller's included, goes through the one `advance_chunk` the serial path
//! uses — its rows fused into that thread's own forward passes, over a
//! [`Workspace`] the thread owns — and which rows share a pass is invisible
//! in the output, so chunk assignment never shows: output is bit-for-bit
//! unchanged for every thread count.
//!
//! Panic containment is layered. `advance_chunk` quarantines a panic
//! *per sequence* — under the sequence's own guard, or by re-running the
//! sequences of a fused pass that unwound one by one — and the engine
//! retires the victim without disturbing its chunk-mates. The chunk-level
//! `catch_unwind` below is the backstop for panics escaping that,
//! shipping the payload back to the dispatcher for re-raise. And should a
//! worker thread die anyway — without acking — the dispatcher forgives the
//! debt once the thread is provably finished instead of blocking forever:
//! `Drop for ServeEngine` cannot deadlock on a dead worker.
//!
//! Shutdown is channel-driven: dropping the pool closes the job channels,
//! each worker's `recv` errors out and the thread exits, and `Drop` joins
//! them all — no sentinel messages, no leaked threads, safe to run with
//! requests still queued (pending work simply stays in the engine).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// One chunk acknowledgement from worker `.0`: `Ok` on success, or the
/// worker's caught panic payload, re-raised on the dispatcher thread so
/// the original assertion message/location is not lost.
type Ack = (usize, Result<(), Box<dyn std::any::Any + Send>>);

use opal_model::{Model, Workspace};

use crate::sequence::{advance_chunk, Active};

/// How long the dispatcher waits for an acknowledgement before checking
/// whether a worker it is waiting on has died. Purely a liveness poll:
/// acks arriving earlier wake the `recv_timeout` immediately, so healthy
/// steps never pay this.
const ACK_POLL: Duration = Duration::from_millis(20);

/// One chunk of the active batch, dispatched to a worker for one step.
///
/// The raw pointers stand in for the `&Model` and `&mut [Active]` borrows
/// that `ServeEngine::step` holds: a long-lived thread cannot carry those
/// lifetimes in its type, so the dispatch protocol carries the proof
/// instead. [`WorkerPool::step_chunks`] sends jobs and then blocks until
/// every worker acknowledges completion — or is provably dead, its thread
/// finished and so incapable of touching the borrows — so a `Job`'s
/// pointers are only dereferenced while the step's borrows are alive, and
/// every chunk is disjoint from every other (they come from one
/// `chunks_mut`).
struct Job {
    model: *const Model,
    seqs: *mut Active,
    len: usize,
}

// SAFETY: a `Job` transfers exclusive access to a disjoint `&mut [Active]`
// chunk (`Active` is `Send`: every field is owned data) plus a shared
// `&Model` (`Model` is `Sync`; its quantizer boxes are `Send + Sync` by
// construction). The channel handoff provides the happens-before edges on
// both sides of the step.
unsafe impl Send for Job {}

/// Statically prove the assumptions the `unsafe impl Send` above rests on.
fn _assert_bounds() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    send::<Active>();
    sync::<Model>();
}

struct Worker {
    /// `None` only during shutdown: dropping the sender is what tells the
    /// thread to exit.
    jobs: Option<Sender<Job>>,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    /// Whether this worker's thread can still receive and run jobs. A
    /// finished thread has exited `worker_loop` (it died mid-step, or its
    /// channel closed); it will never ack again, and — crucially — can
    /// never again touch a job's borrows.
    fn alive(&self) -> bool {
        self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }
}

/// Long-lived decode workers, created lazily by the first step that fans
/// out and owned by the engine for the rest of its life.
pub(crate) struct WorkerPool {
    workers: Vec<Worker>,
    done: Receiver<Ack>,
}

impl WorkerPool {
    /// Spawns `workers` named threads, each parked on its job channel.
    pub(crate) fn new(workers: usize) -> Self {
        let (done_tx, done) = channel();
        let workers = (0..workers)
            .map(|i| {
                let (jobs_tx, jobs_rx) = channel::<Job>();
                let done_tx = done_tx.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("opal-serve-{i}"))
                    .spawn(move || worker_loop(i, &jobs_rx, &done_tx))
                    // tidy: allow(panic) -- thread-spawn failure at pool construction is
                    // unrecoverable; the engine falls back to serial when workers <= 1
                    .expect("spawn serve worker");
                Worker { jobs: Some(jobs_tx), handle: Some(handle) }
            })
            .collect();
        WorkerPool { workers, done }
    }

    /// Number of pool threads.
    pub(crate) fn len(&self) -> usize {
        self.workers.len()
    }

    /// Advances every sequence of every chunk by one step: chunks after
    /// the first go to the pool, the caller's thread works the first chunk
    /// (with its own `workspace`) instead of idling at the join, then the
    /// call blocks until all dispatched chunks complete. Chunks that find
    /// no live worker — every pool thread died, or more chunks arrived
    /// than live workers — run inline on the caller's thread, so a
    /// decimated pool degrades to serial stepping instead of erroring.
    ///
    /// This function **never returns or unwinds with a job in flight** —
    /// the soundness keystone. Acknowledgements are drained by a drop
    /// guard, so even a panic on the caller's chunk (or in the panicking
    /// branch below) blocks until every worker has finished touching the
    /// step's borrows before the unwind proceeds. A worker that died
    /// without acking satisfies the same condition vacuously the moment
    /// its thread is finished — a dead thread touches nothing — which is
    /// what lets the guard forgive its ack instead of deadlocking;
    /// afterwards the engine — and the `active` vector the jobs pointed
    /// into — can be reused or dropped freely.
    ///
    /// # Panics
    ///
    /// Re-raises a worker's panic payload if one escaped the per-sequence
    /// quarantine while advancing its chunk (the engine's step cannot
    /// produce a consistent batch state in that case; the panic is raised
    /// only after every dispatched chunk is accounted for).
    pub(crate) fn step_chunks<'a>(
        &self,
        model: &Model,
        mut chunks: impl Iterator<Item = &'a mut [Active]>,
        workspace: &mut Workspace,
    ) {
        /// Tracks which workers still owe an acknowledgement and blocks,
        /// on drop, until each has acked or provably died — owned here so
        /// no early exit path can skip the wait.
        struct PendingAcks<'p> {
            done: &'p Receiver<Ack>,
            workers: &'p [Worker],
            /// Indices of workers owing an ack for a dispatched job.
            owed: Vec<usize>,
        }
        impl PendingAcks<'_> {
            /// Waits for the next acknowledgement. Returns `None` when no
            /// further ack can ever arrive: every still-owing worker's
            /// thread has finished (died mid-step), so their debts are
            /// forgiven — safe, because a finished thread can no longer
            /// touch the step's borrows.
            fn collect(&mut self) -> Option<Ack> {
                loop {
                    match self.done.recv_timeout(ACK_POLL) {
                        Ok((idx, ack)) => {
                            if let Some(pos) = self.owed.iter().position(|&i| i == idx) {
                                self.owed.swap_remove(pos);
                            }
                            return Some((idx, ack));
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            let workers = self.workers;
                            self.owed.retain(|&i| workers[i].alive());
                            if self.owed.is_empty() {
                                return None;
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            self.owed.clear();
                            return None;
                        }
                    }
                }
            }
        }
        impl Drop for PendingAcks<'_> {
            fn drop(&mut self) {
                while !self.owed.is_empty() {
                    if self.collect().is_none() {
                        break;
                    }
                }
            }
        }

        let first = chunks.next();
        let mut pending =
            PendingAcks { done: &self.done, workers: &self.workers, owed: Vec::new() };
        let mut inline: Vec<&'a mut [Active]> = Vec::new();
        let mut next_worker = 0usize;
        for chunk in chunks {
            let mut dispatched = false;
            while next_worker < self.workers.len() {
                let i = next_worker;
                next_worker += 1;
                let worker = &self.workers[i];
                if !worker.alive() {
                    continue; // died in an earlier step; route around it
                }
                // `jobs` is only `None` mid-`Drop`, after which no step
                // can run; routing around it like a dead worker keeps the
                // step correct either way.
                let Some(jobs) = worker.jobs.as_ref() else { continue };
                let job = Job { model, seqs: chunk.as_mut_ptr(), len: chunk.len() };
                // A send can still lose the race with a worker exiting;
                // the unreceived `Job` comes back in the error and is
                // dropped without ever being dereferenced.
                if jobs.send(job).is_ok() {
                    pending.owed.push(i);
                    dispatched = true;
                    break;
                }
            }
            if !dispatched {
                inline.push(chunk);
            }
        }
        for chunk in inline.into_iter().chain(first) {
            advance_chunk(model, chunk, workspace);
        }
        let mut panic_payload = None;
        while !pending.owed.is_empty() {
            match pending.collect() {
                Some((_, Err(payload))) => {
                    panic_payload.get_or_insert(payload);
                }
                Some((_, Ok(()))) => {}
                None => break,
            }
        }
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for w in &mut self.workers {
            w.jobs = None; // close the channel: the worker's recv errors out
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

fn worker_loop(index: usize, jobs: &Receiver<Job>, done: &Sender<Ack>) {
    // This thread's forward-pass buffers, grown by the chunks it is sent.
    let mut workspace = Workspace::new();
    while let Ok(job) = jobs.recv() {
        // Per-sequence panics are quarantined inside `advance_chunk`; this
        // chunk-level catch is the backstop for panics escaping that (e.g.
        // in the quarantine itself), so even those cannot strand the
        // dispatcher at its join: catch, ship the payload back, and let the
        // dispatcher re-raise it on its own thread with the original
        // message intact.
        let ack = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: `step_chunks` blocks until this job is acknowledged
            // below (or this thread exits — observed via `is_finished` —
            // after which it provably cannot run this code), so the
            // `&Model` and `&mut [Active]` borrows it was built from are
            // still live, and no other thread touches this chunk in the
            // meantime.
            let model = unsafe { &*job.model };
            let seqs = unsafe { std::slice::from_raw_parts_mut(job.seqs, job.len) };
            advance_chunk(model, seqs, &mut workspace);
        }));
        if done.send((index, ack)).is_err() {
            break;
        }
    }
}
