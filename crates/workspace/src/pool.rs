//! A hand-rolled work-stealing shard pool — `Mutex`/`Condvar` only.
//!
//! Each shard is one `std::thread` with its own run-queue (a deque). A
//! worker pops its own queue front-first; when that runs dry it *steals*
//! from the back of another shard's queue instead of going idle. The pool
//! schedules opaque items (the workspace schedules whole documents), so
//! per-document FIFO is no longer a pool property — it is a structural
//! property of the document's own mailbox, which travels with the item
//! wherever it is stolen to. The handler is told whether the item arrived
//! by steal so the layer above can rebind ownership (migration).
//!
//! Queues here are unbounded: backpressure lives in the per-document
//! mailboxes above (a document occupies at most one run-queue slot at a
//! time), so run-queue length is bounded by the number of live documents.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

struct PoolShared<T> {
    deques: Vec<Mutex<VecDeque<T>>>,
    /// Total items across all deques. Fast emptiness check for sleepers;
    /// incremented *before* the wake notification so a racing sleeper
    /// re-checking under the sleep lock cannot miss it.
    pending: AtomicUsize,
    /// Workers currently inside a handler. Shutdown completes only when
    /// `closed && pending == 0 && in_flight == 0`, so a handler that
    /// re-queues work (via [`Requeue`]) keeps the pool alive until that
    /// work drains too.
    in_flight: AtomicUsize,
    closed: AtomicBool,
    steals: AtomicU64,
    busy_ns: Vec<AtomicU64>,
    sleep: Mutex<()>,
    wake: Condvar,
}

impl<T> PoolShared<T> {
    fn push(&self, shard: usize, item: T) {
        let n = self.deques.len();
        // Increment `pending` *before* the item becomes poppable: a worker
        // scanning concurrently may pop it the instant the deque lock is
        // released, and its matching decrement must never find the counter
        // still at zero. Transient overcount is harmless — `pending` is an
        // upper bound on queued items, and the sleep/shutdown protocol only
        // relies on `pending == 0` implying empty deques.
        self.pending.fetch_add(1, Ordering::Release);
        self.deques[shard % n]
            .lock()
            .expect("deque lock")
            .push_back(item);
        let _guard = self.sleep.lock().expect("sleep lock");
        self.wake.notify_one();
    }
}

/// A re-queue handle passed to each shard handler: lets a handler put an
/// item back on a run-queue even while the pool is shutting down, so work
/// accepted before the close always finishes.
pub struct Requeue<T>(Arc<PoolShared<T>>);

impl<T> Clone for Requeue<T> {
    fn clone(&self) -> Requeue<T> {
        Requeue(Arc::clone(&self.0))
    }
}

impl<T> Requeue<T> {
    /// Pushes `item` onto `shard`'s run-queue, ignoring the closed flag.
    pub fn push(&self, shard: usize, item: T) {
        self.0.push(shard, item);
    }
}

/// A fixed set of shard worker threads over per-shard stealing deques.
pub struct ShardPool<T: Send + 'static> {
    inner: Arc<PoolShared<T>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> ShardPool<T> {
    /// Spawns `threads` workers. `make_handler(shard_index, requeue)`
    /// builds the per-shard handler; the handler owns all shard-local
    /// state and is invoked once per item with a flag saying whether the
    /// item was stolen from another shard's queue.
    pub fn new<F, H>(threads: usize, make_handler: F) -> ShardPool<T>
    where
        F: Fn(usize, Requeue<T>) -> H,
        H: FnMut(T, bool) + Send + 'static,
    {
        let threads = threads.max(1);
        let inner = Arc::new(PoolShared {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            busy_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let handler = make_handler(i, Requeue(Arc::clone(&inner)));
            let shared = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("wg-shard-{i}"))
                .spawn(move || worker_loop(i, shared, handler))
                .expect("spawn shard worker");
            workers.push(handle);
        }
        ShardPool { inner, workers }
    }

    /// Number of shards (worker threads).
    pub fn shards(&self) -> usize {
        self.inner.deques.len()
    }

    /// Enqueues `item` on `shard`'s run-queue and wakes a sleeper.
    ///
    /// # Errors
    ///
    /// Returns the item back if the pool is shutting down.
    pub fn submit(&self, shard: usize, item: T) -> Result<(), T> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(item);
        }
        self.inner.push(shard, item);
        Ok(())
    }

    /// `true` when no item is queued or executing. Because each worker
    /// decrements `in_flight` *after* charging its [`Self::busy_time`],
    /// an idle pool's busy gauges are fully flushed — callers that
    /// snapshot busy time for windowed measurements should wait for
    /// idleness first (a worker descheduled between sending a reply and
    /// charging its time otherwise makes the snapshot undercount).
    pub fn idle(&self) -> bool {
        self.inner.pending.load(Ordering::Acquire) == 0
            && self.inner.in_flight.load(Ordering::Acquire) == 0
    }

    /// Items popped from a *foreign* shard's queue since startup.
    pub fn steals(&self) -> u64 {
        self.inner.steals.load(Ordering::Relaxed)
    }

    /// Per-shard busy time: wall-clock spent inside handlers.
    pub fn busy_time(&self) -> Vec<Duration> {
        self.inner
            .busy_ns
            .iter()
            .map(|b| Duration::from_nanos(b.load(Ordering::Relaxed)))
            .collect()
    }

    /// Closes the pool and joins every worker. Queued work — including
    /// anything handlers re-queue while draining — is completed first;
    /// new `submit` calls fail immediately.
    pub fn shutdown(&mut self) {
        self.inner.closed.store(true, Ordering::Release);
        {
            let _guard = self.inner.sleep.lock().expect("sleep lock");
            self.inner.wake.notify_all();
        }
        for handle in self.workers.drain(..) {
            // A worker that panicked poisoned nothing shared beyond its
            // own deque lock; surface the panic to the caller.
            if let Err(e) = handle.join() {
                std::panic::resume_unwind(e);
            }
        }
    }
}

impl<T: Send + 'static> Drop for ShardPool<T> {
    fn drop(&mut self) {
        if !self.workers.is_empty() && !std::thread::panicking() {
            self.shutdown();
        } else {
            // Unwinding already: signal workers to exit after the drain,
            // but do not join (avoid a double panic aborting the process).
            self.inner.closed.store(true, Ordering::Release);
            let _guard = self.inner.sleep.lock().expect("sleep lock");
            self.inner.wake.notify_all();
        }
    }
}

fn worker_loop<T, H: FnMut(T, bool)>(me: usize, shared: Arc<PoolShared<T>>, mut handler: H) {
    let n = shared.deques.len();
    loop {
        // Own queue first (front: oldest work), then steal round-robin
        // from the *back* of foreign queues — the classic deque split
        // minimizing contention with the victim's own front pops. Each
        // guard is bound to a `let` statement so it drops *before* the
        // next deque is tried: an `if let` scrutinee would keep the own
        // lock alive through the whole steal scan, and two workers
        // scanning toward each other would deadlock ABBA-style.
        let mut found: Option<(T, bool)> = None;
        let own = shared.deques[me].lock().expect("deque lock").pop_front();
        match own {
            Some(item) => found = Some((item, false)),
            None => {
                for off in 1..n {
                    let victim = (me + off) % n;
                    let theirs = shared.deques[victim].lock().expect("deque lock").pop_back();
                    if let Some(item) = theirs {
                        shared.steals.fetch_add(1, Ordering::Relaxed);
                        found = Some((item, true));
                        break;
                    }
                }
            }
        }
        match found {
            Some((item, stolen)) => {
                shared.pending.fetch_sub(1, Ordering::Release);
                shared.in_flight.fetch_add(1, Ordering::Release);
                let t0 = Instant::now();
                handler(item, stolen);
                shared.busy_ns[me].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                shared.in_flight.fetch_sub(1, Ordering::Release);
                if shared.closed.load(Ordering::Acquire) {
                    // We may have been the last in-flight worker a
                    // sleeper is waiting out; wake everyone to re-check.
                    let _guard = shared.sleep.lock().expect("sleep lock");
                    shared.wake.notify_all();
                }
            }
            None => {
                // Sleep protocol: re-check `pending` *under the sleep
                // lock*. Every push increments `pending` before taking
                // the sleep lock to notify, so either we see the item
                // here or the notification reaches us in `wait`.
                let mut guard = shared.sleep.lock().expect("sleep lock");
                loop {
                    if shared.pending.load(Ordering::Acquire) > 0 {
                        break;
                    }
                    if shared.closed.load(Ordering::Acquire)
                        && shared.in_flight.load(Ordering::Acquire) == 0
                    {
                        return;
                    }
                    guard = shared.wake.wait(guard).expect("sleep lock");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    #[test]
    fn all_work_processed_exactly_once() {
        let log: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let mut pool = {
            let log = Arc::clone(&log);
            ShardPool::new(3, move |_, _rq| {
                let log = Arc::clone(&log);
                move |item: u32, _stolen| log.lock().unwrap().push(item)
            })
        };
        for i in 0..300u32 {
            pool.submit(i as usize % 3, i).unwrap();
        }
        pool.shutdown();
        let mut log = log.lock().unwrap();
        log.sort_unstable();
        assert_eq!(*log, (0..300).collect::<Vec<_>>(), "lost or doubled work");
    }

    #[test]
    fn idle_shards_steal_from_a_flooded_one() {
        let by_worker: Arc<Mutex<Vec<(usize, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut pool = {
            let by_worker = Arc::clone(&by_worker);
            ShardPool::new(4, move |worker, _rq| {
                let by_worker = Arc::clone(&by_worker);
                move |_: (), stolen| {
                    // Slow items so the flood outlives the victim's own
                    // draining and thieves get a window.
                    std::thread::sleep(Duration::from_millis(2));
                    by_worker.lock().unwrap().push((worker, stolen));
                }
            })
        };
        for _ in 0..64 {
            pool.submit(0, ()).unwrap(); // everything lands on shard 0
        }
        pool.shutdown();
        let log = by_worker.lock().unwrap();
        assert_eq!(log.len(), 64);
        assert!(pool.steals() > 0, "no steals despite a flooded shard");
        let foreign = log.iter().filter(|(w, _)| *w != 0).count();
        assert!(foreign > 0, "only the home shard ever ran work");
        assert!(
            log.iter().all(|&(w, stolen)| stolen == (w != 0)),
            "stolen flag disagrees with which worker ran the item"
        );
    }

    #[test]
    fn shutdown_drains_queued_and_requeued_work() {
        let done = Arc::new(AtomicUsize::new(0));
        let mut pool = {
            let done = Arc::clone(&done);
            ShardPool::new(1, move |_, rq: Requeue<u32>| {
                let done = Arc::clone(&done);
                move |gen: u32, _| {
                    std::thread::sleep(Duration::from_micros(200));
                    done.fetch_add(1, Ordering::SeqCst);
                    if gen > 0 {
                        // Re-queues must survive the close: this runs
                        // while shutdown is already in progress.
                        rq.push(0, gen - 1);
                    }
                }
            })
        };
        for _ in 0..20 {
            pool.submit(0, 1).unwrap(); // each item re-queues one child
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 40, "accepted work must finish");
        assert!(pool.submit(0, 0).is_err(), "closed pool refuses new work");
    }

    #[test]
    fn busy_time_accumulates_on_the_worker_that_ran_the_item() {
        let mut pool = ShardPool::new(2, |_, _rq| {
            |_: (), _| std::thread::sleep(Duration::from_millis(2))
        });
        for _ in 0..8 {
            pool.submit(0, ()).unwrap();
        }
        pool.shutdown();
        let busy = pool.busy_time();
        let total: Duration = busy.iter().sum();
        assert!(
            total >= Duration::from_millis(12),
            "workers idled: {busy:?}"
        );
    }
}
