//! The async fetch pipeline: a completion queue over dedicated fetcher
//! threads, so a handful of CPU workers keep hundreds of fetches in
//! flight instead of sleeping through round-trips one at a time.
//!
//! §1.1's premise is that network latency, not CPU, bounds discovery;
//! the paper's crawler runs "about thirty threads" purely to hide it.
//! This module is that idea with the roles split: CPU workers *submit*
//! claims into a shared submission queue and *drain* `(claim, result)`
//! completions through the existing classify/flush path, while a pool
//! of plain OS threads (no async runtime — consistent with the offline
//! `vendor/` toolchain) runs the blocking [`Fetcher`] calls in between.
//!
//! A pool of size 0 is *threadless*: nothing fetches in the background,
//! and [`PoolHandle::next_completion`] runs the handle's oldest queued
//! job on the draining thread itself. That is the inline crawl — fetch,
//! classify, flush, one page at a time on the CPU worker — expressed as
//! the degenerate pool, so every crawl runs through one worker loop.
//! A job is fetched only when drained, so pause and stop still issue no
//! further fetches and hand every unfetched claim back.
//!
//! Ownership model: the pool and its submission queue are shared per
//! shard, but every completion lands in the [`PoolHandle`] that
//! submitted the job, so a worker only ever sees its own claims —
//! claim lifecycle (gauges, flush, unclaim) stays worker-local.
//! Determinism: each job carries the attempt number its submitter
//! assigned under the store lock, and fetchers see it via
//! [`Fetcher::fetch_with_ordinal`] — fault injection keys on the
//! submission order, never on completion interleaving or on which
//! thread ran the fetch.
//!
//! Shutdown contract: workers cancel or drain all their jobs before
//! exiting (the run's wind-down then tears the idle pool down), so a
//! claim is never abandoned inside the queue.

use crate::frontier::Claim;
use focus_webgraph::{FetchError, FetchedPage, Fetcher};
use lockcheck::{rank, OrderedCondvar, OrderedMutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What fetching one submitted claim produced.
#[derive(Debug)]
pub struct Completion {
    /// The claim as submitted.
    pub claim: Claim,
    /// The attempt number assigned at submission (the fetch's
    /// submission ordinal is `attempt - 1`).
    pub attempt: u64,
    /// The fetch outcome, or the payload of a panic caught in the
    /// fetcher — the draining worker re-raises it (see `run_job`).
    pub outcome: Result<Result<FetchedPage, FetchError>, String>,
}

struct Job {
    claim: Claim,
    attempt: u64,
    dest: Arc<HandleShared>,
}

/// Per-handle completion mailbox.
struct HandleShared {
    completions: OrderedMutex<VecDeque<Completion>>,
    ready: OrderedCondvar,
}

struct PoolShared {
    fetcher: Arc<dyn Fetcher>,
    queue: OrderedMutex<VecDeque<Job>>,
    job_ready: OrderedCondvar,
    shutdown: AtomicBool,
    /// No fetcher threads: jobs run on the thread that drains them.
    threadless: bool,
}

/// A shard's fetch pool. Armed at run launch, shared by that run's CPU
/// workers, torn down at wind-down.
pub struct FetchPool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl FetchPool {
    /// Spawn `size` fetcher threads over `fetcher`. With `size == 0`
    /// no thread is spawned: the pool is threadless and each handle
    /// runs its own jobs in [`PoolHandle::next_completion`].
    pub fn new(fetcher: Arc<dyn Fetcher>, size: usize) -> FetchPool {
        let shared = Arc::new(PoolShared {
            fetcher,
            queue: OrderedMutex::new(rank::POOL_QUEUE, VecDeque::new()),
            job_ready: OrderedCondvar::new(),
            shutdown: AtomicBool::new(false),
            threadless: size == 0,
        });
        let threads = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fetch-pool-{i}"))
                    .spawn(move || fetcher_thread(&shared))
                    .expect("spawn fetch-pool thread")
            })
            .collect();
        FetchPool { shared, threads }
    }

    /// Fetcher threads in the pool (0 for a threadless pool).
    pub fn size(&self) -> usize {
        self.threads.len()
    }

    /// A worker's private submission/completion endpoint.
    pub fn handle(self: &Arc<Self>) -> PoolHandle {
        PoolHandle {
            pool: Arc::clone(&self.shared),
            dest: Arc::new(HandleShared {
                completions: OrderedMutex::new(rank::POOL_MAILBOX, VecDeque::new()),
                ready: OrderedCondvar::new(),
            }),
            outstanding: 0,
        }
    }

    /// Stop the pool: wake every fetcher thread and join them. Idempotent.
    /// Jobs still queued are dropped *silently* — callers must have
    /// cancelled or drained their handles first (the worker wind-down
    /// contract), otherwise their claims would leak as `CLAIMED`.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.job_ready.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for FetchPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn fetcher_thread(shared: &PoolShared) {
    loop {
        let Job {
            claim,
            attempt,
            dest,
        } = {
            let mut q = shared.queue.lock();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(j) = q.pop_front() {
                    break j;
                }
                q = shared.job_ready.wait(q);
            }
        };
        let done = run_job(&*shared.fetcher, claim, attempt);
        dest.completions.lock().push_back(done);
        dest.ready.notify_one();
    }
}

/// Fetch one job, on whichever thread drained it: a fetcher thread, or
/// the worker itself on a threadless pool. Callers hold no lock here.
///
/// The fetch's submission ordinal is the claim's attempt number minus
/// one. Attempts are assigned under the store lock at claim time, so a
/// chaos schedule keyed on the ordinal injects the same faults whatever
/// the pool size and whichever thread runs the fetch.
///
/// A panic in the fetcher is caught and carried in the completion; the
/// draining worker re-raises it, so a broken fetcher fails the run on
/// the worker thread whichever thread fetched.
fn run_job(fetcher: &dyn Fetcher, claim: Claim, attempt: u64) -> Completion {
    let ordinal = attempt.saturating_sub(1);
    let oid = claim.oid;
    let fetched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fetcher.fetch_with_ordinal(oid, ordinal)
    }));
    Completion {
        claim,
        attempt,
        // `as_ref` reaches the payload itself; `&p` would unsize the Box
        // and make the downcasts see `Box<dyn Any>`.
        outcome: fetched.map_err(|p| panic_text(p.as_ref())),
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "fetcher panicked".to_string()
    }
}

/// One worker's view of the pool: submit claims, drain *your own*
/// completions. Not shared between workers.
pub struct PoolHandle {
    pool: Arc<PoolShared>,
    dest: Arc<HandleShared>,
    outstanding: usize,
}

impl PoolHandle {
    /// Submit one batch of claims whose attempt numbers start at
    /// `first_attempt` (contiguous, in batch order, as claimed).
    pub fn submit(&mut self, claims: Vec<Claim>, first_attempt: u64) {
        if claims.is_empty() {
            return;
        }
        self.outstanding += claims.len();
        let mut q = self.pool.queue.lock();
        for (i, claim) in claims.into_iter().enumerate() {
            q.push_back(Job {
                claim,
                attempt: first_attempt + i as u64,
                dest: Arc::clone(&self.dest),
            });
            self.pool.job_ready.notify_one();
        }
    }

    /// Jobs submitted through this handle and not yet drained or
    /// cancelled.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Next completion for this handle, waiting up to `timeout`. `None`
    /// when nothing is outstanding or nothing completed in time — the
    /// caller's loop uses the timeout to stay responsive to commands.
    ///
    /// On a threadless pool this takes the handle's oldest queued job
    /// and fetches it here, on the calling thread, without waiting.
    pub fn next_completion(&mut self, timeout: Duration) -> Option<Completion> {
        if self.outstanding == 0 {
            return None;
        }
        if self.pool.threadless {
            let job = {
                let mut q = self.pool.queue.lock();
                let i = q.iter().position(|j| Arc::ptr_eq(&j.dest, &self.dest))?;
                q.remove(i)?
            };
            self.outstanding -= 1;
            return Some(run_job(&*self.pool.fetcher, job.claim, job.attempt));
        }
        let mut c = self.dest.completions.lock();
        if c.is_empty() {
            c = self.dest.ready.wait_timeout(c, timeout).0;
        }
        let done = c.pop_front();
        if done.is_some() {
            self.outstanding -= 1;
        }
        done
    }

    /// Resubmit jobs previously pulled out by [`cancel_unstarted`]
    /// (resume after a pause): each keeps the attempt number it was
    /// originally assigned, so its submission ordinal — and any chaos
    /// fault keyed on it — is unchanged by the round-trip.
    ///
    /// [`cancel_unstarted`]: PoolHandle::cancel_unstarted
    pub fn resubmit(&mut self, jobs: Vec<(Claim, u64)>) {
        if jobs.is_empty() {
            return;
        }
        self.outstanding += jobs.len();
        let mut q = self.pool.queue.lock();
        for (claim, attempt) in jobs {
            q.push_back(Job {
                claim,
                attempt,
                dest: Arc::clone(&self.dest),
            });
            self.pool.job_ready.notify_one();
        }
    }

    /// Pull this handle's not-yet-started jobs back out of the
    /// submission queue, in submission order. Jobs already picked up by
    /// a fetcher thread are *not* returned — they will still complete
    /// and must be drained. On a threadless pool nothing is ever picked
    /// up ahead of the drain, so every undrained job comes back. Used by
    /// pause (hold and resubmit) and stop (unclaim).
    pub fn cancel_unstarted(&mut self) -> Vec<(Claim, u64)> {
        let mut q = self.pool.queue.lock();
        let mut mine = Vec::new();
        q.retain_mut(|j| {
            if Arc::ptr_eq(&j.dest, &self.dest) {
                mine.push((j.claim.clone(), j.attempt));
                false
            } else {
                true
            }
        });
        self.outstanding -= mine.len();
        mine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_webgraph::chaos::{ChaosFetcher, ChaosSchedule, Fault, FaultProfile};
    use focus_webgraph::{SimFetcher, WebConfig, WebGraph};
    use std::collections::BTreeSet;

    fn sim() -> Arc<SimFetcher> {
        Arc::new(SimFetcher::new(
            Arc::new(WebGraph::generate(WebConfig::tiny(5))),
            None,
        ))
    }

    fn claims_for(f: &SimFetcher, n: usize) -> Vec<Claim> {
        f.graph()
            .pages()
            .iter()
            .take(n)
            .map(|p| Claim {
                oid: p.oid,
                url: p.url.clone(),
                numtries: 0,
                log_relevance: 0.0,
            })
            .collect()
    }

    #[test]
    fn completions_cover_every_submission() {
        let sim = sim();
        let pool = Arc::new(FetchPool::new(sim.clone(), 8));
        let mut h = pool.handle();
        let claims = claims_for(&sim, 50);
        let want: BTreeSet<_> = claims.iter().map(|c| c.oid).collect();
        h.submit(claims, 1);
        let mut got = BTreeSet::new();
        while h.outstanding() > 0 {
            if let Some(done) = h.next_completion(Duration::from_secs(5)) {
                got.insert(done.claim.oid);
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn handles_are_isolated() {
        for size in [0, 4] {
            let sim = sim();
            let pool = Arc::new(FetchPool::new(sim.clone(), size));
            let mut a = pool.handle();
            let mut b = pool.handle();
            let claims = claims_for(&sim, 20);
            let a_oids: BTreeSet<_> = claims[..10].iter().map(|c| c.oid).collect();
            a.submit(claims[..10].to_vec(), 1);
            b.submit(claims[10..].to_vec(), 11);
            let mut got_a = BTreeSet::new();
            while a.outstanding() > 0 {
                if let Some(done) = a.next_completion(Duration::from_secs(5)) {
                    got_a.insert(done.claim.oid);
                }
            }
            assert_eq!(
                got_a, a_oids,
                "pool {size}: a only sees its own submissions"
            );
            while b.outstanding() > 0 {
                b.next_completion(Duration::from_secs(5));
            }
        }
    }

    #[test]
    fn cancel_unstarted_returns_only_unstarted_jobs() {
        // One slow thread: submit more than it can start, then cancel.
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(5)));
        let slow = Arc::new(SimFetcher::new(
            Arc::clone(&graph),
            Some(Duration::from_millis(20)),
        ));
        let pool = Arc::new(FetchPool::new(slow.clone(), 1));
        let mut h = pool.handle();
        let claims = claims_for(&slow, 30);
        h.submit(claims, 1);
        std::thread::sleep(Duration::from_millis(5));
        let cancelled = h.cancel_unstarted();
        assert!(!cancelled.is_empty(), "queue should still hold jobs");
        // Whatever was in flight still completes and must be drained.
        let mut completed = 0;
        while h.outstanding() > 0 {
            if h.next_completion(Duration::from_secs(5)).is_some() {
                completed += 1;
            }
        }
        assert_eq!(completed + cancelled.len(), 30, "every job accounted for");
    }

    /// The satellite regression: replaying one submission schedule
    /// through pool sizes 0 (threadless), 1 and 64 injects the
    /// *identical* fault set — chaos keys on submission ordinals, not
    /// completion order or the thread that fetched.
    #[test]
    fn chaos_fault_set_is_identical_at_pool_sizes_1_and_64() {
        let run = |pool_size: usize| -> BTreeSet<(u64, u64)> {
            let sim = sim();
            let mut schedule = ChaosSchedule::new(42);
            for sid in sim.graph().pages().iter().map(|p| p.server) {
                schedule = schedule.with_profile(sid, FaultProfile::Flaky { p: 0.5 });
            }
            let chaos = Arc::new(ChaosFetcher::new(sim.clone(), schedule));
            let pool = Arc::new(FetchPool::new(chaos, pool_size));
            let mut h = pool.handle();
            // A fixed submission schedule: every page, twice, in page
            // order — attempts 1..=2n assigned at submission.
            let claims = claims_for(&sim, sim.graph().pages().len());
            let n = claims.len() as u64;
            h.submit(claims.clone(), 1);
            h.submit(claims, n + 1);
            let mut faults = BTreeSet::new();
            while h.outstanding() > 0 {
                if let Some(done) = h.next_completion(Duration::from_secs(10)) {
                    if matches!(done.outcome, Ok(Err(FetchError::Timeout(_)))) {
                        faults.insert((done.claim.oid.raw(), done.attempt));
                    }
                }
            }
            faults
        };
        let serial = run(1);
        assert!(!serial.is_empty(), "flaky p=0.5 must inject something");
        for size in [0, 64] {
            assert_eq!(
                run(size),
                serial,
                "pool {size}: injected-fault set must not depend on pool size"
            );
        }
    }

    /// Documented `ChaosSchedule::fault` purity is what the identical
    /// fault set above rests on; spot-check it for an ordinal directly.
    #[test]
    fn chaos_fault_depends_only_on_submission_ordinal() {
        let sim = sim();
        let sid = sim.graph().pages()[0].server;
        let schedule = ChaosSchedule::new(7).with_profile(sid, FaultProfile::Flaky { p: 0.5 });
        let oid = sim.graph().pages()[0].oid;
        let a = schedule.fault(sid, oid, 3);
        let b = schedule.fault(sid, oid, 3);
        assert_eq!(a, b);
        assert!(matches!(a, Fault::None | Fault::Timeout | Fault::Delay(_)));
    }

    #[test]
    fn fetcher_panic_surfaces_as_err_completion() {
        struct Bomb;
        impl Fetcher for Bomb {
            fn fetch(&self, _oid: focus_types::Oid) -> Result<FetchedPage, FetchError> {
                panic!("boom");
            }
            fn fetch_count(&self) -> u64 {
                0
            }
        }
        let sim = sim();
        for size in [0, 2] {
            let pool = Arc::new(FetchPool::new(Arc::new(Bomb), size));
            let mut h = pool.handle();
            h.submit(claims_for(&sim, 1), 1);
            let done = h
                .next_completion(Duration::from_secs(5))
                .expect("completion");
            assert_eq!(done.outcome.unwrap_err(), "boom", "pool {size}");
        }
    }

    /// A threadless pool fetches nothing in the background: each job
    /// runs on the thread that drains it, in submission order, and
    /// every job not yet drained is still cancellable.
    #[test]
    fn threadless_pool_fetches_on_the_draining_thread() {
        struct Recording {
            inner: Arc<SimFetcher>,
            calls: std::sync::Mutex<Vec<(focus_types::Oid, u64, std::thread::ThreadId)>>,
        }
        impl Fetcher for Recording {
            fn fetch(&self, oid: focus_types::Oid) -> Result<FetchedPage, FetchError> {
                self.fetch_with_ordinal(oid, 0)
            }
            fn fetch_with_ordinal(
                &self,
                oid: focus_types::Oid,
                ordinal: u64,
            ) -> Result<FetchedPage, FetchError> {
                let me = std::thread::current().id();
                self.calls.lock().unwrap().push((oid, ordinal, me));
                self.inner.fetch(oid)
            }
            fn fetch_count(&self) -> u64 {
                self.calls.lock().unwrap().len() as u64
            }
        }
        let sim = sim();
        let rec = Arc::new(Recording {
            inner: sim.clone(),
            calls: std::sync::Mutex::new(Vec::new()),
        });
        let pool = Arc::new(FetchPool::new(rec.clone(), 0));
        assert_eq!(pool.size(), 0);
        let mut h = pool.handle();
        let claims = claims_for(&sim, 10);
        h.submit(claims[..6].to_vec(), 1);
        h.submit(claims[6..].to_vec(), 7);
        assert!(
            rec.calls.lock().unwrap().is_empty(),
            "submit fetches nothing"
        );

        let mut drained = Vec::new();
        for _ in 0..4 {
            let done = h.next_completion(Duration::ZERO).expect("queued job");
            drained.push((done.claim.oid, done.attempt));
        }
        let want: Vec<_> = claims[..4]
            .iter()
            .zip(1u64..)
            .map(|(c, a)| (c.oid, a))
            .collect();
        assert_eq!(drained, want, "jobs drain in submission order");
        let me = std::thread::current().id();
        let calls = rec.calls.lock().unwrap().clone();
        let fetched: Vec<_> = calls.iter().map(|&(oid, ord, _)| (oid, ord + 1)).collect();
        assert_eq!(fetched, want, "one fetch per drain, ordinal = attempt - 1");
        assert!(
            calls.iter().all(|&(_, _, t)| t == me),
            "fetched on the drainer"
        );

        let cancelled = h.cancel_unstarted();
        let rest: Vec<_> = claims[4..]
            .iter()
            .zip(5u64..)
            .map(|(c, a)| (c.oid, a))
            .collect();
        let got: Vec<_> = cancelled.iter().map(|(c, a)| (c.oid, *a)).collect();
        assert_eq!(got, rest, "every undrained job comes back, in order");
        assert_eq!(h.outstanding(), 0);
        assert!(h.next_completion(Duration::ZERO).is_none());
        assert_eq!(
            rec.calls.lock().unwrap().len(),
            4,
            "cancelled jobs never fetch"
        );
    }
}
