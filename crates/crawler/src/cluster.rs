//! Sharded crawling: N independent [`CrawlSession`]s behind one handle.
//!
//! The paper's title promises *distributed* resource discovery, and its
//! §3.1 design — all crawl state in relational tables — is what makes
//! the distribution mechanical: partition the `CRAWL` table by server
//! and every per-server invariant becomes a per-shard invariant. A
//! [`CrawlCluster`] owns `n_shards` sessions, each with its own
//! [`minirel::Database`], worker pool, classifier copy, and distiller;
//! a page lives on the shard
//!
//! ```text
//! host_server_id(url) % n_shards
//! ```
//!
//! so *all* pages of one server land on one shard. That keeps the §2.2
//! nepotism filter and the per-server load accounting local facts — no
//! shard ever needs another shard's tables to apply them.
//!
//! **The exchange.** Links cross servers, so they cross shards: when a
//! worker classifies a page whose outlink belongs elsewhere, the
//! [`FrontierEntry`] — carrying the priority this shard's classifier
//! assigned — is pushed into the owner's bounded inbox on the
//! [`ShardExchange`]. Owners drain their inbox exactly where they drain
//! the command queue (page boundaries and the top of the worker loop),
//! so cross-shard latency equals steering latency. Inboxes are bounded;
//! overflow drops the entry and counts it ([`ShardExchange::dropped`]) —
//! the same never-block contract as the event channel.
//!
//! **Termination.** "My frontier is empty and nothing is in flight" is a
//! shard-local fact; the crawl is only over when it holds everywhere *and*
//! nothing is queued between shards. The exchange tracks a global
//! in-flight gauge, a global queued-entry gauge, a per-shard idle flag,
//! and per-shard live-worker counts; a locally-idle worker records its
//! verdict and asks [`ShardExchange::try_finish`] for the global one.
//! The ordering that makes the verdict race-free: a page's cross-shard
//! entries are routed *before* its in-flight gauge falls, and drained
//! entries stay in the queued gauge until they are in the owner's
//! frontier — at every instant, undiscovered work is covered by at least
//! one gauge.
//!
//! **What is global, what is not.** `mark_topic` broadcasts to every
//! shard (each recompiles and Arc-swaps its own [`CompiledModel`] — the
//! PR 4 contract, per shard). `pause`/`resume`/`stop` broadcast;
//! latency stays one page per shard. `stats()` sums counters and merges
//! harvest series. Checkpoints are one [`CrawlCheckpoint`] per shard in
//! a [`ClusterCheckpoint`] manifest. Distillation stays **per-shard**:
//! each shard runs HITS over the links it discovered (its boosts still
//! route by owner). Budget and workers are split across shards at
//! construction.
//!
//! [`CompiledModel`]: focus_classifier::compiled::CompiledModel

use crate::frontier::FrontierEntry;
use crate::run::{CrawlError, CrawlRun, StartOptions};
use crate::session::{CrawlCheckpoint, CrawlConfig, CrawlSession, CrawlStats};
use crate::tables::host_server_id;
use focus_classifier::model::TrainedModel;
use focus_types::{ClassId, Oid, ServerId};
use focus_webgraph::Fetcher;
use lockcheck::{rank, OrderedMutex};
use minirel::{DbError, DbResult};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Per-inbox bound of the cross-shard exchange. Generous: inboxes are
/// drained every page boundary, so an inbox only grows when its owner is
/// paused or much slower than its peers; overflow drops entries (and
/// counts them) rather than blocking the classifying shard.
pub const EXCHANGE_CAPACITY: usize = 65_536;

/// A shard's view of its cluster: identity plus the shared exchange.
pub(crate) struct ShardCtx {
    /// This shard's index.
    pub(crate) shard: usize,
    /// Total shards in the cluster.
    pub(crate) n_shards: usize,
    /// The shared exchange.
    pub(crate) exchange: Arc<ShardExchange>,
}

/// THE partition function: the shard owning server `sid`. Every routing
/// site — link-time outlink routing, boost routing, seed routing, and
/// the public [`CrawlCluster::owner_of`] — must go through this one
/// definition; a second spelling that drifted (say, to a different hash
/// mix) would scatter a server across shards and break the exactly-once
/// and nepotism-locality invariants.
pub(crate) fn shard_of(sid: ServerId, n_shards: usize) -> usize {
    sid.raw() as usize % n_shards
}

impl ShardCtx {
    /// The shard owning `sid`'s pages.
    pub(crate) fn owner_of(&self, sid: ServerId) -> usize {
        shard_of(sid, self.n_shards)
    }
}

/// The shard owning a seed: by host when the URL is known, by
/// `oid % n_shards` otherwise (a fetcher without `url_of` metadata).
/// The single definition keeps every seed-routing site — cluster-level
/// partitioning, live `add_seeds`, and the per-session re-partition in
/// `seed_entries` — agreeing, so a seed can never be handed to a shard
/// that would route it elsewhere.
///
/// The oid fallback is a *different* partition than link-time routing
/// (which always has the URL): a URL-less seed can land off its true
/// owner, and if the same page is later discovered by URL the owner
/// fetches it again — per-shard upsert dedup cannot see the stray row.
/// Fetchers should implement [`focus_webgraph::Fetcher::url_of`] to
/// keep the exactly-once and one-server-one-shard invariants strict;
/// without it they hold only for link-discovered pages.
pub(crate) fn seed_owner(url: &str, oid: Oid, n_shards: usize) -> usize {
    if url.is_empty() {
        oid.raw() as usize % n_shards
    } else {
        shard_of(host_server_id(url), n_shards)
    }
}

/// The cross-shard fabric: bounded per-shard inboxes plus the gauges the
/// distributed-termination verdict reads. See the module docs for the
/// ordering contract that keeps [`ShardExchange::try_finish`] race-free.
pub(crate) struct ShardExchange {
    /// One bounded inbox per shard.
    inboxes: Vec<OrderedMutex<VecDeque<FrontierEntry>>>,
    /// Entries routed but not yet landed in the owner's frontier. This
    /// deliberately covers the take→upsert gap: [`ShardExchange::take`]
    /// leaves entries counted until [`ShardExchange::landed`].
    queued: AtomicUsize,
    /// Claims checked out across all shards (mirror of the per-session
    /// gauges, maintained under the same critical sections).
    in_flight: AtomicUsize,
    /// Shard observed itself locally idle (empty frontier, nothing in
    /// flight, judged under its store lock). Cleared whenever work is
    /// routed to or lands on the shard.
    idle: Vec<AtomicBool>,
    /// Live (registered) workers per shard. A shard with zero live
    /// workers counts as idle for the verdict: its frontier remainder is
    /// unfundable (budget spent, stopped, or failed).
    live: Vec<AtomicUsize>,
    /// Shards whose runs are still launching: blocks the verdict until
    /// every shard's pool is registered.
    arming: AtomicUsize,
    /// The cluster-wide verdict, latched once.
    done: AtomicBool,
    /// Entries dropped: inbox overflow, or routed to / left at a shard
    /// with no live workers.
    dropped: AtomicU64,
    capacity: usize,
}

impl ShardExchange {
    pub(crate) fn new(n_shards: usize, capacity: usize) -> ShardExchange {
        ShardExchange {
            inboxes: (0..n_shards)
                .map(|_| OrderedMutex::new(rank::EXCHANGE_INBOX, VecDeque::new()))
                .collect(),
            queued: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            idle: (0..n_shards).map(|_| AtomicBool::new(false)).collect(),
            live: (0..n_shards).map(|_| AtomicUsize::new(0)).collect(),
            arming: AtomicUsize::new(0),
            done: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            capacity,
        }
    }

    /// Hand entries to `owner`'s inbox. Callers route *before* releasing
    /// the in-flight cover of the page that produced the entries.
    pub(crate) fn route(&self, owner: usize, entries: Vec<FrontierEntry>) {
        if entries.is_empty() {
            return;
        }
        // Coverage ordering (see `try_finish`): the idle flag falls and
        // the queued gauge rises *before* any entry becomes visible in
        // the inbox, so at no instant does queued undercount transit
        // work. Overflow drops are subtracted back out afterwards.
        self.idle[owner].store(false, Ordering::Release);
        self.queued.fetch_add(entries.len(), Ordering::AcqRel);
        let mut dropped = 0usize;
        {
            let mut inbox = self.inboxes[owner].lock();
            for e in entries {
                if inbox.len() >= self.capacity {
                    dropped += 1;
                } else {
                    inbox.push_back(e);
                }
            }
        }
        if dropped > 0 {
            self.queued.fetch_sub(dropped, Ordering::AcqRel);
            self.dropped.fetch_add(dropped as u64, Ordering::Relaxed);
        }
        // Mid-run, a dead shard never drains: discard rather than wedge
        // the surviving shards' termination verdict on entries nobody
        // pops. (The double-check after the push closes the race with
        // the owner's last worker exiting mid-route.) With *no* shard
        // live — before the first start, or between runs — there is no
        // verdict to wedge, and the entries stay queued for the next
        // start to drain (the same way a tail-drained AddSeeds funds
        // the next single-session run).
        if self.live[owner].load(Ordering::Acquire) == 0
            && self.arming.load(Ordering::Acquire) == 0
            && self.any_live()
        {
            self.discard_inbox(owner);
        }
    }

    /// Does any shard currently have registered workers?
    fn any_live(&self) -> bool {
        self.live.iter().any(|l| l.load(Ordering::Acquire) != 0)
    }

    /// Pop everything queued for `shard`. The entries stay counted in
    /// the `queued` gauge until [`ShardExchange::landed`] — the caller
    /// upserts them into its frontier in between, and the gauge is what
    /// stops a cluster-idle verdict from firing inside that gap.
    pub(crate) fn take(&self, shard: usize) -> Vec<FrontierEntry> {
        let mut inbox = self.inboxes[shard].lock();
        if inbox.is_empty() {
            return Vec::new();
        }
        inbox.drain(..).collect()
    }

    /// `n` taken entries are now in `shard`'s frontier (or abandoned by
    /// an aborting run): release their queued cover and mark the shard
    /// non-idle.
    pub(crate) fn landed(&self, shard: usize, n: usize) {
        self.idle[shard].store(false, Ordering::Release);
        self.queued.fetch_sub(n, Ordering::AcqRel);
    }

    pub(crate) fn add_in_flight(&self, n: usize) {
        self.in_flight.fetch_add(n, Ordering::AcqRel);
    }

    /// Saturating: a panicked run's leak is reconciled once by
    /// [`ShardExchange::worker_exited`]'s last-man pass, so a stray
    /// double-release must clamp at zero rather than wrap.
    pub(crate) fn sub_in_flight(&self, n: usize) {
        let _ = self
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Record `shard`'s local-idle verdict (empty frontier, nothing in
    /// flight, judged under its store lock).
    pub(crate) fn mark_idle(&self, shard: usize) {
        self.idle[shard].store(true, Ordering::Release);
    }

    pub(crate) fn clear_idle(&self, shard: usize) {
        self.idle[shard].store(false, Ordering::Release);
    }

    /// The global termination verdict: nothing in flight anywhere,
    /// nothing queued between shards, every shard idle or dead, and no
    /// shard still launching. Latches [`ShardExchange::finished`] on
    /// success.
    ///
    /// The sweep is not atomic, so correctness rests on a **continuous
    /// coverage** invariant rather than a snapshot: every unit of
    /// undone work keeps at least one indicator "bad" for its whole
    /// lifetime, with overlap at every handoff —
    ///
    /// * exchange transit: `queued` rises before the entry is visible
    ///   in an inbox ([`ShardExchange::route`]) and falls only after it
    ///   sits in the owner's frontier ([`ShardExchange::landed`]);
    /// * frontier work: the owner's idle flag is cleared *before* the
    ///   upsert, inside the store critical section, and only a verdict
    ///   that observes an empty frontier with zero local in-flight
    ///   (also under that lock) re-sets it — so `idle[s] == true`
    ///   implies shard `s` had no poppable work at that instant;
    /// * claimed work: `in_flight` rises in the claim's critical
    ///   section and falls only after the page's outputs (local
    ///   upserts, cross-shard routes) are published.
    ///
    /// The idle flag is effectively a per-shard "maybe work" latch: once
    /// false it stays false until the shard is *truly* drained (inserts
    /// clear it first; re-marking requires an under-lock verdict of
    /// empty frontier + zero local in-flight), so sweeping flags after
    /// gauges is sound for all internally-generated work. The one
    /// deliberate race: *external* injection (an `add_seeds` racing
    /// global stagnation) may land just before or after the latch — the
    /// same race a single session has — and those seeds fund the next
    /// `start()`.
    pub(crate) fn try_finish(&self) -> bool {
        if self.done.load(Ordering::Acquire) {
            return true;
        }
        if self.arming.load(Ordering::Acquire) != 0 {
            return false;
        }
        if self.in_flight.load(Ordering::Acquire) != 0 || self.queued.load(Ordering::Acquire) != 0 {
            return false;
        }
        for s in 0..self.idle.len() {
            if !self.idle[s].load(Ordering::Acquire) && self.live[s].load(Ordering::Acquire) != 0 {
                return false;
            }
        }
        // Belt and braces: re-read the gauges after the flag sweep.
        // (Not load-bearing under the coverage invariant, but cheap.)
        if self.in_flight.load(Ordering::Acquire) != 0 || self.queued.load(Ordering::Acquire) != 0 {
            return false;
        }
        self.done.store(true, Ordering::Release);
        true
    }

    /// Has the cluster-wide verdict latched?
    pub(crate) fn finished(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Arm a fresh cluster run: `launching` shards are about to start,
    /// and the verdict must wait for all of them.
    pub(crate) fn arm(&self, launching: usize) {
        self.done.store(false, Ordering::Release);
        for f in &self.idle {
            f.store(false, Ordering::Release);
        }
        self.arming.store(launching, Ordering::Release);
    }

    /// One shard's run finished launching (or definitively won't).
    pub(crate) fn launched_one(&self) {
        let _ = self
            .arming
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Register `n` workers of `shard` before any of them runs.
    pub(crate) fn workers_arming(&self, shard: usize, n: usize) {
        self.live[shard].fetch_add(n, Ordering::AcqRel);
    }

    /// Retire one worker registration; `true` when it was the last.
    pub(crate) fn worker_exited(&self, shard: usize) -> bool {
        self.live[shard].fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Last worker of `shard` is gone: subtract whatever in-flight count
    /// it leaked (a panicking worker dies holding claims), and — if any
    /// peer is still live — discard its inbox, which would otherwise
    /// wedge the survivors' idle verdict forever. When the whole
    /// cluster is winding down, inboxes are kept: their entries fund
    /// the next start.
    pub(crate) fn reconcile_dead_shard(&self, shard: usize, leaked_in_flight: usize) {
        if leaked_in_flight > 0 {
            self.sub_in_flight(leaked_in_flight);
        }
        if self.any_live() {
            self.discard_inbox(shard);
        }
    }

    fn discard_inbox(&self, shard: usize) {
        let n = {
            let mut inbox = self.inboxes[shard].lock();
            let n = inbox.len();
            inbox.clear();
            n
        };
        if n > 0 {
            self.queued.fetch_sub(n, Ordering::AcqRel);
            self.dropped.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Entries dropped on the floor (inbox overflow or dead owners).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// A sharded crawl: `n_shards` independent sessions partitioned by
/// `host_server_id(url) % n_shards`, wired through a [`ShardExchange`].
///
/// The cluster-level API mirrors the session API: [`CrawlCluster::seed`],
/// [`CrawlCluster::start`] → [`ClusterRun`], [`CrawlCluster::stats`],
/// [`CrawlCluster::checkpoint`] / [`CrawlCluster::restore`]. The
/// configured worker count and fetch budget are split across shards
/// (each shard runs at least one worker).
pub struct CrawlCluster {
    shards: Vec<Arc<CrawlSession>>,
    exchange: Arc<ShardExchange>,
    fetcher: Arc<dyn Fetcher>,
}

impl CrawlCluster {
    /// Build a cluster of `n_shards` sessions over one fetcher. Each
    /// shard gets its own database and classifier copy; `cfg.threads`
    /// and `cfg.max_fetches` are the cluster-wide totals, split across
    /// shards.
    pub fn new(
        n_shards: usize,
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
    ) -> DbResult<CrawlCluster> {
        if n_shards == 0 {
            return Err(DbError::Eval("a cluster needs at least one shard".into()));
        }
        let exchange = Arc::new(ShardExchange::new(n_shards, EXCHANGE_CAPACITY));
        let mut shards = Vec::with_capacity(n_shards);
        for (i, shard_cfg) in split_config(&cfg, n_shards).into_iter().enumerate() {
            shards.push(Arc::new(CrawlSession::new_sharded(
                Arc::clone(&fetcher),
                model.clone(),
                shard_cfg,
                ShardCtx {
                    shard: i,
                    n_shards,
                    exchange: Arc::clone(&exchange),
                },
            )?));
        }
        Ok(CrawlCluster {
            shards,
            exchange,
            fetcher,
        })
    }

    /// Rebuild a cluster from a [`ClusterCheckpoint`]: one
    /// [`CrawlSession::restore`] per shard. The shard count is the
    /// manifest's — re-sharding a checkpoint would move rows between
    /// databases and is not supported.
    pub fn restore(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
        ckpt: &ClusterCheckpoint,
    ) -> DbResult<CrawlCluster> {
        let n_shards = ckpt.shards.len();
        if n_shards == 0 {
            return Err(DbError::Eval("cluster checkpoint has no shards".into()));
        }
        let exchange = Arc::new(ShardExchange::new(n_shards, EXCHANGE_CAPACITY));
        let mut shards = Vec::with_capacity(n_shards);
        for (i, (shard_cfg, shard_ckpt)) in split_config(&cfg, n_shards)
            .into_iter()
            .zip(&ckpt.shards)
            .enumerate()
        {
            shards.push(Arc::new(CrawlSession::restore_sharded(
                Arc::clone(&fetcher),
                model.clone(),
                shard_cfg,
                shard_ckpt,
                ShardCtx {
                    shard: i,
                    n_shards,
                    exchange: Arc::clone(&exchange),
                },
            )?));
        }
        Ok(CrawlCluster {
            shards,
            exchange,
            fetcher,
        })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard sessions (monitoring SQL, snapshots). Index `i` is
    /// the shard owning servers with `sid % n_shards == i`.
    pub fn shards(&self) -> &[Arc<CrawlSession>] {
        &self.shards
    }

    /// The shard that owns `url`'s server.
    pub fn owner_of(&self, url: &str) -> usize {
        shard_of(host_server_id(url), self.shards.len())
    }

    /// Seed the cluster with the start set: each seed lands directly on
    /// its owning shard (resolved through [`Fetcher::url_of`]; a seed
    /// with no resolvable URL falls back to `oid % n_shards`).
    pub fn seed(&self, seeds: &[Oid]) -> DbResult<()> {
        for (shard, group) in self.partition_seeds(seeds).into_iter().enumerate() {
            if !group.is_empty() {
                self.shards[shard].seed_entries(group)?;
            }
        }
        Ok(())
    }

    fn partition_seeds(&self, seeds: &[Oid]) -> Vec<Vec<FrontierEntry>> {
        let n = self.shards.len();
        let mut groups: Vec<Vec<FrontierEntry>> = vec![Vec::new(); n];
        for &oid in seeds {
            let url = self.fetcher.url_of(oid).unwrap_or_default();
            groups[seed_owner(&url, oid, n)].push(FrontierEntry {
                oid,
                url,
                log_relevance: 0.0,
                serverload: 0,
            });
        }
        groups
    }

    /// Start every shard's worker pool and return the cluster handle.
    pub fn start(&self) -> Result<ClusterRun, CrawlError> {
        self.start_with(StartOptions::default())
    }

    /// [`CrawlCluster::start`] with explicit options. Observers are
    /// attached to every shard (events carry no shard id; attach
    /// distinct observers per shard via
    /// [`CrawlCluster::shards`]` + `[`CrawlSession::start_with`] if you
    /// need attribution). `batch_size` applies per shard.
    pub fn start_with(&self, opts: StartOptions) -> Result<ClusterRun, CrawlError> {
        // Arm before any shard launches: the termination verdict must
        // not fire while a later shard's pool is still unregistered.
        self.exchange.arm(self.shards.len());
        let mut runs = Vec::with_capacity(self.shards.len());
        for session in &self.shards {
            let shard_opts = StartOptions {
                event_capacity: opts.event_capacity,
                observers: opts.observers.clone(),
                batch_size: opts.batch_size,
                backoff: opts.backoff,
                breaker: opts.breaker,
                // A cluster-level retry budget is a *total*: split it
                // like the fetch budget, so n shards cannot spend n× it.
                retry_budget: opts
                    .retry_budget
                    .map(|rb| even_split(rb, self.shards.len() as u64, runs.len() as u64)),
                // So is a fetch-pool override: the total thread count
                // splits across shards, each keeping at least one
                // thread when pooling is on at all (mirrors
                // `split_config`).
                fetch_pool: opts.fetch_pool.map(|fp| {
                    if fp == 0 {
                        0
                    } else {
                        (even_split(fp as u64, self.shards.len() as u64, runs.len() as u64)
                            as usize)
                            .max(1)
                    }
                }),
                politeness: opts.politeness,
            };
            match session.start_with(shard_opts) {
                Ok(run) => {
                    self.exchange.launched_one();
                    runs.push(run);
                }
                Err(e) => {
                    // Un-arm the shards that will now never launch and
                    // wind down the ones that did (dropping a CrawlRun
                    // stops and joins it).
                    for _ in runs.len()..self.shards.len() {
                        self.exchange.launched_one();
                    }
                    drop(runs);
                    return Err(e);
                }
            }
        }
        Ok(ClusterRun {
            runs,
            shards: self.shards.clone(),
            exchange: Arc::clone(&self.exchange),
            fetcher: Arc::clone(&self.fetcher),
        })
    }

    /// Crawl to completion, blocking: [`CrawlCluster::start`] +
    /// [`ClusterRun::join`].
    pub fn run(&self) -> Result<CrawlStats, CrawlError> {
        self.start()?.join()
    }

    /// Summed counters and merged harvest series across shards (see
    /// [`merge_stats`] for the merge order).
    pub fn stats(&self) -> CrawlStats {
        merge_stats(self.shards.iter().map(|s| s.stats()))
    }

    /// Entries the exchange dropped (inbox overflow or dead shards).
    /// Zero in a healthy run.
    pub fn exchange_dropped(&self) -> u64 {
        self.exchange.dropped()
    }

    /// Checkpoint every shard. Pause (or finish) the cluster first for a
    /// snapshot stable against the crawl advancing. Routed entries still
    /// sitting in exchange inboxes are landed into their owners'
    /// frontiers first, so the snapshot never loses cross-shard work
    /// (a restored cluster starts with empty inboxes).
    pub fn checkpoint(&self) -> DbResult<ClusterCheckpoint> {
        checkpoint_shards(&self.shards)
    }

    /// Resolve a topic name against shard 0's (live) taxonomy — all
    /// shards share the marking by construction and via broadcast.
    pub fn find_topic(&self, name: &str) -> Option<ClassId> {
        self.shards[0].find_topic(name)
    }
}

/// Handle to a cluster executing in the background: control broadcasts,
/// summed snapshots, and `join()`.
pub struct ClusterRun {
    runs: Vec<CrawlRun>,
    shards: Vec<Arc<CrawlSession>>,
    exchange: Arc<ShardExchange>,
    fetcher: Arc<dyn Fetcher>,
}

impl ClusterRun {
    /// Per-shard run handles (event streams, per-shard control).
    pub fn shard_runs(&self) -> &[CrawlRun] {
        &self.runs
    }

    /// Take shard `i`'s event stream (callable once per shard).
    pub fn take_events(&mut self, shard: usize) -> Option<crate::events::EventStream> {
        self.runs.get_mut(shard).and_then(|r| r.take_events())
    }

    /// Pause every shard. Latency is one page per shard (the session
    /// pause contract, N times over).
    pub fn pause(&self) {
        for r in &self.runs {
            r.pause();
        }
    }

    /// Release every shard.
    pub fn resume(&self) {
        for r in &self.runs {
            r.resume();
        }
    }

    /// Wind every shard down; `join()` then returns promptly.
    pub fn stop(&self) {
        for r in &self.runs {
            r.stop();
        }
    }

    /// Broadcast a good-mark change to every shard: each recompiles its
    /// classifier and re-steers its own frontier (§3.7, N times over).
    pub fn mark_topic(&self, class: ClassId, good: bool) {
        for r in &self.runs {
            r.mark_topic(class, good);
        }
    }

    /// Inject seeds, each routed to its owning shard's run.
    pub fn add_seeds(&self, seeds: &[Oid]) {
        let n = self.runs.len();
        let mut groups: Vec<Vec<Oid>> = vec![Vec::new(); n];
        for &oid in seeds {
            let url = self.fetcher.url_of(oid).unwrap_or_default();
            groups[seed_owner(&url, oid, n)].push(oid);
        }
        for (owner, group) in groups.into_iter().enumerate() {
            if !group.is_empty() {
                self.runs[owner].add_seeds(&group);
            }
        }
    }

    /// Raise the cluster budget, split evenly across the shards whose
    /// workers are still alive — a share handed to an exited shard would
    /// sit in a command queue nobody drains until the next `start()`,
    /// silently shrinking the raise while live shards starve. With no
    /// shard live the split falls back to all shards (funding the next
    /// run, like the single-session tail-drain semantics).
    pub fn add_budget(&self, extra: u64) {
        let live: Vec<&CrawlRun> = self.runs.iter().filter(|r| !r.is_finished()).collect();
        let targets: Vec<&CrawlRun> = if live.is_empty() {
            self.runs.iter().collect()
        } else {
            live
        };
        let n = targets.len() as u64;
        for (i, r) in targets.into_iter().enumerate() {
            let share = even_split(extra, n, i as u64);
            if share > 0 {
                r.add_budget(share);
            }
        }
    }

    /// Summed counters + merged harvest across shards.
    pub fn stats(&self) -> CrawlStats {
        merge_stats(self.runs.iter().map(|r| r.stats()))
    }

    /// Have all shards' workers exited?
    pub fn is_finished(&self) -> bool {
        self.runs.iter().all(|r| r.is_finished())
    }

    /// Checkpoint every shard (pause first for stability). In-transit
    /// exchange entries are landed first; see
    /// [`CrawlCluster::checkpoint`].
    pub fn checkpoint(&self) -> Result<ClusterCheckpoint, CrawlError> {
        Ok(checkpoint_shards(&self.shards)?)
    }

    /// Entries the exchange dropped so far (zero in a healthy run).
    pub fn exchange_dropped(&self) -> u64 {
        self.exchange.dropped()
    }

    /// Wait for every shard and return merged stats. Any shard's failure
    /// fails the cluster (partial stats never masquerade as success):
    /// all failure messages are joined into one [`CrawlError`], worker
    /// failures taking precedence over storage errors.
    pub fn join(self) -> Result<CrawlStats, CrawlError> {
        let mut stats = Vec::with_capacity(self.runs.len());
        let mut worker_errs: Vec<String> = Vec::new();
        let mut db_err: Option<DbError> = None;
        for (i, run) in self.runs.into_iter().enumerate() {
            match run.join() {
                Ok(s) => stats.push(s),
                Err(CrawlError::Worker(m)) => worker_errs.push(format!("shard {i}: {m}")),
                Err(CrawlError::Db(e)) => {
                    worker_errs.push(format!("shard {i}: storage error: {e}"));
                    db_err.get_or_insert(e);
                }
                Err(CrawlError::AlreadyRunning) => {
                    worker_errs.push(format!("shard {i}: already running"));
                }
            }
        }
        if !worker_errs.is_empty() {
            // A lone storage error keeps its type; anything involving
            // worker failures (or a mix) surfaces as Worker with every
            // shard's message.
            return match (worker_errs.len(), db_err) {
                (1, Some(e)) => Err(CrawlError::Db(e)),
                _ => Err(CrawlError::Worker(worker_errs.join("; "))),
            };
        }
        Ok(merge_stats(stats))
    }
}

/// Share `i` of `total` divided as evenly as integers allow over `n`
/// recipients (low indices take the remainder).
fn even_split(total: u64, n: u64, i: u64) -> u64 {
    total / n + u64::from(i < total % n)
}

/// Split the cluster-wide config into per-shard configs: budget and
/// workers divided as evenly as integers allow (low shards take the
/// remainder), every shard running at least one worker.
fn split_config(cfg: &CrawlConfig, n_shards: usize) -> Vec<CrawlConfig> {
    let n = n_shards as u64;
    (0..n_shards)
        .map(|i| {
            let mut c = cfg.clone();
            c.max_fetches = even_split(cfg.max_fetches, n, i as u64);
            c.threads = even_split(cfg.threads as u64, n, i as u64).max(1) as usize;
            // Like the fetch budget, the retry budget is a cluster
            // total; shards spend disjoint slices of it.
            c.retry_budget = even_split(cfg.retry_budget, n, i as u64);
            // The fetch pool is a cluster-wide thread count split the
            // same way — but a cluster asked to pool at all (total > 0)
            // gives every shard at least one fetcher thread, or a thin
            // shard would silently get a threadless pool.
            if cfg.fetch_pool > 0 {
                c.fetch_pool = (even_split(cfg.fetch_pool as u64, n, i as u64) as usize).max(1);
            }
            c
        })
        .collect()
}

/// Land every shard's in-transit exchange entries, then checkpoint each
/// shard — shared by [`CrawlCluster::checkpoint`] and
/// [`ClusterRun::checkpoint`] so the two can never diverge.
fn checkpoint_shards(shards: &[Arc<CrawlSession>]) -> DbResult<ClusterCheckpoint> {
    for s in shards {
        s.drain_exchange();
    }
    Ok(ClusterCheckpoint {
        shards: shards
            .iter()
            .map(|s| s.checkpoint())
            .collect::<DbResult<Vec<_>>>()?,
    })
}

/// Merge per-shard stats: counters sum; the harvest and completion-order
/// series are interleaved by per-shard attempt index (a proxy for time —
/// shards advance their attempt counters at roughly equal rates) and the
/// merged harvest is re-numbered densely so the x-axis is a cluster-wide
/// completion rank.
pub fn merge_stats(per_shard: impl IntoIterator<Item = CrawlStats>) -> CrawlStats {
    let mut out = CrawlStats::default();
    let mut tagged: Vec<(u64, usize, f64, Oid)> = Vec::new();
    for (shard, s) in per_shard.into_iter().enumerate() {
        out.attempts += s.attempts;
        out.successes += s.successes;
        out.failures += s.failures;
        out.distillations += s.distillations;
        for (&(x, r), &(oid, _)) in s.harvest.iter().zip(&s.completion_order) {
            tagged.push((x, shard, r, oid));
        }
    }
    tagged.sort_by_key(|&(x, shard, _, _)| (x, shard));
    out.harvest = tagged
        .iter()
        .enumerate()
        .map(|(i, &(_, _, r, _))| (i as u64 + 1, r))
        .collect();
    out.completion_order = tagged.into_iter().map(|(_, _, r, oid)| (oid, r)).collect();
    out
}

/// One checkpoint per shard plus the implicit manifest (shard count and
/// order). Restore with [`CrawlCluster::restore`] — same shard count,
/// same partition function.
#[derive(Debug, Clone)]
pub struct ClusterCheckpoint {
    /// Shard `i`'s checkpoint, in shard order.
    pub shards: Vec<CrawlCheckpoint>,
}

impl ClusterCheckpoint {
    /// Poppable frontier entries across all shards.
    pub fn frontier_len(&self) -> usize {
        self.shards.iter().map(|s| s.frontier_len()).sum()
    }

    /// Visited pages across all shards.
    pub fn visited_len(&self) -> usize {
        self.shards.iter().map(|s| s.visited_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(oid: u64) -> FrontierEntry {
        FrontierEntry {
            oid: Oid(oid),
            url: format!("http://s{oid}.example/p"),
            log_relevance: -0.5,
            serverload: 0,
        }
    }

    #[test]
    fn exchange_routes_and_lands() {
        let x = ShardExchange::new(2, 8);
        x.workers_arming(0, 1);
        x.workers_arming(1, 1);
        x.route(1, vec![entry(1), entry(2)]);
        assert_eq!(x.queued.load(Ordering::Acquire), 2);
        let taken = x.take(1);
        assert_eq!(taken.len(), 2);
        // Still counted until landed: no verdict can fire in the gap.
        assert_eq!(x.queued.load(Ordering::Acquire), 2);
        x.mark_idle(0);
        x.mark_idle(1);
        assert!(!x.try_finish(), "entries in the take gap must block");
        x.landed(1, taken.len());
        assert_eq!(x.queued.load(Ordering::Acquire), 0);
        // Landing cleared shard 1's idle flag.
        assert!(!x.try_finish(), "landed work must block until re-idle");
        x.mark_idle(1);
        assert!(x.try_finish());
        assert!(x.finished());
    }

    #[test]
    fn exchange_overflow_drops_and_counts() {
        let x = ShardExchange::new(1, 2);
        x.workers_arming(0, 1);
        x.route(0, vec![entry(1), entry(2), entry(3)]);
        assert_eq!(x.take(0).len(), 2);
        assert_eq!(x.dropped(), 1);
    }

    #[test]
    fn exchange_discards_for_dead_shards() {
        let x = ShardExchange::new(2, 8);
        x.workers_arming(0, 1);
        // Shard 1 never armed: routing to it discards instead of
        // wedging the termination verdict.
        x.route(1, vec![entry(1)]);
        assert_eq!(x.queued.load(Ordering::Acquire), 0);
        assert_eq!(x.dropped(), 1);
        x.mark_idle(0);
        assert!(x.try_finish());
    }

    #[test]
    fn exchange_verdict_respects_gauges_and_arming() {
        let x = ShardExchange::new(2, 8);
        x.arm(2);
        x.workers_arming(0, 1);
        x.mark_idle(0);
        x.mark_idle(1);
        assert!(!x.try_finish(), "arming must block the verdict");
        x.launched_one();
        x.launched_one();
        x.add_in_flight(1);
        assert!(!x.try_finish(), "in-flight work must block");
        x.sub_in_flight(1);
        assert!(x.try_finish());
    }

    #[test]
    fn reconcile_clears_leaks() {
        let x = ShardExchange::new(2, 8);
        x.workers_arming(0, 1);
        x.workers_arming(1, 1);
        x.add_in_flight(3);
        x.route(0, vec![entry(1)]);
        // Shard 0's only worker dies holding the claims.
        assert!(x.worker_exited(0));
        x.reconcile_dead_shard(0, 3);
        assert_eq!(x.in_flight.load(Ordering::Acquire), 0);
        assert_eq!(x.queued.load(Ordering::Acquire), 0);
        x.mark_idle(1);
        assert!(x.try_finish());
    }

    #[test]
    fn merge_stats_sums_and_interleaves() {
        let a = CrawlStats {
            attempts: 10,
            successes: 2,
            failures: 8,
            harvest: vec![(1, 0.9), (5, 0.5)],
            completion_order: vec![(Oid(1), 0.9), (Oid(5), 0.5)],
            distillations: 1,
        };
        let b = CrawlStats {
            attempts: 7,
            successes: 2,
            failures: 5,
            harvest: vec![(2, 0.8), (3, 0.7)],
            completion_order: vec![(Oid(2), 0.8), (Oid(3), 0.7)],
            distillations: 0,
        };
        let m = merge_stats([a, b]);
        assert_eq!(m.attempts, 17);
        assert_eq!(m.successes, 4);
        assert_eq!(m.failures, 13);
        assert_eq!(m.distillations, 1);
        // Interleaved by per-shard attempt, re-numbered densely.
        assert_eq!(m.harvest, vec![(1, 0.9), (2, 0.8), (3, 0.7), (4, 0.5)]);
        assert_eq!(
            m.completion_order,
            vec![(Oid(1), 0.9), (Oid(2), 0.8), (Oid(3), 0.7), (Oid(5), 0.5)]
        );
    }

    #[test]
    fn split_config_partitions_budget_and_workers() {
        let cfg = CrawlConfig {
            max_fetches: 10,
            threads: 5,
            ..CrawlConfig::default()
        };
        let parts = split_config(&cfg, 3);
        assert_eq!(
            parts.iter().map(|c| c.max_fetches).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        assert_eq!(
            parts.iter().map(|c| c.threads).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        // Every shard always runs at least one worker.
        let thin = split_config(&cfg, 8);
        assert!(thin.iter().all(|c| c.threads >= 1));
        assert_eq!(thin.iter().map(|c| c.max_fetches).sum::<u64>(), 10);
    }
}
