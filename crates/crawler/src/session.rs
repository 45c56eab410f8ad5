//! The crawl session: workers, classification, link expansion, and the
//! distillation trigger, all around the shared relational state.
//!
//! Concurrency mirrors the paper's setup — many fetcher threads against
//! one database: a worker *claims* a frontier entry under the lock,
//! fetches (slow, lock released), classifies (pure, lock released), then
//! reacquires the lock to record the page and update `CRAWL`/`LINK`.
//! Crashing pages (malformed content, dead links, timeouts) are routine,
//! not exceptional: they adjust `numtries` and the frontier, never
//! corrupting table/index consistency.
//!
//! Shared state is split by role — and by **lock kind**, so observing a
//! crawl never stops it:
//!
//! * [`StoreState`] — the relational store and its in-memory caches
//!   (link cache, relevance map, saved posteriors) behind a
//!   `RwLock`: monitors ([`CrawlSession::sql`],
//!   [`CrawlSession::with_db_read`], [`CrawlSession::checkpoint`],
//!   [`CrawlSession::visited`]) take **read** locks, concurrent with
//!   each other; workers take the **write** lock only for the short
//!   claim and page-flush critical sections;
//! * counters ([`CounterState`]) — budget, attempt tally and in-flight
//!   gauge as atomics (readable without any lock), success/failure
//!   tallies and the harvest series behind their own small mutex;
//! * diagnostics ([`RunDiag`]) — first storage error and worker panics,
//!   another small mutex;
//! * control ([`crate::run::ControlState`]) — the command queue and
//!   lifecycle flags, deliberately *outside* every data lock so steering
//!   a crawl never contends with page processing.
//!
//! Lock order (always acquire left before right, release before going
//! back left): `model → compiled → store → wal → counters/diag`. The
//! session's locks are rank-carrying [`lockcheck`] wrappers, so this
//! order is not just documentation: debug builds panic on any
//! out-of-order interleaving, and `cargo run -p lockcheck` rejects any
//! code path that contradicts `LOCK_ORDER.toml`.
//! Monitors touch only `store` (read) or the counter mutex, so they can
//! never deadlock with workers. The `wal` position is the WAL latch of
//! a durable session database ([`Durability`]): minirel acquires it
//! inside store operations (page eviction, batch commits) and it is a
//! leaf with respect to every crawler lock — no callback ever runs
//! under it, so holding the store write lock across a commit is safe.
//!
//! **Classification never holds a lock.** The crawl hot path evaluates
//! the classifier through an [`Arc<CompiledModel>`] swapped behind its
//! own `RwLock`: a worker clones the `Arc` (a refcount bump under a
//! momentary read lock) and drops the lock *before* inference, so a
//! `mark_topic` retrain — which compiles a fresh model and swaps the
//! `Arc` in — never contends with in-flight classification, and
//! in-flight pages finish under the model they started with. Each
//! worker owns a [`Scratch`] (never shared) so steady-state inference
//! performs zero heap allocations.
//!
//! Workers drain the command queue between page fetches, so every
//! control mutation (pause, new seeds, re-marked topics, policy swaps)
//! lands at a page boundary with the tables consistent.
//!
//! **Per-server health adds no lock.** The backoff/breaker/politeness
//! map ([`crate::health::HealthMap`]) lives inside [`StoreState`],
//! because all of its touch points — gating a popped claim, recording
//! a failure, charging and releasing politeness slots — already run
//! inside store write critical sections. The crawl *ticks* that
//! backoffs and quarantines are measured in come from a counter
//! advanced under that same lock: by the number of claims issued, and
//! by one per empty poll, so an all-parked frontier (every server
//! quarantined) still marches toward cooldown expiry without
//! wall-clock sleeps — and without ever wedging termination.
//!
//! **One worker loop, over a fetch pool.** Every run owns a
//! [`crate::fetch_pool::FetchPool`] of [`CrawlConfig::fetch_pool`]
//! fetcher threads, and every CPU worker runs the same loop: a
//! *submit* half (claim a batch under the store lock — attempts,
//! clock, gauges, and politeness all charge at claim time — then queue
//! the claims to the pool) and a *drain* half (pull `(claim, result)`
//! completions and flush each through the classify/flush critical
//! section). A pool of size 0 is threadless: the worker fetches each
//! job itself when it drains it, which is the inline crawl — claim a
//! batch, fetch/classify/flush it page by page, commit — with no
//! second code path for pause, stop, failure flush or commit cadence.
//!
//! **The fetch pool adds only leaf locks.** The pool's submission
//! queue and per-worker completion mailboxes sit behind their own
//! mutexes, but those are leaves in the lock order above: they are
//! never taken while any session lock is held, and no session lock is
//! ever taken under them (fetcher threads touch no session state at
//! all, and a threadless pool fetches only after releasing the queue).
//! Order with pool locks spelled out:
//! `model → compiled → store → wal → counters/diag`, with
//! `pool queue / completion mailbox` taken only outside that chain.

use crate::cluster::ShardCtx;
use crate::events::{CrawlEvent, CrawlObserver, EventSink, FailureOutcome, FetchErrorKind};
use crate::fetch_pool::{Completion, FetchPool, PoolHandle};
use crate::frontier::{self, Claim, FrontierEntry};
use crate::health::{
    BackoffConfig, Breaker, BreakerConfig, ClaimGate, FailureVerdict, HealthMap, PolitenessConfig,
    ServerHealth,
};
use crate::policy::{log_clamped, CrawlPolicy};
use crate::run::{Command, ControlState, CrawlError, CrawlRun, RunState, StartOptions};
use crate::tables::{self, crawl_col, host_server_id, visited};
use focus_classifier::compiled::{CompiledModel, EvalSummary, Scratch};
use focus_classifier::model::TrainedModel;
use focus_distiller::memory::{edges_from_links, WeightedHits};
use focus_distiller::{DistillConfig, DistillResult};
use focus_types::hash::FxHashMap;
use focus_types::{ClassId, Oid, ServerId};
use focus_webgraph::{FetchError, Fetcher};
use lockcheck::{rank, OrderedMutex, OrderedRwLock};
use minirel::{Database, DbError, DbResult, ResultSet, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Below this linear relevance, a re-marked topic does not re-prioritize
/// a visited page's outlinks (§3.7 re-steering; keeps the boost targeted
/// at pages the new marking actually endorses).
const RESTEER_MIN_RELEVANCE: f64 = 0.2;

/// Posterior probabilities below this are not cached per page (the saved
/// posteriors back mid-crawl re-marking; the tail adds nothing).
const SAVED_PROB_FLOOR: f64 = 1e-4;

/// Durability of the session store (default: none — the in-memory,
/// crash-simple database the access-path experiments sweep).
///
/// With a WAL attached, workers commit at batch boundaries (the same
/// critical-section cadence as claiming), [`CrawlRun::join`] issues a
/// final fsynced commit, and [`CrawlSession::replica`] can ship the log
/// to a read-only follower. File-backed sessions additionally survive a
/// process crash: [`CrawlSession::recover`] reopens the files, replays
/// the log, and demotes claims that were in flight at crash time back
/// to the frontier — exactly the treatment [`CrawlSession::checkpoint`]
/// gives them.
#[derive(Debug, Clone, Default)]
pub enum Durability {
    /// Plain in-memory database, no WAL. Commits and replicas are
    /// unavailable; nothing survives the process.
    #[default]
    None,
    /// In-memory pages with an in-memory WAL: commit points and
    /// [`CrawlSession::replica`] work, nothing survives the process.
    /// For tests and WAL-overhead measurement.
    Wal {
        /// Commits per forced sync ([`minirel::DEFAULT_GROUP_COMMIT`]
        /// is the production default; 1 syncs every commit).
        group_commit: usize,
    },
    /// File-backed pages and an on-disk WAL beside them
    /// ([`minirel::wal_path_for`]): every committed batch is
    /// recoverable via [`CrawlSession::recover`].
    File {
        /// The data-file path; the WAL lives at `<path>.wal`.
        path: PathBuf,
        /// Commits per fsync (group commit; 1 = sync every batch).
        group_commit: usize,
    },
}

/// Session parameters.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Initial link-expansion policy (switchable live via
    /// [`CrawlRun::set_policy`]).
    pub policy: CrawlPolicy,
    /// Fetcher threads ("about thirty" in the paper; tests use 1 for
    /// determinism).
    pub threads: usize,
    /// Fetch-attempt budget (the x-axis of Figures 5–6).
    pub max_fetches: u64,
    /// Attempts before a timing-out URL is declared dead.
    pub max_tries: i64,
    /// Re-distill after this many successful fetches (None = never).
    pub distill_every: Option<usize>,
    /// Distillation parameters.
    pub distill: DistillConfig,
    /// After distilling, boost unvisited pages cited by this many top
    /// hubs (0 disables the trigger).
    pub hub_boost_top_k: usize,
    /// Backward expansion (§3.2): when a page scores above this relevance
    /// and the fetcher serves backlink metadata, enqueue the pages that
    /// *point to* it — candidate hubs by the radius-2 rule. `None`
    /// disables.
    pub backlink_expansion_above: Option<f64>,
    /// Buffer-pool frames for the session database.
    pub db_frames: usize,
    /// Frontier entries a worker claims per critical section (§3.1's
    /// batch-oriented access paths). Each claimed page is still fetched
    /// and classified outside the lock and flushed at its own page
    /// boundary; the batch only amortizes the B+tree descents of
    /// claiming. 1 restores strict claim-per-page behavior. A worker
    /// aims for a target of `max(batch_size, ⌈2 × fetch_pool ÷
    /// threads⌉)` jobs in flight. With fetcher threads it claims once
    /// it is at least `min(batch_size, ⌈target ÷ 2⌉)` jobs short, so
    /// every pooled claim takes a batch; with `fetch_pool == 0` it
    /// claims the next batch only when the last one is fully landed.
    /// Overridable per run via [`crate::run::StartOptions::batch_size`].
    pub batch_size: usize,
    /// Durability of the session store (WAL, crash recovery, replicas).
    pub durability: Durability,
    /// Exponential-backoff schedule for retriable failures (crawl
    /// ticks).
    pub backoff: BackoffConfig,
    /// Per-server circuit breaker: consecutive timeouts past the
    /// threshold quarantine the server (its frontier rows park).
    pub breaker: BreakerConfig,
    /// Total retries the run may spend. A retriable failure only
    /// requeues while budget remains; after that it is terminal — so a
    /// pathological all-timeout world can never starve first-visit
    /// fetches out of the fetch budget.
    pub retry_budget: u64,
    /// Dedicated fetcher threads for the async fetch pipeline. `0`
    /// (the default) arms a threadless pool: each CPU worker fetches
    /// its own claims, one page at a time. With `n > 0` a run spawns
    /// `n` pool threads and keeps up to ~2n fetches in flight so
    /// network latency overlaps classify/flush instead of serializing
    /// with it. Overridable per run via
    /// [`crate::run::StartOptions::fetch_pool`].
    pub fetch_pool: usize,
    /// Per-server politeness (max in-flight, min inter-admission
    /// delay), enforced at claim admission. Overridable per run via
    /// [`crate::run::StartOptions::politeness`].
    pub politeness: PolitenessConfig,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            policy: CrawlPolicy::SoftFocus,
            threads: 4,
            max_fetches: 2000,
            max_tries: 3,
            distill_every: Some(500),
            distill: DistillConfig::default(),
            hub_boost_top_k: 10,
            backlink_expansion_above: None,
            db_frames: 512,
            batch_size: 8,
            durability: Durability::None,
            backoff: BackoffConfig::default(),
            breaker: BreakerConfig::default(),
            retry_budget: 1000,
            fetch_pool: 0,
            politeness: PolitenessConfig::default(),
        }
    }
}

/// Outcome counters and series.
#[derive(Debug, Clone, Default)]
pub struct CrawlStats {
    /// Fetch attempts.
    pub attempts: u64,
    /// Successful fetch+classify cycles.
    pub successes: u64,
    /// Failed attempts.
    pub failures: u64,
    /// `(attempt index, linear R)` per success, in completion order —
    /// Figure 5's raw series.
    pub harvest: Vec<(u64, f64)>,
    /// `(oid, linear R)` per success in the same completion order — the
    /// coverage experiment (Figure 6) replays this against a reference
    /// crawl.
    pub completion_order: Vec<(Oid, f64)>,
    /// Distillations run.
    pub distillations: u64,
}

impl CrawlStats {
    /// Moving average of the harvest series over `window` pages
    /// (Figure 5 plots "Avg over 100" / "Avg over 1000").
    pub fn harvest_moving_avg(&self, window: usize) -> Vec<(u64, f64)> {
        let w = window.max(1);
        let mut out = Vec::new();
        let mut sum = 0.0;
        for (i, &(x, r)) in self.harvest.iter().enumerate() {
            sum += r;
            if i + 1 >= w {
                out.push((x, sum / w as f64));
                sum -= self.harvest[i + 1 - w].1;
            }
        }
        out
    }

    /// Mean relevance over all fetched pages.
    pub fn mean_harvest(&self) -> f64 {
        if self.harvest.is_empty() {
            0.0
        } else {
            self.harvest.iter().map(|&(_, r)| r).sum::<f64>() / self.harvest.len() as f64
        }
    }
}

/// The relational store and its in-memory caches.
struct StoreState {
    db: Database,
    /// Linear `R` of visited pages (distiller edge weights, re-steering).
    relevance: FxHashMap<Oid, f64>,
    /// Saved per-page posteriors (classes above [`SAVED_PROB_FLOOR`]),
    /// kept so a mid-crawl `mark_topic` can recompute relevance without
    /// refetching (§3.7).
    class_probs: FxHashMap<Oid, Vec<(ClassId, f64)>>,
    /// Link cache `(src, sid_src, dst, sid_dst)` mirroring `LINK`.
    links: Vec<(Oid, u32, Oid, u32)>,
    server_counts: FxHashMap<ServerId, i64>,
    /// Live link-expansion policy (starts at `cfg.policy`).
    policy: CrawlPolicy,
    since_distill: usize,
    last_distill: Option<DistillResult>,
    /// Per-server backoff/breaker state (see module docs: no new lock —
    /// claim gating and failure recording already hold the store write
    /// lock).
    health: HealthMap,
}

/// Budget and outcome counters. The hot gauges are atomics so
/// [`CrawlSession::stats`] and the worker idle checks never touch the
/// store lock; the series (harvest, completion order) live behind their
/// own mutex, locked only at page completions and snapshots.
struct CounterState {
    /// Fetch attempts claimed so far. Incremented only under the store
    /// *write* lock (claims serialize there), so `attempts ≤ budget`
    /// holds exactly; read anywhere without a lock.
    attempts: AtomicU64,
    /// Fetch-attempt budget; raised live by [`CrawlRun::add_budget`]
    /// (monotonically increasing while a run is live).
    budget: AtomicU64,
    /// Claims checked out and not yet flushed (pool-wide gauge).
    in_flight: AtomicUsize,
    /// The crawl tick clock backoffs and quarantines are measured in.
    /// Advanced only under the store write lock: by the number of
    /// claims issued, and by one per empty poll — so parked rows make
    /// progress toward their due ticks even when nothing is claimable,
    /// and single-threaded crawls stay deterministic.
    clock: AtomicU64,
    /// Retries left ([`CrawlConfig::retry_budget`]); decremented when a
    /// retriable failure decides to requeue. At zero, retriable
    /// failures become terminal.
    retry_budget: AtomicU64,
    /// Success/failure tallies and the harvest series. `attempts` inside
    /// is refreshed from the atomic at snapshot time.
    tallies: OrderedMutex<CrawlStats>,
}

/// First storage error and worker-panic messages of the current run.
#[derive(Default)]
struct RunDiag {
    error: Option<DbError>,
    /// Rendered panic messages, one per failed worker.
    worker_failures: Vec<String>,
}

/// A goal-directed crawl over any [`Fetcher`].
///
/// Wrap in an [`Arc`] and call [`CrawlSession::start`] for a live,
/// steerable run, or [`CrawlSession::run`] for the blocking convenience
/// path.
pub struct CrawlSession {
    fetcher: Arc<dyn Fetcher>,
    /// The trained parameters — the *source of truth* for markings.
    /// Behind a rwlock so `mark_topic` can change the good set while
    /// workers classify (§3.7 administration against a live crawl).
    model: OrderedRwLock<TrainedModel>,
    /// The compiled inference engine the hot path runs. Workers clone
    /// the `Arc` and release the lock before evaluating; topic re-marks
    /// compile a fresh model and swap the `Arc` in (see module docs).
    compiled: OrderedRwLock<Arc<CompiledModel>>,
    cfg: CrawlConfig,
    /// The relational store: readers share, writers exclude (see the
    /// module docs for the lock order).
    store: OrderedRwLock<StoreState>,
    counters: CounterState,
    diag: OrderedMutex<RunDiag>,
    control: ControlState,
    /// The current run's fetch pool, sized by [`CrawlConfig::fetch_pool`]
    /// or its per-run override (0 = threadless). Armed at launch, torn
    /// down at wind-down; the mutex is a leaf taken only at those two
    /// points and at worker startup (to clone the `Arc`).
    run_pool: OrderedMutex<Option<Arc<FetchPool>>>,
    start: Instant,
    /// Present when this session is one shard of a
    /// [`crate::cluster::CrawlCluster`]: pages whose server hashes to
    /// another shard are routed through the cluster's exchange instead
    /// of entering the local frontier, and stagnation becomes a
    /// cluster-wide verdict.
    shard: Option<ShardCtx>,
}

/// What a worker decided to do with one scheduling tick.
enum Tick {
    /// A claimed batch: up to `batch_size` frontier entries checked out
    /// in one critical section. `first_attempt` is the attempt index of
    /// the first claim (claims are numbered at claim time).
    Work {
        claims: Vec<Claim>,
        first_attempt: u64,
    },
    /// The frontier had nothing poppable. `idle` and `attempts` are
    /// read inside the same critical section as the empty claim —
    /// `in_flight` only falls *after* a page's outlinks are flushed,
    /// under that same lock — so `idle == true` is a race-free verdict
    /// that no in-flight work can still repopulate the frontier.
    /// Parked rows (backoffs, quarantines) are future work: they keep
    /// `idle` false, and each empty poll advances the tick clock so
    /// their cooldowns actually expire.
    EmptyFrontier {
        idle: bool,
        attempts: u64,
    },
    Exit,
}

impl CrawlSession {
    /// Build a session: creates the `CRAWL`/`LINK`/`HUBS`/`AUTH`/`TAXONOMY`
    /// tables in a fresh database.
    pub fn new(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
    ) -> DbResult<CrawlSession> {
        Self::new_inner(fetcher, model, cfg, None)
    }

    /// [`CrawlSession::new`] as one shard of a cluster (see
    /// [`crate::cluster`]): same session, plus the routing context.
    pub(crate) fn new_sharded(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
        shard: ShardCtx,
    ) -> DbResult<CrawlSession> {
        Self::new_inner(fetcher, model, cfg, Some(shard))
    }

    fn new_inner(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
        shard: Option<ShardCtx>,
    ) -> DbResult<CrawlSession> {
        let mut db = match &cfg.durability {
            Durability::None => Database::in_memory_with_frames(cfg.db_frames),
            Durability::Wal { group_commit } => {
                Database::in_memory_durable(cfg.db_frames, *group_commit)
            }
            Durability::File { path, group_commit } => {
                let db = Database::open_with(path, cfg.db_frames, *group_commit)?;
                if db.table_id("crawl").is_ok() {
                    // `new` builds fresh sessions; silently re-creating
                    // tables over a recovered crawl would corrupt it.
                    return Err(DbError::Eval(format!(
                        "database at {} already holds a crawl — resume it with \
                         CrawlSession::recover",
                        path.display()
                    )));
                }
                db
            }
        };
        tables::create_tables(&mut db)?;
        tables::create_taxonomy_dim(&mut db, &model.taxonomy)?;
        db.execute("create table hubs (oid int, score float)")?;
        db.execute("create index hubs_oid on hubs (oid)")?;
        db.execute("create table auth (oid int, score float)")?;
        db.execute("create index auth_oid on auth (oid)")?;
        // A durable session commits its schema immediately: from here
        // on the file holds a recoverable crawl (and `new` on the same
        // path will refuse to re-initialize it).
        Self::commit_if_durable(&mut db)?;
        let initial_budget = cfg.max_fetches;
        let initial_policy = cfg.policy;
        let initial_retries = cfg.retry_budget;
        let health = HealthMap::new(cfg.backoff, cfg.breaker, cfg.politeness);
        let compiled = Arc::new(CompiledModel::compile(&model));
        Ok(CrawlSession {
            fetcher,
            model: OrderedRwLock::new(rank::MODEL, model),
            compiled: OrderedRwLock::new(rank::COMPILED, compiled),
            cfg,
            store: OrderedRwLock::new(
                rank::STORE,
                StoreState {
                    db,
                    relevance: FxHashMap::default(),
                    class_probs: FxHashMap::default(),
                    links: Vec::new(),
                    server_counts: FxHashMap::default(),
                    policy: initial_policy,
                    since_distill: 0,
                    last_distill: None,
                    health,
                },
            ),
            counters: CounterState {
                attempts: AtomicU64::new(0),
                budget: AtomicU64::new(initial_budget),
                in_flight: AtomicUsize::new(0),
                clock: AtomicU64::new(0),
                retry_budget: AtomicU64::new(initial_retries),
                tallies: OrderedMutex::new(rank::TALLIES, CrawlStats::default()),
            },
            diag: OrderedMutex::new(rank::DIAG, RunDiag::default()),
            control: ControlState::new(),
            run_pool: OrderedMutex::new(rank::RUN_POOL, None),
            start: Instant::now(),
            shard,
        })
    }

    /// Rebuild a session from a [`CrawlCheckpoint`], so a crawl can be
    /// resumed in a fresh process with its frontier, relevance state,
    /// link graph, stats, remaining budget, and good marking intact.
    pub fn restore(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
        ckpt: &CrawlCheckpoint,
    ) -> DbResult<CrawlSession> {
        Self::restore_inner(fetcher, model, cfg, ckpt, None)
    }

    /// [`CrawlSession::restore`] as one shard of a cluster.
    pub(crate) fn restore_sharded(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
        ckpt: &CrawlCheckpoint,
        shard: ShardCtx,
    ) -> DbResult<CrawlSession> {
        Self::restore_inner(fetcher, model, cfg, ckpt, Some(shard))
    }

    fn restore_inner(
        fetcher: Arc<dyn Fetcher>,
        mut model: TrainedModel,
        cfg: CrawlConfig,
        ckpt: &CrawlCheckpoint,
        shard: Option<ShardCtx>,
    ) -> DbResult<CrawlSession> {
        // The checkpoint's marking replaces the caller's wholesale:
        // live `mark_topic` calls may have both added and *removed*
        // good topics since the model was built, so clear first. Doing
        // this *before* construction means the one construction-time
        // compile — and the `TAXONOMY` dim table — already reflect the
        // restored marking.
        for c in model.taxonomy.good_set() {
            model
                .taxonomy
                .unmark_good(c)
                .map_err(|e| minirel::DbError::Eval(format!("restore: {e}")))?;
        }
        for name in &ckpt.good_topics {
            let c = model.taxonomy.find(name).ok_or_else(|| {
                minirel::DbError::Eval(format!("restore: checkpoint marks unknown topic {name:?}"))
            })?;
            model
                .taxonomy
                .mark_good(c)
                .map_err(|e| minirel::DbError::Eval(format!("restore: {e}")))?;
        }
        let session = CrawlSession::new_inner(fetcher, model, cfg, shard)?;
        let mut g = session.store.write();
        let crawl_tid = g.db.table_id("crawl")?;
        let mut crawl_rows = Vec::with_capacity(ckpt.pages.len());
        for row in &ckpt.pages {
            let mut r = tables::frontier_row(row.oid, &row.url, row.log_relevance, row.serverload);
            r[crawl_col::KCID] = Value::Int(row.kcid);
            r[crawl_col::NUMTRIES] = Value::Int(row.numtries);
            r[crawl_col::LASTVISITED] = Value::Int(row.lastvisited);
            r[crawl_col::VISITED] = Value::Int(row.state);
            r[crawl_col::NOT_BEFORE] = Value::Int(row.not_before);
            crawl_rows.push(r);
            if row.state == visited::DONE && !row.url.is_empty() {
                *g.server_counts.entry(host_server_id(&row.url)).or_insert(0) += 1;
            }
        }
        g.db.insert_many(crawl_tid, crawl_rows)?;
        let link_tid = g.db.table_id("link")?;
        let mut link_rows = Vec::with_capacity(ckpt.links.len());
        for &(src, sid_src, dst, sid_dst, discovered) in &ckpt.links {
            g.links.push((src, sid_src, dst, sid_dst));
            link_rows.push(vec![
                Value::Int(src.raw() as i64),
                Value::Int(sid_src as i64),
                Value::Int(dst.raw() as i64),
                Value::Int(sid_dst as i64),
                Value::Int(discovered),
            ]);
        }
        g.db.insert_many(link_tid, link_rows)?;
        g.relevance = ckpt.relevance.iter().copied().collect();
        g.class_probs = ckpt
            .class_probs
            .iter()
            .map(|(o, v)| (*o, v.clone()))
            .collect();
        g.policy = ckpt.policy;
        drop(g);
        *session.counters.tallies.lock() = ckpt.stats.clone();
        session
            .counters
            .attempts
            .store(ckpt.stats.attempts, Ordering::Release);
        session.counters.budget.store(
            ckpt.stats.attempts + ckpt.budget_remaining,
            Ordering::Release,
        );
        // Resume the tick clock where the checkpoint cut it, so parked
        // rows (backoffs, quarantines) keep their remaining cooldowns
        // instead of re-serving them from zero — or being sprung early.
        session.counters.clock.store(ckpt.clock, Ordering::Release);
        Ok(session)
    }

    /// Reopen a crashed (or cleanly stopped) file-backed session from
    /// its data file and WAL: the log is replayed to the last committed
    /// batch, claims that were in flight at crash time are demoted back
    /// to the frontier (they never landed, so they must be poppable
    /// again — the same rule the checkpoint path applies), and the
    /// in-memory caches are rebuilt from the recovered tables.
    ///
    /// Requires `cfg.durability = Durability::File` pointing at the
    /// files the crashed session used. Saved per-page posteriors (the
    /// §3.7 re-marking cache) live only in memory and are not recovered;
    /// a re-mark after recovery falls back to refetching. The fetch
    /// budget restarts at `cfg.max_fetches`, and so do the retry budget
    /// and every circuit breaker — server health is re-learned from
    /// live evidence, not trusted across a crash.
    pub fn recover(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
    ) -> DbResult<CrawlSession> {
        let Durability::File { path, group_commit } = &cfg.durability else {
            return Err(DbError::Eval(
                "CrawlSession::recover requires CrawlConfig.durability = Durability::File".into(),
            ));
        };
        let mut db = Database::open_with(path, cfg.db_frames, *group_commit)?;
        // A recovered file must actually hold a crawl.
        db.table_id("crawl")?;
        db.execute(&format!(
            "update crawl set visited = {} where visited = {}",
            visited::FRONTIER,
            visited::CLAIMED
        ))?;
        // Rebuild the caches the tables back: linear relevance and
        // server tallies from visited rows, the link cache from `LINK`.
        let mut relevance = FxHashMap::default();
        let mut server_counts: FxHashMap<ServerId, i64> = FxHashMap::default();
        let rs = db.query(&format!(
            "select oid, relevance, url from crawl where visited = {}",
            visited::DONE
        ))?;
        for row in &rs.rows {
            let oid = Oid(frontier::col_i64(row, 0, "oid")? as u64);
            relevance.insert(oid, frontier::col_f64(row, 1, "relevance")?.exp());
            let url = frontier::col_str(row, 2, "url")?;
            if !url.is_empty() {
                *server_counts.entry(host_server_id(url)).or_insert(0) += 1;
            }
        }
        let link_rs = db.query("select oid_src, sid_src, oid_dst, sid_dst from link")?;
        let mut links = Vec::with_capacity(link_rs.rows.len());
        for row in &link_rs.rows {
            links.push((
                Oid(frontier::col_i64(row, 0, "link.oid_src")? as u64),
                frontier::col_i64(row, 1, "link.sid_src")? as u32,
                Oid(frontier::col_i64(row, 2, "link.oid_dst")? as u64),
                frontier::col_i64(row, 3, "link.sid_dst")? as u32,
            ));
        }
        // The tick clock did not survive the crash, but parked rows
        // (`not_before`) did. Restart the clock at the *latest* park
        // expiry so every surviving row is immediately due: breakers
        // restart closed and re-quarantine servers that are still sick,
        // rather than honoring stale cooldowns against a clock that no
        // longer means anything.
        let mut clock = 0i64;
        let parked_rs = db.query(&format!(
            "select not_before from crawl where visited = {}",
            visited::FRONTIER
        ))?;
        for row in &parked_rs.rows {
            clock = clock.max(frontier::col_i64(row, 0, "not_before")?);
        }
        // Make the demotion itself durable before handing the session
        // out: a crash right after recovery must not resurrect CLAIMED
        // rows.
        db.commit_durable()?;
        let initial_budget = cfg.max_fetches;
        let initial_policy = cfg.policy;
        let initial_retries = cfg.retry_budget;
        let health = HealthMap::new(cfg.backoff, cfg.breaker, cfg.politeness);
        let compiled = Arc::new(CompiledModel::compile(&model));
        Ok(CrawlSession {
            fetcher,
            model: OrderedRwLock::new(rank::MODEL, model),
            compiled: OrderedRwLock::new(rank::COMPILED, compiled),
            cfg,
            store: OrderedRwLock::new(
                rank::STORE,
                StoreState {
                    db,
                    relevance,
                    class_probs: FxHashMap::default(),
                    links,
                    server_counts,
                    policy: initial_policy,
                    since_distill: 0,
                    last_distill: None,
                    health,
                },
            ),
            counters: CounterState {
                attempts: AtomicU64::new(0),
                budget: AtomicU64::new(initial_budget),
                in_flight: AtomicUsize::new(0),
                clock: AtomicU64::new(clock.max(0) as u64),
                retry_budget: AtomicU64::new(initial_retries),
                tallies: OrderedMutex::new(rank::TALLIES, CrawlStats::default()),
            },
            diag: OrderedMutex::new(rank::DIAG, RunDiag::default()),
            control: ControlState::new(),
            run_pool: OrderedMutex::new(rank::RUN_POOL, None),
            start: Instant::now(),
            shard: None,
        })
    }

    /// Spawn a WAL-shipping read replica of the session store: a
    /// read-only [`minirel::Replica`] that tails this session's log on
    /// its own thread and serves the whole monitor suite
    /// ([`crate::monitor`], via [`minirel::Replica::with_db`]) without
    /// ever touching the store lock again — monitors pointed at a
    /// replica contend with the crawl exactly once, here at spawn.
    /// Requires a durable session ([`Durability::Wal`] or
    /// [`Durability::File`]); the replica lags the leader by at most
    /// one batch commit ([`minirel::Replica::applied_lsn`] /
    /// [`minirel::Replica::wait_for_lsn`] expose the staleness).
    pub fn replica(&self) -> DbResult<minirel::Replica> {
        let mut g = self.store.write();
        minirel::Replica::spawn(&mut g.db)
    }

    /// Commit the store's dirty pages to the WAL (group-commit cadence)
    /// when this session is durable; a no-op otherwise. Callers hold
    /// the store write lock.
    fn commit_if_durable(db: &mut Database) -> DbResult<()> {
        if db.wal().is_some() {
            db.commit()?;
        }
        Ok(())
    }

    /// Final wind-down commit: everything the run wrote becomes durable
    /// (fsynced past group-commit batching) before `join()` returns.
    /// No-op for non-durable sessions; a failure surfaces through
    /// [`CrawlSession::run_outcome`] like any storage error.
    pub(crate) fn final_durable_commit(&self) {
        let mut g = self.store.write();
        if g.db.wal().is_none() {
            return;
        }
        if let Err(e) = g.db.commit_durable() {
            drop(g);
            self.record_error(e);
        }
    }

    /// Seed the frontier with the start set `D(C*)` at top priority.
    ///
    /// URLs are resolved through [`Fetcher::url_of`] (outside the lock)
    /// so seeded rows — and the claims, checkpoints, and events cut from
    /// them — carry real URLs rather than `""`. A fetcher that cannot
    /// resolve metadata leaves the row oid-keyed with an empty URL; the
    /// URL is then filled in when the page is fetched.
    pub fn seed(&self, seeds: &[Oid]) -> DbResult<()> {
        let entries: Vec<FrontierEntry> = seeds
            .iter()
            .map(|&oid| FrontierEntry {
                oid,
                url: self.fetcher.url_of(oid).unwrap_or_default(),
                log_relevance: 0.0,
                serverload: 0,
            })
            .collect();
        self.seed_entries(entries)
    }

    /// Seed resolved frontier entries. In cluster mode, entries whose
    /// host belongs to another shard are handed to the exchange (drained
    /// by the owner's workers at page boundaries); a seed with no
    /// resolvable URL falls back to `oid % n_shards`.
    pub(crate) fn seed_entries(&self, entries: Vec<FrontierEntry>) -> DbResult<()> {
        let local: Vec<FrontierEntry> = match &self.shard {
            None => entries,
            Some(ctx) => {
                let mut local = Vec::with_capacity(entries.len());
                let mut remote: Vec<Vec<FrontierEntry>> = vec![Vec::new(); ctx.n_shards];
                for e in entries {
                    let owner = crate::cluster::seed_owner(&e.url, e.oid, ctx.n_shards);
                    if owner == ctx.shard {
                        local.push(e);
                    } else {
                        remote[owner].push(e);
                    }
                }
                for (owner, batch) in remote.into_iter().enumerate() {
                    ctx.exchange.route(owner, batch);
                }
                local
            }
        };
        let mut g = self.store.write();
        self.clear_shard_idle();
        frontier::upsert_batch(&mut g.db, &local)?;
        // Seeds are acknowledged work: a durable session must not lose
        // them to a crash before the first batch commit.
        Self::commit_if_durable(&mut g.db)?;
        drop(g);
        Ok(())
    }

    /// Clear this shard's cluster-idle flag (no-op outside a cluster).
    /// Must be called while holding the store write lock, **before**
    /// inserting local frontier work, from any path that can insert
    /// with no claims in flight (seeds, re-steer boosts, distiller
    /// boosts, exchange landings). The lock orders the clear against
    /// `next_tick`'s verdict, and clear-*before*-insert upholds the
    /// coverage invariant [`crate::cluster::ShardExchange::try_finish`]
    /// rests on: at no instant does poppable work exist on a shard
    /// whose idle flag reads true.
    fn clear_shard_idle(&self) {
        if let Some(ctx) = &self.shard {
            ctx.exchange.clear_idle(ctx.shard);
        }
    }

    /// Land cross-shard frontier entries routed to this shard: pop the
    /// inbox, fill in the local server-load accounting (the classifying
    /// shard does not track our servers), and upsert in one batch.
    /// Called wherever the command queue drains — page boundaries, the
    /// top of the worker loop, and the pause park — so exchange latency
    /// matches steering latency; the cluster checkpoint also calls it
    /// so no routed entry is left in an inbox a snapshot cannot see.
    /// No-op outside a cluster or with an empty inbox.
    pub(crate) fn drain_exchange(&self) {
        let Some(ctx) = &self.shard else { return };
        let batch = ctx.exchange.take(ctx.shard);
        if batch.is_empty() {
            return;
        }
        let n = batch.len();
        let mut g = self.store.write();
        let entries: Vec<FrontierEntry> = batch
            .into_iter()
            .map(|mut e| {
                if !e.url.is_empty() {
                    let sid = host_server_id(&e.url);
                    e.serverload = g.server_counts.get(&sid).copied().unwrap_or(0);
                }
                e
            })
            .collect();
        // Clear-before-insert under the store lock (see
        // `clear_shard_idle`); the queued-gauge release follows outside
        // the lock, after the upsert, so the entries stay covered
        // throughout.
        ctx.exchange.clear_idle(ctx.shard);
        let res = frontier::upsert_batch(&mut g.db, &entries);
        drop(g);
        // `take` left these counted in the exchange's `queued` gauge so
        // no cluster-idle verdict could fire while they were in neither
        // an inbox nor a frontier; release them now that they landed.
        // On error the run is aborting anyway — still release, or
        // cluster termination would wedge on entries nobody will land.
        ctx.exchange.landed(ctx.shard, n);
        if let Err(e) = res {
            self.record_error(e);
        }
    }

    /// Spawn the worker pool in the background and return the steering
    /// handle. The session stays usable for ad-hoc SQL while running.
    pub fn start(self: &Arc<Self>) -> Result<CrawlRun, CrawlError> {
        self.start_with(StartOptions::default())
    }

    /// [`CrawlSession::start`] with an explicit event-channel capacity
    /// and observers.
    pub fn start_with(self: &Arc<Self>, opts: StartOptions) -> Result<CrawlRun, CrawlError> {
        CrawlRun::launch(Arc::clone(self), opts)
    }

    /// Run workers until the fetch budget is spent or the frontier
    /// stagnates, blocking the caller; the historical entry point, now a
    /// thin wrapper over [`CrawlSession::start`] + [`CrawlRun::join`].
    pub fn run(self: &Arc<Self>) -> Result<CrawlStats, CrawlError> {
        self.start()?.join()
    }

    pub(crate) fn control(&self) -> &ControlState {
        &self.control
    }

    /// Apply per-run robustness overrides before the pool spawns: a
    /// backoff, breaker, or politeness override restarts the per-server
    /// health map under the new policies (servers re-earn their
    /// quarantines), a retry-budget override refills the budget, and
    /// the run's fetch pool is armed (threadless when its size is 0).
    /// No workers are alive here (`ControlState::activate` guarantees
    /// one run at a time).
    pub(crate) fn apply_run_overrides(&self, opts: &StartOptions) {
        if opts.backoff.is_some() || opts.breaker.is_some() || opts.politeness.is_some() {
            let backoff = opts.backoff.unwrap_or(self.cfg.backoff);
            let breaker = opts.breaker.unwrap_or(self.cfg.breaker);
            let politeness = opts.politeness.unwrap_or(self.cfg.politeness);
            self.store.write().health = HealthMap::new(backoff, breaker, politeness);
        }
        if let Some(rb) = opts.retry_budget {
            self.counters.retry_budget.store(rb, Ordering::Release);
        }
        let pool_size = opts.fetch_pool.unwrap_or(self.cfg.fetch_pool);
        *self.run_pool.lock() = Some(Arc::new(FetchPool::new(
            Arc::clone(&self.fetcher),
            pool_size,
        )));
    }

    /// Tear down the run's fetch pool: drop the `Arc`, which
    /// joins the fetcher threads once the workers' handles are gone.
    /// Called from the run's wind-down, after every worker has exited —
    /// the worker wind-down contract guarantees the queue is empty by
    /// then (claims were drained or unclaimed).
    pub(crate) fn teardown_fetch_pool(&self) {
        *self.run_pool.lock() = None;
    }

    /// Clear the previous run's verdict so a fresh `start()` is judged on
    /// its own work. The tables themselves are left as-is: commands and
    /// page processing only mutate them at page boundaries, so even an
    /// aborted run leaves a frontier a new pool can continue from.
    pub(crate) fn reset_run_diagnostics(&self) {
        let mut d = self.diag.lock();
        d.error = None;
        d.worker_failures.clear();
        drop(d);
        // A panicking worker can die holding claims it never released;
        // zero the gauge so the stale count cannot convince the next
        // run's idle check that phantom work is still in flight (which
        // would spin its workers forever once the frontier drains). No
        // workers are alive here: `ControlState::activate` guarantees
        // one run at a time.
        self.counters.in_flight.store(0, Ordering::Release);
        // Same reasoning for the politeness gauges: a dead worker's
        // admitted-but-never-flushed claims would otherwise hold their
        // servers' per-server slots forever.
        self.store.write().health.reset_in_flight();
    }

    /// Hand jobs that will not be fetched back to the frontier (stop or
    /// abort mid-batch): release the in-flight gauge and flip the rows
    /// back to poppable, so the work survives for checkpoints and the
    /// next run instead of leaking as stuck `CLAIMED` rows. `attempts`
    /// stays as counted (it is monotone by contract).
    fn release_unfetched(&self, jobs: Vec<(Claim, u64)>) {
        if jobs.is_empty() {
            return;
        }
        let rest: Vec<Claim> = jobs.into_iter().map(|(c, _)| c).collect();
        let mut g = self.store.write();
        self.counters
            .in_flight
            .fetch_sub(rest.len(), Ordering::AcqRel);
        if let Some(ctx) = &self.shard {
            ctx.exchange.sub_in_flight(rest.len());
        }
        // Every admitted claim charged a per-server politeness slot at
        // `HealthMap::admit`; hand those back too, keyed exactly as the
        // admission was (the claim's URL, not any fetched page's).
        for c in &rest {
            g.health.release(host_server_id(&c.url));
        }
        if let Err(e) = frontier::unclaim_batch(&mut g.db, &rest) {
            drop(g);
            // `record_error` keeps the first error, so this cannot mask
            // the failure that aborted the run.
            self.record_error(e);
        }
    }

    /// The worker loop, over the run's fetch pool: keep topping this
    /// worker's jobs up toward an in-flight target (claims numbered and
    /// gated through [`next_tick`] under the store write lock), and
    /// drain one completion per turn through the classify/flush path.
    ///
    /// Refill rule: the target is `max(batch, ⌈2 × pool ÷ workers⌉)`.
    /// With fetcher threads the worker claims once the deficit below
    /// the target reaches `min(batch, ⌈target ÷ 2⌉)` (always true with
    /// nothing outstanding), taking up to `min(deficit, batch)` rows in
    /// one claim: each store-write-lock claim moves a whole batch, not
    /// the one slot the last completion freed, and fetch latency
    /// overlaps this worker's CPU work. On a threadless pool the target
    /// is one batch and the worker claims only with nothing
    /// outstanding: claim a batch, fetch and land it page by page on
    /// this thread, then cut a commit point.
    ///
    /// Control latency stays one *page*: commands drain every turn, a
    /// pause cancels the queued-but-unfetched jobs immediately and only
    /// waits out fetches already on the wire ([`park`]), and stop/abort
    /// unwinds the same way ([`wind_down`]).
    ///
    /// [`next_tick`]: CrawlSession::next_tick
    /// [`park`]: CrawlSession::park
    /// [`wind_down`]: CrawlSession::wind_down
    pub(crate) fn worker(&self, sink: &EventSink, batch_size: usize) {
        let pool = self
            .run_pool
            .lock()
            .clone()
            .expect("launch arms the run's fetch pool");
        // Per-worker inference buffers: warmed up on the first page,
        // zero allocations per page after that. Never shared (the
        // `Scratch` contract), so no lock guards it.
        let mut scratch = Scratch::default();
        let mut handle = pool.handle();
        // Failed fetches accumulate here and flush in *one* critical
        // section — before the next success lands, and at every commit
        // point — so an error storm from a down server costs one B+tree
        // pass, not one per page.
        let mut pending: Vec<(Claim, FetchErrorKind, u64)> = Vec::new();
        // Completions landed since the last commit point.
        let mut since_commit = 0usize;
        let batch = batch_size.max(1);
        // Split the pool's capacity across this run's workers, keeping
        // ~2 jobs per pool thread in flight so a completing thread
        // always finds its next job queued; never below one batch, or
        // a tiny pool would defeat batching.
        let workers = self.cfg.threads.max(1);
        let target = batch.max((pool.size() * 2).div_ceil(workers));
        // The refill rule in the doc above.
        let refill_at = if pool.size() == 0 {
            target
        } else {
            batch.min(target.div_ceil(2))
        };
        loop {
            self.control.drain(|cmd| self.apply_command(cmd, sink));
            self.drain_exchange();
            if self.control.abort.load(Ordering::Acquire)
                || self.control.run_state() == RunState::Stopping
            {
                break;
            }
            if let Some(ctx) = &self.shard {
                // A peer shard proved the whole cluster idle. Our own
                // outstanding jobs hold the global in-flight gauge up,
                // so `finished` can only be true with an empty pipeline.
                if ctx.exchange.finished() {
                    break;
                }
            }
            if self.control.run_state() == RunState::Paused {
                self.park(&mut handle, &mut pending, sink, &mut scratch);
                continue;
            }
            // Top up the pipeline toward the in-flight target.
            let deficit = target.saturating_sub(handle.outstanding());
            if deficit >= refill_at {
                match self.next_tick(sink, deficit.min(batch)) {
                    Tick::Exit => {
                        // Budget spent (or a fatal claim error): stop
                        // feeding the queue. Whatever is already on the
                        // wire still completes and flushes below.
                        if handle.outstanding() == 0 {
                            break;
                        }
                    }
                    Tick::EmptyFrontier { idle, attempts } => {
                        if handle.outstanding() == 0 {
                            // A drained pipeline is a commit point, so
                            // no failure is pending either: `idle` (judged
                            // inside the claim's critical section) covers
                            // all of this worker's work. In cluster mode
                            // locally idle is not cluster idle — a peer
                            // may still route entries here — so only the
                            // all-shards-drained verdict ends the crawl.
                            debug_assert!(pending.is_empty());
                            let stagnated = idle
                                && self
                                    .shard
                                    .as_ref()
                                    .is_none_or(|ctx| ctx.exchange.try_finish());
                            if stagnated {
                                if !self
                                    .control
                                    .stagnation_reported
                                    .swap(true, Ordering::AcqRel)
                                {
                                    sink.emit(CrawlEvent::FrontierStagnated { attempts });
                                }
                                break;
                            }
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        // Otherwise the frontier is merely empty *now*;
                        // outstanding completions are about to
                        // repopulate it — fall through to the drain.
                    }
                    Tick::Work {
                        claims,
                        first_attempt,
                    } => handle.submit(claims, first_attempt),
                }
            }
            // Drain one completion per turn; the short timeout keeps
            // the loop responsive to commands and the submit half.
            match handle.next_completion(std::time::Duration::from_millis(1)) {
                Some(done) => {
                    since_commit += 1;
                    if self.process_completion(done, &mut pending, sink, &mut scratch) {
                        break;
                    }
                    // A drained pipeline ends a batch, as does the
                    // `batch`-th completion since the last point.
                    if since_commit < batch && handle.outstanding() > 0 {
                        continue;
                    }
                    // Fall through to the commit point below.
                }
                None if since_commit == 0 && pending.is_empty() => continue,
                None => {}
            }
            // Batch boundary (or a quiet turn): land trailing failures,
            // then cut a WAL commit point so the batch's pages are
            // recoverable (fsync cadence follows the group-commit
            // quota; the run's final commit forces the last sync).
            // Write-ahead discipline means the pages themselves may
            // already be in the log — this makes them part of the
            // committed prefix.
            since_commit = 0;
            let mut g = self.store.write();
            let res = self
                .flush_failures(&mut g, &mut pending, sink)
                .and_then(|()| Self::commit_if_durable(&mut g.db));
            if let Err(e) = res {
                drop(g);
                self.record_error(e);
                break;
            }
        }
        self.wind_down(&mut handle, &mut pending, sink, &mut scratch);
    }

    /// Land one completion through the classify/flush path. Returns
    /// `true` when the worker should wind down (a storage error was
    /// recorded). A completion carrying a fetcher panic is re-raised
    /// here, on the worker thread, so it surfaces through the
    /// worker-panic machinery whichever thread ran the fetch.
    fn process_completion(
        &self,
        done: Completion,
        pending: &mut Vec<(Claim, FetchErrorKind, u64)>,
        sink: &EventSink,
        scratch: &mut Scratch,
    ) -> bool {
        let Completion {
            claim,
            attempt,
            outcome,
        } = done;
        let result = match outcome {
            Ok(r) => r,
            Err(msg) => panic!("fetch pool: {msg}"),
        };
        // Classify without holding *any* lock: clone the compiled
        // engine's Arc (a refcount bump under a momentary read lock),
        // drop the lock, then run zero-alloc inference in this worker's
        // scratch. A concurrent retrain swaps the Arc without waiting
        // for us; this page finishes under the model it started with.
        let eval = result.as_ref().ok().map(|page| {
            let compiled = Arc::clone(&self.compiled.read());
            let summary = compiled.evaluate_into(&page.terms, scratch);
            // Saved posteriors back §3.7 re-marking; the tail below the
            // floor adds nothing. Filtered here, outside the store lock.
            let saved: Vec<(ClassId, f64)> = scratch
                .class_probs()
                .iter()
                .copied()
                .filter(|&(_, p)| p > SAVED_PROB_FLOOR)
                .collect();
            (summary, saved)
        });
        match result {
            Err(e) => {
                // No lock taken for a failure: it joins the pending
                // flush. The claim stays in flight (gauge and row both)
                // until the flush lands it.
                pending.push((claim, FetchErrorKind::from(&e), attempt));
                false
            }
            Ok(page) => {
                let mut g = self.store.write();
                let res = self
                    .flush_failures(&mut g, pending, sink)
                    .and_then(|()| self.process(&mut g, &claim, Ok(page), eval, attempt, sink));
                // The gauge falls only after the page's outlinks are in
                // the frontier (still under the write lock): a peer
                // observing `in_flight == 0` with an empty frontier can
                // trust it. In cluster mode the same applies to the
                // global gauge — `process` routed this page's remote
                // outlinks *before* this decrement, so a peer shard
                // observing zero global in-flight is guaranteed to see
                // them in `queued`.
                self.counters.in_flight.fetch_sub(1, Ordering::AcqRel);
                if let Some(ctx) = &self.shard {
                    ctx.exchange.sub_in_flight(1);
                }
                if let Err(e) = res {
                    drop(g);
                    self.record_error(e);
                    return true;
                }
                false
            }
        }
    }

    /// Park the worker for a pause: pull the queued-but-unfetched jobs
    /// back out of the submission queue (no further fetches issue; the
    /// claims keep their attempt numbers, so `attempts` stays flat
    /// exactly as the pause contract promises), land the fetches
    /// already on the wire, then spin at the park point — commands
    /// still apply and routed entries still land, so a paused cluster
    /// drains its exchange and pause-then-checkpoint captures
    /// cross-shard work instead of leaving it in inboxes no snapshot
    /// covers. On resume the held jobs are resubmitted with their
    /// original attempt numbers (their chaos ordinals are unchanged by
    /// the round-trip); on stop-while-paused they are handed back to
    /// the frontier instead.
    fn park(
        &self,
        handle: &mut PoolHandle,
        pending: &mut Vec<(Claim, FetchErrorKind, u64)>,
        sink: &EventSink,
        scratch: &mut Scratch,
    ) {
        let held = handle.cancel_unstarted();
        self.land_in_flight(handle, pending, sink, scratch);
        while self.control.run_state() == RunState::Paused
            && !self.control.abort.load(Ordering::Acquire)
        {
            std::thread::sleep(std::time::Duration::from_micros(200));
            self.control.drain(|cmd| self.apply_command(cmd, sink));
            self.drain_exchange();
        }
        if self.control.abort.load(Ordering::Acquire)
            || self.control.run_state() == RunState::Stopping
        {
            self.release_unfetched(held);
            return;
        }
        handle.resubmit(held);
    }

    /// Unwind the worker on any exit: hand the queued-but-unfetched
    /// jobs back to the frontier, land the fetches already on the wire,
    /// then cut a final commit point.
    fn wind_down(
        &self,
        handle: &mut PoolHandle,
        pending: &mut Vec<(Claim, FetchErrorKind, u64)>,
        sink: &EventSink,
        scratch: &mut Scratch,
    ) {
        self.release_unfetched(handle.cancel_unstarted());
        self.land_in_flight(handle, pending, sink, scratch);
        let mut g = self.store.write();
        if let Err(e) = Self::commit_if_durable(&mut g.db) {
            drop(g);
            self.record_error(e);
        }
    }

    /// Land everything this worker still has in flight: drain each
    /// fetch already on the wire through the classify/flush path
    /// (completed-then-flushed — those claims burned attempts and
    /// cannot be handed back), then flush the pending failures. A
    /// storage error is recorded (`record_error` keeps the first) and
    /// draining goes on, so every claim's gauge and row are accounted
    /// for.
    fn land_in_flight(
        &self,
        handle: &mut PoolHandle,
        pending: &mut Vec<(Claim, FetchErrorKind, u64)>,
        sink: &EventSink,
        scratch: &mut Scratch,
    ) {
        while handle.outstanding() > 0 {
            if let Some(done) = handle.next_completion(std::time::Duration::from_millis(5)) {
                let _ = self.process_completion(done, pending, sink, scratch);
            }
        }
        if pending.is_empty() {
            return;
        }
        let mut g = self.store.write();
        if let Err(e) = self.flush_failures(&mut g, pending, sink) {
            drop(g);
            self.record_error(e);
        }
    }

    /// Flush accumulated batch failures under an already-held store
    /// write lock. The in-flight gauge falls here, *after* the rows are
    /// back in the frontier (or dead) — the same lock discipline
    /// successes use, so idle verdicts stay race-free.
    fn flush_failures(
        &self,
        g: &mut StoreState,
        pending: &mut Vec<(Claim, FetchErrorKind, u64)>,
        sink: &EventSink,
    ) -> DbResult<()> {
        if pending.is_empty() {
            return Ok(());
        }
        let res = self.process_failures(g, pending, sink);
        // Release the gauge even on error: the run is aborting, and
        // `reset_run_diagnostics` treats lingering in-flight as stale
        // anyway — matching the success path's unconditional decrement.
        let n = pending.len();
        pending.clear();
        self.counters.in_flight.fetch_sub(n, Ordering::AcqRel);
        if let Some(ctx) = &self.shard {
            ctx.exchange.sub_in_flight(n);
        }
        res
    }

    /// Claim the next batch of work, or decide why there is none. The
    /// batch is clamped to the remaining budget so attempts never exceed
    /// it; each claim is numbered at claim time (the harvest x-axis).
    ///
    /// `attempts` is only ever advanced here, under the store *write*
    /// lock, so the budget check and the increment are atomic against
    /// every other claimer; a concurrent `add_budget` can only widen the
    /// window between the check and the claim, never shrink it.
    fn next_tick(&self, sink: &EventSink, batch_size: usize) -> Tick {
        let budget_spent = || {
            let attempts = self.counters.attempts.load(Ordering::Acquire);
            let budget = self.counters.budget.load(Ordering::Acquire);
            (attempts >= budget).then_some(attempts)
        };
        // Cheap pre-check without the store lock.
        if let Some(attempts) = budget_spent() {
            if !self.control.budget_reported.swap(true, Ordering::AcqRel) {
                sink.emit(CrawlEvent::BudgetExhausted { attempts });
            }
            return Tick::Exit;
        }
        let mut g = self.store.write();
        // Re-check under the lock: a peer may have claimed the remainder
        // while this worker waited.
        if let Some(attempts) = budget_spent() {
            drop(g);
            if !self.control.budget_reported.swap(true, Ordering::AcqRel) {
                sink.emit(CrawlEvent::BudgetExhausted { attempts });
            }
            return Tick::Exit;
        }
        let attempts = self.counters.attempts.load(Ordering::Acquire);
        let budget = self.counters.budget.load(Ordering::Acquire);
        let remaining = (budget - attempts) as usize;
        let want = batch_size.max(1).min(remaining);
        match self.claim_admitted(&mut g, want) {
            Ok((claims, parked)) if claims.is_empty() => {
                // Advance the clock on the empty poll so parked rows
                // march toward their due ticks even when nothing is
                // claimable (the all-quarantined crawl must eventually
                // probe, not spin forever).
                self.counters.clock.fetch_add(1, Ordering::AcqRel);
                // Verdict under the same lock as the empty claim: any
                // flush that completed before it contributed its
                // outlinks to this claim, and any still-running flush
                // holds the gauge up (it falls under this lock, after
                // the flush). Parked rows are future work, so they veto
                // idleness exactly like in-flight claims do.
                let idle = parked == 0 && self.counters.in_flight.load(Ordering::Acquire) == 0;
                // Record the cluster-idle verdict while still holding
                // the store lock. Every local frontier insertion clears
                // the flag inside its own store critical section, so
                // the lock serializes verdict against repopulation: an
                // upsert before this claim makes the frontier non-empty
                // (no verdict), an upsert after it clears the flag
                // after we set it. Recording the flag outside the lock
                // would let a stale verdict overwrite a landing's
                // clear and terminate the cluster with poppable work.
                if idle {
                    if let Some(ctx) = &self.shard {
                        ctx.exchange.mark_idle(ctx.shard);
                    }
                }
                Tick::EmptyFrontier { idle, attempts }
            }
            Ok((claims, _)) => {
                let first_attempt = attempts + 1;
                self.counters
                    .attempts
                    .fetch_add(claims.len() as u64, Ordering::AcqRel);
                self.counters
                    .clock
                    .fetch_add(claims.len() as u64, Ordering::AcqRel);
                self.counters
                    .in_flight
                    .fetch_add(claims.len(), Ordering::AcqRel);
                if let Some(ctx) = &self.shard {
                    ctx.exchange.add_in_flight(claims.len());
                }
                // Surface retries now that the claims are numbered: a
                // nonzero `numtries` means this page failed before and
                // its backoff just expired.
                for (k, c) in claims.iter().enumerate() {
                    if c.numtries > 0 {
                        sink.emit(CrawlEvent::FetchRetried {
                            oid: c.oid,
                            attempt: first_attempt + k as u64,
                            numtries: c.numtries,
                            server: host_server_id(&c.url),
                        });
                    }
                }
                Tick::Work {
                    claims,
                    first_attempt,
                }
            }
            Err(e) => {
                drop(g);
                self.record_error(e);
                Tick::Exit
            }
        }
    }

    /// Claim up to `want` due frontier entries, gating every pop
    /// through the per-server breaker *inside the claim critical
    /// section*. Claims for quarantined servers are parked back
    /// ([`frontier::park_batch`]) and the pop retried, so an open
    /// breaker never starves the healthy work behind it in priority
    /// order — and a parked claim is never counted as an attempt or
    /// held in flight, so the budget and gauges stay exact.
    ///
    /// Returns the admitted claims plus a count of parked-or-deferred
    /// rows encountered. The count can double-count rows parked by
    /// this very call and re-seen by a later pop round; only its
    /// zero/non-zero distinction is load-bearing (the idle verdict),
    /// and that is exact.
    ///
    /// Politeness-saturated servers are filtered *in-scan* by a
    /// [`frontier::claim_batch_where`] predicate, so a server at its
    /// per-server cap never has its rows popped and parked (no B+tree
    /// churn); the rows are merely skipped and counted as `deferred`,
    /// which vetoes the idle verdict exactly like parked rows do.
    /// `HealthMap::admit` stays authoritative behind the predicate:
    /// the scan's view of `in_flight` is stale for claims admitted in
    /// the same batch, so the re-check parks any overshoot.
    fn claim_admitted(&self, g: &mut StoreState, want: usize) -> DbResult<(Vec<Claim>, usize)> {
        let now = self.counters.clock.load(Ordering::Acquire) as i64;
        let mut admitted: Vec<Claim> = Vec::with_capacity(want);
        let mut parks: Vec<(Oid, i64)> = Vec::new();
        let mut parked_rows = 0usize;
        loop {
            // Borrow-split the guard: the scan predicate reads health
            // while the claim scan holds `db` mutably.
            let StoreState { db, health, .. } = &mut *g;
            let outcome = frontier::claim_batch_where(db, want - admitted.len(), now, |c| {
                !health.politeness_deferred(host_server_id(&c.url), now)
            })?;
            parked_rows = parked_rows.max(outcome.parked + outcome.deferred);
            if outcome.claims.is_empty() {
                break;
            }
            let mut parked_this_round = false;
            for c in outcome.claims {
                match g.health.admit(host_server_id(&c.url), now) {
                    ClaimGate::Fetch | ClaimGate::Probe => admitted.push(c),
                    ClaimGate::Parked { until } => {
                        // Clamp into the future: a degenerate zero
                        // cooldown must not hand the row straight back
                        // to the next pop round (infinite loop).
                        parks.push((c.oid, until.max(now + 1)));
                        parked_this_round = true;
                    }
                }
            }
            if admitted.len() >= want || !parked_this_round {
                break;
            }
            // Park before re-popping, or the same rows come straight
            // back from the index.
            frontier::park_batch(&mut g.db, &parks)?;
            parked_rows += parks.len();
            parks.clear();
        }
        if !parks.is_empty() {
            parked_rows += parks.len();
            frontier::park_batch(&mut g.db, &parks)?;
        }
        Ok((admitted, parked_rows))
    }

    /// Apply one steering command at a page boundary.
    pub(crate) fn apply_command(&self, cmd: Command, sink: &EventSink) {
        match cmd {
            Command::Pause => {
                if self.control.run_state() == RunState::Running {
                    self.control.set_state(RunState::Paused);
                    sink.emit(CrawlEvent::Paused);
                }
            }
            Command::Resume => {
                if self.control.run_state() == RunState::Paused {
                    self.control.set_state(RunState::Running);
                    sink.emit(CrawlEvent::Resumed);
                }
            }
            Command::Stop => {
                self.control.set_state(RunState::Stopping);
                if self.control.stop_reported_once() {
                    let attempts = self.counters.attempts.load(Ordering::Acquire);
                    sink.emit(CrawlEvent::Stopped { attempts });
                }
            }
            Command::AddSeeds(seeds) => {
                let res = self.seed(&seeds);
                self.control
                    .stagnation_reported
                    .store(false, Ordering::Release);
                match res {
                    Ok(()) => sink.emit(CrawlEvent::SeedsAdded { count: seeds.len() }),
                    Err(e) => self.record_error(e),
                }
            }
            Command::AddBudget(extra) => {
                let budget = self.counters.budget.fetch_add(extra, Ordering::AcqRel) + extra;
                self.control.budget_reported.store(false, Ordering::Release);
                sink.emit(CrawlEvent::BudgetAdded { extra, budget });
            }
            Command::SetPolicy(policy) => {
                self.store.write().policy = policy;
                sink.emit(CrawlEvent::PolicyChanged {
                    policy: policy_name(policy),
                });
            }
            Command::MarkTopic { class, good } => {
                self.apply_mark_topic(class, good, sink);
            }
            Command::Distill => {
                let mut g = self.store.write();
                if let Err(e) = self.distill_locked(&mut g, Some(sink)) {
                    drop(g);
                    self.record_error(e);
                }
            }
        }
    }

    /// §3.7 live re-steering: change the good marking, recompute visited
    /// pages' relevance from their saved posteriors, and re-prioritize
    /// the frontier entries those pages point to.
    fn apply_mark_topic(&self, class: ClassId, good: bool, sink: &EventSink) {
        let applied = {
            let mut model = self.model.write();
            let res = if good {
                model.taxonomy.mark_good(class)
            } else {
                model.taxonomy.unmark_good(class)
            };
            res.is_ok()
        };
        sink.emit(CrawlEvent::TopicMarked {
            class,
            good,
            applied,
        });
        if !applied {
            return;
        }
        let model = self.model.read();
        // Recompile against the new marking and swap the Arc in. Workers
        // cloned their Arc before evaluating, so nothing waits on this;
        // pages classified from here on see the new good set. Lock order
        // model → compiled per the module docs.
        *self.compiled.write() = Arc::new(CompiledModel::compile(&model));
        let goods = model.taxonomy.good_set();
        let mut g = self.store.write();
        // Recompute R(d) for every visited page under the new marking.
        // A good class that was never evaluated (it sat below the old
        // path nodes) borrows its deepest evaluated ancestor's
        // probability — an upper bound, which is the right bias for
        // discovery: over-approximating sends the crawler to look.
        let recomputed: Vec<(Oid, f64)> = g
            .class_probs
            .iter()
            .map(|(&oid, probs)| {
                let r: f64 = goods
                    .iter()
                    .map(|&gc| lookup_prob(&model.taxonomy, probs, gc))
                    .sum();
                (oid, r.min(1.0))
            })
            .collect();
        for &(oid, r) in &recomputed {
            g.relevance.insert(oid, r);
            if let Err(e) = frontier::update_visited_relevance(&mut g.db, oid, log_clamped(r)) {
                drop(g);
                self.record_error(e);
                return;
            }
        }
        // Re-prioritize: unvisited targets of now-relevant pages inherit
        // the new relevance, exactly the soft-focus rule applied
        // retroactively. The link cache carries the target's server id,
        // so boosts for pages another shard owns route through the
        // exchange (a `mark_topic` broadcast re-steers *every* shard's
        // frontier, each from its own link evidence).
        let candidates: Vec<(Oid, u32, f64)> = g
            .links
            .iter()
            .filter_map(|&(src, _, dst, sid_dst)| {
                if g.relevance.contains_key(&dst) {
                    return None; // already fetched
                }
                match g.relevance.get(&src) {
                    Some(&r) if r > RESTEER_MIN_RELEVANCE => Some((dst, sid_dst, r)),
                    _ => None,
                }
            })
            .collect();
        let mut boosts = Vec::new();
        let mut remote: Vec<Vec<FrontierEntry>> = match &self.shard {
            Some(ctx) => vec![Vec::new(); ctx.n_shards],
            None => Vec::new(),
        };
        for (dst, sid_dst, r) in candidates {
            let entry = FrontierEntry {
                oid: dst,
                url: String::new(),
                log_relevance: log_clamped(r),
                serverload: 0,
            };
            match owner_shard(&self.shard, ServerId(sid_dst)) {
                Some(owner) => remote[owner].push(entry),
                None => boosts.push(entry),
            }
        }
        // Clear-before-insert under the store lock (see
        // `clear_shard_idle`).
        self.clear_shard_idle();
        let boosted = match frontier::upsert_batch(&mut g.db, &boosts) {
            Ok(res) => res.changed(),
            Err(e) => {
                drop(g);
                self.record_error(e);
                return;
            }
        };
        if let Some(ctx) = &self.shard {
            for (owner, batch) in remote.into_iter().enumerate() {
                ctx.exchange.route(owner, batch);
            }
        }
        drop(g);
        self.control
            .stagnation_reported
            .store(false, Ordering::Release);
        sink.emit(CrawlEvent::FrontierResteered { class, boosted });
    }

    /// Record the first storage error of the run and wind the pool down.
    /// Callers must not hold the store lock (the diag mutex is ordered
    /// after it, but keeping this lock-free of the store also means an
    /// error can be recorded while another worker is mid-flush).
    fn record_error(&self, e: DbError) {
        let mut d = self.diag.lock();
        if d.error.is_none() {
            d.error = Some(e);
        }
        drop(d);
        self.control.abort.store(true, Ordering::Release);
    }

    /// Record a worker panic: surface it as an event and an error from
    /// `join()`, and wind the whole pool down (partial stats must never
    /// masquerade as success).
    pub(crate) fn note_worker_panic(
        &self,
        worker: usize,
        payload: &(dyn std::any::Any + Send),
        sink: &EventSink,
    ) {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_owned());
        self.diag
            .lock()
            .worker_failures
            .push(format!("worker {worker}: {message}"));
        self.control.abort.store(true, Ordering::Release);
        self.control.set_state(RunState::Stopping);
        sink.emit(CrawlEvent::WorkerFailed { worker, message });
    }

    /// Record a failed `thread::Builder::spawn`: same surfacing contract
    /// as a worker panic (a `WorkerFailed` event now, `CrawlError::Worker`
    /// from `join()`), and the pool aborts so the workers that *did*
    /// spawn hand their claims back at the next page boundary.
    pub(crate) fn note_spawn_failure(&self, worker: usize, err: &std::io::Error, sink: &EventSink) {
        let message = format!("failed to spawn: {err}");
        self.diag
            .lock()
            .worker_failures
            .push(format!("worker {worker}: {message}"));
        self.control.abort.store(true, Ordering::Release);
        self.control.set_state(RunState::Stopping);
        sink.emit(CrawlEvent::WorkerFailed { worker, message });
    }

    /// Register this run's whole worker pool with the cluster exchange
    /// *before* any worker runs (no-op outside a cluster): a peer shard
    /// must never observe this shard as dead mid-spawn.
    pub(crate) fn note_workers_arming(&self, workers: usize) {
        if let Some(ctx) = &self.shard {
            ctx.exchange.workers_arming(ctx.shard, workers);
        }
    }

    /// Retire one worker registration (called as each worker exits, and
    /// for slots whose spawn failed). When the last registration of this
    /// shard retires, reconcile the cluster gauges: any in-flight count
    /// a panicking worker leaked is subtracted from the global gauge,
    /// and the shard's inbox is discarded — entries nobody will ever
    /// drain must not wedge the cluster-idle verdict of the surviving
    /// shards. No-op outside a cluster.
    pub(crate) fn note_worker_exit(&self) {
        if let Some(ctx) = &self.shard {
            if ctx.exchange.worker_exited(ctx.shard) {
                let leaked = self.counters.in_flight.load(Ordering::Acquire);
                ctx.exchange.reconcile_dead_shard(ctx.shard, leaked);
            }
        }
    }

    /// Final verdict of a run: worker panics and storage errors win over
    /// the happy path.
    pub(crate) fn run_outcome(&self) -> Result<CrawlStats, CrawlError> {
        let d = self.diag.lock();
        if !d.worker_failures.is_empty() {
            return Err(CrawlError::Worker(d.worker_failures.join("; ")));
        }
        if let Some(e) = &d.error {
            return Err(CrawlError::Db(e.clone()));
        }
        drop(d);
        Ok(self.stats())
    }

    fn process(
        &self,
        g: &mut StoreState,
        claim: &Claim,
        result: Result<focus_webgraph::FetchedPage, FetchError>,
        eval: Option<(EvalSummary, Vec<(ClassId, f64)>)>,
        attempt: u64,
        sink: &EventSink,
    ) -> DbResult<()> {
        let now = self.start.elapsed().as_secs() as i64;
        g.db.set_current_timestamp(now);
        match result {
            Err(ref e) => self.process_failures(
                g,
                &[(claim.clone(), FetchErrorKind::from(e), attempt)],
                sink,
            ),
            Ok(page) => {
                // A successful fetch is always classified by
                // `process_completion`; if the evaluation is missing anyway
                // (an invariant break upstream), record the attempt as
                // a retriable failure rather than panicking the worker
                // — the page stays in the frontier and the pool stays
                // alive. The server answered, so its breaker is not
                // charged ([`FetchErrorKind::Unclassifiable`]).
                let Some((summary, saved_probs)) = eval else {
                    return self.process_failures(
                        g,
                        &[(claim.clone(), FetchErrorKind::Unclassifiable, attempt)],
                        sink,
                    );
                };
                // The fetch is over: hand back the per-server politeness
                // slot charged at admission. Keyed by the *claim's* URL
                // (the admission key) — `page.url` can differ (or the
                // claim's can be empty for raw seeds), and releasing a
                // different server would leak the slot forever.
                g.health.release(host_server_id(&claim.url));
                let r = summary.relevance;
                let log_r = log_clamped(r);
                frontier::mark_done(
                    &mut g.db,
                    page.oid,
                    &page.url,
                    log_r,
                    summary.best_leaf.raw() as i64,
                    now,
                )?;
                {
                    // Tallies lock nests inside the store write lock
                    // (module lock order), held just for the pushes so
                    // `stats()` sees the series in db-commit order.
                    let mut t = self.counters.tallies.lock();
                    t.successes += 1;
                    t.harvest.push((attempt, r));
                    t.completion_order.push((page.oid, r));
                }
                g.relevance.insert(page.oid, r);
                g.class_probs.insert(page.oid, saved_probs);
                let sid_src = host_server_id(&page.url);
                *g.server_counts.entry(sid_src).or_insert(0) += 1;
                // A success closes the server's breaker (the half-open
                // probe came back) and resets its failure streak.
                if g.health.record_success(sid_src) {
                    Self::write_server_health(&mut g.db, sid_src, g.health.get(sid_src))?;
                    sink.emit(CrawlEvent::ServerRecovered { server: sid_src });
                }

                // Record links and expand the frontier. The whole page's
                // LINK rows land through one batch insert and its
                // outlink endorsements through one `upsert_batch` pass —
                // one ordered index traversal each, instead of a full
                // B+tree descent per outlink.
                let expansion = g.policy.decide_eval(&summary);
                let link_tid = g.db.table_id("link")?;
                let mut link_rows = Vec::with_capacity(page.outlinks.len());
                let mut expansions = Vec::new();
                // Cluster routing: an outlink whose server hashes to
                // another shard carries its endorsement (the saved
                // priority from *this* shard's classification) through
                // the exchange instead of the local frontier. The LINK
                // row stays local — the edge was discovered here, and
                // the distiller is per-shard.
                let mut remote: Vec<Vec<FrontierEntry>> = match &self.shard {
                    Some(ctx) => vec![Vec::new(); ctx.n_shards],
                    None => Vec::new(),
                };
                for (dst, dst_url) in &page.outlinks {
                    let sid_dst = host_server_id(dst_url);
                    g.links.push((page.oid, sid_src.raw(), *dst, sid_dst.raw()));
                    link_rows.push(vec![
                        Value::Int(page.oid.raw() as i64),
                        Value::Int(sid_src.raw() as i64),
                        Value::Int(dst.raw() as i64),
                        Value::Int(sid_dst.raw() as i64),
                        Value::Int(now),
                    ]);
                    if expansion.expand {
                        let entry = FrontierEntry {
                            oid: *dst,
                            url: dst_url.clone(),
                            log_relevance: expansion.child_log_relevance,
                            // The owner fills in its own server-load
                            // accounting at landing time.
                            serverload: 0,
                        };
                        match owner_shard(&self.shard, sid_dst) {
                            Some(owner) => remote[owner].push(entry),
                            None => expansions.push(FrontierEntry {
                                serverload: g.server_counts.get(&sid_dst).copied().unwrap_or(0),
                                ..entry
                            }),
                        }
                    }
                }
                g.db.insert_many(link_tid, link_rows)?;
                frontier::upsert_batch(&mut g.db, &expansions)?;

                // Backward expansion: a highly relevant page's *citers*
                // are hub candidates (radius-2); enqueue them when the
                // server exposes backlink metadata.
                if let Some(threshold) = self.cfg.backlink_expansion_above {
                    if r > threshold {
                        if let Some(citers) = self.fetcher.backlinks(page.oid) {
                            let prio = log_clamped(r * 0.8);
                            let mut backlinks = Vec::new();
                            for (src, src_url) in citers {
                                let sid = host_server_id(&src_url);
                                let entry = FrontierEntry {
                                    oid: src,
                                    url: src_url,
                                    log_relevance: prio,
                                    serverload: 0,
                                };
                                match owner_shard(&self.shard, sid) {
                                    Some(owner) => remote[owner].push(entry),
                                    None => backlinks.push(FrontierEntry {
                                        serverload: g.server_counts.get(&sid).copied().unwrap_or(0),
                                        ..entry
                                    }),
                                }
                            }
                            frontier::upsert_batch(&mut g.db, &backlinks)?;
                        }
                    }
                }
                // Hand cross-shard endorsements to their owners. Still
                // under the store write lock, i.e. *before* this page's
                // in-flight gauge falls: a peer shard that observes the
                // cluster as idle can never miss these entries.
                if let Some(ctx) = &self.shard {
                    for (owner, batch) in remote.into_iter().enumerate() {
                        ctx.exchange.route(owner, batch);
                    }
                }

                sink.emit(CrawlEvent::PageClassified {
                    oid: page.oid,
                    attempt,
                    relevance: r,
                    best_leaf: summary.best_leaf,
                });

                // Distillation trigger (§3.1: "triggers to recompute
                // relevance and centrality scores when the neighborhood
                // of a page changed significantly").
                g.since_distill += 1;
                if let Some(every) = self.cfg.distill_every {
                    if g.since_distill >= every {
                        g.since_distill = 0;
                        self.distill_locked(g, Some(sink))?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Record a batch of failed fetches in one critical section: route
    /// server-attributable failures through the health map (backoff,
    /// breaker, retry budget), write every row via one
    /// [`frontier::mark_failed_batch`] pass, mirror breaker transitions
    /// into `server_health`, and emit the enriched
    /// [`CrawlEvent::FetchFailed`] events.
    fn process_failures(
        &self,
        g: &mut StoreState,
        failures: &[(Claim, FetchErrorKind, u64)],
        sink: &EventSink,
    ) -> DbResult<()> {
        if failures.is_empty() {
            return Ok(());
        }
        g.db.set_current_timestamp(self.start.elapsed().as_secs() as i64);
        self.counters.tallies.lock().failures += failures.len() as u64;
        let now = self.counters.clock.load(Ordering::Acquire) as i64;
        let mut updates = Vec::with_capacity(failures.len());
        // Per item: (quarantine opened by this failure, row is behind
        // an open breaker) — computed in the first pass, consumed when
        // events are cut after the rows land.
        let mut verdicts = Vec::with_capacity(failures.len());
        for (claim, kind, _) in failures {
            // Every admitted claim charged exactly one politeness slot,
            // whatever the failure kind; release it before the breaker
            // bookkeeping, keyed as the admission was (the claim URL).
            g.health.release(host_server_id(&claim.url));
            let mut not_before = 0i64;
            let mut quarantined: Option<(ServerId, u32, i64)> = None;
            let mut behind_breaker = false;
            if *kind == FetchErrorKind::Timeout {
                // Only timeouts say anything about the *server*: a 404
                // is a dead page on a live host, and an unclassifiable
                // page was served fine.
                let sid = host_server_id(&claim.url);
                match g.health.record_failure(sid, now) {
                    FailureVerdict::Backoff { not_before: nb } => {
                        not_before = nb;
                        behind_breaker = g
                            .health
                            .get(sid)
                            .is_some_and(|h| h.breaker != Breaker::Closed);
                    }
                    FailureVerdict::Quarantined { until, failures: n } => {
                        not_before = until;
                        behind_breaker = true;
                        quarantined = Some((sid, n, until));
                    }
                }
            }
            // Retriable failures spend the retry budget — but only when
            // the page would actually requeue. With the budget dry the
            // failure is terminal, so retries can never starve
            // first-visit fetches out of the remaining fetch budget.
            let mut retriable = *kind != FetchErrorKind::NotFound;
            if retriable && claim.numtries + 1 < self.cfg.max_tries {
                let charged = self
                    .counters
                    .retry_budget
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| b.checked_sub(1))
                    .is_ok();
                if !charged {
                    retriable = false;
                }
            }
            updates.push(frontier::FailureUpdate {
                oid: claim.oid,
                retriable,
                not_before,
            });
            verdicts.push((quarantined, behind_breaker));
        }
        let dispositions = frontier::mark_failed_batch(&mut g.db, &updates, self.cfg.max_tries)?;
        for (i, (claim, kind, attempt)) in failures.iter().enumerate() {
            let (quarantined, behind_breaker) = verdicts[i];
            let outcome = match dispositions[i] {
                frontier::FailDisposition::Dead => FailureOutcome::Dead,
                frontier::FailDisposition::Retried { not_before } if behind_breaker => {
                    FailureOutcome::Parked { not_before }
                }
                frontier::FailDisposition::Retried { not_before } => {
                    FailureOutcome::Retried { not_before }
                }
            };
            sink.emit(CrawlEvent::FetchFailed {
                oid: claim.oid,
                attempt: *attempt,
                retriable: *kind != FetchErrorKind::NotFound,
                error: *kind,
                outcome,
            });
            if let Some((sid, n, until)) = quarantined {
                Self::write_server_health(&mut g.db, sid, g.health.get(sid))?;
                sink.emit(CrawlEvent::ServerQuarantined {
                    server: sid,
                    failures: n,
                    until,
                });
            }
        }
        Ok(())
    }

    /// Mirror one server's breaker record into the `server_health`
    /// table. Written on state *transitions* only (quarantine opened,
    /// server recovered) so the §3.7 monitoring view stays off the hot
    /// path; the rows ride the WAL, so replicas serve the view too.
    fn write_server_health(
        db: &mut Database,
        sid: ServerId,
        health: Option<&ServerHealth>,
    ) -> DbResult<()> {
        db.execute(&format!(
            "delete from server_health where sid = {}",
            sid.raw() as i64
        ))?;
        let Some(h) = health else { return Ok(()) };
        let (state, until) = match h.breaker {
            Breaker::Closed => ("closed", 0),
            Breaker::Open { until } => ("open", until),
            Breaker::Probing => ("probing", 0),
        };
        let tid = db.table_id("server_health")?;
        db.insert(
            tid,
            vec![
                Value::Int(sid.raw() as i64),
                Value::Str(state.to_owned()),
                Value::Int(h.consec_failures as i64),
                Value::Int(until),
                Value::Int(h.quarantines as i64),
            ],
        )?;
        Ok(())
    }

    fn distill_locked(&self, g: &mut StoreState, sink: Option<&EventSink>) -> DbResult<()> {
        let edges = edges_from_links(&g.links, &g.relevance);
        let result = WeightedHits::new(&edges, &g.relevance, self.cfg.distill.clone()).run();
        let distillation = {
            let mut t = self.counters.tallies.lock();
            t.distillations += 1;
            t.distillations
        };
        // Persist HUBS/AUTH so ad-hoc monitoring SQL sees live scores.
        g.db.execute("delete from hubs")?;
        g.db.execute("delete from auth")?;
        let hubs_tid = g.db.table_id("hubs")?;
        for &(o, s) in result.top_hubs(200) {
            g.db.insert(hubs_tid, vec![Value::Int(o.raw() as i64), Value::Float(s)])?;
        }
        let auth_tid = g.db.table_id("auth")?;
        for &(o, s) in result.top_auths(200) {
            g.db.insert(auth_tid, vec![Value::Int(o.raw() as i64), Value::Float(s)])?;
        }
        // Hub-boost trigger: raise priority of unvisited pages cited by
        // the best hubs. Targets another shard owns route through the
        // exchange (distillation is per-shard, but its boosts still
        // respect the partition).
        if self.cfg.hub_boost_top_k > 0 {
            let boost = log_clamped(0.9);
            let top: Vec<Oid> = result
                .top_hubs(self.cfg.hub_boost_top_k)
                .iter()
                .map(|&(o, _)| o)
                .collect();
            let mut targets = Vec::new();
            let mut remote: Vec<Vec<FrontierEntry>> = match &self.shard {
                Some(ctx) => vec![Vec::new(); ctx.n_shards],
                None => Vec::new(),
            };
            for &(_, _, dst, sid_dst) in g
                .links
                .iter()
                .filter(|(src, ss, _, sd)| top.contains(src) && ss != sd)
            {
                if g.relevance.contains_key(&dst) {
                    continue;
                }
                let entry = FrontierEntry {
                    oid: dst,
                    url: String::new(),
                    log_relevance: boost,
                    serverload: 0,
                };
                match owner_shard(&self.shard, ServerId(sid_dst)) {
                    Some(owner) => remote[owner].push(entry),
                    None => targets.push(entry),
                }
            }
            // Clear-before-insert (see `clear_shard_idle`; the caller
            // holds the store write lock).
            self.clear_shard_idle();
            frontier::upsert_batch(&mut g.db, &targets)?;
            if let Some(ctx) = &self.shard {
                for (owner, batch) in remote.into_iter().enumerate() {
                    ctx.exchange.route(owner, batch);
                }
            }
        }
        if let Some(sink) = sink {
            sink.emit(CrawlEvent::DistillCompleted {
                distillation,
                top_hub: result.top_hubs(1).first().map(|&(o, _)| o),
                top_auth: result.top_auths(1).first().map(|&(o, _)| o),
            });
        }
        g.last_distill = Some(result);
        Ok(())
    }

    /// Raise the fetch budget directly (between runs; a *live* run takes
    /// [`CrawlRun::add_budget`], which also re-arms the exhaustion
    /// event).
    pub fn add_budget(&self, extra: u64) {
        self.counters.budget.fetch_add(extra, Ordering::AcqRel);
        self.control.budget_reported.store(false, Ordering::Release);
    }

    /// Crawl-maintenance pass (§3.2): revisit the best hubs in
    /// `(lastvisited asc, hubs.score desc)` spirit, looking for *new*
    /// resource links the evolving web added since they were first
    /// fetched. New edges are recorded in `LINK` with a fresh `discovered`
    /// timestamp, and their targets enter the frontier at high priority.
    /// Returns `(hubs revisited, new links found)`.
    ///
    /// Revisit fetches go through the same per-server admission path as
    /// crawl fetches: a quarantined or politeness-saturated server is
    /// *skipped* (never probed past its breaker), and a failed revisit
    /// charges the server's health instead of being swallowed. Use
    /// [`maintenance_pass_with`] to observe the skip/failure events.
    ///
    /// [`maintenance_pass_with`]: CrawlSession::maintenance_pass_with
    pub fn maintenance_pass(&self, top_k_hubs: usize) -> DbResult<(usize, usize)> {
        self.maintenance_pass_with(top_k_hubs, Vec::new())
    }

    /// [`maintenance_pass`](CrawlSession::maintenance_pass) with
    /// observers: skips surface as [`CrawlEvent::HubRevisitSkipped`],
    /// failures as [`CrawlEvent::HubRevisitFailed`], and breaker
    /// transitions as the usual quarantine/recovery events.
    pub fn maintenance_pass_with(
        &self,
        top_k_hubs: usize,
        observers: Vec<Arc<dyn CrawlObserver>>,
    ) -> DbResult<(usize, usize)> {
        let sink = EventSink::new(None, observers, Arc::new(AtomicU64::new(0)));
        let distill = match self.last_distill() {
            Some(d) => d,
            None => self.distill_now()?,
        };
        let hubs: Vec<Oid> = distill
            .top_hubs(top_k_hubs)
            .iter()
            .map(|&(o, _)| o)
            .collect();
        let mut revisited = 0;
        let mut new_links = 0;
        for hub in hubs {
            // Resolve the hub's server the same way crawl claims do:
            // by URL. A fetcher without URL metadata resolves to the
            // same default server id empty-URL claims use.
            let url = self.fetcher.url_of(hub).unwrap_or_default();
            let sid = host_server_id(&url);
            let tick = self.counters.clock.load(Ordering::Acquire) as i64;
            // Admission under the store lock, exactly like a claim: a
            // parked verdict means the breaker is open or the server is
            // politeness-saturated — skip, never probe past it.
            let admitted = {
                let mut g = self.store.write();
                match g.health.admit(sid, tick) {
                    ClaimGate::Fetch | ClaimGate::Probe => true,
                    ClaimGate::Parked { until } => {
                        sink.emit(CrawlEvent::HubRevisitSkipped {
                            oid: hub,
                            server: sid,
                            until,
                        });
                        false
                    }
                }
            };
            if !admitted {
                continue;
            }
            // Maintenance traffic sits outside the crawl's attempt
            // numbering, so it takes the legacy serialized-tick fetch
            // (no submission ordinal to pass).
            let result = self.fetcher.fetch(hub);
            let page = match result {
                Err(ref e) => {
                    let kind = FetchErrorKind::from(e);
                    let mut g = self.store.write();
                    // Reborrow so `db` and `health` borrows can split.
                    let g = &mut *g;
                    g.health.release(sid);
                    if kind == FetchErrorKind::Timeout {
                        if let FailureVerdict::Quarantined { until, failures } =
                            g.health.record_failure(sid, tick)
                        {
                            Self::write_server_health(&mut g.db, sid, g.health.get(sid))?;
                            sink.emit(CrawlEvent::ServerQuarantined {
                                server: sid,
                                failures,
                                until,
                            });
                        }
                    }
                    sink.emit(CrawlEvent::HubRevisitFailed {
                        oid: hub,
                        server: sid,
                        error: kind,
                    });
                    continue;
                }
                Ok(page) => page,
            };
            revisited += 1;
            let mut g = self.store.write();
            // Reborrow so `db` and `health` borrows can split.
            let g = &mut *g;
            g.health.release(sid);
            if g.health.record_success(sid) {
                Self::write_server_health(&mut g.db, sid, g.health.get(sid))?;
                sink.emit(CrawlEvent::ServerRecovered { server: sid });
            }
            let now = self.start.elapsed().as_secs() as i64;
            // Known outlinks of this hub.
            let known: Vec<i64> = {
                let rs = g.db.query_with(
                    "select oid_dst from link where oid_src = ?",
                    &[Value::Int(hub.raw() as i64)],
                )?;
                rs.rows.iter().filter_map(|r| r[0].as_i64()).collect()
            };
            let sid_src = host_server_id(&page.url);
            let link_tid = g.db.table_id("link")?;
            let boost = log_clamped(0.95);
            let mut link_rows = Vec::new();
            let mut enqueues = Vec::new();
            for (dst, dst_url) in &page.outlinks {
                if known.contains(&(dst.raw() as i64)) {
                    continue;
                }
                new_links += 1;
                let sid_dst = host_server_id(dst_url);
                g.links.push((hub, sid_src.raw(), *dst, sid_dst.raw()));
                link_rows.push(vec![
                    Value::Int(hub.raw() as i64),
                    Value::Int(sid_src.raw() as i64),
                    Value::Int(dst.raw() as i64),
                    Value::Int(sid_dst.raw() as i64),
                    Value::Int(now),
                ]);
                enqueues.push(FrontierEntry {
                    oid: *dst,
                    url: dst_url.clone(),
                    log_relevance: boost,
                    serverload: 0,
                });
            }
            g.db.insert_many(link_tid, link_rows)?;
            frontier::upsert_batch(&mut g.db, &enqueues)?;
            frontier::touch_visited(&mut g.db, hub, now)?;
        }
        Ok((revisited, new_links))
    }

    /// Force a distillation now (used at end-of-crawl by Figure 7).
    /// An empty link graph distills to an empty [`DistillResult`] —
    /// never a panic — so end-of-crawl reporting works on sessions that
    /// fetched nothing.
    pub fn distill_now(&self) -> DbResult<DistillResult> {
        let mut g = self.store.write();
        self.distill_locked(&mut g, None)?;
        // `distill_locked` always records its result on success; the
        // default is unreachable but keeps the no-panic guarantee
        // structural (the periodic trigger path deliberately skips this
        // clone — only the forced path pays for the returned copy).
        Ok(g.last_distill.clone().unwrap_or_default())
    }

    /// Latest distillation result, if any.
    pub fn last_distill(&self) -> Option<DistillResult> {
        self.store.read().last_distill.clone()
    }

    /// Stats snapshot. Touches only the counter state — never the store
    /// lock — so it completes in bounded time even while workers are
    /// mid-flush.
    pub fn stats(&self) -> CrawlStats {
        let mut stats = self.counters.tallies.lock().clone();
        stats.attempts = self.counters.attempts.load(Ordering::Acquire);
        stats
    }

    /// The live link-expansion policy.
    pub fn policy(&self) -> CrawlPolicy {
        self.store.read().policy
    }

    /// The crawl configuration the session was built with. `policy` may
    /// have been changed live since; see [`CrawlSession::policy`].
    pub fn config(&self) -> &CrawlConfig {
        &self.cfg
    }

    /// Resolve a topic name against the (live) taxonomy.
    pub fn find_topic(&self, name: &str) -> Option<ClassId> {
        self.model.read().taxonomy.find(name)
    }

    /// Run a closure against the trained model (live good marking).
    pub fn with_model<R>(&self, f: impl FnOnce(&TrainedModel) -> R) -> R {
        f(&self.model.read())
    }

    /// The compiled inference engine currently serving the crawl hot
    /// path. The returned `Arc` is a consistent snapshot: a concurrent
    /// `mark_topic` swaps the session's copy but never mutates this one.
    /// Pair with a per-thread [`Scratch`] to classify ad hoc documents
    /// exactly as the crawl does.
    pub fn compiled(&self) -> Arc<CompiledModel> {
        Arc::clone(&self.compiled.read())
    }

    /// Capture everything needed to resume this crawl in a fresh session:
    /// the full `CRAWL` table (in-flight claims demoted back to the
    /// frontier), the link graph with discovery timestamps, relevance
    /// state, saved posteriors, stats, remaining budget, live policy, and
    /// the good marking.
    pub fn checkpoint(&self) -> DbResult<CrawlCheckpoint> {
        // Read lock: a checkpoint is SELECTs + cache clones, so it runs
        // concurrently with monitors and only briefly excludes writers.
        let g = self.store.read();
        let rs = g.db.query(
            "select oid, url, kcid, numtries, relevance, serverload, lastvisited, \
             visited, not_before from crawl",
        )?;
        // Strict decodes throughout: a torn row surfaces as
        // `DbError::Corrupt` instead of silently resurrecting an
        // `Oid(0)`/empty-URL page into the restored session (the same
        // treatment `frontier.rs` gives claims).
        let pages = rs
            .rows
            .iter()
            .map(|row| {
                let state = match frontier::col_i64(row, 7, "visited")? {
                    // A claim in flight at checkpoint time will not land
                    // in the restored session: re-fetch it.
                    visited::CLAIMED => visited::FRONTIER,
                    s => s,
                };
                Ok(CheckpointPage {
                    oid: Oid(frontier::col_i64(row, 0, "oid")? as u64),
                    url: frontier::col_str(row, 1, "url")?.to_owned(),
                    kcid: frontier::col_i64(row, 2, "kcid")?,
                    numtries: frontier::col_i64(row, 3, "numtries")?,
                    log_relevance: frontier::col_f64(row, 4, "relevance")?,
                    serverload: frontier::col_i64(row, 5, "serverload")?,
                    lastvisited: frontier::col_i64(row, 6, "lastvisited")?,
                    state,
                    not_before: frontier::col_i64(row, 8, "not_before")?,
                })
            })
            .collect::<DbResult<Vec<CheckpointPage>>>()?;
        let link_rs =
            g.db.query("select oid_src, sid_src, oid_dst, sid_dst, discovered from link")?;
        let links = link_rs
            .rows
            .iter()
            .map(|row| {
                Ok((
                    Oid(frontier::col_i64(row, 0, "link.oid_src")? as u64),
                    frontier::col_i64(row, 1, "link.sid_src")? as u32,
                    Oid(frontier::col_i64(row, 2, "link.oid_dst")? as u64),
                    frontier::col_i64(row, 3, "link.sid_dst")? as u32,
                    frontier::col_i64(row, 4, "link.discovered")?,
                ))
            })
            .collect::<DbResult<Vec<_>>>()?;
        let stats = self.stats();
        let budget_remaining = self
            .counters
            .budget
            .load(Ordering::Acquire)
            .saturating_sub(stats.attempts);
        let relevance: Vec<(Oid, f64)> = g.relevance.iter().map(|(&o, &r)| (o, r)).collect();
        let class_probs: Vec<(Oid, Vec<(ClassId, f64)>)> =
            g.class_probs.iter().map(|(&o, v)| (o, v.clone())).collect();
        let policy = g.policy;
        drop(g);
        let good_topics = {
            let model = self.model.read();
            model
                .taxonomy
                .good_set()
                .into_iter()
                .map(|c| model.taxonomy.name(c).to_owned())
                .collect()
        };
        Ok(CrawlCheckpoint {
            pages,
            links,
            relevance,
            class_probs,
            stats,
            budget_remaining,
            policy,
            good_topics,
            clock: self.counters.clock.load(Ordering::Acquire),
        })
    }

    /// All visited pages as `(oid, linear R, server)`. Read-locked:
    /// concurrent with other monitors.
    pub fn visited(&self) -> Vec<(Oid, f64, ServerId)> {
        let g = self.store.read();
        let rs =
            g.db.query("select oid, relevance, url from crawl where visited = 1")
                .expect("crawl table exists");
        rs.rows
            .into_iter()
            .map(|row| {
                let oid = Oid(row[0].as_i64().unwrap_or(0) as u64);
                let log_r = row[1].as_f64().unwrap_or(f64::NEG_INFINITY);
                let server = host_server_id(row[2].as_str().unwrap_or(""));
                (oid, log_r.exp(), server)
            })
            .collect()
    }

    /// Run a closure against the session database with **exclusive**
    /// access (ad-hoc DDL/DML, or multi-statement reads that need a
    /// stable view). Blocks workers for the duration — prefer
    /// [`CrawlSession::sql`] or [`CrawlSession::with_db_read`] for
    /// monitoring.
    pub fn with_db<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut g = self.store.write();
        f(&mut g.db)
    }

    /// Run a closure against the session database under the **read**
    /// lock, concurrent with other monitors and with `stats()`. The
    /// closure gets `&Database`, so only `query()` and other `&self`
    /// accessors are available — exactly the §3.7 monitoring surface.
    pub fn with_db_read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        let g = self.store.read();
        f(&g.db)
    }

    /// Ad-hoc SQL against the live session (§3.7). SELECT statements run
    /// under the store's *read* lock — many monitors can query at once,
    /// and the crawl only pauses them for its short page-flush critical
    /// sections. Anything else (DDL/DML steering surgery) escalates to
    /// the write lock and runs exclusively at the next page boundary.
    pub fn sql(&self, sql: &str) -> DbResult<ResultSet> {
        self.sql_with(sql, &[])
    }

    /// [`CrawlSession::sql`] with positional `?` parameter bindings.
    /// SELECTs plan through the database's prepared-statement cache, so a
    /// monitor polling the same query text pays binding + execution only.
    /// Parameters are rejected on the DML fallback path — `execute` has
    /// no binding surface, and silently dropping them would be worse.
    pub fn sql_with(&self, sql: &str, params: &[Value]) -> DbResult<ResultSet> {
        {
            let g = self.store.read();
            match g.db.query_with(sql, params) {
                // Not a SELECT: fall through to the exclusive path.
                Err(DbError::ReadOnly(_)) => {}
                other => return other,
            }
        }
        if !params.is_empty() {
            return Err(DbError::Binding(
                "parameters are only supported for SELECT statements".into(),
            ));
        }
        self.store.write().db.execute(sql)
    }

    /// The in-memory link cache `(src, sid_src, dst, sid_dst)`.
    pub fn links(&self) -> Vec<(Oid, u32, Oid, u32)> {
        self.store.read().links.clone()
    }

    /// Linear relevance map of visited pages.
    pub fn relevance_map(&self) -> FxHashMap<Oid, f64> {
        self.store.read().relevance.clone()
    }
}

/// The owning shard of server `sid`, when routing applies: `Some(owner)`
/// only in cluster mode *and* when the owner is a different shard —
/// `None` means "keep the entry local" (single-session mode, or the
/// server hashes to this shard). The `% n_shards` partition is the
/// cluster's one invariant: a server's pages always land on one shard,
/// so the §2.2 nepotism filter and per-server load accounting stay
/// local facts.
fn owner_shard(shard: &Option<ShardCtx>, sid: ServerId) -> Option<usize> {
    let ctx = shard.as_ref()?;
    let owner = ctx.owner_of(sid);
    (owner != ctx.shard).then_some(owner)
}

/// `Pr[c|d]` from a saved posterior, falling back to the deepest
/// evaluated ancestor (an upper bound) when `c` itself sat below the
/// evaluated path nodes at fetch time.
fn lookup_prob(taxonomy: &focus_types::Taxonomy, probs: &[(ClassId, f64)], class: ClassId) -> f64 {
    let direct = |c: ClassId| probs.iter().find(|&&(pc, _)| pc == c).map(|&(_, p)| p);
    if let Some(p) = direct(class) {
        return p;
    }
    for anc in taxonomy.ancestors(class) {
        if let Some(p) = direct(anc) {
            return p;
        }
    }
    0.0
}

fn policy_name(p: CrawlPolicy) -> &'static str {
    match p {
        CrawlPolicy::Unfocused => "Unfocused",
        CrawlPolicy::HardFocus => "HardFocus",
        CrawlPolicy::SoftFocus => "SoftFocus",
    }
}

/// One `CRAWL` row captured by [`CrawlSession::checkpoint`].
#[derive(Debug, Clone)]
pub struct CheckpointPage {
    /// Page identity.
    pub oid: Oid,
    /// URL text (may be empty for seeds discovered without one).
    pub url: String,
    /// Best-leaf class (−1 before fetch).
    pub kcid: i64,
    /// Fetch attempts so far.
    pub numtries: i64,
    /// Stored log R.
    pub log_relevance: f64,
    /// Server-load column at insert time.
    pub serverload: i64,
    /// Seconds-since-start of the last visit.
    pub lastvisited: i64,
    /// Lifecycle state ([`crate::tables::visited`] constants).
    pub state: i64,
    /// Earliest tick the row may be claimed again (backoff/quarantine
    /// parking; 0 = immediately poppable).
    pub not_before: i64,
}

/// Frontier + relevance state of a crawl, sufficient to resume the run in
/// a fresh session ([`CrawlSession::restore`]) — the paper's long-lived
/// crawls survive administrative restarts this way.
#[derive(Debug, Clone)]
pub struct CrawlCheckpoint {
    /// Every `CRAWL` row (frontier, visited, dead; claims demoted).
    pub pages: Vec<CheckpointPage>,
    /// Every `LINK` row `(src, sid_src, dst, sid_dst, discovered)`.
    pub links: Vec<(Oid, u32, Oid, u32, i64)>,
    /// Linear relevance of visited pages.
    pub relevance: Vec<(Oid, f64)>,
    /// Saved per-page posteriors (for post-resume re-marking).
    pub class_probs: Vec<(Oid, Vec<(ClassId, f64)>)>,
    /// Counters and harvest series at checkpoint time.
    pub stats: CrawlStats,
    /// Fetch attempts left in the budget.
    pub budget_remaining: u64,
    /// Live link-expansion policy.
    pub policy: CrawlPolicy,
    /// Names of the good topics at checkpoint time.
    pub good_topics: Vec<String>,
    /// The tick clock at checkpoint time — restored verbatim so parked
    /// rows serve out exactly their remaining cooldowns.
    pub clock: u64,
}

impl CrawlCheckpoint {
    /// Frontier entries captured (poppable work after restore).
    pub fn frontier_len(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| p.state == visited::FRONTIER)
            .count()
    }

    /// Visited pages captured.
    pub fn visited_len(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| p.state == visited::DONE)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CrawlObserver;
    use focus_classifier::train::{train, TrainConfig};
    use focus_types::ClassId;
    use focus_webgraph::{FetchedPage, SimFetcher, WebConfig, WebGraph};
    use std::sync::Mutex as StdMutex;

    fn trained_model(graph: &Arc<WebGraph>, good: &str) -> TrainedModel {
        let mut taxonomy = graph.taxonomy().clone();
        let topic = taxonomy.find(good).unwrap();
        taxonomy.mark_good(topic).unwrap();
        let mut examples = Vec::new();
        for c in taxonomy.all() {
            if c == ClassId::ROOT {
                continue;
            }
            for d in graph.example_docs(c, 6, 99) {
                examples.push((c, d));
            }
        }
        train(&taxonomy, &examples, &TrainConfig::default())
    }

    fn setup(policy: CrawlPolicy, max_fetches: u64) -> (Arc<WebGraph>, Arc<CrawlSession>) {
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let model = trained_model(&graph, "recreation/cycling");
        let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
        let cfg = CrawlConfig {
            policy,
            threads: 2,
            max_fetches,
            distill_every: Some(150),
            hub_boost_top_k: 5,
            ..CrawlConfig::default()
        };
        let session = Arc::new(CrawlSession::new(fetcher, model, cfg).unwrap());
        (graph, session)
    }

    #[test]
    fn focused_crawl_harvests_relevant_pages() {
        // Budget stays under the tiny world's cycling-cluster size (~63
        // pages): sustained harvest is only meaningful when the topic is
        // not exhausted, as in the paper's Web-scale crawls.
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 160);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 15);
        session.seed(&seeds).unwrap();
        let stats = session.run().unwrap();
        assert!(stats.successes > 80, "only {} successes", stats.successes);
        assert!(
            stats.mean_harvest() > 0.25,
            "harvest too low: {}",
            stats.mean_harvest()
        );
        assert!(stats.distillations > 0, "distillation trigger never fired");
    }

    #[test]
    fn focused_beats_unfocused() {
        let run = |policy| {
            let (graph, session) = setup(policy, 350);
            let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
            let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 15);
            session.seed(&seeds).unwrap();
            let stats = session.run().unwrap();
            // Harvest of the *tail* (after the start set's immediate
            // neighborhood is exhausted).
            let tail: Vec<f64> = stats
                .harvest
                .iter()
                .skip(stats.harvest.len() / 2)
                .map(|&(_, r)| r)
                .collect();
            tail.iter().sum::<f64>() / tail.len().max(1) as f64
        };
        let soft = run(CrawlPolicy::SoftFocus);
        let unfocused = run(CrawlPolicy::Unfocused);
        assert!(
            soft > unfocused * 2.0,
            "soft focus tail harvest {soft} should dominate unfocused {unfocused}"
        );
    }

    #[test]
    fn crawl_survives_failures_and_counts_them() {
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 500);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 15);
        session.seed(&seeds).unwrap();
        let stats = session.run().unwrap();
        // The tiny web has ~5% failing pages; a 500-attempt crawl should
        // hit some and keep going.
        assert!(stats.failures > 0, "no failures encountered");
        assert_eq!(
            stats.attempts,
            stats.successes + stats.failures,
            "attempts must equal successes + failures"
        );
    }

    #[test]
    fn visited_and_links_are_recorded() {
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 150);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
        session.seed(&seeds).unwrap();
        session.run().unwrap();
        let visited = session.visited();
        assert!(!visited.is_empty());
        for (_, r, _) in &visited {
            assert!((0.0..=1.0 + 1e-9).contains(r), "relevance {r} out of range");
        }
        assert!(!session.links().is_empty());
        // CRAWL/LINK queryable via SQL.
        let n = session.with_db(|db| {
            db.execute("select count(*) from link")
                .unwrap()
                .scalar_i64()
                .unwrap()
        });
        assert!(n > 0);
    }

    #[test]
    fn single_thread_is_deterministic() {
        let run_once = || {
            let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
            let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
            let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
            let model = trained_model(&graph, "recreation/cycling");
            let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
            let session = Arc::new(
                CrawlSession::new(
                    fetcher,
                    model,
                    CrawlConfig {
                        threads: 1,
                        max_fetches: 200,
                        distill_every: None,
                        ..CrawlConfig::default()
                    },
                )
                .unwrap(),
            );
            session.seed(&seeds).unwrap();
            let stats = session.run().unwrap();
            stats.harvest
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn moving_average_smooths() {
        let mut stats = CrawlStats::default();
        for i in 0..100u64 {
            stats.harvest.push((i, if i % 2 == 0 { 1.0 } else { 0.0 }));
        }
        let avg = stats.harvest_moving_avg(10);
        assert_eq!(avg.len(), 91);
        for &(_, v) in &avg {
            assert!((v - 0.5).abs() < 0.11, "window mean {v} far from 0.5");
        }
    }

    /// Observer that records every event, for sequence assertions.
    struct Recorder(StdMutex<Vec<CrawlEvent>>);

    impl CrawlObserver for Arc<Recorder> {
        fn on_event(&self, event: &CrawlEvent) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    fn position_of(events: &[CrawlEvent], pred: impl Fn(&CrawlEvent) -> bool) -> usize {
        events
            .iter()
            .position(pred)
            .unwrap_or_else(|| panic!("event not found in {events:?}"))
    }

    #[test]
    fn pause_resume_stop_events_are_ordered() {
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 100_000);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(
                &graph, cycling, 10,
            ))
            .unwrap();
        let recorder = Arc::new(Recorder(StdMutex::new(Vec::new())));
        let run = session
            .start_with(StartOptions {
                observers: vec![Arc::new(Arc::clone(&recorder))],
                ..StartOptions::default()
            })
            .unwrap();
        // Let some pages land, then pause -> resume -> stop.
        while run.stats().successes < 5 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        run.pause();
        while run.state() != RunState::Paused {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let paused_attempts = run.stats().attempts;
        // A paused crawl stops claiming; attempts stay flat.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(
            run.stats().attempts,
            paused_attempts,
            "claimed while paused"
        );
        run.resume();
        let resumed_at = run.stats().attempts;
        while run.stats().attempts < resumed_at + 5 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        run.stop();
        let stats = run.join().unwrap();
        assert!(stats.attempts > paused_attempts, "no progress after resume");
        let events = recorder.0.lock().unwrap().clone();
        let paused = position_of(&events, |e| matches!(e, CrawlEvent::Paused));
        let resumed = position_of(&events, |e| matches!(e, CrawlEvent::Resumed));
        let stopped = position_of(&events, |e| matches!(e, CrawlEvent::Stopped { .. }));
        assert!(paused < resumed, "Paused at {paused}, Resumed at {resumed}");
        assert!(
            resumed < stopped,
            "Resumed at {resumed}, Stopped at {stopped}"
        );
        // Classification resumed between Resumed and Stopped.
        assert!(
            events[resumed..stopped]
                .iter()
                .any(|e| matches!(e, CrawlEvent::PageClassified { .. })),
            "no pages classified between resume and stop: {events:?}"
        );
    }

    #[test]
    fn budget_exhaustion_is_announced_once() {
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 40);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(
                &graph, cycling, 10,
            ))
            .unwrap();
        let mut run = session.start().unwrap();
        let events = run.take_events().unwrap();
        let stats = run.join().unwrap();
        assert_eq!(stats.attempts, 40);
        let all: Vec<CrawlEvent> = events.collect();
        let exhausted = all
            .iter()
            .filter(|e| matches!(e, CrawlEvent::BudgetExhausted { .. }))
            .count();
        assert_eq!(
            exhausted, 1,
            "expected exactly one BudgetExhausted: {all:?}"
        );
        let classified = all
            .iter()
            .filter(|e| matches!(e, CrawlEvent::PageClassified { .. }))
            .count() as u64;
        assert_eq!(classified, stats.successes, "one event per success");
    }

    /// A fetcher whose pages panic the worker after `ok_before` fetches.
    struct PanickingFetcher {
        inner: Arc<SimFetcher>,
        ok_before: u64,
        served: std::sync::atomic::AtomicU64,
    }

    impl Fetcher for PanickingFetcher {
        fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
            let n = self.served.fetch_add(1, Ordering::Relaxed);
            if n >= self.ok_before {
                panic!("fetcher exploded on purpose (fetch #{n})");
            }
            self.inner.fetch(oid)
        }

        fn fetch_count(&self) -> u64 {
            self.served.load(Ordering::Relaxed)
        }

        fn backlinks(&self, oid: Oid) -> Option<Vec<(Oid, String)>> {
            self.inner.backlinks(oid)
        }
    }

    #[test]
    fn worker_panic_surfaces_as_event_and_error() {
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let model = trained_model(&graph, "recreation/cycling");
        let fetcher = Arc::new(PanickingFetcher {
            inner: Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
            ok_before: 10,
            served: std::sync::atomic::AtomicU64::new(0),
        });
        let session = Arc::new(
            CrawlSession::new(
                fetcher,
                model,
                CrawlConfig {
                    threads: 2,
                    max_fetches: 500,
                    distill_every: None,
                    ..CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(
                &graph, cycling, 10,
            ))
            .unwrap();
        // Silence the worker's panic backtrace; it is expected here.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut run = session.start().unwrap();
        let events = run.take_events().unwrap();
        let outcome = run.join();
        std::panic::set_hook(prev_hook);
        let err = outcome.expect_err("worker panic must fail the run");
        assert!(
            matches!(&err, CrawlError::Worker(m) if m.contains("exploded")),
            "unexpected outcome: {err:?}"
        );
        let all: Vec<CrawlEvent> = events.collect();
        assert!(
            all.iter()
                .any(|e| matches!(e, CrawlEvent::WorkerFailed { .. })),
            "no WorkerFailed event: {all:?}"
        );
    }

    /// A fetcher that panics while `explode` is set.
    struct TogglePanicFetcher {
        inner: Arc<SimFetcher>,
        explode: std::sync::atomic::AtomicBool,
    }

    impl Fetcher for TogglePanicFetcher {
        fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
            if self.explode.load(Ordering::Relaxed) {
                panic!("toggled failure");
            }
            self.inner.fetch(oid)
        }

        fn fetch_count(&self) -> u64 {
            self.inner.fetch_count()
        }
    }

    #[test]
    fn session_is_reusable_after_a_failed_run() {
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let model = trained_model(&graph, "recreation/cycling");
        let fetcher = Arc::new(TogglePanicFetcher {
            inner: Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
            explode: std::sync::atomic::AtomicBool::new(true),
        });
        let session = Arc::new(
            CrawlSession::new(
                Arc::clone(&fetcher) as Arc<dyn Fetcher>,
                model,
                CrawlConfig {
                    // One worker, deterministically: with two, both can
                    // claim before the first panic aborts the pool,
                    // leaking *every* seed as CLAIMED — the healed rerun
                    // then (correctly) stagnates with zero successes,
                    // which is not the property under test. One worker
                    // claims one batch (8 of the 10 seeds), panics, and
                    // provably leaves poppable work behind.
                    threads: 1,
                    max_fetches: 100,
                    distill_every: None,
                    ..CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(
                &graph, cycling, 10,
            ))
            .unwrap();
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let failed = session.run();
        std::panic::set_hook(prev_hook);
        assert!(matches!(failed, Err(CrawlError::Worker(_))), "{failed:?}");
        // Heal the fetcher; a command pushed to the dead run must not
        // leak into the next one, and the next run must be judged on its
        // own work, not the stale panic.
        fetcher.explode.store(false, Ordering::Relaxed);
        let stats = session.run().expect("healthy rerun succeeds");
        assert!(stats.successes > 0, "no progress after restart");
    }

    /// A fetcher whose very first fetch panics (unwinding out of the
    /// worker with claims checked out and the in-flight gauge raised),
    /// and which serves hard 404s ever after.
    struct PanicThenDeadFetcher {
        served: std::sync::atomic::AtomicU64,
    }

    impl Fetcher for PanicThenDeadFetcher {
        fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
            if self.served.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("first fetch dies with the batch checked out");
            }
            Err(FetchError::NotFound(oid))
        }

        fn fetch_count(&self) -> u64 {
            self.served.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn in_flight_leaked_by_a_panicked_run_does_not_wedge_the_next() {
        // The panic unwinds with several claims never released: the
        // in-flight gauge stays raised and the rows stay CLAIMED. The
        // next run must still be able to detect stagnation — if the
        // stale gauge leaked across runs, its workers would wait for
        // phantom in-flight work forever and this test would hang.
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let model = trained_model(&graph, "recreation/cycling");
        let session = Arc::new(
            CrawlSession::new(
                Arc::new(PanicThenDeadFetcher {
                    served: std::sync::atomic::AtomicU64::new(0),
                }),
                model,
                CrawlConfig {
                    threads: 2,
                    max_fetches: 1000,
                    max_tries: 3,
                    distill_every: None,
                    batch_size: 8,
                    ..CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        session.seed(&[Oid(1), Oid(2), Oid(3)]).unwrap();
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let failed = session.run();
        std::panic::set_hook(prev_hook);
        assert!(matches!(failed, Err(CrawlError::Worker(_))), "{failed:?}");

        // Fresh frontier, everything 404s: the rerun must stagnate and
        // return rather than spin on the leaked gauge.
        session.seed(&[Oid(4), Oid(5), Oid(6)]).unwrap();
        let stats = session.run().expect("rerun must terminate");
        assert!(stats.failures > 0, "rerun made no attempts: {stats:?}");
    }

    #[test]
    fn checkpoint_restores_into_fresh_session() {
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 80);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(
                &graph, cycling, 10,
            ))
            .unwrap();
        session.run().unwrap();
        let ckpt = session.checkpoint().unwrap();
        assert!(ckpt.visited_len() > 0);
        assert!(
            ckpt.frontier_len() > 0,
            "budget-bounded crawl leaves a frontier"
        );
        assert_eq!(ckpt.stats.attempts, 80);
        assert_eq!(ckpt.budget_remaining, 0);
        assert_eq!(ckpt.good_topics, vec!["recreation/cycling".to_owned()]);

        // Resume in a brand-new session against the same web.
        let model = trained_model(&graph, "recreation/cycling");
        let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
        let restored = Arc::new(
            CrawlSession::restore(
                fetcher,
                model,
                CrawlConfig {
                    threads: 2,
                    max_fetches: 80,
                    distill_every: Some(150),
                    ..CrawlConfig::default()
                },
                &ckpt,
            )
            .unwrap(),
        );
        assert_eq!(restored.stats().attempts, 80, "stats carried over");
        assert_eq!(restored.visited().len(), ckpt.visited_len());
        restored.add_budget(60);
        let stats = restored.run().unwrap();
        assert_eq!(
            stats.attempts, 140,
            "run continued against the old frontier"
        );
        assert!(
            stats.successes > ckpt.stats.successes,
            "no new pages after restore"
        );
        // The harvest series is continuous: early entries are the
        // checkpointed ones.
        assert_eq!(
            stats.harvest[..ckpt.stats.harvest.len()],
            ckpt.stats.harvest[..],
            "restored harvest prefix diverged"
        );
    }

    #[test]
    fn seeds_carry_real_urls() {
        // Satellite of the empty-URL bug: `seed()` must resolve URLs via
        // the fetcher's metadata so claims, checkpoints, and monitoring
        // SQL never see "" for seeds.
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 50);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
        session.seed(&seeds).unwrap();
        let empty = session.with_db(|db| {
            db.execute("select count(*) from crawl where url = ''")
                .unwrap()
                .scalar_i64()
                .unwrap()
        });
        assert_eq!(empty, 0, "seeded frontier rows must carry real URLs");
        let mut g = session.store.write();
        let claim = frontier::claim_next(&mut g.db).unwrap().unwrap();
        assert!(!claim.url.is_empty(), "claims of seeds carry the URL");
        drop(g);
        let ckpt = session.checkpoint().unwrap();
        assert!(
            ckpt.pages.iter().all(|p| !p.url.is_empty()),
            "checkpointed seeds must carry URLs"
        );
    }

    /// A fetcher that always times out (everything is retriable, nothing
    /// ever lands).
    struct AllTimeoutFetcher;

    impl Fetcher for AllTimeoutFetcher {
        fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
            Err(FetchError::Timeout(oid))
        }

        fn fetch_count(&self) -> u64 {
            0
        }
    }

    #[test]
    fn in_flight_drains_on_failure_paths() {
        // Every attempt fails; if any error path forgot to decrement
        // `in_flight`, the EmptyFrontier branch would see phantom work
        // forever and the run would never stagnate (this test would
        // hang).
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let model = trained_model(&graph, "recreation/cycling");
        let session = Arc::new(
            CrawlSession::new(
                Arc::new(AllTimeoutFetcher),
                model,
                CrawlConfig {
                    threads: 3,
                    max_fetches: 1000,
                    max_tries: 2,
                    distill_every: None,
                    ..CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        session.seed(&[Oid(1), Oid(2), Oid(3)]).unwrap();
        let recorder = Arc::new(Recorder(StdMutex::new(Vec::new())));
        let run = session
            .start_with(StartOptions {
                observers: vec![Arc::new(Arc::clone(&recorder))],
                ..StartOptions::default()
            })
            .unwrap();
        let stats = run.join().unwrap();
        // 3 seeds × 2 tries each, then all dead.
        assert_eq!(stats.attempts, 6);
        assert_eq!(stats.failures, 6);
        assert_eq!(stats.successes, 0);
        let events = recorder.0.lock().unwrap().clone();
        let stagnated = events
            .iter()
            .filter(|e| matches!(e, CrawlEvent::FrontierStagnated { .. }))
            .count();
        assert_eq!(
            stagnated, 1,
            "stagnation announced exactly once: {events:?}"
        );
    }

    /// A fetcher that holds every fetch for a fixed delay, widening the
    /// window in which a peer worker sees an empty frontier while work
    /// is in flight.
    struct SlowFetcher {
        inner: Arc<SimFetcher>,
        delay: std::time::Duration,
    }

    impl Fetcher for SlowFetcher {
        fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
            std::thread::sleep(self.delay);
            self.inner.fetch(oid)
        }

        fn fetch_count(&self) -> u64 {
            self.inner.fetch_count()
        }

        fn url_of(&self, oid: Oid) -> Option<String> {
            self.inner.url_of(oid)
        }
    }

    #[test]
    fn workers_wait_for_in_flight_peers_instead_of_finishing() {
        // One seed, several workers: all but one worker see an empty
        // frontier immediately while the fetch is in flight. They must
        // idle-wait — not emit FrontierStagnated or exit — because the
        // in-flight page is about to enqueue its outlinks.
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 1);
        let model = trained_model(&graph, "recreation/cycling");
        let fetcher = Arc::new(SlowFetcher {
            inner: Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
            delay: std::time::Duration::from_millis(3),
        });
        let budget = 25;
        let session = Arc::new(
            CrawlSession::new(
                fetcher,
                model,
                CrawlConfig {
                    threads: 4,
                    max_fetches: budget,
                    distill_every: None,
                    // claim-per-page: maximizes empty-frontier windows
                    batch_size: 1,
                    ..CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        session.seed(&seeds).unwrap();
        let recorder = Arc::new(Recorder(StdMutex::new(Vec::new())));
        let run = session
            .start_with(StartOptions {
                observers: vec![Arc::new(Arc::clone(&recorder))],
                ..StartOptions::default()
            })
            .unwrap();
        let stats = run.join().unwrap();
        assert!(
            stats.attempts > 1,
            "peers must survive the single-seed start: {stats:?}"
        );
        let events = recorder.0.lock().unwrap().clone();
        for e in &events {
            if let CrawlEvent::FrontierStagnated { attempts } = e {
                assert!(
                    *attempts > 1,
                    "premature stagnation with a peer in flight: {events:?}"
                );
            }
        }
    }

    #[test]
    fn stop_mid_batch_returns_unfetched_claims_within_one_page() {
        // A stop (here: pause → stop while parked) must end the batch at
        // the next page boundary and hand the unfetched remainder back
        // to the frontier — not fetch out the whole batch first.
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
        let model = trained_model(&graph, "recreation/cycling");
        let fetcher = Arc::new(SlowFetcher {
            inner: Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
            delay: std::time::Duration::from_millis(10),
        });
        let session = Arc::new(
            CrawlSession::new(
                fetcher,
                model,
                CrawlConfig {
                    threads: 1,
                    max_fetches: 100_000,
                    distill_every: None,
                    batch_size: 16,
                    ..CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        session.seed(&seeds).unwrap();
        let run = session.start().unwrap();
        while run.stats().successes < 1 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        run.pause();
        while run.state() != RunState::Paused && !run.is_finished() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        run.stop();
        let stats = run.join().unwrap();
        // The worker paused mid-batch after a page or two of its
        // 16-claim batch; the rest must have been returned, not fetched.
        assert!(
            stats.successes + stats.failures < stats.attempts,
            "stop processed the whole batch: {stats:?}"
        );
        // Nothing may be left stuck in the CLAIMED state.
        let claimed = session.with_db(|db| {
            db.execute("select count(*) from crawl where visited = 2")
                .unwrap()
                .scalar_i64()
                .unwrap()
        });
        assert_eq!(claimed, 0, "claims leaked after stop");
        // The returned work is poppable again.
        let mut g = session.store.write();
        assert!(
            frontier::claim_next(&mut g.db).unwrap().is_some(),
            "returned claims must be poppable"
        );
    }

    #[test]
    fn batch_size_override_applies_per_run() {
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 62);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(
                &graph, cycling, 10,
            ))
            .unwrap();
        let run = session
            .start_with(StartOptions {
                batch_size: Some(4),
                ..StartOptions::default()
            })
            .unwrap();
        let stats = run.join().unwrap();
        // The budget is honored exactly even when it is not a multiple
        // of the batch size (claims are clamped to the remainder).
        assert_eq!(stats.attempts, 62);
        assert!(stats.successes > 0);
    }

    #[test]
    fn successful_fetch_without_eval_is_a_recorded_failure_not_a_panic() {
        // Regression for the `eval.expect("successful fetches are
        // classified")` panic path: a successful fetch whose evaluation
        // is absent must surface as a retriable failure (mark_failed +
        // FetchFailed) and leave the page refetchable — never kill the
        // worker.
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 50);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 1);
        session.seed(&seeds).unwrap();
        let recorder = Arc::new(Recorder(StdMutex::new(Vec::new())));
        let sink = EventSink::new(
            None,
            vec![Arc::new(Arc::clone(&recorder))],
            Arc::new(AtomicU64::new(0)),
        );
        let mut g = session.store.write();
        let claim = frontier::claim_next(&mut g.db).unwrap().unwrap();
        let page = session.fetcher.fetch(claim.oid).expect("seed page fetches");
        // Inject the invariant break: Ok(page) with no evaluation.
        session
            .process(&mut g, &claim, Ok(page), None, 1, &sink)
            .expect("no storage error");
        drop(g);
        let stats = session.stats();
        assert_eq!(stats.failures, 1, "must count as a failure");
        assert_eq!(stats.successes, 0);
        let events = recorder.0.lock().unwrap().clone();
        assert!(
            events.iter().any(|e| matches!(
                e,
                CrawlEvent::FetchFailed {
                    retriable: true,
                    ..
                }
            )),
            "expected a retriable FetchFailed: {events:?}"
        );
        // The page went back to the frontier with numtries advanced.
        let mut g = session.store.write();
        let again = frontier::claim_next(&mut g.db).unwrap().unwrap();
        assert_eq!(again.oid, claim.oid);
        assert_eq!(again.numtries, 1);
    }

    #[test]
    fn distill_now_on_a_fresh_session_returns_empty_not_panic() {
        // Regression for the `.expect("just distilled")` panic path: an
        // empty link graph distills to an empty result.
        let (_graph, session) = setup(CrawlPolicy::SoftFocus, 10);
        let result = session
            .distill_now()
            .expect("empty-graph distillation succeeds");
        assert!(result.hubs.is_empty(), "no edges, no hubs");
        assert!(result.auths.is_empty(), "no edges, no authorities");
        assert!(session.last_distill().is_some(), "result recorded");
        assert_eq!(session.stats().distillations, 1);
        // maintenance_pass rides on the same path.
        let (revisited, new_links) = session.maintenance_pass(5).unwrap();
        assert_eq!((revisited, new_links), (0, 0));
    }

    #[test]
    fn checkpoint_surfaces_corrupt_crawl_rows() {
        // Regression for the silent unwrap_or decodes: a torn CRAWL row
        // must fail the checkpoint loudly, not resurrect an
        // Oid(0)/empty-URL page into the restored session.
        let (_graph, session) = setup(CrawlPolicy::SoftFocus, 10);
        session.with_db(|db| {
            let tid = db.table_id("crawl").unwrap();
            let mut row = tables::frontier_row(Oid(7), "u7", -0.5, 0);
            row[crawl_col::URL] = Value::Null;
            db.insert(tid, row).unwrap();
        });
        let err = session.checkpoint().unwrap_err();
        assert!(
            matches!(err, DbError::Corrupt(ref m) if m.contains("url")),
            "expected Corrupt(url), got {err:?}"
        );
    }

    #[test]
    fn checkpoint_surfaces_corrupt_link_rows() {
        let (_graph, session) = setup(CrawlPolicy::SoftFocus, 10);
        session.with_db(|db| {
            let tid = db.table_id("link").unwrap();
            db.insert(
                tid,
                vec![
                    Value::Int(1),
                    Value::Int(2),
                    Value::Null, // torn oid_dst
                    Value::Int(4),
                    Value::Int(5),
                ],
            )
            .unwrap();
        });
        let err = session.checkpoint().unwrap_err();
        assert!(
            matches!(err, DbError::Corrupt(ref m) if m.contains("oid_dst")),
            "expected Corrupt(link.oid_dst), got {err:?}"
        );
    }

    #[test]
    fn set_policy_switches_live() {
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 10_000);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        session
            .seed(&focus_webgraph::search::topic_start_set(
                &graph, cycling, 10,
            ))
            .unwrap();
        let run = session.start().unwrap();
        run.set_policy(CrawlPolicy::Unfocused);
        while session.policy() != CrawlPolicy::Unfocused && !run.is_finished() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(session.policy(), CrawlPolicy::Unfocused);
        run.stop();
        run.join().unwrap();
    }

    #[test]
    fn fetch_failed_events_carry_kind_and_outcome() {
        // Satellite of the enriched-event contract: every failure names
        // its error kind and actual disposition, and each requeue is
        // announced (FetchRetried) before the retry's own verdict.
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let model = trained_model(&graph, "recreation/cycling");
        let session = Arc::new(
            CrawlSession::new(
                Arc::new(AllTimeoutFetcher),
                model,
                CrawlConfig {
                    threads: 1,
                    max_fetches: 100,
                    max_tries: 3,
                    distill_every: None,
                    backoff: BackoffConfig { base: 2, max: 4 },
                    ..CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        session.seed(&[Oid(1)]).unwrap();
        let recorder = Arc::new(Recorder(StdMutex::new(Vec::new())));
        let run = session
            .start_with(StartOptions {
                observers: vec![Arc::new(Arc::clone(&recorder))],
                ..StartOptions::default()
            })
            .unwrap();
        let stats = run.join().unwrap();
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.failures, 3);
        let events = recorder.0.lock().unwrap().clone();
        let fail_pos: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, CrawlEvent::FetchFailed { .. }))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(fail_pos.len(), 3, "{events:?}");
        for (k, &i) in fail_pos.iter().enumerate() {
            let CrawlEvent::FetchFailed {
                oid,
                retriable,
                error,
                outcome,
                ..
            } = &events[i]
            else {
                unreachable!()
            };
            assert_eq!(*oid, Oid(1));
            assert_eq!(*error, FetchErrorKind::Timeout);
            assert!(*retriable, "timeouts are kind-retriable");
            if k < 2 {
                // Default breaker threshold (5) never trips here, so
                // the page backs off rather than parks.
                assert!(
                    matches!(outcome, FailureOutcome::Retried { not_before } if *not_before > 0),
                    "attempt {k} outcome: {outcome:?}"
                );
            } else {
                assert_eq!(*outcome, FailureOutcome::Dead, "max_tries reached");
            }
        }
        // Each backoff expiry is announced between the failure that
        // caused it and the retry's own failure.
        let r1 = position_of(&events, |e| {
            matches!(e, CrawlEvent::FetchRetried { numtries: 1, .. })
        });
        let r2 = position_of(&events, |e| {
            matches!(e, CrawlEvent::FetchRetried { numtries: 2, .. })
        });
        assert!(
            fail_pos[0] < r1 && r1 < fail_pos[1],
            "first retry at {r1}, failures at {fail_pos:?}"
        );
        assert!(
            fail_pos[1] < r2 && r2 < fail_pos[2],
            "second retry at {r2}, failures at {fail_pos:?}"
        );
    }

    #[test]
    fn dry_retry_budget_never_starves_first_visits() {
        // Satellite regression for retry starvation: with every fetch
        // timing out and only two retries in the budget, every seed must
        // still get its first visit, hopeless retries must stop the
        // moment the budget dries (terminal Dead, not endless requeues),
        // and the run must terminate with fetch budget to spare.
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
        let model = trained_model(&graph, "recreation/cycling");
        let session = Arc::new(
            CrawlSession::new(
                Arc::new(AllTimeoutFetcher),
                model,
                CrawlConfig {
                    threads: 1,
                    max_fetches: 1000,
                    max_tries: 5,
                    distill_every: None,
                    backoff: BackoffConfig { base: 2, max: 4 },
                    // Never trip the breaker: this test isolates the
                    // retry budget.
                    breaker: BreakerConfig {
                        threshold: u32::MAX,
                        cooldown: 4,
                        max_cooldown: 8,
                    },
                    retry_budget: 2,
                    ..CrawlConfig::default()
                },
            )
            .unwrap(),
        );
        let seeds: Vec<Oid> = (1..=6).map(Oid).collect();
        session.seed(&seeds).unwrap();
        let recorder = Arc::new(Recorder(StdMutex::new(Vec::new())));
        let run = session
            .start_with(StartOptions {
                observers: vec![Arc::new(Arc::clone(&recorder))],
                ..StartOptions::default()
            })
            .unwrap();
        let stats = run.join().unwrap();
        // 6 first visits + exactly the 2 budgeted retries.
        assert_eq!(stats.attempts, 8, "{stats:?}");
        assert_eq!(stats.failures, 8);
        assert!(
            stats.attempts < 1000,
            "fetch budget must survive a dry retry budget"
        );
        let events = recorder.0.lock().unwrap().clone();
        let mut seen = std::collections::HashSet::new();
        let (mut requeued, mut dead) = (0, 0);
        for e in &events {
            if let CrawlEvent::FetchFailed { oid, outcome, .. } = e {
                seen.insert(*oid);
                match outcome {
                    FailureOutcome::Retried { .. } | FailureOutcome::Parked { .. } => {
                        requeued += 1;
                    }
                    FailureOutcome::Dead => dead += 1,
                }
            }
        }
        assert_eq!(seen.len(), 6, "every seed got its first visit");
        assert_eq!(requeued, 2, "exactly the budgeted retries requeued");
        assert_eq!(dead, 6, "everything else died promptly");
    }

    #[test]
    fn parked_rows_survive_checkpoint_and_restore() {
        // Satellite of the parking/durability coupling: a parked row
        // keeps its `not_before` through checkpoint/restore, and the
        // tick clock rides along, so the row serves out exactly its
        // remaining cooldown in the restored session.
        let (graph, session) = setup(CrawlPolicy::SoftFocus, 80);
        let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 5);
        session.seed(&seeds).unwrap();
        let parked_oid = {
            let mut g = session.store.write();
            let claim = frontier::claim_next(&mut g.db).unwrap().unwrap();
            frontier::park_batch(&mut g.db, &[(claim.oid, 42)]).unwrap();
            claim.oid
        };
        session.counters.clock.store(7, Ordering::Release);
        let ckpt = session.checkpoint().unwrap();
        assert_eq!(ckpt.clock, 7, "tick clock checkpointed");
        let page = ckpt
            .pages
            .iter()
            .find(|p| p.oid == parked_oid)
            .expect("parked row in checkpoint");
        assert_eq!(page.state, visited::FRONTIER, "parked rows are frontier");
        assert_eq!(page.not_before, 42, "cooldown survives the checkpoint");

        let model = trained_model(&graph, "recreation/cycling");
        let restored = CrawlSession::restore(
            Arc::new(SimFetcher::new(Arc::clone(&graph), None)),
            model,
            CrawlConfig {
                threads: 1,
                max_fetches: 80,
                distill_every: None,
                ..CrawlConfig::default()
            },
            &ckpt,
        )
        .unwrap();
        assert_eq!(
            restored.counters.clock.load(Ordering::Acquire),
            7,
            "clock restored verbatim"
        );
        let mut g = restored.store.write();
        // Before its tick the row hides from claims without losing its
        // place...
        let early = frontier::claim_batch(&mut g.db, 16, 7).unwrap();
        assert!(
            early.claims.iter().all(|c| c.oid != parked_oid),
            "parked row popped early: {early:?}"
        );
        assert_eq!(early.parked, 1, "parked row visible to the idle verdict");
        assert_eq!(early.next_due, Some(42));
        // ...and pops the moment the clock reaches it.
        let due = frontier::claim_batch(&mut g.db, 16, 42).unwrap();
        assert!(
            due.claims.iter().any(|c| c.oid == parked_oid),
            "parked row must be due at its tick: {due:?}"
        );
    }
}
