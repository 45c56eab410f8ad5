//! The assembled resource-discovery system and its live run handle.
//!
//! The paper's defining workflow is *interactive* (§1.1, §3.7): an
//! administrator starts a crawl, watches harvest, marks topics good or
//! bad, injects seeds, and re-steers the frontier — all against a
//! long-lived run. [`FocusSystem::start`] spawns that run in the
//! background and returns a [`DiscoveryRun`]: a typed event stream,
//! control commands, snapshots, and `join()` for the classic blocking
//! outcome.

use focus_classifier::model::TrainedModel;
use focus_crawler::cluster::{ClusterCheckpoint, CrawlCluster};
use focus_crawler::events::EventStream;
use focus_crawler::run::{CrawlRun, RunState, StartOptions};
use focus_crawler::session::{CrawlCheckpoint, CrawlConfig, CrawlSession, CrawlStats};
use focus_crawler::CrawlPolicy;
use focus_distiller::DistillResult;
use focus_types::{ClassId, FocusError, Oid, ServerId};
use focus_webgraph::Fetcher;
use minirel::Database;
use std::sync::Arc;

/// Everything a crawl needs to continue in a fresh session or process:
/// the frontier, relevance state, link graph, stats, remaining budget,
/// live policy, and good marking. Produced by
/// [`DiscoveryRun::checkpoint`], consumed by [`FocusSystem::resume`].
pub type DiscoverySnapshot = CrawlCheckpoint;

/// One [`DiscoverySnapshot`] per shard plus the manifest (shard count
/// and order). Produced by [`ClusterRun::checkpoint`], consumed by
/// [`FocusSystem::resume_cluster`].
pub type ClusterSnapshot = ClusterCheckpoint;

/// Options for [`FocusSystem::start_with`].
pub type RunOptions = StartOptions;

/// What a discovery run produces.
#[derive(Debug, Clone)]
pub struct DiscoveryOutcome {
    /// Crawl counters and the harvest series.
    pub stats: CrawlStats,
    /// Final distillation (top hubs/authorities of the discovered
    /// subgraph).
    pub distill: DistillResult,
    /// Visited pages as `(oid, linear R, server)`.
    pub visited: Vec<(Oid, f64, ServerId)>,
}

/// A trained, crawl-ready Focus instance.
pub struct FocusSystem {
    model: TrainedModel,
    session: Arc<CrawlSession>,
    cfg: CrawlConfig,
    fetcher: Arc<dyn Fetcher>,
}

impl FocusSystem {
    pub(crate) fn new(
        model: TrainedModel,
        session: Arc<CrawlSession>,
        cfg: CrawlConfig,
        fetcher: Arc<dyn Fetcher>,
    ) -> Self {
        FocusSystem {
            model,
            session,
            cfg,
            fetcher,
        }
    }

    /// The trained classifier **as built**. A live `mark_topic` changes
    /// the *session's* copy; see [`CrawlSession::with_model`].
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// The compiled inference engine serving the crawl hot path — a
    /// consistent snapshot under the *live* marking (it tracks
    /// `mark_topic`, unlike [`FocusSystem::model`]). Pair with a
    /// per-thread [`focus_classifier::compiled::Scratch`] to classify
    /// documents exactly as — and as fast as — the crawl does.
    pub fn compiled(&self) -> std::sync::Arc<focus_classifier::CompiledModel> {
        self.session.compiled()
    }

    /// The crawl configuration in effect.
    pub fn config(&self) -> &CrawlConfig {
        &self.cfg
    }

    /// The live crawl session (seed/monitor piecemeal).
    pub fn session(&self) -> &Arc<CrawlSession> {
        &self.session
    }

    /// Seed with `D(C*)` and spawn the crawl in the background, returning
    /// the steering handle.
    pub fn start(&self, seeds: &[Oid]) -> Result<DiscoveryRun, FocusError> {
        self.start_with(seeds, RunOptions::default())
    }

    /// [`FocusSystem::start`] with an explicit event-channel capacity and
    /// observers.
    pub fn start_with(&self, seeds: &[Oid], opts: RunOptions) -> Result<DiscoveryRun, FocusError> {
        self.session.seed(seeds)?;
        let run = self.session.start_with(opts)?;
        Ok(DiscoveryRun { run })
    }

    /// Rebuild a system around a [`DiscoverySnapshot`], so a checkpointed
    /// crawl resumes in a fresh session: frontier, stats, budget, link
    /// graph, and good marking all carry over. Call
    /// [`FocusSystem::start`] with no (or extra) seeds to continue.
    pub fn resume(&self, snapshot: &DiscoverySnapshot) -> Result<FocusSystem, FocusError> {
        let session = Arc::new(CrawlSession::restore(
            Arc::clone(&self.fetcher),
            self.model.clone(),
            self.cfg.clone(),
            snapshot,
        )?);
        Ok(FocusSystem {
            model: self.model.clone(),
            session,
            cfg: self.cfg.clone(),
            fetcher: Arc::clone(&self.fetcher),
        })
    }

    /// Ad-hoc SQL against the live crawl database with **exclusive**
    /// access (DDL/DML). Blocks workers for the duration; monitoring
    /// SELECTs should use [`FocusSystem::sql`] or
    /// [`FocusSystem::with_db_read`], which run concurrently with the
    /// crawl.
    pub fn with_db<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        self.session.with_db(f)
    }

    /// Read-only access to the live crawl database, concurrent with the
    /// crawl and with other monitors (§3.7 monitoring).
    pub fn with_db_read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        self.session.with_db_read(f)
    }

    /// Ad-hoc SQL against the live session: SELECTs run under the read
    /// lock (never stalling the crawl); other statements escalate to
    /// exclusive access.
    pub fn sql(&self, sql: &str) -> Result<minirel::ResultSet, FocusError> {
        Ok(self.session.sql(sql)?)
    }

    /// Build a sharded crawl cluster from this system's model and
    /// configuration: `n_shards` independent sessions partitioned by
    /// `host_server_id(url) % n_shards`, with the configured worker
    /// count and fetch budget split across shards. Seed and start it
    /// yourself, or use [`FocusSystem::start_cluster`] for the one-call
    /// path.
    pub fn build_cluster(&self, n_shards: usize) -> Result<CrawlCluster, FocusError> {
        Ok(CrawlCluster::new(
            n_shards,
            Arc::clone(&self.fetcher),
            self.model.clone(),
            self.cfg.clone(),
        )?)
    }

    /// Seed `D(C*)` across the shards of a fresh `n_shards`-way cluster
    /// and start every shard's worker pool, returning the cluster
    /// steering handle. The cluster is independent of this system's own
    /// session ([`FocusSystem::start`] remains usable separately).
    pub fn start_cluster(&self, n_shards: usize, seeds: &[Oid]) -> Result<ClusterRun, FocusError> {
        let cluster = self.build_cluster(n_shards)?;
        cluster.seed(seeds)?;
        let run = cluster.start()?;
        Ok(ClusterRun { cluster, run })
    }

    /// Rebuild a cluster from a [`ClusterSnapshot`] (shard count comes
    /// from the manifest). Call [`CrawlCluster::start`] — optionally
    /// after raising per-shard budgets — to continue the crawl.
    pub fn resume_cluster(&self, snapshot: &ClusterSnapshot) -> Result<CrawlCluster, FocusError> {
        Ok(CrawlCluster::restore(
            Arc::clone(&self.fetcher),
            self.model.clone(),
            self.cfg.clone(),
            snapshot,
        )?)
    }
}

/// A live sharded discovery run: the admin console of [`DiscoveryRun`],
/// fanned out over every shard of a [`CrawlCluster`].
///
/// Control commands broadcast (`pause`/`resume`/`stop`, `mark_topic`) or
/// route by owner (`add_seeds`); snapshots sum counters and merge the
/// harvest series. Obtained from [`FocusSystem::start_cluster`].
pub struct ClusterRun {
    cluster: CrawlCluster,
    run: focus_crawler::cluster::ClusterRun,
}

impl ClusterRun {
    /// The underlying cluster (per-shard sessions, monitoring SQL).
    pub fn cluster(&self) -> &CrawlCluster {
        &self.cluster
    }

    /// Take shard `i`'s event stream (callable once per shard).
    pub fn take_events(&mut self, shard: usize) -> Option<EventStream> {
        self.run.take_events(shard)
    }

    /// Pause every shard (latency: one page per shard).
    pub fn pause(&self) {
        self.run.pause()
    }

    /// Release every shard.
    pub fn resume(&self) {
        self.run.resume()
    }

    /// Wind every shard down; [`ClusterRun::join`] then returns promptly.
    pub fn stop(&self) {
        self.run.stop()
    }

    /// Broadcast a §3.7 re-mark to every shard: each recompiles its
    /// classifier and re-steers its own frontier.
    pub fn mark_topic(&self, class: ClassId, good: bool) {
        self.run.mark_topic(class, good)
    }

    /// [`ClusterRun::mark_topic`] by topic name.
    pub fn mark_topic_by_name(&self, name: &str, good: bool) -> Result<ClassId, FocusError> {
        let class = self
            .cluster
            .find_topic(name)
            .ok_or_else(|| FocusError::InvalidTaxonomy(format!("no topic named {name}")))?;
        self.run.mark_topic(class, good);
        Ok(class)
    }

    /// Inject seeds, each routed to its owning shard.
    pub fn add_seeds(&self, seeds: &[Oid]) {
        self.run.add_seeds(seeds)
    }

    /// Raise the cluster-wide budget (split across shards).
    pub fn add_budget(&self, extra: u64) {
        self.run.add_budget(extra)
    }

    /// Summed counters + merged harvest series across shards.
    pub fn stats(&self) -> CrawlStats {
        self.run.stats()
    }

    /// Have all shards' workers exited?
    pub fn is_finished(&self) -> bool {
        self.run.is_finished()
    }

    /// Checkpoint every shard (pause first for stability).
    pub fn checkpoint(&self) -> Result<ClusterSnapshot, FocusError> {
        Ok(self.run.checkpoint()?)
    }

    /// Visited pages across all shards as `(oid, linear R, server)`.
    pub fn visited(&self) -> Vec<(Oid, f64, ServerId)> {
        self.cluster
            .shards()
            .iter()
            .flat_map(|s| s.visited())
            .collect()
    }

    /// Wait for every shard and return merged stats; any shard's
    /// failure fails the cluster.
    pub fn join(self) -> Result<CrawlStats, FocusError> {
        Ok(self.run.join()?)
    }
}

/// A live discovery run: the paper's admin console as an API.
///
/// Obtained from [`FocusSystem::start`]. Control commands are applied by
/// the worker pool at page boundaries; snapshots and ad-hoc SQL are
/// served from the shared session. Consume the handle with
/// [`DiscoveryRun::join`] to get the classic [`DiscoveryOutcome`].
pub struct DiscoveryRun {
    run: CrawlRun,
}

impl DiscoveryRun {
    /// Take ownership of the typed event stream (callable once; iterate
    /// it from a monitoring thread — it ends when the run finishes).
    pub fn take_events(&mut self) -> Option<EventStream> {
        self.run.take_events()
    }

    /// Borrow the event stream, if not yet taken.
    pub fn events(&self) -> Option<&EventStream> {
        self.run.events()
    }

    /// Events dropped because the bounded channel was full.
    pub fn events_dropped(&self) -> u64 {
        self.run.events_dropped()
    }

    /// Hold workers after in-flight fetches land; commands still apply.
    pub fn pause(&self) {
        self.run.pause()
    }

    /// Release paused workers.
    pub fn resume(&self) {
        self.run.resume()
    }

    /// Wind the run down; [`DiscoveryRun::join`] then returns promptly.
    pub fn stop(&self) {
        self.run.stop()
    }

    /// Inject new seeds into the live frontier at top priority.
    pub fn add_seeds(&self, seeds: &[Oid]) {
        self.run.add_seeds(seeds)
    }

    /// Raise the fetch budget of the live run.
    pub fn add_budget(&self, extra: u64) {
        self.run.add_budget(extra)
    }

    /// Switch the link-expansion policy for pages fetched from now on.
    pub fn set_policy(&self, policy: CrawlPolicy) {
        self.run.set_policy(policy)
    }

    /// Re-mark a topic and re-prioritize the frontier mid-crawl — the
    /// paper's "one update statement marking the ancestor good fixed this
    /// stagnation problem" (§3.7), as an API call.
    pub fn mark_topic(&self, class: ClassId, good: bool) {
        self.run.mark_topic(class, good)
    }

    /// [`DiscoveryRun::mark_topic`] by topic name.
    pub fn mark_topic_by_name(&self, name: &str, good: bool) -> Result<ClassId, FocusError> {
        let class = self
            .run
            .find_topic(name)
            .ok_or_else(|| FocusError::InvalidTaxonomy(format!("no topic named {name}")))?;
        self.run.mark_topic(class, good);
        Ok(class)
    }

    /// Force a distillation pass at the next page boundary.
    pub fn distill(&self) {
        self.run.distill()
    }

    /// Distill synchronously and return the result (bypasses the command
    /// queue; runs on the caller's thread).
    pub fn distill_now(&self) -> Result<DistillResult, FocusError> {
        Ok(self.run.session().distill_now()?)
    }

    /// Stats snapshot of the live run.
    pub fn stats(&self) -> CrawlStats {
        self.run.stats()
    }

    /// Lifecycle as seen from the handle.
    pub fn state(&self) -> RunState {
        self.run.state()
    }

    /// Have all workers exited?
    pub fn is_finished(&self) -> bool {
        self.run.is_finished()
    }

    /// Capture frontier + relevance state for [`FocusSystem::resume`].
    /// Pause first for a snapshot stable against the run advancing.
    pub fn checkpoint(&self) -> Result<DiscoverySnapshot, FocusError> {
        Ok(self.run.checkpoint()?)
    }

    /// Ad-hoc SQL against the live crawl database with **exclusive**
    /// access (applied at a page boundary; blocks workers while held).
    /// Monitoring SELECTs should prefer [`DiscoveryRun::sql`] or
    /// [`DiscoveryRun::with_db_read`].
    pub fn with_db<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        self.run.session().with_db(f)
    }

    /// Read-only access to the live crawl database, concurrent with the
    /// crawl and with other monitors (§3.7 monitoring).
    pub fn with_db_read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        self.run.session().with_db_read(f)
    }

    /// Ad-hoc SQL against the live run — the paper's §3.7 console.
    /// SELECTs take the store's read lock and run *while the crawl
    /// runs*; DDL/DML escalates to exclusive access.
    pub fn sql(&self, sql: &str) -> Result<minirel::ResultSet, FocusError> {
        Ok(self.run.session().sql(sql)?)
    }

    /// The compiled classifier snapshot currently steering this run
    /// (tracks live `mark_topic` re-marks).
    pub fn compiled(&self) -> Arc<focus_classifier::CompiledModel> {
        self.run.session().compiled()
    }

    /// The underlying session (shared with the [`FocusSystem`]).
    pub fn session(&self) -> &Arc<CrawlSession> {
        self.run.session()
    }

    /// Wait for the worker pool, then run a final distillation: seed,
    /// crawl to the configured budget, distill — the classic blocking
    /// discovery. Worker panics surface as [`FocusError::Worker`].
    pub fn join(self) -> Result<DiscoveryOutcome, FocusError> {
        let session = Arc::clone(self.run.session());
        let stats = self.run.join()?;
        let distill = session.distill_now()?;
        Ok(DiscoveryOutcome {
            stats,
            distill,
            visited: session.visited(),
        })
    }
}

// Re-export the event vocabulary next to the run handle that produces it.
pub use focus_crawler::events::CrawlEvent as DiscoveryEvent;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::FocusBuilder;
    use focus_crawler::session::CrawlConfig;
    use focus_types::ClassId;
    use focus_webgraph::{SimFetcher, WebConfig, WebGraph};
    use std::sync::Arc;

    fn cycling_system(seed: u64, budget: u64) -> (Arc<WebGraph>, FocusSystem, ClassId) {
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(seed)));
        let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
        let mut builder = FocusBuilder::new(graph.taxonomy().clone());
        let cycling = builder.mark_good_by_name("recreation/cycling").unwrap();
        let topics: Vec<ClassId> = builder.taxonomy().all().collect();
        for c in topics {
            if c != ClassId::ROOT {
                builder.add_examples(c, graph.example_docs(c, 5, 3));
            }
        }
        let system = builder
            .crawl_config(CrawlConfig {
                max_fetches: budget,
                threads: 2,
                distill_every: Some(120),
                ..CrawlConfig::default()
            })
            .build(fetcher)
            .unwrap();
        (graph, system, cycling)
    }

    #[test]
    fn end_to_end_discovery_via_start_join() {
        let (graph, system, cycling) = cycling_system(17, 300);
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 12);
        let outcome = system.start(&seeds).unwrap().join().unwrap();
        assert!(outcome.stats.successes > 50);
        assert!(!outcome.distill.hubs.is_empty(), "final distillation ran");
        assert!(!outcome.visited.is_empty());
        // Monitoring works against the same database.
        let n = system.with_db(|db| {
            db.execute("select count(*) from crawl")
                .unwrap()
                .scalar_i64()
                .unwrap()
        });
        assert!(n > 0);
        // The discovered subgraph is topical: mean harvest well above the
        // base rate of cycling pages in the web (~1/27 topics).
        assert!(outcome.stats.mean_harvest() > 0.2);
    }

    #[test]
    fn events_flow_while_running() {
        let (graph, system, cycling) = cycling_system(29, 200);
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
        let mut run = system.start(&seeds).unwrap();
        let events = run.take_events().unwrap();
        let outcome = run.join().unwrap();
        let all: Vec<DiscoveryEvent> = events.collect();
        let classified = all
            .iter()
            .filter(|e| matches!(e, DiscoveryEvent::PageClassified { .. }))
            .count() as u64;
        assert_eq!(classified, outcome.stats.successes);
        assert!(
            all.iter()
                .any(|e| matches!(e, DiscoveryEvent::BudgetExhausted { .. })),
            "budget-bounded run must announce exhaustion: {all:?}"
        );
    }

    #[test]
    fn checkpoint_resume_continues_the_crawl() {
        let (graph, system, cycling) = cycling_system(41, 120);
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
        let run = system.start(&seeds).unwrap();
        let outcome_stats = {
            let snapshot_run = run;
            // Let the budget run out, checkpoint the finished run.
            while !snapshot_run.is_finished() {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let snapshot = snapshot_run.checkpoint().unwrap();
            snapshot_run.join().unwrap();
            // Fresh session, +80 budget, no new seeds: the restored
            // frontier alone drives the continuation. The raise goes
            // through the session *before* start: the resumed run's
            // budget is already exhausted, so `CrawlRun::add_budget`
            // (a command drained at page boundaries) can lose the race
            // with the workers' immediate exit — its documented
            // semantics land the raise at join() for the *next* run,
            // which is not what this test wants to measure.
            let resumed = system.resume(&snapshot).unwrap();
            resumed.session().add_budget(80);
            let run2 = resumed.start(&[]).unwrap();
            run2.join().unwrap()
        };
        assert_eq!(
            outcome_stats.stats.attempts, 200,
            "120 checkpointed + 80 fresh"
        );
        assert!(outcome_stats.stats.successes > 0);
    }

    #[test]
    fn compiled_snapshot_tracks_live_remarking() {
        use focus_types::Mark;
        let (graph, system, cycling) = cycling_system(61, 100_000);
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 8);
        let run = system.start(&seeds).unwrap();
        let before = run.compiled();
        let gardening = system.session().find_topic("home/gardening").unwrap();
        assert_eq!(before.taxonomy().mark(gardening), Mark::Null);
        run.mark_topic(gardening, true);
        // The swap lands when a worker drains the command queue at a
        // page boundary; poll for it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if run.compiled().taxonomy().mark(gardening) == Mark::Good {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "mark_topic never recompiled the model"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        run.stop();
        run.join().unwrap();
        // The pre-remark snapshot is immutable: holders keep classifying
        // under the marking they captured.
        assert_eq!(before.taxonomy().mark(gardening), Mark::Null);
        assert_eq!(before.taxonomy().mark(cycling), Mark::Good);
    }

    #[test]
    fn start_cluster_discovers_and_checkpoints() {
        let (graph, system, cycling) = cycling_system(67, 240);
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 12);
        let run = system.start_cluster(3, &seeds).unwrap();
        let snapshot = {
            while !run.is_finished() {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let snap = run.checkpoint().unwrap();
            let stats = run.join().unwrap();
            assert_eq!(stats.attempts, 240, "split budget spends exactly");
            assert!(stats.successes > 50);
            assert!(stats.mean_harvest() > 0.2, "cluster harvest collapsed");
            snap
        };
        assert_eq!(snapshot.shards.len(), 3);
        assert!(snapshot.visited_len() > 0);
        // Resume into a fresh cluster and continue against the same
        // frontier.
        let resumed = system.resume_cluster(&snapshot).unwrap();
        assert_eq!(resumed.stats().attempts, 240, "stats carried over");
        for shard in resumed.shards() {
            shard.add_budget(20);
        }
        let stats = resumed.run().unwrap();
        assert_eq!(stats.attempts, 300, "240 checkpointed + 3×20 fresh");
    }

    #[test]
    fn double_start_is_rejected() {
        let (graph, system, cycling) = cycling_system(53, 100_000);
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 8);
        let run = system.start(&seeds).unwrap();
        assert!(matches!(system.start(&[]), Err(FocusError::Config(_))));
        run.stop();
        run.join().unwrap();
        // After join the session is free again.
        let run2 = system.start(&[]).unwrap();
        run2.stop();
        run2.join().unwrap();
    }
}
