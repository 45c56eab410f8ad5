//! Frontier hot-path benchmark: B+tree descents — counted as buffer-pool
//! logical reads, since every index node visit is one page request —
//! per crawled page for the per-link path versus the batched path, plus
//! end-to-end crawl throughput (pages/sec) at 1/2/4/8/16 workers, a
//! **read-concurrency** scenario (monitor threads hammering SQL
//! snapshots while the crawl runs, exercising the reader-parallel
//! session lock), and a **fetch-pipeline latency ladder** (simulated
//! 0/5/20/50 ms fetches × pool sizes, measuring how much of the
//! zero-latency ceiling the async pipeline preserves).
//!
//! Wall-clock numbers are the **median of [`REPS`] runs** per
//! configuration: a single 400–500 ms crawl has ±5% run-to-run noise on
//! a shared box, which is larger than the effects being tracked (the
//! PR 3 "single-worker batching regression" turned out to be exactly
//! this — one noisy sample; the deterministic logical-reads comparison
//! shows the batched path doing strictly less storage work).
//!
//! Appends one trajectory point to `BENCH_frontier.json` at the repo
//! root so successive PRs can chart the hot path's cost over time.
//!
//! Run with `cargo bench --bench frontier_throughput`.

use focus_crawler::cluster::CrawlCluster;
use focus_crawler::frontier::{self, FrontierEntry};
use focus_crawler::session::{CrawlConfig, CrawlSession};
use focus_crawler::{tables, CrawlPolicy};
use focus_eval::common::{Scale, World};
use focus_types::Oid;
use minirel::{Database, Value};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Pages to crawl in the descent-count comparison.
const PAGES: usize = 400;
/// Synthetic outlinks per page.
const OUTLINKS: u64 = 12;
/// Claim-batch size for the batched path.
const BATCH: usize = 8;
/// Fetch budget for the throughput crawls.
const CRAWL_BUDGET: u64 = 2000;
/// Simulated network latency per fetch in the throughput crawls.
/// 500 µs (PR 2's point used 200 µs and an 800-fetch budget): with the
/// storage hot path now ~3× cheaper, 200 µs fetches let 4 workers
/// saturate a small box's CPU outright, measuring core count instead of
/// the storage layer's scaling; a longer fetch keeps workers
/// latency-bound — the paper's regime — so added workers express
/// contention, not CPU exhaustion.
const FETCH_LATENCY_US: u64 = 500;
/// Timed repetitions per configuration (median reported). Reps are
/// **interleaved across configurations** (rep 0 of every config, then
/// rep 1, …): a shared box drifts by several percent over minutes, so
/// measuring config-by-config would hand whole blocks of drift to
/// single configurations and fabricate regressions between them.
const REPS: usize = 5;
/// Monitor threads in the read-concurrency scenario.
const MONITORS: usize = 4;
/// Poll interval per monitor thread. A live dashboard refreshes a few
/// times a second; 4 threads at 25 ms is a 40 Hz aggregate of
/// full-table-scan snapshots — well past any real §3.7 applet. Pacing
/// matters on small boxes: each snapshot costs 1–2 ms of CPU, so
/// unpaced (or 5 ms) monitors own most of a single core no matter how
/// the locks behave, turning the scenario into a CPU-share measurement
/// and hiding the thing under test — whether monitor queries *stall*
/// the crawl while they run. At this cadence monitor CPU stays near
/// 10% of a core, which is what any lock design must concede; the
/// remaining gap to the baseline is lock convoy, which is the metric.
const MONITOR_POLL_MS: u64 = 25;
/// Workers in the read-concurrency scenario.
const RC_WORKERS: usize = 4;
/// Simulated fetch latencies for the fetch-pipeline ladder. 0 is the
/// ceiling row; 5–50 ms is the realistic WAN band ROADMAP's acceptance
/// bar names.
const LADDER_LATENCIES_MS: [u64; 4] = [0, 5, 20, 50];
/// Fetch-pool sizes for the ladder. 64 is deliberately undersized — at
/// 50 ms it caps in-flight work at 64 fetches (~1 300 pages/sec) and
/// shows the pool size mattering. The largest pool is the one the
/// 1.5× acceptance bar is measured against, and it must satisfy
/// `pool ≥ ceiling × latency / 1.5` or the bar is arithmetically
/// unreachable: at 50 ms hiding a ~5 000 pages/sec ceiling needs
/// several hundred fetches genuinely in flight, so 512 is the
/// shipping-scale tier. Probing showed the residual 50 ms gap is the
/// host, not the pipeline: on this box (often a single core) the
/// classify/flush CPU itself caps out near ~5 300 pages/sec and pool
/// threads compete with the CPU workers for cycles — which is also why
/// each pool size gets its *own* zero-latency ceiling below.
const LADDER_POOLS: [usize; 3] = [64, 256, 512];
/// Fetch budget for the ladder crawls. Larger than [`CRAWL_BUDGET`] to
/// amortize the pipeline-fill ramp (at 50 ms the first latency window
/// produces zero completions — a fixed tax that a short run cannot
/// absorb), but clear of the tiny web's exhaustion tail: Unfocused on
/// this world runs dry near ~3 400 attempts, and a starving frontier
/// would measure stagnation sleeps, not the pipeline.
const LADDER_BUDGET: u64 = 2500;
/// CPU workers in the ladder. Two is enough to drain completions at
/// CPU speed while keeping the ceiling low enough that the interesting
/// regime — latency-bound, not core-bound — dominates.
const LADDER_WORKERS: usize = 2;
/// Claim-batch size in the ladder: large batches keep the submission
/// queue topped up so pool threads never starve between claims.
const LADDER_BATCH: usize = 128;

#[derive(Debug, Serialize)]
struct ThroughputPoint {
    workers: usize,
    batch_size: usize,
    attempts: u64,
    pages_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct ReadConcurrencyPoint {
    workers: usize,
    monitors: usize,
    /// Crawl throughput with no monitors attached.
    baseline_pages_per_sec: f64,
    /// Crawl throughput with [`MONITORS`] threads looping SQL + stats.
    monitored_pages_per_sec: f64,
    /// monitored ÷ baseline (the acceptance bar is ≥ 0.85).
    ratio: f64,
    /// SQL snapshots served while the monitored crawl ran.
    monitor_queries: u64,
}

#[derive(Debug, Serialize)]
struct ClusterPoint {
    /// Shard count; 1 is a genuine single session (the baseline).
    shards: usize,
    /// Total workers across shards.
    workers_total: usize,
    attempts: u64,
    pages_per_sec: f64,
    /// Mean linear relevance of fetched pages (should be flat across
    /// shard counts).
    harvest: f64,
}

#[derive(Debug, Serialize)]
struct ChaosPoint {
    /// Fault profile (`clean` is the baseline row).
    profile: String,
    attempts: u64,
    successes: u64,
    harvest: f64,
    /// Mean harvest over the last third of the budget (the recovery
    /// half of the outage story).
    tail_harvest: f64,
    /// Breakers opened / closed again during the run.
    quarantines: u64,
    recoveries: u64,
}

#[derive(Debug, Serialize)]
struct LatencyPoint {
    latency_ms: u64,
    workers: usize,
    /// Fetch-pool threads (0 would be a threadless pool, fetching on
    /// the workers; the ladder only runs threaded pools — fetching on
    /// the workers at 50 ms would take minutes per rep, which is the
    /// point of the pipeline).
    fetch_pool: usize,
    attempts: u64,
    pages_per_sec: f64,
    /// pages/sec ÷ the same pool size's zero-latency ceiling. The
    /// acceptance bar is ≥ 1/1.5 ≈ 0.67 at the largest pool for every
    /// nonzero latency: the pipeline must hide the round-trip, not
    /// merely survive it.
    vs_ceiling: f64,
}

#[derive(Debug, Serialize)]
struct BenchPoint {
    bench: &'static str,
    unix_time: u64,
    pages: usize,
    outlinks_per_page: u64,
    reads_per_page_per_link: f64,
    reads_per_page_batched: f64,
    /// per-link ÷ batched; the PR acceptance bar is ≥ 2.0.
    descent_reduction: f64,
    throughput: Vec<ThroughputPoint>,
    /// Fetch-pipeline latency ladder (latency × pool size at fixed
    /// workers); the acceptance bar is pages/sec ≥ zero-latency
    /// ceiling ÷ 1.5 at every nonzero latency for the largest pool.
    latency_ladder: Vec<LatencyPoint>,
    read_concurrency: ReadConcurrencyPoint,
    /// Sharded-crawl ladder at equal total workers; the acceptance bar
    /// is 4-shard pages/sec ≥ the shards=1 baseline.
    cluster: Vec<ClusterPoint>,
    /// Chaos matrix (fault profile × crawl vs clean baseline); the
    /// acceptance bars are flaky yield ≥ 0.5× clean and breakers that
    /// open *and* re-close across a healing outage.
    chaos: Vec<ChaosPoint>,
}

/// Deterministic synthetic outlink set for a page: a mix of fresh
/// targets and revisits of earlier ones, so both the create and the
/// raise paths of the upsert run.
fn synth_outlinks(page: u64) -> Vec<(Oid, String)> {
    (0..OUTLINKS)
        .map(|j| {
            let x = (page
                .wrapping_mul(6364136223846793005)
                .wrapping_add(j.wrapping_mul(1442695040888963407)))
                >> 16;
            let oid = x % 5000 + 1;
            (
                Oid(oid),
                format!("http://s{:02}.example.org/p{}.html", oid % 24, oid),
            )
        })
        .collect()
}

fn seeded_db() -> Database {
    let mut db = Database::in_memory_with_frames(512);
    tables::create_tables(&mut db).expect("tables");
    for i in 0..64u64 {
        frontier::upsert_frontier(
            &mut db,
            Oid(1_000_000 + i),
            &format!("http://seed.example.org/{i}"),
            0.0,
            0,
        )
        .expect("seed");
    }
    db
}

fn link_row(src: Oid, dst: Oid) -> Vec<Value> {
    vec![
        Value::Int(src.raw() as i64),
        Value::Int((src.raw() % 24) as i64),
        Value::Int(dst.raw() as i64),
        Value::Int((dst.raw() % 24) as i64),
        Value::Int(1),
    ]
}

/// The pre-batching hot path: one claim, one mark_done, then one full
/// B+tree descent per LINK row and per outlink upsert.
fn run_per_link() -> f64 {
    let mut db = seeded_db();
    let link_tid = db.table_id("link").expect("link");
    db.reset_io_stats();
    let mut processed = 0usize;
    while processed < PAGES {
        let Some(claim) = frontier::claim_next(&mut db).expect("claim") else {
            break;
        };
        frontier::mark_done(&mut db, claim.oid, &claim.url, -0.3, 5, 1).expect("done");
        for (dst, dst_url) in synth_outlinks(claim.oid.raw()) {
            db.insert(link_tid, link_row(claim.oid, dst)).expect("link");
            frontier::upsert_frontier(&mut db, dst, &dst_url, -0.7, 0).expect("upsert");
        }
        processed += 1;
    }
    assert_eq!(processed, PAGES, "frontier ran dry early");
    db.io_stats().logical_reads as f64 / processed as f64
}

/// The batched hot path: claims checked out [`BATCH`] at a time, LINK
/// rows inserted with one sorted pass per index, outlinks upserted with
/// one ordered oid-index pass per page.
fn run_batched() -> f64 {
    let mut db = seeded_db();
    let link_tid = db.table_id("link").expect("link");
    db.reset_io_stats();
    let mut processed = 0usize;
    while processed < PAGES {
        let claims = frontier::claim_batch(&mut db, BATCH.min(PAGES - processed), i64::MAX)
            .expect("claim batch")
            .claims;
        if claims.is_empty() {
            break;
        }
        for claim in claims {
            frontier::mark_done(&mut db, claim.oid, &claim.url, -0.3, 5, 1).expect("done");
            let outlinks = synth_outlinks(claim.oid.raw());
            let rows = outlinks
                .iter()
                .map(|(dst, _)| link_row(claim.oid, *dst))
                .collect();
            db.insert_many(link_tid, rows).expect("links");
            let entries: Vec<FrontierEntry> = outlinks
                .into_iter()
                .map(|(oid, url)| FrontierEntry {
                    oid,
                    url,
                    log_relevance: -0.7,
                    serverload: 0,
                })
                .collect();
            frontier::upsert_batch(&mut db, &entries).expect("upsert batch");
            processed += 1;
        }
    }
    assert_eq!(processed, PAGES, "frontier ran dry early");
    db.io_stats().logical_reads as f64 / processed as f64
}

/// A fresh seeded session for one timed crawl. Fetches carry a small
/// simulated network latency ([`FETCH_LATENCY_US`]): with free fetches
/// the crawl is pure CPU and worker count is noise; with a per-fetch
/// cost, scaling shows whether workers add throughput or just lock
/// contention.
fn make_session(world: &World, workers: usize, batch_size: usize) -> Arc<CrawlSession> {
    let fetcher = Arc::new(focus_webgraph::SimFetcher::new(
        Arc::clone(&world.graph),
        Some(std::time::Duration::from_micros(FETCH_LATENCY_US)),
    ));
    let session = Arc::new(
        CrawlSession::new(
            fetcher,
            world.model.clone(),
            CrawlConfig {
                // Unfocused expansion keeps the frontier saturated for
                // the whole budget: this measures the storage hot path,
                // not topical exhaustion.
                policy: CrawlPolicy::Unfocused,
                threads: workers,
                max_fetches: CRAWL_BUDGET,
                distill_every: None,
                batch_size,
                ..CrawlConfig::default()
            },
        )
        .expect("session"),
    );
    session.seed(&world.start_set(10)).expect("seed");
    session
}

/// One timed crawl; returns `(attempts, pages/sec)`.
fn one_crawl(world: &World, workers: usize, batch_size: usize) -> (u64, f64) {
    let session = make_session(world, workers, batch_size);
    let t = Instant::now();
    let stats = session.run().expect("crawl");
    let secs = t.elapsed().as_secs_f64();
    (stats.attempts, stats.attempts as f64 / secs)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

/// Median-of-[`REPS`] crawl throughput for each configuration, with
/// reps interleaved across configurations (see [`REPS`]).
fn throughput_ladder(world: &World, configs: &[(usize, usize)]) -> Vec<ThroughputPoint> {
    let mut rates: Vec<Vec<f64>> = vec![Vec::with_capacity(REPS); configs.len()];
    let mut attempts = vec![0u64; configs.len()];
    for _ in 0..REPS {
        for (c, &(workers, batch)) in configs.iter().enumerate() {
            let (a, pps) = one_crawl(world, workers, batch);
            attempts[c] = a;
            rates[c].push(pps);
        }
    }
    configs
        .iter()
        .zip(rates)
        .zip(attempts)
        .map(|((&(workers, batch_size), r), attempts)| ThroughputPoint {
            workers,
            batch_size,
            attempts,
            pages_per_sec: median(r),
        })
        .collect()
}

/// A fresh seeded session for one fetch-pipeline ladder crawl: pooled
/// fetches at a millisecond-scale simulated latency. Everything else
/// (default per-server politeness included — ~114 servers × 8 in
/// flight leaves politeness far from binding on the tiny web) matches
/// the shipping configuration.
fn pooled_session(world: &World, latency_ms: u64, fetch_pool: usize) -> Arc<CrawlSession> {
    let fetcher = Arc::new(focus_webgraph::SimFetcher::new(
        Arc::clone(&world.graph),
        (latency_ms > 0).then(|| std::time::Duration::from_millis(latency_ms)),
    ));
    let session = Arc::new(
        CrawlSession::new(
            fetcher,
            world.model.clone(),
            CrawlConfig {
                policy: CrawlPolicy::Unfocused,
                threads: LADDER_WORKERS,
                max_fetches: LADDER_BUDGET,
                distill_every: None,
                batch_size: LADDER_BATCH,
                fetch_pool,
                ..CrawlConfig::default()
            },
        )
        .expect("session"),
    );
    session.seed(&world.start_set(10)).expect("seed");
    session
}

/// Median-of-[`REPS`] fetch-pipeline ladder: every latency × pool-size
/// configuration, reps interleaved like the worker ladder. Each row's
/// `vs_ceiling` is against the zero-latency row of the *same* pool
/// size, so the ratio isolates latency-hiding from pool overhead: on a
/// small box hundreds of pool threads shave the ceiling itself by
/// stealing scheduler share from the CPU workers, and comparing a
/// 50 ms run against a *different* thread count's ceiling would
/// measure that scheduler tax, not the pipeline.
fn latency_ladder(world: &World) -> Vec<LatencyPoint> {
    let configs: Vec<(u64, usize)> = LADDER_POOLS
        .iter()
        .flat_map(|&pool| LADDER_LATENCIES_MS.iter().map(move |&ms| (ms, pool)))
        .collect();
    let mut rates: Vec<Vec<f64>> = vec![Vec::with_capacity(REPS); configs.len()];
    let mut attempts = vec![0u64; configs.len()];
    for _ in 0..REPS {
        for (c, &(ms, pool)) in configs.iter().enumerate() {
            let session = pooled_session(world, ms, pool);
            let t = Instant::now();
            let stats = session.run().expect("ladder crawl");
            let secs = t.elapsed().as_secs_f64();
            attempts[c] = stats.attempts;
            rates[c].push(stats.attempts as f64 / secs);
        }
    }
    let medians: Vec<f64> = rates.into_iter().map(median).collect();
    let ceiling = |pool: usize| {
        configs
            .iter()
            .zip(&medians)
            .find(|(cfg, _)| cfg.0 == 0 && cfg.1 == pool)
            .map(|(_, &m)| m)
            .unwrap_or(f64::INFINITY)
    };
    configs
        .iter()
        .zip(&medians)
        .zip(attempts)
        .map(
            |((&(latency_ms, fetch_pool), &pps), attempts)| LatencyPoint {
                latency_ms,
                workers: LADDER_WORKERS,
                fetch_pool,
                attempts,
                pages_per_sec: pps,
                vs_ceiling: pps / ceiling(fetch_pool),
            },
        )
        .collect()
}

/// Crawl with [`MONITORS`] threads looping §3.7 monitoring against the
/// live session: a SQL snapshot (`CrawlSession::sql`, i.e. store read
/// lock + `Database::query`) plus a `stats()` call per iteration.
/// Returns `(pages/sec, monitor queries served)`. Before the session
/// lock was split, each of these queries serialized against every page
/// flush — and vice versa: monitors stalled the crawl outright.
fn monitored_crawl(world: &World) -> (f64, u64) {
    let session = make_session(world, RC_WORKERS, BATCH);
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let mut monitors = Vec::new();
    for _ in 0..MONITORS {
        let session = Arc::clone(&session);
        let stop = Arc::clone(&stop);
        let served = Arc::clone(&served);
        monitors.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let rs = session
                    .sql("select count(*), avg(exp(relevance)) from crawl where visited = 1")
                    .expect("monitor query");
                std::hint::black_box(rs);
                std::hint::black_box(session.stats());
                served.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(MONITOR_POLL_MS));
            }
        }));
    }
    let t = Instant::now();
    let stats = session.run().expect("crawl");
    let secs = t.elapsed().as_secs_f64();
    stop.store(true, Ordering::Release);
    for m in monitors {
        m.join().expect("monitor thread");
    }
    (stats.attempts as f64 / secs, served.load(Ordering::Relaxed))
}

/// One timed crawl at `shards` (1 = plain session); returns
/// `(attempts, pages/sec, mean harvest)`. Sessions/clusters are rebuilt
/// per rep — budgets are spent by a run.
fn one_sharded_crawl(world: &World, shards: usize, workers: usize) -> (u64, f64, f64) {
    if shards == 1 {
        let session = make_session(world, workers, BATCH);
        let t = Instant::now();
        let stats = session.run().expect("crawl");
        let secs = t.elapsed().as_secs_f64();
        return (
            stats.attempts,
            stats.attempts as f64 / secs,
            stats.mean_harvest(),
        );
    }
    let fetcher = Arc::new(focus_webgraph::SimFetcher::new(
        Arc::clone(&world.graph),
        Some(std::time::Duration::from_micros(FETCH_LATENCY_US)),
    ));
    let cluster = CrawlCluster::new(
        shards,
        fetcher,
        world.model.clone(),
        CrawlConfig {
            policy: CrawlPolicy::Unfocused,
            threads: workers,
            max_fetches: CRAWL_BUDGET,
            distill_every: None,
            batch_size: BATCH,
            ..CrawlConfig::default()
        },
    )
    .expect("cluster");
    cluster.seed(&world.start_set(10)).expect("seed");
    let t = Instant::now();
    let stats = cluster.run().expect("cluster crawl");
    let secs = t.elapsed().as_secs_f64();
    (
        stats.attempts,
        stats.attempts as f64 / secs,
        stats.mean_harvest(),
    )
}

/// Median-of-[`REPS`] sharded ladder, reps interleaved across shard
/// counts like the worker ladder. Harvest is the *mean* over reps:
/// claim interleaving makes a single sharded run's harvest vary by a
/// few hundredths (which pages fill each shard's budget share depends
/// on routing arrival order), and a one-rep number would read as a
/// sharding regression that is really noise.
fn cluster_ladder(world: &World, configs: &[(usize, usize)]) -> Vec<ClusterPoint> {
    let mut rates: Vec<Vec<f64>> = vec![Vec::with_capacity(REPS); configs.len()];
    let mut attempts = vec![0u64; configs.len()];
    let mut harvest_sum = vec![0.0f64; configs.len()];
    for _ in 0..REPS {
        for (c, &(shards, workers)) in configs.iter().enumerate() {
            let (a, pps, h) = one_sharded_crawl(world, shards, workers);
            attempts[c] = a;
            harvest_sum[c] += h;
            rates[c].push(pps);
        }
    }
    configs
        .iter()
        .zip(rates)
        .zip(attempts)
        .zip(harvest_sum)
        .map(
            |(((&(shards, workers_total), r), attempts), harvest_sum)| ClusterPoint {
                shards,
                workers_total,
                attempts,
                pages_per_sec: median(r),
                harvest: harvest_sum / REPS as f64,
            },
        )
        .collect()
}

fn read_concurrency(world: &World, baseline: f64) -> ReadConcurrencyPoint {
    let mut rates = Vec::with_capacity(REPS);
    let mut queries = 0;
    for _ in 0..REPS {
        let (pps, q) = monitored_crawl(world);
        rates.push(pps);
        queries = queries.max(q);
    }
    let monitored = median(rates);
    ReadConcurrencyPoint {
        workers: RC_WORKERS,
        monitors: MONITORS,
        baseline_pages_per_sec: baseline,
        monitored_pages_per_sec: monitored,
        ratio: monitored / baseline,
        monitor_queries: queries,
    }
}

/// Append `point` to the JSON array in BENCH_frontier.json (created on
/// first run). The vendored serde_json only serializes, so appending is
/// done textually.
fn append_point(point: &BenchPoint) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_frontier.json");
    let rendered = serde_json::to_string_pretty(point).expect("serialize");
    let body = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            match trimmed.strip_suffix(']') {
                Some(head) if head.trim_end().ends_with('[') => format!("[\n{rendered}\n]"),
                Some(head) => format!("{},\n{rendered}\n]", head.trim_end()),
                None => format!("[\n{rendered}\n]"),
            }
        }
        Err(_) => format!("[\n{rendered}\n]"),
    };
    std::fs::write(path, body + "\n").expect("write BENCH_frontier.json");
    println!("wrote trajectory point to {path}");
}

fn main() {
    println!("--- frontier hot path: B+tree descents per crawled page ---");
    let per_link = run_per_link();
    let batched = run_batched();
    let reduction = per_link / batched;
    println!("per-link path: {per_link:8.1} logical reads/page");
    println!("batched path:  {batched:8.1} logical reads/page  (claim batch {BATCH})");
    println!(
        "reduction:     {reduction:8.2}x  ({})",
        if reduction >= 2.0 {
            "PASS: >= 2x"
        } else {
            "FAIL: < 2x"
        }
    );

    println!("--- crawl throughput, {CRAWL_BUDGET}-fetch budget, tiny web, median of {REPS} ---");
    let world = World::cycling(Scale::Tiny, 23);
    // Unbatched baselines plus the batched ladder.
    let configs = [
        (1, 1),
        (4, 1),
        (1, BATCH),
        (2, BATCH),
        (4, BATCH),
        (8, BATCH),
        (16, BATCH),
    ];
    let throughput = throughput_ladder(&world, &configs);
    for p in &throughput {
        println!(
            "workers {:>2}  batch {:>2}: {:>9.0} pages/sec ({} attempts)",
            p.workers, p.batch_size, p.pages_per_sec, p.attempts
        );
    }
    let pps = |workers: usize, batch: usize| {
        throughput
            .iter()
            .find(|p| p.workers == workers && p.batch_size == batch)
            .map(|p| p.pages_per_sec)
            .unwrap_or(0.0)
    };
    let base = pps(1, 1);
    let four = pps(4, BATCH);
    println!(
        "4 workers batched vs 1 worker unbatched: {:.2}x ({})",
        four / base,
        if four >= base {
            "PASS: no worse"
        } else {
            "FAIL: regressed"
        }
    );
    println!(
        "1 worker batched vs 1 worker per-link:   {:.2}x ({})",
        pps(1, BATCH) / base,
        if pps(1, BATCH) >= base {
            "PASS: batching never loses uncontended"
        } else {
            "FAIL: uncontended batching regressed"
        }
    );
    println!(
        "8 workers vs 4 workers:                  {:.2}x ({})",
        pps(8, BATCH) / four,
        if pps(8, BATCH) >= four {
            "PASS: scaling continues past 4"
        } else {
            "FAIL: scaling wall at 4"
        }
    );

    println!(
        "--- fetch-pipeline latency ladder: {LADDER_WORKERS} workers, batch {LADDER_BATCH}, median of {REPS} ---"
    );
    let ladder = latency_ladder(&world);
    for p in &ladder {
        println!(
            "latency {:>2} ms  pool {:>3}: {:>9.0} pages/sec ({} attempts, {:.2}x ceiling)",
            p.latency_ms, p.fetch_pool, p.pages_per_sec, p.attempts, p.vs_ceiling
        );
    }
    let big_pool = *LADDER_POOLS.iter().max().expect("pool sizes");
    for p in ladder
        .iter()
        .filter(|p| p.fetch_pool == big_pool && p.latency_ms > 0)
    {
        println!(
            "pool {} at {:>2} ms vs zero-latency ceiling: {:.2}x ({})",
            big_pool,
            p.latency_ms,
            p.vs_ceiling,
            if p.vs_ceiling >= 1.0 / 1.5 {
                "PASS: >= 1/1.5"
            } else {
                "FAIL: latency not hidden"
            }
        );
    }

    println!("--- read concurrency: {RC_WORKERS} workers + {MONITORS} monitor threads ---");
    let rc = read_concurrency(&world, pps(RC_WORKERS, BATCH));
    println!(
        "baseline {:>9.0} pages/sec | with monitors {:>9.0} pages/sec | ratio {:.2} ({}) | {} snapshots served",
        rc.baseline_pages_per_sec,
        rc.monitored_pages_per_sec,
        rc.ratio,
        if rc.ratio >= 0.85 {
            "PASS: >= 0.85"
        } else {
            "FAIL: < 0.85"
        },
        rc.monitor_queries
    );

    println!("--- sharded crawl ladder, {CRAWL_BUDGET}-fetch budget, 4 total workers ---");
    let cluster_configs = [(1, 4), (2, 4), (4, 4)];
    let cluster = cluster_ladder(&world, &cluster_configs);
    for p in &cluster {
        println!(
            "shards {:>2}  workers {:>2}: {:>9.0} pages/sec ({} attempts, harvest {:.3})",
            p.shards, p.workers_total, p.pages_per_sec, p.attempts, p.harvest
        );
    }
    let shard_pps = |shards: usize| {
        cluster
            .iter()
            .find(|p| p.shards == shards)
            .map(|p| p.pages_per_sec)
            .unwrap_or(0.0)
    };
    println!(
        "4 shards vs single session at 4 workers:  {:.2}x ({})",
        shard_pps(4) / shard_pps(1),
        if shard_pps(4) >= shard_pps(1) {
            "PASS: sharding never loses at equal workers"
        } else {
            "FAIL: sharding regressed"
        }
    );

    println!("--- chaos matrix: fault profiles vs clean baseline ---");
    let matrix = focus_eval::chaos::run(Scale::Tiny);
    matrix.print();
    let chaos: Vec<ChaosPoint> = matrix
        .rows
        .iter()
        .map(|r| ChaosPoint {
            profile: r.profile.clone(),
            attempts: r.attempts,
            successes: r.successes,
            harvest: r.harvest,
            tail_harvest: r.tail_harvest,
            quarantines: r.quarantines,
            recoveries: r.recoveries,
        })
        .collect();
    let (clean_ok, flaky_ok) = (
        matrix.clean().successes,
        matrix.row("flaky").map(|r| r.successes).unwrap_or(0),
    );
    println!(
        "flaky yield vs clean: {:.2}x ({})",
        flaky_ok as f64 / clean_ok.max(1) as f64,
        if flaky_ok as f64 >= 0.5 * clean_ok as f64 {
            "PASS: >= 0.5x under 20% fault mass"
        } else {
            "FAIL: flaky web collapsed the crawl"
        }
    );
    let recoveries = matrix.row("outage").map(|r| r.recoveries).unwrap_or(0);
    println!(
        "outage breaker round-trips: {recoveries} ({})",
        if recoveries > 0 {
            "PASS: breakers re-closed after healing"
        } else {
            "FAIL: no recovery observed"
        }
    );

    let point = BenchPoint {
        bench: "frontier",
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        pages: PAGES,
        outlinks_per_page: OUTLINKS,
        reads_per_page_per_link: per_link,
        reads_per_page_batched: batched,
        descent_reduction: reduction,
        throughput,
        latency_ladder: ladder,
        read_concurrency: rc,
        cluster,
        chaos,
    };
    append_point(&point);
}
