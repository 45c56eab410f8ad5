//! The three workloads, one crawl repetition each, and the output
//! checks every repetition must pass.

use crate::stats::OpenLoopSample;
use crate::trace::{self, Span, TracingFetcher, Watch};
use focus_crawler::session::{CrawlConfig, CrawlSession, Durability};
use focus_crawler::{monitor, CrawlPolicy, CrawlStats, StartOptions};
use focus_eval::common::{Scale, World};
use focus_webgraph::{Fetcher, SimFetcher};
use minirel::{Database, DbResult, IoStats, ResultSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Start-set size (Figure 5's).
pub const START_SET: usize = 20;

/// A §3.7 monitor applet.
type Applet = fn(&Database) -> DbResult<ResultSet>;

/// The §3.7 applets the monitor client cycles through.
pub const APPLETS: [(&str, Applet); 4] = [
    ("harvest_per_minute", monitor::harvest_per_minute),
    ("census_by_class", monitor::census_by_class),
    ("frontier_by_numtries", monitor::frontier_by_numtries),
    ("server_health", monitor::server_health),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `CrawlConfig::default()` at two threads, inline fetch.
    FocusDefault,
    /// Fetch pool of 64 at 5 ms, big batches, no distillation.
    PipelineWan,
    /// Default config, one thread, file WAL, a 20 Hz monitor client.
    MonitoredDurable,
}

/// How the monitor client runs in a repetition.
#[derive(Debug, Clone, Copy)]
pub enum MonitorPlan {
    /// Open loop at `period` for as long as the crawl runs.
    DuringCrawl { period: Duration },
    /// Open loop at `period` for `queries` queries after `join`.
    AfterJoin { period: Duration, queries: usize },
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "focus_default" => Some(Workload::FocusDefault),
            "pipeline_wan" => Some(Workload::PipelineWan),
            "monitored_durable" => Some(Workload::MonitoredDurable),
            _ => None,
        }
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FocusDefault => "focus_default",
            Workload::PipelineWan => "pipeline_wan",
            Workload::MonitoredDurable => "monitored_durable",
        }
    }

    /// Simulated network latency per fetch.
    fn latency(self) -> Duration {
        match self {
            Workload::PipelineWan => Duration::from_millis(5),
            _ => Duration::from_micros(500),
        }
    }

    /// The crawl configuration; `data` is the data file of a durable
    /// workload.
    pub fn config(self, data: &Path) -> CrawlConfig {
        match self {
            Workload::FocusDefault => CrawlConfig {
                threads: 2,
                max_fetches: 6000,
                ..CrawlConfig::default()
            },
            Workload::PipelineWan => CrawlConfig {
                policy: CrawlPolicy::SoftFocus,
                threads: 2,
                max_fetches: 8000,
                distill_every: None,
                batch_size: 128,
                fetch_pool: 64,
                // Holds the whole crawl: no physical reads.
                db_frames: 16384,
                ..CrawlConfig::default()
            },
            Workload::MonitoredDurable => CrawlConfig {
                threads: 1,
                max_fetches: 6000,
                durability: Durability::File {
                    path: data.to_path_buf(),
                    group_commit: minirel::DEFAULT_GROUP_COMMIT,
                },
                ..CrawlConfig::default()
            },
        }
    }

    /// When the monitor client runs.
    pub fn monitor_plan(self) -> MonitorPlan {
        match self {
            Workload::MonitoredDurable => MonitorPlan::DuringCrawl {
                period: Duration::from_millis(50),
            },
            _ => MonitorPlan::AfterJoin {
                period: Duration::from_millis(20),
                queries: 40,
            },
        }
    }
}

/// One monitor query as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// Index into [`APPLETS`].
    pub applet: usize,
    /// Schedule, issue and completion times.
    pub times: OpenLoopSample,
    /// Seconds from the call to entering the `with_db_read` closure.
    pub lock_wait: f64,
    /// Seconds spent executing the applet inside the closure.
    pub exec: f64,
    /// Buffer-pool logical reads the applet made.
    pub reads: u64,
    /// Whether the applet's plan came from the prepared-plan cache.
    pub plan_hit: bool,
}

/// What the traced half of a repetition measured.
#[derive(Debug, Default)]
pub struct Traced {
    /// Page, fetch, turnaround and distill spans, plus monitor spans.
    pub spans: Vec<Span>,
    /// Milliseconds of the timed `distill_now()` after the crawl.
    pub final_pass_ms: f64,
    /// Microseconds per page replaying the fetched pages through the
    /// compiled classifier.
    pub classify_us: f64,
    /// Frontier replay, per page.
    pub frontier: crate::replay::FrontierCost,
}

/// Everything one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Which of the run's worlds this repetition crawled.
    pub world: usize,
    /// World + classifier + session + seeding, seconds.
    pub setup_s: f64,
    /// Crawl outcome.
    pub stats: CrawlStats,
    /// `start` to `join`, seconds.
    pub wall_s: f64,
    /// Process CPU seconds during the crawl, less the monitor client's.
    pub cpu_s: f64,
    /// Monitor queries.
    pub queries: Vec<Query>,
    /// Session buffer-pool counters after `join`.
    pub io: IoStats,
    /// In-crawl distill passes, retries and quarantines from events.
    pub distills: u64,
    /// `FetchRetried` events.
    pub retries: u64,
    /// `ServerQuarantined` events.
    pub quarantines: u64,
    /// WAL and data file sizes after `join` (0 for in-memory stores).
    pub wal_bytes: u64,
    /// Data file size after `join`.
    pub data_bytes: u64,
    /// Output checks that failed, by description.
    pub failed_checks: Vec<String>,
    /// Present on traced repetitions.
    pub traced: Option<Traced>,
}

impl Rep {
    /// Pages (fetch attempts) per second.
    pub fn pages_per_sec(&self) -> f64 {
        self.stats.attempts as f64 / self.wall_s
    }
}

/// CPU clocks of `clock_gettime` (Linux clock ids).
#[derive(Debug, Clone, Copy)]
enum CpuClock {
    /// User + sys time of every thread of the process.
    Process = 2,
    /// User + sys time of the calling thread.
    Thread = 3,
}

/// CPU time on `clock`, seconds.
fn cpu_s(clock: CpuClock) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and both clock ids are constants the
    // kernel accepts.
    let rc = unsafe { clock_gettime(clock as i32, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock:?}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// What the monitor client did.
struct ClientRun {
    queries: Vec<Query>,
    spans: Vec<Span>,
    /// The client thread's own CPU seconds.
    cpu_s: f64,
}

/// Run the §3.7 applets open-loop: query `i` is due at `i * period`
/// from `t0` and cycles through [`APPLETS`]. Stops when `stop` is set
/// or after `limit` queries.
fn monitor_client(
    session: &CrawlSession,
    t0: Instant,
    period: Duration,
    limit: usize,
    stop: &AtomicBool,
) -> ClientRun {
    let cpu0 = cpu_s(CpuClock::Thread);
    let mut out = Vec::new();
    let mut spans = Vec::new();
    let base = trace::now_ns() - t0.elapsed().as_nanos() as u64;
    let secs = |t: Instant| t.duration_since(t0).as_secs_f64();
    for i in 0..limit {
        let due = t0 + period * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let applet = i % APPLETS.len();
        let issued = Instant::now();
        let (entered, exited, result, reads, plan_hit) = session.with_db_read(|db| {
            let entered = Instant::now();
            let io0 = db.io_stats().logical_reads;
            let (h0, _) = db.plan_cache_stats();
            let r = (APPLETS[applet].1)(db);
            let (h1, _) = db.plan_cache_stats();
            let reads = db.io_stats().logical_reads - io0;
            (entered, Instant::now(), r, reads, h1 > h0)
        });
        let done = Instant::now();
        let ns = |t: Instant| base + t.duration_since(t0).as_nanos() as u64;
        let q = spans.len();
        let req = format!("q{i}");
        spans.push(Span {
            name: trace::name::QUERY,
            req: req.clone(),
            start: ns(due),
            end: ns(done),
            parent: None,
        });
        spans.push(Span {
            name: trace::name::LOCK_WAIT,
            req: req.clone(),
            start: ns(issued),
            end: ns(entered),
            parent: Some(q),
        });
        spans.push(Span {
            name: trace::name::EXEC,
            req,
            start: ns(entered),
            end: ns(exited),
            parent: Some(q),
        });
        out.push(Query {
            applet,
            times: OpenLoopSample {
                due: secs(due),
                issued: secs(issued),
                done: result.is_ok().then(|| secs(done)),
            },
            lock_wait: entered.duration_since(issued).as_secs_f64(),
            exec: exited.duration_since(entered).as_secs_f64(),
            reads,
            plan_hit,
        });
    }
    ClientRun {
        queries: out,
        spans,
        cpu_s: cpu_s(CpuClock::Thread) - cpu0,
    }
}

fn count(session: &CrawlSession, sql: &str) -> Result<i64, String> {
    session
        .with_db_read(|db| db.query(sql))
        .map_err(|e| format!("{sql}: {e}"))?
        .scalar_i64()
        .ok_or_else(|| format!("{sql}: no scalar"))
}

/// The output checks on a joined session.
fn check_outputs(
    session: &CrawlSession,
    stats: &CrawlStats,
    budget: u64,
    stagnations: u64,
) -> Result<Vec<String>, String> {
    let mut failed = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            failed.push(what);
        }
    };
    expect(
        stats.attempts == budget && stagnations == 0,
        format!(
            "attempts {} == budget {budget}, stagnations {stagnations} == 0",
            stats.attempts
        ),
    );
    expect(
        stats.successes + stats.failures == stats.attempts,
        format!(
            "successes {} + failures {} == attempts {}",
            stats.successes, stats.failures, stats.attempts
        ),
    );
    let visited = count(session, "select count(*) from crawl where visited = 1")?;
    expect(
        visited == stats.successes as i64,
        format!("visited rows {visited} == successes {}", stats.successes),
    );
    let claimed = count(session, "select count(*) from crawl where visited = 2")?;
    expect(
        claimed == 0,
        format!("claimed rows {claimed} == 0 after join"),
    );
    let census = session
        .with_db_read(monitor::census_by_class)
        .map_err(|e| format!("census_by_class: {e}"))?;
    let census_sum: i64 = census
        .rows
        .iter()
        .map(|r| match r.get(1) {
            Some(minirel::Value::Int(n)) => *n,
            _ => 0,
        })
        .sum();
    expect(
        census_sum == stats.successes as i64,
        format!("census sum {census_sum} == successes {}", stats.successes),
    );
    Ok(failed)
}

/// Where a durable workload keeps its files for one repetition.
fn scratch_dir(rep: usize) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tmp")
        .join(format!("{}-{rep}", std::process::id()))
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)
}

/// One repetition: set up from scratch, crawl, check, and (when
/// `traced`) collect the per-layer measurements.
pub fn run_rep(wl: Workload, seed: u64, world: usize, rep: usize, traced: bool) -> Rep {
    let dir = scratch_dir(rep);
    let data = dir.join("crawl.db");
    if wl == Workload::MonitoredDurable {
        std::fs::create_dir_all(&dir).expect("create the benchmark's scratch dir");
    }
    let mut out = crawl(wl, seed, &data, traced);
    out.world = world;
    if wl == Workload::MonitoredDurable {
        // Best effort: a leftover dir is inside the benchmark's own
        // ignored tmp/ and does not affect later runs.
        let _ = std::fs::remove_dir_all(&dir);
    }
    out
}

fn crawl(wl: Workload, seed: u64, data: &Path, traced: bool) -> Rep {
    let cfg = wl.config(data);
    let mut rep = Rep::default();

    let t = Instant::now();
    let world = World::cycling(Scale::Full, seed);
    let sim = SimFetcher::new(Arc::clone(&world.graph), Some(wl.latency()));
    let fetcher: Arc<dyn Fetcher> = if traced {
        Arc::new(TracingFetcher::new(sim))
    } else {
        Arc::new(sim)
    };
    let session = Arc::new(
        CrawlSession::new(Arc::clone(&fetcher), world.model.clone(), cfg.clone())
            .expect("fresh session"),
    );
    session.seed(&world.start_set(START_SET)).expect("seed");
    rep.setup_s = t.elapsed().as_secs_f64();

    if traced {
        trace::reset();
    }
    let watch = Arc::new(Watch::new(traced));
    let opts = StartOptions {
        observers: vec![Arc::clone(&watch) as Arc<dyn focus_crawler::CrawlObserver>],
        ..StartOptions::default()
    };
    let stop = AtomicBool::new(false);
    let mut monitor_spans = Vec::new();
    let joined = std::thread::scope(|s| {
        let cpu0 = cpu_s(CpuClock::Process);
        let t0 = Instant::now();
        let client = match wl.monitor_plan() {
            MonitorPlan::DuringCrawl { period } => {
                let (session, stop) = (&session, &stop);
                Some(s.spawn(move || monitor_client(session, t0, period, usize::MAX, stop)))
            }
            MonitorPlan::AfterJoin { .. } => None,
        };
        let joined = session.start_with(opts).and_then(|mut run| {
            // Events reach the observer; nobody drains the channel.
            drop(run.take_events());
            run.join()
        });
        rep.wall_s = t0.elapsed().as_secs_f64();
        rep.cpu_s = cpu_s(CpuClock::Process) - cpu0;
        stop.store(true, Ordering::Release);
        if let Some(c) = client {
            let client = c.join().expect("monitor client does not panic");
            // The client is the load generator: its own CPU is not the
            // crawl's (what its queries cost the store shows in the
            // crawl's wall time and in `monitor.*`).
            rep.cpu_s -= client.cpu_s;
            rep.queries = client.queries;
            monitor_spans = client.spans;
        }
        joined
    });
    let page_spans = if traced {
        trace::page_spans()
    } else {
        Vec::new()
    };
    match joined {
        Ok(stats) => rep.stats = stats,
        Err(e) => {
            rep.failed_checks.push(format!("crawl failed: {e}"));
            return rep;
        }
    }
    rep.distills = Watch::get(&watch.distills);
    rep.retries = Watch::get(&watch.retries);
    rep.quarantines = Watch::get(&watch.quarantines);
    match check_outputs(
        &session,
        &rep.stats,
        cfg.max_fetches,
        Watch::get(&watch.stagnations),
    ) {
        Ok(f) => rep.failed_checks.extend(f),
        Err(e) => rep.failed_checks.push(e),
    }
    rep.io = session.with_db_read(|db| db.io_stats());
    if let Durability::File { path, .. } = &cfg.durability {
        rep.wal_bytes = file_len(&minirel::wal_path_for(path));
        rep.data_bytes = file_len(path);
    }
    if let MonitorPlan::AfterJoin { period, queries } = wl.monitor_plan() {
        let never = AtomicBool::new(false);
        let client = monitor_client(&session, Instant::now(), period, queries, &never);
        rep.queries = client.queries;
        monitor_spans = client.spans;
    }

    if traced {
        let t = Instant::now();
        let distilled = session.distill_now();
        let final_pass_ms = t.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = distilled {
            rep.failed_checks.push(format!("distill_now: {e}"));
        }
        let mut spans = page_spans;
        let base = spans.len();
        spans.extend(monitor_spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        rep.traced = Some(Traced {
            spans,
            final_pass_ms,
            classify_us: crate::replay::classify_us_per_page(&world, &rep.stats),
            frontier: crate::replay::frontier_cost(&world, &rep.stats, &cfg),
        });
    }

    if wl == Workload::MonitoredDurable {
        let visited = count(&session, "select count(*) from crawl where visited = 1");
        let links = count(&session, "select count(*) from link");
        drop(session);
        let recovered = CrawlSession::recover(fetcher, world.model.clone(), cfg)
            .map_err(|e| e.to_string())
            .and_then(|s| {
                Ok((
                    count(&s, "select count(*) from crawl where visited = 1")?,
                    count(&s, "select count(*) from link")?,
                ))
            });
        match (visited, links, recovered) {
            (Ok(v), Ok(l), Ok((rv, rl))) if v == rv && l == rl => {}
            (v, l, r) => rep.failed_checks.push(format!(
                "recover: visited/link {v:?}/{l:?} vs recovered {r:?}"
            )),
        }
    }
    rep
}
