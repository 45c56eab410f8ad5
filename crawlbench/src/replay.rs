//! Replays of a finished crawl through single layers, timed from
//! outside: the fetched pages through the compiled classifier, and the
//! crawl's page sequence through the frontier over a fresh database.

use focus_crawler::frontier::{self, FrontierEntry};
use focus_crawler::policy::log_clamped;
use focus_crawler::session::CrawlConfig;
use focus_crawler::{host_server_id, tables, CrawlStats};
use focus_eval::common::World;
use minirel::{Database, Value};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Passes over the fetched pages; the median pass is reported.
const CLASSIFY_PASSES: usize = 3;

/// Median microseconds per page of `evaluate_into` over the crawl's
/// successfully fetched pages.
pub fn classify_us_per_page(world: &World, stats: &CrawlStats) -> f64 {
    let docs: Vec<_> = stats
        .completion_order
        .iter()
        .filter_map(|(oid, _)| world.graph.page(*oid).map(|p| &p.terms))
        .collect();
    if docs.is_empty() {
        return 0.0;
    }
    let mut scratch = world.compiled.scratch();
    let passes: Vec<f64> = (0..CLASSIFY_PASSES)
        .map(|_| {
            let t = Instant::now();
            for d in &docs {
                black_box(world.compiled.evaluate_into(black_box(d), &mut scratch));
            }
            t.elapsed().as_secs_f64() * 1e6 / docs.len() as f64
        })
        .collect();
    crate::stats::median(&passes)
}

/// Per-page cost of the frontier operations in the replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct FrontierCost {
    /// `claim_batch`, µs per page (one batch claim per `batch_size`).
    pub claim_us: f64,
    /// `mark_done`, µs per page.
    pub mark_done_us: f64,
    /// LINK `insert_many`, µs per page.
    pub link_insert_us: f64,
    /// Outlink `upsert_batch`, µs per page.
    pub upsert_us: f64,
    /// Buffer-pool logical reads of all four, per page.
    pub reads_per_page: f64,
}

/// Replay the crawl's successful pages, in completion order, into a
/// fresh `tables::create_tables` database with the crawl's buffer-pool
/// size: claim a batch every `batch_size` pages, then per page mark it
/// done, insert its LINK rows, and upsert its outlinks at its relevance
/// (SoftFocus). Inputs are built before each timed call, as the crawl
/// builds them outside the B+tree calls.
pub fn frontier_cost(world: &World, stats: &CrawlStats, cfg: &CrawlConfig) -> FrontierCost {
    let mut db = Database::in_memory_with_frames(cfg.db_frames);
    tables::create_tables(&mut db).expect("tables");
    let link_tid = db.table_id("link").expect("link table");
    let seeds: Vec<FrontierEntry> = world
        .start_set(crate::workload::START_SET)
        .into_iter()
        .map(|oid| entry(world, oid, 0.0))
        .collect();
    frontier::upsert_batch(&mut db, &seeds).expect("seed");

    let mut spent = [Duration::ZERO; 4];
    let mut timed = |i: usize, db: &mut Database, f: &mut dyn FnMut(&mut Database)| -> u64 {
        let r0 = db.io_stats().logical_reads;
        let t = Instant::now();
        f(db);
        spent[i] += t.elapsed();
        db.io_stats().logical_reads - r0
    };
    let mut reads = 0;
    let mut pages = 0usize;
    let batch = cfg.batch_size.max(1);
    for (i, &(oid, r)) in stats.completion_order.iter().enumerate() {
        let Some(page) = world.graph.page(oid) else {
            continue;
        };
        let log_r = log_clamped(r);
        if i % batch == 0 {
            reads += timed(0, &mut db, &mut |db| {
                black_box(frontier::claim_batch(db, batch, i64::MAX).expect("claim"));
            });
        }
        // Pages the replay never discovered (the crawl found them
        // through a distill boost) enter untimed.
        if !has_row(&db, oid) {
            frontier::upsert_batch(&mut db, &[entry(world, oid, log_r)]).expect("enqueue");
        }
        reads += timed(1, &mut db, &mut |db| {
            frontier::mark_done(db, oid, &page.url, log_r, 0, 0).expect("mark_done");
        });
        let sid_src = host_server_id(&page.url).raw() as i64;
        let rows: Vec<Vec<Value>> = page
            .outlinks
            .iter()
            .map(|&dst| {
                let url = world.graph.page(dst).map_or("", |p| p.url.as_str());
                vec![
                    Value::Int(oid.raw() as i64),
                    Value::Int(sid_src),
                    Value::Int(dst.raw() as i64),
                    Value::Int(host_server_id(url).raw() as i64),
                    Value::Int(0),
                ]
            })
            .collect();
        let mut rows = Some(rows);
        reads += timed(2, &mut db, &mut |db| {
            db.insert_many(link_tid, rows.take().expect("once"))
                .expect("link rows");
        });
        let outs: Vec<FrontierEntry> = page
            .outlinks
            .iter()
            .map(|&dst| entry(world, dst, log_r))
            .collect();
        reads += timed(3, &mut db, &mut |db| {
            black_box(frontier::upsert_batch(db, &outs).expect("upsert"));
        });
        pages += 1;
    }
    let per = |d: Duration| d.as_secs_f64() * 1e6 / pages.max(1) as f64;
    FrontierCost {
        claim_us: per(spent[0]),
        mark_done_us: per(spent[1]),
        link_insert_us: per(spent[2]),
        upsert_us: per(spent[3]),
        reads_per_page: reads as f64 / pages.max(1) as f64,
    }
}

fn entry(world: &World, oid: focus_types::Oid, log_relevance: f64) -> FrontierEntry {
    FrontierEntry {
        oid,
        url: world
            .graph
            .page(oid)
            .map(|p| p.url.clone())
            .unwrap_or_default(),
        log_relevance,
        serverload: 0,
    }
}

fn has_row(db: &Database, oid: focus_types::Oid) -> bool {
    db.query_with(
        "select count(*) from crawl where oid = ?",
        &[Value::Int(oid.raw() as i64)],
    )
    .ok()
    .and_then(|r| r.scalar_i64())
    .is_some_and(|n| n > 0)
}
