//! Quickstart: discover cycling resources by example.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a synthetic web, marks `recreation/cycling` good, trains the
//! classifier from example documents, runs a focused crawl, and prints
//! the harvest plus the top hubs/authorities the distiller found.

use focus::prelude::*;
use focus::ClassId;
use std::sync::Arc;

fn main() {
    // 1. A web to crawl (the paper used the 1999 Web; we simulate one
    //    with the same radius-1/radius-2 link statistics).
    let graph = Arc::new(WebGraph::generate(WebConfig {
        seed: 7,
        pages_per_topic: 150,
        ..WebConfig::default()
    }));
    let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));

    // 2. Administration: mark the good topic and attach examples D(c).
    let mut builder = FocusBuilder::new(graph.taxonomy().clone());
    let cycling = builder
        .mark_good_by_name("recreation/cycling")
        .expect("topic exists");
    for topic in builder.taxonomy().all().collect::<Vec<_>>() {
        if topic != ClassId::ROOT {
            builder.add_examples(topic, graph.example_docs(topic, 10, 1));
        }
    }

    // 3. Train + crawl.
    let system = builder
        .crawl_config(CrawlConfig {
            policy: CrawlPolicy::SoftFocus,
            threads: 4,
            max_fetches: 600,
            distill_every: Some(200),
            ..CrawlConfig::default()
        })
        .build(fetcher)
        .expect("system builds");

    let seeds = focus::search::topic_start_set(&graph, cycling, 15);
    println!(
        "seeding with {} keyword-search results for 'cycling'...",
        seeds.len()
    );

    // Start a controllable background run, watch its event stream live,
    // then join for the classic batch outcome.
    let mut run = system.start(&seeds).expect("crawl starts");
    let events = run.take_events().expect("event stream");
    let mut ticks = 0u64;
    for ev in events {
        if let focus::DiscoveryEvent::PageClassified { relevance, .. } = ev {
            ticks += 1;
            if ticks.is_multiple_of(100) {
                println!("  [live] {ticks} pages classified (last R = {relevance:.3})");
            }
        }
    }
    let outcome = run.join().expect("crawl runs");

    // 4. Results.
    println!(
        "\ncrawled {} pages ({} attempts, {} failures); mean harvest = {:.3}",
        outcome.stats.successes,
        outcome.stats.attempts,
        outcome.stats.failures,
        outcome.stats.mean_harvest()
    );
    println!("\ntop authorities:");
    for &(oid, score) in outcome.distill.top_auths(5) {
        let url = graph.page(oid).map(|p| p.url.clone()).unwrap_or_default();
        println!("  {score:.5}  {url}");
    }
    println!("\ntop hubs (resource lists worth revisiting):");
    for &(oid, score) in outcome.distill.top_hubs(5) {
        let url = graph.page(oid).map(|p| p.url.clone()).unwrap_or_default();
        println!("  {score:.5}  {url}");
    }

    // 5. The crawl state is a real database: ask it anything.
    let harvest = system.with_db_read(|db| {
        db.query("select count(*) from crawl where visited = 1 and relevance > -1")
            .expect("sql runs")
            .scalar_i64()
            .unwrap_or(0)
    });
    println!("\npages with log R > -1 (the paper's relevance cut): {harvest}");
}
