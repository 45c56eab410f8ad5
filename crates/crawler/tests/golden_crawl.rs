//! Golden digests of single-worker crawls.
//!
//! A one-worker crawl is deterministic: the claim order, every fetch
//! ordinal (and so every injected fault), every failure flush and every
//! distillation land in the same sequence on every run. This suite pins
//! that sequence for four configurations by folding the harvest series
//! and the completion order into a 64-bit FNV-1a digest, so a change
//! that reorders claims or fetches moves a digest.
//!
//! FNV-1a is spelled out here rather than borrowed from
//! `std::collections::hash_map::DefaultHasher`, whose algorithm is not
//! stable across toolchains.

use focus_classifier::train::{train, TrainConfig};
use focus_crawler::session::{CrawlConfig, CrawlSession, CrawlStats, Durability};
use focus_types::ClassId;
use focus_webgraph::{
    ChaosFetcher, ChaosSchedule, FaultProfile, Fetcher, SimFetcher, WebConfig, WebGraph,
};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `(attempt, R.to_bits())` of the harvest series,
/// then `(oid, R.to_bits())` of the completion order, each word
/// little-endian.
fn digest(stats: &CrawlStats) -> u64 {
    let words = stats
        .harvest
        .iter()
        .flat_map(|&(attempt, r)| [attempt, r.to_bits()])
        .chain(
            stats
                .completion_order
                .iter()
                .flat_map(|&(oid, r)| [oid.raw(), r.to_bits()]),
        );
    let mut h = FNV_OFFSET;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

#[test]
fn fnv1a_matches_the_reference_vector() {
    // FNV-1a 64 of the empty input is the offset basis; of the single
    // byte 'a' it is the published test vector 0xaf63dc4c8601ec8c.
    let mut h = FNV_OFFSET;
    h ^= u64::from(b'a');
    h = h.wrapping_mul(FNV_PRIME);
    assert_eq!(h, 0xaf63_dc4c_8601_ec8c);
    assert_eq!(digest(&CrawlStats::default()), FNV_OFFSET);
}

/// One golden configuration's expected outcome.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    digest: u64,
    attempts: u64,
    successes: u64,
    failures: u64,
    distillations: u64,
}

enum World {
    Clean,
    /// Every server flaky at p = 0.2, schedule seed 42.
    Chaos,
}

fn crawl(world: World, cfg: CrawlConfig) -> Golden {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    let mut taxonomy = graph.taxonomy().clone();
    let cycling = taxonomy.find("recreation/cycling").unwrap();
    taxonomy.mark_good(cycling).unwrap();
    let mut examples = Vec::new();
    for c in taxonomy.all() {
        if c == ClassId::ROOT {
            continue;
        }
        for d in graph.example_docs(c, 6, 99) {
            examples.push((c, d));
        }
    }
    let model = train(&taxonomy, &examples, &TrainConfig::default());
    let sim = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
    let fetcher: Arc<dyn Fetcher> = match world {
        World::Clean => sim,
        World::Chaos => {
            let mut schedule = ChaosSchedule::new(42);
            for p in graph.pages() {
                schedule = schedule.with_profile(p.server, FaultProfile::Flaky { p: 0.2 });
            }
            Arc::new(ChaosFetcher::new(sim, schedule))
        }
    };
    let session = Arc::new(CrawlSession::new(fetcher, model, cfg).unwrap());
    session
        .seed(&focus_webgraph::search::topic_start_set(
            &graph, cycling, 10,
        ))
        .unwrap();
    let stats = session.run().unwrap();
    Golden {
        digest: digest(&stats),
        attempts: stats.attempts,
        successes: stats.successes,
        failures: stats.failures,
        distillations: stats.distillations,
    }
}

/// One worker, 600 fetches, no distillation: the shape every golden
/// configuration starts from.
fn one_worker(batch_size: usize) -> CrawlConfig {
    CrawlConfig {
        threads: 1,
        max_fetches: 600,
        distill_every: None,
        batch_size,
        ..CrawlConfig::default()
    }
}

#[test]
fn batch_8_crawl_is_pinned() {
    let got = crawl(World::Clean, one_worker(8));
    assert_eq!(
        got,
        Golden {
            digest: 0x5fe1_f64a_a88e_2f62,
            attempts: 600,
            successes: 582,
            failures: 18,
            distillations: 0,
        }
    );
}

#[test]
fn batch_1_crawl_is_pinned() {
    let got = crawl(World::Clean, one_worker(1));
    assert_eq!(
        got,
        Golden {
            digest: 0x0f89_c804_5961_018c,
            attempts: 600,
            successes: 582,
            failures: 18,
            distillations: 0,
        }
    );
}

#[test]
fn chaos_crawl_is_pinned() {
    let got = crawl(World::Chaos, one_worker(8));
    assert_eq!(
        got,
        Golden {
            digest: 0x5fa8_9d46_e505_1de9,
            attempts: 600,
            successes: 467,
            failures: 133,
            distillations: 0,
        }
    );
}

/// WAL commit points and four distillation passes on top of the chaos
/// world. The digest equals [`chaos_crawl_is_pinned`]'s: at this scale
/// neither reorders a claim, which this test pins as well.
#[test]
fn chaos_wal_distill_crawl_is_pinned() {
    let got = crawl(
        World::Chaos,
        CrawlConfig {
            durability: Durability::Wal { group_commit: 4 },
            distill_every: Some(100),
            ..one_worker(8)
        },
    );
    assert_eq!(
        got,
        Golden {
            digest: 0x5fa8_9d46_e505_1de9,
            attempts: 600,
            successes: 467,
            failures: 133,
            distillations: 4,
        }
    );
}
