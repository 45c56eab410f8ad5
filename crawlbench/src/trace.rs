//! Tracing from outside the program: a wrapping [`Fetcher`] and a
//! [`CrawlObserver`] time the calls into the crawler's layers and record
//! raw marks into per-thread buffers. Observers run under the store
//! write lock, so a mark costs one uncontended per-thread mutex and a
//! `Vec` push; no two crawl threads ever touch the same buffer. Spans
//! are assembled from the marks after the run and written out then.

use crate::stats::{self, Interval};
use focus_crawler::{CrawlEvent, CrawlObserver};
use focus_types::{Oid, ServerId};
use focus_webgraph::{FetchError, FetchedPage, Fetcher};
use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A raw timing mark; `(oid, attempt)` is the request id.
#[derive(Debug, Clone, Copy)]
enum Mark {
    /// A call into the fetcher, on the thread that fetched.
    Fetch {
        oid: u64,
        attempt: u64,
        start: u64,
        end: u64,
    },
    /// `PageClassified` or `FetchFailed` reached the observer.
    Done {
        oid: u64,
        attempt: u64,
        at: u64,
        ok: bool,
    },
    /// A distill pass: from the page's `PageClassified` to the
    /// `DistillCompleted` that followed on the same thread.
    Distill {
        oid: u64,
        attempt: u64,
        start: u64,
        end: u64,
    },
}

type Buffer = Arc<Mutex<Vec<Mark>>>;

/// Every thread's buffer; locked once per thread (registration) and at
/// collection, never per mark.
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Buffer = {
        let b = Buffer::default();
        BUFFERS.lock().expect("no registrant panics").push(Arc::clone(&b));
        b
    };
    /// The last page this thread classified: a distill pass that follows
    /// on the same thread was triggered by it.
    static LAST_CLASSIFIED: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

fn record(m: Mark) {
    LOCAL.with(|b| b.lock().expect("only this thread records").push(m));
}

/// Take every mark recorded so far, forgetting buffers of exited threads.
fn collect() -> Vec<Mark> {
    let mut all = Vec::new();
    let mut bufs = BUFFERS.lock().expect("no registrant panics");
    for b in bufs.iter() {
        all.append(&mut b.lock().expect("recorders do not panic"));
    }
    bufs.retain(|b| Arc::strong_count(b) > 1);
    all
}

/// Discard marks left over from an earlier crawl.
pub fn reset() {
    collect();
}

/// A [`Fetcher`] that times every fetch of the one it wraps.
pub struct TracingFetcher<F> {
    inner: F,
}

impl<F: Fetcher> TracingFetcher<F> {
    /// Wrap `inner`.
    pub fn new(inner: F) -> Self {
        TracingFetcher { inner }
    }
}

/// Only `fetch_with_ordinal` is timed: the crawl fetches through it, on
/// both the inline and the pooled path.
impl<F: Fetcher> Fetcher for TracingFetcher<F> {
    fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
        self.inner.fetch(oid)
    }

    fn fetch_with_ordinal(&self, oid: Oid, ordinal: u64) -> Result<FetchedPage, FetchError> {
        let start = now_ns();
        let r = self.inner.fetch_with_ordinal(oid, ordinal);
        // The crawler numbers attempts from 1 and passes `attempt - 1`.
        record(Mark::Fetch {
            oid: oid.raw(),
            attempt: ordinal + 1,
            start,
            end: now_ns(),
        });
        r
    }

    fn fetch_count(&self) -> u64 {
        self.inner.fetch_count()
    }

    fn backlinks(&self, oid: Oid) -> Option<Vec<(Oid, String)>> {
        self.inner.backlinks(oid)
    }

    fn url_of(&self, oid: Oid) -> Option<String> {
        self.inner.url_of(oid)
    }

    fn server_of(&self, oid: Oid) -> Option<ServerId> {
        self.inner.server_of(oid)
    }
}

/// Counts the rare events every run checks (stagnation, retries,
/// quarantines, distill passes) and, when tracing, marks page
/// completions and distill pauses.
#[derive(Default)]
pub struct Watch {
    traced: bool,
    /// `FrontierStagnated` events.
    pub stagnations: AtomicU64,
    /// `FetchRetried` events.
    pub retries: AtomicU64,
    /// `ServerQuarantined` events.
    pub quarantines: AtomicU64,
    /// `DistillCompleted` events.
    pub distills: AtomicU64,
}

impl Watch {
    /// A watch that also marks spans when `traced`.
    pub fn new(traced: bool) -> Watch {
        Watch {
            traced,
            ..Watch::default()
        }
    }

    /// Read one counter.
    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }
}

impl CrawlObserver for Watch {
    fn on_event(&self, event: &CrawlEvent) {
        let bump = |c: &AtomicU64| {
            c.fetch_add(1, Ordering::Relaxed);
        };
        match event {
            CrawlEvent::PageClassified { oid, attempt, .. } if self.traced => {
                let at = now_ns();
                LAST_CLASSIFIED.with(|c| c.set((oid.raw(), *attempt, at)));
                record(Mark::Done {
                    oid: oid.raw(),
                    attempt: *attempt,
                    at,
                    ok: true,
                });
            }
            CrawlEvent::FetchFailed { oid, attempt, .. } if self.traced => {
                record(Mark::Done {
                    oid: oid.raw(),
                    attempt: *attempt,
                    at: now_ns(),
                    ok: false,
                });
            }
            CrawlEvent::DistillCompleted { .. } => {
                bump(&self.distills);
                if self.traced {
                    let (oid, attempt, start) = LAST_CLASSIFIED.with(Cell::get);
                    record(Mark::Distill {
                        oid,
                        attempt,
                        start,
                        end: now_ns(),
                    });
                }
            }
            CrawlEvent::FrontierStagnated { .. } => bump(&self.stagnations),
            CrawlEvent::FetchRetried { .. } => bump(&self.retries),
            CrawlEvent::ServerQuarantined { .. } => bump(&self.quarantines),
            _ => {}
        }
    }
}

/// One assembled span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Request id: `oid:attempt` for pages, `q<n>` for monitor queries.
    pub req: String,
    /// Start, ns since the process epoch.
    pub start: u64,
    /// End, ns since the process epoch.
    pub end: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Span names, one per layer boundary the benchmark times.
pub mod name {
    /// A page attempt, from fetch start to its completion event.
    pub const PAGE: &str = "page";
    /// `webgraph` fetch.
    pub const FETCH: &str = "fetch";
    /// Fetch end to `PageClassified`: classify, queue wait, store-lock
    /// wait and flush (`crawler::fetch_pool`, `crawler::session`).
    pub const TURNAROUND: &str = "turnaround";
    /// A distill pass under the store write lock (`distiller`).
    pub const DISTILL: &str = "distill";
    /// A monitor query, from its due time to completion.
    pub const QUERY: &str = "monitor.query";
    /// Call to entering the `with_db_read` closure.
    pub const LOCK_WAIT: &str = "monitor.lock_wait";
    /// The applet's SQL (`minirel::sql`, `crawler::monitor`).
    pub const EXEC: &str = "monitor.exec";
}

/// Assemble the page spans of one crawl from the marks recorded since
/// the last [`reset`]. A completion whose fetch mark is missing (the
/// `Unclassifiable` path) becomes a page span with no fetch child.
pub fn page_spans() -> Vec<Span> {
    let marks = collect();
    let mut fetches: HashMap<(u64, u64), (u64, u64)> = HashMap::new();
    for m in &marks {
        if let Mark::Fetch {
            oid,
            attempt,
            start,
            end,
        } = *m
        {
            fetches.insert((oid, attempt), (start, end));
        }
    }
    let mut spans = Vec::new();
    let mut page_of: HashMap<(u64, u64), usize> = HashMap::new();
    for m in &marks {
        if let Mark::Done {
            oid,
            attempt,
            at,
            ok,
        } = *m
        {
            let req = format!("{oid}:{attempt}");
            let (fs, fe) = fetches.get(&(oid, attempt)).copied().unwrap_or((at, at));
            let page = spans.len();
            page_of.insert((oid, attempt), page);
            spans.push(Span {
                name: name::PAGE,
                req: req.clone(),
                start: fs,
                end: at,
                parent: None,
            });
            spans.push(Span {
                name: name::FETCH,
                req: req.clone(),
                start: fs,
                end: fe,
                parent: Some(page),
            });
            if ok {
                spans.push(Span {
                    name: name::TURNAROUND,
                    req,
                    start: fe,
                    end: at,
                    parent: Some(page),
                });
            }
        }
    }
    for m in &marks {
        if let Mark::Distill {
            oid,
            attempt,
            start,
            end,
        } = *m
        {
            spans.push(Span {
                name: name::DISTILL,
                req: format!("{oid}:{attempt}"),
                start,
                end,
                parent: page_of.get(&(oid, attempt)).copied(),
            });
        }
    }
    spans
}

/// Durations (ns) of the spans called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64)
        .collect()
}

/// Total self time (ns) and span count per span name over several
/// crawls' spans (parent indices are local to each crawl), sorted by
/// name.
pub fn self_time_by_name(crawls: &[&[Span]]) -> Vec<(&'static str, u64, usize)> {
    let mut by: HashMap<&'static str, (u64, usize)> = HashMap::new();
    for spans in crawls {
        let intervals: Vec<Interval> = spans
            .iter()
            .map(|s| Interval {
                start: s.start,
                end: s.end,
                parent: s.parent,
            })
            .collect();
        for (s, t) in spans.iter().zip(stats::self_times(&intervals)) {
            let e = by.entry(s.name).or_default();
            e.0 += t;
            e.1 += 1;
        }
    }
    let mut v: Vec<_> = by.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
    v.sort_by_key(|e| e.0);
    v
}

/// Write spans as tab-separated `id parent name req start_ns end_ns`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.name, s.req, s.start, s.end
        )?;
    }
    w.flush()
}
