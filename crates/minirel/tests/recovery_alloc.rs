//! Recovery memory is bounded by one commit group, not by the log.
//!
//! A global allocator tracks the peak of live heap bytes while
//! `Database::open` recovers a multi-megabyte WAL that ends in a torn
//! header declaring an almost maximal payload. Reading the whole log
//! into memory (or copying every record out of it) costs at least the
//! log's size; a streaming replay costs a few buffers. This file holds
//! exactly one test so no concurrent test in the same binary can
//! allocate under the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use minirel::wal::{KIND_PAGE_IMAGE, MAX_PAYLOAD};
use minirel::{Database, Value};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Log size the test builds, at least.
const WAL_BYTES: u64 = 8 << 20;

#[test]
fn recovery_peak_heap_is_bounded_by_a_commit_group() {
    let path = std::env::temp_dir().join(format!("minirel-recalloc-{}.db", std::process::id()));
    let wal_path = minirel::wal_path_for(&path);
    let cleanup = |p: &PathBuf| {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(minirel::wal_path_for(p));
    };
    cleanup(&path);

    // Many small commits through an 8-frame pool: every commit logs the
    // page images it dirtied, and evictions log more in between.
    let mut rows = 0i64;
    {
        let mut db = Database::open_with(&path, 8, 64).unwrap();
        db.execute("create table t (a int, pad text)").unwrap();
        db.execute("create index t_a on t (a)").unwrap();
        let tid = db.table_id("t").unwrap();
        let wal = db.wal().unwrap();
        while wal.len_bytes() < WAL_BYTES {
            for _ in 0..8 {
                db.insert(
                    tid,
                    vec![Value::Int(rows), Value::Str(format!("pad-{rows:08}"))],
                )
                .unwrap();
                rows += 1;
            }
            db.commit().unwrap();
        }
        db.commit_durable().unwrap();
    }
    let wal_len = std::fs::metadata(&wal_path).unwrap().len();
    assert!(wal_len >= WAL_BYTES);

    // A torn header declaring a payload just under the cap, with none of
    // its bytes behind it.
    let mut torn = Vec::new();
    torn.extend_from_slice(&u64::MAX.to_le_bytes());
    torn.push(KIND_PAGE_IMAGE);
    torn.extend_from_slice(&((MAX_PAYLOAD - 1) as u32).to_le_bytes());
    torn.extend_from_slice(&0u64.to_le_bytes());
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&wal_path)
        .unwrap();
    f.write_all(&torn).unwrap();
    drop(f);

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let db = Database::open_with(&path, 8, 64).unwrap();
    let peak = PEAK.load(Ordering::SeqCst) - base;

    // Recovery still lands on the last commit.
    assert_eq!(
        db.query("select count(*) from t").unwrap().scalar_i64(),
        Some(rows)
    );
    drop(db);
    cleanup(&path);

    // A whole-log read holds about twice the log (the bytes plus a copy
    // of every record); a streaming replay holds about a hundred KB (the
    // pool's frames, a read buffer, one read step for the torn header).
    // An eighth of the log leaves a wide margin on both sides.
    let bound = (wal_len / 8) as usize;
    assert!(
        peak <= bound,
        "recovering a {wal_len}-byte wal peaked at {peak} live heap bytes (bound {bound})"
    );
}
