//! Crash recovery (redo-on-open) and WAL-shipping read replicas.
//!
//! # Recovery
//!
//! The data file holds only *checkpointed* state; everything since lives
//! in the WAL as page images, and each [`crate::wal::KIND_COMMIT`]
//! record carries a full **catalog image** (schemas, heap page lists,
//! B+tree roots — metadata that is otherwise in-memory only). Recovery
//! is therefore a single forward pass over a stream of the log's valid,
//! checksummed prefix ([`replay_from`]), one commit group at a time:
//! page images are staged until the Commit that covers them, which
//! installs them into the data file in log order, and the last
//! Commit's catalog is adopted. Images past the last commit — a torn
//! tail, an unfinished batch — are dropped uninterpreted. Memory is
//! bounded by one commit group, never by the log. Replaying is
//! **idempotent**: images are whole-page writes applied in log order,
//! so running recovery twice lands on the same bytes.
//!
//! # Replication
//!
//! A [`Replica`] is a read-only follower `Database` fed from the
//! leader's WAL:
//!
//! * [`Replica::spawn`] (in-process): base snapshot of the leader's
//!   committed pages + catalog, then an `mpsc` subscription to the
//!   committed record stream. Each commit is applied atomically under
//!   the follower's write lock, so readers always see a consistent
//!   commit boundary.
//! * [`Replica::tail_file`] (cross-process): replays the leader's
//!   data + WAL files, then polls the WAL file, reading only the bytes
//!   past the last applied commit. Valid for the duration of one
//!   leader run (a leader restart rotates the log and the tailer
//!   reports an error).
//!
//! All three paths share one staging rule (`CommitGroup`: images wait
//! for their commit) over one record reader ([`RecordReader`]).
//!
//! **Staleness contract**: a replica lags the leader by at most the
//! in-flight commit chunk (channel mode) or one poll interval (file
//! mode); [`Replica::applied_lsn`] / [`Replica::wait_for_lsn`] let
//! callers line a read up with a known commit.

use crate::btree::BTree;
use crate::catalog::{Catalog, IndexInfo, TableInfo};
use crate::db::{wal_path_for, Database, ResultSet};
use crate::disk::DiskManager;
use crate::error::{DbError, DbResult};
use crate::heap::HeapFile;
use crate::page::{PageId, PAGE_SIZE};
use crate::schema::{Column, ColumnType, Schema};
use crate::wal::{RecordReader, RecordRef, KIND_CHECKPOINT, KIND_COMMIT, KIND_PAGE_IMAGE};
use lockcheck::{rank, OrderedMutex, OrderedRwLock};
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Catalog image codec
// ---------------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        if self.off + n > self.buf.len() {
            return Err(DbError::Corrupt(format!(
                "catalog image truncated at byte {} (wanted {} more)",
                self.off, n
            )));
        }
        let s = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn u8(&mut self) -> DbResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> DbResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> DbResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> DbResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> DbResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DbError::Corrupt("catalog image holds non-utf8 name".into()))
    }
}

fn ty_tag(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Int => 0,
        ColumnType::Float => 1,
        ColumnType::Str => 2,
    }
}

fn tag_ty(tag: u8) -> DbResult<ColumnType> {
    match tag {
        0 => Ok(ColumnType::Int),
        1 => Ok(ColumnType::Float),
        2 => Ok(ColumnType::Str),
        t => Err(DbError::Corrupt(format!(
            "catalog image holds unknown column type tag {t}"
        ))),
    }
}

/// Serialize the whole catalog — every table slot in id order, dropped
/// slots included so `TableId`s survive recovery unchanged.
pub fn encode_catalog(cat: &Catalog) -> Vec<u8> {
    let slots = cat.slots();
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(&(slots.len() as u32).to_le_bytes());
    for t in slots {
        put_str(&mut out, &t.name);
        out.extend_from_slice(&(t.schema.columns.len() as u32).to_le_bytes());
        for c in &t.schema.columns {
            put_str(&mut out, &c.name);
            out.push(ty_tag(c.ty));
        }
        let (pages, hints, live) = t.heap.snapshot_parts();
        out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
        for &p in pages {
            out.extend_from_slice(&p.to_le_bytes());
        }
        for &h in hints {
            out.extend_from_slice(&h.to_le_bytes());
        }
        out.extend_from_slice(&live.to_le_bytes());
        out.extend_from_slice(&(t.indexes.len() as u32).to_le_bytes());
        for idx in &t.indexes {
            put_str(&mut out, &idx.name);
            out.extend_from_slice(&(idx.cols.len() as u32).to_le_bytes());
            for &c in &idx.cols {
                out.extend_from_slice(&(c as u32).to_le_bytes());
            }
            out.extend_from_slice(&idx.btree.root().to_le_bytes());
            out.extend_from_slice(&idx.btree.len().to_le_bytes());
        }
    }
    out
}

/// Decode a catalog image (strict: any truncation or bad tag is
/// [`DbError::Corrupt`], never a silently partial catalog).
pub fn decode_catalog(bytes: &[u8]) -> DbResult<Catalog> {
    let mut r = Reader { buf: bytes, off: 0 };
    let n_tables = r.u32()? as usize;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let name = r.str()?;
        let n_cols = r.u32()? as usize;
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let cname = r.str()?;
            let ty = tag_ty(r.u8()?)?;
            columns.push(Column::new(cname, ty));
        }
        let n_pages = r.u32()? as usize;
        let mut pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            pages.push(r.u32()?);
        }
        let mut hints = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            hints.push(r.u16()?);
        }
        let live = r.u64()?;
        let n_idx = r.u32()? as usize;
        let mut indexes = Vec::with_capacity(n_idx);
        for _ in 0..n_idx {
            let iname = r.str()?;
            let n_cols = r.u32()? as usize;
            let mut cols = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                cols.push(r.u32()? as usize);
            }
            let root = r.u32()?;
            let len = r.u64()?;
            indexes.push(IndexInfo {
                name: iname,
                cols,
                btree: BTree::from_parts(root, len),
            });
        }
        tables.push(TableInfo {
            name,
            schema: Schema { columns },
            heap: HeapFile::from_parts(pages, hints, live),
            indexes,
        });
    }
    if r.off != bytes.len() {
        return Err(DbError::Corrupt(format!(
            "catalog image has {} trailing bytes",
            bytes.len() - r.off
        )));
    }
    Ok(Catalog::from_slots(tables))
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// What a successful replay recovered.
pub struct Recovered {
    /// Catalog of the last committed state.
    pub catalog: Catalog,
    /// LSN of the last applied commit.
    pub last_lsn: u64,
    /// Data-file page count at that commit.
    pub num_pages: u32,
    /// Byte offset just past the last applied Commit/Checkpoint record
    /// (a file tailer resumes scanning here).
    pub applied_end: u64,
}

fn parse_page_image(payload: &[u8]) -> DbResult<(PageId, &[u8; PAGE_SIZE])> {
    if payload.len() != 4 + PAGE_SIZE {
        return Err(DbError::Corrupt(format!(
            "page-image payload of {} bytes (want {})",
            payload.len(),
            4 + PAGE_SIZE
        )));
    }
    let pid = u32::from_le_bytes(payload[0..4].try_into().expect("4"));
    Ok((pid, payload[4..].try_into().expect("length checked")))
}

fn parse_commit(payload: &[u8]) -> DbResult<(u32, &[u8])> {
    if payload.len() < 4 {
        return Err(DbError::Corrupt(
            "commit payload shorter than 4 bytes".into(),
        ));
    }
    let num_pages = u32::from_le_bytes(payload[0..4].try_into().expect("4"));
    Ok((num_pages, &payload[4..]))
}

/// Page images staged until the commit that covers them lands: the one
/// rule recovery and both replica modes share. Payloads wait
/// uninterpreted (an image no commit covers is never parsed), back to
/// back in one buffer reused from group to group.
#[derive(Default)]
struct CommitGroup {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl CommitGroup {
    /// Feed one record. A page image is staged; a Commit returns its
    /// `(num_pages, catalog image)`, and the caller then installs the
    /// group with [`CommitGroup::install`]; a Checkpoint changes nothing.
    fn feed<'p>(&mut self, kind: u8, payload: &'p [u8]) -> DbResult<Option<(u32, &'p [u8])>> {
        match kind {
            KIND_PAGE_IMAGE => {
                self.bytes.extend_from_slice(payload);
                self.ends.push(self.bytes.len());
                Ok(None)
            }
            KIND_COMMIT => parse_commit(payload).map(Some),
            KIND_CHECKPOINT => Ok(None),
            _ => unreachable!("the record reader only yields known kinds"),
        }
    }

    /// Hand every staged image to `write` in log order, then empty the
    /// group.
    fn install(
        &mut self,
        mut write: impl FnMut(PageId, &[u8; PAGE_SIZE]) -> DbResult<()>,
    ) -> DbResult<()> {
        let mut start = 0;
        for &end in &self.ends {
            let (pid, img) = parse_page_image(&self.bytes[start..end])?;
            write(pid, img)?;
            start = end;
        }
        self.clear();
        Ok(())
    }

    /// Drop the staged images: a tail no commit covers (yet).
    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }
}

/// Redo the log read from `wal` onto `disk` in one forward pass, one
/// commit group at a time: each Commit installs the page images staged
/// since the previous one, in log order, and the images past the last
/// commit are dropped. Memory is bounded by one commit group, not by
/// the log. Returns the last commit's catalog; `Ok(None)` when the log
/// holds no commit at all (fresh database). Reading stops at the first
/// truncated or corrupt record (the torn tail); only an I/O error from
/// `wal` fails the replay. Idempotent — a second call over the same
/// inputs rewrites identical bytes.
pub fn replay_from(disk: &mut DiskManager, wal: impl Read) -> DbResult<Option<Recovered>> {
    let mut records = RecordReader::new(wal);
    let mut group = CommitGroup::default();
    let mut catalog = Vec::new();
    // (num_pages, lsn, end offset) of the last commit seen.
    let mut last = None;
    while let Some(rec) = records.next_valid()? {
        if let Some((num_pages, cat)) = group.feed(rec.kind, rec.payload)? {
            group.install(|pid, img| disk.write_ensure(pid, img))?;
            catalog.clear();
            catalog.extend_from_slice(cat);
            last = Some((num_pages, rec.lsn, rec.end));
        }
    }
    let Some((num_pages, last_lsn, applied_end)) = last else {
        return Ok(None);
    };
    let catalog = decode_catalog(&catalog)?;
    // The commit may reference pages the crash kept the data file from
    // ever growing to (e.g. allocated, logged, never checkpointed).
    if num_pages > 0 {
        let zero = [0u8; PAGE_SIZE];
        while disk.num_pages() < num_pages {
            let pid = disk.num_pages();
            disk.write_ensure(pid, &zero)?;
        }
    }
    Ok(Some(Recovered {
        catalog,
        last_lsn,
        num_pages,
        applied_end,
    }))
}

/// [`replay_from`] over a log already in memory.
pub fn replay_into(disk: &mut DiskManager, wal_bytes: &[u8]) -> DbResult<Option<Recovered>> {
    replay_from(disk, wal_bytes)
}

/// Open the WAL at `path` for a buffered forward read.
pub(crate) fn open_log(path: &Path) -> DbResult<BufReader<File>> {
    File::open(path)
        .map(BufReader::new)
        .map_err(|e| DbError::io("open", path, e))
}

/// Checkpoint markers in the valid prefix of the WAL at `path`.
fn count_checkpoints(path: &Path) -> DbResult<u64> {
    let mut records = RecordReader::new(open_log(path)?);
    let mut n = 0;
    while let Some(rec) = records.next_valid()? {
        n += u64::from(rec.kind == KIND_CHECKPOINT);
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

/// Shared follower state the apply thread and readers both touch.
struct ReplicaShared {
    db: OrderedRwLock<Database>,
    applied_lsn: AtomicU64,
    stop: AtomicBool,
    error: OrderedMutex<Option<String>>,
}

/// A read-only replica `Database` kept fresh from the leader's WAL.
///
/// Reads ([`Replica::query`], [`Replica::with_db`]) take the follower's
/// read lock, so the whole monitor suite runs here without touching the
/// leader's store lock at all. Dropping the replica stops and joins the
/// apply thread.
pub struct Replica {
    shared: Arc<ReplicaShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Applies one record to the follower: a commit installs its staged
/// group and its catalog atomically.
fn apply_record(
    shared: &ReplicaShared,
    group: &mut CommitGroup,
    rec: RecordRef<'_>,
) -> DbResult<()> {
    let Some((_num_pages, cat)) = group.feed(rec.kind, rec.payload)? else {
        return Ok(());
    };
    let catalog = decode_catalog(cat)?;
    // One write-lock hold for pages AND catalog: a reader must never
    // see new page bytes through the old catalog.
    let mut db = shared.db.write();
    group.install(|pid, img| db.install_page(pid, img))?;
    db.replace_catalog(catalog);
    drop(db);
    shared.applied_lsn.store(rec.lsn, Ordering::Release);
    Ok(())
}

/// One poll of a file-tailing replica: apply the whole commit groups the
/// WAL at `wal_path` holds past `offset`, reading only those bytes, and
/// return the offset just past the last Commit/Checkpoint applied. The
/// file is opened by path each time, so a rotation (a rename over the
/// path) is seen: a log shorter than `offset` ends the stream.
fn poll_tail(
    shared: &ReplicaShared,
    group: &mut CommitGroup,
    wal_path: &Path,
    offset: u64,
) -> Result<u64, String> {
    // Images the last poll staged without their commit lie past
    // `offset`: they are re-read with it this time.
    group.clear();
    let read_err = |e: std::io::Error| format!("tail read {}: {e}", wal_path.display());
    let mut file = File::open(wal_path).map_err(read_err)?;
    if file.metadata().map_err(read_err)?.len() < offset {
        // The log shrank: the leader restarted and rotated. This
        // follower's stream is over.
        return Err("wal rotated under the tailing replica".into());
    }
    file.seek(SeekFrom::Start(offset)).map_err(read_err)?;
    let mut records = RecordReader::new(BufReader::new(file));
    let mut consumed = offset;
    while let Some(rec) = records.next_valid().map_err(|e| e.to_string())? {
        apply_record(shared, group, rec).map_err(|e| e.to_string())?;
        if matches!(rec.kind, KIND_COMMIT | KIND_CHECKPOINT) {
            consumed = offset + rec.end;
        }
    }
    Ok(consumed)
}

impl Replica {
    /// In-process replica of `leader`: commit, snapshot the committed
    /// pages + catalog, then follow the WAL broadcast. Requires the
    /// leader to be durable ([`Database::open`] /
    /// [`Database::in_memory_durable`]).
    ///
    /// Taking `&mut Database` is what makes the snapshot/subscribe pair
    /// race-free: no other writer can slip a commit between them.
    pub fn spawn(leader: &mut Database) -> DbResult<Replica> {
        let wal = leader.wal().ok_or_else(|| {
            DbError::ReadOnly(
                "replica requires a WAL-backed leader (Database::open or in_memory_durable)".into(),
            )
        })?;
        let base_lsn = leader.commit()?;
        let rx = wal.subscribe();
        let follower = leader.clone_committed_state()?;
        let shared = Arc::new(ReplicaShared {
            db: OrderedRwLock::new(rank::REPLICA_DB, follower),
            applied_lsn: AtomicU64::new(base_lsn),
            stop: AtomicBool::new(false),
            error: OrderedMutex::new(rank::REPLICA_ERR, None),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("minirel-replica".into())
            .spawn(move || {
                let mut group = CommitGroup::default();
                while !thread_shared.stop.load(Ordering::Relaxed) {
                    match rx.recv_timeout(Duration::from_millis(25)) {
                        Ok(chunk) => {
                            let mut records = RecordReader::new(chunk.as_slice());
                            while let Ok(Some(rec)) = records.next_record() {
                                if let Err(e) = apply_record(&thread_shared, &mut group, rec) {
                                    *thread_shared.error.lock() = Some(e.to_string());
                                    return;
                                }
                            }
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => continue,
                        Err(mpsc::RecvTimeoutError::Disconnected) => return,
                    }
                }
            })
            .expect("spawn replica thread");
        Ok(Replica {
            shared,
            handle: Some(handle),
        })
    }

    /// Cross-process replica: replay the leader's on-disk `data` + WAL
    /// files into an in-memory follower, then poll the WAL file every
    /// `poll` for new committed records. The attach loop retries while a
    /// leader checkpoint is concurrently rewriting the data file (it
    /// detects one via the checkpoint-marker count, read in a streaming
    /// pass over the log before and after copying the data file). The
    /// replay and every poll stream the log one commit group at a time;
    /// a poll reads only the bytes past the last applied commit.
    pub fn tail_file(data_path: &Path, frames: usize, poll: Duration) -> DbResult<Replica> {
        let wal_path = wal_path_for(data_path);
        let mut disk = loop {
            let before = count_checkpoints(&wal_path)?;
            let data = std::fs::read(data_path).map_err(|e| DbError::io("read", data_path, e))?;
            if count_checkpoints(&wal_path)? != before {
                // A checkpoint rewrote the data file while we copied it;
                // the copy may hold torn pages. Try again.
                continue;
            }
            let mut disk = DiskManager::in_memory();
            for chunk in data.chunks_exact(PAGE_SIZE) {
                let pid = disk.allocate()?;
                disk.write(pid, chunk.try_into().expect("exact chunk"))?;
            }
            break disk;
        };
        let (catalog, base_lsn, mut offset) = match replay_from(&mut disk, open_log(&wal_path)?)? {
            Some(r) => (r.catalog, r.last_lsn, r.applied_end),
            None => (Catalog::new(), 0, 0),
        };
        let follower = Database::from_recovered_parts(disk, frames, catalog);
        let shared = Arc::new(ReplicaShared {
            db: OrderedRwLock::new(rank::REPLICA_DB, follower),
            applied_lsn: AtomicU64::new(base_lsn),
            stop: AtomicBool::new(false),
            error: OrderedMutex::new(rank::REPLICA_ERR, None),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("minirel-replica-tail".into())
            .spawn(move || {
                let mut group = CommitGroup::default();
                while !thread_shared.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(poll);
                    match poll_tail(&thread_shared, &mut group, &wal_path, offset) {
                        Ok(next) => offset = next,
                        Err(e) => {
                            *thread_shared.error.lock() = Some(e);
                            return;
                        }
                    }
                }
            })
            .expect("spawn replica tail thread");
        Ok(Replica {
            shared,
            handle: Some(handle),
        })
    }

    /// Run a SELECT on the replica (read lock; never touches the leader).
    pub fn query(&self, sql: &str) -> DbResult<ResultSet> {
        self.shared.db.read().query(sql)
    }

    /// [`Replica::query`] with positional `?` parameter bindings. The
    /// plan cache lives in the follower database, so repeated monitor
    /// queries re-plan only after a catalog-changing commit is applied
    /// (which swaps the catalog and invalidates cached plans).
    pub fn query_with(&self, sql: &str, params: &[crate::value::Value]) -> DbResult<ResultSet> {
        self.shared.db.read().query_with(sql, params)
    }

    /// Run `f` over the follower database under the read lock.
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.shared.db.read())
    }

    /// LSN of the last commit the replica has applied.
    pub fn applied_lsn(&self) -> u64 {
        self.shared.applied_lsn.load(Ordering::Acquire)
    }

    /// Block until the replica has applied `lsn` (or `timeout` passes).
    /// Returns whether the target was reached.
    pub fn wait_for_lsn(&self, lsn: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.applied_lsn() < lsn {
            if Instant::now() >= deadline || self.error().is_some() {
                return self.applied_lsn() >= lsn;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// The apply thread's fatal error, if it hit one.
    pub fn error(&self) -> Option<String> {
        self.shared.error.lock().clone()
    }

    /// Stop the apply thread and return the follower database (its state
    /// as of the last applied commit).
    pub fn stop(mut self) -> Database {
        self.shutdown();
        // Drop runs after, but handle is already None and the shared Arc
        // is still alive here; unwrap the database out of the lock.
        let shared = Arc::clone(&self.shared);
        drop(self);
        match Arc::try_unwrap(shared) {
            Ok(s) => s.db.into_inner(),
            Err(shared) => {
                // An outstanding clone exists (should not happen: we
                // never hand the Arc out) — fall back to a fresh empty db.
                let _ = shared;
                Database::in_memory()
            }
        }
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use crate::wal;

    fn sample_db() -> Database {
        let mut db = Database::in_memory();
        db.execute("create table crawl (oid int, url text, relevance float)")
            .unwrap();
        db.execute("create index crawl_oid on crawl (oid)").unwrap();
        db.execute("insert into crawl values (1, 'http://a', 0.9), (2, 'http://b', 0.4)")
            .unwrap();
        db
    }

    #[test]
    fn catalog_image_roundtrip() {
        let db = sample_db();
        let img = encode_catalog(db.catalog());
        let cat = decode_catalog(&img).unwrap();
        assert_eq!(cat.table_names(), db.catalog().table_names());
        let tid = cat.table_id("crawl").unwrap();
        let t = cat.table(tid);
        assert_eq!(t.schema.columns.len(), 3);
        assert_eq!(t.heap.len(), 2);
        assert_eq!(t.indexes.len(), 1);
        assert_eq!(t.indexes[0].name, "crawl_oid");
        assert_eq!(
            t.indexes[0].btree.root(),
            db.catalog().table(tid).indexes[0].btree.root()
        );
    }

    #[test]
    fn catalog_image_preserves_dropped_slots() {
        let mut db = Database::in_memory();
        db.execute("create table a (x int)").unwrap();
        db.execute("create table b (y int)").unwrap();
        let b_id = db.table_id("b").unwrap();
        db.execute("drop table a").unwrap();
        let cat = decode_catalog(&encode_catalog(db.catalog())).unwrap();
        assert_eq!(cat.table_id("b").unwrap(), b_id, "TableIds must be stable");
        assert!(cat.table_id("a").is_err());
    }

    #[test]
    fn catalog_image_truncation_is_corrupt() {
        let db = sample_db();
        let img = encode_catalog(db.catalog());
        for cut in 1..img.len() {
            match decode_catalog(&img[..cut]) {
                Err(DbError::Corrupt(_)) => {}
                Ok(_) => panic!("cut at {cut} decoded"),
                Err(e) => panic!("cut at {cut}: unexpected error {e}"),
            }
        }
    }

    fn image(pid: PageId, fill: u8, lsn: u64) -> Vec<u8> {
        let mut payload = pid.to_le_bytes().to_vec();
        payload.extend_from_slice(&[fill; PAGE_SIZE]);
        wal::encode_record(lsn, KIND_PAGE_IMAGE, &payload)
    }

    fn commit(num_pages: u32, lsn: u64) -> Vec<u8> {
        let mut payload = num_pages.to_le_bytes().to_vec();
        payload.extend_from_slice(&encode_catalog(&Catalog::new()));
        wal::encode_record(lsn, KIND_COMMIT, &payload)
    }

    fn page(disk: &mut DiskManager, pid: PageId) -> u8 {
        let mut buf = [0u8; PAGE_SIZE];
        disk.read(pid, &mut buf).unwrap();
        buf[0]
    }

    #[test]
    fn replay_installs_whole_groups_up_to_the_last_commit() {
        let mut log = image(0, 0xA, 1);
        log.extend_from_slice(&commit(1, 2));
        let committed_end = log.len() as u64;
        // A checkpoint marker after the last commit does not move
        // `applied_end`; the images after it, and a malformed one, are
        // a tail no commit covers and stay uninterpreted.
        log.extend_from_slice(&wal::encode_record(3, KIND_CHECKPOINT, &1u32.to_le_bytes()));
        log.extend_from_slice(&image(0, 0xB, 4));
        log.extend_from_slice(&image(1, 0xC, 5));
        log.extend_from_slice(&wal::encode_record(6, KIND_PAGE_IMAGE, b"short"));
        let mut disk = DiskManager::in_memory();
        let r = replay_into(&mut disk, &log).unwrap().expect("a commit");
        assert_eq!((r.last_lsn, r.num_pages), (2, 1));
        assert_eq!(r.applied_end, committed_end);
        assert_eq!(disk.num_pages(), 1);
        assert_eq!(page(&mut disk, 0), 0xA);

        // The same malformed image inside a committed group fails replay.
        log.extend_from_slice(&commit(2, 7));
        let mut disk = DiskManager::in_memory();
        assert!(matches!(
            replay_into(&mut disk, &log),
            Err(DbError::Corrupt(_))
        ));
    }

    #[test]
    fn replay_of_a_log_without_commit_is_none() {
        let mut disk = DiskManager::in_memory();
        assert!(replay_into(&mut disk, &image(0, 1, 1)).unwrap().is_none());
        assert_eq!(disk.num_pages(), 0, "an uncommitted image is not installed");
    }

    #[test]
    fn replica_follows_in_memory_leader() {
        let mut leader = Database::in_memory_durable(64, 1);
        leader
            .execute("create table crawl (oid int, relevance float)")
            .unwrap();
        leader.execute("insert into crawl values (1, 0.9)").unwrap();
        let replica = Replica::spawn(&mut leader).unwrap();
        // Base snapshot state is visible immediately.
        let rs = replica.query("select count(*) from crawl").unwrap();
        assert_eq!(rs.scalar_i64(), Some(1));
        // New committed writes flow through.
        leader
            .execute("insert into crawl values (2, 0.4), (3, 0.8)")
            .unwrap();
        let lsn = leader.commit().unwrap();
        assert!(replica.wait_for_lsn(lsn, Duration::from_secs(5)));
        let rs = replica.query("select count(*) from crawl").unwrap();
        assert_eq!(rs.scalar_i64(), Some(3), "err={:?}", replica.error());
        // The replica is read-only by construction (query() is SELECT-only).
        assert!(replica.with_db(|db| db.query("delete from crawl").is_err()));
        // DDL replicates too.
        leader
            .execute("create table hubs (oid int, score float)")
            .unwrap();
        leader.execute("insert into hubs values (7, 1.0)").unwrap();
        let lsn = leader.commit().unwrap();
        assert!(replica.wait_for_lsn(lsn, Duration::from_secs(5)));
        let rs = replica.query("select oid from hubs").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(7));
    }

    #[test]
    fn replica_stop_returns_follower() {
        let mut leader = Database::in_memory_durable(64, 1);
        leader.execute("create table t (a int)").unwrap();
        leader.execute("insert into t values (5)").unwrap();
        let replica = Replica::spawn(&mut leader).unwrap();
        let db = replica.stop();
        assert_eq!(
            db.query("select a from t").unwrap().rows[0][0],
            Value::Int(5)
        );
    }
}
