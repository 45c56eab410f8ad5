//! Frontier management over the `CRAWL` table.
//!
//! "An important aspect of this work is the design of flexible schemes for
//! crawl frontier management" (§1.3). Work is checked out through the
//! `(visited, numtries, negrel, serverload)` B+tree index — the paper's
//! aggressive-discovery order — and every state change flows through the
//! catalog so index and heap stay consistent (the "reinvented wheel" §3.1
//! credits the DBMS for).

use crate::tables::{crawl_col, frontier_row, visited};
use focus_types::Oid;
use minirel::value::encode_composite_key;
use minirel::{Database, DbError, DbResult, Rid, Value};
use std::ops::Bound;

/// A claimed unit of work.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Page to fetch.
    pub oid: Oid,
    /// Its URL.
    pub url: String,
    /// Fetch attempts so far.
    pub numtries: i64,
    /// Stored log-relevance priority.
    pub log_relevance: f64,
}

/// One frontier upsert in a batch (an outlink endorsement, a seed, or a
/// distiller boost).
#[derive(Debug, Clone)]
pub struct FrontierEntry {
    /// Page to enqueue.
    pub oid: Oid,
    /// Its URL ("" when only the oid is known, e.g. distiller boosts).
    pub url: String,
    /// Priority: log R of the endorsing parent (0.0 = top).
    pub log_relevance: f64,
    /// Per-server fetch count at insert time.
    pub serverload: i64,
}

/// What a batch upsert did, in aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchUpsert {
    /// New frontier rows created.
    pub created: usize,
    /// Existing unvisited rows whose priority rose.
    pub raised: usize,
}

impl BatchUpsert {
    /// Rows whose frontier priority actually changed.
    pub fn changed(&self) -> usize {
        self.created + self.raised
    }
}

fn crawl_tid(db: &Database) -> DbResult<minirel::TableId> {
    db.table_id("crawl")
}

fn oid_key(oid: Oid) -> Vec<u8> {
    encode_composite_key(&[Value::Int(oid.raw() as i64)])
}

/// Strictly decode one column; a mistyped value is storage corruption,
/// not a default (a fabricated `Oid(0)` or `""` would silently poison
/// claims, checkpoints, and events downstream). Shared with the
/// checkpoint path in [`crate::session`], which reads whole tables.
pub(crate) fn col_i64(row: &[Value], col: usize, what: &str) -> DbResult<i64> {
    row[col]
        .as_i64()
        .ok_or_else(|| DbError::Corrupt(format!("crawl.{what}: expected int, got {}", row[col])))
}

pub(crate) fn col_f64(row: &[Value], col: usize, what: &str) -> DbResult<f64> {
    row[col]
        .as_f64()
        .ok_or_else(|| DbError::Corrupt(format!("crawl.{what}: expected float, got {}", row[col])))
}

pub(crate) fn col_str<'a>(row: &'a [Value], col: usize, what: &str) -> DbResult<&'a str> {
    row[col]
        .as_str()
        .ok_or_else(|| DbError::Corrupt(format!("crawl.{what}: expected text, got {}", row[col])))
}

/// Strictly decode a frontier row into a [`Claim`].
fn decode_claim(row: &[Value]) -> DbResult<Claim> {
    Ok(Claim {
        oid: Oid(col_i64(row, crawl_col::OID, "oid")? as u64),
        url: col_str(row, crawl_col::URL, "url")?.to_owned(),
        numtries: col_i64(row, crawl_col::NUMTRIES, "numtries")?,
        log_relevance: col_f64(row, crawl_col::RELEVANCE, "relevance")?,
    })
}

fn oid_lookup(db: &mut Database, oid: Oid) -> DbResult<Option<(Rid, Vec<Value>)>> {
    let tid = crawl_tid(db)?;
    let (pool, catalog) = db.parts_mut();
    let idx = catalog
        .find_index(tid, &[crawl_col::OID])
        .ok_or_else(|| DbError::Catalog("crawl lacks oid index".into()))?;
    let key = encode_composite_key(&[Value::Int(oid.raw() as i64)]);
    let rids = catalog.table(tid).indexes[idx].btree.lookup(pool, &key)?;
    match rids.first() {
        Some(&rid) => {
            let row = catalog.get_row(pool, tid, rid)?;
            Ok(Some((rid, row)))
        }
        None => Ok(None),
    }
}

/// What [`upsert_frontier`] did to the frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Upsert {
    /// A new frontier row was created.
    Created,
    /// An existing unvisited row's priority was raised.
    Raised,
    /// Nothing changed: the page is visited/dead, or the priority was
    /// not an improvement.
    Unchanged,
}

/// Insert a frontier entry, or raise the priority of an existing unvisited
/// one (a second parent endorsing the same unseen URL).
pub fn upsert_frontier(
    db: &mut Database,
    oid: Oid,
    url: &str,
    log_relevance: f64,
    serverload: i64,
) -> DbResult<Upsert> {
    match oid_lookup(db, oid)? {
        None => {
            let tid = crawl_tid(db)?;
            db.insert(tid, frontier_row(oid, url, log_relevance, serverload))?;
            Ok(Upsert::Created)
        }
        Some((rid, mut row)) => {
            let state = col_i64(&row, crawl_col::VISITED, "visited")?;
            let old = col_f64(&row, crawl_col::RELEVANCE, "relevance")?;
            if state == visited::FRONTIER && log_relevance > old {
                row[crawl_col::RELEVANCE] = Value::Float(log_relevance);
                row[crawl_col::NEGREL] = Value::Float(-log_relevance);
                let tid = crawl_tid(db)?;
                let (pool, catalog) = db.parts_mut();
                catalog.update_row(pool, tid, rid, row)?;
                Ok(Upsert::Raised)
            } else {
                Ok(Upsert::Unchanged)
            }
        }
    }
}

/// Batch upsert: the whole outlink set of a page (or a seed batch) in
/// one ordered pass over the oid index — sort by oid, `lookup_many`
/// once, then partition into *creates* (one `insert_many` keeping heap
/// and both indexes consistent) and *raises* (one `update_many`).
///
/// Duplicate oids within the batch collapse to the per-link sequential
/// semantics: the first occurrence's url/serverload win, the priority is
/// the maximum endorsement.
pub fn upsert_batch(db: &mut Database, items: &[FrontierEntry]) -> DbResult<BatchUpsert> {
    if items.is_empty() {
        return Ok(BatchUpsert::default());
    }
    // Dedup by oid, preserving first-occurrence url/serverload and max
    // priority; then order by encoded key for the single index pass.
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (items[i].oid, i));
    let mut merged: Vec<FrontierEntry> = Vec::with_capacity(items.len());
    for &i in &order {
        match merged.last_mut() {
            Some(last) if last.oid == items[i].oid => {
                last.log_relevance = last.log_relevance.max(items[i].log_relevance);
            }
            _ => merged.push(items[i].clone()),
        }
    }
    let mut keyed: Vec<(Vec<u8>, FrontierEntry)> =
        merged.into_iter().map(|e| (oid_key(e.oid), e)).collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    let (keys, merged): (Vec<Vec<u8>>, Vec<FrontierEntry>) = keyed.into_iter().unzip();

    let tid = crawl_tid(db)?;
    let (pool, catalog) = db.parts_mut();
    let idx = catalog
        .find_index(tid, &[crawl_col::OID])
        .ok_or_else(|| DbError::Catalog("crawl lacks oid index".into()))?;
    let hits = catalog.table(tid).indexes[idx]
        .btree
        .lookup_many(pool, &keys)?;

    let mut creates: Vec<Vec<Value>> = Vec::new();
    let mut raises: Vec<(Rid, Vec<Value>, Vec<Value>)> = Vec::new();
    let mut out = BatchUpsert::default();
    for (e, rids) in merged.iter().zip(&hits) {
        match rids.first() {
            None => {
                creates.push(frontier_row(e.oid, &e.url, e.log_relevance, e.serverload));
            }
            Some(&rid) => {
                let row = catalog.get_row(pool, tid, rid)?;
                let state = col_i64(&row, crawl_col::VISITED, "visited")?;
                let old = col_f64(&row, crawl_col::RELEVANCE, "relevance")?;
                if state == visited::FRONTIER && e.log_relevance > old {
                    let mut new_row = row.clone();
                    new_row[crawl_col::RELEVANCE] = Value::Float(e.log_relevance);
                    new_row[crawl_col::NEGREL] = Value::Float(-e.log_relevance);
                    raises.push((rid, row, new_row));
                }
            }
        }
    }
    out.created = creates.len();
    out.raised = raises.len();
    if !creates.is_empty() {
        catalog.insert_many(pool, tid, creates)?;
    }
    if !raises.is_empty() {
        catalog.update_many(pool, tid, raises)?;
    }
    Ok(out)
}

/// What a batch claim found: the due claims plus how much of the
/// frontier was *parked* (skipped because `not_before` lies in the
/// future). The scan stops at the n-th admitted row, so `parked`,
/// `deferred` and `next_due` cover only the rows ahead of it: exact
/// when `claims` came back short (the whole frontier range was scanned)
/// — exactly the case where the caller needs them for its idle verdict
/// — and a lower bound otherwise.
#[derive(Debug, Default)]
pub struct ClaimOutcome {
    /// Due entries, best first, now marked `CLAIMED`.
    pub claims: Vec<Claim>,
    /// Frontier rows skipped because their `not_before` has not passed.
    pub parked: usize,
    /// Due rows skipped in-scan by the caller's admission predicate
    /// (politeness: their server is saturated right now). They keep
    /// their frontier position untouched — near-future work, so the
    /// caller's idle verdict must count them like parked rows.
    pub deferred: usize,
    /// Earliest `not_before` among the parked rows seen.
    pub next_due: Option<i64>,
}

/// Pop the best frontier entry (lowest `(numtries, −logR, serverload)`)
/// and mark it claimed. `None` when the frontier is empty. Treats every
/// parked row as already due — a test/diagnostic convenience; the crawl
/// itself claims through [`claim_batch`] with its real tick.
pub fn claim_next(db: &mut Database) -> DbResult<Option<Claim>> {
    Ok(claim_batch(db, 1, i64::MAX)?.claims.pop())
}

/// Pop the `n` best *due* frontier entries in one pass: a single range
/// scan of the frontier index gathers the rids, and one batch update
/// flips them all to `CLAIMED` — the range-pop counterpart of the
/// paper's batch access paths. Rows parked past `now` are skipped
/// without losing their place in the priority order. The scan reads
/// each frontier row at most once and stops at the `n`-th due row or
/// at the end of the frontier range. Returns fewer than `n` (possibly
/// zero) claims when the due frontier runs short.
pub fn claim_batch(db: &mut Database, n: usize, now: i64) -> DbResult<ClaimOutcome> {
    claim_batch_where(db, n, now, |_| true)
}

/// [`claim_batch`] with an admission predicate: a due row whose decoded
/// claim fails `admit` is *deferred* — left in place, uncounted against
/// `n`, tallied in [`ClaimOutcome::deferred`] — and the same scan keeps
/// looking further down the priority order. `admit` runs once per due
/// row the scan passes, never twice on the same row. This is how
/// per-server politeness caps shape claiming without the pop/park churn
/// a round-trip through `CLAIMED` would cost: a saturated server's rows
/// simply wait their turn in the frontier.
pub fn claim_batch_where(
    db: &mut Database,
    n: usize,
    now: i64,
    mut admit: impl FnMut(&Claim) -> bool,
) -> DbResult<ClaimOutcome> {
    let mut out = ClaimOutcome::default();
    if n == 0 {
        return Ok(out);
    }
    let tid = crawl_tid(db)?;
    let prefix = encode_composite_key(&[Value::Int(visited::FRONTIER)]);
    let (pool, catalog) = db.parts_mut();
    let idx = catalog
        .find_index(
            tid,
            &[
                crawl_col::VISITED,
                crawl_col::NUMTRIES,
                crawl_col::NEGREL,
                crawl_col::SERVERLOAD,
            ],
        )
        .ok_or_else(|| DbError::Catalog("crawl lacks frontier index".into()))?;
    // One in-order pass over the `visited = FRONTIER` prefix: each row
    // is read and decoded at most once, and the scan stops at the n-th
    // admitted row. The callback cannot return an error, so the first
    // one stops the scan and is surfaced after it.
    let mut due: Vec<(Rid, Vec<Value>, Claim)> = Vec::with_capacity(n);
    let mut failed: Option<DbError> = None;
    let mut visit = |rid: Rid| -> DbResult<bool> {
        let row = catalog.get_row(pool, tid, rid)?;
        if col_i64(&row, crawl_col::VISITED, "visited")? != visited::FRONTIER {
            return Err(DbError::Corrupt(format!(
                "frontier index points at non-frontier row (oid {})",
                row[crawl_col::OID]
            )));
        }
        let parked_until = col_i64(&row, crawl_col::NOT_BEFORE, "not_before")?;
        if parked_until > now {
            out.parked += 1;
            out.next_due = Some(out.next_due.map_or(parked_until, |d| d.min(parked_until)));
            return Ok(true);
        }
        let claim = decode_claim(&row)?;
        if admit(&claim) {
            due.push((rid, row, claim));
        } else {
            out.deferred += 1;
        }
        Ok(due.len() < n)
    };
    catalog.table(tid).indexes[idx].btree.scan_range(
        pool,
        Bound::Included(&prefix),
        Bound::Unbounded,
        |key, rid| {
            if !key.starts_with(&prefix) {
                return false;
            }
            visit(rid).unwrap_or_else(|e| {
                failed = Some(e);
                false
            })
        },
    )?;
    if let Some(e) = failed {
        return Err(e);
    }
    let mut updates = Vec::with_capacity(due.len());
    for (rid, row, claim) in due {
        out.claims.push(claim);
        let mut new_row = row.clone();
        new_row[crawl_col::VISITED] = Value::Int(visited::CLAIMED);
        new_row[crawl_col::NOT_BEFORE] = Value::Int(0);
        updates.push((rid, row, new_row));
    }
    if !updates.is_empty() {
        catalog.update_many(pool, tid, updates)?;
    }
    Ok(out)
}

/// Return claims to the frontier *unfetched* — a worker winding down on
/// `stop()` hands its not-yet-fetched batch remainder back, so the work
/// survives for the next run (or a checkpoint) instead of being fetched
/// after the administrator asked for a stop. One ordered oid-index pass
/// plus one batch update, like the claim itself.
pub fn unclaim_batch(db: &mut Database, claims: &[Claim]) -> DbResult<()> {
    if claims.is_empty() {
        return Ok(());
    }
    let mut keys: Vec<Vec<u8>> = claims.iter().map(|c| oid_key(c.oid)).collect();
    keys.sort_unstable();
    let tid = crawl_tid(db)?;
    let (pool, catalog) = db.parts_mut();
    let idx = catalog
        .find_index(tid, &[crawl_col::OID])
        .ok_or_else(|| DbError::Catalog("crawl lacks oid index".into()))?;
    let hits = catalog.table(tid).indexes[idx]
        .btree
        .lookup_many(pool, &keys)?;
    let mut updates = Vec::with_capacity(claims.len());
    for (key, rids) in keys.iter().zip(&hits) {
        let Some(&rid) = rids.first() else {
            return Err(DbError::Corrupt(format!(
                "unclaim: claimed row vanished (key {key:?})"
            )));
        };
        let row = catalog.get_row(pool, tid, rid)?;
        if col_i64(&row, crawl_col::VISITED, "visited")? != visited::CLAIMED {
            return Err(DbError::Corrupt(format!(
                "unclaim: row not claimed (oid {})",
                row[crawl_col::OID]
            )));
        }
        let mut new_row = row.clone();
        new_row[crawl_col::VISITED] = Value::Int(visited::FRONTIER);
        updates.push((rid, row, new_row));
    }
    catalog.update_many(pool, tid, updates)?;
    Ok(())
}

/// Return claims to the frontier *parked*: each row keeps its priority
/// and `numtries`, but cannot be popped again before its `not_before`
/// tick. This is how a worker hands back claims whose server sits
/// behind an open circuit breaker — the page was never fetched, so
/// nothing else about the row changes. One ordered oid-index pass plus
/// one batch update, like [`unclaim_batch`].
pub fn park_batch(db: &mut Database, items: &[(Oid, i64)]) -> DbResult<()> {
    if items.is_empty() {
        return Ok(());
    }
    let mut keyed: Vec<(Vec<u8>, i64)> = items
        .iter()
        .map(|&(oid, until)| (oid_key(oid), until))
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    let keys: Vec<Vec<u8>> = keyed.iter().map(|(k, _)| k.clone()).collect();
    let tid = crawl_tid(db)?;
    let (pool, catalog) = db.parts_mut();
    let idx = catalog
        .find_index(tid, &[crawl_col::OID])
        .ok_or_else(|| DbError::Catalog("crawl lacks oid index".into()))?;
    let hits = catalog.table(tid).indexes[idx]
        .btree
        .lookup_many(pool, &keys)?;
    let mut updates = Vec::with_capacity(items.len());
    for ((key, until), rids) in keyed.iter().zip(&hits) {
        let Some(&rid) = rids.first() else {
            return Err(DbError::Corrupt(format!(
                "park: claimed row vanished (key {key:?})"
            )));
        };
        let row = catalog.get_row(pool, tid, rid)?;
        if col_i64(&row, crawl_col::VISITED, "visited")? != visited::CLAIMED {
            return Err(DbError::Corrupt(format!(
                "park: row not claimed (oid {})",
                row[crawl_col::OID]
            )));
        }
        let mut new_row = row.clone();
        new_row[crawl_col::VISITED] = Value::Int(visited::FRONTIER);
        new_row[crawl_col::NOT_BEFORE] = Value::Int(*until);
        updates.push((rid, row, new_row));
    }
    catalog.update_many(pool, tid, updates)?;
    Ok(())
}

/// Record a successful fetch: relevance, best-leaf class, timestamps,
/// and the fetched URL (filled in for rows that entered the frontier by
/// oid alone) — one row update instead of two.
pub fn mark_done(
    db: &mut Database,
    oid: Oid,
    url: &str,
    log_relevance: f64,
    kcid: i64,
    now_secs: i64,
) -> DbResult<()> {
    let Some((rid, mut row)) = oid_lookup(db, oid)? else {
        return Err(DbError::Eval(format!(
            "mark_done: {oid} not in crawl table"
        )));
    };
    row[crawl_col::KCID] = Value::Int(kcid);
    row[crawl_col::RELEVANCE] = Value::Float(log_relevance);
    row[crawl_col::NEGREL] = Value::Float(-log_relevance);
    row[crawl_col::LASTVISITED] = Value::Int(now_secs);
    row[crawl_col::VISITED] = Value::Int(visited::DONE);
    if !url.is_empty() {
        row[crawl_col::URL] = Value::Str(url.to_owned());
    }
    let tid = crawl_tid(db)?;
    let (pool, catalog) = db.parts_mut();
    catalog.update_row(pool, tid, rid, row)?;
    Ok(())
}

/// One failed fetch in a batch. The caller has already made the backoff
/// decision — the session computes `not_before` from per-server health
/// and charges the retry budget inside its claim critical section, so
/// this layer only has to write rows.
#[derive(Debug, Clone, Copy)]
pub struct FailureUpdate {
    /// The page that failed.
    pub oid: Oid,
    /// Whether this failure may requeue (a timeout with retry budget
    /// left); hard 404s and budget-exhausted timeouts pass `false`.
    pub retriable: bool,
    /// Backoff: tick before which a requeued row must not be popped
    /// (0 = immediately poppable).
    pub not_before: i64,
}

/// What a failure did to the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailDisposition {
    /// Requeued for another attempt, poppable at `not_before`.
    Retried {
        /// Earliest tick the retry can be claimed.
        not_before: i64,
    },
    /// Marked dead: non-retriable, out of retry budget, or `max_tries`
    /// reached.
    Dead,
}

/// Record a batch of failed fetches in one ordered oid-index pass plus
/// one batch update — a burst of failures from one sick server is one
/// critical section, not N row rewrites. Each retriable row under
/// `max_tries` requeues (numtries+1) parked until its `not_before`;
/// the rest die. Dispositions come back aligned with `items`.
pub fn mark_failed_batch(
    db: &mut Database,
    items: &[FailureUpdate],
    max_tries: i64,
) -> DbResult<Vec<FailDisposition>> {
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| oid_key(items[i].oid));
    let keys: Vec<Vec<u8>> = order.iter().map(|&i| oid_key(items[i].oid)).collect();
    let tid = crawl_tid(db)?;
    let (pool, catalog) = db.parts_mut();
    let idx = catalog
        .find_index(tid, &[crawl_col::OID])
        .ok_or_else(|| DbError::Catalog("crawl lacks oid index".into()))?;
    let hits = catalog.table(tid).indexes[idx]
        .btree
        .lookup_many(pool, &keys)?;
    let mut out = vec![FailDisposition::Dead; items.len()];
    let mut updates = Vec::with_capacity(items.len());
    for (&i, rids) in order.iter().zip(&hits) {
        let item = &items[i];
        let Some(&rid) = rids.first() else {
            return Err(DbError::Eval(format!(
                "mark_failed: {} not in crawl table",
                item.oid
            )));
        };
        let row = catalog.get_row(pool, tid, rid)?;
        let tries = col_i64(&row, crawl_col::NUMTRIES, "numtries")? + 1;
        let mut new_row = row.clone();
        new_row[crawl_col::NUMTRIES] = Value::Int(tries);
        if item.retriable && tries < max_tries {
            new_row[crawl_col::VISITED] = Value::Int(visited::FRONTIER);
            new_row[crawl_col::NOT_BEFORE] = Value::Int(item.not_before);
            out[i] = FailDisposition::Retried {
                not_before: item.not_before,
            };
        } else {
            new_row[crawl_col::VISITED] = Value::Int(visited::DEAD);
            new_row[crawl_col::NOT_BEFORE] = Value::Int(0);
            out[i] = FailDisposition::Dead;
        }
        updates.push((rid, row, new_row));
    }
    catalog.update_many(pool, tid, updates)?;
    Ok(out)
}

/// Record a single failed fetch; requeues (numtries+1, immediately
/// poppable) when retriable and under `max_tries`, otherwise marks the
/// page dead. A one-item [`mark_failed_batch`].
pub fn mark_failed(
    db: &mut Database,
    oid: Oid,
    retriable: bool,
    max_tries: i64,
) -> DbResult<FailDisposition> {
    let dispo = mark_failed_batch(
        db,
        &[FailureUpdate {
            oid,
            retriable,
            not_before: 0,
        }],
        max_tries,
    )?;
    Ok(dispo[0])
}

/// Raise the stored relevance of an *unvisited* page (distiller hub-boost
/// trigger, §3.7 re-steering). No-op for visited/dead pages and for lower
/// priorities. Returns whether a frontier priority actually changed (a
/// row was created or raised). A one-entry [`upsert_batch`], so single
/// boosts and batch boosts share one semantic path.
pub fn boost_unvisited(db: &mut Database, oid: Oid, log_relevance: f64) -> DbResult<bool> {
    let res = upsert_batch(
        db,
        &[FrontierEntry {
            oid,
            url: String::new(),
            log_relevance,
            serverload: 0,
        }],
    )?;
    Ok(res.changed() > 0)
}

/// Rewrite the stored relevance of a *visited* page after a good-mark
/// change (§3.7), so monitoring SQL (`avg(exp(relevance))`, the paper's
/// `log R(u) > −1` cut) reflects the new marking. No-op for rows that are
/// not `DONE`.
pub fn update_visited_relevance(db: &mut Database, oid: Oid, log_relevance: f64) -> DbResult<()> {
    if let Some((rid, mut row)) = oid_lookup(db, oid)? {
        if row[crawl_col::VISITED].as_i64() == Some(visited::DONE) {
            row[crawl_col::RELEVANCE] = Value::Float(log_relevance);
            row[crawl_col::NEGREL] = Value::Float(-log_relevance);
            let tid = crawl_tid(db)?;
            let (pool, catalog) = db.parts_mut();
            catalog.update_row(pool, tid, rid, row)?;
        }
    }
    Ok(())
}

/// Update only `lastvisited` (crawl-maintenance revisits touch a page
/// without reclassifying it). Silently ignores unknown oids.
pub fn touch_visited(db: &mut Database, oid: Oid, now_secs: i64) -> DbResult<()> {
    if let Some((rid, mut row)) = oid_lookup(db, oid)? {
        row[crawl_col::LASTVISITED] = Value::Int(now_secs);
        let tid = crawl_tid(db)?;
        let (pool, catalog) = db.parts_mut();
        catalog.update_row(pool, tid, rid, row)?;
    }
    Ok(())
}

/// Number of poppable frontier entries (diagnostics / stagnation checks).
pub fn frontier_len(db: &mut Database) -> DbResult<i64> {
    Ok(db
        .execute("select count(*) from crawl where visited = 0")?
        .scalar_i64()
        .unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::create_tables;

    fn db() -> Database {
        let mut db = Database::in_memory();
        create_tables(&mut db).unwrap();
        db
    }

    #[test]
    fn claims_follow_priority_order() {
        let mut db = db();
        // Same numtries: order by descending relevance.
        upsert_frontier(&mut db, Oid(1), "u1", -2.0, 0).unwrap();
        upsert_frontier(&mut db, Oid(2), "u2", -0.5, 0).unwrap();
        upsert_frontier(&mut db, Oid(3), "u3", -1.0, 0).unwrap();
        let order: Vec<u64> =
            std::iter::from_fn(|| claim_next(&mut db).unwrap().map(|c| c.oid.raw())).collect();
        assert_eq!(order, vec![2, 3, 1]);
        assert!(claim_next(&mut db).unwrap().is_none(), "frontier drained");
    }

    #[test]
    fn numtries_dominates_relevance() {
        let mut db = db();
        upsert_frontier(&mut db, Oid(1), "u1", 0.0, 0).unwrap();
        // Fail oid 1 once: numtries=1, requeued.
        claim_next(&mut db).unwrap();
        mark_failed(&mut db, Oid(1), true, 5).unwrap();
        // New lower-relevance page with numtries=0 must be claimed first.
        upsert_frontier(&mut db, Oid(2), "u2", -3.0, 0).unwrap();
        let c = claim_next(&mut db).unwrap().unwrap();
        assert_eq!(c.oid, Oid(2));
        let c = claim_next(&mut db).unwrap().unwrap();
        assert_eq!(c.oid, Oid(1));
        assert_eq!(c.numtries, 1);
    }

    #[test]
    fn serverload_breaks_ties() {
        let mut db = db();
        upsert_frontier(&mut db, Oid(1), "u1", -1.0, 10).unwrap();
        upsert_frontier(&mut db, Oid(2), "u2", -1.0, 2).unwrap();
        let c = claim_next(&mut db).unwrap().unwrap();
        assert_eq!(c.oid, Oid(2), "lighter server first");
    }

    #[test]
    fn upsert_raises_priority_only_upward() {
        let mut db = db();
        assert_eq!(
            upsert_frontier(&mut db, Oid(1), "u1", -2.0, 0).unwrap(),
            Upsert::Created
        );
        assert_eq!(
            upsert_frontier(&mut db, Oid(1), "u1", -1.0, 0).unwrap(),
            Upsert::Raised
        );
        assert_eq!(
            upsert_frontier(&mut db, Oid(1), "u1", -5.0, 0).unwrap(),
            Upsert::Unchanged
        );
        let c = claim_next(&mut db).unwrap().unwrap();
        assert!((c.log_relevance - -1.0).abs() < 1e-12, "kept the max");
    }

    #[test]
    fn done_pages_leave_the_frontier() {
        let mut db = db();
        upsert_frontier(&mut db, Oid(1), "u1", 0.0, 0).unwrap();
        let c = claim_next(&mut db).unwrap().unwrap();
        mark_done(&mut db, c.oid, "u1", -0.2, 5, 100).unwrap();
        assert!(claim_next(&mut db).unwrap().is_none());
        assert_eq!(frontier_len(&mut db).unwrap(), 0);
        // Re-discovering a visited page does not resurrect it.
        upsert_frontier(&mut db, Oid(1), "u1", 0.0, 0).unwrap();
        assert!(claim_next(&mut db).unwrap().is_none());
        let rs = db
            .execute("select kcid, lastvisited from crawl where oid = 1")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(5));
        assert_eq!(rs.rows[0][1], Value::Int(100));
    }

    #[test]
    fn failures_retry_then_die() {
        let mut db = db();
        upsert_frontier(&mut db, Oid(1), "u1", 0.0, 0).unwrap();
        for expected_tries in 1..3i64 {
            let c = claim_next(&mut db).unwrap().unwrap();
            assert_eq!(c.numtries, expected_tries - 1);
            mark_failed(&mut db, c.oid, true, 3).unwrap();
        }
        // Third failure reaches max_tries: dead.
        let c = claim_next(&mut db).unwrap().unwrap();
        mark_failed(&mut db, c.oid, true, 3).unwrap();
        assert!(claim_next(&mut db).unwrap().is_none());
        // Non-retriable dies immediately.
        upsert_frontier(&mut db, Oid(2), "u2", 0.0, 0).unwrap();
        let c = claim_next(&mut db).unwrap().unwrap();
        mark_failed(&mut db, c.oid, false, 3).unwrap();
        assert!(claim_next(&mut db).unwrap().is_none());
    }

    #[test]
    fn boost_raises_unvisited_priority() {
        let mut db = db();
        upsert_frontier(&mut db, Oid(1), "u1", -4.0, 0).unwrap();
        upsert_frontier(&mut db, Oid(2), "u2", -1.0, 0).unwrap();
        boost_unvisited(&mut db, Oid(1), -0.1).unwrap();
        let c = claim_next(&mut db).unwrap().unwrap();
        assert_eq!(c.oid, Oid(1), "boosted page wins");
    }

    fn entry(oid: u64, url: &str, r: f64, load: i64) -> FrontierEntry {
        FrontierEntry {
            oid: Oid(oid),
            url: url.to_owned(),
            log_relevance: r,
            serverload: load,
        }
    }

    #[test]
    fn upsert_batch_matches_sequential_upserts() {
        // The batch path must land the exact same CRAWL state as the
        // per-link loop, including intra-batch duplicates.
        let items = vec![
            entry(10, "a", -2.0, 1),
            entry(11, "b", -0.5, 0),
            entry(10, "a2", -0.25, 9), // dup: raises 10, keeps url "a"
            entry(12, "c", -3.0, 2),
            entry(11, "b2", -4.0, 0), // dup: no improvement
        ];
        let mut seq = db();
        upsert_frontier(&mut seq, Oid(5), "pre", -1.0, 0).unwrap();
        for e in &items {
            upsert_frontier(&mut seq, e.oid, &e.url, e.log_relevance, e.serverload).unwrap();
        }
        let mut bat = db();
        upsert_frontier(&mut bat, Oid(5), "pre", -1.0, 0).unwrap();
        let res = upsert_batch(&mut bat, &items).unwrap();
        assert_eq!(
            res,
            BatchUpsert {
                created: 3,
                raised: 0
            }
        );
        let dump = |d: &mut Database| {
            d.execute("select oid, url, relevance, serverload from crawl order by oid")
                .unwrap()
                .rows
        };
        assert_eq!(dump(&mut seq), dump(&mut bat));
        // A second batch over existing rows takes the raise path.
        let res =
            upsert_batch(&mut bat, &[entry(10, "x", -0.1, 0), entry(5, "y", -2.0, 0)]).unwrap();
        assert_eq!(
            res,
            BatchUpsert {
                created: 0,
                raised: 1
            }
        );
        upsert_frontier(&mut seq, Oid(10), "x", -0.1, 0).unwrap();
        upsert_frontier(&mut seq, Oid(5), "y", -2.0, 0).unwrap();
        assert_eq!(dump(&mut seq), dump(&mut bat));
    }

    #[test]
    fn upsert_batch_skips_visited_and_dead_rows() {
        let mut db = db();
        upsert_frontier(&mut db, Oid(1), "u1", -1.0, 0).unwrap();
        let c = claim_next(&mut db).unwrap().unwrap();
        mark_done(&mut db, c.oid, "u1", -0.2, 3, 10).unwrap();
        let res = upsert_batch(&mut db, &[entry(1, "u1", 0.0, 0)]).unwrap();
        assert_eq!(res.changed(), 0, "visited page must not resurrect");
        assert!(claim_next(&mut db).unwrap().is_none());
    }

    #[test]
    fn claim_batch_pops_in_priority_order() {
        let mut db = db();
        for (oid, r) in [(1u64, -2.0), (2, -0.5), (3, -1.0), (4, -0.1), (5, -3.0)] {
            upsert_frontier(&mut db, Oid(oid), &format!("u{oid}"), r, 0).unwrap();
        }
        let batch = claim_batch(&mut db, 3, 0).unwrap().claims;
        let oids: Vec<u64> = batch.iter().map(|c| c.oid.raw()).collect();
        assert_eq!(oids, vec![4, 2, 3], "three best, best first");
        // Claimed rows are out of the frontier; the rest still pop.
        let rest = claim_batch(&mut db, 10, 0).unwrap().claims;
        let oids: Vec<u64> = rest.iter().map(|c| c.oid.raw()).collect();
        assert_eq!(oids, vec![1, 5]);
        assert!(
            claim_batch(&mut db, 4, 0).unwrap().claims.is_empty(),
            "drained"
        );
    }

    #[test]
    fn claim_batch_agrees_with_repeated_claim_next() {
        let build = || {
            let mut d = db();
            for i in 0..40u64 {
                let r = -((i % 7) as f64) / 3.0;
                upsert_frontier(&mut d, Oid(i + 1), &format!("u{i}"), r, (i % 3) as i64).unwrap();
            }
            d
        };
        let mut one = build();
        let singly: Vec<u64> =
            std::iter::from_fn(|| claim_next(&mut one).unwrap().map(|c| c.oid.raw())).collect();
        let mut many = build();
        let mut batched = Vec::new();
        loop {
            let b = claim_batch(&mut many, 7, 0).unwrap().claims;
            if b.is_empty() {
                break;
            }
            batched.extend(b.into_iter().map(|c| c.oid.raw()));
        }
        assert_eq!(singly, batched);
    }

    #[test]
    fn parked_rows_hide_until_due_without_losing_priority() {
        let mut db = db();
        upsert_frontier(&mut db, Oid(1), "u1", -0.5, 0).unwrap(); // best
        upsert_frontier(&mut db, Oid(2), "u2", -1.0, 0).unwrap();
        upsert_frontier(&mut db, Oid(3), "u3", -2.0, 0).unwrap();
        // Park the best entry until tick 10.
        let c = claim_batch(&mut db, 1, 0).unwrap().claims.pop().unwrap();
        assert_eq!(c.oid, Oid(1));
        park_batch(&mut db, &[(Oid(1), 10)]).unwrap();
        // Before tick 10 the pop path skips it but reports it parked.
        let out = claim_batch(&mut db, 3, 5).unwrap();
        let oids: Vec<u64> = out.claims.iter().map(|c| c.oid.raw()).collect();
        assert_eq!(oids, vec![2, 3], "parked row skipped, order kept");
        assert_eq!(out.parked, 1);
        assert_eq!(out.next_due, Some(10));
        unclaim_batch(&mut db, &out.claims).unwrap();
        // At tick 10 it pops first again: parking never cost priority.
        let out = claim_batch(&mut db, 3, 10).unwrap();
        let oids: Vec<u64> = out.claims.iter().map(|c| c.oid.raw()).collect();
        assert_eq!(oids, vec![1, 2, 3]);
        assert_eq!(out.parked, 0);
    }

    #[test]
    fn all_parked_frontier_claims_nothing_but_counts() {
        let mut db = db();
        for oid in 1..=4u64 {
            upsert_frontier(&mut db, Oid(oid), &format!("u{oid}"), -1.0, 0).unwrap();
        }
        let claims = claim_batch(&mut db, 4, 0).unwrap().claims;
        let parked: Vec<(Oid, i64)> = claims.iter().map(|c| (c.oid, 7)).collect();
        park_batch(&mut db, &parked).unwrap();
        let out = claim_batch(&mut db, 2, 3).unwrap();
        assert!(out.claims.is_empty());
        assert_eq!(out.parked, 4, "exact when the scan exhausts the range");
        assert_eq!(out.next_due, Some(7));
        // claim_next (diagnostics) ignores parking entirely.
        assert!(claim_next(&mut db).unwrap().is_some());
    }

    #[test]
    fn deferred_prefix_is_read_once_per_claim() {
        // D rows of a saturated server sit ahead of the due rows in
        // priority order; the scan must step over them once, not
        // re-read them while it looks for the n admitted rows.
        const D: u64 = 10;
        const N: usize = 3;
        let mut db = db();
        for oid in 1..=D {
            upsert_frontier(&mut db, Oid(oid), &format!("slow/{oid}"), -0.1, 0).unwrap();
        }
        // More due rows than asked for: the scan must stop at the n-th.
        for oid in 101..=105u64 {
            upsert_frontier(&mut db, Oid(oid), &format!("fast/{oid}"), -(oid as f64), 0).unwrap();
        }
        let mut calls = 0usize;
        let out = claim_batch_where(&mut db, N, 0, |c| {
            calls += 1;
            !c.url.starts_with("slow/")
        })
        .unwrap();
        let oids: Vec<u64> = out.claims.iter().map(|c| c.oid.raw()).collect();
        assert_eq!(oids, vec![101, 102, 103], "best admitted rows, best first");
        assert_eq!(out.deferred, D as usize);
        assert_eq!(out.parked, 0);
        assert_eq!(calls, D as usize + N, "each row admitted or deferred once");
    }

    #[test]
    fn mark_failed_batch_matches_sequential_and_parks_retries() {
        let build = || {
            let mut d = db();
            for oid in 1..=3u64 {
                upsert_frontier(&mut d, Oid(oid), &format!("u{oid}"), -1.0, 0).unwrap();
            }
            let claims = claim_batch(&mut d, 3, 0).unwrap().claims;
            (d, claims)
        };
        let (mut seq, claims) = build();
        for c in &claims {
            mark_failed(&mut seq, c.oid, c.oid != Oid(2), 3).unwrap();
        }
        let (mut bat, claims) = build();
        let items: Vec<FailureUpdate> = claims
            .iter()
            .map(|c| FailureUpdate {
                oid: c.oid,
                retriable: c.oid != Oid(2),
                not_before: 0,
            })
            .collect();
        let dispo = mark_failed_batch(&mut bat, &items, 3).unwrap();
        assert_eq!(dispo[0], FailDisposition::Retried { not_before: 0 });
        assert_eq!(dispo[1], FailDisposition::Dead, "non-retriable dies");
        assert_eq!(dispo[2], FailDisposition::Retried { not_before: 0 });
        let dump = |d: &mut Database| {
            d.execute("select oid, numtries, visited, not_before from crawl order by oid")
                .unwrap()
                .rows
        };
        assert_eq!(dump(&mut seq), dump(&mut bat));
        // A parked retry is invisible before its tick, poppable after.
        let claims = claim_batch(&mut bat, 3, 0).unwrap().claims;
        let items: Vec<FailureUpdate> = claims
            .iter()
            .map(|c| FailureUpdate {
                oid: c.oid,
                retriable: true,
                not_before: 20,
            })
            .collect();
        let dispo = mark_failed_batch(&mut bat, &items, 3).unwrap();
        assert!(dispo
            .iter()
            .all(|d| *d == FailDisposition::Retried { not_before: 20 }));
        let out = claim_batch(&mut bat, 3, 19).unwrap();
        assert!(out.claims.is_empty());
        assert_eq!(out.parked, 2);
        let out = claim_batch(&mut bat, 3, 20).unwrap();
        assert_eq!(out.claims.len(), 2);
    }

    #[test]
    fn corrupt_rows_error_instead_of_fabricating_values() {
        let mut db = db();
        // Bypass the typed helpers: insert a row whose url column is
        // Null (every column type admits Null), so the decode layer must
        // catch it rather than fabricate "".
        let tid = db.table_id("crawl").unwrap();
        let mut row = frontier_row(Oid(7), "u7", -0.5, 0);
        row[crawl_col::URL] = Value::Null;
        db.insert(tid, row).unwrap();
        let err = claim_next(&mut db).unwrap_err();
        assert!(
            matches!(err, DbError::Corrupt(ref m) if m.contains("url")),
            "expected Corrupt(url), got {err:?}"
        );
    }
}
