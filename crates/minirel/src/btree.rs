//! B+tree secondary indexes over the buffer pool.
//!
//! Keys are memcomparable byte strings (see [`crate::value::encode_composite_key`]);
//! payloads are record ids. Duplicate keys are allowed — `(key, rid)` pairs
//! are unique. Every node visit goes through the buffer pool, so index
//! probes are charged to the physical-I/O counters; this is what makes the
//! `SingleProbe` classifier path of Figure 8(a/b) honest: *"there is little
//! locality of access, because the records are small and most storage
//! managers use page-level caching."*
//!
//! Deletion is lazy (no rebalancing/merging): pages may underflow but never
//! violate ordering invariants. The workloads here delete far less than
//! they insert, matching the paper's crawl tables.

use crate::buffer::BufferPool;
use crate::error::{DbError, DbResult};
use crate::heap::Rid;
use crate::page::{PageId, INVALID_PAGE, PAGE_SIZE};
use std::ops::Bound;

const LEAF: u8 = 0;
const INTERNAL: u8 = 1;

/// In-memory image of a leaf node.
struct Leaf {
    next: PageId,
    /// Sorted by key, ties broken by rid.
    entries: Vec<(Vec<u8>, Rid)>,
}

/// In-memory image of an internal node.
struct Internal {
    leftmost: PageId,
    /// `entries[i] = (key_i, child_i)`: `child_i` holds keys `>= key_i`
    /// (and `< key_{i+1}`); `leftmost` holds keys `< key_0`.
    entries: Vec<(Vec<u8>, PageId)>,
}

enum Node {
    Leaf(Leaf),
    Internal(Internal),
}

fn encode_rid(rid: Rid, out: &mut Vec<u8>) {
    out.extend_from_slice(&rid.page.to_le_bytes());
    out.extend_from_slice(&rid.slot.to_le_bytes());
}

/// Augmented key: user key ++ big-endian rid. Internal-node navigation
/// always uses augmented keys so that *duplicate* user keys spanning a
/// split stay reachable (the separator alone cannot disambiguate them).
fn aug_key(key: &[u8], rid: Rid) -> Vec<u8> {
    let mut k = Vec::with_capacity(key.len() + 6);
    k.extend_from_slice(key);
    k.extend_from_slice(&rid.page.to_be_bytes());
    k.extend_from_slice(&rid.slot.to_be_bytes());
    k
}

/// Minimal rid: the augmented key lower bound for a user key.
const MIN_RID: Rid = Rid { page: 0, slot: 0 };

fn decode_rid(b: &[u8]) -> Rid {
    Rid {
        page: u32::from_le_bytes(b[0..4].try_into().expect("rid page")),
        slot: u16::from_le_bytes(b[4..6].try_into().expect("rid slot")),
    }
}

impl Node {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        match self {
            Node::Leaf(l) => {
                out.push(LEAF);
                out.extend_from_slice(&(l.entries.len() as u16).to_le_bytes());
                out.extend_from_slice(&l.next.to_le_bytes());
                for (k, rid) in &l.entries {
                    out.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    out.extend_from_slice(k);
                    encode_rid(*rid, &mut out);
                }
            }
            Node::Internal(n) => {
                out.push(INTERNAL);
                out.extend_from_slice(&(n.entries.len() as u16).to_le_bytes());
                out.extend_from_slice(&n.leftmost.to_le_bytes());
                for (k, child) in &n.entries {
                    out.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    out.extend_from_slice(k);
                    out.extend_from_slice(&child.to_le_bytes());
                }
            }
        }
        out
    }

    fn decode(b: &[u8]) -> DbResult<Node> {
        let ty = b[0];
        let n = u16::from_le_bytes([b[1], b[2]]) as usize;
        let first = u32::from_le_bytes(b[3..7].try_into().expect("node header"));
        let mut off = 7;
        let read_key = |off: &mut usize| -> DbResult<Vec<u8>> {
            if *off + 2 > b.len() {
                return Err(DbError::Page("truncated btree node".into()));
            }
            let klen = u16::from_le_bytes([b[*off], b[*off + 1]]) as usize;
            *off += 2;
            if *off + klen > b.len() {
                return Err(DbError::Page("truncated btree key".into()));
            }
            let k = b[*off..*off + klen].to_vec();
            *off += klen;
            Ok(k)
        };
        match ty {
            LEAF => {
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = read_key(&mut off)?;
                    let rid = decode_rid(&b[off..off + 6]);
                    off += 6;
                    entries.push((k, rid));
                }
                Ok(Node::Leaf(Leaf {
                    next: first,
                    entries,
                }))
            }
            INTERNAL => {
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = read_key(&mut off)?;
                    let child = u32::from_le_bytes(b[off..off + 4].try_into().expect("child ptr"));
                    off += 4;
                    entries.push((k, child));
                }
                Ok(Node::Internal(Internal {
                    leftmost: first,
                    entries,
                }))
            }
            t => Err(DbError::Page(format!("bad btree node type {t}"))),
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            Node::Leaf(l) => {
                7 + l
                    .entries
                    .iter()
                    .map(|(k, _)| 2 + k.len() + 6)
                    .sum::<usize>()
            }
            Node::Internal(n) => {
                7 + n
                    .entries
                    .iter()
                    .map(|(k, _)| 2 + k.len() + 4)
                    .sum::<usize>()
            }
        }
    }
}

fn read_node(pool: &BufferPool, pid: PageId) -> DbResult<Node> {
    pool.with_page(pid, Node::decode)?
}

// ---------------------------------------------------------------- raw access
//
// The hot paths (descent, point lookup, single insert/delete, batch
// partitioning) never materialize a [`Node`]: decoding allocates one
// `Vec<u8>` per key, and a crawl touches dozens of nodes per page
// fetched, so the decode/encode churn — not disk — was the dominant
// per-page cost. These helpers parse the encoded bytes in place; the
// decode path survives for structural changes (splits), which are rare.

/// Header bytes before the first entry (type, u16 count, u32 next/leftmost).
const HDR: usize = 7;
/// Payload width after each key: a 6-byte rid in leaves…
const LEAF_PAYLOAD: usize = 6;
/// …or a 4-byte child pointer in internal nodes.
const INTERNAL_PAYLOAD: usize = 4;

/// A validated, borrowed view of an encoded node: one bounds-checking
/// walk up front, then allocation-free iteration.
struct RawNode<'a> {
    b: &'a [u8],
    leaf: bool,
    n: usize,
    /// Bytes used by header + entries (the in-place insert bound).
    used: usize,
}

impl<'a> RawNode<'a> {
    fn parse(b: &'a [u8]) -> DbResult<RawNode<'a>> {
        let leaf = match b[0] {
            LEAF => true,
            INTERNAL => false,
            t => return Err(DbError::Page(format!("bad btree node type {t}"))),
        };
        let n = u16::from_le_bytes([b[1], b[2]]) as usize;
        let payload = if leaf { LEAF_PAYLOAD } else { INTERNAL_PAYLOAD };
        let mut off = HDR;
        for _ in 0..n {
            if off + 2 > b.len() {
                return Err(DbError::Page("truncated btree node".into()));
            }
            let klen = u16::from_le_bytes([b[off], b[off + 1]]) as usize;
            off += 2 + klen + payload;
            if off > b.len() {
                return Err(DbError::Page("truncated btree key".into()));
            }
        }
        Ok(RawNode {
            b,
            leaf,
            n,
            used: off,
        })
    }

    /// `next` pointer of a leaf / `leftmost` child of an internal node.
    fn first(&self) -> u32 {
        u32::from_le_bytes(self.b[3..7].try_into().expect("node header"))
    }

    /// Iterate `(entry_offset, key, payload)` without allocating.
    fn entries(&self) -> RawEntries<'a> {
        RawEntries {
            b: self.b,
            payload: if self.leaf {
                LEAF_PAYLOAD
            } else {
                INTERNAL_PAYLOAD
            },
            off: HDR,
            left: self.n,
        }
    }
}

struct RawEntries<'a> {
    b: &'a [u8],
    payload: usize,
    off: usize,
    left: usize,
}

impl<'a> Iterator for RawEntries<'a> {
    type Item = (usize, &'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        let off = self.off;
        let klen = u16::from_le_bytes([self.b[off], self.b[off + 1]]) as usize;
        let key = &self.b[off + 2..off + 2 + klen];
        let payload = &self.b[off + 2 + klen..off + 2 + klen + self.payload];
        self.off = off + 2 + klen + self.payload;
        self.left -= 1;
        Some((off, key, payload))
    }
}

fn set_count(b: &mut [u8], n: usize) {
    b[1..3].copy_from_slice(&(n as u16).to_le_bytes());
}

fn payload_rid(p: &[u8]) -> Rid {
    decode_rid(p)
}

fn payload_child(p: &[u8]) -> PageId {
    u32::from_le_bytes(p.try_into().expect("child ptr"))
}

/// Compare `(key ++ rid_be)` against `sep` without building the
/// augmented key (the descent/partition comparisons run once per node
/// entry — materializing each one allocated on every hop).
fn cmp_aug(key: &[u8], rid: Rid, sep: &[u8]) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let mut rb = [0u8; 6];
    rb[..4].copy_from_slice(&rid.page.to_be_bytes());
    rb[4..].copy_from_slice(&rid.slot.to_be_bytes());
    if sep.len() <= key.len() {
        match key[..sep.len()].cmp(sep) {
            // Augmented key strictly longer: it sorts after its prefix.
            Ordering::Equal => Ordering::Greater,
            c => c,
        }
    } else {
        match key.cmp(&sep[..key.len()]) {
            Ordering::Equal => rb[..].cmp(&sep[key.len()..]),
            c => c,
        }
    }
}

/// Leaf-entry order: `(key, rid)` tuples.
fn cmp_entry(k: &[u8], r: Rid, probe_key: &[u8], probe_rid: Rid) -> std::cmp::Ordering {
    k.cmp(probe_key).then_with(|| r.cmp(&probe_rid))
}

/// Child of an internal node that should contain `akey` (augmented):
/// rightmost child whose separator is `<= akey` (equal separators send
/// the search right, exactly like [`child_index`] on the decoded form).
fn raw_child_for(node: &RawNode<'_>, akey: &[u8]) -> PageId {
    let mut child = node.first();
    for (_, sep, p) in node.entries() {
        if sep <= akey {
            child = payload_child(p);
        } else {
            break;
        }
    }
    child
}

/// Outcome of an in-place leaf insert attempt.
enum FastInsert {
    Inserted,
    Duplicate,
    /// The entry does not fit: the caller takes the decode-and-split path.
    NoFit,
}

/// Insert `(key, rid)` into the encoded leaf `b` by shifting the entry
/// tail, without decoding. One memmove, zero allocations.
fn raw_leaf_insert(b: &mut [u8], key: &[u8], rid: Rid) -> DbResult<FastInsert> {
    let (n, used, ins_off, dup) = {
        let node = RawNode::parse(b)?;
        if !node.leaf {
            return Err(DbError::Page("expected leaf node".into()));
        }
        let mut ins = node.used;
        let mut dup = false;
        for (off, k, p) in node.entries() {
            match cmp_entry(k, payload_rid(p), key, rid) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => {
                    dup = true;
                    break;
                }
                std::cmp::Ordering::Greater => {
                    ins = off;
                    break;
                }
            }
        }
        (node.n, node.used, ins, dup)
    };
    if dup {
        return Ok(FastInsert::Duplicate);
    }
    let esz = 2 + key.len() + LEAF_PAYLOAD;
    if used + esz > b.len() {
        return Ok(FastInsert::NoFit);
    }
    b.copy_within(ins_off..used, ins_off + esz);
    b[ins_off..ins_off + 2].copy_from_slice(&(key.len() as u16).to_le_bytes());
    b[ins_off + 2..ins_off + 2 + key.len()].copy_from_slice(key);
    let rid_off = ins_off + 2 + key.len();
    b[rid_off..rid_off + 4].copy_from_slice(&rid.page.to_le_bytes());
    b[rid_off + 4..rid_off + 6].copy_from_slice(&rid.slot.to_le_bytes());
    set_count(b, n + 1);
    Ok(FastInsert::Inserted)
}

/// Remove `(key, rid)` from the encoded leaf `b` in place; returns
/// whether it existed.
fn raw_leaf_delete(b: &mut [u8], key: &[u8], rid: Rid) -> DbResult<bool> {
    let (n, used, hit) = {
        let node = RawNode::parse(b)?;
        if !node.leaf {
            return Err(DbError::Page("expected leaf node".into()));
        }
        let mut hit: Option<(usize, usize)> = None;
        for (off, k, p) in node.entries() {
            match cmp_entry(k, payload_rid(p), key, rid) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => {
                    hit = Some((off, 2 + k.len() + LEAF_PAYLOAD));
                    break;
                }
                std::cmp::Ordering::Greater => break,
            }
        }
        (node.n, node.used, hit)
    };
    match hit {
        None => Ok(false),
        Some((off, esz)) => {
            b.copy_within(off + esz..used, off);
            set_count(b, n - 1);
            Ok(true)
        }
    }
}

fn write_node(pool: &BufferPool, pid: PageId, node: &Node) -> DbResult<()> {
    let bytes = node.encode();
    if bytes.len() > PAGE_SIZE {
        return Err(DbError::Page("btree node overflow after split".into()));
    }
    pool.with_page_mut(pid, |b| {
        b[..bytes.len()].copy_from_slice(&bytes);
    })
}

/// A persistent B+tree index.
#[derive(Debug)]
pub struct BTree {
    root: PageId,
    len: u64,
}

impl BTree {
    /// Create an empty tree (root is an empty leaf).
    pub fn create(pool: &BufferPool) -> DbResult<BTree> {
        let root = pool.allocate()?;
        write_node(
            pool,
            root,
            &Node::Leaf(Leaf {
                next: INVALID_PAGE,
                entries: vec![],
            }),
        )?;
        Ok(BTree { root, len: 0 })
    }

    /// Number of `(key, rid)` entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Root page id (persisted in the WAL catalog image).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Rebuild from a catalog image decoded at recovery; the node pages
    /// themselves are recovered through the data file / WAL replay.
    pub(crate) fn from_parts(root: PageId, len: u64) -> BTree {
        BTree { root, len }
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an entry. Duplicate `(key, rid)` pairs are ignored.
    ///
    /// Fast path: descend without decoding, splice the entry into the
    /// leaf in place. Only a full leaf falls back to the decode-and-
    /// split machinery.
    pub fn insert(&mut self, pool: &BufferPool, key: &[u8], rid: Rid) -> DbResult<()> {
        let leaf_pid = self.find_leaf(pool, &aug_key(key, rid))?;
        let outcome = pool.with_page_mut_if(leaf_pid, |b| {
            let r = raw_leaf_insert(b, key, rid);
            let dirtied = matches!(r, Ok(FastInsert::Inserted));
            (r, dirtied)
        })??;
        match outcome {
            FastInsert::Inserted => {
                self.len += 1;
                return Ok(());
            }
            FastInsert::Duplicate => return Ok(()),
            FastInsert::NoFit => {}
        }
        if let Some((sep, right)) = self.insert_rec(pool, self.root, key, rid)? {
            // Root split: grow the tree by one level.
            let new_root = pool.allocate()?;
            let node = Node::Internal(Internal {
                leftmost: self.root,
                entries: vec![(sep, right)],
            });
            write_node(pool, new_root, &node)?;
            self.root = new_root;
        }
        Ok(())
    }

    /// Recursive insert; returns `Some((separator, new_right_page))` when
    /// the child split.
    fn insert_rec(
        &mut self,
        pool: &BufferPool,
        pid: PageId,
        key: &[u8],
        rid: Rid,
    ) -> DbResult<Option<(Vec<u8>, PageId)>> {
        match read_node(pool, pid)? {
            Node::Leaf(mut leaf) => {
                let probe = (key.to_vec(), rid);
                let pos = match leaf.entries.binary_search_by(|e| e.cmp(&probe)) {
                    Ok(_) => return Ok(None), // exact duplicate
                    Err(p) => p,
                };
                leaf.entries.insert(pos, probe);
                self.len += 1;
                let node = Node::Leaf(leaf);
                if node.encoded_len() <= PAGE_SIZE {
                    write_node(pool, pid, &node)?;
                    return Ok(None);
                }
                // Split: move upper half right.
                let mut leaf = match node {
                    Node::Leaf(l) => l,
                    _ => unreachable!(),
                };
                let mid = leaf.entries.len() / 2;
                let right_entries = leaf.entries.split_off(mid);
                let sep = aug_key(&right_entries[0].0, right_entries[0].1);
                let right_pid = pool.allocate()?;
                let right = Leaf {
                    next: leaf.next,
                    entries: right_entries,
                };
                leaf.next = right_pid;
                write_node(pool, right_pid, &Node::Leaf(right))?;
                write_node(pool, pid, &Node::Leaf(leaf))?;
                Ok(Some((sep, right_pid)))
            }
            Node::Internal(mut node) => {
                let akey = aug_key(key, rid);
                let child_idx = child_index(&node, &akey);
                let child = if child_idx == 0 {
                    node.leftmost
                } else {
                    node.entries[child_idx - 1].1
                };
                if let Some((sep, right)) = self.insert_rec(pool, child, key, rid)? {
                    let pos = node
                        .entries
                        .binary_search_by(|(k, _)| k.as_slice().cmp(&sep[..]))
                        .unwrap_or_else(|p| p);
                    node.entries.insert(pos, (sep, right));
                    let enc = Node::Internal(node);
                    if enc.encoded_len() <= PAGE_SIZE {
                        write_node(pool, pid, &enc)?;
                        return Ok(None);
                    }
                    let mut node = match enc {
                        Node::Internal(n) => n,
                        _ => unreachable!(),
                    };
                    let mid = node.entries.len() / 2;
                    let mut right_entries = node.entries.split_off(mid);
                    // Middle key moves up; its child becomes right's leftmost.
                    let (sep_up, sep_child) = right_entries.remove(0);
                    let right_pid = pool.allocate()?;
                    let right = Internal {
                        leftmost: sep_child,
                        entries: right_entries,
                    };
                    write_node(pool, right_pid, &Node::Internal(right))?;
                    write_node(pool, pid, &Node::Internal(node))?;
                    Ok(Some((sep_up, right_pid)))
                } else {
                    Ok(None)
                }
            }
        }
    }

    /// Remove an exact `(key, rid)` entry; returns whether it existed.
    /// In-place shift; deletion stays lazy (no rebalancing), so no
    /// structural fallback is ever needed.
    pub fn delete(&mut self, pool: &BufferPool, key: &[u8], rid: Rid) -> DbResult<bool> {
        let leaf_pid = self.find_leaf(pool, &aug_key(key, rid))?;
        let existed = pool.with_page_mut_if(leaf_pid, |b| {
            let r = raw_leaf_delete(b, key, rid);
            let dirtied = matches!(r, Ok(true));
            (r, dirtied)
        })??;
        if existed {
            self.len -= 1;
        }
        Ok(existed)
    }

    /// Descend to the leaf that would hold `akey` (an *augmented* key).
    /// Each hop reads the node bytes in place — no decode, no allocation.
    fn find_leaf(&self, pool: &BufferPool, akey: &[u8]) -> DbResult<PageId> {
        let mut pid = self.root;
        loop {
            let next = pool.with_page(pid, |b| -> DbResult<Option<PageId>> {
                let node = RawNode::parse(b)?;
                if node.leaf {
                    return Ok(None);
                }
                Ok(Some(raw_child_for(&node, akey)))
            })??;
            match next {
                None => return Ok(pid),
                Some(child) => pid = child,
            }
        }
    }

    /// All rids for each of `keys`, answered in one ordered pass.
    ///
    /// `keys` must be sorted ascending (duplicates allowed). Instead of
    /// one root-to-leaf descent per key, the pass holds its current leaf
    /// and only re-descends when the next key falls beyond it — the
    /// "sort once, merge once" batch access path of §3.1, applied to
    /// point lookups. Buffer-pool reads drop from `O(keys × depth)` to
    /// roughly one visit per distinct leaf touched.
    pub fn lookup_many(&self, pool: &BufferPool, keys: &[Vec<u8>]) -> DbResult<Vec<Vec<Rid>>> {
        // The current leaf is held as a page-sized scratch copy and
        // re-parsed per key — one 4 KB memcpy per leaf visited instead
        // of a per-entry-allocating decode.
        let mut out: Vec<Vec<Rid>> = Vec::with_capacity(keys.len());
        let mut scratch: Box<[u8; PAGE_SIZE]> = Box::new([0u8; PAGE_SIZE]);
        let mut have_leaf = false;
        let load = |pool: &BufferPool, scratch: &mut [u8; PAGE_SIZE], pid: PageId| {
            pool.with_page(pid, |b| scratch.copy_from_slice(b))
        };
        for (i, key) in keys.iter().enumerate() {
            if i > 0 {
                debug_assert!(keys[i - 1] <= *key, "lookup_many requires sorted keys");
                if keys[i - 1] == *key {
                    // Equal neighbor: the pass has already advanced past
                    // this key's entries; reuse the previous answer.
                    let prev = out[i - 1].clone();
                    out.push(prev);
                    continue;
                }
            }
            // The current leaf can serve `key` only if `key` does not
            // sort past its last entry; otherwise descend afresh.
            let reuse = have_leaf && {
                let node = RawNode::parse(&scratch[..])?;
                node.entries()
                    .last()
                    .is_some_and(|(_, k, _)| k >= key.as_slice())
            };
            if !reuse {
                let pid = self.find_leaf(pool, &aug_key(key, MIN_RID))?;
                load(pool, &mut scratch, pid)?;
                have_leaf = true;
            }
            let mut rids = Vec::new();
            loop {
                let node = RawNode::parse(&scratch[..])?;
                if !node.leaf {
                    return Err(DbError::Page("expected leaf node".into()));
                }
                let mut last_key_le = true;
                for (_, k, p) in node.entries() {
                    match k.cmp(key.as_slice()) {
                        std::cmp::Ordering::Less => {}
                        std::cmp::Ordering::Equal => rids.push(payload_rid(p)),
                        std::cmp::Ordering::Greater => {
                            last_key_le = false;
                            break;
                        }
                    }
                }
                // Matches can only continue in the next leaf when this
                // leaf ends at or before `key` (duplicate span, or a key
                // that sits on a leaf boundary).
                let spills = node.first() != INVALID_PAGE && last_key_le;
                if !spills {
                    break;
                }
                let next = node.first();
                load(pool, &mut scratch, next)?;
            }
            out.push(rids);
        }
        Ok(out)
    }

    /// Insert a sorted batch of `(key, rid)` entries in one ordered
    /// pass: the batch is partitioned over the tree's subtrees and each
    /// affected node is read and written once, instead of once per
    /// entry. Exact duplicate pairs are ignored, as in
    /// [`BTree::insert`]. Entries must be sorted by `(key, rid)`.
    pub fn insert_many(&mut self, pool: &BufferPool, entries: &[(Vec<u8>, Rid)]) -> DbResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        debug_assert!(
            entries.windows(2).all(|w| w[0] <= w[1]),
            "insert_many requires sorted entries"
        );
        let mut pending = self.insert_many_rec(pool, self.root, entries)?;
        // Root split(s): grow by one level per round until the new root
        // fits (a huge batch can hand back more separators than one
        // internal node holds).
        while !pending.is_empty() {
            let new_root = pool.allocate()?;
            let node = Internal {
                leftmost: self.root,
                entries: pending,
            };
            self.root = new_root;
            pending = write_internal_split(pool, new_root, node)?;
        }
        Ok(())
    }

    /// Partition the (sorted) batch among this node's children by the
    /// same augmented-key rule the single-entry descent uses — reading
    /// the node bytes in place, so a no-split batch never decodes an
    /// internal node.
    fn raw_partition(
        &self,
        pool: &BufferPool,
        pid: PageId,
        entries: &[(Vec<u8>, Rid)],
    ) -> DbResult<Option<Vec<(PageId, usize, usize)>>> {
        pool.with_page(pid, |b| -> DbResult<Option<Vec<(PageId, usize, usize)>>> {
            let node = RawNode::parse(b)?;
            if node.leaf {
                return Ok(None);
            }
            let mut segs: Vec<(PageId, usize, usize)> = Vec::new();
            let mut lo = 0usize;
            let mut child = node.first();
            for (_, sep, p) in node.entries() {
                let hi = lo
                    + entries[lo..]
                        .partition_point(|(k, r)| cmp_aug(k, *r, sep) == std::cmp::Ordering::Less);
                if hi > lo {
                    segs.push((child, lo, hi));
                }
                lo = hi;
                child = payload_child(p);
                if lo == entries.len() {
                    break;
                }
            }
            if lo < entries.len() {
                segs.push((child, lo, entries.len()));
            }
            Ok(Some(segs))
        })?
    }

    fn insert_many_rec(
        &mut self,
        pool: &BufferPool,
        pid: PageId,
        entries: &[(Vec<u8>, Rid)],
    ) -> DbResult<Vec<(Vec<u8>, PageId)>> {
        match self.raw_partition(pool, pid, entries)? {
            None => {
                // Leaf. Fast path: splice entries in place until one
                // does not fit; only then decode what the page now
                // holds and take the multi-way split path for the rest.
                let (placed, done) = pool.with_page_mut_if(pid, |b| {
                    let mut placed = 0u64;
                    let mut i = 0usize;
                    let mut err = None;
                    while i < entries.len() {
                        match raw_leaf_insert(b, &entries[i].0, entries[i].1) {
                            Ok(FastInsert::Inserted) => {
                                placed += 1;
                                i += 1;
                            }
                            Ok(FastInsert::Duplicate) => i += 1,
                            Ok(FastInsert::NoFit) => break,
                            Err(e) => {
                                err = Some(e);
                                break;
                            }
                        }
                    }
                    let dirtied = placed > 0;
                    (
                        match err {
                            Some(e) => Err(e),
                            None => Ok((placed, i)),
                        },
                        dirtied,
                    )
                })??;
                self.len += placed;
                if done == entries.len() {
                    return Ok(Vec::new());
                }
                let mut leaf = match read_node(pool, pid)? {
                    Node::Leaf(l) => l,
                    Node::Internal(_) => unreachable!("raw_partition said leaf"),
                };
                for (key, rid) in &entries[done..] {
                    match leaf
                        .entries
                        .binary_search_by(|(k, r)| cmp_entry(k, *r, key, *rid))
                    {
                        Ok(_) => {}
                        Err(pos) => {
                            leaf.entries.insert(pos, (key.clone(), *rid));
                            self.len += 1;
                        }
                    }
                }
                write_leaf_split(pool, pid, leaf)
            }
            Some(segs) => {
                let mut seps: Vec<(Vec<u8>, PageId)> = Vec::new();
                for (child, lo, hi) in segs {
                    seps.extend(self.insert_many_rec(pool, child, &entries[lo..hi])?);
                }
                if seps.is_empty() {
                    return Ok(Vec::new());
                }
                // A child split: decode this node, thread the new
                // separators in, and split it too if needed.
                let mut node = match read_node(pool, pid)? {
                    Node::Internal(n) => n,
                    Node::Leaf(_) => unreachable!("raw_partition said internal"),
                };
                for sep in seps {
                    let pos = node
                        .entries
                        .binary_search_by(|(k, _)| k.as_slice().cmp(&sep.0[..]))
                        .unwrap_or_else(|p| p);
                    node.entries.insert(pos, sep);
                }
                write_internal_split(pool, pid, node)
            }
        }
    }

    /// Remove a sorted batch of exact `(key, rid)` entries in one
    /// ordered pass; returns how many existed and were removed.
    /// Deletion stays lazy (no rebalancing), like [`BTree::delete`].
    pub fn delete_many(
        &mut self,
        pool: &BufferPool,
        entries: &[(Vec<u8>, Rid)],
    ) -> DbResult<usize> {
        if entries.is_empty() {
            return Ok(0);
        }
        debug_assert!(
            entries.windows(2).all(|w| w[0] <= w[1]),
            "delete_many requires sorted entries"
        );
        let removed = self.delete_many_rec(pool, self.root, entries)?;
        self.len -= removed as u64;
        Ok(removed)
    }

    fn delete_many_rec(
        &mut self,
        pool: &BufferPool,
        pid: PageId,
        entries: &[(Vec<u8>, Rid)],
    ) -> DbResult<usize> {
        match self.raw_partition(pool, pid, entries)? {
            None => {
                // Leaf: in-place shifts, no decode/encode round-trip.
                pool.with_page_mut_if(pid, |b| {
                    let mut removed = 0usize;
                    let mut err = None;
                    for (key, rid) in entries {
                        match raw_leaf_delete(b, key, *rid) {
                            Ok(true) => removed += 1,
                            Ok(false) => {}
                            Err(e) => {
                                err = Some(e);
                                break;
                            }
                        }
                    }
                    let dirtied = removed > 0;
                    (
                        match err {
                            Some(e) => Err(e),
                            None => Ok(removed),
                        },
                        dirtied,
                    )
                })?
            }
            Some(segs) => {
                let mut removed = 0;
                for (child, lo, hi) in segs {
                    removed += self.delete_many_rec(pool, child, &entries[lo..hi])?;
                }
                Ok(removed)
            }
        }
    }

    /// All rids stored under exactly `key`.
    pub fn lookup(&self, pool: &BufferPool, key: &[u8]) -> DbResult<Vec<Rid>> {
        let mut out = Vec::new();
        self.scan_range(
            pool,
            Bound::Included(key),
            Bound::Included(key),
            |_, rid| {
                out.push(rid);
                true
            },
        )?;
        Ok(out)
    }

    /// All `(key, rid)` entries whose key starts with `prefix`.
    pub fn lookup_prefix(&self, pool: &BufferPool, prefix: &[u8]) -> DbResult<Vec<(Vec<u8>, Rid)>> {
        let mut out = Vec::new();
        self.scan_range(pool, Bound::Included(prefix), Bound::Unbounded, |k, rid| {
            if !k.starts_with(prefix) {
                return false;
            }
            out.push((k.to_vec(), rid));
            true
        })?;
        Ok(out)
    }

    /// In-order scan over `[lo, hi]`; the callback returns `false` to stop.
    ///
    /// Each leaf is copied into a page-sized scratch buffer once (so the
    /// callback runs outside the buffer-pool latch and may safely call
    /// back into the pool), then iterated without decoding.
    pub fn scan_range(
        &self,
        pool: &BufferPool,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        mut f: impl FnMut(&[u8], Rid) -> bool,
    ) -> DbResult<()> {
        let start_key: &[u8] = match lo {
            Bound::Included(k) | Bound::Excluded(k) => k,
            Bound::Unbounded => &[],
        };
        let mut pid = self.find_leaf(pool, &aug_key(start_key, MIN_RID))?;
        let mut scratch: Box<[u8; PAGE_SIZE]> = Box::new([0u8; PAGE_SIZE]);
        loop {
            pool.with_page(pid, |b| scratch.copy_from_slice(b))?;
            let node = RawNode::parse(&scratch[..])?;
            if !node.leaf {
                return Err(DbError::Page("scan hit internal".into()));
            }
            for (_, k, p) in node.entries() {
                let after_lo = match lo {
                    Bound::Included(l) => k >= l,
                    Bound::Excluded(l) => k > l,
                    Bound::Unbounded => true,
                };
                if !after_lo {
                    continue;
                }
                let before_hi = match hi {
                    Bound::Included(h) => k <= h,
                    Bound::Excluded(h) => k < h,
                    Bound::Unbounded => true,
                };
                if !before_hi {
                    return Ok(());
                }
                if !f(k, payload_rid(p)) {
                    return Ok(());
                }
            }
            if node.first() == INVALID_PAGE {
                return Ok(());
            }
            pid = node.first();
        }
    }

    /// Structural check used by property tests: keys sorted within and
    /// across leaves; `len` matches entry count.
    pub fn validate(&self, pool: &BufferPool) -> DbResult<()> {
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0u64;
        self.scan_range(pool, Bound::Unbounded, Bound::Unbounded, |k, _| {
            if let Some(p) = &prev {
                assert!(p.as_slice() <= k, "btree order violated");
            }
            prev = Some(k.to_vec());
            count += 1;
            true
        })?;
        if count != self.len {
            return Err(DbError::Page(format!(
                "btree len {} != scanned {}",
                self.len, count
            )));
        }
        Ok(())
    }
}

/// Batch splits target this fill so a freshly split node absorbs more
/// inserts before splitting again (a 100%-full chunk would split on the
/// very next insert).
const SPLIT_FILL: usize = (PAGE_SIZE * 2) / 3;

/// Write `leaf` back to `pid`, splitting it into however many chained
/// leaves a batch insert requires. Returns the separators of every new
/// right sibling (empty when the node fit as-is).
fn write_leaf_split(
    pool: &BufferPool,
    pid: PageId,
    leaf: Leaf,
) -> DbResult<Vec<(Vec<u8>, PageId)>> {
    let node = Node::Leaf(leaf);
    if node.encoded_len() <= PAGE_SIZE {
        write_node(pool, pid, &node)?;
        return Ok(Vec::new());
    }
    let leaf = match node {
        Node::Leaf(l) => l,
        _ => unreachable!(),
    };
    // Greedy chunking under the split-fill target; each chunk becomes
    // one leaf in the original chain position.
    let mut chunks: Vec<Vec<(Vec<u8>, Rid)>> = vec![Vec::new()];
    let mut size = 7usize;
    for e in leaf.entries {
        let esz = 2 + e.0.len() + 6;
        if size + esz > SPLIT_FILL && !chunks.last().expect("non-empty").is_empty() {
            chunks.push(Vec::new());
            size = 7;
        }
        size += esz;
        chunks.last_mut().expect("non-empty").push(e);
    }
    let tail_next = leaf.next;
    let mut seps = Vec::with_capacity(chunks.len() - 1);
    let mut pids = vec![pid];
    for chunk in &chunks[1..] {
        let new_pid = pool.allocate()?;
        seps.push((aug_key(&chunk[0].0, chunk[0].1), new_pid));
        pids.push(new_pid);
    }
    for (i, chunk) in chunks.into_iter().enumerate() {
        let next = pids.get(i + 1).copied().unwrap_or(tail_next);
        write_node(
            pool,
            pids[i],
            &Node::Leaf(Leaf {
                next,
                entries: chunk,
            }),
        )?;
    }
    Ok(seps)
}

/// Write internal `node` back to `pid`, splitting it into however many
/// internal nodes a batch insert requires; between chunks, one entry's
/// key moves up as the separator and its child becomes the next chunk's
/// leftmost (the multi-way generalization of the single-insert split).
fn write_internal_split(
    pool: &BufferPool,
    pid: PageId,
    node: Internal,
) -> DbResult<Vec<(Vec<u8>, PageId)>> {
    let enc = Node::Internal(node);
    if enc.encoded_len() <= PAGE_SIZE {
        write_node(pool, pid, &enc)?;
        return Ok(Vec::new());
    }
    let node = match enc {
        Node::Internal(n) => n,
        _ => unreachable!(),
    };
    let mut seps = Vec::new();
    let mut cur = Internal {
        leftmost: node.leftmost,
        entries: Vec::new(),
    };
    let mut cur_pid = pid;
    let mut size = 7usize;
    for (key, child) in node.entries {
        let esz = 2 + key.len() + 4;
        if size + esz > SPLIT_FILL && !cur.entries.is_empty() {
            // `key` moves up; `child` seeds the next chunk.
            write_node(pool, cur_pid, &Node::Internal(cur))?;
            let new_pid = pool.allocate()?;
            seps.push((key, new_pid));
            cur = Internal {
                leftmost: child,
                entries: Vec::new(),
            };
            cur_pid = new_pid;
            size = 7;
            continue;
        }
        size += esz;
        cur.entries.push((key, child));
    }
    write_node(pool, cur_pid, &Node::Internal(cur))?;
    Ok(seps)
}

/// Index of the child of `node` that should contain `key`:
/// 0 → `leftmost`, i → `entries[i-1].1`.
fn child_index(node: &Internal, key: &[u8]) -> usize {
    // First entry with key_i > key; descend just before it.
    match node
        .entries
        .binary_search_by(|(k, _)| match k.as_slice().cmp(key) {
            std::cmp::Ordering::Equal => std::cmp::Ordering::Less, // equal → right side
            o => o,
        }) {
        Ok(_) => unreachable!("comparator never returns Equal"),
        Err(p) => p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::EvictionPolicy;
    use crate::disk::DiskManager;
    use crate::value::{encode_composite_key, Value};

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(DiskManager::in_memory(), frames, EvictionPolicy::Lru)
    }

    fn rid(i: u32) -> Rid {
        Rid {
            page: i,
            slot: (i % 7) as u16,
        }
    }

    fn key_i(i: i64) -> Vec<u8> {
        encode_composite_key(&[Value::Int(i)])
    }

    #[test]
    fn insert_lookup_small() {
        let bp = pool(16);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..100i64 {
            bt.insert(&bp, &key_i(i), rid(i as u32)).unwrap();
        }
        assert_eq!(bt.len(), 100);
        for i in 0..100i64 {
            assert_eq!(bt.lookup(&bp, &key_i(i)).unwrap(), vec![rid(i as u32)]);
        }
        assert!(bt.lookup(&bp, &key_i(1000)).unwrap().is_empty());
        bt.validate(&bp).unwrap();
    }

    #[test]
    fn many_inserts_force_splits_random_order() {
        let bp = pool(64);
        let mut bt = BTree::create(&bp).unwrap();
        // Pseudo-random insertion order without rand dependency here.
        let n = 5000i64;
        let mut x = 1i64;
        let mut keys = Vec::new();
        for _ in 0..n {
            x = (x * 1103515245 + 12345) % 100_000;
            keys.push(x);
        }
        keys.sort_unstable();
        keys.dedup();
        let mut shuffled = keys.clone();
        // Deterministic shuffle.
        let len = shuffled.len();
        for i in 0..len {
            let j = (i * 7919 + 13) % len;
            shuffled.swap(i, j);
        }
        for (i, &k) in shuffled.iter().enumerate() {
            bt.insert(&bp, &key_i(k), rid(i as u32)).unwrap();
        }
        assert_eq!(bt.len() as usize, keys.len());
        bt.validate(&bp).unwrap();
        // Ordered scan returns sorted unique keys.
        let mut scanned = Vec::new();
        bt.scan_range(&bp, Bound::Unbounded, Bound::Unbounded, |k, _| {
            scanned.push(k.to_vec());
            true
        })
        .unwrap();
        let expect: Vec<Vec<u8>> = keys.iter().map(|&k| key_i(k)).collect();
        assert_eq!(scanned, expect);
    }

    #[test]
    fn duplicates_under_one_key() {
        let bp = pool(16);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..50u32 {
            bt.insert(&bp, &key_i(7), rid(i)).unwrap();
        }
        // Exact duplicate (key, rid) ignored.
        bt.insert(&bp, &key_i(7), rid(3)).unwrap();
        assert_eq!(bt.len(), 50);
        let rids = bt.lookup(&bp, &key_i(7)).unwrap();
        assert_eq!(rids.len(), 50);
    }

    #[test]
    fn duplicate_keys_across_splits_stay_deletable() {
        // Regression: with separators carrying only the user key, equal
        // keys split across leaves became unreachable for delete/lookup
        // (this corrupted the crawler's frontier index).
        let bp = pool(32);
        let mut bt = BTree::create(&bp).unwrap();
        // Thousands of identical keys forces multi-level splits.
        for i in 0..3000u32 {
            bt.insert(&bp, &key_i(7), rid(i)).unwrap();
        }
        // Sprinkle other keys around them.
        for i in 0..200i64 {
            bt.insert(&bp, &key_i(i * 1000), rid(900_000 + i as u32))
                .unwrap();
        }
        assert_eq!(bt.lookup(&bp, &key_i(7)).unwrap().len(), 3000);
        bt.validate(&bp).unwrap();
        // Every duplicate must be individually deletable.
        for i in 0..3000u32 {
            assert!(
                bt.delete(&bp, &key_i(7), rid(i)).unwrap(),
                "duplicate {i} unreachable"
            );
        }
        assert!(bt.lookup(&bp, &key_i(7)).unwrap().is_empty());
        bt.validate(&bp).unwrap();
    }

    #[test]
    fn delete_and_dangling() {
        let bp = pool(16);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..200i64 {
            bt.insert(&bp, &key_i(i), rid(i as u32)).unwrap();
        }
        for i in (0..200i64).step_by(2) {
            assert!(bt.delete(&bp, &key_i(i), rid(i as u32)).unwrap());
        }
        assert!(!bt.delete(&bp, &key_i(0), rid(0)).unwrap());
        assert_eq!(bt.len(), 100);
        for i in 0..200i64 {
            let hit = !bt.lookup(&bp, &key_i(i)).unwrap().is_empty();
            assert_eq!(hit, i % 2 == 1, "key {i}");
        }
        bt.validate(&bp).unwrap();
    }

    #[test]
    fn range_scan_bounds() {
        let bp = pool(16);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..100i64 {
            bt.insert(&bp, &key_i(i), rid(i as u32)).unwrap();
        }
        let collect = |bp: &BufferPool, lo: Bound<i64>, hi: Bound<i64>| -> Vec<u32> {
            let lo_k = match lo {
                Bound::Included(v) => Bound::Included(key_i(v)),
                Bound::Excluded(v) => Bound::Excluded(key_i(v)),
                Bound::Unbounded => Bound::Unbounded,
            };
            let hi_k = match hi {
                Bound::Included(v) => Bound::Included(key_i(v)),
                Bound::Excluded(v) => Bound::Excluded(key_i(v)),
                Bound::Unbounded => Bound::Unbounded,
            };
            let mut out = Vec::new();
            bt.scan_range(
                bp,
                match &lo_k {
                    Bound::Included(k) => Bound::Included(k.as_slice()),
                    Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
                    Bound::Unbounded => Bound::Unbounded,
                },
                match &hi_k {
                    Bound::Included(k) => Bound::Included(k.as_slice()),
                    Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
                    Bound::Unbounded => Bound::Unbounded,
                },
                |_, r| {
                    out.push(r.page);
                    true
                },
            )
            .unwrap();
            out
        };
        assert_eq!(
            collect(&bp, Bound::Included(10), Bound::Excluded(13)),
            vec![10, 11, 12]
        );
        assert_eq!(
            collect(&bp, Bound::Excluded(97), Bound::Unbounded),
            vec![98, 99]
        );
        assert_eq!(
            collect(&bp, Bound::Unbounded, Bound::Included(1)),
            vec![0, 1]
        );
    }

    #[test]
    fn prefix_scan_on_composite_keys() {
        let bp = pool(16);
        let mut bt = BTree::create(&bp).unwrap();
        for c0 in 0..5i64 {
            for t in 0..20i64 {
                let k = encode_composite_key(&[Value::Int(c0), Value::Int(t)]);
                bt.insert(&bp, &k, rid((c0 * 100 + t) as u32)).unwrap();
            }
        }
        let prefix = encode_composite_key(&[Value::Int(3)]);
        let hits = bt.lookup_prefix(&bp, &prefix).unwrap();
        assert_eq!(hits.len(), 20);
        for (_, r) in hits {
            assert!((300..320).contains(&r.page));
        }
    }

    #[test]
    fn lookup_many_agrees_with_singular_lookups() {
        let bp = pool(32);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..4000i64 {
            bt.insert(&bp, &key_i((i * 7919) % 1000), rid(i as u32))
                .unwrap();
        }
        // Sorted probe set with misses, duplicates, and heavy-duplicate
        // keys spanning leaves.
        let probes: Vec<Vec<u8>> = (0..1200i64).step_by(3).map(key_i).collect();
        let batch = bt.lookup_many(&bp, &probes).unwrap();
        for (k, rids) in probes.iter().zip(&batch) {
            let mut single = bt.lookup(&bp, k).unwrap();
            let mut got = rids.clone();
            single.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, single, "mismatch for key {k:?}");
        }
        // Equal neighboring keys are served too.
        let dup = vec![key_i(7), key_i(7), key_i(700)];
        let batch = bt.lookup_many(&bp, &dup).unwrap();
        assert_eq!(batch[0], batch[1]);
        // One ordered pass touches far fewer pages than per-key descents.
        bp.reset_stats();
        bt.lookup_many(&bp, &probes).unwrap();
        let batched = bp.stats().logical_reads;
        bp.reset_stats();
        for k in &probes {
            bt.lookup(&bp, k).unwrap();
        }
        let singular = bp.stats().logical_reads;
        assert!(
            batched * 2 <= singular,
            "batched pass {batched} reads vs {singular} singular"
        );
    }

    #[test]
    fn insert_many_matches_repeated_insert() {
        let bp_a = pool(64);
        let mut a = BTree::create(&bp_a).unwrap();
        let bp_b = pool(64);
        let mut b = BTree::create(&bp_b).unwrap();
        // Pre-populate both identically, then add a large sorted batch
        // (with duplicates of existing pairs) to each via the two paths.
        for i in 0..500i64 {
            a.insert(&bp_a, &key_i(i * 3), rid(i as u32)).unwrap();
            b.insert(&bp_b, &key_i(i * 3), rid(i as u32)).unwrap();
        }
        let mut batch: Vec<(Vec<u8>, Rid)> = (0..3000i64)
            .map(|i| (key_i((i * 31) % 2000), rid(50_000 + i as u32)))
            .collect();
        // Exact duplicates of existing entries must be ignored.
        batch.push((key_i(0), rid(0)));
        batch.push((key_i(3), rid(1)));
        batch.sort_unstable();
        a.insert_many(&bp_a, &batch).unwrap();
        for (k, r) in &batch {
            b.insert(&bp_b, k, *r).unwrap();
        }
        assert_eq!(a.len(), b.len());
        a.validate(&bp_a).unwrap();
        b.validate(&bp_b).unwrap();
        let mut scan_a = Vec::new();
        a.scan_range(&bp_a, Bound::Unbounded, Bound::Unbounded, |k, r| {
            scan_a.push((k.to_vec(), r));
            true
        })
        .unwrap();
        let mut scan_b = Vec::new();
        b.scan_range(&bp_b, Bound::Unbounded, Bound::Unbounded, |k, r| {
            scan_b.push((k.to_vec(), r));
            true
        })
        .unwrap();
        assert_eq!(scan_a, scan_b);
    }

    #[test]
    fn insert_many_into_empty_tree_grows_levels() {
        let bp = pool(128);
        let mut bt = BTree::create(&bp).unwrap();
        // One huge batch from empty: forces multi-way leaf splits and at
        // least one root-growth round in a single call.
        let batch: Vec<(Vec<u8>, Rid)> =
            (0..20_000i64).map(|i| (key_i(i), rid(i as u32))).collect();
        bt.insert_many(&bp, &batch).unwrap();
        assert_eq!(bt.len(), 20_000);
        bt.validate(&bp).unwrap();
        for i in (0..20_000i64).step_by(977) {
            assert_eq!(bt.lookup(&bp, &key_i(i)).unwrap(), vec![rid(i as u32)]);
        }
    }

    #[test]
    fn delete_many_removes_exactly_the_batch() {
        let bp = pool(64);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..2000i64 {
            bt.insert(&bp, &key_i(i), rid(i as u32)).unwrap();
        }
        let mut batch: Vec<(Vec<u8>, Rid)> = (0..2000i64)
            .step_by(2)
            .map(|i| (key_i(i), rid(i as u32)))
            .collect();
        // Misses are counted out, not errors.
        batch.push((key_i(99_999), rid(1)));
        batch.sort_unstable();
        let removed = bt.delete_many(&bp, &batch).unwrap();
        assert_eq!(removed, 1000);
        assert_eq!(bt.len(), 1000);
        bt.validate(&bp).unwrap();
        for i in 0..2000i64 {
            let hit = !bt.lookup(&bp, &key_i(i)).unwrap().is_empty();
            assert_eq!(hit, i % 2 == 1, "key {i}");
        }
    }

    #[test]
    fn survives_tiny_buffer_pool() {
        // Every node access must round-trip through a 2-frame pool.
        let bp = pool(2);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..2000i64 {
            bt.insert(&bp, &key_i(i), rid(i as u32)).unwrap();
        }
        for i in (0..2000i64).step_by(97) {
            assert_eq!(bt.lookup(&bp, &key_i(i)).unwrap(), vec![rid(i as u32)]);
        }
        bt.validate(&bp).unwrap();
        assert!(bp.stats().evictions > 0);
    }

    #[test]
    fn long_string_keys_split_correctly() {
        let bp = pool(32);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..300 {
            let k = encode_composite_key(&[Value::Str(format!(
                "http://server-{:03}.example.org/a/very/long/path/segment/page-{i}.html",
                i % 40
            ))]);
            bt.insert(&bp, &k, rid(i)).unwrap();
        }
        assert_eq!(bt.len(), 300);
        bt.validate(&bp).unwrap();
    }
}
