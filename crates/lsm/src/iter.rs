//! The ordered range iterator behind [`crate::Db::range`] (and, through
//! a thin emptiness wrapper, [`crate::Db::seek`]).
//!
//! A [`RangeIter`] is a k-way merge over every layer that can hold a
//! version of a key, in recency order:
//!
//! 1. the active MemTable,
//! 2. the immutable (rotated) MemTables, newest first,
//! 3. L0 SSTs, newest first,
//! 4. the deeper, disjoint levels, shallowest first.
//!
//! MemTable entries in range are snapshotted (cloned) at construction
//! under a short read lock; SST levels come from the `Arc`-swapped
//! `Version` snapshot, so iteration itself holds no lock at all. Each
//! overlapping SST is admitted through its range filter first — a filter
//! negative skips the file without I/O (the same probe accounting as
//! `seek`), which is what makes short scans over a cold store cheap.
//!
//! Admitted SSTs are read *lazily*: each starts as a pending heap entry
//! keyed by the smallest key it could contribute (`max(lo, min_key)`)
//! and only pays its first block read when the merge actually reaches
//! that position. A `seek` that is satisfied early therefore never
//! touches the files behind its first hit — and those files accumulate
//! no false-positive evidence for a probe whose I/O was never paid.
//!
//! SST positions flow through the merge *zero-copy*: a heap item holds
//! an `(Arc<Block>, index)` cursor and compares by the key slice
//! borrowed from the decoded block. Bytes are materialized only for the
//! entry actually yielded — shadowed duplicates and suppressed
//! tombstones cost no allocation at all. When a single source survives
//! admission the merge drops to a direct fast path: no heap reordering
//! and no shadow-key bookkeeping (one source never yields duplicates).
//!
//! Shadowing: for equal keys the source with the lower rank (newer layer)
//! wins; older duplicates are skipped. A winning tombstone suppresses the
//! key entirely — the iterator yields *live* entries only, sorted and
//! deduplicated.
//!
//! Errors: an I/O or corruption failure is reported once and ends the
//! iteration. A failure while *refilling* a source never discards an
//! entry the merge had already determined — the entry is yielded first
//! and the error surfaces on the following `next()` call.

use crate::block::Block;
use crate::db::DbInner;
use crate::error::{Error, Result};
use crate::sst::{Entry, SstReader};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One merge position: the source's rank (recency; lower = newer) plus
/// where its current entry lives.
struct HeapItem {
    rank: usize,
    pos: Pos,
}

/// Where a heap item's entry lives. Only `Mem` owns its bytes (the
/// MemTable snapshot already materialized them); an SST entry stays a
/// borrowed position inside its decoded block until it is yielded.
enum Pos {
    /// A snapshotted MemTable entry.
    Mem(Vec<u8>, Option<Vec<u8>>),
    /// An SST source whose first block has not been read yet; the key is
    /// a lower bound on whatever the file will contribute.
    Pending(Vec<u8>),
    /// A cursor into a decoded block held alive by its `Arc`.
    Block(Arc<Block>, u32),
}

impl HeapItem {
    fn key(&self) -> &[u8] {
        match &self.pos {
            Pos::Mem(k, _) => k,
            Pos::Pending(k) => k,
            Pos::Block(b, i) => b.key(*i as usize),
        }
    }
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    /// Inverted so `BinaryHeap` (a max-heap) pops the smallest
    /// `(key, rank)` first: ascending keys, newest layer on ties.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(self.key()).then_with(|| other.rank.cmp(&self.rank))
    }
}

/// An ordered iterator over the live entries in a closed key range; see
/// the [module docs](self) and [`crate::Db::range`].
///
/// Yields `Result<(key, value)>`: an I/O or corruption error ends the
/// iteration after being reported once.
pub struct RangeIter<'a> {
    heap: BinaryHeap<HeapItem>,
    sources: Vec<Source<'a>>,
    /// Ranks below this are MemTable sources.
    n_mem: usize,
    last_key: Option<Vec<u8>>,
    /// Did any SST get past its filter (i.e. could block I/O be paid)?
    pub(crate) io_paid: bool,
    /// Was the first *live* entry supplied by a MemTable?
    pub(crate) first_from_memtable: bool,
    yielded_any: bool,
    /// A refill failure held back so the already-determined entry could
    /// be yielded first; surfaced by the next `next()` call.
    deferred_error: Option<Error>,
    failed: bool,
}

enum Source<'a> {
    Mem(std::vec::IntoIter<Entry>),
    Sst(BoundedScan<'a>),
}

impl Source<'_> {
    /// The source's next entry as an un-materialized heap position.
    fn next_pos(&mut self) -> Result<Option<Pos>> {
        match self {
            Source::Mem(it) => Ok(it.next().map(|(k, v)| Pos::Mem(k, v))),
            Source::Sst(scan) => Ok(scan.next_pos()?.map(|(b, i)| Pos::Block(b, i))),
        }
    }
}

/// A forward scan over one SST clamped to `[lo, hi]`, reading blocks
/// through the shared cache.
struct BoundedScan<'a> {
    db: &'a DbInner,
    sst: Arc<SstReader>,
    /// Did a real filter admit this file? Decides false-positive
    /// accounting when the materialized scan turns out empty.
    real_filter: bool,
    hi: Vec<u8>,
    /// Lower bound still to be applied to the first block read.
    pending_lo: Option<Vec<u8>>,
    block_idx: usize,
    entry_idx: usize,
    block: Option<Arc<Block>>,
}

impl BoundedScan<'_> {
    /// Advance to the next in-range entry and return its position
    /// without copying any bytes. The returned `Arc` keeps the block
    /// alive independently of the scan moving on to later blocks.
    fn next_pos(&mut self) -> Result<Option<(Arc<Block>, u32)>> {
        loop {
            if self.block.is_none() {
                if self.block_idx >= self.sst.n_blocks()
                    || self.sst.block_meta(self.block_idx).first_key > self.hi
                {
                    return Ok(None);
                }
                let block = self.db.cached_block(&self.sst, self.block_idx)?;
                self.entry_idx = match self.pending_lo.take() {
                    Some(lo) => block.lower_bound(&lo),
                    None => 0,
                };
                self.block = Some(block);
            }
            let Some(block) = self.block.as_ref() else {
                // Unreachable: the branch above just installed the block.
                return Ok(None);
            };
            if self.entry_idx < block.len() {
                let i = self.entry_idx;
                if block.key(i) > self.hi.as_slice() {
                    return Ok(None);
                }
                self.entry_idx += 1;
                return Ok(Some((Arc::clone(block), i as u32)));
            }
            self.block = None;
            self.block_idx += 1;
        }
    }
}

impl<'a> RangeIter<'a> {
    /// An iterator that yields nothing (inverted or empty-by-bounds
    /// ranges).
    pub(crate) fn empty() -> RangeIter<'a> {
        RangeIter {
            heap: BinaryHeap::new(),
            sources: Vec::new(),
            n_mem: 0,
            last_key: None,
            io_paid: false,
            first_from_memtable: false,
            yielded_any: false,
            deferred_error: None,
            failed: false,
        }
    }

    /// Build the merge over `[lo, hi]` (both inclusive, canonical-width
    /// keys, `lo <= hi`). Probes every overlapping SST's filter here
    /// (in-memory, recording true negatives) but defers all block I/O:
    /// admitted files enter the heap as pending entries and are read only
    /// when the merge reaches them.
    pub(crate) fn new(db: &'a DbInner, lo: Vec<u8>, hi: Vec<u8>) -> Result<RangeIter<'a>> {
        debug_assert!(lo <= hi);
        let mut it = RangeIter::empty();

        // 1. MemTables, newest first, snapshotted under a short read lock.
        {
            let mem = db.mem_read()?;
            let mut mem_sources = vec![mem.active.range_entries(&lo, &hi)];
            for imm in mem.imms.iter().rev() {
                mem_sources.push(imm.mem.range_entries(&lo, &hi));
            }
            for entries in mem_sources {
                let rank = it.sources.len();
                let mut src = entries.into_iter();
                if let Some((k, v)) = src.next() {
                    it.heap.push(HeapItem { rank, pos: Pos::Mem(k, v) });
                    it.sources.push(Source::Mem(src));
                }
            }
        }
        it.n_mem = it.sources.len();

        // 2. SSTs from the manifest snapshot: L0 newest first, then the
        //    disjoint deeper levels.
        let version = db.version();
        let mut candidates: Vec<Arc<SstReader>> = Vec::new();
        for sst in version.levels[0].iter().rev() {
            if sst.overlaps(&lo, &hi) {
                candidates.push(Arc::clone(sst));
            }
        }
        for level in &version.levels[1..] {
            let start = level.partition_point(|s| s.max_key < lo);
            for sst in &level[start..] {
                if sst.min_key > hi {
                    break;
                }
                candidates.push(Arc::clone(sst));
            }
        }
        for sst in candidates {
            let Some(real_filter) = db.filter_admits(&sst, &lo, &hi) else {
                continue; // proven empty; true negative recorded
            };
            it.io_paid = true;
            // The smallest key this file could contribute: its entries in
            // range all sit at or above max(lo, min_key), so a pending
            // heap entry at that key materializes exactly when the merge
            // could need the file — and never sooner.
            let est = if sst.min_key.as_slice() > lo.as_slice() {
                sst.min_key.clone()
            } else {
                lo.clone()
            };
            let rank = it.sources.len();
            it.heap.push(HeapItem { rank, pos: Pos::Pending(est) });
            it.sources.push(Source::Sst(BoundedScan {
                db,
                sst: Arc::clone(&sst),
                real_filter,
                hi: hi.clone(),
                pending_lo: Some(lo.clone()),
                block_idx: sst.first_candidate_block(&lo),
                entry_idx: 0,
                block: None,
            }));
        }
        Ok(it)
    }

    /// Materialize a pending SST source's head and record the filter
    /// probe's outcome: contributing anything in range is a true
    /// positive; an admitted file with nothing in range cost real I/O —
    /// a false positive (per-file evidence only for real filters).
    fn materialize(&mut self, rank: usize) -> Result<()> {
        let head = self.sources[rank].next_pos()?;
        let Source::Sst(scan) = &self.sources[rank] else { unreachable!("pending mem source") };
        let (db, real_filter) = (scan.db, scan.real_filter);
        match head {
            Some(pos) => {
                db.stats.filter_true_positives.inc();
                self.heap.push(HeapItem { rank, pos });
            }
            None => db.record_false_positive(&scan.sst, real_filter),
        }
        Ok(())
    }
}

impl Iterator for RangeIter<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        // With a single surviving source no key can ever repeat, so the
        // shadow-key bookkeeping (and its per-key clone) is skipped
        // entirely — the borrowing fast path for one-layer stores.
        let single_source = self.sources.len() == 1;
        loop {
            if let Some(e) = self.deferred_error.take() {
                self.failed = true;
                return Some(Err(e));
            }
            let HeapItem { rank, pos } = self.heap.pop()?;
            if let Pos::Pending(_) = pos {
                // First touch of this SST: read its head. No entry has
                // been determined yet, so an error surfaces directly.
                if let Err(e) = self.materialize(rank) {
                    self.failed = true;
                    return Some(Err(e));
                }
                continue;
            }
            // Refill the heap from the source that just advanced. A
            // failure here must not discard the entry we already hold:
            // defer it and let this iteration finish first.
            match self.sources[rank].next_pos() {
                Ok(Some(pos)) => self.heap.push(HeapItem { rank, pos }),
                Ok(None) => {}
                Err(e) => self.deferred_error = Some(e),
            }
            // Shadowing: a key equal to the last one handled is an older
            // version (the newest popped first by rank). Nothing is
            // copied for a shadowed or tombstone position.
            if !single_source {
                let key = match &pos {
                    Pos::Mem(k, _) => k.as_slice(),
                    Pos::Block(b, i) => b.key(*i as usize),
                    Pos::Pending(_) => unreachable!("handled above"),
                };
                if self.last_key.as_deref() == Some(key) {
                    continue;
                }
                match &mut self.last_key {
                    // Reuse the allocation when the buffer fits.
                    Some(buf) => {
                        buf.clear();
                        buf.extend_from_slice(key);
                    }
                    none => *none = Some(key.to_vec()),
                }
            }
            // Materialize only what is actually yielded: a suppressed
            // tombstone costs nothing.
            let (key, value) = match pos {
                Pos::Mem(k, Some(v)) => (k, v),
                Pos::Mem(_, None) => continue,
                Pos::Block(b, i) => {
                    let i = i as usize;
                    if b.is_tombstone(i) {
                        continue;
                    }
                    (b.key(i).to_vec(), b.value(i).to_vec())
                }
                Pos::Pending(_) => unreachable!("handled above"),
            };
            if !self.yielded_any {
                self.yielded_any = true;
                self.first_from_memtable = rank < self.n_mem;
            }
            return Some(Ok((key, value)));
        }
    }
}
