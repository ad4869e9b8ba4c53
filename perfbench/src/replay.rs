//! The traced run's per-layer replays: the workload's own inputs, replayed
//! against each layer's public functions with every call timed.

use crate::engine::Op;
use crate::report::{metric, Metric};
use proteus_core::key::pad_key;
use proteus_core::{KeySet, SampleQueries};
use proteus_lsm::cache::BlockId;
use proteus_lsm::memtable::MemTable;
use proteus_lsm::sst::{SstReader, SstScanner};
use proteus_lsm::wal::{Wal, WalOp};
use proteus_lsm::{
    DbConfig, FilterFactory, ProteusFactory, ShardedBlockCache, Stats, StatsSnapshot, SyncMode,
};
use proteus_server::{Request, Router};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Ranges and block reads replayed per layer are capped so the replay
/// stays a few seconds long whatever the workload's size.
const MAX_RANGES: usize = 20_000;
const MAX_BLOCK_READS: usize = 3_000;
const MAX_FILTER_BUILDS: usize = 2;
const MAX_MEMTABLE_RANGES: usize = 2_000;
const MAX_WAL_APPENDS: usize = 50_000;

fn per_call_ns(t: Instant, calls: usize) -> f64 {
    if calls == 0 {
        0.0
    } else {
        t.elapsed().as_nanos() as f64 / calls as f64
    }
}

/// The closed range an operation reads, as the store resolves it.
fn read_range(op: &Op, cfg: &DbConfig) -> Option<(Vec<u8>, Vec<u8>)> {
    match op {
        Op::Get(k) => Some((k.clone(), k.clone())),
        Op::Seek(lo, hi) => Some((lo.clone(), hi.clone())),
        Op::Scan { lo, hi, .. } => {
            Some((lo.clone(), hi.clone().unwrap_or_else(|| vec![0xFF; cfg.max_key_bytes()])))
        }
        Op::Put(_) | Op::Delete(_) => None,
    }
}

/// Open every settled SST under `dirs` read-only.
pub fn open_ssts(dirs: &[&Path], cfg: &DbConfig) -> Vec<Arc<SstReader>> {
    let mut out = Vec::new();
    for dir in dirs {
        let Ok(entries) = std::fs::read_dir(dir) else { continue };
        let mut paths: Vec<_> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "sst"))
            .collect();
        paths.sort();
        for p in paths {
            let id = p.file_stem().and_then(|s| s.to_str()).and_then(|s| s.parse().ok());
            let Some(id) = id else { continue };
            let sst = SstReader::open(&p, id, cfg.key_width()).expect("open a settled SST");
            out.push(Arc::new(sst));
        }
    }
    out
}

/// Filter probes, index searches, block reads, block-cache gets and
/// filter builds over the settled SST files.
pub fn sst_layers(
    ssts: &[Arc<SstReader>],
    ops: &[Op],
    samples: &[(Vec<u8>, Vec<u8>)],
    cfg: &DbConfig,
) -> Vec<Metric> {
    let stats = Stats::default();
    let ranges: Vec<(Vec<u8>, Vec<u8>)> =
        ops.iter().filter_map(|op| read_range(op, cfg)).take(MAX_RANGES).collect();
    // Every (file, range) pair the store would probe, clamped to the file
    // and canonicalized to its filter width, as the read path does.
    let mut probes = Vec::new();
    for (lo, hi) in &ranges {
        for (i, sst) in ssts.iter().enumerate() {
            if !sst.overlaps(lo, hi) {
                continue;
            }
            let flo = if *lo < sst.min_key { &sst.min_key } else { lo };
            let fhi = if *hi > sst.max_key { &sst.max_key } else { hi };
            probes.push((
                i,
                lo.as_slice(),
                pad_key(flo, sst.filter_width()),
                pad_key(fhi, sst.filter_width()),
            ));
        }
    }
    let filters: Vec<_> = ssts.iter().map(|s| s.filter(&stats)).collect();
    let t = Instant::now();
    let mut admitted = Vec::with_capacity(probes.len());
    for (i, lo, flo, fhi) in &probes {
        let pass = filters[*i].is_none_or(|f| f.may_contain_range(flo, fhi));
        if black_box(pass) {
            admitted.push((*i, *lo));
        }
    }
    let probe_ns = per_call_ns(t, probes.len());

    let t = Instant::now();
    let mut blocks = Vec::with_capacity(admitted.len());
    for (i, lo) in &admitted {
        blocks.push((*i, black_box(ssts[*i].first_candidate_block(lo))));
    }
    let index_ns = per_call_ns(t, admitted.len());

    let mut read_ns = Vec::new();
    let mut read: Vec<(BlockId, Arc<proteus_lsm::block::Block>)> = Vec::new();
    for &(i, b) in blocks.iter().filter(|(i, b)| *b < ssts[*i].n_blocks()).take(MAX_BLOCK_READS) {
        let t = Instant::now();
        let block = ssts[i].read_block(b, &stats).expect("read a settled block");
        read_ns.push(t.elapsed().as_nanos() as f64);
        read.push(((ssts[i].id, b as u32), Arc::new(block)));
    }

    let cache = ShardedBlockCache::new(cfg.block_cache_bytes());
    for (id, block) in &read {
        if cache.get(*id).is_none() {
            cache.insert(*id, Arc::clone(block));
        }
    }
    let t = Instant::now();
    for (id, _) in &read {
        black_box(cache.get(*id));
    }
    let cache_ns = per_call_ns(t, read.len());

    let build_ms = filter_build_ms(ssts, samples, cfg);
    vec![
        metric("filter.probe_ns", probe_ns, "ns"),
        metric("sst.index_ns", index_ns, "ns"),
        metric("sst.read_block_ns", median_or_zero(&read_ns), "ns"),
        metric("cache.get_ns", cache_ns, "ns"),
        metric("model.build_ms", build_ms, "ms"),
    ]
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        crate::measure::median(v)
    }
}

/// `FilterFactory::build` on a file's keys and the seeded samples: the
/// self-design model's search plus the filter's construction.
fn filter_build_ms(ssts: &[Arc<SstReader>], samples: &[(Vec<u8>, Vec<u8>)], cfg: &DbConfig) -> f64 {
    let stats = Arc::new(Stats::default());
    let factory = ProteusFactory::default();
    let mut ms = Vec::new();
    for sst in ssts.iter().take(MAX_FILTER_BUILDS) {
        let width = sst.filter_width();
        let mut scanner = SstScanner::new(Arc::clone(sst), Arc::clone(&stats));
        let mut keys = Vec::new();
        while let Some((k, _)) = scanner.try_next().expect("scan a settled SST") {
            keys.push(pad_key(&k, width));
        }
        let keys = KeySet::new(keys, width);
        let bounds: Vec<(Vec<u8>, Vec<u8>)> =
            samples.iter().map(|(lo, hi)| (pad_key(lo, width), pad_key(hi, width))).collect();
        let mut sample = SampleQueries::from_bounds(&bounds, width);
        sample.retain_empty(&keys);
        let m_bits = (cfg.bits_per_key() * keys.len() as f64) as u64;
        let t = Instant::now();
        black_box(factory.build(&keys, &sample, m_bits));
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median_or_zero(&ms)
}

/// MemTable apply over the workload's writes (a new table every
/// `memtable_bytes`), then lookups and range copies on a replica of the
/// resident MemTable: `resident` when given, else the last table filled.
pub fn memtable_layers(
    writes: &[WalOp],
    resident: Option<&[WalOp]>,
    ops: &[Op],
    cfg: &DbConfig,
) -> Vec<Metric> {
    let mut mt = MemTable::new();
    let mut apply_ns = 0u128;
    for chunk in writes.chunks(1024) {
        let t = Instant::now();
        for (k, v) in chunk {
            mt.apply_ref(k, v.as_deref());
        }
        apply_ns += t.elapsed().as_nanos();
        if mt.bytes() >= cfg.memtable_bytes() {
            mt = MemTable::new();
        }
    }
    let apply_ns = if writes.is_empty() { 0.0 } else { apply_ns as f64 / writes.len() as f64 };
    if let Some(resident) = resident {
        mt = MemTable::new();
        for (k, v) in resident {
            mt.apply_ref(k, v.as_deref());
        }
    }

    let keys: Vec<&[u8]> = ops.iter().map(Op::key).take(MAX_RANGES).collect();
    let t = Instant::now();
    for k in &keys {
        black_box(mt.get(k));
    }
    let get_ns = per_call_ns(t, keys.len());

    let mut copy_us = Vec::new();
    let mut entries = 0usize;
    let ranges: Vec<_> = ops
        .iter()
        .filter(|op| matches!(op, Op::Scan { .. } | Op::Seek(..)))
        .filter_map(|op| read_range(op, cfg))
        .take(MAX_MEMTABLE_RANGES)
        .collect();
    for (lo, hi) in &ranges {
        let t = Instant::now();
        let copied = black_box(mt.range_entries(lo, hi));
        copy_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        entries += copied.len();
    }
    vec![
        metric("memtable.apply_ns", apply_ns, "ns"),
        metric("memtable.get_ns", get_ns, "ns"),
        metric(
            "memtable.range_entries_per_scan",
            crate::measure::ratio(entries as f64, ranges.len() as f64),
            "count",
        ),
        metric("memtable.range_copy_us", median_or_zero(&copy_us), "us"),
    ]
}

/// `Wal::append_commit` of the workload's writes, one commit each, into a
/// scratch segment.
pub fn wal_layer(dir: &Path, writes: &[WalOp], cfg: &DbConfig) -> Vec<Metric> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the WAL replay directory");
    let stats = Stats::default();
    let wal = Wal::create(dir, 1, cfg.max_key_bytes(), SyncMode::Off).expect("create a WAL");
    let writes = &writes[writes.len().saturating_sub(MAX_WAL_APPENDS)..];
    let t = Instant::now();
    for w in writes {
        black_box(wal.append_commit(std::slice::from_ref(w), &stats).expect("WAL append"));
    }
    let ns = per_call_ns(t, writes.len());
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);
    vec![metric("wal.append_ns", ns, "ns")]
}

/// The wire codec and the shard router on the workload's requests.
pub fn protocol_layers(ops: &[Op], value_len: usize) -> Vec<Metric> {
    let value = vec![0x5Au8; value_len];
    let reqs: Vec<Request> = ops
        .iter()
        .take(MAX_RANGES)
        .map(|op| match op {
            Op::Get(k) => Request::Get { key: k.clone() },
            Op::Put(k) => Request::Put { key: k.clone(), value: value.clone() },
            Op::Delete(k) => Request::Delete { key: k.clone() },
            Op::Seek(lo, hi) => Request::Seek { lo: lo.clone(), hi: hi.clone() },
            Op::Scan { lo, hi, limit } => Request::Scan {
                lo: lo.clone(),
                hi: hi.clone().unwrap_or_else(|| vec![0xFF; 8]),
                limit: u32::try_from(*limit).unwrap_or(u32::MAX),
            },
        })
        .collect();
    let t = Instant::now();
    let frames: Vec<Vec<u8>> = reqs.iter().map(|r| black_box(r.encode())).collect();
    let encode_ns = per_call_ns(t, reqs.len());
    let t = Instant::now();
    for f in &frames {
        black_box(Request::decode(f).expect("decode an encoded request"));
    }
    let decode_ns = per_call_ns(t, frames.len());
    let router = Router::new(2);
    let t = Instant::now();
    for op in ops.iter().take(MAX_RANGES) {
        black_box(router.shard_of(op.key()));
    }
    let route_ns = per_call_ns(t, ops.len().min(MAX_RANGES));
    vec![
        metric("server.encode_ns", encode_ns, "ns"),
        metric("server.decode_ns", decode_ns, "ns"),
        metric("server.route_ns", route_ns, "ns"),
    ]
}

/// Per-layer counts from the store's statistics: `during` holds the
/// deltas of the traced slices (`ops` operations in all), `life` the
/// store's whole life.
pub fn stats_layers(
    during: &[StatsSnapshot],
    ops: u64,
    life: &StatsSnapshot,
    writes: u64,
) -> Vec<Metric> {
    let sum = |f: fn(&StatsSnapshot) -> u64| during.iter().map(f).sum::<u64>() as f64;
    let per_op = |v: f64| crate::measure::ratio(v, ops as f64);
    let (neg, fp) = (sum(|s| s.filter_negatives), sum(|s| s.filter_false_positives));
    let probes = neg + fp + sum(|s| s.filter_true_positives);
    let (blocks, hits) = (sum(|s| s.blocks_read), sum(|s| s.cache_hits));
    vec![
        metric("filter.probes_per_op", per_op(probes), "count"),
        metric("filter.fpr", crate::measure::ratio(fp, fp + neg), "ratio"),
        metric("sst.blocks_read_per_op", per_op(blocks), "count"),
        metric("sst.bytes_read_per_op", per_op(sum(|s| s.bytes_read)), "B"),
        metric("cache.hit_ratio", crate::measure::ratio(hits, hits + blocks), "ratio"),
        metric("bg.rotations", sum(|s| s.memtable_rotations), "count"),
        metric("model.filters_built", life.filters_built as f64, "count"),
        metric("bg.flushes", life.flushes as f64, "count"),
        metric("bg.compactions", life.compactions as f64, "count"),
        metric("bg.write_stall_ms", life.write_stall_ns as f64 / 1e6, "ms"),
        metric(
            "wal.bytes_per_op",
            crate::measure::ratio(life.wal_bytes as f64, writes as f64),
            "B",
        ),
    ]
}
