//! The four workloads, generated from the seed alone. The store only ever
//! sees the generated keys, values and operations.

use crate::engine::Op;
use crate::store::{u64_key, Mix};
use crate::{ingest, settled};
use proteus_workloads::strings::{generate_urls, StringQueryGen};
use proteus_workloads::{Dataset, QueryGen, Workload};

pub const NAMES: [&str; 3] = ["seek-empty", "scan-recent", "ingest-mixed"];

/// Full size is what the benchmark measures; smoke size runs every
/// workload end to end in seconds with every check still on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// Seeds of the warm-up inputs differ from the measured ones.
const WARM: u64 = 0x5741_524D;

/// The §6 Split query mix: short ranges just past a key plus longer
/// uniform ones.
fn split() -> Workload {
    Workload::Split { uniform_rmax: 1 << 15, correlated_rmax: 32, corr_degree: 1 << 10 }
}

fn bytes_ranges(r: Vec<(u64, u64)>) -> Vec<(Vec<u8>, Vec<u8>)> {
    r.into_iter().map(|(lo, hi)| (u64_key(lo), u64_key(hi))).collect()
}

fn load_order(keys: &[u64], seed: u64) -> Vec<Vec<u8>> {
    let mut order: Vec<Vec<u8>> = keys.iter().map(|&k| u64_key(k)).collect();
    Mix(seed).shuffle(&mut order);
    order
}

/// Split seeks, one in twenty replaced by a range around a live key so a
/// false negative would show.
fn seeks(keys: &[u64], n: usize, seed: u64) -> Vec<Op> {
    let mut gen = QueryGen::new(split(), keys, &[], seed);
    let mut mix = Mix(seed);
    (0..n)
        .map(|i| {
            let (lo, hi) = if i % 20 == 19 {
                let k = keys[mix.below(keys.len())];
                (k.saturating_sub(8), k.saturating_add(8))
            } else {
                gen.next_range()
            };
            Op::Seek(u64_key(lo), u64_key(hi))
        })
        .collect()
}

/// `seek-empty`: closed-range seeks, nearly all empty, over a settled
/// store about twice the block cache, with Proteus filters trained on
/// seeded samples.
pub fn seek_empty(seed: u64, size: Size) -> settled::Spec {
    let n = size.pick(60_000, 4_000);
    let keys = Dataset::Uniform.generate(n, seed);
    let samples =
        QueryGen::new(split(), &keys, &[], seed ^ 0x5A).empty_ranges(size.pick(20_000, 2_000));
    settled::Spec {
        load: load_order(&keys, seed),
        recent: Vec::new(),
        samples: bytes_ranges(samples),
        value_len: 512,
        ops: seeks(&keys, size.pick(20_000, 2_000), seed ^ 0x0A),
        // As long as the measured list, so the block cache is full before
        // timing starts.
        warm: seeks(&keys, size.pick(20_000, 2_000), seed ^ WARM),
    }
}

const SCAN_ROWS: usize = 50;

fn scans(live: &[Vec<u8>], inserts: &[Vec<u8>], n: usize, seed: u64) -> Vec<Op> {
    let mut mix = Mix(seed);
    (0..n)
        .map(|i| {
            if i % 100 == 99 {
                Op::Put(inserts[(i / 100) % inserts.len()].clone())
            } else {
                Op::Scan { lo: live[mix.below(live.len())].clone(), hi: None, limit: SCAN_ROWS }
            }
        })
        .collect()
}

/// `scan-recent`: open-ended 50-row scans from live keys over a settled
/// store that fits the block cache, plus a resident MemTable of recent
/// writes and a few inserts that never fill it.
pub fn scan_recent(seed: u64, size: Size) -> settled::Spec {
    let (settled_n, recent_n, insert_n) = (size.pick(40_000, 4_000), size.pick(2_000, 200), 100);
    let all = Dataset::Uniform.generate(settled_n + recent_n + insert_n, seed);
    let samples = QueryGen::new(split(), &all, &[], seed ^ 0x5A).empty_ranges(2_000);
    let mut keys = load_order(&all, seed);
    let inserts = keys.split_off(settled_n + recent_n);
    let recent = keys.split_off(settled_n);
    let live: Vec<Vec<u8>> = keys.iter().chain(&recent).cloned().collect();
    settled::Spec {
        load: keys,
        recent,
        samples: bytes_ranges(samples),
        // YCSB's 100-byte field: the MemTable copy is then allocation-
        // rather than memory-bandwidth-bound, which other tenants of a
        // shared machine disturb far more.
        value_len: 100,
        ops: scans(&live, &inserts, size.pick(2_000, 400), seed ^ 0x0A),
        warm: scans(&live, &inserts, size.pick(1_000, 100), seed ^ WARM)
            .into_iter()
            .filter(|op| !op.is_write())
            .collect(),
    }
}

/// One ingest round: new-key puts, overwrites, deletes and gets of keys
/// already written, over variable-length URL keys.
fn ingest_ops(n: usize, seed: u64) -> Vec<Op> {
    let mut pool = generate_urls(n, seed);
    Mix(seed).shuffle(&mut pool);
    let mut fresh = pool.into_iter();
    let mut written: Vec<Vec<u8>> = Vec::new();
    let mut mix = Mix(seed ^ 0x1);
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        let r = mix.below(100);
        if written.is_empty() || r < 55 {
            match fresh.next() {
                Some(k) => {
                    written.push(k.clone());
                    ops.push(Op::Put(k));
                }
                None => break,
            }
            continue;
        }
        let k = written[mix.below(written.len())].clone();
        ops.push(match r {
            55..=69 => Op::Put(k),
            70..=74 => Op::Delete(k),
            _ => Op::Get(k),
        });
    }
    ops
}

/// `ingest-mixed`: from an empty store, writes with gets beside them; the
/// settle is timed.
pub fn ingest_mixed(seed: u64, size: Size) -> ingest::Spec {
    let n = size.pick(120_000, 8_000);
    let ops = ingest_ops(n, seed);
    let keys: Vec<Vec<u8>> = {
        let mut k: Vec<Vec<u8>> =
            ops.iter().filter(|op| matches!(op, Op::Put(_))).map(|op| op.key().to_vec()).collect();
        k.sort();
        k.dedup();
        k
    };
    let mut gen = StringQueryGen::new(&keys, 1 << 16, 1 << 10, seed ^ 0x5A);
    let samples = gen.empty_queries(2_000, |g| g.split());
    ingest::Spec { ops, warm: ingest_ops(n / 5, seed ^ WARM), samples, value_len: 200 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::FakeStore;
    use crate::engine::{run_phase, Budget, Phase};
    use crate::oracle::Mirror;

    /// Load a read workload into `store`, then run one pass of its ops.
    fn run_settled(spec: &settled::Spec, store: &mut FakeStore) -> Phase {
        let mut mirror = Mirror::new(spec.value_len);
        let mut stamp = 0;
        let load: Vec<Op> =
            spec.load.iter().chain(&spec.recent).map(|k| Op::Put(k.clone())).collect();
        let loaded = run_phase(store, &mut mirror, &load, &mut stamp, Budget::Passes(1), None);
        assert_eq!(loaded.failed, 0);
        run_phase(store, &mut mirror, &spec.ops, &mut stamp, Budget::Passes(1), None)
    }

    fn run_ingest(spec: &ingest::Spec, store: &mut FakeStore) -> Phase {
        let mut stamp = 0;
        let mut mirror = Mirror::new(spec.value_len);
        run_phase(store, &mut mirror, &spec.ops, &mut stamp, Budget::Passes(1), None)
    }

    fn assert_caught(clean: Phase, planted: Phase) {
        assert_eq!((clean.failed, clean.wrong), (0, 0), "{:?}", clean.first_problem);
        assert!(planted.wrong > 0, "the planted fault went unnoticed");
        assert_eq!(planted.failed, planted.wrong);
    }

    #[test]
    fn seek_empty_oracle_counts_a_true_seek_on_an_empty_range() {
        let spec = seek_empty(3, Size::Smoke);
        let planted = FakeStore { seek_always_true: true, ..Default::default() };
        assert_caught(
            run_settled(&spec, &mut FakeStore::default()),
            run_settled(&spec, &mut { planted }),
        );
    }

    #[test]
    fn scan_recent_oracle_counts_a_dropped_scan_row() {
        let spec = scan_recent(3, Size::Smoke);
        let planted = FakeStore { drop_scan_row: true, ..Default::default() };
        assert_caught(
            run_settled(&spec, &mut FakeStore::default()),
            run_settled(&spec, &mut { planted }),
        );
    }

    #[test]
    fn ingest_mixed_oracle_counts_a_stale_value() {
        let spec = ingest_mixed(3, Size::Smoke);
        let planted = FakeStore { keep_stale: true, ..Default::default() };
        assert_caught(
            run_ingest(&spec, &mut FakeStore::default()),
            run_ingest(&spec, &mut { planted }),
        );
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(seek_empty(5, Size::Smoke).ops, seek_empty(5, Size::Smoke).ops);
        assert_ne!(seek_empty(5, Size::Smoke).ops, seek_empty(6, Size::Smoke).ops);
        assert_ne!(seek_empty(5, Size::Smoke).ops, seek_empty(5, Size::Smoke).warm);
        assert_eq!(ingest_mixed(5, Size::Smoke).ops, ingest_mixed(5, Size::Smoke).ops);
    }
}
