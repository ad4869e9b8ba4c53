//! Counter-based pins on background work and filter-probe accounting.
//! Each test asserts exact `Stats` values for a fixed input, so a change
//! that splits a compaction or double-counts a probe fails here rather
//! than showing up later as benchmark drift.

use proteus_lsm::{Db, DbConfig, FilterFactory, NoFilterFactory, ProteusFactory, StatsSnapshot};

mod common;
use common::Rng;
use std::sync::Arc;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("proteus-counters-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// `flush_and_settle` drains every MemTable before it asks for a settle,
/// so one load reaches L1 in exactly one L0→L1 compaction. Before the
/// drain, the compactor could start on a partial L0 while the flusher
/// still held immutable MemTables and split the load in two.
#[test]
fn settle_compacts_one_load_in_one_compaction() {
    let dir = tmpdir("settle");
    let cfg = DbConfig::builder()
        .memtable_bytes(64 << 10)
        .max_immutable_memtables(4)
        .l0_compaction_trigger(1000)
        .level_base_bytes(1 << 30)
        .sst_target_bytes(1 << 30)
        .build()
        .unwrap();
    let db = Db::open(&dir, cfg, Arc::new(ProteusFactory::default())).unwrap();
    let mut rng = Rng(7);
    for _ in 0..40_000 {
        db.put_u64(rng.next(), &[7u8; 24]).unwrap();
    }
    db.flush_and_settle().unwrap();
    let s = db.stats().snapshot();
    assert_eq!((s.flushes, s.compactions), (20, 1));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Load scrambled keys, settle, then run point and narrow range probes
/// between them; returns the counters those probes moved.
fn probe_between_keys(tag: &str, cfg: DbConfig, factory: Arc<dyn FilterFactory>) -> StatsSnapshot {
    let dir = tmpdir(tag);
    let db = Db::open(&dir, cfg, factory).unwrap();
    let mut rng = Rng(11);
    for _ in 0..4_000 {
        db.put_u64(rng.next(), b"v").unwrap();
    }
    db.flush_and_settle().unwrap();
    let before = db.stats().snapshot();
    for _ in 0..4_000 {
        let lo = rng.next() >> 1;
        db.get_u64(lo).unwrap();
        db.range_u64(lo..=lo + (1 << 40)).unwrap().for_each(|r| drop(r.unwrap()));
    }
    let delta = db.stats().snapshot().delta(&before);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    delta
}

/// `observed_fp` counts only the false positives a real filter answered:
/// a filterless file admits every probe and is no evidence about a
/// filter design, while `filter_false_positives` counts both.
#[test]
fn observed_fp_counts_only_real_filters() {
    let small = || DbConfig::builder().memtable_bytes(16 << 10);

    // `bits_per_key(0)` gives every SST no filter at all.
    let filterless = small().bits_per_key(0.0).build().unwrap();
    let d = probe_between_keys("filterless", filterless, Arc::new(NoFilterFactory));
    assert_eq!(d.observed_fp, 0);
    assert!(d.filter_false_positives > 0, "{d:?}");
    assert_eq!(d.filter_negatives, 0);

    let d = probe_between_keys(
        "proteus",
        small().build().unwrap(),
        Arc::new(ProteusFactory::default()),
    );
    assert!(d.filter_false_positives > 0, "{d:?}");
    assert_eq!(d.observed_fp, d.filter_false_positives);
}
