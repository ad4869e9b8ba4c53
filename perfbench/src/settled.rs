//! Runs the read workloads (`seek-empty`, `scan-recent`): load,
//! settle, optionally write a resident MemTable, warm up, then measure.

use crate::engine::{run_phase, Budget, Op, Phase, Spans};
use crate::measure::{dir_bytes, process_wchar, ratio, space_amp, write_amp};
use crate::oracle::Mirror;
use crate::replay;
use crate::report::{metric, Metric, Outcome};
use crate::store::{config, discard, open, scratch, ClientStore, DbStore};
use proteus_lsm::wal::WalOp;
use proteus_lsm::Db;
use proteus_server::{Client, Server};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A read workload, fully generated from its seed.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Keys loaded, then flushed and compacted until the tree settles.
    pub load: Vec<Vec<u8>>,
    /// Keys written after the settle; they stay in the MemTable.
    pub recent: Vec<Vec<u8>>,
    /// Sample empty queries seeded before the load (filter training).
    pub samples: Vec<(Vec<u8>, Vec<u8>)>,
    pub value_len: usize,
    /// The measured operations, repeated until the time is up.
    pub ops: Vec<Op>,
    /// The warm-up operations, from a different seed.
    pub warm: Vec<Op>,
}

/// Where and how long a workload runs.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub root: PathBuf,
    pub seconds: f64,
    pub trace: bool,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
}

struct Loaded {
    db: Db,
    dir: PathBuf,
    mirror: Mirror,
    stamp: u32,
    writes: u64,
    wchar0: u64,
    setup_s: f64,
    settle_s: f64,
}

/// Put `keys` with fresh stamps; returns the seconds spent in the store
/// (values are made outside the clock).
fn write_all(db: &Db, mirror: &mut Mirror, stamp: &mut u32, keys: &[Vec<u8>]) -> f64 {
    let mut timed = 0.0;
    for chunk in keys.chunks(1024) {
        let values: Vec<Vec<u8>> =
            chunk.iter().zip(*stamp..).map(|(k, s)| mirror.value(k, s)).collect();
        let t = Instant::now();
        for (k, v) in chunk.iter().zip(&values) {
            db.put(k, v).expect("a set-up put");
        }
        timed += t.elapsed().as_secs_f64();
        for k in chunk {
            mirror.put(k, *stamp);
            *stamp += 1;
        }
    }
    timed
}

/// Load `keys` in batches, settling after each; returns the seconds spent
/// in puts and in settles. A batch fills fewer MemTables than it takes to
/// trigger an L0 compaction, so every compaction of the load runs at a
/// settle barrier and the tree's shape depends on the data alone, not on
/// how background work raced the puts.
fn load_settled(db: &Db, mirror: &mut Mirror, stamp: &mut u32, keys: &[Vec<u8>]) -> (f64, f64) {
    let cfg = db.config();
    let entry = keys.first().map_or(1, |k| k.len() + mirror.value_len());
    let batch = (cfg.l0_compaction_trigger() - 1) * cfg.memtable_bytes() / entry * 9 / 10;
    let (mut put_s, mut settle_s) = (0.0, 0.0);
    for batch in keys.chunks(batch.max(1)) {
        put_s += write_all(db, mirror, stamp, batch);
        let t = Instant::now();
        // Flush first: a settle compacts L0 as soon as it is non-empty,
        // even while the flusher is still writing the batch's last
        // MemTables, so settling alone splits the same load into a
        // timing-dependent number of compactions.
        db.flush().expect("flush the loaded batch");
        db.flush_and_settle().expect("settle the loaded store");
        settle_s += t.elapsed().as_secs_f64();
    }
    (put_s, settle_s)
}

fn setup(spec: &Spec, dir: &Path) -> Loaded {
    let wchar0 = process_wchar();
    let t = Instant::now();
    let db = open(dir);
    db.seed_queries(spec.samples.iter().cloned());
    let mut setup_s = t.elapsed().as_secs_f64();
    let mut mirror = Mirror::new(spec.value_len);
    let mut stamp = 0;
    let (put_s, settle_s) = load_settled(&db, &mut mirror, &mut stamp, &spec.load);
    setup_s += put_s + settle_s;
    setup_s += write_all(&db, &mut mirror, &mut stamp, &spec.recent);
    let writes = (spec.load.len() + spec.recent.len()) as u64;
    Loaded { db, dir: dir.to_path_buf(), mirror, stamp, writes, wchar0, setup_s, settle_s }
}

/// The workload's writes in order, as the WAL and MemTable see them, and
/// how many of the last ones stay resident in the MemTable after the load's
/// settles (replay inputs: the value bytes only need the right length).
fn replay_writes(spec: &Spec) -> (Vec<WalOp>, usize) {
    let value = vec![0xA5u8; spec.value_len];
    let mut w: Vec<WalOp> =
        spec.load.iter().chain(&spec.recent).map(|k| (k.clone(), Some(value.clone()))).collect();
    for op in &spec.ops {
        match op {
            Op::Put(k) => w.push((k.clone(), Some(value.clone()))),
            Op::Delete(k) => w.push((k.clone(), None)),
            _ => {}
        }
    }
    let resident = w.len() - spec.load.len();
    (w, resident)
}

pub fn run(spec: &Spec, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut loaded: Option<Loaded> = None;
    for i in 0..if ctx.trace { 1 } else { ctx.setups.max(1) } {
        if let Some(l) = loaded.take() {
            discard(l.db, &l.dir);
        }
        // The layout `Server::start` opens, so the traced run can serve
        // the same store over TCP.
        let l = setup(spec, &scratch(&ctx.root, &format!("store-{i}")).join("shard-0000"));
        out.setup_s.push(l.setup_s);
        loaded = Some(l);
    }
    let mut l = loaded.expect("at least one set-up");
    let warm = run_phase(
        &mut DbStore(&l.db),
        &mut l.mirror,
        &spec.warm,
        &mut l.stamp,
        Budget::Passes(1),
        None,
    );
    l.writes += warm.writes;
    out.extra.absorb(warm);
    if ctx.trace {
        traced_phase(spec, ctx, &mut l, &mut out);
    } else {
        out.phase = run_phase(
            &mut DbStore(&l.db),
            &mut l.mirror,
            &spec.ops,
            &mut l.stamp,
            Budget::Seconds(ctx.seconds),
            None,
        );
        l.writes += out.phase.writes;
    }
    // Space once the run's writes are flushed and compacted, so it does
    // not grow with the number of operations a run got through.
    l.db.flush_and_settle().expect("settle after the run");
    out.space_amp = space_amp(dir_bytes(&l.dir), l.mirror.live_bytes());
    // The served reads' in-process baseline, on the state the server sees.
    let reads: Vec<Op> =
        spec.ops.iter().filter(|op| !op.is_write()).take(SERVED_READS).cloned().collect();
    let in_process = ctx.trace.then(|| {
        run_phase(&mut DbStore(&l.db), &mut l.mirror, &reads, &mut l.stamp, Budget::Passes(1), None)
    });
    let written = l.mirror.written_bytes();
    let dir = l.dir.clone();
    drop(l.db);
    out.write_amp = write_amp(process_wchar() - l.wchar0, written);
    if let Some(in_process) = in_process {
        let cfg = config();
        let ssts = replay::open_ssts(&[dir.as_path()], &cfg);
        out.layers.extend(replay::sst_layers(&ssts, &spec.ops, &spec.samples, &cfg));
        drop(ssts);
        let (writes, resident) = replay_writes(spec);
        let resident = &writes[writes.len() - resident..];
        out.layers.extend(replay::memtable_layers(&writes, Some(resident), &spec.ops, &cfg));
        out.layers.extend(replay::wal_layer(&ctx.root.join("wal-replay"), &writes, &cfg));
        out.layers.extend(replay::protocol_layers(&spec.ops, spec.value_len));
        let served = serve_reads(&dir, &mut l.mirror, &reads);
        let p50 = |p: &Phase| crate::measure::summarize(&p.latencies()).p50_us;
        out.layers.push(metric("server.overhead_us", p50(&served) - p50(&in_process), "us"));
        out.extra.absorb(in_process);
        out.extra.absorb(served);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Seconds per slice of a traced run: untraced and traced slices
/// alternate, so drift in the machine's speed lands on both.
const SLICE_S: f64 = 1.0;

/// The traced run's measured phase: alternating untraced and traced
/// slices, then the per-layer metrics from its statistics and spans.
fn traced_phase(spec: &Spec, ctx: &Ctx, l: &mut Loaded, out: &mut Outcome) {
    let mut spans = Spans::default();
    let mut traced = Phase::default();
    let mut during = Vec::new();
    while out.phase.timed_s + traced.timed_s < ctx.seconds {
        let mut store = DbStore(&l.db);
        let slice = Budget::Seconds(SLICE_S);
        out.phase.absorb(run_phase(
            &mut store,
            &mut l.mirror,
            &spec.ops,
            &mut l.stamp,
            slice,
            None,
        ));
        let before = l.db.stats().snapshot();
        let t =
            run_phase(&mut store, &mut l.mirror, &spec.ops, &mut l.stamp, slice, Some(&mut spans));
        traced.absorb(t);
        during.push(l.db.stats().snapshot().delta(&before));
    }
    l.writes += out.phase.writes + traced.writes;
    let life = l.db.stats().snapshot();
    out.layers = replay::stats_layers(&during, traced.attempted, &life, l.writes);
    out.layers.extend(db_shape(&l.db));
    out.layers.extend(span_layers(&spans));
    out.layers.push(metric("bg.settle_s", l.settle_s, "s"));
    out.layers.extend(overhead(&out.phase, &traced));
    out.extra.absorb(traced);
}

/// Reads replayed through the TCP front end in the traced run.
const SERVED_READS: usize = 2_000;

/// Serve the settled store at `dir` (a `shard-0000` directory) from a
/// one-shard `Server` and run `reads` through one `Client`, checked by the
/// oracle like every other operation.
fn serve_reads(dir: &Path, mirror: &mut Mirror, reads: &[Op]) -> Phase {
    let parent = dir.parent().expect("a shard directory has a parent");
    let factory = std::sync::Arc::new(proteus_lsm::ProteusFactory::default());
    let server = Server::start(parent, ("127.0.0.1", 0), 1, config(), factory)
        .expect("serve the settled store");
    let client = Client::connect(server.local_addr()).expect("connect to the server");
    let mut stamp = 0;
    run_phase(&mut ClientStore(client), mirror, reads, &mut stamp, Budget::Passes(1), None)
}

/// Filter memory per key over the settled files.
pub fn db_shape(db: &Db) -> Vec<Metric> {
    vec![metric(
        "filter.bits_per_key",
        ratio(db.filter_bits() as f64, db.sst_entries() as f64),
        "bits",
    )]
}

/// Iterator costs from the traced run's spans.
pub fn span_layers(spans: &Spans) -> Vec<Metric> {
    vec![
        metric("iter.setup_us", spans.median_ns("range.setup") / 1e3, "us"),
        metric("iter.next_ns", spans.median_ns("range.next"), "ns"),
    ]
}

/// The traced half's throughput next to the untraced half's.
pub fn overhead(untraced: &crate::engine::Phase, traced: &crate::engine::Phase) -> Vec<Metric> {
    let kops = |p: &crate::engine::Phase| ratio(p.attempted as f64, p.timed_s) / 1e3;
    let (u, t) = (kops(untraced), kops(traced));
    vec![
        metric("trace.untraced_kops", u, "kops/s"),
        metric("trace.traced_kops", t, "kops/s"),
        metric("trace.overhead_pct", (ratio(u, t) - 1.0) * 100.0, "%"),
    ]
}
