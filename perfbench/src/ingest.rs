//! Runs `ingest-mixed`: rounds of the same writes and reads, each on
//! a fresh empty store, with the final settle inside the timed phase.

use crate::engine::{run_phase, Budget, Op, Phase, Spans};
use crate::measure::{dir_bytes, median, process_wchar, space_amp, write_amp};
use crate::oracle::Mirror;
use crate::replay;
use crate::report::{metric, Outcome};
use crate::settled::{db_shape, overhead, span_layers, Ctx};
use crate::store::{config, open, scratch, DbStore};
use proteus_lsm::wal::WalOp;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Spec {
    /// One round's operations; every round runs all of them.
    pub ops: Vec<Op>,
    /// A shorter round from a different seed, run once before timing.
    pub warm: Vec<Op>,
    pub samples: Vec<(Vec<u8>, Vec<u8>)>,
    pub value_len: usize,
}

struct Round {
    phase: Phase,
    check: Phase,
    setup_s: f64,
    settle_s: f64,
    space_amp: f64,
    write_amp: f64,
    stats: proteus_lsm::StatsSnapshot,
    shape: Vec<crate::report::Metric>,
}

fn round(spec: &Spec, ops: &[Op], ctx: &Ctx, spans: Option<&mut Spans>, keep: bool) -> Round {
    let dir = scratch(&ctx.root, "ingest");
    let wchar0 = process_wchar();
    let t = Instant::now();
    let db = open(&dir);
    db.seed_queries(spec.samples.iter().cloned());
    let setup_s = t.elapsed().as_secs_f64();
    let mut mirror = Mirror::new(spec.value_len);
    let mut stamp = 0;
    let mut phase =
        run_phase(&mut DbStore(&db), &mut mirror, ops, &mut stamp, Budget::Passes(1), spans);
    let t = Instant::now();
    let settled = db.flush_and_settle();
    let settle_s = t.elapsed().as_secs_f64();
    phase.timed_s += settle_s;
    if let Some(w) = phase.windows.last_mut() {
        w.secs += settle_s;
    }
    if let Err(e) = settled {
        phase.failed += 1;
        phase.first_problem.get_or_insert(format!("flush_and_settle: {e}"));
    }
    let stats = db.stats().snapshot();
    // The whole store against the mirror, outside the clock.
    let all = [Op::Scan { lo: vec![0x00], hi: None, limit: usize::MAX }];
    let check =
        run_phase(&mut DbStore(&db), &mut mirror, &all, &mut stamp, Budget::Passes(1), None);
    let shape = db_shape(&db);
    let space = space_amp(dir_bytes(&dir), mirror.live_bytes());
    drop(db);
    let write = write_amp(process_wchar() - wchar0, mirror.written_bytes());
    if !keep {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Round { phase, check, setup_s, settle_s, space_amp: space, write_amp: write, stats, shape }
}

/// The round's writes in order, for the WAL and MemTable replays.
fn replay_writes(spec: &Spec) -> Vec<WalOp> {
    let value = vec![0xA5u8; spec.value_len];
    spec.ops
        .iter()
        .filter_map(|op| match op {
            Op::Put(k) => Some((k.clone(), Some(value.clone()))),
            Op::Delete(k) => Some((k.clone(), None)),
            _ => None,
        })
        .collect()
}

pub fn run(spec: &Spec, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let warm = round(spec, &spec.warm, ctx, None, false);
    out.extra.absorb(warm.phase);
    out.extra.absorb(warm.check);
    let seconds = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let (mut space, mut write) = (Vec::new(), Vec::new());
    let (mut traced, mut spans) = (Phase::default(), Spans::default());
    let (mut settle, mut during, mut shape) = (Vec::new(), Vec::new(), Vec::new());
    while out.phase.timed_s < seconds || out.phase.attempted == 0 {
        let r = round(spec, &spec.ops, ctx, None, false);
        out.setup_s.push(r.setup_s);
        space.push(r.space_amp);
        write.push(r.write_amp);
        out.phase.absorb(r.phase);
        out.extra.absorb(r.check);
        if ctx.trace {
            // Traced rounds alternate with untraced ones, so drift in the
            // machine's speed lands on both.
            let r = round(spec, &spec.ops, ctx, Some(&mut spans), true);
            settle.push(r.settle_s);
            traced.absorb(r.phase);
            out.extra.absorb(r.check);
            during.push(r.stats);
            shape = r.shape;
        }
    }
    out.space_amp = median(&space);
    out.write_amp = median(&write);
    if !ctx.trace {
        return out;
    }
    let life = *during.last().expect("one traced round");
    out.layers = replay::stats_layers(&during, traced.attempted, &life, writes(spec));
    out.layers.extend(shape);
    out.layers.extend(span_layers(&spans));
    out.layers.push(metric("bg.settle_s", median(&settle), "s"));
    out.layers.extend(overhead(&out.phase, &traced));
    out.extra.absorb(traced);
    let cfg = config();
    let dir = ctx.root.join("ingest");
    let ssts = replay::open_ssts(&[dir.as_path()], &cfg);
    out.layers.extend(replay::sst_layers(&ssts, &spec.ops, &spec.samples, &cfg));
    drop(ssts);
    let _ = std::fs::remove_dir_all(&dir);
    let w = replay_writes(spec);
    out.layers.extend(replay::memtable_layers(&w, None, &spec.ops, &cfg));
    out.layers.extend(replay::wal_layer(&ctx.root.join("wal-replay"), &w, &cfg));
    out.layers.extend(replay::protocol_layers(&spec.ops, spec.value_len));
    out.layers.push(metric("server.overhead_us", 0.0, "us"));
    out
}

fn writes(spec: &Spec) -> u64 {
    spec.ops.iter().filter(|op| op.is_write()).count() as u64
}
