//! The measured loop shared by every workload: operations run in timed
//! chunks, and the oracle checks each chunk after its clock stops.

use crate::measure::Histogram;
use crate::oracle::Mirror;
use std::time::Instant;

/// One operation of a workload, as generated from the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Get(Vec<u8>),
    Put(Vec<u8>),
    Delete(Vec<u8>),
    /// Closed-range emptiness probe.
    Seek(Vec<u8>, Vec<u8>),
    /// Ordered scan from `lo` (to `hi` inclusive, or open-ended) of at most
    /// `limit` rows.
    Scan {
        lo: Vec<u8>,
        hi: Option<Vec<u8>>,
        limit: usize,
    },
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Put(_) | Op::Delete(_))
    }

    /// The key an operation starts at (its routing key).
    pub fn key(&self) -> &[u8] {
        match self {
            Op::Get(k) | Op::Put(k) | Op::Delete(k) | Op::Seek(k, _) => k,
            Op::Scan { lo, .. } => lo,
        }
    }
}

/// What the store answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Done,
    Found(bool),
    Value(Option<Vec<u8>>),
    Rows(Vec<(Vec<u8>, Vec<u8>)>),
}

/// A per-call span kept in memory by a traced run.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub ns: u64,
}

/// The traced run's span buffer.
#[derive(Debug, Default)]
pub struct Spans {
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn record(&mut self, name: &'static str, since: Instant) {
        self.spans.push(Span { name, ns: since.elapsed().as_nanos() as u64 });
    }

    /// Median duration in ns of the spans named `name` (0 when none).
    pub fn median_ns(&self, name: &str) -> f64 {
        let v: Vec<f64> =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.ns as f64).collect();
        if v.is_empty() {
            0.0
        } else {
            crate::measure::median(&v)
        }
    }
}

/// A store front-end the loop can drive: an in-process `Db` or a client.
pub trait Store {
    /// Execute one operation; `value` is the put's value (empty otherwise).
    /// With `spans`, record a span around each call into the store.
    fn exec(&mut self, op: &Op, value: &[u8], spans: Option<&mut Spans>) -> Result<Answer, String>;
}

/// About a second of timed work (one whole round on `ingest-mixed`). The
/// end-to-end timings are medians over a run's windows, so a stretch of a
/// run slowed by the machine shifts them less than a mean would.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub ops: u64,
    pub secs: f64,
    pub lat: Histogram,
}

/// Timed seconds per window under a seconds budget.
const WINDOW_S: f64 = 1.0;

/// What one measured phase did.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    /// Typed errors plus wrong answers.
    pub failed: u64,
    /// Wrong answers alone: any makes the run incorrect.
    pub wrong: u64,
    pub first_problem: Option<String>,
    /// Wall time of the timed chunks (the oracle's work excluded).
    pub timed_s: f64,
    pub windows: Vec<Window>,
    pub writes: u64,
}

impl Phase {
    pub fn absorb(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.timed_s += other.timed_s;
        self.writes += other.writes;
        self.windows.extend(other.windows);
        if self.first_problem.is_none() {
            self.first_problem = other.first_problem;
        }
    }

    /// Every latency of the phase in one histogram.
    pub fn latencies(&self) -> Histogram {
        let mut all = Histogram::default();
        self.windows.iter().for_each(|w| all.merge(&w.lat));
        all
    }

    fn problem(&mut self, what: String) {
        self.failed += 1;
        if self.first_problem.is_none() {
            self.first_problem = Some(what);
        }
    }
}

/// How long a phase runs: whole passes over the op list, or chunks until
/// the timed clock reaches a number of seconds.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Passes(usize),
    Seconds(f64),
}

/// Operations per timed chunk: the oracle runs between chunks.
const CHUNK: usize = 256;

/// Run `ops` against `store` under `budget`, checking every answer with
/// `mirror`. Put stamps come from `stamp`, which the caller keeps across
/// phases so every write of a run gets a fresh one.
pub fn run_phase(
    store: &mut dyn Store,
    mirror: &mut Mirror,
    ops: &[Op],
    stamp: &mut u32,
    budget: Budget,
    mut spans: Option<&mut Spans>,
) -> Phase {
    let mut phase = Phase::default();
    let total_chunks = match budget {
        Budget::Passes(n) => n * ops.len().div_ceil(CHUNK),
        Budget::Seconds(_) => usize::MAX,
    };
    let mut values: Vec<Vec<u8>> = Vec::with_capacity(CHUNK);
    let mut answers: Vec<Result<Answer, String>> = Vec::with_capacity(CHUNK);
    let mut window = Window::default();
    for chunk in ops.chunks(CHUNK).cycle().take(total_chunks) {
        if let Budget::Seconds(s) = budget {
            if phase.timed_s >= s {
                break;
            }
        }
        // Inputs for the chunk, outside the clock.
        values.clear();
        let first_stamp = *stamp;
        for op in chunk {
            match op {
                Op::Put(k) => {
                    values.push(mirror.value(k, *stamp));
                    *stamp += 1;
                }
                _ => values.push(Vec::new()),
            }
        }
        answers.clear();
        let t0 = Instant::now();
        for (op, value) in chunk.iter().zip(&values) {
            let t = Instant::now();
            let a = store.exec(op, value, spans.as_deref_mut());
            window.lat.record(t.elapsed().as_nanos() as u64);
            answers.push(a);
        }
        let chunk_s = t0.elapsed().as_secs_f64();
        phase.timed_s += chunk_s;
        window.ops += chunk.len() as u64;
        window.secs += chunk_s;
        if matches!(budget, Budget::Seconds(_)) && window.secs >= WINDOW_S {
            phase.windows.push(std::mem::take(&mut window));
        }
        // The oracle, in op order, so each answer meets the mirror state
        // the store had when it ran.
        let mut s = first_stamp;
        for (op, answer) in chunk.iter().zip(answers.drain(..)) {
            phase.attempted += 1;
            let put_stamp = s;
            if matches!(op, Op::Put(_)) {
                s += 1;
            }
            let answer = match answer {
                Ok(a) => a,
                Err(e) => {
                    phase.problem(format!("{op:?}: store error: {e}"));
                    continue;
                }
            };
            let ok = match (op, &answer) {
                (Op::Put(k), Answer::Done) => {
                    mirror.put(k, put_stamp);
                    true
                }
                (Op::Delete(k), Answer::Done) => {
                    mirror.delete(k);
                    true
                }
                (Op::Get(k), Answer::Value(v)) => mirror.check_get(k, v.as_deref()),
                (Op::Seek(lo, hi), Answer::Found(f)) => mirror.check_seek(lo, hi, *f),
                (Op::Scan { lo, hi, limit }, Answer::Rows(rows)) => {
                    mirror.check_scan(lo, hi.as_deref(), *limit, rows)
                }
                _ => false,
            };
            if op.is_write() {
                phase.writes += 1;
            }
            if !ok {
                phase.wrong += 1;
                phase.problem(format!("{op:?}: wrong answer {}", brief(&answer)));
            }
        }
    }
    // A short tail joins the last full window rather than standing alone.
    match phase.windows.last_mut() {
        Some(last) if window.secs < WINDOW_S / 2.0 => {
            last.ops += window.ops;
            last.secs += window.secs;
            last.lat.merge(&window.lat);
        }
        _ if window.ops > 0 => phase.windows.push(window),
        _ => {}
    }
    phase
}

fn brief(a: &Answer) -> String {
    match a {
        Answer::Rows(r) => format!("({} rows)", r.len()),
        Answer::Value(v) => format!("(value of {:?} bytes)", v.as_ref().map(Vec::len)),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// An in-memory store that answers correctly except where told to
    /// plant a fault.
    #[derive(Default)]
    pub struct FakeStore {
        pub map: BTreeMap<Vec<u8>, Vec<u8>>,
        pub drop_scan_row: bool,
        pub keep_stale: bool,
        pub seek_always_true: bool,
        pub fail_gets: bool,
    }

    impl Store for FakeStore {
        fn exec(&mut self, op: &Op, value: &[u8], _: Option<&mut Spans>) -> Result<Answer, String> {
            Ok(match op {
                Op::Put(k) => {
                    if !(self.keep_stale && self.map.contains_key(k)) {
                        self.map.insert(k.clone(), value.to_vec());
                    }
                    Answer::Done
                }
                Op::Delete(k) => {
                    self.map.remove(k);
                    Answer::Done
                }
                Op::Get(_) if self.fail_gets => return Err("injected".into()),
                Op::Get(k) => Answer::Value(self.map.get(k).cloned()),
                Op::Seek(lo, hi) => Answer::Found(
                    self.seek_always_true
                        || self.map.range(lo.clone()..=hi.clone()).next().is_some(),
                ),
                Op::Scan { lo, hi, limit } => {
                    let mut rows: Vec<(Vec<u8>, Vec<u8>)> = self
                        .map
                        .range(lo.clone()..)
                        .take_while(|(k, _)| hi.as_ref().is_none_or(|h| *k <= h))
                        .take(*limit)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    if self.drop_scan_row && rows.len() > 1 {
                        rows.remove(1);
                    }
                    Answer::Rows(rows)
                }
            })
        }
    }

    fn key(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    fn run(store: &mut FakeStore, ops: &[Op]) -> Phase {
        let mut mirror = Mirror::new(8);
        let mut stamp = 0;
        run_phase(store, &mut mirror, ops, &mut stamp, Budget::Passes(1), None)
    }

    fn load(n: u64) -> Vec<Op> {
        (0..n).map(|i| Op::Put(key(i * 10))).collect()
    }

    #[test]
    fn correct_store_has_no_failures() {
        let mut ops = load(600);
        ops.push(Op::Put(key(20)));
        ops.push(Op::Delete(key(30)));
        ops.extend([
            Op::Get(key(20)),
            Op::Get(key(30)),
            Op::Seek(key(11), key(19)),
            Op::Scan { lo: key(5), hi: None, limit: 5 },
        ]);
        let p = run(&mut FakeStore::default(), &ops);
        assert_eq!((p.attempted, p.failed, p.wrong), (ops.len() as u64, 0, 0));
        assert_eq!(p.writes, 602);
        assert_eq!(p.windows.len(), 1, "a passes budget is one window");
        assert_eq!(p.windows[0].lat.len(), ops.len() as u64);
    }

    #[test]
    fn typed_error_counts_as_failed_but_not_wrong() {
        let mut ops = load(3);
        ops.push(Op::Get(key(10)));
        let p = run(&mut FakeStore { fail_gets: true, ..Default::default() }, &ops);
        assert_eq!((p.failed, p.wrong), (1, 0));
    }

    #[test]
    fn seconds_budget_stops_at_a_chunk_boundary() {
        let mut ops = load(10);
        ops.push(Op::Get(key(10)));
        let mut mirror = Mirror::new(8);
        let mut stamp = 0;
        let p = run_phase(
            &mut FakeStore::default(),
            &mut mirror,
            &ops,
            &mut stamp,
            Budget::Seconds(0.0),
            None,
        );
        assert_eq!(p.attempted, 0, "a spent budget runs nothing");
    }
}
