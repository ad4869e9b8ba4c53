//! The in-process front-end (`Db`), the configuration every workload
//! shares, and small input helpers.

use crate::engine::{Answer, Op, Spans, Store};
use proteus_lsm::{Db, DbConfig, ProteusFactory, SyncMode};
use proteus_server::Client;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The store's default configuration with the two settings every workload
/// pins: no adaptive re-training and no WAL sync on the write path.
pub fn config() -> DbConfig {
    DbConfig::builder()
        .adapt_enabled(false)
        .sync_mode(SyncMode::Off)
        .build()
        .expect("the default configuration is valid")
}

pub fn open(dir: &Path) -> Db {
    let _ = std::fs::remove_dir_all(dir);
    Db::open(dir, config(), Arc::new(ProteusFactory::default())).expect("open the store")
}

/// Drop a store and delete its directory.
pub fn discard(db: Db, dir: &Path) {
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
}

/// A fresh scratch directory under the benchmark's data root.
pub fn scratch(root: &Path, tag: &str) -> PathBuf {
    let d = root.join(tag);
    let _ = std::fs::remove_dir_all(&d);
    d
}

pub fn u64_key(k: u64) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

/// SplitMix64: the benchmark's own deterministic stream for choices that
/// the workload generators do not make.
#[derive(Debug, Clone)]
pub struct Mix(pub u64);

impl Mix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

fn span_name(op: &Op) -> &'static str {
    match op {
        Op::Get(_) => "db.get",
        Op::Put(_) => "db.put",
        Op::Delete(_) => "db.delete",
        Op::Seek(..) => "db.seek",
        Op::Scan { .. } => "db.range",
    }
}

/// Drives a `Db` in process.
pub struct DbStore<'a>(pub &'a Db);

impl Store for DbStore<'_> {
    fn exec(&mut self, op: &Op, value: &[u8], spans: Option<&mut Spans>) -> Result<Answer, String> {
        let db = self.0;
        let t = Instant::now();
        let r = match op {
            Op::Get(k) => db.get(k).map(Answer::Value),
            Op::Put(k) => db.put(k, value).map(|()| Answer::Done),
            Op::Delete(k) => db.delete(k).map(|()| Answer::Done),
            Op::Seek(lo, hi) => db.seek(lo, hi).map(Answer::Found),
            Op::Scan { lo, hi, limit } => return scan(db, lo, hi.as_deref(), *limit, spans),
        };
        if let Some(s) = spans {
            s.record(span_name(op), t);
        }
        r.map_err(|e| e.to_string())
    }
}

/// `range(lo..).take(limit)` (or `lo..=hi`). Traced, the range call up to
/// the first row is one span and each further row is another.
fn scan(
    db: &Db,
    lo: &[u8],
    hi: Option<&[u8]>,
    limit: usize,
    spans: Option<&mut Spans>,
) -> Result<Answer, String> {
    let t = Instant::now();
    let iter = match hi {
        Some(h) => db.range(lo..=h),
        None => db.range(lo..),
    };
    let mut iter = iter.map_err(|e| e.to_string())?;
    let mut rows = Vec::with_capacity(limit.min(64));
    let Some(spans) = spans else {
        for e in iter.take(limit) {
            rows.push(e.map_err(|e| e.to_string())?);
        }
        return Ok(Answer::Rows(rows));
    };
    let mut first = true;
    while rows.len() < limit {
        let t_row = Instant::now();
        let next = iter.next();
        if first {
            spans.record("range.setup", t);
        } else {
            spans.record("range.next", t_row);
        }
        first = false;
        match next {
            Some(e) => rows.push(e.map_err(|e| e.to_string())?),
            None => break,
        }
    }
    Ok(Answer::Rows(rows))
}

/// Drives a `Server` through one client connection. An open-ended scan is
/// sent as a closed one up to the largest key the store accepts.
pub struct ClientStore(pub Client);

impl Store for ClientStore {
    fn exec(&mut self, op: &Op, value: &[u8], _: Option<&mut Spans>) -> Result<Answer, String> {
        let c = &mut self.0;
        let r = match op {
            Op::Get(k) => c.get(k).map(Answer::Value),
            Op::Put(k) => c.put(k, value).map(|()| Answer::Done),
            Op::Delete(k) => c.delete(k).map(|()| Answer::Done),
            Op::Seek(lo, hi) => c.seek(lo, hi).map(Answer::Found),
            Op::Scan { lo, hi, limit } => {
                let top = vec![0xFF; config().max_key_bytes()];
                let limit = u32::try_from(*limit).map_err(|e| e.to_string())?;
                c.scan(lo, hi.as_ref().unwrap_or(&top), limit).map(|(rows, _)| Answer::Rows(rows))
            }
        };
        r.map_err(|e| e.to_string())
    }
}
