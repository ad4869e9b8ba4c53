//! The benchmark's independent oracle: a `BTreeMap` mirror of every write
//! the benchmark made, with values recomputed from `(key, stamp)` rather
//! than stored, so a stale or corrupted value can never agree by accident.

use proteus_workloads::value_for_key;
use std::collections::BTreeMap;
use std::ops::Bound;

/// The value written for `key` by the write stamped `stamp`. Every write
/// gets a fresh stamp, so an overwrite always changes the value and a
/// stale read is caught.
pub fn value_of(key: &[u8], stamp: u32, len: usize) -> Vec<u8> {
    // FNV-1a folds the key to the u64 seed `value_for_key` takes.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    value_for_key(h ^ u64::from(stamp).wrapping_mul(0x9E37_79B9_7F4A_7C15), len)
}

/// Mirror of the store's logical contents: key → stamp of its live value,
/// or `None` once deleted.
#[derive(Debug, Clone)]
pub struct Mirror {
    map: BTreeMap<Vec<u8>, Option<u32>>,
    value_len: usize,
    live_bytes: u64,
    written_bytes: u64,
}

impl Mirror {
    pub fn new(value_len: usize) -> Mirror {
        Mirror { map: BTreeMap::new(), value_len, live_bytes: 0, written_bytes: 0 }
    }

    pub fn value_len(&self) -> usize {
        self.value_len
    }

    /// The value the store must now hold for `key` after a put stamped
    /// `stamp`.
    pub fn value(&self, key: &[u8], stamp: u32) -> Vec<u8> {
        value_of(key, stamp, self.value_len)
    }

    fn entry_bytes(&self, key: &[u8]) -> u64 {
        (key.len() + self.value_len) as u64
    }

    /// Record an acknowledged put.
    pub fn put(&mut self, key: &[u8], stamp: u32) {
        let bytes = self.entry_bytes(key);
        self.written_bytes += bytes;
        match self.map.insert(key.to_vec(), Some(stamp)) {
            Some(Some(_)) => {}
            _ => self.live_bytes += bytes,
        }
    }

    /// Record an acknowledged delete.
    pub fn delete(&mut self, key: &[u8]) {
        self.written_bytes += key.len() as u64;
        if let Some(slot) = self.map.get_mut(key) {
            if slot.take().is_some() {
                self.live_bytes -= (key.len() + self.value_len) as u64;
            }
        }
    }

    /// Live user key+value bytes.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// User key+value bytes written so far (deletes count their key).
    pub fn written_bytes(&self) -> u64 {
        self.written_bytes
    }

    fn live_in(&self, lo: &[u8], hi: Option<&[u8]>) -> impl Iterator<Item = (&Vec<u8>, u32)> + '_ {
        let upper = hi.map_or(Bound::Unbounded, Bound::Included);
        self.map
            .range::<[u8], _>((Bound::Included(lo), upper))
            .filter_map(|(k, s)| s.map(|stamp| (k, stamp)))
    }

    /// A `get` must return the last written value, or `None` after a
    /// delete or for a key never written.
    pub fn check_get(&self, key: &[u8], got: Option<&[u8]>) -> bool {
        let want = self.map.get(key).copied().flatten().map(|s| self.value(key, s));
        want.as_deref() == got
    }

    /// A `seek` must find every non-empty range (no false negative) and
    /// report no key in an empty one.
    pub fn check_seek(&self, lo: &[u8], hi: &[u8], got: bool) -> bool {
        got == (lo <= hi && self.live_in(lo, Some(hi)).next().is_some())
    }

    /// A scan from `lo` (to `hi` inclusive, or open-ended) limited to
    /// `limit` rows must return exactly the mirror's first rows and values.
    pub fn check_scan(
        &self,
        lo: &[u8],
        hi: Option<&[u8]>,
        limit: usize,
        got: &[(Vec<u8>, Vec<u8>)],
    ) -> bool {
        let mut want = self.live_in(lo, hi).take(limit);
        for (k, v) in got {
            match want.next() {
                Some((wk, stamp)) if wk == k && self.value(k, stamp) == *v => {}
                _ => return false,
            }
        }
        want.next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    fn mirror() -> Mirror {
        let mut m = Mirror::new(16);
        for i in 0..10u64 {
            m.put(&k(i * 10), i as u32);
        }
        m
    }

    #[test]
    fn accounting_tracks_live_and_written_bytes() {
        let mut m = mirror();
        assert_eq!(m.live_bytes(), 10 * 24);
        m.put(&k(0), 100); // overwrite: written grows, live does not
        assert_eq!(m.live_bytes(), 10 * 24);
        assert_eq!(m.written_bytes(), 11 * 24);
        m.delete(&k(0));
        m.delete(&k(0)); // deleting a dead key changes nothing live
        assert_eq!(m.live_bytes(), 9 * 24);
        assert_eq!(m.written_bytes(), 11 * 24 + 16);
    }

    #[test]
    fn get_oracle_counts_a_stale_value_as_wrong() {
        let mut m = mirror();
        let old = m.value(&k(30), 3);
        m.put(&k(30), 77);
        assert!(m.check_get(&k(30), Some(&m.value(&k(30), 77))));
        assert!(!m.check_get(&k(30), Some(&old)), "stale value accepted");
        m.delete(&k(30));
        assert!(m.check_get(&k(30), None));
        assert!(!m.check_get(&k(30), Some(&old)), "resurrected delete accepted");
        assert!(!m.check_get(&k(40), None), "lost key accepted");
    }

    #[test]
    fn seek_oracle_counts_a_true_answer_on_an_empty_range_as_wrong() {
        let mut m = mirror();
        assert!(m.check_seek(&k(11), &k(19), false));
        assert!(!m.check_seek(&k(11), &k(19), true), "true seek on an empty range accepted");
        assert!(!m.check_seek(&k(15), &k(25), false), "false negative accepted");
        m.delete(&k(20));
        assert!(!m.check_seek(&k(15), &k(25), true), "deleted key still found");
        assert!(m.check_seek(&k(25), &k(15), false), "inverted range is empty");
    }

    #[test]
    fn scan_oracle_counts_a_dropped_row_as_wrong() {
        let m = mirror();
        let rows = |ids: &[u64]| -> Vec<(Vec<u8>, Vec<u8>)> {
            ids.iter().map(|&i| (k(i * 10), m.value(&k(i * 10), i as u32))).collect()
        };
        assert!(m.check_scan(&k(25), None, 3, &rows(&[3, 4, 5])));
        assert!(!m.check_scan(&k(25), None, 3, &rows(&[3, 5, 6])), "dropped row accepted");
        assert!(!m.check_scan(&k(25), None, 3, &rows(&[3, 4])), "short scan accepted");
        assert!(!m.check_scan(&k(25), None, 3, &rows(&[3, 4, 5, 6])), "limit ignored");
        assert!(m.check_scan(&k(25), Some(&k(45)), 10, &rows(&[3, 4])));
        assert!(!m.check_scan(&k(25), Some(&k(45)), 10, &rows(&[3, 4, 5])), "row past hi");
        let mut stale = rows(&[3, 4, 5]);
        stale[1].1 = m.value(&k(40), 99);
        assert!(!m.check_scan(&k(25), None, 3, &stale), "stale value accepted");
    }
}
