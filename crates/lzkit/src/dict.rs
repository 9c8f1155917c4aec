//! A dictionary's match-finder state, digested once and attached per
//! call.
//!
//! Priming a match finder with dictionary history means hashing every
//! dictionary position into the head and chain tables. The result
//! depends only on the dictionary bytes and the hash width, so it is
//! computed once per `hash_log` ([`MatchParams::shrunk_for_input`]
//! derives `hash_log` from the input length, so a dictionary serving
//! inputs of different sizes needs more than one). Each parse then
//! reads the chain links in place and starts its head table as a copy
//! of the digest's (the cost of filling a fresh table); it inserts no
//! digested position.
//!
//! A [`Digest`] covers the dictionary positions whose 4-byte hash lies
//! wholly inside the dictionary (`pos + 4 <= len`). The last three
//! dictionary positions hash input bytes, so each parse inserts them
//! itself, together with any history from earlier blocks of the same
//! frame.
//!
//! [`MatchParams::shrunk_for_input`]: crate::MatchParams::shrunk_for_input

use std::sync::OnceLock;

use crate::hash4;

/// Head and chain links of one dictionary under one `hash_log`.
pub(crate) struct Digest {
    /// Latest digested position per hash bucket (`u32::MAX`: none).
    head: Box<[u32]>,
    /// `links[pos]`: the previous position with the same hash as `pos`
    /// (`u32::MAX`: none), for every digested position.
    links: Box<[u32]>,
}

impl Digest {
    fn new(dict: &[u8], hash_log: u32) -> Self {
        let end = dict.len().saturating_sub(3);
        let mut head = vec![u32::MAX; 1usize << hash_log].into_boxed_slice();
        let mut links = Vec::with_capacity(end);
        for pos in 0..end {
            let h = hash4(dict, pos, hash_log);
            links.push(head[h]);
            head[h] = pos as u32;
        }
        Self {
            head,
            links: links.into_boxed_slice(),
        }
    }
}

/// Dictionary history as the match finders see it. The finders are
/// generic over it, so without a dictionary ([`NoDict`]) the digest
/// lookups compile away and the no-dictionary parse pays nothing for
/// them.
pub(crate) trait History: Copy {
    /// Positions below this are digested and never inserted locally.
    fn len(self) -> usize;
    /// A fresh head table of `2^hash_log` buckets holding the latest
    /// digested position per hash (`u32::MAX`: none).
    fn head_table(self, hash_log: u32) -> Vec<u32>;
    /// The previous position with the same hash as `c` when `c` is
    /// digested (`u32::MAX`: none), else `local`, `c`'s local link.
    fn link_or(self, c: usize, local: u32) -> u32;
}

/// No dictionary: nothing is digested.
#[derive(Clone, Copy)]
pub(crate) struct NoDict;

impl History for NoDict {
    #[inline(always)]
    fn len(self) -> usize {
        0
    }

    fn head_table(self, hash_log: u32) -> Vec<u32> {
        vec![u32::MAX; 1usize << hash_log]
    }

    #[inline(always)]
    fn link_or(self, _c: usize, local: u32) -> u32 {
        local
    }
}

impl History for &Digest {
    #[inline(always)]
    fn len(self) -> usize {
        self.links.len()
    }

    /// The digest's head, copied: it costs what filling a fresh table
    /// costs, and keeps one table per probe. Reading the digest's head
    /// behind an empty local bucket instead measured 20–37% slower on
    /// 128 KiB inputs (two tables' worth of cache misses).
    fn head_table(self, hash_log: u32) -> Vec<u32> {
        debug_assert_eq!(self.head.len(), 1usize << hash_log);
        self.head.to_vec()
    }

    /// Branch-free: a walk crosses from local into digested positions
    /// at an unpredictable hop. On 128 KiB greedy and lazy parses after
    /// a 16 KiB dictionary, `if c < n` measured 6–14% slower than
    /// inserting the dictionary per call, this select 0–11%. A digest
    /// covers at least one position, so the clamped index is in bounds.
    #[inline(always)]
    fn link_or(self, c: usize, local: u32) -> u32 {
        let n = self.links.len();
        let digested = self.links[c.min(n - 1)];
        let mask = u32::from(c < n).wrapping_neg();
        (digested & mask) | (local & !mask)
    }
}

/// Hash widths a digest can be built for (`hash4` shifts by
/// `32 - hash_log`).
const HASH_LOGS: usize = 33;

/// The match-finder state of one dictionary, built lazily per
/// `hash_log` at first use and shared by every parse that uses it.
///
/// Pass it to [`parse_with_dict`](crate::parse_with_dict) together with
/// a buffer that starts with the dictionary. Memory per digested
/// `hash_log` is about `4 * len + 4 * 2^hash_log` bytes. It is
/// `Send + Sync`: one state can serve parses on many threads.
pub struct DictState {
    len: usize,
    digests: [OnceLock<Digest>; HASH_LOGS],
}

impl DictState {
    /// State for a dictionary of `len` bytes. Nothing is digested until
    /// a parse needs it.
    pub fn new(len: usize) -> Self {
        Self {
            len,
            digests: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Length of the dictionary this state describes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length dictionary.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The digest of `dict` under `hash_log`, built on first request;
    /// `None` when no dictionary position has a whole 4-byte hash.
    pub(crate) fn digest(&self, dict: &[u8], hash_log: u32) -> Option<&Digest> {
        debug_assert_eq!(dict.len(), self.len);
        if self.len < 4 {
            return None;
        }
        Some(self.digests[hash_log as usize].get_or_init(|| Digest::new(dict, hash_log)))
    }
}

impl std::fmt::Debug for DictState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let digested: Vec<usize> = (0..HASH_LOGS)
            .filter(|&h| self.digests[h].get().is_some())
            .collect();
        f.debug_struct("DictState")
            .field("len", &self.len)
            .field("digested_hash_logs", &digested)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_sequential_insertion() {
        let dict = b"abcdabcdXabcdabcdYabcd";
        let d = Digest::new(dict, 8);
        assert_eq!(d.links.len(), dict.len() - 3);
        // Position 4 repeats position 0's hash ("abcd").
        assert_eq!(d.links[4], 0);
        assert_eq!(d.links[0], u32::MAX);
        let h = hash4(dict, 18, 8);
        assert_eq!(d.head[h], 18);
    }

    #[test]
    fn tiny_dictionaries_have_no_digest() {
        for len in 0..4 {
            let dict = vec![7u8; len];
            assert!(DictState::new(len).digest(&dict, 10).is_none());
        }
        assert!(DictState::new(4).digest(b"wxyz", 10).is_some());
    }

    #[test]
    fn digests_are_cached_per_hash_log() {
        let dict: Vec<u8> = (0..200u8).collect();
        let state = DictState::new(dict.len());
        let a = state.digest(&dict, 10).unwrap() as *const Digest;
        let b = state.digest(&dict, 10).unwrap() as *const Digest;
        let c = state.digest(&dict, 12).unwrap() as *const Digest;
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(format!("{state:?}").contains("[10, 12]"));
    }

    #[test]
    fn state_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<DictState>();
    }
}
