//! Dictionary training and representation.
//!
//! "LZ dictionaries are constructed ahead of time from sample data and
//! capture these inter-message repetitions. Next, they are communicated
//! out-of-band to the compressor/decompressor and used as shared
//! history." (paper, §II-B). The paper's caching study (Figures 10–11)
//! shows dictionaries recovering the ratio lost by compressing small
//! items individually; `fig10`/`fig11` reproduce that with dictionaries
//! trained here.
//!
//! The trainer is a simplified COVER: samples are cut into fixed-size
//! segments, segments are scored by the total frequency of the k-mers
//! they contain (counted across all samples), and the highest-scoring
//! segments are concatenated — most valuable content last, where offsets
//! into it are shortest.
//!
//! # Digest lifecycle
//!
//! Each [`Dictionary`] carries its match-finder state
//! ([`lzkit::DictState`]): the dictionary's hash-table head and chain
//! links, digested once per `hash_log` — the table width the match
//! finder picks from the input length — on the first compress call
//! that needs it, then attached read-only to every later call (zstd's
//! `ZSTD_createCDict` pays once for the same reason). Clones share the
//! state, and it is `Send + Sync`, so one dictionary serves many
//! threads. It never changes frame bytes, and it stays out of equality
//! and `Debug`. A digest lives as long as the last clone of its
//! dictionary and costs about `4 * len + 4 * 2^hash_log` bytes (72–96
//! KiB for a 16 KiB dictionary and sub-KiB items). Decompression never
//! builds one.

use std::collections::HashSet;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::Arc;

/// Shared compression history plus an identifier carried in frames.
#[derive(Clone)]
pub struct Dictionary {
    data: Vec<u8>,
    id: u32,
    /// Match-finder digests, built lazily and shared by clones.
    state: Arc<lzkit::DictState>,
}

impl PartialEq for Dictionary {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data && self.id == other.id
    }
}

impl Eq for Dictionary {}

impl std::fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dictionary")
            .field("data", &self.data)
            .field("id", &self.id)
            .finish()
    }
}

impl Dictionary {
    /// Wraps raw dictionary content with an id.
    pub fn new(data: Vec<u8>, id: u32) -> Self {
        let state = Arc::new(lzkit::DictState::new(data.len()));
        Self { data, id, state }
    }

    /// The match-finder state of this dictionary's content.
    pub(crate) fn match_state(&self) -> &lzkit::DictState {
        &self.state
    }

    /// The dictionary content used as LZ history.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// The id carried in frames for mismatch detection.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Content size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the dictionary carries no content.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// K-mer width used for scoring.
const KMER: usize = 8;
/// Segment granularity of the trainer.
const SEGMENT: usize = 64;

/// The k-mer hash: one widening multiply, folded, under a key drawn
/// per training run. The trainer only counts k-mers and tests
/// membership, so what it trains does not depend on the hash. The
/// samples are client payloads, so the key keeps a sender from crafting
/// k-mers that collide (SipHash does the same for the standard maps, at
/// several times the cost per key).
#[derive(Clone, Copy)]
struct KmerHash {
    xor: u64,
    mul: u64,
}

impl KmerHash {
    fn new() -> Self {
        let keys = RandomState::new();
        Self {
            xor: keys.hash_one(1u64),
            mul: keys.hash_one(2u64) | 1,
        }
    }

    #[inline]
    fn mix(self, key: u64) -> u64 {
        let m = u128::from(key ^ self.xor) * u128::from(self.mul);
        (m as u64) ^ ((m >> 64) as u64)
    }
}

impl BuildHasher for KmerHash {
    type Hasher = KmerHasher;

    fn build_hasher(&self) -> KmerHasher {
        KmerHasher(*self, 0)
    }
}

/// [`KmerHash`] as a `Hasher`, for the selection pass's membership set.
struct KmerHasher(KmerHash, u64);

impl Hasher for KmerHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.1 = self.0.mix(self.1 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.1 = self.0.mix(key);
    }

    fn finish(&self) -> u64 {
        self.1
    }
}

fn kmer(w: &[u8]) -> u64 {
    u64::from_le_bytes(w.try_into().expect("window is KMER bytes"))
}

/// K-mers per partition the counting pass aims for: a partition's
/// table (16 bytes a slot, at most half full) then stays in L2.
const PART_TARGET: usize = 8192;
/// Most partitions the counting pass scatters into.
const MAX_PART_BITS: u32 = 10;
/// Most slots a partition's table starts with; it doubles past that.
/// Unit tests start small so that the doubling runs.
const TABLE_START_MAX: usize = if cfg!(test) { 64 } else { 4 * PART_TARGET };
/// Marks a window that lies in no segment's scoring range.
const UNSCORED: u32 = u32::MAX;

/// Scores every segment: the sum, over the k-mers wholly inside it, of
/// how often that k-mer occurs across all samples. Segment `i` of
/// sample `si` is score index `first_seg[si] + i`.
///
/// A map from every distinct k-mer to its count does not fit in cache
/// once the samples reach megabytes, and each of its lookups then
/// misses memory. So the windows are scattered by hash into partitions
/// first (two sequential passes), and each partition is counted and
/// scored in a small table of its own.
// indexing_slicing: `part_of` is below `parts`, `fill[part]` stays
// below `bounds[part + 1] <= windows`, table slots are masked, and a
// scored window's segment index is below `n_segs` by construction.
#[allow(clippy::indexing_slicing)]
fn segment_scores(
    samples: &[&[u8]],
    first_seg: &[usize],
    n_segs: usize,
    hash: KmerHash,
) -> Vec<u64> {
    let windows: usize = samples
        .iter()
        .map(|s| s.len().saturating_sub(KMER - 1))
        .sum();
    let part_bits = (windows / PART_TARGET)
        .next_power_of_two()
        .trailing_zeros()
        .min(MAX_PART_BITS);
    let parts = 1usize << part_bits;
    // Top hash bits pick the partition; low bits pick the table slot.
    let part_of = |h: u64| {
        if part_bits == 0 {
            0
        } else {
            (h >> (64 - part_bits)) as usize
        }
    };

    let mut bounds = vec![0usize; parts + 1];
    for &s in samples {
        for w in s.windows(KMER) {
            bounds[part_of(hash.mix(kmer(w))) + 1] += 1;
        }
    }
    for i in 0..parts {
        bounds[i + 1] += bounds[i];
    }
    let mut keys = vec![0u64; windows];
    let mut seg_of = vec![UNSCORED; windows];
    let mut fill = bounds.clone();
    for (si, &s) in samples.iter().enumerate() {
        for (pos, w) in s.windows(KMER).enumerate() {
            let key = kmer(w);
            let part = part_of(hash.mix(key));
            let at = fill[part];
            fill[part] += 1;
            keys[at] = key;
            // A window is scored in its segment when it ends inside it.
            if pos % SEGMENT + KMER <= SEGMENT {
                seg_of[at] =
                    u32::try_from(first_seg[si] + pos / SEGMENT).expect("fewer than 2^32 segments");
            }
        }
    }

    let mut scores = vec![0u64; n_segs];
    // Slots hold (k-mer, count); count 0 marks an empty slot. The table
    // doubles to stay at most half full, so a partition of few distinct
    // k-mers (long runs of one byte) stays small however many windows
    // it holds.
    let slot = |table: &[(u64, u32)], key: u64| {
        let mask = table.len() - 1;
        let mut i = hash.mix(key) as usize & mask;
        while table[i].1 != 0 && table[i].0 != key {
            i = (i + 1) & mask;
        }
        i
    };
    let mut table: Vec<(u64, u32)> = Vec::new();
    for part in 0..parts {
        let range = bounds[part]..bounds[part + 1];
        table.clear();
        table.resize(
            (2 * range.len())
                .clamp(16, TABLE_START_MAX)
                .next_power_of_two(),
            (0, 0),
        );
        let mut distinct = 0;
        for &key in &keys[range.clone()] {
            let mut i = slot(&table, key);
            if table[i].1 == 0 {
                distinct += 1;
                if 2 * distinct > table.len() {
                    let grown = vec![(0, 0); 2 * table.len()];
                    let old = std::mem::replace(&mut table, grown);
                    for (k, c) in old.into_iter().filter(|&(_, c)| c != 0) {
                        let j = slot(&table, k);
                        table[j] = (k, c);
                    }
                    i = slot(&table, key);
                }
            }
            table[i] = (key, table[i].1 + 1);
        }
        for (&key, &seg) in keys[range.clone()].iter().zip(&seg_of[range]) {
            if seg != UNSCORED {
                scores[seg as usize] += u64::from(table[slot(&table, key)].1);
            }
        }
    }
    scores
}

/// Trains a dictionary of at most `max_size` bytes from `samples`.
///
/// Deterministic for a given input. Samples shorter than the k-mer width
/// are ignored; if nothing scores, the result is an empty dictionary
/// (which codecs treat as plain history of length zero).
// indexing_slicing: segment ranges are clamped with
// `end = (start + SEGMENT).min(s.len())` before slicing, and
// `seg.sample` is an enumeration index of `samples`.
#[allow(clippy::indexing_slicing)]
pub fn train(samples: &[&[u8]], max_size: usize, id: u32) -> Dictionary {
    // Segments start every SEGMENT bytes while a whole k-mer fits.
    let mut first_seg = Vec::with_capacity(samples.len());
    let mut n_segs = 0;
    for s in samples {
        first_seg.push(n_segs);
        if s.len() >= KMER {
            n_segs += (s.len() - KMER) / SEGMENT + 1;
        }
    }
    let hash = KmerHash::new();
    let scores = segment_scores(samples, &first_seg, n_segs, hash);

    // A k-mer only counts once per selection run so the dictionary does
    // not fill up with copies of one hot segment.
    struct Seg {
        score: u64,
        sample: usize,
        start: usize,
    }
    let mut segs: Vec<Seg> = Vec::with_capacity(n_segs);
    for (si, &first) in first_seg.iter().enumerate() {
        let end = first_seg.get(si + 1).copied().unwrap_or(n_segs);
        for (i, &score) in scores[first..end].iter().enumerate() {
            segs.push(Seg {
                score,
                sample: si,
                start: i * SEGMENT,
            });
        }
    }
    drop(scores);
    // Deterministic order: by score descending, ties by (sample, start).
    segs.sort_by(|a, b| {
        b.score
            .cmp(&a.score)
            .then(a.sample.cmp(&b.sample))
            .then(a.start.cmp(&b.start))
    });

    let mut picked: Vec<&Seg> = Vec::new();
    // At most `max_size + SEGMENT` bytes are picked, each adding at most
    // one k-mer.
    let mut used: HashSet<u64, KmerHash> =
        HashSet::with_capacity_and_hasher(max_size + SEGMENT, hash);
    let mut total = 0usize;
    for seg in &segs {
        if total >= max_size {
            break;
        }
        let s = samples[seg.sample];
        let end = (seg.start + SEGMENT).min(s.len());
        let body = &s[seg.start..end];
        if body.len() < KMER {
            continue;
        }
        // Skip segments whose k-mers are mostly already covered.
        let fresh = body
            .windows(KMER)
            .filter(|w| !used.contains(&kmer(w)))
            .count();
        if fresh * 2 < body.len().saturating_sub(KMER) {
            continue;
        }
        used.extend(body.windows(KMER).map(kmer));
        picked.push(seg);
        total += body.len();
    }

    // Most valuable content last (shortest offsets from the input).
    let mut data = Vec::with_capacity(total.min(max_size));
    for seg in picked.iter().rev() {
        let s = samples[seg.sample];
        let end = (seg.start + SEGMENT).min(s.len());
        data.extend_from_slice(&s[seg.start..end]);
    }
    if data.len() > max_size {
        let cut = data.len() - max_size;
        data.drain(..cut);
    }
    Dictionary::new(data, id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zstdx::Zstdx;
    use crate::Compressor;

    fn typed_samples(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                format!(
                    "{{\"schema\":\"cache.item.v2\",\"shard\":{},\"payload\":\"user-profile-{}\",\"flags\":[\"hot\",\"replicated\"]}}",
                    i % 5,
                    i
                )
                .into_bytes()
            })
            .collect()
    }

    #[test]
    fn training_is_deterministic() {
        let samples = typed_samples(50);
        let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();
        let d1 = train(&refs, 2048, 9);
        let d2 = train(&refs, 2048, 9);
        assert_eq!(d1, d2);
        assert!(d1.len() <= 2048);
        assert!(!d1.is_empty());
    }

    #[test]
    fn trained_dict_improves_small_item_ratio() {
        let samples = typed_samples(200);
        let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();
        let dict = train(&refs[..100], 4096, 1);
        let c = Zstdx::new(3);
        let mut plain = 0usize;
        let mut with_dict = 0usize;
        for s in &refs[100..] {
            plain += c.compress(s).len();
            let enc = c.compress_with_dict(s, &dict);
            assert_eq!(c.decompress_with_dict(&enc, &dict).unwrap(), *s);
            with_dict += enc.len();
        }
        assert!(
            (with_dict as f64) < plain as f64 * 0.8,
            "dict {with_dict} should be well below plain {plain}"
        );
    }

    /// The scoring the trainer did before partitioned counting: one map
    /// of every k-mer's count, looked up again per scored window.
    fn reference_scores(samples: &[&[u8]]) -> Vec<u64> {
        let mut counts = std::collections::HashMap::new();
        for s in samples {
            for w in s.windows(KMER) {
                *counts.entry(kmer(w)).or_insert(0u32) += 1;
            }
        }
        let mut scores = Vec::new();
        for s in samples {
            let mut start = 0;
            while start + KMER <= s.len() {
                let end = (start + SEGMENT).min(s.len());
                scores.push(
                    s[start..end]
                        .windows(KMER)
                        .map(|w| u64::from(counts[&kmer(w)]))
                        .sum(),
                );
                start += SEGMENT;
            }
        }
        scores
    }

    #[test]
    fn partitioned_scores_match_map_scores() {
        let mut state = 0x9e37_79b9u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        // Lengths around the k-mer and segment edges, then enough bytes
        // from a small alphabet for several partitions with repeats.
        let mut samples: Vec<Vec<u8>> = [0usize, 1, 7, 8, 9, 63, 64, 65, 71, 72, 73, 128]
            .iter()
            .map(|&n| (0..n).map(|_| next(4) as u8).collect())
            .collect();
        for _ in 0..40 {
            let n = next(2000) as usize;
            samples.push((0..n).map(|_| b"abcdefgh"[next(8) as usize]).collect());
        }
        let refs: Vec<&[u8]> = samples.iter().map(Vec::as_slice).collect();
        for k in [1, 12, refs.len()] {
            let part = &refs[..k];
            let expected = reference_scores(part);
            let mut first_seg = Vec::new();
            let mut n_segs = 0;
            for s in part {
                first_seg.push(n_segs);
                if s.len() >= KMER {
                    n_segs += (s.len() - KMER) / SEGMENT + 1;
                }
            }
            assert_eq!(
                segment_scores(part, &first_seg, n_segs, KmerHash::new()),
                expected,
                "{k} samples"
            );
        }
    }

    #[test]
    fn digests_are_shared_by_clones_and_never_change_frames() {
        let samples = typed_samples(120);
        let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();
        let dict = train(&refs[..60], 4096, 3);
        let shown = format!("{dict:?}");
        let copy = dict.clone();
        assert!(Arc::ptr_eq(&dict.state, &copy.state));
        let c = Zstdx::new(3);
        // Warm the digests from two threads through the clones, then
        // compare with a dictionary that has never been digested.
        let frames: Vec<Vec<Vec<u8>>> = std::thread::scope(|s| {
            [&dict, &copy]
                .map(|d| {
                    s.spawn(|| {
                        refs[60..]
                            .iter()
                            .map(|x| c.compress_with_dict(x, d))
                            .collect()
                    })
                })
                .map(|h| h.join().unwrap())
                .into()
        });
        assert_eq!(frames[0], frames[1]);
        let fresh = Dictionary::new(dict.as_bytes().to_vec(), 3);
        for (x, f) in refs[60..].iter().zip(&frames[0]) {
            assert_eq!(&c.compress_with_dict(x, &fresh), f);
            assert_eq!(c.decompress_with_dict(f, &copy).unwrap(), *x);
        }
        assert_eq!(format!("{dict:?}"), shown);
        assert_eq!(dict, fresh);
    }

    #[test]
    fn empty_and_tiny_samples() {
        let d = train(&[], 1024, 0);
        assert!(d.is_empty());
        let d = train(&[&b"ab"[..]], 1024, 0);
        assert!(d.is_empty());
    }

    #[test]
    fn respects_max_size() {
        let samples = typed_samples(500);
        let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();
        for max in [64usize, 256, 1024, 16384] {
            assert!(train(&refs, max, 0).len() <= max);
        }
    }
}
