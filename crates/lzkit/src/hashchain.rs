//! Hash-chain match finder: `Greedy` and `Lazy` strategies.
//!
//! A classic zlib/zstd-style chain: `head[hash]` points at the most
//! recent position with that hash, `chain[pos & mask]` links to the
//! previous one. The lazy variant re-evaluates at `pos + 1` and defers
//! the current match when the next position offers a longer one — the
//! mid-level compression behaviour of real codecs.
//!
//! # Dictionary history
//!
//! With a [`Digest`](crate::dict::Digest) attached, positions below
//! `base` (the digested dictionary positions) are never inserted: the
//! head table starts as a copy of the digest's head, and their links
//! are read from the digest. Positions at or above `base` (the
//! dictionary's last three positions, earlier blocks of the frame, and
//! the input) are inserted as usual, into a chain sized for them alone.
//! The parse is the one a finder primed by inserting the dictionary
//! itself would make:
//!
//! * The head seen when inserting a local position is the latest
//!   earlier position with its hash: a local one if one was inserted
//!   (every local position is newer than every digested one), else the
//!   digest's.
//! * A link is read only for a candidate `c` that passed the window
//!   check `pos - c <= max_offset`, at a time when positions up to
//!   `pos` are inserted. A shared chain of size `S > max_offset` would
//!   have overwritten `c`'s slot only by inserting `c + k * S > pos`,
//!   which has not happened yet; so every link such a chain returns is
//!   the exact previous position with `c`'s hash, which is what the
//!   digest (for `c < base`) and the local chain (for `c >= base`,
//!   same argument with its own size) return. `S > max_offset` holds
//!   whenever `window_log <= 22`, the cap on the chain table below.

use crate::dict::History;
use crate::params::MatchParams;
use crate::seq::{ParsedBlock, Sequence};
use crate::{hash4, match_length};

pub(crate) struct ChainFinder<'b, H> {
    buf: &'b [u8],
    head: Vec<u32>,
    chain: Vec<u32>,
    chain_mask: usize,
    /// Digested dictionary history; positions below `dict.len()` are
    /// never inserted locally.
    dict: H,
    hash_log: u32,
    max_offset: usize,
    min_match: usize,
    target_length: usize,
    search_attempts: u32,
    /// Next position to insert into the tables.
    inserted: usize,
    /// Number of positions at which a 4-byte hash exists.
    hash_limit: usize,
}

impl<'b, H: History> ChainFinder<'b, H> {
    pub(crate) fn new(buf: &'b [u8], p: &MatchParams, dict: H) -> Self {
        let base = dict.len();
        // The chain table must cover the whole window: if positions
        // wrap within the window, newer inserts clobber live chain
        // links and the walk degrades to one or two hops. (zlib sizes
        // prev[] to exactly its window for the same reason.) Only local
        // positions live in it.
        let span = p.max_offset().min(buf.len() - base).max(2);
        let span_log = usize::BITS - (span - 1).leading_zeros();
        let chain_log = p.chain_log.max(span_log).clamp(1, 22);
        let chain_size = 1usize << chain_log;
        Self {
            buf,
            head: dict.head_table(p.hash_log),
            chain: vec![u32::MAX; chain_size],
            chain_mask: chain_size - 1,
            dict,
            hash_log: p.hash_log,
            max_offset: p.max_offset(),
            min_match: p.min_match as usize,
            target_length: p.target_length as usize,
            search_attempts: p.search_attempts.max(1),
            inserted: base,
            hash_limit: buf.len().saturating_sub(3),
        }
    }

    /// Inserts all positions up to and including `upto`.
    pub(crate) fn insert_through(&mut self, upto: usize) {
        while self.inserted <= upto && self.inserted < self.hash_limit {
            let pos = self.inserted;
            let h = hash4(self.buf, pos, self.hash_log);
            self.chain[pos & self.chain_mask] = self.head[h];
            self.head[h] = pos as u32;
            self.inserted += 1;
        }
    }

    /// Visits the candidates for the inserted position `pos` along its
    /// hash chain, nearest first, while they lie in the window and
    /// `search_attempts` last; stops early when `visit` returns false.
    /// Links of digested positions come from the digest, the others
    /// from the local chain; see the module docs for why neither ever
    /// returns an overwritten slot here.
    #[inline(always)]
    fn walk(&self, pos: usize, mut visit: impl FnMut(usize) -> bool) {
        // `pos` itself is the chain head after insertion; start at its
        // predecessor.
        let mut cand = self.chain[pos & self.chain_mask];
        let mut attempts = self.search_attempts;
        while cand != u32::MAX && attempts > 0 {
            let c = cand as usize;
            if c >= pos || pos - c > self.max_offset {
                break;
            }
            if !visit(c) {
                break;
            }
            let next = self.dict.link_or(c, self.chain[c & self.chain_mask]);
            // Stale-entry guard: chains must strictly decrease.
            if next != u32::MAX && next as usize >= c {
                break;
            }
            cand = next;
            attempts -= 1;
        }
    }

    /// Finds the best match at `pos`. Returns `(length, offset)`; length
    /// 0 means no acceptable match. Requires `pos` already inserted.
    #[inline(always)]
    pub(crate) fn best_match(&self, pos: usize) -> (usize, usize) {
        if pos >= self.hash_limit {
            return (0, 0);
        }
        let buf = self.buf;
        let len = buf.len();
        let mut best_len = self.min_match - 1;
        let mut best_off = 0usize;
        self.walk(pos, |c| {
            // Quick rejection: the byte that would extend the best match.
            if pos + best_len < len && buf[c + best_len] == buf[pos + best_len] {
                let l = match_length(buf, c, pos, len);
                // Offset-aware acceptance: a farther match must be enough
                // longer to pay for its extra offset bits (~4 bits of
                // entropy-coded output per matched byte).
                if l > best_len && 4 * (l - best_len) as i64 >= offset_bit_delta(pos - c, best_off)
                {
                    best_len = l;
                    best_off = pos - c;
                    if l >= self.target_length {
                        return false;
                    }
                }
            }
            true
        });
        if best_len >= self.min_match {
            (best_len, best_off)
        } else {
            (0, 0)
        }
    }

    /// Gathers up to `cap` candidates at `pos` with strictly increasing
    /// match lengths (closest-first along the chain, so each kept entry
    /// pairs a longer length with a larger offset). Used by the optimal
    /// parser.
    pub(crate) fn candidates(&self, pos: usize, cap: usize, out: &mut Vec<(u32, u32)>) {
        out.clear();
        if pos >= self.hash_limit || cap == 0 {
            return;
        }
        let buf = self.buf;
        let len = buf.len();
        let mut best_len = self.min_match - 1;
        self.walk(pos, |c| {
            if pos + best_len < len && buf[c + best_len] == buf[pos + best_len] {
                let l = match_length(buf, c, pos, len);
                if l > best_len {
                    best_len = l;
                    out.push((l as u32, (pos - c) as u32));
                }
            }
            out.len() < cap
        });
    }
}

/// Extra offset bits a candidate at `new_off` costs over `best_off`
/// (0 when there is no current best).
#[inline]
fn offset_bit_delta(new_off: usize, best_off: usize) -> i64 {
    if best_off == 0 {
        return 0;
    }
    let bits = |o: usize| (usize::BITS - o.leading_zeros()) as i64;
    bits(new_off) - bits(best_off)
}

pub(crate) fn parse(
    buf: &[u8],
    start: usize,
    p: &MatchParams,
    dict: impl History,
    lazy: bool,
) -> ParsedBlock {
    let len = buf.len();
    let mut block = ParsedBlock::new();
    if len - start == 0 {
        return block;
    }

    let mut finder = ChainFinder::new(buf, p, dict);
    if start > 0 {
        finder.insert_through(start - 1);
    }

    let mut pos = start;
    let mut anchor = start;
    // Repeat-offset preference: the entropy stage codes a repeated
    // offset almost for free, so a match at the previous offset wins
    // unless the chain finds one clearly longer (zstd's lazy matcher
    // applies the same rule).
    let mut last_offset = 0usize;
    while pos < finder.hash_limit {
        finder.insert_through(pos);
        // Rep check first: a long-enough repeat match short-circuits the
        // chain walk entirely (as in zstd), which also keeps degenerate
        // buckets — e.g. oceans of zero bytes — from dragging the search.
        let rep_len = if p.rep_preference && last_offset > 0 && last_offset <= pos {
            match_length(buf, pos - last_offset, pos, len)
        } else {
            0
        };
        let (mut mlen, mut moff);
        if rep_len >= finder.min_match.max(8).min(finder.target_length) {
            mlen = rep_len;
            moff = last_offset;
        } else {
            let found = finder.best_match(pos);
            mlen = found.0;
            moff = found.1;
            if rep_len >= finder.min_match && rep_len + 3 >= mlen {
                mlen = rep_len;
                moff = last_offset;
            }
        }
        if mlen == 0 {
            pos += 1;
            continue;
        }
        let mut mpos = pos;
        if lazy && pos + 1 < finder.hash_limit {
            finder.insert_through(pos + 1);
            let (l2, o2) = finder.best_match(pos + 1);
            // Deferring costs one literal; require a strictly longer match.
            if l2 > mlen {
                mlen = l2;
                moff = o2;
                mpos = pos + 1;
            }
        }

        // Backward extension into pending literals.
        let mut src = mpos - moff;
        let mut back = 0usize;
        while mpos - back > anchor && src > back && buf[mpos - back - 1] == buf[src - back - 1] {
            back += 1;
        }
        let mpos = mpos - back;
        src -= back;
        let mlen = mlen + back;
        debug_assert_eq!(mpos - src, moff);

        block.literals.extend_from_slice(&buf[anchor..mpos]);
        block.sequences.push(Sequence::new(
            (mpos - anchor) as u32,
            mlen as u32,
            moff as u32,
        ));
        last_offset = moff;
        // Index the interior of the match so later repeats are visible.
        finder.insert_through(mpos + mlen - 1);
        pos = mpos + mlen;
        anchor = pos;
    }

    block.literals.extend_from_slice(&buf[anchor..]);
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::NoDict;
    use crate::seq::reconstruct;
    use crate::Strategy;

    fn greedy() -> MatchParams {
        MatchParams::new(Strategy::Greedy)
    }

    fn lazy() -> MatchParams {
        MatchParams::new(Strategy::Lazy)
    }

    #[test]
    fn greedy_roundtrip() {
        let data = b"abcabcabcabc_then_something_else_abcabc";
        let block = parse(
            data,
            0,
            &greedy().shrunk_for_input(data.len()),
            NoDict,
            false,
        );
        assert_eq!(reconstruct(&block, &[]).unwrap(), data);
    }

    #[test]
    fn chain_finds_farther_better_match() {
        // A longer match sits farther back than the most recent chain
        // candidate; the walk must go past the near one. Lazy evaluation
        // is needed because a decoy match begins one position earlier.
        let data = b"match_longer_XXXX_match_lo_YYYY_match_longer_";
        let p = lazy().shrunk_for_input(data.len());
        let block = parse(data, 0, &p, NoDict, true);
        assert_eq!(reconstruct(&block, &[]).unwrap(), data);
        let max_match = block.sequences.iter().map(|s| s.match_len).max().unwrap();
        assert!(
            max_match >= 13,
            "expected 'match_longer_' match, got {max_match}"
        );
    }

    #[test]
    fn lazy_beats_greedy_on_crafted_input() {
        // At position p a 4-byte match exists, but p+1 starts a much
        // longer one. Greedy takes the short match and truncates the
        // long one; lazy defers.
        let data = b"abcd~~~~bcdefghijklmnop____abcdefghijklmnop";
        let pg = greedy().shrunk_for_input(data.len());
        let pl = lazy().shrunk_for_input(data.len());
        let g = parse(data, 0, &pg, NoDict, false);
        let l = parse(data, 0, &pl, NoDict, true);
        assert_eq!(reconstruct(&g, &[]).unwrap(), data);
        assert_eq!(reconstruct(&l, &[]).unwrap(), data);
        let cost = |b: &ParsedBlock| b.literals.len() + 3 * b.sequences.len();
        assert!(cost(&l) <= cost(&g));
    }

    #[test]
    fn respects_window_limit() {
        // Repeat separated by more than the window: no match allowed.
        let mut data = b"unique_prefix_0123456789".to_vec();
        data.extend(vec![b'.'; 2100]);
        data.extend_from_slice(b"unique_prefix_0123456789");
        let p = greedy().with_window_log(10); // 1 KiB window
        let block = parse(&data, 0, &p, NoDict, false);
        assert_eq!(reconstruct(&block, &[]).unwrap(), data);
        for s in &block.sequences {
            assert!(s.offset as usize <= 1 << 10);
        }
    }

    #[test]
    fn candidates_increasing_lengths() {
        let data = b"abcd_1_abcde_2_abcdef_3_abcdefg";
        let p = greedy().shrunk_for_input(data.len());
        let mut f = ChainFinder::new(data, &p, NoDict);
        f.insert_through(data.len());
        let pos = data.len() - 7; // final "abcdefg"
        let mut cands = Vec::new();
        f.candidates(pos, 8, &mut cands);
        assert!(!cands.is_empty());
        for w in cands.windows(2) {
            assert!(w[1].0 > w[0].0, "lengths must strictly increase");
            assert!(w[1].1 > w[0].1, "offsets must strictly increase");
        }
    }

    #[test]
    fn long_runs_terminate() {
        // Hash chains on runs are degenerate; target_length early exit
        // plus attempt caps must keep this fast and correct.
        let data = vec![0u8; 100_000];
        let block = parse(&data, 0, &lazy().shrunk_for_input(data.len()), NoDict, true);
        assert_eq!(reconstruct(&block, &[]).unwrap(), data);
        assert!(block.literals.len() < 64);
    }
}
