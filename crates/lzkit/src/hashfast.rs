//! Single-probe hash-table match finder (LZ4-style `Fast` strategy).
//!
//! One hash-table entry per bucket, greedy acceptance of any 4-byte
//! verified match, backward extension into pending literals, and LZ4's
//! skip acceleration on incompressible regions. This is the strategy
//! behind the low compression levels whose dominance the paper reports
//! in its fleet-level level-usage characterization (Figure 4).

use crate::dict::History;
use crate::params::MatchParams;
use crate::seq::{ParsedBlock, Sequence};
use crate::{hash4, match_length, read_u32};

/// How fast the skip stride grows over unmatched territory.
const SKIP_TRIGGER: u32 = 6;

pub(crate) fn parse(buf: &[u8], start: usize, p: &MatchParams, dict: impl History) -> ParsedBlock {
    let len = buf.len();
    let mut block = ParsedBlock::new();
    if len - start == 0 {
        return block;
    }

    let mut table = dict.head_table(p.hash_log);
    let max_offset = p.max_offset();
    // Number of positions where a 4-byte hash can be formed.
    let hash_limit = len.saturating_sub(3);

    // The table starts as the digest's head; load the history it does
    // not cover (the dictionary's last three positions, earlier frame
    // content).
    for pos in dict.len()..start.min(hash_limit) {
        table[hash4(buf, pos, p.hash_log)] = pos as u32;
    }

    let mut pos = start;
    let mut anchor = start;
    let mut searched: u32 = 0;
    // Repeat-offset preference, as in the chain finder: reusing the
    // previous offset is nearly free for the entropy stage.
    let mut last_offset = 0usize;

    while pos < hash_limit {
        let h = hash4(buf, pos, p.hash_log);
        let cand = table[h];
        table[h] = pos as u32;

        let mut matched = false;
        let rep_len = if p.rep_preference && last_offset > 0 && last_offset <= pos {
            match_length(buf, pos - last_offset, pos, len)
        } else {
            0
        };
        if rep_len >= p.min_match as usize {
            block.literals.extend_from_slice(&buf[anchor..pos]);
            block.sequences.push(Sequence::new(
                (pos - anchor) as u32,
                rep_len as u32,
                last_offset as u32,
            ));
            pos += rep_len;
            anchor = pos;
            searched = 0;
            continue;
        }
        if cand != u32::MAX {
            let c = cand as usize;
            if c < pos && pos - c <= max_offset && read_u32(buf, c) == read_u32(buf, pos) {
                let fwd = 4 + match_length(buf, c + 4, pos + 4, len);
                // Extend backward into pending literals.
                let mut back = 0usize;
                while pos - back > anchor && c > back && buf[pos - back - 1] == buf[c - back - 1] {
                    back += 1;
                }
                let mpos = pos - back;
                let mlen = fwd + back;
                if mlen >= p.min_match as usize {
                    block.literals.extend_from_slice(&buf[anchor..mpos]);
                    block.sequences.push(Sequence::new(
                        (mpos - anchor) as u32,
                        mlen as u32,
                        (pos - c) as u32,
                    ));
                    last_offset = pos - c;
                    pos += fwd;
                    anchor = pos;
                    searched = 0;
                    // Seed one interior position so adjacent repeats chain.
                    if pos >= 2 && pos - 2 >= start && pos - 2 < hash_limit {
                        table[hash4(buf, pos - 2, p.hash_log)] = (pos - 2) as u32;
                    }
                    matched = true;
                }
            }
        }
        if !matched {
            searched += 1;
            pos += 1 + (searched >> SKIP_TRIGGER) as usize;
        }
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

    fn params() -> MatchParams {
        MatchParams::new(Strategy::Fast)
    }

    #[test]
    fn finds_simple_repeat() {
        let data = b"0123456789_0123456789_0123456789";
        let block = parse(data, 0, &params().shrunk_for_input(data.len()), NoDict);
        assert_eq!(reconstruct(&block, &[]).unwrap(), data);
        // One overlapping match can cover both repeats; what matters is
        // that most of the data is matched, not literal.
        assert!(!block.sequences.is_empty());
        assert!(block.literals.len() <= data.len() / 2);
    }

    #[test]
    fn backward_extension_grabs_preceding_bytes() {
        // The hash probe lands mid-repeat; backward extension must still
        // recover the full second occurrence.
        let data = b"xyzw_abcdefgh_longer_abcdefgh_longer_tail";
        let block = parse(data, 0, &params().shrunk_for_input(data.len()), NoDict);
        assert_eq!(reconstruct(&block, &[]).unwrap(), data);
        let max_match = block
            .sequences
            .iter()
            .map(|s| s.match_len)
            .max()
            .unwrap_or(0);
        assert!(
            max_match >= 15,
            "expected full '_abcdefgh_longer' match, got {max_match}"
        );
    }

    #[test]
    fn run_compresses_via_overlap() {
        let data = vec![b'z'; 500];
        let block = parse(&data, 0, &params().shrunk_for_input(data.len()), NoDict);
        assert_eq!(reconstruct(&block, &[]).unwrap(), data);
        assert!(block.literals.len() < 16);
    }

    #[test]
    fn skip_acceleration_still_correct() {
        // Incompressible head followed by a compressible tail.
        let mut state = 42u64;
        let mut data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        data.extend(std::iter::repeat_n(b"pattern!", 64).flatten());
        let block = parse(&data, 0, &params().shrunk_for_input(data.len()), NoDict);
        assert_eq!(reconstruct(&block, &[]).unwrap(), data);
    }

    #[test]
    fn tiny_inputs_are_all_literals() {
        for data in [&b""[..], b"a", b"ab", b"abc"] {
            let block = parse(data, 0, &params().shrunk_for_input(data.len()), NoDict);
            assert_eq!(reconstruct(&block, &[]).unwrap(), data);
            assert!(block.sequences.is_empty());
        }
    }
}
