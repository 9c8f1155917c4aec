//! Price-based optimal parser (`Strategy::Optimal`).
//!
//! This is the "slow dynamic programming" end of the match-finding
//! spectrum the paper describes (§II-B). A forward pass gathers match
//! candidates at every position via the hash chain; a backward dynamic
//! program then picks, per position, the cheapest continuation under an
//! approximate bit-price model; a final forward walk materializes the
//! chosen sequences.
//!
//! The price model is deliberately simple (static literal price,
//! log-priced offsets and lengths): the point is the parse *shape* —
//! sacrificing a long match now for two cheaper ones later — not exact
//! entropy accounting.

use crate::dict::History;
use crate::hashchain::ChainFinder;
use crate::params::MatchParams;
use crate::seq::{ParsedBlock, Sequence};

/// Candidates kept per position.
const MAX_CANDIDATES: usize = 6;

/// When a candidate at least this long is found, candidate gathering
/// skips ahead (the DP will almost surely ride the long match); this
/// keeps the gathering pass near-linear on highly redundant data.
const SKIP_AFTER_LEN: u32 = 96;

/// Approximate price of one literal, in bits.
const LITERAL_PRICE: u32 = 6;

/// Length breakpoints at which match prices change; evaluating only
/// these keeps the DP near-linear while still letting it shorten
/// matches when profitable.
const LENGTH_BREAKS: [u32; 12] = [4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192];

#[inline]
fn match_price(len: u32, offset: u32, min_match: u32) -> u32 {
    let off_bits = 32 - offset.leading_zeros();
    let len_bits = 32 - (len - min_match + 1).leading_zeros();
    6 + off_bits + len_bits
}

pub(crate) fn parse(buf: &[u8], start: usize, p: &MatchParams, dict: impl History) -> ParsedBlock {
    let len = buf.len();
    let n = len - start;
    let mut block = ParsedBlock::new();
    if n == 0 {
        return block;
    }

    // Pass 1: gather candidates at every position.
    let mut finder = ChainFinder::new(buf, p, dict);
    let mut cands: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    let mut scratch = Vec::with_capacity(MAX_CANDIDATES);
    let mut i = 0usize;
    while i < n {
        let pos = start + i;
        finder.insert_through(pos);
        finder.candidates(pos, MAX_CANDIDATES, &mut scratch);
        let longest = scratch.last().map_or(0, |&(l, _)| l);
        cands[i] = scratch.clone();
        if longest >= SKIP_AFTER_LEN {
            // Keep the interior indexed but skip per-position gathering
            // until near the end of the long match.
            let skip = (longest - 16) as usize;
            finder.insert_through((pos + skip).min(buf.len()));
            i += skip;
        } else {
            i += 1;
        }
    }

    // Pass 2: backward DP. cost[i] = cheapest encoding of data[i..].
    let mut cost = vec![u32::MAX; n + 1];
    // choice[i]: (match_len, offset); match_len == 0 means literal.
    let mut choice = vec![(0u32, 0u32); n];
    cost[n] = 0;
    for i in (0..n).rev() {
        let mut best = cost[i + 1].saturating_add(LITERAL_PRICE);
        let mut pick = (0u32, 0u32);
        for &(clen, coff) in &cands[i] {
            let clen = clen.min((n - i) as u32);
            if clen < p.min_match {
                continue;
            }
            // Evaluate the full candidate length plus cheaper breakpoints.
            let full = cost[i + clen as usize].saturating_add(match_price(clen, coff, p.min_match));
            if full < best {
                best = full;
                pick = (clen, coff);
            }
            for &bl in &LENGTH_BREAKS {
                if bl >= clen || bl < p.min_match {
                    continue;
                }
                let c = cost[i + bl as usize].saturating_add(match_price(bl, coff, p.min_match));
                if c < best {
                    best = c;
                    pick = (bl, coff);
                }
            }
        }
        cost[i] = best;
        choice[i] = pick;
    }

    // Pass 3: forward walk materializing sequences.
    let mut i = 0usize;
    let mut lit_run = 0u32;
    while i < n {
        let (mlen, moff) = choice[i];
        if mlen == 0 {
            block.literals.push(buf[start + i]);
            lit_run += 1;
            i += 1;
        } else {
            block.sequences.push(Sequence::new(lit_run, mlen, moff));
            lit_run = 0;
            i += mlen as usize;
        }
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::NoDict;
    use crate::seq::reconstruct;
    use crate::Strategy;

    fn params() -> MatchParams {
        MatchParams::new(Strategy::Optimal)
    }

    #[test]
    fn roundtrip_structured() {
        let data: Vec<u8> = (0..500u32)
            .flat_map(|i| format!("row={},col={};", i % 40, i % 9).into_bytes())
            .collect();
        let block = parse(&data, 0, &params().shrunk_for_input(data.len()), NoDict);
        assert_eq!(reconstruct(&block, &[]).unwrap(), data);
        assert!(block.match_coverage() > 0.5);
    }

    #[test]
    fn roundtrip_with_history() {
        let dict = b"shared message schema: {id, name, payload}";
        let msg = b"shared message schema: {id, name, payload} plus extras";
        let mut buf = dict.to_vec();
        let start = buf.len();
        buf.extend_from_slice(msg);
        let block = parse(&buf, start, &params(), NoDict);
        assert_eq!(reconstruct(&block, dict).unwrap(), msg);
    }

    #[test]
    fn prefers_cheaper_parse_than_greedy_on_adversarial_input() {
        // Classic optimal-parse win: taking the greedy long match forces
        // an expensive continuation.
        let data = b"abcdefgh__cdefghijklmnoZZZabcdefghijklmno".to_vec();
        let o = parse(&data, 0, &params().shrunk_for_input(data.len()), NoDict);
        let g = crate::hashchain::parse(
            &data,
            0,
            &MatchParams::new(Strategy::Greedy).shrunk_for_input(data.len()),
            NoDict,
            false,
        );
        assert_eq!(reconstruct(&o, &[]).unwrap(), data);
        let price = |b: &ParsedBlock| {
            b.literals.len() as u32 * LITERAL_PRICE
                + b.sequences
                    .iter()
                    .map(|s| match_price(s.match_len, s.offset, 3))
                    .sum::<u32>()
        };
        assert!(price(&o) <= price(&g));
    }

    #[test]
    fn price_model_monotone() {
        // Longer matches and nearer offsets never price higher.
        assert!(match_price(4, 8, 3) <= match_price(4, 1000, 3));
        assert!(match_price(100, 8, 3) >= match_price(4, 8, 3));
        // But per-byte, long matches are far cheaper.
        assert!(match_price(100, 8, 3) < 25 * match_price(4, 8, 3));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for data in [&b""[..], b"x", b"xy", b"xyz"] {
            let block = parse(data, 0, &params().shrunk_for_input(data.len()), NoDict);
            assert_eq!(reconstruct(&block, &[]).unwrap(), data);
        }
    }
}
