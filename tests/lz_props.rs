//! Property-based tests for the match-finding substrate: every strategy
//! must produce a parse that reconstructs its input exactly, under any
//! parameters, with or without dictionary history.

use datacomp::lzkit::Strategy as LzStrategy;
use datacomp::lzkit::{parse, parse_with_dict, reconstruct, DictState, MatchParams};
use proptest::prelude::*;

const STRATEGIES: [LzStrategy; 4] = [
    LzStrategy::Fast,
    LzStrategy::Greedy,
    LzStrategy::Lazy,
    LzStrategy::Optimal,
];

/// Parses `input` after `dict` with the dictionary's digest attached
/// and checks the result against the reference: `parse` over the same
/// buffer, which primes fresh tables with the whole history on every
/// call. Also checks a second block that starts halfway through the
/// input, so history after the dictionary is in play too.
fn assert_attached_matches_primed(
    dict: &[u8],
    input: &[u8],
    params: &MatchParams,
    state: &DictState,
) {
    let mut buf = dict.to_vec();
    buf.extend_from_slice(input);
    for start in [dict.len(), dict.len() + input.len() / 2] {
        let attached = parse_with_dict(&buf, start, params, state);
        let primed = parse(&buf, start, params);
        assert_eq!(
            attached,
            primed,
            "{:?} dict {} B, input {} B, block at {start}",
            params.strategy,
            dict.len(),
            input.len()
        );
        assert_eq!(
            reconstruct(&attached, &buf[..start]).unwrap(),
            &buf[start..]
        );
    }
}

#[test]
fn dict_attached_parse_equals_primed_on_edge_lengths() {
    // Periodic content continues from the dictionary into the input, so
    // the nearest match at the first input positions starts in the
    // dictionary's last three positions, whose hashes read input bytes.
    let hashed: Vec<u8> = (0..16 * 1024u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 29) as u8)
        .collect();
    for period in [0usize, 1, 2, 3, 5] {
        let content: Vec<u8> = match period {
            0 => hashed.clone(),
            p => (0..16 * 1024 + 64).map(|i| b"vwxyz"[i % p]).collect(),
        };
        for strategy in STRATEGIES {
            let params = MatchParams::new(strategy);
            for dict_len in [0, 1, 2, 3, 4, 5, 16 * 1024] {
                let dict = &content[..dict_len];
                let state = DictState::new(dict.len());
                for input_len in [0, 1, 2, 3, 4, 64] {
                    let input = match period {
                        0 => &hashed[9000..9000 + input_len],
                        _ => &content[dict_len..dict_len + input_len],
                    };
                    assert_attached_matches_primed(dict, input, &params, &state);
                }
            }
        }
    }
}

#[test]
fn dict_state_serves_two_threads() {
    let dict: Vec<u8> = (0..8192u32)
        .map(|i| b"abcdefgh"[(i * i % 7) as usize])
        .collect();
    let state = DictState::new(dict.len());
    std::thread::scope(|s| {
        for t in 0..2u32 {
            let (dict, state) = (&dict, &state);
            s.spawn(move || {
                for (i, strategy) in STRATEGIES.into_iter().enumerate() {
                    // Input lengths on both sides of 1 KiB shrink the
                    // tables to different hash_logs of one state.
                    for len in [200 + 50 * t as usize, 3000] {
                        let input: Vec<u8> = dict[(i * 977 + len) % 4096..][..len]
                            .iter()
                            .map(|b| b ^ 1)
                            .collect();
                        let params = MatchParams::new(strategy);
                        assert_attached_matches_primed(dict, &input, &params, state);
                    }
                }
            });
        }
    });
}

fn any_strategy() -> impl Strategy<Value = LzStrategy> {
    prop_oneof![
        Just(LzStrategy::Fast),
        Just(LzStrategy::Greedy),
        Just(LzStrategy::Lazy),
        Just(LzStrategy::Optimal),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parse_reconstructs_exactly(
        data in proptest::collection::vec(0u8..16, 0..8192),
        strategy in any_strategy(),
        window_log in 10u32..=18,
    ) {
        let params = MatchParams::new(strategy).with_window_log(window_log);
        let block = parse(&data, 0, &params);
        prop_assert_eq!(reconstruct(&block, &[]).unwrap(), data);
    }

    #[test]
    fn parse_with_history_reconstructs(
        dict in proptest::collection::vec(0u8..8, 1..1024),
        data in proptest::collection::vec(0u8..8, 0..2048),
        strategy in any_strategy(),
    ) {
        let mut buf = dict.clone();
        let start = buf.len();
        buf.extend_from_slice(&data);
        let params = MatchParams::new(strategy);
        let block = parse(&buf, start, &params);
        prop_assert_eq!(reconstruct(&block, &dict).unwrap(), data);
    }

    #[test]
    fn dict_attached_parse_equals_primed_parse(
        dict in proptest::collection::vec(0u8..8, 0..16 * 1024),
        noise in proptest::collection::vec(0u8..8, 0..2048),
        cut in 0usize..16 * 1024,
        strategy in any_strategy(),
        window_log in 10u32..=18,
    ) {
        // Input: the dictionary's tail again (the nearest match of the
        // first positions starts in its last three positions), random
        // bytes, then a stretch of the dictionary, so matches reach
        // into it from near and far.
        let mut input = dict[dict.len().saturating_sub(cut % 8)..].to_vec();
        input.extend_from_slice(&noise);
        if !dict.is_empty() {
            let from = cut % dict.len();
            input.extend_from_slice(&dict[from..(from + 300).min(dict.len())]);
        }
        let params = MatchParams::new(strategy).with_window_log(window_log);
        let state = DictState::new(dict.len());
        // Short and long inputs against one state: two hash_logs.
        assert_attached_matches_primed(&dict, &input[..input.len().min(100)], &params, &state);
        assert_attached_matches_primed(&dict, &input, &params, &state);
    }

    #[test]
    fn offsets_respect_window(
        data in proptest::collection::vec(0u8..4, 256..4096),
        strategy in any_strategy(),
    ) {
        let params = MatchParams::new(strategy).with_window_log(10);
        let block = parse(&data, 0, &params);
        for seq in &block.sequences {
            prop_assert!(seq.offset as usize <= 1 << 10);
            prop_assert!(seq.match_len >= params.min_match);
        }
    }

    #[test]
    fn decoded_len_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        strategy in any_strategy(),
    ) {
        let block = parse(&data, 0, &MatchParams::new(strategy));
        prop_assert_eq!(block.decoded_len(), data.len());
    }
}
