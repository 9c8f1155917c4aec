//! `zstdx` — a Zstandard-like codec: LZ77, **Huffman-coded literals**,
//! and **FSE-coded sequences**.
//!
//! This is the codec the paper's fleet runs on (§III-B: Zstd takes 3.9
//! of the 4.6 fleet-wide compression cycle percent), and its structure
//! follows the zstd format:
//!
//! * frames carry an optional dictionary id and a content size;
//! * input is split into 128 KiB blocks; each block is stored raw, as
//!   RLE, or compressed;
//! * a compressed block has a *literals section* (raw / RLE / Huffman
//!   with a serialized table) and a *sequences section* (literal-length,
//!   match-length and offset codes, each under an FSE table that is
//!   either predefined, described in-band, or RLE, with remainders as
//!   raw extra bits in a single reverse-read bitstream);
//! * dictionaries act as LZ history shared out of band (§II-B).
//!
//! Levels −5..=19 map onto [`lzkit::MatchParams`]: negative levels
//! shrink tables for speed, 1–2 use the fast single-probe finder, 3–12
//! hash chains of growing depth, 13+ the optimal parser.

use std::time::Instant;

use entropy::bitio::{BitWriter, RevBitSrc, ReverseBitReader, ReverseBitReaderFast};
use entropy::fse::{FseDecoder, FseEncoder, FseTable};
use entropy::huffman::{HuffmanCode, HuffmanTable};
use lzkit::{MatchParams, ParsedBlock, Strategy};

use crate::codes::{
    ll_code, ll_extra, ml_code, ml_extra, of_code, of_extra, predefined_ll, predefined_ml,
    predefined_of, read_nibble_lengths, write_nibble_lengths, RepHistory, MAX_LL_CODE, MAX_ML_CODE,
    OF_ALPHABET, OF_REP_BASE,
};
use crate::dict::Dictionary;
use crate::timing::StageTiming;
use crate::varint::{write_varint, Cursor};
use crate::{CodecError, Compressor, DecodeLimits, Result, StreamPolicy};

/// Frame magic ("ZSXD").
pub(crate) const MAGIC: [u8; 4] = [0x5a, 0x53, 0x58, 0x44];
/// Maximum decoded bytes per block (as in zstd).
pub const BLOCK_SIZE: usize = 128 * 1024;
/// Format minimum match length.
const MIN_MATCH: u32 = 3;

/// Frame flag: a 4-byte XXH64 content checksum trails the blocks.
pub(crate) const FLAG_CHECKSUM: u8 = 2;
/// Frame flag: no content size; blocks carry a last-block marker
/// instead (streaming frames, see [`crate::stream`]).
pub(crate) const FLAG_STREAMING: u8 = 4;
/// Frame flag: at least one block uses the v4 multi-stream entropy
/// layout ([`LIT_HUFFMAN4`] literals and/or [`SEQ_PAIR_FLAG`]
/// sequences). Old decoders reject such frames up front instead of
/// tripping over an unknown literal mode mid-stream; frames without the
/// flag are byte-identical to pre-v4 encoders' output.
pub(crate) const FLAG_V4: u8 = 8;

pub(crate) const BLOCK_RAW: u8 = 0;
pub(crate) const BLOCK_RLE: u8 = 1;
pub(crate) const BLOCK_COMPRESSED: u8 = 2;
/// Block-type bit marking the final block of a streaming frame.
pub(crate) const BLOCK_LAST: u8 = 0x80;

const LIT_RAW: u8 = 0;
const LIT_RLE: u8 = 1;
const LIT_HUFFMAN: u8 = 2;
/// Huffman literals split into four independent substreams, decoded
/// with four interleaved cursors (v4 frames only).
const LIT_HUFFMAN4: u8 = 3;

const MODE_PREDEFINED: u8 = 0;
const MODE_FSE: u8 = 1;
const MODE_RLE: u8 = 2;

/// Modes-byte bit: the sequence bitstream interleaves *six* FSE states
/// (two per code lane) instead of three, decoding two sequences per
/// round (v4 frames only). Bit 7 stays reserved and is rejected.
const SEQ_PAIR_FLAG: u8 = 0x40;

/// The Zstandard-like compressor. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Zstdx {
    level: i32,
    params: MatchParams,
    checksum: bool,
    rep_offsets: bool,
    streams: StreamPolicy,
}

impl Zstdx {
    /// Creates a compressor at `level` (clamped to -5..=19), with frame
    /// content checksums enabled.
    pub fn new(level: i32) -> Self {
        let level = level.clamp(-5, 19);
        Self {
            level,
            params: level_params(level),
            checksum: true,
            rep_offsets: true,
            streams: StreamPolicy::default(),
        }
    }

    /// Builder-style multi-stream entropy policy
    /// ([`StreamPolicy::Auto`] by default). `Single` pins the legacy
    /// one-stream layout (frames stay byte-identical to pre-v4
    /// encoders); `Quad` forces the split even below the size
    /// thresholds, which exists for tests and benchmarks.
    pub fn with_stream_policy(mut self, streams: StreamPolicy) -> Self {
        self.streams = streams;
        self
    }

    /// Builder-style checksum toggle (`true` by default). Frames written
    /// without a checksum decode everywhere; the flag only controls
    /// whether new frames carry one.
    pub fn with_checksum(mut self, checksum: bool) -> Self {
        self.checksum = checksum;
        self
    }

    /// Builder-style repeat-offset toggle (`true` by default). Disabling
    /// turns off both the rep-aware parse preference and the rep codes,
    /// so every offset is found neutrally and coded literally — the
    /// ablation knob for measuring how much of zstdx's ratio comes from
    /// the repeat-offset mechanism. Frames remain decodable either way.
    pub fn with_rep_offsets(mut self, rep_offsets: bool) -> Self {
        self.rep_offsets = rep_offsets;
        self.params.rep_preference = rep_offsets;
        self
    }

    /// The match-finding parameters this level maps to.
    pub fn params(&self) -> &MatchParams {
        &self.params
    }

    /// Creates a compressor with explicit match parameters (used by
    /// `compopt`'s CompSim to model hardware with a restricted window).
    pub fn with_params(level: i32, params: MatchParams) -> Self {
        Self {
            level,
            params,
            checksum: true,
            rep_offsets: true,
            streams: StreamPolicy::default(),
        }
    }

    /// Compresses while separately timing the match-finding and entropy
    /// stages — the split the paper reports for warehouse services in
    /// Figure 7.
    pub fn compress_timed(&self, src: &[u8]) -> (Vec<u8>, StageTiming) {
        let mut timing = StageTiming::default();
        let start = Instant::now();
        let out = self.compress_impl(src, None, Some(&mut timing));
        timing.total = start.elapsed();
        crate::obs::record_compress("zstdx", self.level, src.len(), out.len(), start);
        (out, timing)
    }

    /// [`Self::compress_timed`] with a shared dictionary as LZ history —
    /// so dictionary-backed services (the paper's caching study, Figures
    /// 10–11) report the same match-find/entropy stage split as the
    /// plain path instead of zeros.
    pub fn compress_with_dict_timed(
        &self,
        src: &[u8],
        dict: &Dictionary,
    ) -> (Vec<u8>, StageTiming) {
        let mut timing = StageTiming::default();
        let start = Instant::now();
        let out = self.compress_impl(src, Some(dict), Some(&mut timing));
        timing.total = start.elapsed();
        crate::obs::record_compress("zstdx", self.level, src.len(), out.len(), start);
        (out, timing)
    }

    /// Whether `frame` is a zstdx frame declaring a trailing content
    /// checksum. Callers that retry a dictionary miss with *rebound*
    /// dictionary content (same bytes, different id) use the checksum
    /// as the correctness guard, so only checksummed frames are
    /// eligible for that fan-out.
    pub fn frame_has_checksum(frame: &[u8]) -> bool {
        frame.get(..MAGIC.len()).is_some_and(|m| m == MAGIC)
            && frame
                .get(MAGIC.len())
                .is_some_and(|f| f & FLAG_CHECKSUM != 0)
    }

    fn compress_impl(
        &self,
        src: &[u8],
        dict: Option<&Dictionary>,
        mut timing: Option<&mut StageTiming>,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(src.len() / 2 + 32);
        out.extend_from_slice(&MAGIC);
        let mut flags = u8::from(dict.is_some());
        if self.checksum {
            flags |= FLAG_CHECKSUM;
        }
        out.push(flags);
        write_varint(&mut out, src.len() as u64);
        if let Some(d) = dict {
            out.extend_from_slice(&d.id().to_le_bytes());
        }

        // The working buffer is dictionary content followed by the whole
        // input (the input alone without a dictionary); blocks parse
        // with growing history.
        let joined: Vec<u8>;
        let (buf, base): (&[u8], usize) = match dict {
            Some(d) => {
                joined = [d.as_bytes(), src].concat();
                (&joined, d.len())
            }
            None => (src, 0),
        };
        let dict_state = dict.map(Dictionary::match_state);

        let mut start = base;
        let mut any_v4 = false;
        while start < buf.len() {
            let end = (start + BLOCK_SIZE).min(buf.len());
            any_v4 |= write_block_opts(
                buf,
                start,
                end,
                &self.params,
                dict_state,
                false,
                self.rep_offsets,
                self.streams,
                &mut out,
                timing.as_deref_mut(),
            );
            start = end;
        }
        // The flag byte is patched after the fact: only frames that
        // actually contain a v4 block advertise the format, so
        // sub-threshold output stays byte-identical to older encoders.
        if any_v4 {
            if let Some(f) = out.get_mut(MAGIC.len()) {
                *f |= FLAG_V4;
            }
        }
        if self.checksum {
            out.extend_from_slice(&crate::xxhash::content_checksum(src).to_le_bytes());
        }
        out
    }
}

/// Compresses `buf[start..end]` (with `buf[..start]` as history) into one
/// block, choosing raw/RLE/compressed representation. `last` sets the
/// streaming last-block marker.
pub(crate) fn write_block(
    buf: &[u8],
    start: usize,
    end: usize,
    params: &MatchParams,
    last: bool,
    out: &mut Vec<u8>,
    timing: Option<&mut StageTiming>,
) {
    // Single-stream on purpose: this entry point serves frame writers
    // (parallel, streaming) whose headers are not patched with
    // [`FLAG_V4`], so the blocks they embed must stay legacy-layout.
    let _ = write_block_opts(
        buf,
        start,
        end,
        params,
        None,
        last,
        true,
        StreamPolicy::Single,
        out,
        timing,
    );
}

/// [`write_block`] with the dictionary's match-finder state (when
/// `buf` starts with that dictionary), the repeat-offset ablation knob
/// and the multi-stream policy exposed. Returns whether the written
/// block uses the v4 layout (the caller must then set [`FLAG_V4`] in
/// its frame header).
// indexing_slicing: encode side — `start <= end <= buf.len()` is the
// frame writer's block-split invariant, and `data[0]` sits behind the
// `data.len() >= 2` RLE check.
#[allow(clippy::indexing_slicing)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_block_opts(
    buf: &[u8],
    start: usize,
    end: usize,
    params: &MatchParams,
    dict: Option<&lzkit::DictState>,
    last: bool,
    use_reps: bool,
    policy: StreamPolicy,
    out: &mut Vec<u8>,
    timing: Option<&mut StageTiming>,
) -> bool {
    {
        let last_bit = if last { BLOCK_LAST } else { 0 };
        let data = &buf[start..end];
        // RLE block: the whole block is one byte value.
        if data.len() >= 2 && data.iter().all(|&b| b == data[0]) {
            out.push(BLOCK_RLE | last_bit);
            write_varint(out, data.len() as u64);
            write_varint(out, 1);
            out.push(data[0]);
            return false;
        }

        let mf_start = Instant::now();
        let parse = |p: &MatchParams| match dict {
            Some(d) => lzkit::parse_with_dict(&buf[..end], start, p, d),
            None => lzkit::parse(&buf[..end], start, p),
        };
        let parsed = parse(params);
        // The optimal parser prices offsets without repeat-offset
        // awareness; at the highest levels, also try a rep-friendly lazy
        // parse (moderate search depth, early target exit — deep
        // searches ratchet toward far offsets and break rep chains) and
        // keep whichever encodes smaller (multi-parse).
        let alt = (params.strategy == lzkit::Strategy::Optimal).then(|| {
            let lazy = lzkit::MatchParams {
                strategy: lzkit::Strategy::Lazy,
                search_attempts: params.search_attempts.min(24),
                target_length: 160,
                ..*params
            };
            parse(&lazy)
        });
        let mf_elapsed = mf_start.elapsed();

        let ent_start = Instant::now();
        let (mut payload, mut used_v4) = encode_block_payload_opts(&parsed, use_reps, policy);
        if let Some(alt_parsed) = alt {
            let (alt_payload, alt_v4) = encode_block_payload_opts(&alt_parsed, use_reps, policy);
            if alt_payload.len() < payload.len() {
                payload = alt_payload;
                used_v4 = alt_v4;
            }
        }
        let ent_elapsed = ent_start.elapsed();
        if let Some(t) = timing {
            t.match_find += mf_elapsed;
            t.entropy += ent_elapsed;
            t.blocks += 1;
        }
        let reg = telemetry::global();
        telemetry::record_stage(reg, "zstdx.match_find", &[], mf_start, mf_elapsed);
        telemetry::record_stage(reg, "zstdx.entropy", &[], ent_start, ent_elapsed);

        if payload.len() < data.len() {
            out.push(BLOCK_COMPRESSED | last_bit);
            write_varint(out, data.len() as u64);
            write_varint(out, payload.len() as u64);
            out.extend_from_slice(&payload);
            used_v4
        } else {
            out.push(BLOCK_RAW | last_bit);
            write_varint(out, data.len() as u64);
            write_varint(out, data.len() as u64);
            out.extend_from_slice(data);
            false
        }
    }
}

impl Zstdx {
    /// Reference decode path: byte-at-a-time bit reads, single-symbol
    /// Huffman lookups, and checked match copies. Semantically identical
    /// to [`Compressor::decompress_limited`] — the differential suite
    /// pins the two engines against each other.
    ///
    /// # Errors
    ///
    /// Same as [`Compressor::decompress_limited`].
    pub fn decompress_reference(&self, src: &[u8], limits: &DecodeLimits) -> Result<Vec<u8>> {
        self.decompress_impl::<false>(src, None, limits)
    }

    #[deny(clippy::indexing_slicing)]
    fn decompress_impl<const FAST: bool>(
        &self,
        src: &[u8],
        dict: Option<&Dictionary>,
        limits: &DecodeLimits,
    ) -> Result<Vec<u8>> {
        let mut c = Cursor::new(src);
        if c.read_slice(4)? != MAGIC {
            return Err(CodecError::BadFrame("zstdx magic mismatch"));
        }
        let flags = c.read_u8()?;
        let content = if flags & FLAG_STREAMING != 0 {
            0
        } else {
            c.read_varint()? as usize
        };
        if content > crate::MAX_CONTENT_SIZE {
            return Err(CodecError::BadFrame("content size implausible"));
        }
        limits.check_output(content)?;
        if flags & 1 != 0 {
            let want = c.read_u32()?;
            match dict {
                Some(d) if d.id() == want => {}
                other => {
                    return Err(CodecError::UnknownDictVersion {
                        expected: want,
                        got: other.map(|d| d.id()),
                    })
                }
            }
        }

        let base = dict.map_or(0, |d| d.as_bytes().len());
        let mut out =
            Vec::with_capacity(base + crate::initial_capacity(content, src.len(), limits));
        if let Some(d) = dict {
            out.extend_from_slice(d.as_bytes());
        }
        let has_checksum = flags & FLAG_CHECKSUM != 0;
        let streaming = flags & FLAG_STREAMING != 0;
        let v4 = flags & FLAG_V4 != 0;
        let end_target = base + content;
        let mut saw_last = false;
        while if streaming {
            !saw_last
        } else {
            out.len() < end_target
        } {
            let type_byte = c.read_u8()?;
            let block_type = type_byte & !BLOCK_LAST;
            let is_last = type_byte & BLOCK_LAST != 0;
            saw_last = is_last;
            let decoded = c.read_varint()? as usize;
            let payload_len = c.read_varint()? as usize;
            if streaming {
                // Streaming frames carry no declared content size, so the
                // caller's budget is the only bound on accumulation.
                limits.check_output((out.len() - base).saturating_add(decoded))?;
            }
            let size_ok = if streaming {
                decoded <= BLOCK_SIZE && (decoded > 0 || is_last)
            } else {
                decoded > 0 && decoded <= BLOCK_SIZE && out.len() + decoded <= end_target
            };
            if !size_ok {
                return Err(c.corrupt("zstdx bad block size"));
            }
            if decoded == 0 {
                continue;
            }
            let payload = c.read_slice(payload_len)?;
            match block_type {
                BLOCK_RAW => {
                    if payload.len() != decoded {
                        return Err(c.corrupt("zstdx raw block size mismatch"));
                    }
                    out.extend_from_slice(payload);
                }
                BLOCK_RLE => {
                    let b = *payload.first().ok_or(c.corrupt("zstdx empty rle"))?;
                    out.resize(out.len() + decoded, b);
                }
                BLOCK_COMPRESSED => decode_block_payload::<FAST>(payload, &mut out, decoded, v4)
                    .map_err(|e| e.rebase(c.position().saturating_sub(payload_len)))?,
                _ => return Err(c.corrupt("zstdx bad block type")),
            }
        }
        if has_checksum {
            let want = c.read_u32()?;
            let got = crate::xxhash::content_checksum(out.get(base..).unwrap_or(&[]));
            if want != got {
                return Err(CodecError::ChecksumMismatch {
                    expected: want,
                    got,
                });
            }
        }
        out.drain(..base);
        Ok(out)
    }
}

pub(crate) fn level_params(level: i32) -> MatchParams {
    let (strategy, window_log, hash_log, attempts, target, min_match) = match level {
        i32::MIN..=-1 => {
            // Negative levels: progressively smaller tables, faster.
            let shrink = (-level).min(5) as u32;
            (Strategy::Fast, 17 - shrink.min(3), 15 - shrink, 1, 8, 4)
        }
        0 | 1 => (Strategy::Fast, 18, 15, 1, 12, 4),
        2 => (Strategy::Fast, 18, 16, 1, 16, 4),
        3 => (Strategy::Greedy, 19, 16, 4, 24, 3),
        4 => (Strategy::Greedy, 19, 17, 8, 32, 3),
        5 => (Strategy::Lazy, 20, 17, 6, 48, 3),
        6 => (Strategy::Lazy, 20, 17, 8, 64, 3),
        7 => (Strategy::Lazy, 21, 17, 12, 96, 3),
        8 => (Strategy::Lazy, 21, 17, 16, 128, 3),
        9 => (Strategy::Lazy, 21, 18, 24, 160, 3),
        10 => (Strategy::Lazy, 21, 18, 32, 224, 3),
        11 => (Strategy::Lazy, 22, 18, 48, 320, 3),
        12 => (Strategy::Lazy, 22, 18, 64, 512, 3),
        13 => (Strategy::Optimal, 22, 18, 16, 256, 3),
        14 => (Strategy::Optimal, 22, 18, 24, 384, 3),
        15 => (Strategy::Optimal, 22, 18, 32, 512, 3),
        16 => (Strategy::Optimal, 22, 18, 48, 768, 3),
        17 => (Strategy::Optimal, 22, 18, 64, 1024, 3),
        18 => (Strategy::Optimal, 22, 18, 96, 2048, 3),
        _ => (Strategy::Optimal, 22, 18, 128, 4096, 3),
    };
    MatchParams {
        window_log,
        hash_log,
        chain_log: window_log.min(17),
        search_attempts: attempts,
        min_match,
        target_length: target,
        rep_preference: true,
        strategy,
    }
}

/// Per-stream FSE table selection.
enum TableChoice {
    Predefined(&'static FseTable),
    Described(FseTable),
    Rle(u8, FseTable),
}

impl TableChoice {
    fn table(&self) -> &FseTable {
        match self {
            TableChoice::Predefined(t) => t,
            TableChoice::Described(t) => t,
            TableChoice::Rle(_, t) => t,
        }
    }

    fn mode(&self) -> u8 {
        match self {
            TableChoice::Predefined(_) => MODE_PREDEFINED,
            TableChoice::Described(_) => MODE_FSE,
            TableChoice::Rle(..) => MODE_RLE,
        }
    }
}

// indexing_slicing: `norm` is sized `max(alphabet, code + 1)`.
#[allow(clippy::indexing_slicing)]
fn single_symbol_table(code: u8, alphabet: usize) -> FseTable {
    let mut norm = vec![0u32; alphabet.max(code as usize + 1)];
    norm[code as usize] = 32;
    FseTable::from_normalized(&norm, 5).expect("single-symbol table always builds")
}

// indexing_slicing: encode side — callers pass non-empty `codes` drawn
// from the `ll/ml/of` code spaces, all `< alphabet`.
#[allow(clippy::indexing_slicing)]
fn choose_table(codes: &[u8], predefined: &'static FseTable, alphabet: usize) -> TableChoice {
    debug_assert!(!codes.is_empty());
    let first = codes[0];
    if codes.iter().all(|&c| c == first) {
        return TableChoice::Rle(first, single_symbol_table(first, alphabet));
    }
    let mut freq = vec![0u32; alphabet];
    for &c in codes {
        freq[c as usize] += 1;
    }
    // Estimated cost under the predefined distribution. Zero-frequency
    // symbols are skipped: 0 * inf would poison the sum with NaN.
    let predef_bits: f64 = freq
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f > 0)
        .map(|(s, &f)| f as f64 * predefined.symbol_cost_bits(s as u16))
        .sum();
    // A described table only pays off with enough sequences to amortize
    // its description.
    if codes.len() < 48 {
        return TableChoice::Predefined(predefined);
    }
    match FseTable::from_frequencies(&freq, 9, codes.len()) {
        Ok(t) => {
            let own_bits: f64 = freq
                .iter()
                .enumerate()
                .filter(|&(_, &f)| f > 0)
                .map(|(s, &f)| f as f64 * t.symbol_cost_bits(s as u16))
                .sum();
            let mut desc = Vec::new();
            t.write_description(&mut desc);
            if own_bits + desc.len() as f64 * 8.0 + 16.0 < predef_bits {
                TableChoice::Described(t)
            } else {
                TableChoice::Predefined(predefined)
            }
        }
        Err(_) => TableChoice::Predefined(predefined),
    }
}

/// Minimum literal-section size at which [`StreamPolicy::Auto`] splits
/// Huffman literals into four substreams: below this the per-stream
/// size words and ramp-up cost more than the decode parallelism buys.
const AUTO_LIT_SPLIT: usize = 1024;
/// Minimum literal share of the decoded block (in percent) at which
/// [`StreamPolicy::Auto`] splits literals. Like zlibx's gate: the
/// four-stream layout parallelizes literal decode, so on match-dominated
/// blocks (mixed-corpus classes sit at <= 15% literal share) the split
/// pays stream-header and ramp-up costs for a section that is not on
/// the critical path, measuring as a small end-to-end decode loss.
/// Literal-dominated blocks (Binary class, >= 98%) win outright.
const AUTO_LIT_PERCENT: usize = 50;
/// Minimum sequence count at which [`StreamPolicy::Auto`] switches to
/// the paired six-state FSE layout. [`StreamPolicy::Auto`] never selects
/// it: measured end-to-end decode on every sequence-heavy corpus class is
/// 2-7% *slower* paired (the two interleaved triples contend for the same
/// bit reservoir, and unlike the literal streams there is no independent
/// second source to overlap), so pairing is reachable only through an
/// explicit [`StreamPolicy::Quad`].
const QUAD_SEQ_PAIR: usize = 2;

/// Whether the literals section takes the four-substream layout under
/// `policy`, for `lits` literal bytes in a block decoding to `decoded`.
fn splits_literals(policy: StreamPolicy, lits: usize, decoded: usize) -> bool {
    match policy {
        StreamPolicy::Single => false,
        StreamPolicy::Quad => lits >= 4,
        StreamPolicy::Auto => lits >= AUTO_LIT_SPLIT && lits * 100 >= decoded * AUTO_LIT_PERCENT,
    }
}

/// Bytes charged for the serialized literal code: the nibble-packed
/// lengths of the 256-symbol byte alphabet.
const LIT_TABLE_BYTES: usize = 128;

/// Estimated Huffman literal-section size past the table and the coded
/// bits: a size word, plus (four substreams) three more size words and
/// up to three bytes of per-stream padding.
fn lit_section_overhead(four: bool) -> usize {
    if four {
        24
    } else {
        8
    }
}

/// A literal code together with its serialized description.
type LiteralCode = (Vec<u8>, HuffmanCode);

/// Builds the literal Huffman code and keeps it when the estimated
/// section undercuts the raw literals.
fn build_literal_code(lits: &[u8], four: bool) -> Option<LiteralCode> {
    let freqs = entropy::hist::byte_histogram(lits);
    let code = HuffmanCode::build(&freqs, 11)?;
    let bits = code.encoded_bits(&freqs) as usize;
    let estimated = LIT_TABLE_BYTES + bits.div_ceil(8) + lit_section_overhead(four);
    (estimated < lits.len()).then(|| {
        let mut desc = Vec::with_capacity(estimated);
        write_nibble_lengths(&mut desc, code.lengths());
        (desc, code)
    })
}

/// [`build_literal_code`] behind a lower bound: every literal costs at
/// least one bit, so when even `ceil(n / 8)` payload bytes would not
/// undercut `n` raw literals, no code can pay and none is built. The
/// outcome — and so the frame — is the same as building and rejecting.
fn literal_code(lits: &[u8], four: bool) -> Option<LiteralCode> {
    let floor = LIT_TABLE_BYTES + lits.len().div_ceil(8) + lit_section_overhead(four);
    if floor >= lits.len() {
        return None;
    }
    build_literal_code(lits, four)
}

/// Writes the literals section (raw, RLE, or Huffman with `code`'s
/// result in one or four substreams). Returns whether it used the v4
/// four-stream layout.
// indexing_slicing: encode side — `lits[0]` sits behind the non-empty
// branch.
#[allow(clippy::indexing_slicing)]
fn write_literals(
    out: &mut Vec<u8>,
    lits: &[u8],
    four: bool,
    code: impl FnOnce() -> Option<LiteralCode>,
) -> bool {
    if lits.is_empty() {
        out.push(LIT_RAW);
        write_varint(out, 0);
        return false;
    }
    if lits.iter().all(|&b| b == lits[0]) {
        out.push(LIT_RLE);
        write_varint(out, lits.len() as u64);
        out.push(lits[0]);
        return false;
    }
    match code() {
        Some((table_desc, code)) if four => {
            out.push(LIT_HUFFMAN4);
            write_varint(out, lits.len() as u64);
            out.extend_from_slice(&table_desc);
            let streams = code.encode_4stream(lits);
            for s in &streams {
                write_varint(out, s.len() as u64);
            }
            for s in &streams {
                out.extend_from_slice(s);
            }
            true
        }
        Some((table_desc, code)) => {
            let body = code.encode(lits);
            out.push(LIT_HUFFMAN);
            write_varint(out, lits.len() as u64);
            out.extend_from_slice(&table_desc);
            write_varint(out, body.len() as u64);
            out.extend_from_slice(&body);
            false
        }
        None => {
            out.push(LIT_RAW);
            write_varint(out, lits.len() as u64);
            out.extend_from_slice(lits);
            false
        }
    }
}

// indexing_slicing: encode side — the per-sequence arrays
// (`llc`/`mlc`/`ofc`) are built with one entry per `parsed.sequences`
// element, so index `i < n` is valid for all four.
#[allow(clippy::indexing_slicing)]
fn encode_block_payload_opts(
    parsed: &ParsedBlock,
    use_reps: bool,
    policy: StreamPolicy,
) -> (Vec<u8>, bool) {
    let mut out = Vec::with_capacity(parsed.literals.len() / 2 + 64);

    // --- Literals section ---
    let lits = &parsed.literals;
    // Decoded block length: literals plus every match's expansion.
    let decoded: usize = lits.len()
        + parsed
            .sequences
            .iter()
            .map(|s| s.match_len as usize)
            .sum::<usize>();
    let four = splits_literals(policy, lits.len(), decoded);
    let mut used_v4 = write_literals(&mut out, lits, four, || literal_code(lits, four));

    // --- Sequences section ---
    let n = parsed.sequences.len();
    write_varint(&mut out, n as u64);
    if n == 0 {
        return (out, used_v4);
    }

    let llc: Vec<u8> = parsed
        .sequences
        .iter()
        .map(|s| ll_code(s.literal_len))
        .collect();
    let mlc: Vec<u8> = parsed
        .sequences
        .iter()
        .map(|s| ml_code(s.match_len - MIN_MATCH))
        .collect();
    // Offset codes evolve with the repeat-offset history (forward order).
    let mut reps = RepHistory::default();
    let ofc: Vec<u8> = parsed
        .sequences
        .iter()
        .map(|s| {
            let rep = reps.encode(s.offset);
            if use_reps {
                rep.unwrap_or_else(|| of_code(s.offset))
            } else {
                of_code(s.offset)
            }
        })
        .collect();

    let ll_choice = choose_table(&llc, predefined_ll(), MAX_LL_CODE as usize + 1);
    let ml_choice = choose_table(&mlc, predefined_ml(), MAX_ML_CODE as usize + 1);
    let of_choice = choose_table(&ofc, predefined_of(), OF_ALPHABET);

    let paired = match policy {
        StreamPolicy::Single | StreamPolicy::Auto => false,
        StreamPolicy::Quad => n >= QUAD_SEQ_PAIR,
    };
    used_v4 |= paired;
    let pair_bit = if paired { SEQ_PAIR_FLAG } else { 0 };
    out.push(ll_choice.mode() | (ml_choice.mode() << 2) | (of_choice.mode() << 4) | pair_bit);
    for choice in [&ll_choice, &ml_choice, &of_choice] {
        match choice {
            TableChoice::Predefined(_) => {}
            TableChoice::Described(t) => t.write_description(&mut out),
            TableChoice::Rle(code, _) => out.push(*code),
        }
    }

    // Reverse-order interleaved bitstream; see the decoders for the
    // forward read order these mirror.
    let mut w = BitWriter::with_capacity(n);
    if paired {
        // Six states over the three shared tables: lane pair 0 carries
        // even sequences, lane pair 1 odd ones. Written in exact
        // reverse of the decoder's read order — the odd tail (read
        // last) goes first, then pairs from the last to the first, each
        // emitting lane-1 states, lane-0 states, then extras of the odd
        // and even member.
        let mut ll0 = FseEncoder::new(ll_choice.table());
        let mut ml0 = FseEncoder::new(ml_choice.table());
        let mut of0 = FseEncoder::new(of_choice.table());
        let mut ll1 = FseEncoder::new(ll_choice.table());
        let mut ml1 = FseEncoder::new(ml_choice.table());
        let mut of1 = FseEncoder::new(of_choice.table());
        if n % 2 == 1 {
            let i = n - 1;
            of0.encode(&mut w, ofc[i] as u16);
            ml0.encode(&mut w, mlc[i] as u16);
            ll0.encode(&mut w, llc[i] as u16);
            write_seq_extras(&mut w, &parsed.sequences[i], llc[i], mlc[i], ofc[i]);
        }
        for p in (0..n / 2).rev() {
            let a = 2 * p;
            let b = a + 1;
            of1.encode(&mut w, ofc[b] as u16);
            ml1.encode(&mut w, mlc[b] as u16);
            ll1.encode(&mut w, llc[b] as u16);
            of0.encode(&mut w, ofc[a] as u16);
            ml0.encode(&mut w, mlc[a] as u16);
            ll0.encode(&mut w, llc[a] as u16);
            write_seq_extras(&mut w, &parsed.sequences[b], llc[b], mlc[b], ofc[b]);
            write_seq_extras(&mut w, &parsed.sequences[a], llc[a], mlc[a], ofc[a]);
        }
        ml1.finish(&mut w);
        of1.finish(&mut w);
        ll1.finish(&mut w);
        ml0.finish(&mut w);
        of0.finish(&mut w);
        ll0.finish(&mut w);
    } else {
        let mut ll_enc = FseEncoder::new(ll_choice.table());
        let mut ml_enc = FseEncoder::new(ml_choice.table());
        let mut of_enc = FseEncoder::new(of_choice.table());
        for i in (0..n).rev() {
            of_enc.encode(&mut w, ofc[i] as u16);
            ml_enc.encode(&mut w, mlc[i] as u16);
            ll_enc.encode(&mut w, llc[i] as u16);
            write_seq_extras(&mut w, &parsed.sequences[i], llc[i], mlc[i], ofc[i]);
        }
        ml_enc.finish(&mut w);
        of_enc.finish(&mut w);
        ll_enc.finish(&mut w);
    }
    let stream = w.finish_with_sentinel();
    write_varint(&mut out, stream.len() as u64);
    out.extend_from_slice(&stream);
    (out, used_v4)
}

/// Writes one sequence's raw remainder bits (offset, match length,
/// literal length — the decoder reads them reversed: literal length
/// first). Repeat-offset codes carry zero offset bits.
fn write_seq_extras(w: &mut BitWriter, seq: &lzkit::Sequence, llc: u8, mlc: u8, ofc: u8) {
    let (base, bits) = of_extra(ofc);
    if bits > 0 {
        w.write_bits((seq.offset - base) as u64, bits);
    }
    let (base, bits) = ml_extra(mlc);
    w.write_bits((seq.match_len - MIN_MATCH - base) as u64, bits);
    let (base, bits) = ll_extra(llc);
    w.write_bits((seq.literal_len - base) as u64, bits);
}

#[deny(clippy::indexing_slicing)]
pub(crate) fn decode_block_payload<const FAST: bool>(
    payload: &[u8],
    out: &mut Vec<u8>,
    decoded: usize,
    v4: bool,
) -> Result<()> {
    let mut c = Cursor::new(payload);

    // --- Literals section ---
    let lit_mode = c.read_u8()?;
    let lit_len = c.read_varint()? as usize;
    // Literals all land inside this block's decoded span, so `decoded`
    // (≤ BLOCK_SIZE, checked by the caller) bounds the allocation.
    if lit_len > BLOCK_SIZE || lit_len > decoded {
        return Err(c.corrupt("zstdx literal section too large"));
    }
    let literals: Vec<u8> = match lit_mode {
        LIT_RAW => c.read_slice(lit_len)?.to_vec(),
        LIT_RLE => vec![c.read_u8()?; lit_len],
        LIT_HUFFMAN => {
            let lens = read_nibble_lengths(&mut c, 256)?;
            let table = HuffmanTable::from_lengths(&lens)?;
            let body_len = c.read_varint()? as usize;
            let body = c.read_slice(body_len)?;
            if FAST {
                note_pair_table_bypass(&table);
                table.decode_fast(body, lit_len)?
            } else {
                table.decode(body, lit_len)?
            }
        }
        LIT_HUFFMAN4 if v4 => {
            let lens = read_nibble_lengths(&mut c, 256)?;
            let table = HuffmanTable::from_lengths(&lens)?;
            let mut sizes = [0usize; 4];
            for s in &mut sizes {
                *s = c.read_varint()? as usize;
            }
            let [s0, s1, s2, s3] = sizes;
            let bufs = [
                c.read_slice(s0)?,
                c.read_slice(s1)?,
                c.read_slice(s2)?,
                c.read_slice(s3)?,
            ];
            if FAST {
                note_pair_table_bypass(&table);
                table.decode_4stream_fast(bufs, lit_len)?
            } else {
                table.decode_4stream(bufs, lit_len)?
            }
        }
        _ => return Err(c.corrupt("zstdx bad literal mode")),
    };

    // --- Sequences section ---
    let n = c.read_varint()? as usize;
    if n > BLOCK_SIZE / MIN_MATCH as usize + 1 {
        return Err(c.corrupt("zstdx implausible sequence count"));
    }
    if n == 0 {
        if literals.len() != decoded {
            return Err(c.corrupt("zstdx literal-only block length mismatch"));
        }
        out.extend_from_slice(&literals);
        return Ok(());
    }

    let modes = c.read_u8()?;
    if modes & 0x80 != 0 {
        return Err(c.corrupt("zstdx reserved sequence mode bit"));
    }
    let paired = modes & SEQ_PAIR_FLAG != 0;
    if paired && !v4 {
        return Err(c.corrupt("zstdx paired sequences without v4 flag"));
    }
    let read_table = |mode: u8,
                      predefined: &'static FseTable,
                      alphabet: usize,
                      c: &mut Cursor<'_>|
     -> Result<FseTableRef> {
        match mode {
            MODE_PREDEFINED => Ok(FseTableRef::Static(predefined)),
            MODE_FSE => {
                let (t, consumed) = FseTable::read_description(c.read_slice_remaining()?)?;
                c.advance(consumed)?;
                if t.normalized_counts().len() > alphabet {
                    return Err(c.corrupt("zstdx fse alphabet too large"));
                }
                Ok(FseTableRef::Owned(t))
            }
            MODE_RLE => {
                let code = c.read_u8()?;
                if code as usize >= alphabet {
                    return Err(c.corrupt("zstdx rle code out of range"));
                }
                Ok(FseTableRef::Owned(single_symbol_table(code, alphabet)))
            }
            _ => Err(c.corrupt("zstdx bad table mode")),
        }
    };
    let ll_t = read_table(modes & 3, predefined_ll(), MAX_LL_CODE as usize + 1, &mut c)?;
    let ml_t = read_table(
        (modes >> 2) & 3,
        predefined_ml(),
        MAX_ML_CODE as usize + 1,
        &mut c,
    )?;
    let of_t = read_table((modes >> 4) & 3, predefined_of(), OF_ALPHABET, &mut c)?;

    let stream_len = c.read_varint()? as usize;
    let stream = c.read_slice(stream_len)?;
    match (FAST, paired) {
        (true, false) => {
            let mut r = ReverseBitReaderFast::from_sentinel(stream)?;
            decode_sequences::<_, FAST>(&c, &mut r, &ll_t, &ml_t, &of_t, &literals, n, out, decoded)
        }
        (false, false) => {
            let mut r = ReverseBitReader::from_sentinel(stream)?;
            decode_sequences::<_, FAST>(&c, &mut r, &ll_t, &ml_t, &of_t, &literals, n, out, decoded)
        }
        (true, true) => {
            let mut r = ReverseBitReaderFast::from_sentinel(stream)?;
            decode_sequences_paired::<_, FAST>(
                &c, &mut r, &ll_t, &ml_t, &of_t, &literals, n, out, decoded,
            )
        }
        (false, true) => {
            let mut r = ReverseBitReader::from_sentinel(stream)?;
            decode_sequences_paired::<_, FAST>(
                &c, &mut r, &ll_t, &ml_t, &of_t, &literals, n, out, decoded,
            )
        }
    }
}

/// Counts fast-path literal decodes that cannot use the paired lookup
/// table (code lengths above `PAIR_TABLE_MAX_BITS` force symbol-at-a-
/// time lookups). Surfaced as `entropy.pair_table_bypass` on /metrics
/// so a throughput regression can be attributed to bypassed tables.
fn note_pair_table_bypass(table: &HuffmanTable) {
    if !table.has_pair_table() {
        telemetry::global()
            .counter("entropy.pair_table_bypass", &[("algo", "zstdx")])
            .inc();
    }
}

/// Sequence-application loop of [`decode_block_payload`], generic over
/// the reverse bit-source engine. Error offsets anchor at the payload
/// cursor's position (the byte after the sequence bitstream),
/// identically for both engines.
#[deny(clippy::indexing_slicing)]
#[allow(clippy::too_many_arguments)]
fn decode_sequences<R: RevBitSrc, const FAST: bool>(
    c: &Cursor<'_>,
    r: &mut R,
    ll_t: &FseTableRef,
    ml_t: &FseTableRef,
    of_t: &FseTableRef,
    literals: &[u8],
    n: usize,
    out: &mut Vec<u8>,
    decoded: usize,
) -> Result<()> {
    let mut ll_dec = FseDecoder::init(ll_t.get(), r)?;
    let mut of_dec = FseDecoder::init(of_t.get(), r)?;
    let mut ml_dec = FseDecoder::init(ml_t.get(), r)?;

    let end = out.len() + decoded;
    let mut lit_pos = 0usize;
    let mut reps = RepHistory::default();
    for _ in 0..n {
        let (llc, mlc, ofc) = peek_codes(c, &ll_dec, &ml_dec, &of_dec)?;
        let (lit_run, match_len, of_raw) = read_seq_bits(r, llc, mlc, ofc)?;
        ll_dec.update(r)?;
        ml_dec.update(r)?;
        of_dec.update(r)?;
        apply_sequence::<FAST>(
            c,
            literals,
            out,
            end,
            &mut lit_pos,
            &mut reps,
            lit_run,
            match_len,
            ofc,
            of_raw,
        )?;
    }
    out.extend_from_slice(literals.get(lit_pos..).unwrap_or(&[]));
    if out.len() != end {
        return Err(c.corrupt("zstdx block length mismatch"));
    }
    Ok(())
}

/// Paired-sequence loop: six FSE states over the three shared tables,
/// decoding two sequences per round. Both sequences' codes and raw
/// bits are read before the six back-to-back state updates, so the
/// serial bit-cursor dependency chain per sequence is half the single-
/// stream loop's. An odd final sequence rides on the lane-0 states and
/// is read last; the stream must end with every state at its initial
/// value and no bits left over.
#[deny(clippy::indexing_slicing)]
#[allow(clippy::too_many_arguments)]
fn decode_sequences_paired<R: RevBitSrc, const FAST: bool>(
    c: &Cursor<'_>,
    r: &mut R,
    ll_t: &FseTableRef,
    ml_t: &FseTableRef,
    of_t: &FseTableRef,
    literals: &[u8],
    n: usize,
    out: &mut Vec<u8>,
    decoded: usize,
) -> Result<()> {
    let mut ll0 = FseDecoder::init(ll_t.get(), r)?;
    let mut of0 = FseDecoder::init(of_t.get(), r)?;
    let mut ml0 = FseDecoder::init(ml_t.get(), r)?;
    let mut ll1 = FseDecoder::init(ll_t.get(), r)?;
    let mut of1 = FseDecoder::init(of_t.get(), r)?;
    let mut ml1 = FseDecoder::init(ml_t.get(), r)?;

    let end = out.len() + decoded;
    let mut lit_pos = 0usize;
    let mut reps = RepHistory::default();
    for _ in 0..n / 2 {
        let (llc_a, mlc_a, ofc_a) = peek_codes(c, &ll0, &ml0, &of0)?;
        let (lit_a, mat_a, raw_a) = read_seq_bits(r, llc_a, mlc_a, ofc_a)?;
        let (llc_b, mlc_b, ofc_b) = peek_codes(c, &ll1, &ml1, &of1)?;
        let (lit_b, mat_b, raw_b) = read_seq_bits(r, llc_b, mlc_b, ofc_b)?;
        ll0.update(r)?;
        ml0.update(r)?;
        of0.update(r)?;
        ll1.update(r)?;
        ml1.update(r)?;
        of1.update(r)?;
        // Repeat-offset resolution happens at apply time, in sequence
        // order, so the history evolves exactly as the encoder saw it.
        apply_sequence::<FAST>(
            c,
            literals,
            out,
            end,
            &mut lit_pos,
            &mut reps,
            lit_a,
            mat_a,
            ofc_a,
            raw_a,
        )?;
        apply_sequence::<FAST>(
            c,
            literals,
            out,
            end,
            &mut lit_pos,
            &mut reps,
            lit_b,
            mat_b,
            ofc_b,
            raw_b,
        )?;
    }
    if n % 2 == 1 {
        let (llc, mlc, ofc) = peek_codes(c, &ll0, &ml0, &of0)?;
        let (lit_run, match_len, of_raw) = read_seq_bits(r, llc, mlc, ofc)?;
        ll0.update(r)?;
        ml0.update(r)?;
        of0.update(r)?;
        apply_sequence::<FAST>(
            c,
            literals,
            out,
            end,
            &mut lit_pos,
            &mut reps,
            lit_run,
            match_len,
            ofc,
            of_raw,
        )?;
    }
    let clean = ll0.at_initial_state()
        && of0.at_initial_state()
        && ml0.at_initial_state()
        && ll1.at_initial_state()
        && of1.at_initial_state()
        && ml1.at_initial_state();
    if !clean || r.remaining() != 0 {
        return Err(c.corrupt("zstdx paired sequences did not terminate cleanly"));
    }
    out.extend_from_slice(literals.get(lit_pos..).unwrap_or(&[]));
    if out.len() != end {
        return Err(c.corrupt("zstdx block length mismatch"));
    }
    Ok(())
}

/// Peeks and range-checks one sequence's three codes.
fn peek_codes(
    c: &Cursor<'_>,
    ll: &FseDecoder<'_>,
    ml: &FseDecoder<'_>,
    of: &FseDecoder<'_>,
) -> Result<(u8, u8, u8)> {
    let llc = ll.peek_symbol() as u8;
    let ofc = of.peek_symbol() as u8;
    let mlc = ml.peek_symbol() as u8;
    if llc > MAX_LL_CODE || mlc > MAX_ML_CODE || ofc as usize >= OF_ALPHABET {
        return Err(c.corrupt("zstdx sequence code out of range"));
    }
    Ok((llc, mlc, ofc))
}

/// Reads one sequence's raw remainder bits: literal run, match length,
/// and (for non-repeat codes) the literal offset value. Repeat codes
/// return `of_raw == 0`; the history resolves them at apply time.
fn read_seq_bits<R: RevBitSrc>(
    r: &mut R,
    llc: u8,
    mlc: u8,
    ofc: u8,
) -> Result<(usize, usize, u32)> {
    let (base, bits) = ll_extra(llc);
    let lit_run = (base + r.read_bits(bits)? as u32) as usize;
    let (base, bits) = ml_extra(mlc);
    let match_len = (base + r.read_bits(bits)? as u32 + MIN_MATCH) as usize;
    let of_raw = if ofc >= OF_REP_BASE {
        0
    } else {
        let (base, bits) = of_extra(ofc);
        base + r.read_bits(bits)? as u32
    };
    Ok((lit_run, match_len, of_raw))
}

/// Resolves the offset against the repeat history and executes one
/// sequence: literal run, then the back-reference copy (checked in the
/// reference engine, wild in the fast one — bounds validated first
/// either way).
#[deny(clippy::indexing_slicing)]
#[allow(clippy::too_many_arguments)]
fn apply_sequence<const FAST: bool>(
    c: &Cursor<'_>,
    literals: &[u8],
    out: &mut Vec<u8>,
    end: usize,
    lit_pos: &mut usize,
    reps: &mut RepHistory,
    lit_run: usize,
    match_len: usize,
    ofc: u8,
    of_raw: u32,
) -> Result<()> {
    let offset = reps
        .resolve(ofc, of_raw)
        .ok_or(c.corrupt("zstdx bad repeat code"))? as usize;
    let run = lit_pos
        .checked_add(lit_run)
        .and_then(|hi| literals.get(*lit_pos..hi))
        .ok_or(c.corrupt("zstdx literals exhausted"))?;
    out.extend_from_slice(run);
    *lit_pos += lit_run;
    if offset == 0 || offset > out.len() {
        return Err(c.corrupt("zstdx offset out of range"));
    }
    if out.len() + match_len > end {
        return Err(c.corrupt("zstdx match overruns block"));
    }
    // Offset and length validated against `out` and the block end just
    // above, so the copy region is safe before it runs.
    if FAST {
        crate::lz_copy(out, offset, match_len);
    } else {
        crate::lz_copy_checked(out, offset, match_len);
    }
    Ok(())
}

/// Borrowed-or-owned FSE table used during block decode.
enum FseTableRef {
    Static(&'static FseTable),
    Owned(FseTable),
}

impl FseTableRef {
    fn get(&self) -> &FseTable {
        match self {
            FseTableRef::Static(t) => t,
            FseTableRef::Owned(t) => t,
        }
    }
}

impl Compressor for Zstdx {
    fn name(&self) -> &'static str {
        "zstdx"
    }

    fn level(&self) -> i32 {
        self.level
    }

    fn compress(&self, src: &[u8]) -> Vec<u8> {
        let start = Instant::now();
        let out = self.compress_impl(src, None, None);
        crate::obs::record_compress("zstdx", self.level, src.len(), out.len(), start);
        out
    }

    fn decompress_limited(&self, src: &[u8], limits: &DecodeLimits) -> Result<Vec<u8>> {
        let start = Instant::now();
        let out = self.decompress_impl::<true>(src, None, limits)?;
        crate::obs::record_decompress("zstdx", self.level, out.len(), start);
        Ok(out)
    }

    fn compress_with_dict(&self, src: &[u8], dict: &Dictionary) -> Vec<u8> {
        let start = Instant::now();
        let out = self.compress_impl(src, Some(dict), None);
        crate::obs::record_compress("zstdx", self.level, src.len(), out.len(), start);
        out
    }

    fn decompress_with_dict_limited(
        &self,
        src: &[u8],
        dict: &Dictionary,
        limits: &DecodeLimits,
    ) -> Result<Vec<u8>> {
        let start = Instant::now();
        let out = self.decompress_impl::<true>(src, Some(dict), limits)?;
        crate::obs::record_decompress("zstdx", self.level, out.len(), start);
        Ok(out)
    }

    fn supports_dictionaries(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Around the no-build cutoff, skipping the Huffman build must write
    /// exactly the literals section that building and rejecting writes.
    #[test]
    fn small_literal_skip_never_changes_the_section() {
        let mut x = 0x2545_f491u32;
        let mut huffman_sections = [0usize; 2];
        for n in 1..=200usize {
            // Two-symbol skew (one bit per literal, the cheapest code
            // possible), a four-symbol alphabet, and 8-bit noise.
            let skewed: Vec<u8> = (0..n).map(|i| b"ab"[usize::from(i % 17 == 3)]).collect();
            let four_syms: Vec<u8> = (0..n).map(|i| b"abcd"[i % 4]).collect();
            let noise: Vec<u8> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    (x >> 8) as u8
                })
                .collect();
            for lits in [&skewed, &four_syms, &noise] {
                for policy in [StreamPolicy::Single, StreamPolicy::Quad] {
                    let four = splits_literals(policy, lits.len(), lits.len());
                    let mut skipped = Vec::new();
                    let mut built = Vec::new();
                    let v4_skipped =
                        write_literals(&mut skipped, lits, four, || literal_code(lits, four));
                    let v4_built =
                        write_literals(&mut built, lits, four, || build_literal_code(lits, four));
                    assert_eq!(skipped, built, "n={n} {policy:?}");
                    assert_eq!(v4_skipped, v4_built, "n={n} {policy:?}");
                    if matches!(built[0], LIT_HUFFMAN | LIT_HUFFMAN4) {
                        huffman_sections[usize::from(four)] += 1;
                    }
                }
            }
        }
        // The sweep crosses the point where Huffman starts to pay, for
        // both layouts.
        assert!(
            huffman_sections.iter().all(|&c| c > 0),
            "{huffman_sections:?}"
        );
    }

    fn sample() -> Vec<u8> {
        (0..1200u32)
            .flat_map(|i| {
                format!(
                    "{{\"user\":{},\"event\":\"type{}\",\"ts\":{}}}\n",
                    i % 97,
                    i % 7,
                    i
                )
                .into_bytes()
            })
            .collect()
    }

    #[test]
    fn roundtrip_all_levels() {
        let data = sample();
        for level in [-5, -2, 1, 3, 5, 9, 13, 19] {
            let c = Zstdx::new(level);
            let enc = c.compress(&data);
            assert!(enc.len() < data.len(), "level {level} did not compress");
            assert_eq!(c.decompress(&enc).unwrap(), data, "level {level}");
        }
    }

    #[test]
    fn roundtrip_edge_inputs() {
        let c = Zstdx::new(3);
        for data in [
            vec![],
            vec![42u8],
            b"ab".to_vec(),
            vec![0u8; 500_000],
            (0u8..=255).collect::<Vec<_>>(),
            b"aaaa".to_vec(),
        ] {
            let enc = c.compress(&data);
            assert_eq!(c.decompress(&enc).unwrap(), data, "len {}", data.len());
        }
    }

    #[test]
    fn multi_block_roundtrip() {
        let data: Vec<u8> = sample().iter().cycle().take(400_000).copied().collect();
        let c = Zstdx::new(5);
        let enc = c.compress(&data);
        assert!(enc.len() < data.len() / 5);
        assert_eq!(c.decompress(&enc).unwrap(), data);
    }

    #[test]
    fn incompressible_falls_back_to_raw_blocks() {
        let mut state = 3u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 32) as u8
            })
            .collect();
        let c = Zstdx::new(3);
        let enc = c.compress(&data);
        // Overhead must stay tiny thanks to the raw-block fallback.
        assert!(enc.len() <= data.len() + 32);
        assert_eq!(c.decompress(&enc).unwrap(), data);
    }

    #[test]
    fn beats_zlibx_and_lz4x_on_text() {
        let data = sample();
        let z = Zstdx::new(6).compress(&data).len();
        let g = crate::zlibx::Zlibx::new(6).compress(&data).len();
        let l = crate::lz4x::Lz4x::new(6).compress(&data).len();
        assert!(z < g, "zstdx {z} should beat zlibx {g}");
        assert!(z < l, "zstdx {z} should beat lz4x {l}");
    }

    #[test]
    fn higher_levels_improve_ratio() {
        let data = sample();
        let l1 = Zstdx::new(1).compress(&data).len();
        let l9 = Zstdx::new(9).compress(&data).len();
        let l19 = Zstdx::new(19).compress(&data).len();
        assert!(l9 <= l1, "l9 {l9} vs l1 {l1}");
        // The optimal parser prices offsets without repeat-offset
        // awareness, so it can lose by a hair on rep-heavy data — the
        // paper notes the same ("some cases where these bets are
        // wrong", §IV-C). Allow 2%.
        assert!(l19 as f64 <= l9 as f64 * 1.02, "l19 {l19} vs l9 {l9}");
    }

    #[test]
    fn dictionary_roundtrip_and_benefit() {
        let dict_samples: Vec<u8> = sample();
        let dict = Dictionary::new(dict_samples[..4096].to_vec(), 77);
        let msg = &sample()[10_000..10_400];
        let c = Zstdx::new(3);
        let plain = c.compress(msg);
        let with_dict = c.compress_with_dict(msg, &dict);
        assert!(
            with_dict.len() < plain.len(),
            "{} !< {}",
            with_dict.len(),
            plain.len()
        );
        assert_eq!(c.decompress_with_dict(&with_dict, &dict).unwrap(), msg);
    }

    #[test]
    fn dictionary_mismatch_detected() {
        let dict = Dictionary::new(b"some dictionary content here".to_vec(), 1);
        let wrong = Dictionary::new(b"some dictionary content here".to_vec(), 2);
        let c = Zstdx::new(3);
        let enc = c.compress_with_dict(b"hello hello hello", &dict);
        assert!(matches!(
            c.decompress(&enc),
            Err(CodecError::UnknownDictVersion {
                expected: 1,
                got: None
            })
        ));
        assert!(matches!(
            c.decompress_with_dict(&enc, &wrong),
            Err(CodecError::UnknownDictVersion {
                expected: 1,
                got: Some(2)
            })
        ));
    }

    #[test]
    fn timed_compression_reports_stages() {
        let data = sample();
        let c = Zstdx::new(7);
        let (enc, timing) = c.compress_timed(&data);
        assert_eq!(c.decompress(&enc).unwrap(), data);
        assert!(timing.match_find.as_nanos() > 0);
        assert!(timing.entropy.as_nanos() > 0);
        assert!(timing.total >= timing.match_find);
        assert!(
            timing.blocks >= 1,
            "block counter must track measured blocks"
        );
    }

    #[test]
    fn dict_timed_compression_reports_stages() {
        let dict_samples = sample();
        let dict = Dictionary::new(dict_samples[..4096].to_vec(), 77);
        let msg = &sample()[10_000..14_000];
        let c = Zstdx::new(7);
        let (enc, timing) = c.compress_with_dict_timed(msg, &dict);
        assert_eq!(c.decompress_with_dict(&enc, &dict).unwrap(), msg);
        // The frame must match the untimed dict path bit-for-bit.
        assert_eq!(enc, c.compress_with_dict(msg, &dict));
        // Deterministic coverage assertion; the wall-clock stage splits
        // can legitimately round to zero on a 4 KiB work unit.
        assert!(timing.blocks >= 1, "dict path must measure its blocks");
        assert!(timing.total >= timing.match_find + timing.entropy);
    }

    #[test]
    fn truncation_and_corruption_error_not_panic() {
        let data = sample();
        let c = Zstdx::new(3);
        let enc = c.compress(&data);
        for cut in [0, 3, 4, 5, 10, enc.len() / 3, enc.len() - 1] {
            assert!(c.decompress(&enc[..cut]).is_err(), "cut {cut}");
        }
        // Flip bytes throughout the frame; decoder must never panic.
        for i in (0..enc.len()).step_by(7) {
            let mut bad = enc.clone();
            bad[i] ^= 0xff;
            let _ = c.decompress(&bad);
        }
    }
}

#[cfg(test)]
mod multi_stream_tests {
    use super::*;

    fn sample() -> Vec<u8> {
        (0..1200u32)
            .flat_map(|i| {
                format!(
                    "{{\"user\":{},\"event\":\"type{}\",\"ts\":{}}}\n",
                    i % 97,
                    i % 7,
                    i
                )
                .into_bytes()
            })
            .collect()
    }

    /// Huffman-compressible 7-bit noise: essentially no matches, so the
    /// block is literal-dominated and Auto must take the 4-stream split.
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9u32;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 8) as u8 & 0x7f
            })
            .collect()
    }

    #[test]
    fn auto_policy_sets_v4_flag_and_roundtrips_both_engines() {
        let data = noise(120_000);
        let c = Zstdx::new(6);
        let enc = c.compress(&data);
        assert_ne!(
            enc[MAGIC.len()] & FLAG_V4,
            0,
            "literal-heavy block should trip the auto multi-stream gate"
        );
        assert_eq!(c.decompress(&enc).unwrap(), data);
        assert_eq!(
            c.decompress_reference(&enc, &DecodeLimits::default())
                .unwrap(),
            data
        );
    }

    #[test]
    fn auto_policy_keeps_match_dominated_blocks_single_stream() {
        // JSON-ish records are almost all matches; the 4-stream literal
        // split and paired FSE both measure as decode losses there, so
        // Auto must emit the legacy layout byte-for-byte.
        let data = sample();
        let c = Zstdx::new(6);
        let enc = c.compress(&data);
        assert_eq!(
            enc[MAGIC.len()] & FLAG_V4,
            0,
            "match-heavy must stay legacy"
        );
        let single = Zstdx::new(6)
            .with_stream_policy(StreamPolicy::Single)
            .compress(&data);
        assert_eq!(enc, single);
    }

    #[test]
    fn single_policy_never_sets_v4_flag() {
        let data = sample();
        let c = Zstdx::new(6).with_stream_policy(StreamPolicy::Single);
        let enc = c.compress(&data);
        assert_eq!(enc[MAGIC.len()] & FLAG_V4, 0);
        assert_eq!(c.decompress(&enc).unwrap(), data);
    }

    #[test]
    fn sub_threshold_auto_output_is_byte_identical_to_single() {
        // Below both auto thresholds (literal bytes and sequence count)
        // the auto policy must leave the frame bit-compatible with the
        // legacy single-stream encoder.
        let data: Vec<u8> = (0..40u32)
            .flat_map(|i| format!("tiny rec {i} tiny rec ").into_bytes())
            .take(700)
            .collect();
        let auto = Zstdx::new(5).compress(&data);
        let single = Zstdx::new(5)
            .with_stream_policy(StreamPolicy::Single)
            .compress(&data);
        assert_eq!(auto, single);
        assert_eq!(auto[MAGIC.len()] & FLAG_V4, 0);
    }

    #[test]
    fn quad_policy_forces_v4_on_small_inputs() {
        let c = Zstdx::new(3).with_stream_policy(StreamPolicy::Quad);
        for data in [
            sample()[..600].to_vec(),
            b"abcabcabcabcabcabcabcabcabcabc".to_vec(),
            (0u8..=255).collect::<Vec<_>>(),
        ] {
            let enc = c.compress(&data);
            assert_eq!(c.decompress(&enc).unwrap(), data, "len {}", data.len());
            assert_eq!(
                c.decompress_reference(&enc, &DecodeLimits::default())
                    .unwrap(),
                data,
                "reference engine, len {}",
                data.len()
            );
        }
    }

    #[test]
    fn quad_policy_roundtrips_all_levels_and_shapes() {
        let data = sample();
        for level in [-3, 1, 5, 9, 13, 19] {
            let c = Zstdx::new(level).with_stream_policy(StreamPolicy::Quad);
            let enc = c.compress(&data);
            assert_eq!(c.decompress(&enc).unwrap(), data, "level {level}");
            assert_eq!(
                c.decompress_reference(&enc, &DecodeLimits::default())
                    .unwrap(),
                data,
                "reference engine, level {level}"
            );
        }
    }

    #[test]
    fn v4_blocks_without_frame_flag_are_rejected() {
        let data = sample();
        let c = Zstdx::new(6)
            .with_stream_policy(StreamPolicy::Quad)
            .with_checksum(false);
        let mut enc = c.compress(&data);
        assert_ne!(enc[MAGIC.len()] & FLAG_V4, 0);
        enc[MAGIC.len()] &= !FLAG_V4;
        assert!(c.decompress(&enc).is_err(), "fast engine must reject");
        assert!(
            c.decompress_reference(&enc, &DecodeLimits::default())
                .is_err(),
            "reference engine must reject"
        );
    }

    #[test]
    fn v4_multi_block_and_dictionary_frames_roundtrip() {
        // Literal-heavy payload spanning multiple 128 KiB blocks, so
        // Auto keeps the 4-stream split live across block boundaries.
        let data = noise(400_000);
        let c = Zstdx::new(5);
        let enc = c.compress(&data);
        assert_ne!(enc[MAGIC.len()] & FLAG_V4, 0);
        assert_eq!(c.decompress(&enc).unwrap(), data);

        let dict = Dictionary::new(sample()[..4096].to_vec(), 42);
        let msg = &sample()[..8000];
        let framed = c.compress_with_dict(msg, &dict);
        assert_eq!(c.decompress_with_dict(&framed, &dict).unwrap(), msg);
    }

    #[test]
    fn v4_frame_truncation_and_corruption_error_not_panic() {
        let data = sample();
        let c = Zstdx::new(6).with_stream_policy(StreamPolicy::Quad);
        let enc = c.compress(&data);
        for cut in 0..enc.len() {
            let _ = c.decompress(&enc[..cut]);
            let _ = c.decompress_reference(&enc[..cut], &DecodeLimits::default());
        }
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0xff;
            let fast = c.decompress(&bad);
            let reference = c.decompress_reference(&bad, &DecodeLimits::default());
            assert_eq!(
                fast.is_ok(),
                reference.is_ok(),
                "engines disagree at flip {i}"
            );
            if let (Ok(f), Ok(r)) = (&fast, &reference) {
                assert_eq!(f, r, "engines decoded different bytes at flip {i}");
            }
        }
    }

    #[test]
    fn paired_sequences_exercise_repeat_offsets() {
        // Rep-heavy data: the same few offsets recur, so the paired
        // loop's deferred rep resolution gets real coverage.
        let mut data = Vec::new();
        for i in 0..3000u32 {
            data.extend_from_slice(b"key=");
            data.extend_from_slice(&(i % 13).to_le_bytes());
            data.extend_from_slice(b";val=");
            data.extend_from_slice(&(i % 7).to_le_bytes());
        }
        let c = Zstdx::new(9).with_stream_policy(StreamPolicy::Quad);
        let enc = c.compress(&data);
        assert_eq!(c.decompress(&enc).unwrap(), data);
        assert_eq!(
            c.decompress_reference(&enc, &DecodeLimits::default())
                .unwrap(),
            data
        );
    }

    #[test]
    fn odd_and_even_sequence_counts_roundtrip() {
        // Pin both parities of the sequence count through the paired
        // encoder's odd-tail path: force pairing from n == 2 up.
        let c = Zstdx::new(3).with_stream_policy(StreamPolicy::Quad);
        for reps in 2..24 {
            let mut data = Vec::new();
            for i in 0..reps {
                data.extend_from_slice(format!("block-{i:03} ").as_bytes());
                data.extend_from_slice(b"shared shared shared ");
            }
            let enc = c.compress(&data);
            assert_eq!(c.decompress(&enc).unwrap(), data, "reps {reps}");
            assert_eq!(
                c.decompress_reference(&enc, &DecodeLimits::default())
                    .unwrap(),
                data,
                "reference engine, reps {reps}"
            );
        }
    }
}

#[cfg(test)]
mod checksum_tests {
    use super::*;

    #[test]
    fn checksum_detects_content_corruption() {
        let data = (0..10_000u32)
            .flat_map(|i| i.to_le_bytes())
            .collect::<Vec<u8>>();
        let c = Zstdx::new(3);
        let mut frame = c.compress(&data);
        assert_eq!(c.decompress(&frame).unwrap(), data);
        // Corrupt the stored checksum itself: must be rejected.
        let n = frame.len();
        frame[n - 1] ^= 0xff;
        assert!(matches!(
            c.decompress(&frame),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn limits_reject_oversized_content() {
        let data = vec![7u8; 64 * 1024];
        let c = Zstdx::new(1);
        let frame = c.compress(&data);
        let tight = crate::DecodeLimits::with_max_output(1024);
        assert!(matches!(
            c.decompress_limited(&frame, &tight),
            Err(CodecError::LimitExceeded {
                requested,
                limit: 1024
            }) if requested == data.len()
        ));
        let roomy = crate::DecodeLimits::with_max_output(data.len());
        assert_eq!(c.decompress_limited(&frame, &roomy).unwrap(), data);
    }

    #[test]
    fn checksum_can_be_disabled() {
        let data = b"checksum-free frame".repeat(50);
        let with = Zstdx::new(1).compress(&data);
        let without = Zstdx::new(1).with_checksum(false).compress(&data);
        assert_eq!(with.len(), without.len() + 4);
        assert_eq!(Zstdx::new(1).decompress(&without).unwrap(), data);
        assert_eq!(Zstdx::new(1).decompress(&with).unwrap(), data);
    }

    #[test]
    fn checksum_coexists_with_dictionary() {
        let dict = Dictionary::new(b"shared history shared history".to_vec(), 4);
        let data = b"shared history plus payload".to_vec();
        let c = Zstdx::new(3);
        let frame = c.compress_with_dict(&data, &dict);
        assert_eq!(c.decompress_with_dict(&frame, &dict).unwrap(), data);
    }
}

/// Magic of a skippable frame ("ZSXS"): carries out-of-band metadata
/// (provenance, dictionary registry hints) that decoders ignore, as in
/// the real zstd format's skippable frames.
pub const SKIPPABLE_MAGIC: [u8; 4] = [0x5a, 0x53, 0x58, 0x53];

/// Wraps `payload` in a skippable frame.
pub fn skippable_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&SKIPPABLE_MAGIC);
    write_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out
}

/// Reads the skippable frame at the start of `buf`, returning
/// `(payload, total_frame_len)`; `None` if `buf` does not start with a
/// skippable frame.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] if the frame is truncated.
#[deny(clippy::indexing_slicing)]
pub fn read_skippable(buf: &[u8]) -> Result<Option<(&[u8], usize)>> {
    match buf.get(..4) {
        Some(magic) if magic == SKIPPABLE_MAGIC => {}
        _ => return Ok(None),
    }
    let mut c = Cursor::new(buf.get(4..).unwrap_or(&[]));
    let len = c.read_varint()? as usize;
    let payload = c.read_slice(len)?;
    Ok(Some((payload, 4 + c.position())))
}

impl Zstdx {
    /// Decompresses a stream of concatenated frames (compressed frames
    /// interleaved with skippable frames), returning the concatenated
    /// content. Mirrors `zstd -d` behavior on multi-frame files.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on the first malformed frame.
    // indexing_slicing: `read_skippable` validates the skippable frame
    // length against the buffer before returning `skip <= src.len()`.
    #[allow(clippy::indexing_slicing)]
    pub fn decompress_multi(&self, mut src: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        while !src.is_empty() {
            if let Some((_, skip)) = read_skippable(src)? {
                src = &src[skip..];
                continue;
            }
            // A regular frame: decode it, then measure how much input it
            // consumed by re-walking its structure.
            let consumed = frame_len(src)?;
            let (frame, rest) = src.split_at(consumed);
            let mut part = self.decompress_impl::<true>(frame, None, &DecodeLimits::default())?;
            out.append(&mut part);
            src = rest;
        }
        Ok(out)
    }
}

/// Computes the byte length of the (non-skippable) frame at the start of
/// `buf` by walking headers without decoding payloads.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed structure.
#[deny(clippy::indexing_slicing)]
pub(crate) fn frame_len(buf: &[u8]) -> Result<usize> {
    let mut c = Cursor::new(buf);
    if c.read_slice(4)? != MAGIC {
        return Err(CodecError::BadFrame("zstdx magic mismatch"));
    }
    let flags = c.read_u8()?;
    let streaming = flags & FLAG_STREAMING != 0;
    let content = if streaming {
        0
    } else {
        c.read_varint()? as usize
    };
    if content > crate::MAX_CONTENT_SIZE {
        return Err(CodecError::BadFrame("content size implausible"));
    }
    if flags & 1 != 0 {
        let _ = c.read_u32()?;
    }
    let mut decoded_total = 0usize;
    loop {
        if streaming {
            // Last-block marker terminates.
            let type_byte = c.read_u8()?;
            let _decoded = c.read_varint()? as usize;
            let payload = c.read_varint()? as usize;
            c.advance(payload)?;
            if type_byte & BLOCK_LAST != 0 {
                break;
            }
        } else {
            if decoded_total >= content {
                break;
            }
            let _type = c.read_u8()?;
            let decoded = c.read_varint()? as usize;
            let payload = c.read_varint()? as usize;
            c.advance(payload)?;
            // A declared size outside (0, BLOCK_SIZE] is structurally
            // invalid, and capping it here keeps the accumulator from
            // overflowing on hostile header chains.
            if decoded == 0 || decoded > BLOCK_SIZE {
                return Err(c.corrupt("zstdx bad block size"));
            }
            decoded_total += decoded;
        }
    }
    if flags & FLAG_CHECKSUM != 0 {
        c.advance(4)?;
    }
    Ok(c.position())
}

#[cfg(test)]
mod multi_frame_tests {
    use super::*;

    #[test]
    fn skippable_roundtrip() {
        let f = skippable_frame(b"metadata: trained 2026-07-04");
        let (payload, len) = read_skippable(&f).unwrap().unwrap();
        assert_eq!(payload, b"metadata: trained 2026-07-04");
        assert_eq!(len, f.len());
        assert!(read_skippable(b"not a frame").unwrap().is_none());
        assert!(read_skippable(&f[..5]).is_err());
    }

    #[test]
    fn concatenated_frames_decode() {
        let z = Zstdx::new(3);
        let a = b"first frame first frame".to_vec();
        let b = b"second second second".to_vec();
        let mut stream = Vec::new();
        stream.extend(skippable_frame(b"header"));
        stream.extend(z.compress(&a));
        stream.extend(skippable_frame(b"between"));
        stream.extend(z.compress(&b));
        let out = z.decompress_multi(&stream).unwrap();
        assert_eq!(out, [a, b].concat());
    }

    #[test]
    fn frame_len_matches_actual_frames() {
        let z = Zstdx::new(1);
        for data in [vec![], vec![7u8; 10], vec![3u8; 300_000]] {
            let f = z.compress(&data);
            assert_eq!(frame_len(&f).unwrap(), f.len(), "len {}", data.len());
        }
        // Streaming frames too.
        let f = crate::stream::compress_stream(b"stream stream stream", 1);
        assert_eq!(frame_len(&f).unwrap(), f.len());
        // Dictionary frames carry an id word.
        let d = Dictionary::new(b"dict content".to_vec(), 9);
        let f = z.compress_with_dict(b"dict content plus", &d);
        assert_eq!(frame_len(&f).unwrap(), f.len());
    }

    #[test]
    fn multi_rejects_garbage() {
        let z = Zstdx::new(1);
        assert!(z.decompress_multi(b"garbage").is_err());
        let mut stream = z.compress(b"ok ok ok");
        stream.extend_from_slice(b"trailing junk");
        assert!(z.decompress_multi(&stream).is_err());
    }
}
