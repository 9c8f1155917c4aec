//! Golden-frame table: encoder output is pinned byte-for-byte.
//!
//! Each row maps (input seed, corpus class, input size, codec/level,
//! stream policy) to the XXH64 of the compressed frame. Encode-side
//! performance work (table construction, estimates, buffer reuse) must
//! leave every hash unchanged; a change that alters frames on purpose
//! re-pins the table and says so. On mismatch the test prints the whole
//! table as recomputed, ready to paste.

use datacomp::codecs::xxhash::xxh64;
use datacomp::codecs::{dict, lz4x::Lz4x, zlibx::Zlibx, zstdx::Zstdx};
use datacomp::codecs::{Compressor, StreamPolicy};
use datacomp::corpus::{self, silesia::FileClass};

const POLICIES: [StreamPolicy; 3] = [StreamPolicy::Auto, StreamPolicy::Single, StreamPolicy::Quad];

/// (seed, class, size, codec, level, [Auto, Single, Quad] frame hashes).
/// lz4x has no entropy stage and ignores the policy, so its three
/// hashes are equal.
type Row = (u64, FileClass, usize, &'static str, i32, [u64; 3]);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (100, FileClass::Text, 64, "zstdx", 1, [0x5981ca26fd3bfb1b, 0x5981ca26fd3bfb1b, 0x27670af04b5835a3]),
    (100, FileClass::Text, 64, "zstdx", 3, [0x5981ca26fd3bfb1b, 0x5981ca26fd3bfb1b, 0x27670af04b5835a3]),
    (100, FileClass::Text, 64, "zstdx", 9, [0x5981ca26fd3bfb1b, 0x5981ca26fd3bfb1b, 0x27670af04b5835a3]),
    (100, FileClass::Text, 64, "zlibx", 6, [0x98989fbf647ef8e6, 0x98989fbf647ef8e6, 0x98989fbf647ef8e6]),
    (100, FileClass::Text, 64, "lz4x", 1, [0x18e404b84cfc7e6c, 0x18e404b84cfc7e6c, 0x18e404b84cfc7e6c]),
    (101, FileClass::Text, 1024, "zstdx", 1, [0x313a71ef9b8e20aa, 0x313a71ef9b8e20aa, 0x0171c354ec7def77]),
    (101, FileClass::Text, 1024, "zstdx", 3, [0x88bd04e4de37f608, 0x88bd04e4de37f608, 0x9ffb957e6a902934]),
    (101, FileClass::Text, 1024, "zstdx", 9, [0xab189e94e3eccbdc, 0xab189e94e3eccbdc, 0x63704996ca3ac1f0]),
    (101, FileClass::Text, 1024, "zlibx", 6, [0xcffa4cc130bc8914, 0xcffa4cc130bc8914, 0x22f175ac4b621400]),
    (101, FileClass::Text, 1024, "lz4x", 1, [0x53510a32656f2be0, 0x53510a32656f2be0, 0x53510a32656f2be0]),
    (102, FileClass::Text, 16384, "zstdx", 1, [0xa97330ca28e2b5cf, 0xa97330ca28e2b5cf, 0x97d0eccf3fbaf3b8]),
    (102, FileClass::Text, 16384, "zstdx", 3, [0xf272929537e69b88, 0xf272929537e69b88, 0x22a13901a1c69533]),
    (102, FileClass::Text, 16384, "zstdx", 9, [0xd840b6ff6cbc456d, 0xd840b6ff6cbc456d, 0xb21e0b2035564dfa]),
    (102, FileClass::Text, 16384, "zlibx", 6, [0xba721e7e6b61540d, 0xba721e7e6b61540d, 0xe65f5a4fdba84277]),
    (102, FileClass::Text, 16384, "lz4x", 1, [0x1437d502e8782b92, 0x1437d502e8782b92, 0x1437d502e8782b92]),
    (103, FileClass::Text, 65536, "zstdx", 1, [0xeb23fde7fd77faa6, 0xeb23fde7fd77faa6, 0x80dc119b10e7e161]),
    (103, FileClass::Text, 65536, "zstdx", 3, [0x3dbd5622d91b82f1, 0x3dbd5622d91b82f1, 0x3436c198045a1194]),
    (103, FileClass::Text, 65536, "zstdx", 9, [0x1f03a091f790e35c, 0x1f03a091f790e35c, 0x9f41596bba278426]),
    (103, FileClass::Text, 65536, "zlibx", 6, [0x1beaf207ae79fa13, 0x1beaf207ae79fa13, 0x4f58b78a0388441f]),
    (103, FileClass::Text, 65536, "lz4x", 1, [0x79a7eb03f942a726, 0x79a7eb03f942a726, 0x79a7eb03f942a726]),
    (110, FileClass::Database, 64, "zstdx", 1, [0x523e75230f2bb457, 0x523e75230f2bb457, 0xe07e06df2ac07016]),
    (110, FileClass::Database, 64, "zstdx", 3, [0x523e75230f2bb457, 0x523e75230f2bb457, 0xe07e06df2ac07016]),
    (110, FileClass::Database, 64, "zstdx", 9, [0x523e75230f2bb457, 0x523e75230f2bb457, 0xe07e06df2ac07016]),
    (110, FileClass::Database, 64, "zlibx", 6, [0x66babc3f4a55fdff, 0x66babc3f4a55fdff, 0x66babc3f4a55fdff]),
    (110, FileClass::Database, 64, "lz4x", 1, [0x6f7fac5ca458f432, 0x6f7fac5ca458f432, 0x6f7fac5ca458f432]),
    (111, FileClass::Database, 1024, "zstdx", 1, [0x3b607cb6e8685d23, 0x3b607cb6e8685d23, 0x6ebe7a15aebcb64d]),
    (111, FileClass::Database, 1024, "zstdx", 3, [0x8764d172b1979b29, 0x8764d172b1979b29, 0x159b73823112e3cb]),
    (111, FileClass::Database, 1024, "zstdx", 9, [0x79ee794e1b1e7174, 0x79ee794e1b1e7174, 0x9745ad3e5d3e5591]),
    (111, FileClass::Database, 1024, "zlibx", 6, [0x14a5d43a8634b032, 0x14a5d43a8634b032, 0x6d6933493b5046a5]),
    (111, FileClass::Database, 1024, "lz4x", 1, [0x38db58b9303522a9, 0x38db58b9303522a9, 0x38db58b9303522a9]),
    (112, FileClass::Database, 16384, "zstdx", 1, [0xefe026c1a4e43ba3, 0xefe026c1a4e43ba3, 0xf3eeb90bb7794a5d]),
    (112, FileClass::Database, 16384, "zstdx", 3, [0x6b61b903f48d230b, 0x6b61b903f48d230b, 0x11eeac04e2f8440f]),
    (112, FileClass::Database, 16384, "zstdx", 9, [0x2c7d4c1efbb9538d, 0x2c7d4c1efbb9538d, 0x855ba5ef5f26a400]),
    (112, FileClass::Database, 16384, "zlibx", 6, [0x2490ef10755ff97a, 0x2490ef10755ff97a, 0x2cea099d2d0ac067]),
    (112, FileClass::Database, 16384, "lz4x", 1, [0x570e254fce247ed5, 0x570e254fce247ed5, 0x570e254fce247ed5]),
    (113, FileClass::Database, 65536, "zstdx", 1, [0x8504958a0b7ff7c3, 0x8504958a0b7ff7c3, 0xe4442e0e789ee8c0]),
    (113, FileClass::Database, 65536, "zstdx", 3, [0xfc4e52a8910e78a8, 0xfc4e52a8910e78a8, 0x6eac99b35eb380c3]),
    (113, FileClass::Database, 65536, "zstdx", 9, [0x01ca34e58e774e4e, 0x01ca34e58e774e4e, 0x043d083236046715]),
    (113, FileClass::Database, 65536, "zlibx", 6, [0xd52c8b7f3d83e9b8, 0xd52c8b7f3d83e9b8, 0x1d0434a9a47f004a]),
    (113, FileClass::Database, 65536, "lz4x", 1, [0xef91fed0246bea73, 0xef91fed0246bea73, 0xef91fed0246bea73]),
    (120, FileClass::Binary, 64, "zstdx", 1, [0xcf427e8209edd733, 0xcf427e8209edd733, 0xcf427e8209edd733]),
    (120, FileClass::Binary, 64, "zstdx", 3, [0xcf427e8209edd733, 0xcf427e8209edd733, 0xcf427e8209edd733]),
    (120, FileClass::Binary, 64, "zstdx", 9, [0xcf427e8209edd733, 0xcf427e8209edd733, 0xcf427e8209edd733]),
    (120, FileClass::Binary, 64, "zlibx", 6, [0x5fa3819ae424dfc2, 0x5fa3819ae424dfc2, 0x5fa3819ae424dfc2]),
    (120, FileClass::Binary, 64, "lz4x", 1, [0xa8dc314e60ce7d47, 0xa8dc314e60ce7d47, 0xa8dc314e60ce7d47]),
    (121, FileClass::Binary, 1024, "zstdx", 1, [0x1a041fd687e8d6c1, 0x1a041fd687e8d6c1, 0x1a041fd687e8d6c1]),
    (121, FileClass::Binary, 1024, "zstdx", 3, [0x1a041fd687e8d6c1, 0x1a041fd687e8d6c1, 0x1a041fd687e8d6c1]),
    (121, FileClass::Binary, 1024, "zstdx", 9, [0x1a041fd687e8d6c1, 0x1a041fd687e8d6c1, 0x1a041fd687e8d6c1]),
    (121, FileClass::Binary, 1024, "zlibx", 6, [0x86ab087ea3dceb9b, 0x86ab087ea3dceb9b, 0x86ab087ea3dceb9b]),
    (121, FileClass::Binary, 1024, "lz4x", 1, [0x0c36b28289db1a90, 0x0c36b28289db1a90, 0x0c36b28289db1a90]),
    (122, FileClass::Binary, 16384, "zstdx", 1, [0xb5d51ea41d487520, 0xb5d51ea41d487520, 0xb5d51ea41d487520]),
    (122, FileClass::Binary, 16384, "zstdx", 3, [0x85cec97d51afe697, 0x85cec97d51afe697, 0xe5b36e647988621e]),
    (122, FileClass::Binary, 16384, "zstdx", 9, [0x1b0c0dfb8a3b6273, 0x1b0c0dfb8a3b6273, 0x8ddbd66d18669396]),
    (122, FileClass::Binary, 16384, "zlibx", 6, [0x022dd661bd8b90c4, 0x022dd661bd8b90c4, 0x022dd661bd8b90c4]),
    (122, FileClass::Binary, 16384, "lz4x", 1, [0x4ca188d47bd87dcf, 0x4ca188d47bd87dcf, 0x4ca188d47bd87dcf]),
    (123, FileClass::Binary, 65536, "zstdx", 1, [0xe5428358a21d3ed2, 0xe5428358a21d3ed2, 0x65304104000643e9]),
    (123, FileClass::Binary, 65536, "zstdx", 3, [0xf33c34de6c2ac505, 0xf33c34de6c2ac505, 0xc209444a3ca348dc]),
    (123, FileClass::Binary, 65536, "zstdx", 9, [0xfecbae73839282c7, 0xfecbae73839282c7, 0x4bf422d30a856dae]),
    (123, FileClass::Binary, 65536, "zlibx", 6, [0x36d02bd4b68e3a27, 0x26e911f3ede12ff7, 0x36d02bd4b68e3a27]),
    (123, FileClass::Binary, 65536, "lz4x", 1, [0x3d206752603dcf7e, 0x3d206752603dcf7e, 0x3d206752603dcf7e]),
];

/// CACHE1 item 0 (100 items, seed 7) under zstdx level 3 with a
/// dictionary trained on the same items (8 KiB, id 1).
const GOLDEN_DICT: u64 = 0x32db60e652a412ee;

const CLASSES: [FileClass; 3] = [FileClass::Text, FileClass::Database, FileClass::Binary];
const SIZES: [usize; 4] = [64, 1024, 16 * 1024, 64 * 1024];
const CODECS: [(&str, i32); 5] = [
    ("zstdx", 1),
    ("zstdx", 3),
    ("zstdx", 9),
    ("zlibx", 6),
    ("lz4x", 1),
];

fn compressor(codec: &str, level: i32, policy: StreamPolicy) -> Box<dyn Compressor> {
    match codec {
        "zstdx" => Box::new(Zstdx::new(level).with_stream_policy(policy)),
        "zlibx" => Box::new(Zlibx::new(level).with_stream_policy(policy)),
        "lz4x" => Box::new(Lz4x::new(level)),
        other => panic!("unknown codec {other}"),
    }
}

fn frame_hashes(seed: u64, class: FileClass, size: usize, codec: &str, level: i32) -> [u64; 3] {
    let data = corpus::silesia::generate(class, size, seed);
    POLICIES.map(|p| xxh64(&compressor(codec, level, p).compress(&data), 0))
}

fn dict_frame_hash() -> u64 {
    let items = corpus::cache::generate_items(&corpus::cache::cache1_profile(), 100, 7);
    let refs: Vec<&[u8]> = items.iter().map(|i| i.data.as_slice()).collect();
    let d = dict::train(&refs, 8192, 1);
    xxh64(&Zstdx::new(3).compress_with_dict(&items[0].data, &d), 0)
}

/// Every (seed, class, size, codec) combination the table must cover.
fn grid() -> Vec<(u64, FileClass, usize, &'static str, i32)> {
    let mut rows = Vec::new();
    for (ci, &class) in CLASSES.iter().enumerate() {
        for (si, &size) in SIZES.iter().enumerate() {
            let seed = 100 + 10 * ci as u64 + si as u64;
            for &(codec, level) in &CODECS {
                rows.push((seed, class, size, codec, level));
            }
        }
    }
    rows
}

#[test]
fn frames_match_golden_hashes() {
    let actual: Vec<Row> = grid()
        .into_iter()
        .map(|(seed, class, size, codec, level)| {
            let h = frame_hashes(seed, class, size, codec, level);
            (seed, class, size, codec, level, h)
        })
        .collect();
    let dict_actual = dict_frame_hash();
    if actual.as_slice() != GOLDEN || dict_actual != GOLDEN_DICT {
        let mut table = String::from("const GOLDEN: &[Row] = &[\n");
        for (seed, class, size, codec, level, [a, s, q]) in &actual {
            table.push_str(&format!(
                "    ({seed}, FileClass::{class:?}, {size}, \"{codec}\", {level}, \
                 [0x{a:016x}, 0x{s:016x}, 0x{q:016x}]),\n"
            ));
        }
        table.push_str(&format!(
            "];\n\nconst GOLDEN_DICT: u64 = 0x{dict_actual:016x};\n"
        ));
        let changed: Vec<String> = actual
            .iter()
            .zip(GOLDEN.iter().map(Some).chain(std::iter::repeat(None)))
            .filter(|(a, g)| Some(*a) != *g)
            .map(|((seed, class, size, codec, level, _), _)| {
                format!("{codec}@{level} {class:?} {size} B seed {seed}")
            })
            .collect();
        panic!(
            "frame bytes changed ({} grid rows differ, dict row {}):\n{}\n\nrecomputed table:\n{table}",
            changed.len(),
            if dict_actual == GOLDEN_DICT { "same" } else { "differs" },
            changed.join("\n"),
        );
    }
}
