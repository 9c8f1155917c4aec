//! `block_codec`: the codec core in-process on one thread, with no
//! server and no managed layer. Every block is compressed and then
//! decompressed under each configuration, and every decode is compared
//! with its input.

use std::time::Instant;

use codecs::zstdx::Zstdx;
use codecs::{Algorithm, Compressor};
use corpus::silesia::FileClass;

use crate::calib::Calib;
use crate::rng::SplitMix64;
use crate::stats::{median, Report, Samples};
use crate::trace::Tracer;

/// Passes over the block set per second of `--seconds`. Sizes the
/// seeded sequence; a pass is 5 configurations over 2 MiB both ways.
pub const PASS_RATE: f64 = 3.5;

/// KVSTORE1 units (128 KiB of SST data as 16 KiB blocks) per block set.
const SST_UNITS: usize = 4;
/// 64 KiB blocks per Silesia file class per block set.
pub const BLOCKS_PER_CLASS: usize = 4;
const CLASS_BLOCK: usize = 64 * 1024;

/// A codec configuration of the mix, all with the default
/// `StreamPolicy::Auto`.
pub struct Cfg {
    pub name: &'static str,
    pub codec: Box<dyn Compressor>,
    /// The same codec as a concrete `Zstdx`, for stage-timed compress.
    pub zstdx: Option<Zstdx>,
}

pub fn configs() -> Vec<Cfg> {
    let z = |name, level| Cfg {
        name,
        codec: Algorithm::Zstdx.compressor(level),
        zstdx: Some(Zstdx::new(level)),
    };
    let other = |name, algo: Algorithm, level| Cfg {
        name,
        codec: algo.compressor(level),
        zstdx: None,
    };
    vec![
        z("zstdx1", 1),
        z("zstdx3", 3),
        z("zstdx9", 9),
        other("zlibx6", Algorithm::Zlibx, 6),
        other("lz4x1", Algorithm::Lz4x, 1),
    ]
}

/// KVSTORE1 16 KiB SST blocks plus 64 KiB blocks of every Silesia file
/// class, from `seed`.
pub fn blocks(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    let mut out = blocks_of_kv(SST_UNITS, &mut rng);
    for class in FileClass::ALL {
        for _ in 0..BLOCKS_PER_CLASS {
            out.push(corpus::silesia::generate(
                class,
                CLASS_BLOCK,
                rng.next_u64(),
            ));
        }
    }
    out
}

/// The 16 KiB SST blocks of `units` KVSTORE1 work units.
fn blocks_of_kv(units: usize, rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    let kv = fleet::registry()
        .into_iter()
        .find(|s| s.name == "KVSTORE1")
        .expect("KVSTORE1 is in fleet::registry()");
    (0..units)
        .flat_map(|_| kv.workload.generate_unit(rng.next_u64()))
        .collect()
}

/// Per-configuration totals.
#[derive(Debug, Default, Clone)]
pub struct CfgTotals {
    pub bytes: u64,
    pub frame_bytes: u64,
    pub compress_ns: u64,
    pub decompress_ns: u64,
    /// Stage split of stage-timed (traced zstdx) compress calls.
    pub match_find_ns: u64,
    pub entropy_ns: u64,
    pub timed_ns: u64,
}

/// What a block_codec pass sequence measured.
#[derive(Default)]
pub struct CodecRun {
    /// Cold start of the codec core before each pass, in seconds.
    pub setup: Vec<f64>,
    pub lat: Samples,
    pub lag: Samples,
    pub per_cfg: Vec<(&'static str, CfgTotals)>,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
}

impl CodecRun {
    pub fn totals(&self) -> CfgTotals {
        let mut t = CfgTotals::default();
        for (_, c) in &self.per_cfg {
            t.bytes += c.bytes;
            t.frame_bytes += c.frame_bytes;
            t.compress_ns += c.compress_ns;
            t.decompress_ns += c.decompress_ns;
        }
        t
    }
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// Runs `passes` passes of every configuration over `blocks`, each
/// after a cold start of the codec core and a calibration point. With a
/// tracer, each codec call is a root span and stage-timed zstdx
/// compress calls add match-find and entropy child spans.
pub fn run(
    cfgs: &[Cfg],
    blocks: &[Vec<u8>],
    passes: usize,
    mut tracer: Option<&mut Tracer>,
    calib: &mut Calib,
) -> Result<CodecRun, String> {
    let probe = probe();
    let mut run = CodecRun {
        per_cfg: cfgs
            .iter()
            .map(|c| (c.name, CfgTotals::default()))
            .collect(),
        ..CodecRun::default()
    };
    let start = Instant::now();
    let mut last;
    let mut req = 0u64;
    for _ in 0..passes {
        run.setup.push(cold_start(&probe)?);
        calib.point();
        last = Instant::now();
        for block in blocks {
            for (cfg, (_, tot)) in cfgs.iter().zip(run.per_cfg.iter_mut()) {
                let t0 = Instant::now();
                run.lag.push(ns(last, t0));
                let (frame, stages) = match (&cfg.zstdx, tracer.is_some()) {
                    (Some(z), true) => {
                        let (f, s) = z.compress_timed(block);
                        (f, Some(s))
                    }
                    _ => (cfg.codec.compress(block), None),
                };
                let t1 = Instant::now();
                let back = cfg.codec.decompress(&frame);
                let t2 = Instant::now();
                last = t2;
                run.attempted += 2;
                run.lat.push(ns(t0, t1));
                tot.bytes += block.len() as u64;
                tot.frame_bytes += frame.len() as u64;
                tot.compress_ns += ns(t0, t1);
                if let Some(s) = stages {
                    tot.match_find_ns += s.match_find.as_nanos() as u64;
                    tot.entropy_ns += s.entropy.as_nanos() as u64;
                    tot.timed_ns += s.total.as_nanos() as u64;
                }
                match back {
                    Ok(data) if data == *block => {
                        run.lat.push(ns(t1, t2));
                        tot.decompress_ns += ns(t1, t2);
                    }
                    _ => {
                        run.failed += 1;
                        run.lat.push_failed();
                    }
                }
                if let Some(tr) = tracer.as_deref_mut() {
                    let c = tr.span(req, cfg.name, "compress", None, t0, t1);
                    if let Some(s) = stages {
                        let mf = t0 + s.match_find;
                        tr.span(req, "lzkit", "match_find", Some(c), t0, mf);
                        tr.span(req, "entropy", "encode", Some(c), mf, mf + s.entropy);
                    }
                    tr.span(req + 1, cfg.name, "decompress", None, t1, t2);
                }
                req += 2;
            }
        }
    }
    run.wall_s = start.elapsed().as_secs_f64();
    Ok(run)
}

/// The setup probe: the first KiB of a KVSTORE1 block from a fixed
/// seed.
pub fn probe() -> Vec<u8> {
    let mut b = blocks_of_kv(1, &mut SplitMix64::new(0)).swap_remove(0);
    b.truncate(1024);
    b
}

/// Cold start of the codec core, in seconds: construct the five
/// compressors and round-trip `probe` through each.
fn cold_start(probe: &[u8]) -> Result<f64, String> {
    let t0 = Instant::now();
    for cfg in &configs() {
        let frame = cfg.codec.compress(probe);
        match cfg.codec.decompress(&frame) {
            Ok(back) if back == probe => {}
            _ => return Err(format!("{} setup probe failed", cfg.name)),
        }
    }
    Ok(t0.elapsed().as_secs_f64())
}

pub fn mbps(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        bytes as f64 * 1e3 / ns as f64
    }
}

/// The end-to-end metrics of `block_codec`.
pub fn report(run: &CodecRun, r: &mut Report) {
    let t = run.totals();
    let calls = run.lat.len();
    r.add(
        "setup_s",
        median(&run.setup).unwrap_or(0.0),
        "s",
        run.setup.len(),
    );
    r.add(
        "req_p50_us",
        run.lat.quantile_us(0.5, 0).unwrap_or(f64::MAX),
        "us",
        calls,
    );
    if let Some(v) = run.lat.quantile_us(0.99, crate::serving::MIN_TAIL) {
        r.add_printed("req_p99_us", v, "us", calls);
    }
    let codec_ns = t.compress_ns + t.decompress_ns;
    r.add(
        "capacity_rps",
        (run.attempted - run.failed) as f64 * 1e9 / codec_ns.max(1) as f64,
        "1/s",
        calls,
    );
    r.add(
        "goodput_mbps",
        2.0 * t.bytes as f64 / run.wall_s / 1e6,
        "MB/s",
        calls,
    );
    r.add(
        "compress_mbps",
        mbps(t.bytes, t.compress_ns),
        "MB/s",
        calls / 2,
    );
    r.add(
        "decompress_mbps",
        mbps(t.bytes, t.decompress_ns),
        "MB/s",
        calls / 2,
    );
    r.add(
        "ratio",
        t.bytes as f64 / t.frame_bytes.max(1) as f64,
        "x",
        calls / 2,
    );
}
