//! The traced run: the workload once untraced and once with spans on,
//! then the per-layer split. Each layer is timed from outside, through
//! its public functions:
//!
//! * a serving round trip (span `server.<op>`) is replayed through a
//!   shadow `managed::ManagedCompression` fed the same per-tenant order
//!   (`managed.<op>`), then through the codec call on the same payload
//!   and dictionary (`codecs.<op>`), whose stage split comes from
//!   `Zstdx::compress_timed` (`lzkit.match_find`, `entropy.encode`);
//! * `codecs`, `lzkit`, `entropy` and `telemetry` are also timed on a
//!   fixed corpus drawn from the seed (cache items and `block_codec`
//!   blocks), so every traced run reports every layer.
//!
//! A layer's self time is its span minus its child spans.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use codecs::zstdx::Zstdx;
use codecs::{Compressor, Dictionary};
use entropy::fse::FseTable;
use entropy::huffman::HuffmanTable;
use lzkit::{MatchParams, Strategy};
use managed::{ManagedCompression, ManagedConfig, Reservoir, PASSTHROUGH_MAGIC};
use server::protocol::{self, Op, Request, Response, Status};

use crate::calib::Calib;
use crate::codec::{self, mbps, CodecRun};
use crate::serving::{self, ServingRun};
use crate::stats::{median, Report};
use crate::trace::Tracer;
use crate::wire::{Step, Tenant};
use crate::RunResult;

/// Where the spans of the last traced run of each workload are written.
const SPAN_DIR: &str = "perfbench/spans";

/// Both passes run half of `seconds` worth of traffic, so the two
/// passes plus the replay fit the time one run is given.
pub fn traced(workload: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let seconds = seconds / 2.0;
    let (plain, _) = crate::run_pass(workload, seed, seconds, None)?;
    let mut tracer = Tracer::new(Instant::now());
    let (spanned, pass) = crate::run_pass(workload, seed, seconds, Some(&mut tracer))?;
    let mut r = Report::default();
    let blocks = codec::blocks(seed);
    let mut attempted = plain.attempted + spanned.attempted;
    let mut failed = plain.failed + spanned.failed;
    let mut mismatches = plain.mismatches + spanned.mismatches;
    let (srun, gen_lag) = match pass {
        crate::Pass::Codec(run) => {
            codec_rows(&run, &mut r);
            // No server or managed layer on this workload's path: their
            // rows replay the block set through them, for reference.
            let steps = (0..blocks.len())
                .flat_map(|k| [Step::Write(k), Step::Read(k)])
                .collect();
            let tenant = Tenant {
                name: "BLOCKS",
                items: blocks.clone(),
                steps,
            };
            let phases = vec![(vec![tenant], serving::Load::Closed(1))];
            let srun = serving::run(phases, &codec::probe(), true)?;
            (srun, run.lag.quantile_us(0.99, 0))
        }
        crate::Pass::Serving(srun) => {
            let run = codec::run(
                &codec::configs(),
                &blocks,
                1,
                Some(&mut tracer),
                &mut Calib::new(),
            )?;
            codec_rows(&run, &mut r);
            attempted += run.attempted;
            failed += run.failed;
            mismatches += run.failed;
            let lag = srun.total().lag.quantile_us(0.99, 0);
            (srun, lag)
        }
    };
    let t = srun.total();
    attempted += t.attempted;
    failed += t.failed;
    mismatches += t.mismatches + serving_rows(&srun, &mut tracer, &mut r);
    codec_micro(seed, &blocks, &mut r);
    lzkit_entropy(seed, &blocks, &mut r);
    telemetry_costs(&mut r);
    r.add("bench.gen_lag_p99_us", gen_lag.unwrap_or(0.0), "us", 0);
    let p50 = |x: &RunResult| x.report.get("req_p50_us").unwrap_or(f64::NAN);
    r.add(
        "bench.tracing_overhead",
        p50(&spanned) / p50(&plain) - 1.0,
        "fraction",
        2,
    );
    let path = format!("{SPAN_DIR}/{workload}.json");
    match std::fs::create_dir_all(SPAN_DIR).and_then(|_| std::fs::write(&path, tracer.to_json())) {
        Ok(()) => eprintln!("  {} spans written to {path}", tracer.spans.len()),
        Err(e) => eprintln!("  spans not written to {path}: {e}"),
    }
    Ok(RunResult {
        report: r,
        attempted,
        failed,
        mismatches,
    })
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn p50_us(v: &[u64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    crate::stats::quantile_sorted(&s, 0.5).map_or(0.0, us)
}

/// Median nanoseconds per call of `f` over `reps` calls per round,
/// median of 5 rounds.
fn ns_per_call(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..reps {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    median(&rounds).unwrap_or(0.0)
}

/// Median microseconds of one call of `f` on each input.
fn median_us<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let times: Vec<f64> = inputs
        .iter()
        .map(|x| {
            let t = Instant::now();
            f(x);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

/// Bytes per second of `f` over `inputs`, in MB/s, over `passes` passes.
fn rate_mbps<T: AsRef<[u8]>>(inputs: &[T], passes: usize, mut f: impl FnMut(&T)) -> f64 {
    let bytes: usize = inputs.iter().map(|x| x.as_ref().len()).sum();
    let t = Instant::now();
    for _ in 0..passes {
        inputs.iter().for_each(&mut f);
    }
    mbps((bytes * passes) as u64, t.elapsed().as_nanos() as u64)
}

/// `codecs.<cfg>.*` rows and the zstdx3 stage split from a codec run.
fn codec_rows(run: &CodecRun, r: &mut Report) {
    for (name, t) in &run.per_cfg {
        r.add(
            format!("codecs.{name}.compress_mbps"),
            mbps(t.bytes, t.compress_ns),
            "MB/s",
            0,
        );
        r.add(
            format!("codecs.{name}.decompress_mbps"),
            mbps(t.bytes, t.decompress_ns),
            "MB/s",
            0,
        );
        r.add(
            format!("codecs.{name}.ratio"),
            t.bytes as f64 / t.frame_bytes.max(1) as f64,
            "x",
            0,
        );
        if *name == "zstdx3" {
            let total = t.timed_ns.max(1) as f64;
            r.add(
                "codecs.zstdx3.match_find_frac",
                t.match_find_ns as f64 / total,
                "fraction",
                0,
            );
            r.add(
                "codecs.zstdx3.entropy_frac",
                t.entropy_ns as f64 / total,
                "fraction",
                0,
            );
        }
    }
}

/// Mirror of the managed dictionary lifecycle (reservoir, retrain
/// interval, dictionary ids), so the codec call of a replayed request
/// runs on the same payload and dictionary managed used. Its frames are
/// compared byte for byte with managed's.
struct DictMirror {
    cfg: ManagedConfig,
    id_base: u32,
    reservoir: Reservoir,
    active: Option<Arc<Dictionary>>,
    next_version: u32,
    calls_since_train: u64,
    train_ns: Vec<u64>,
}

impl DictMirror {
    fn new(cfg: ManagedConfig, use_case: &str) -> Self {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        use_case.hash(&mut h);
        let hash = h.finish();
        Self {
            cfg,
            id_base: (hash as u32) << 20,
            reservoir: Reservoir::new(cfg.reservoir_capacity, cfg.seed ^ hash),
            active: None,
            next_version: 1,
            calls_since_train: 0,
            train_ns: Vec::new(),
        }
    }

    /// Offers `data` and retrains when managed would; returns the
    /// dictionary the compress call uses and the training time, if it
    /// trained.
    fn offer(&mut self, data: &[u8]) -> (Option<Arc<Dictionary>>, Option<u64>) {
        self.reservoir.offer(data);
        self.calls_since_train += 1;
        let due = self.calls_since_train >= self.cfg.retrain_interval
            || (self.active.is_none() && self.reservoir.is_warm());
        let mut trained = None;
        if due && self.reservoir.is_warm() {
            let refs: Vec<&[u8]> = self.reservoir.samples().iter().map(Vec::as_slice).collect();
            let t = Instant::now();
            let id = self.id_base | (self.next_version & 0xfffff);
            let dict = codecs::dict::train(&refs, self.cfg.dict_size, id);
            let ns = t.elapsed().as_nanos() as u64;
            self.train_ns.push(ns);
            trained = Some(ns);
            if !dict.is_empty() {
                self.active = Some(Arc::new(dict));
                self.next_version += 1;
            }
            self.calls_since_train = 0;
        }
        (self.active.clone(), trained)
    }
}

/// A replayed write: managed's frame, and the codec's frame with the
/// dictionary it was made with.
type Replayed = (Vec<u8>, Vec<u8>, Option<Arc<Dictionary>>);

/// Replays a serving run layer by layer and adds the `server.*` and
/// `managed.*` rows. Returns the number of replay mismatches (managed
/// output that does not round-trip, or a codec frame that differs from
/// managed's).
fn serving_rows(run: &ServingRun, tracer: &mut Tracer, r: &mut Report) -> u64 {
    let cfg = ManagedConfig::default();
    let mut shadows: Vec<(&str, ManagedCompression, DictMirror)> = Vec::new();
    let mut mismatches = 0u64;
    let mut frame_diffs = 0u64;
    let mut protocol_ns = 0u64;
    let mut protocol_reqs = 0u64;
    let mut req = 0u64;
    let mut split_train_ns = 0u64;
    for phase in &run.phases {
        // Only the split phases are replayed layer by layer; the
        // others still pass their writes through the shadow, so its
        // dictionary generations stay those of the server.
        let split = run.is_split(phase);
        for (tenant, (out, _)) in phase.tenants.iter().zip(&phase.outs) {
            let slot = match shadows.iter().position(|(n, _, _)| *n == tenant.name) {
                Some(i) => i,
                None => {
                    shadows.push((
                        tenant.name,
                        ManagedCompression::new(cfg),
                        DictMirror::new(cfg, tenant.name),
                    ));
                    shadows.len() - 1
                }
            };
            let (_, shadow, mirror) = &mut shadows[slot];
            let codec = Zstdx::new(cfg.level);
            let mut frames: Vec<Option<Replayed>> = vec![None; tenant.items.len()];
            for (i, &step) in tenant.steps.iter().enumerate() {
                req += 1;
                let Some(&(start, end)) = out.spans.get(i) else {
                    continue;
                };
                if end == 0 {
                    continue; // failed round trip
                }
                if !split {
                    if let Step::Write(k) = step {
                        let _ = shadow.compress(tenant.name, &tenant.items[k]);
                        mirror.offer(&tenant.items[k]);
                    }
                    continue;
                }
                let (op, k) = match step {
                    Step::Write(k) => ("compress", k),
                    Step::Read(k) => ("decompress", k),
                };
                let item = &tenant.items[k];
                let root = tracer.span_ns(req, "server", op, None, start, end);
                match step {
                    Step::Write(_) => {
                        let t0 = Instant::now();
                        let got = shadow.compress(tenant.name, item);
                        let t1 = Instant::now();
                        let m = tracer.span(req, "managed", op, Some(root), t0, t1);
                        let Ok(mframe) = got else {
                            mismatches += 1;
                            continue;
                        };
                        let (dict, trained) = mirror.offer(item);
                        split_train_ns += trained.unwrap_or(0);
                        let c0 = Instant::now();
                        let (cframe, st) = match &dict {
                            Some(d) => codec.compress_with_dict_timed(item, d),
                            None => codec.compress_timed(item),
                        };
                        let c = tracer.span(req, "codecs", op, Some(m), c0, Instant::now());
                        tracer.span_dur(req, "lzkit", "match_find", Some(c), c0, st.match_find);
                        tracer.span_dur(
                            req,
                            "entropy",
                            "encode",
                            Some(c),
                            c0 + st.match_find,
                            st.entropy,
                        );
                        if !mframe.starts_with(&PASSTHROUGH_MAGIC) && mframe != cframe {
                            frame_diffs += 1;
                        }
                        frames[k] = Some((mframe, cframe, dict));
                    }
                    Step::Read(_) => {
                        let Some((mframe, cframe, dict)) = &frames[k] else {
                            continue;
                        };
                        let t0 = Instant::now();
                        let got = shadow.decompress(tenant.name, mframe);
                        let t1 = Instant::now();
                        let m = tracer.span(req, "managed", op, Some(root), t0, t1);
                        if got.as_ref() != Ok(item) {
                            mismatches += 1;
                        }
                        let c0 = Instant::now();
                        let back = match dict {
                            Some(d) => codec.decompress_with_dict(cframe, d),
                            None => codec.decompress(cframe),
                        };
                        tracer.span(req, "codecs", op, Some(m), c0, Instant::now());
                        if back.as_ref() != Ok(item) {
                            mismatches += 1;
                        }
                        if protocol_reqs < 4096 {
                            protocol_ns += protocol_cost(tenant.name, mframe, item);
                            protocol_reqs += 1;
                        }
                    }
                }
            }
        }
    }
    if frame_diffs > 0 {
        eprintln!("  replay: {frame_diffs} codec frames differ from managed's (dictionary mirror out of step)");
    }
    for op in ["compress", "decompress"] {
        r.add(
            format!("server.{op}_rtt_p50_us"),
            p50_us(&tracer.select("server", op, false)),
            "us",
            0,
        );
    }
    for op in ["compress", "decompress"] {
        let selfs: Vec<f64> = tracer
            .select("server", op, true)
            .iter()
            .map(|&n| us(n))
            .collect();
        r.add(
            format!("server.self_{op}_us"),
            median(&selfs).unwrap_or(0.0),
            "us",
            selfs.len(),
        );
    }
    r.add(
        "server.protocol_ns_per_req",
        protocol_ns as f64 / protocol_reqs.max(1) as f64,
        "ns",
        protocol_reqs as usize,
    );
    for op in ["compress", "decompress"] {
        r.add(
            format!("managed.{op}_p50_us"),
            p50_us(&tracer.select("managed", op, false)),
            "us",
            0,
        );
    }
    for op in ["compress", "decompress"] {
        let selfs: Vec<f64> = tracer
            .select("managed", op, true)
            .iter()
            .map(|&n| us(n))
            .collect();
        r.add(
            format!("managed.self_{op}_us"),
            median(&selfs).unwrap_or(0.0),
            "us",
            selfs.len(),
        );
    }
    let (mut trains, mut passthrough, mut calls) = (0u64, 0u64, 0u64);
    let mut train_ns = Vec::new();
    for (name, shadow, mirror) in &shadows {
        if let Some(s) = shadow.stats(name) {
            trains += u64::from(s.versions_trained);
            passthrough += s.passthrough;
            calls += s.compress_calls;
        }
        train_ns.extend_from_slice(&mirror.train_ns);
    }
    let managed_ns: u64 = tracer.select("managed", "compress", false).iter().sum();
    let train_ms: Vec<f64> = train_ns.iter().map(|&n| n as f64 / 1e6).collect();
    r.add("managed.dict_trains", trains as f64, "count", 0);
    r.add(
        "managed.dict_train_ms",
        median(&train_ms).unwrap_or(0.0),
        "ms",
        train_ms.len(),
    );
    r.add(
        "managed.train_share",
        split_train_ns as f64 / managed_ns.max(1) as f64,
        "fraction",
        0,
    );
    r.add(
        "managed.passthrough_frac",
        passthrough as f64 / calls.max(1) as f64,
        "fraction",
        calls as usize,
    );
    mismatches
}

/// Nanoseconds to frame and parse one decompress request and its
/// response with the public protocol functions.
fn protocol_cost(tenant: &str, frame: &[u8], item: &[u8]) -> u64 {
    let limits = codecs::DecodeLimits::default();
    let req = Request {
        op: Op::Decompress,
        tenant: tenant.to_string(),
        use_case: tenant.to_string(),
        payload: frame.to_vec(),
    };
    let resp = Response {
        status: Status::Ok,
        payload: item.to_vec(),
    };
    let mut wire = Vec::with_capacity(frame.len() + item.len() + 64);
    let t = Instant::now();
    let _ = protocol::encode_request(&mut wire, &req);
    let back = protocol::read_request(&mut wire.as_slice(), &limits);
    wire.clear();
    protocol::encode_response(&mut wire, &resp);
    let answer = protocol::read_response(&mut wire.as_slice(), &limits);
    let ns = t.elapsed().as_nanos() as u64;
    let _ = black_box((back, answer));
    ns
}

/// Cache items of both cache tenants, for the small-size rows.
fn cache_items(seed: u64) -> Vec<Vec<u8>> {
    let mut items = serving::tenant("CACHE1", seed, 3, 600).items;
    items.extend(serving::tenant("CACHE2", seed, 3, 600).items);
    items
}

/// Size rows of zstdx3, dictionary rows on cache items, checksum rate.
fn codec_micro(seed: u64, blocks: &[Vec<u8>], r: &mut Report) {
    let z = Zstdx::new(3);
    let sst = &blocks[0];
    for (label, len) in [("64b", 64usize), ("1k", 1024), ("16k", 16 * 1024)] {
        let src = &sst[..len.min(sst.len())];
        let frame = z.compress(src);
        let reps = (1 << 22) / (len + 4096);
        r.add(
            format!("codecs.zstdx3.compress_us_{label}"),
            ns_per_call(reps, |_| drop(black_box(z.compress(src)))) / 1e3,
            "us",
            reps * 5,
        );
        r.add(
            format!("codecs.zstdx3.decompress_us_{label}"),
            ns_per_call(reps, |_| drop(black_box(z.decompress(&frame)))) / 1e3,
            "us",
            reps * 5,
        );
    }
    let items = cache_items(seed);
    let (train, rest) = items.split_at(64.min(items.len()));
    let refs: Vec<&[u8]> = train.iter().map(Vec::as_slice).collect();
    let dict = codecs::dict::train(&refs, 16 * 1024, 1);
    let frames: Vec<Vec<u8>> = rest
        .iter()
        .map(|x| z.compress_with_dict(x, &dict))
        .collect();
    r.add(
        "codecs.dict_compress_us",
        median_us(rest, |x| drop(black_box(z.compress_with_dict(x, &dict)))),
        "us",
        rest.len(),
    );
    r.add(
        "codecs.dict_decompress_us",
        median_us(&frames, |f| {
            drop(black_box(z.decompress_with_dict(f, &dict)))
        }),
        "us",
        frames.len(),
    );
    r.add(
        "codecs.checksum_mbps",
        rate_mbps(blocks, 8, |b| {
            black_box(codecs::xxhash::xxh64(b, 0));
        }),
        "MB/s",
        blocks.len() * 8,
    );
}

/// `lzkit.*` and `entropy.*` rows.
fn lzkit_entropy(seed: u64, blocks: &[Vec<u8>], r: &mut Report) {
    for s in [Strategy::Fast, Strategy::Greedy, Strategy::Lazy] {
        let p = MatchParams::new(s);
        r.add(
            format!("lzkit.parse_mbps.{s}"),
            rate_mbps(blocks, 1, |b| drop(black_box(lzkit::parse(b, 0, &p)))),
            "MB/s",
            blocks.len(),
        );
    }
    let p3 = *Zstdx::new(3).params();
    let flat: Vec<u8> = cache_items(seed).concat();
    let chunks: Vec<&[u8]> = flat.chunks_exact(1024).take(1000).collect();
    r.add(
        "lzkit.parse_us_1k",
        median_us(&chunks, |c| drop(black_box(lzkit::parse(c, 0, &p3)))),
        "us",
        chunks.len(),
    );
    let parsed: Vec<lzkit::ParsedBlock> = blocks.iter().map(|b| lzkit::parse(b, 0, &p3)).collect();
    let lits: usize = parsed.iter().map(|p| p.literals.len()).sum();
    let total: usize = blocks.iter().map(Vec::len).sum();
    r.add(
        "lzkit.literal_frac",
        lits as f64 / total as f64,
        "fraction",
        blocks.len(),
    );
    let t = Instant::now();
    for p in &parsed {
        black_box(lzkit::reconstruct(p, &[]).ok());
    }
    r.add(
        "lzkit.reconstruct_mbps",
        mbps(total as u64, t.elapsed().as_nanos() as u64),
        "MB/s",
        blocks.len(),
    );

    // Huffman: literal histograms of cache-item parses (small alphabets)
    // and of the 64 KiB Binary-class blocks (full byte alphabet).
    let small: Vec<[u32; 256]> = chunks
        .iter()
        .take(500)
        .map(|c| entropy::hist::byte_histogram(&lzkit::parse(c, 0, &p3).literals))
        .collect();
    r.add(
        "entropy.huffman_build_us_small",
        median_us(&small, |h| drop(black_box(HuffmanTable::build(h, 11)))),
        "us",
        small.len(),
    );
    // `codec::blocks` ends with the Binary class, the last of
    // `FileClass::ALL`.
    let wide: Vec<[u32; 256]> = parsed
        .iter()
        .rev()
        .take(codec::BLOCKS_PER_CLASS)
        .map(|p| entropy::hist::byte_histogram(&p.literals))
        .collect();
    r.add(
        "entropy.huffman_build_us_256",
        median_us(&wide, |h| drop(black_box(HuffmanTable::build(h, 11)))),
        "us",
        wide.len(),
    );
    let tables: Vec<(HuffmanTable, &[u8])> = parsed
        .iter()
        .filter(|p| p.literals.len() > 64)
        .filter_map(|p| {
            HuffmanTable::build(&entropy::hist::byte_histogram(&p.literals), 11)
                .map(|t| (t, p.literals.as_slice()))
        })
        .collect();
    let lens: Vec<Vec<u8>> = tables
        .iter()
        .rev()
        .take(codec::BLOCKS_PER_CLASS)
        .map(|(t, _)| t.lengths().to_vec())
        .collect();
    r.add(
        "entropy.huffman_from_lengths_us",
        median_us(&lens, |l| drop(black_box(HuffmanTable::from_lengths(l)))),
        "us",
        lens.len(),
    );
    let lit_bytes: u64 = tables.iter().map(|(_, l)| l.len() as u64).sum();
    let t = Instant::now();
    let enc: Vec<Vec<u8>> = tables.iter().map(|(t, l)| t.encode(l)).collect();
    r.add(
        "entropy.huffman_encode_mbps",
        mbps(lit_bytes, t.elapsed().as_nanos() as u64),
        "MB/s",
        tables.len(),
    );
    let t = Instant::now();
    for ((tb, l), e) in tables.iter().zip(&enc) {
        black_box(tb.decode_fast(e, l.len()).ok());
    }
    r.add(
        "entropy.huffman_decode_mbps",
        mbps(lit_bytes, t.elapsed().as_nanos() as u64),
        "MB/s",
        tables.len(),
    );
    let enc4: Vec<[Vec<u8>; 4]> = tables.iter().map(|(t, l)| t.encode_4stream(l)).collect();
    let t = Instant::now();
    for ((tb, l), e) in tables.iter().zip(&enc4) {
        let bufs = [
            e[0].as_slice(),
            e[1].as_slice(),
            e[2].as_slice(),
            e[3].as_slice(),
        ];
        black_box(tb.decode_4stream_fast(bufs, l.len()).ok());
    }
    r.add(
        "entropy.huffman4_decode_mbps",
        mbps(lit_bytes, t.elapsed().as_nanos() as u64),
        "MB/s",
        tables.len(),
    );

    // FSE over literal-length codes of the parses.
    let syms: Vec<Vec<u16>> = parsed
        .iter()
        .map(|p| {
            p.sequences
                .iter()
                .map(|s| s.literal_len.min(35) as u16)
                .collect::<Vec<u16>>()
        })
        .filter(|s| s.len() > 16)
        .collect();
    let hists: Vec<Vec<u32>> = syms
        .iter()
        .map(|s| entropy::hist::symbol_histogram(s, 36))
        .collect();
    r.add(
        "entropy.fse_build_us",
        median_us(&hists.iter().zip(&syms).collect::<Vec<_>>(), |(h, s)| {
            drop(black_box(FseTable::from_frequencies(h, 9, s.len())))
        }),
        "us",
        hists.len(),
    );
    let fse: Vec<(FseTable, &Vec<u16>)> = hists
        .iter()
        .zip(&syms)
        .filter_map(|(h, s)| {
            FseTable::from_frequencies(h, 9, s.len())
                .ok()
                .map(|t| (t, s))
        })
        .collect();
    let n_syms: u64 = fse.iter().map(|(_, s)| s.len() as u64).sum();
    let t = Instant::now();
    let fenc: Vec<Vec<u8>> = fse.iter().map(|(t, s)| t.encode(s)).collect();
    r.add(
        "entropy.fse_encode_mbps",
        mbps(n_syms, t.elapsed().as_nanos() as u64),
        "Msym/s",
        fse.len(),
    );
    let t = Instant::now();
    for ((tb, s), e) in fse.iter().zip(&fenc) {
        black_box(tb.decode_fast(e, s.len()).ok());
    }
    r.add(
        "entropy.fse_decode_mbps",
        mbps(n_syms, t.elapsed().as_nanos() as u64),
        "Msym/s",
        fse.len(),
    );
}

/// Per-call cost of the telemetry calls `server` and `managed` make,
/// with their labels.
fn telemetry_costs(r: &mut Report) {
    let n = 20_000;
    let counter = ns_per_call(n, |_| {
        telemetry::global()
            .counter(
                "server.requests",
                &[("tenant", "CACHE1"), ("op", "compress"), ("status", "ok")],
            )
            .inc()
    });
    let window = ns_per_call(n, |i| {
        telemetry::windows()
            .histogram("server.request.nanos", &[("tenant", "CACHE1")])
            .observe(1_000 + i as u64)
    });
    let slo = ns_per_call(n, |_| {
        drop(black_box(telemetry::slos().get("server.request.latency")))
    });
    let open = ns_per_call(n / 4, |_| {
        drop(telemetry::requests().open("CACHE1", telemetry::Op::Compress, 416))
    });
    r.add("telemetry.counter_inc_ns", counter, "ns", n * 5);
    r.add("telemetry.window_observe_ns", window, "ns", n * 5);
    r.add("telemetry.slo_get_ns", slo, "ns", n * 5);
    r.add("telemetry.request_open_ns", open, "ns", n / 4 * 5);
    // Calls per served compress request, counted from the code: server
    // (1 counter, 1 window, 2 SLO lookups) plus managed (1 request
    // context, 7 counters/gauges/histogram, 2 windows, 1 SLO lookup).
    r.add(
        "telemetry.per_op_ns",
        8.0 * counter + 3.0 * window + 3.0 * slo + open,
        "ns",
        0,
    );
}
