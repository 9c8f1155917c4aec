//! The two serving workloads: an in-process `server::CompressionServer`
//! on `127.0.0.1:0` with two workers, driven from the same process over
//! two connections, one tenant per connection.

use std::time::{Duration, Instant};

use server::protocol::{Op, Status};
use server::{CompressionServer, ServerConfig};

use crate::calib::Calib;
use crate::codec::mbps;
use crate::rng::SplitMix64;
use crate::stats::{median, phase_quantile_us, Report, Samples};
use crate::wire::{closed_loop, open_loop, Conn, Outcome, Schedule, Step, Tenant};

/// The load shape of a phase.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Requests leave on schedule at this rate over all connections.
    Open(f64),
    /// Up to this many requests in flight per connection.
    Closed(usize),
}

impl std::fmt::Display for Load {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Load::Open(rate) => write!(f, "open {rate} req/s"),
            Load::Closed(depth) => write!(f, "closed x{depth}"),
        }
    }
}

/// Offered rate of the `cache_serve` open-loop phases, in requests per
/// second over both connections. Pinned, never derived from a run:
/// about a quarter of what `datacomp loadgen --concurrency 2` reaches
/// on a 2-vCPU VM, because at half of it a slow stretch of the shared
/// host already saturated the server.
pub const CACHE_OPEN_RATE: f64 = 4_000.0;

/// Share of `--seconds` the `cache_serve` open loop runs.
const OPEN_SHARE: f64 = 1.0 / 3.0;

/// Requests per second of the rest of `--seconds` sent in the
/// `cache_serve` closed-loop phases, over both connections. Sizes the
/// seeded request sequence; the phases take as long as the server
/// needs for it.
pub const CACHE_CLOSED_RATE: f64 = 32_000.0;

/// Requests in flight per connection in the `cache_serve` closed loop:
/// enough that the server, not the wake-up of an idle vCPU between a
/// response and the next request, sets the rate.
pub const CACHE_DEPTH: usize = 32;

/// Requests per second of `--seconds` per `warehouse_ingest` tenant.
pub const DW1_RATE: f64 = 30.0;
pub const DW2_RATE: f64 = 450.0;

/// Cold starts measured for `setup_s` before each phase; the median
/// over the run is reported. Spreading them over the run keeps a slow
/// stretch of the machine from setting the figure.
const SETUP_REPS: usize = 20;

/// Largest setup probe: the first KiB of a fixed item, so `setup_s`
/// times the server's start, not the seed's item size.
const PROBE_MAX: usize = 1024;

/// Tail samples required beyond a reported p99.
pub const MIN_TAIL: usize = 10;

/// Phases per load shape in a run. Each has its own seeded traffic and
/// fresh client threads, so the threads' placement is drawn anew;
/// latency quantiles are the median over phases, so a burst of outside
/// load moves one phase. Odd, so the median is a measured phase.
pub const PHASES: usize = 7;

fn spec(name: &str) -> fleet::ServiceSpec {
    fleet::registry()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} is not in fleet::registry()"))
}

/// Items between an item's write and its reads: a cache read follows
/// its write only after other traffic, so an open-loop read never waits
/// on its own write's answer.
pub const READ_LAG: usize = 16;

/// A tenant's seeded traffic: fleet work units for `name`, each item
/// written once and read `reads_per_write` times (the fractional part
/// decided per item by a seeded draw) after [`READ_LAG`] later writes,
/// truncated to `steps` requests. `salt` separates independent
/// sequences of one tenant (phases).
pub fn tenant(name: &'static str, seed: u64, salt: u64, steps: usize) -> Tenant {
    let spec = spec(name);
    let mut rng = SplitMix64::new(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let whole = spec.reads_per_write.floor();
    let frac = spec.reads_per_write - whole;
    let mut t = Tenant {
        name,
        items: Vec::new(),
        steps: Vec::with_capacity(steps + 64),
    };
    let mut reads = std::collections::VecDeque::new();
    while t.steps.len() < steps {
        for item in spec.workload.generate_unit(rng.next_u64()) {
            let k = t.items.len();
            t.items.push(item);
            t.steps.push(Step::Write(k));
            reads.push_back((k, whole as usize + usize::from(rng.next_f64() < frac)));
            if reads.len() > READ_LAG {
                if let Some((j, n)) = reads.pop_front() {
                    t.steps.extend(std::iter::repeat_n(Step::Read(j), n));
                }
            }
        }
    }
    t.steps.truncate(steps);
    t
}

fn cold_start(probe: &[u8]) -> Result<(CompressionServer, f64), String> {
    let t0 = Instant::now();
    let server = CompressionServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let mut conn = Conn::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let resp = conn
        .roundtrip(Op::Compress, "setup-probe", probe)
        .map_err(|e| format!("setup probe: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    if resp.status != Status::Ok {
        return Err(format!("setup probe answered {:?}", resp.status));
    }
    Ok((server, secs))
}

/// The setup probe of a tenant: its first item from a fixed seed, cut
/// to [`PROBE_MAX`] bytes.
pub fn probe(name: &'static str) -> Vec<u8> {
    let mut item = tenant(name, 0, 0, 1).items.swap_remove(0);
    item.truncate(PROBE_MAX);
    item
}

/// Cold-starts the server `SETUP_REPS` times, appending each start time
/// to `times`, and keeps the last server. The probe goes to a tenant of
/// its own, so the measured tenants' dictionaries are untouched.
fn start(probe: &[u8], times: &mut Vec<f64>) -> Result<CompressionServer, String> {
    let mut last: Option<CompressionServer> = None;
    for _ in 0..SETUP_REPS {
        let (server, secs) = cold_start(probe)?;
        times.push(secs);
        if let Some(prev) = last.replace(server) {
            prev.shutdown();
        }
    }
    last.ok_or_else(|| "no server".to_string())
}

/// One phase over all tenants at once, one thread per connection.
/// Returns each connection's outcome and wall time.
fn run_phase(
    conns: &mut [Conn],
    tenants: &[Tenant],
    epoch: Instant,
    trace: bool,
    load: Load,
) -> Vec<(Outcome, f64)> {
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(tenants)
            .map(|(conn, t)| {
                s.spawn(move || {
                    let out = match load {
                        Load::Open(rate) => {
                            let sched = Schedule {
                                start,
                                interval: Duration::from_secs_f64(tenants.len() as f64 / rate),
                            };
                            open_loop(conn, t, sched, epoch, trace)
                        }
                        Load::Closed(depth) => closed_loop(conn, t, epoch, trace, depth),
                    };
                    (out, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// A finished phase: its tenants, its load, and each connection's
/// outcome and wall time.
pub struct Phase {
    pub tenants: Vec<Tenant>,
    pub load: Load,
    pub outs: Vec<(Outcome, f64)>,
}

impl Phase {
    fn is_open(&self) -> bool {
        matches!(self.load, Load::Open(_))
    }
}

/// Everything a serving run measured.
pub struct ServingRun {
    /// Every cold start, in seconds.
    pub setup: Vec<f64>,
    /// Machine speed, timed before each phase.
    pub calib: Calib,
    /// Phases in order: `(tenants, per-connection outcomes)`.
    pub phases: Vec<Phase>,
}

impl ServingRun {
    pub fn total(&self) -> Outcome {
        let mut all = Outcome::default();
        for p in &self.phases {
            for (o, _) in &p.outs {
                all.merge(o);
            }
        }
        all
    }

    /// Whether the traced run splits `phase` by layer: the open-loop
    /// phases if the run has any (a round trip there is one request's
    /// time, not a queue's), every phase otherwise.
    pub fn is_split(&self, phase: &Phase) -> bool {
        phase.is_open() == self.phases.iter().any(Phase::is_open)
    }

    fn closed_phases(&self) -> impl Iterator<Item = &Phase> {
        self.phases.iter().filter(|p| !p.is_open())
    }

    fn open_phases(&self) -> impl Iterator<Item = &Phase> {
        self.phases.iter().filter(|p| p.is_open())
    }
}

/// Runs `phases` (tenants and their load) against a fresh server,
/// timing cold starts with `probe` before each phase.
pub fn run(
    phases: Vec<(Vec<Tenant>, Load)>,
    probe: &[u8],
    trace: bool,
) -> Result<ServingRun, String> {
    let mut setup = Vec::new();
    let mut calib = Calib::new();
    let server = start(probe, &mut setup)?;
    let width = phases.first().map_or(0, |(t, _)| t.len());
    let mut conns = (0..width)
        .map(|_| Conn::connect(server.local_addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let epoch = Instant::now();
    let mut done = Vec::with_capacity(phases.len());
    for (j, (tenants, load)) in phases.into_iter().enumerate() {
        if j > 0 {
            start(probe, &mut setup)?.shutdown();
        }
        calib.point();
        let mut outs = run_phase(&mut conns, &tenants, epoch, trace, load);
        // Frames only serve the phase's own reads.
        outs.iter_mut().for_each(|(o, _)| o.frames = Vec::new());
        for (t, (o, wall)) in tenants.iter().zip(&outs) {
            eprintln!(
                "  {:<8} {:>20} {:>7} requests in {wall:.3} s, {} failed",
                t.name,
                load.to_string(),
                o.attempted,
                o.failed
            );
        }
        done.push(Phase {
            tenants,
            load,
            outs,
        });
    }
    drop(conns);
    server.shutdown();
    Ok(ServingRun {
        setup,
        calib,
        phases: done,
    })
}

/// Totals of a phase while every connection is loaded: from the
/// first send to the end of the shortest connection, so a connection
/// that finishes early does not leave the other to run alone.
#[derive(Debug, Default, Clone, Copy)]
struct Loaded {
    secs: f64,
    ok: u64,
    write_bytes: u64,
    read_bytes: u64,
}

fn loaded(outs: &[(Outcome, f64)]) -> Loaded {
    let done = || outs.iter().flat_map(|(o, _)| o.done.iter());
    let Some(start) = done().map(|d| d.at_ns.saturating_sub(d.lat_ns)).min() else {
        return Loaded::default();
    };
    let end = outs
        .iter()
        .filter_map(|(o, _)| o.done.last().map(|d| d.at_ns))
        .min()
        .unwrap_or(start);
    let mut t = Loaded {
        secs: end.saturating_sub(start) as f64 / 1e9,
        ..Loaded::default()
    };
    for d in done().filter(|d| d.at_ns <= end) {
        t.ok += 1;
        if d.write {
            t.write_bytes += d.bytes;
        } else {
            t.read_bytes += d.bytes;
        }
    }
    t
}

/// Prints the median over `phases` of their p99, where every phase has
/// [`MIN_TAIL`] samples beyond it.
fn add_p99(r: &mut Report, name: &str, phases: &[Samples]) {
    let n = phases.iter().map(Samples::len).sum();
    match phase_quantile_us(phases, 0.99, MIN_TAIL) {
        Some(v) => r.add_printed(name, v, "us", n),
        None => eprintln!("{name}: a phase has fewer than {MIN_TAIL} samples beyond its p99"),
    }
}

/// Each phase's latency samples, pooled over its connections.
fn phase_samples<'a>(phases: impl Iterator<Item = &'a Phase>) -> Vec<Samples> {
    phases
        .map(|p| {
            let mut s = Samples::default();
            p.outs.iter().for_each(|(o, _)| s.extend(&o.lat));
            s
        })
        .collect()
}

/// The end-to-end metrics shared by both serving workloads, all from
/// the closed-loop phases. Latency quantiles are the median over phases
/// of each phase's quantile. p99 and the open-loop latencies are
/// printed, not reported: on a shared 2-vCPU VM they follow the host's
/// scheduling of our vCPUs more than the server (see
/// `perfbench/README.md`).
///
/// `compress_mbps` and `decompress_mbps` are bytes over the seconds spent
/// in that direction: summed request latencies when one request is in
/// flight per connection, and the direction's share of goodput when the
/// closed loop is pipelined, where queued requests of both directions
/// share every second.
pub fn report(run: &ServingRun, r: &mut Report) {
    let total = run.total();
    let lat = phase_samples(run.closed_phases());
    let lat_n: usize = lat.iter().map(Samples::len).sum();
    // Rates: totals over the loaded part of every phase.
    let mut served = Outcome::default();
    let mut pipelined = false;
    let mut loads = Vec::new();
    for p in run.closed_phases() {
        p.outs.iter().for_each(|(o, _)| served.merge(o));
        pipelined |= matches!(p.load, Load::Closed(depth) if depth > 1);
        loads.push(loaded(&p.outs));
    }
    let secs: f64 = loads.iter().map(|t| t.secs).sum();
    let rate = |f: &dyn Fn(&Loaded) -> u64| {
        let total: u64 = loads.iter().map(f).sum();
        if secs > 0.0 {
            total as f64 / secs
        } else {
            0.0
        }
    };
    let n: usize = loads.iter().map(|t| t.ok as usize).sum();
    r.add(
        "setup_s",
        median(&run.setup).unwrap_or(0.0),
        "s",
        run.setup.len(),
    );
    let p50 = phase_quantile_us(&lat, 0.5, 0);
    r.add("req_p50_us", p50.unwrap_or(f64::MAX), "us", lat_n);
    add_p99(r, "req_p99_us", &lat);
    let open = phase_samples(run.open_phases());
    if !open.is_empty() {
        let n = open.iter().map(Samples::len).sum();
        let p50 = phase_quantile_us(&open, 0.5, 0).unwrap_or(f64::MAX);
        r.add_printed("open_p50_us", p50, "us", n);
        add_p99(r, "open_p99_us", &open);
    }
    r.add("capacity_rps", rate(&|t| t.ok), "1/s", n);
    r.add(
        "goodput_mbps",
        rate(&|t| t.write_bytes + t.read_bytes) / 1e6,
        "MB/s",
        n,
    );
    let (compress, decompress) = if pipelined {
        (
            rate(&|t| t.write_bytes) / 1e6,
            rate(&|t| t.read_bytes) / 1e6,
        )
    } else {
        (
            mbps(served.write_bytes, served.write_ns),
            mbps(served.read_bytes, served.read_ns),
        )
    };
    r.add("compress_mbps", compress, "MB/s", served.lat_write.len());
    r.add("decompress_mbps", decompress, "MB/s", served.lat_read.len());
    r.add(
        "ratio",
        total.write_bytes as f64 / total.frame_bytes.max(1) as f64,
        "x",
        total.lat_write.len(),
    );
}

/// `cache_serve`: CACHE1 and CACHE2 in [`PHASES`] open-loop phases at
/// [`CACHE_OPEN_RATE`], [`OPEN_SHARE`] of `seconds` in all, then
/// [`PHASES`] closed-loop phases.
pub fn cache_phases(seed: u64, seconds: f64) -> Vec<(Vec<Tenant>, Load)> {
    let names = ["CACHE1", "CACHE2"];
    let phase = |salt, rate: f64, share: f64, load| {
        let steps = (rate * seconds * share / 2.0 / PHASES as f64) as usize;
        (
            names.iter().map(|n| tenant(n, seed, salt, steps)).collect(),
            load,
        )
    };
    let n = PHASES as u64;
    let open = Load::Open(CACHE_OPEN_RATE);
    let closed = Load::Closed(CACHE_DEPTH);
    let open = (1..=n).map(|j| phase(j, CACHE_OPEN_RATE, OPEN_SHARE, open));
    let closed = (1..=n).map(|j| phase(n + j, CACHE_CLOSED_RATE, 1.0 - OPEN_SHARE, closed));
    open.chain(closed).collect()
}

/// `warehouse_ingest`: DW1 and DW2 in [`PHASES`] closed-loop phases.
pub fn warehouse_phases(seed: u64, seconds: f64) -> Vec<(Vec<Tenant>, Load)> {
    let steps = |rate: f64| (rate * seconds / PHASES as f64) as usize;
    (1..=PHASES as u64)
        .map(|salt| {
            (
                vec![
                    tenant("DW1", seed, salt, steps(DW1_RATE)),
                    tenant("DW2", seed, salt, steps(DW2_RATE)),
                ],
                Load::Closed(1),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_traffic_is_seeded_and_reads_follow_writes() {
        let a = tenant("DW2", 7, 1, 300);
        let b = tenant("DW2", 7, 1, 300);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.items, b.items);
        assert_ne!(tenant("DW2", 8, 1, 300).items, a.items);
        let mut written = vec![false; a.items.len()];
        let (mut w, mut r) = (0usize, 0usize);
        for s in &a.steps {
            match *s {
                Step::Write(k) => {
                    written[k] = true;
                    w += 1;
                }
                Step::Read(k) => {
                    assert!(written[k], "read before write");
                    r += 1;
                }
            }
        }
        // DW2 reads 1.4 times per write: the fraction survives.
        let per_write = r as f64 / w as f64;
        assert!((1.2..1.6).contains(&per_write), "{per_write}");
    }
}
