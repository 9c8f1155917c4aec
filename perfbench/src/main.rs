//! `perfbench`: the datacomp benchmark.
//!
//! ```text
//! perfbench --workload <cache_serve|warehouse_ingest|block_codec>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the workload end to end; with
//! `--trace 1` it reports the per-layer split instead (see
//! `perfbench/README.md`). Every metric is printed with its unit and
//! sample count; the last line of standard output is the result JSON.
//! A round-trip mismatch exits non-zero.

mod calib;
mod codec;
mod layers;
mod rng;
mod serving;
mod stats;
mod trace;
mod wire;

use std::process::ExitCode;

use stats::Report;

pub const WORKLOADS: [&str; 3] = ["cache_serve", "warehouse_ingest", "block_codec"];

/// The metrics a workload reports at the reference machine speed:
/// `setup_s` everywhere, and every timed metric of `block_codec`, whose
/// single-threaded calls the kernel tracks pass by pass. A serving
/// run's figures also depend on thread wake-ups and on how two
/// connections share two vCPUs, which the kernel does not measure:
/// scaling `warehouse_ingest`'s by it widened their spread in some sets
/// of runs and narrowed it in others.
fn calibrated(workload: &str) -> &'static [&'static str] {
    const ALL: [&str; 7] = [
        "setup_s",
        "req_p50_us",
        "req_p99_us",
        "capacity_rps",
        "goodput_mbps",
        "compress_mbps",
        "decompress_mbps",
    ];
    if workload == "block_codec" {
        &ALL
    } else {
        &ALL[..1]
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("need --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Outcome of one run: metrics plus the correctness tallies.
pub struct RunResult {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one pass of a workload measured, kept for the per-layer split.
pub enum Pass {
    Codec(codec::CodecRun),
    Serving(serving::ServingRun),
}

/// One pass of `workload`: its end-to-end metrics, and what it measured.
/// With a tracer, codec calls record spans into it and serving round
/// trips keep their start and end.
pub fn run_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    tracer: Option<&mut trace::Tracer>,
) -> Result<(RunResult, Pass), String> {
    let mut report = Report::default();
    let (attempted, failed, mismatches, pass) = match workload {
        "block_codec" => {
            let blocks = codec::blocks(seed);
            let passes = (codec::PASS_RATE * seconds).ceil() as usize;
            let mut calib = calib::Calib::new();
            let run = codec::run(&codec::configs(), &blocks, passes, tracer, &mut calib)?;
            codec::report(&run, &mut report);
            calib.normalize(&mut report, calibrated(workload));
            (run.attempted, run.failed, run.failed, Pass::Codec(run))
        }
        _ => {
            let (phases, probe) = if workload == "cache_serve" {
                (
                    serving::cache_phases(seed, seconds),
                    serving::probe("CACHE1"),
                )
            } else {
                (
                    serving::warehouse_phases(seed, seconds),
                    serving::probe("DW1"),
                )
            };
            let run = serving::run(phases, &probe, tracer.is_some())?;
            serving::report(&run, &mut report);
            run.calib.normalize(&mut report, calibrated(workload));
            let t = run.total();
            (t.attempted, t.failed, t.mismatches, Pass::Serving(run))
        }
    };
    report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    let result = RunResult {
        report,
        attempted,
        failed,
        mismatches,
    };
    Ok((result, pass))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        layers::traced(&args.workload, args.seed, args.seconds)
    } else {
        run_pass(&args.workload, args.seed, args.seconds, None).map(|(r, _)| r)
    };
    let res = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} seed {} trace {}: {} attempted, {} failed, {} mismatched, error_rate {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        res.attempted,
        res.failed,
        res.mismatches,
        res.failed as f64 / res.attempted.max(1) as f64
    );
    for (m, note) in res
        .report
        .metrics
        .iter()
        .map(|m| (m, ""))
        .chain(res.report.printed.iter().map(|m| (m, " (printed only)")))
    {
        println!(
            "  {:<36} {:>16.4} {:<6} n={}{note}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let correct = res.failed == 0 && res.mismatches == 0;
    println!(
        "{}",
        res.report
            .result_json(correct, res.attempted.max(1), res.failed)
    );
    if res.mismatches > 0 {
        eprintln!("perfbench: {} round-trip mismatches", res.mismatches);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
