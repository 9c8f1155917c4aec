//! Registry instrumentation shared by the codec implementations.
//!
//! Every `compress`/`decompress` call on any codec records, into the
//! [global telemetry registry](telemetry::global), the series the
//! paper's fleet profiler aggregates per `(algorithm, level)` (§III-A):
//!
//! * `codecs.compress.calls` / `codecs.decompress.calls` — counters
//! * `codecs.compress.bytes_in` / `codecs.compress.bytes_out` /
//!   `codecs.decompress.bytes_out` — byte counters
//! * `codecs.compress.nanos` / `codecs.decompress.nanos` — latency
//!   histograms (p50/p90/p99/max at export)
//!
//! Alongside the cumulative series, each call also feeds the
//! [time-windowed registry](telemetry::windows): the same counter and
//! latency names scoped to the sliding window, with the latency
//! histogram linking its per-bucket max sample back to a trace instant
//! (an exemplar) so a scrape-time p99 can be chased to the exact
//! flight-recorder event that caused it.
//!
//! The cost is not negligible for small items. Each compress call does
//! four lookups in the global registry and two in the windowed one —
//! each builds a fresh series key (`String` allocations plus SipHash)
//! — after formatting `level.to_string()`; decompress does three plus
//! two. The benchmark's `telemetry.counter_inc_ns` reads 380–500 ns per
//! by-name update, so this bookkeeping is microseconds per call, a
//! large share of a sub-KiB item's codec time. Resolving handles once
//! per `(algo, level)` is ROADMAP item 3.

use std::time::Instant;

/// Records one compression call.
pub(crate) fn record_compress(
    algo: &'static str,
    level: i32,
    bytes_in: usize,
    bytes_out: usize,
    start: Instant,
) {
    let elapsed = start.elapsed();
    // Whole-call stage for any live request context (a thread-local
    // check when none is open, so raw codec paths pay nothing).
    telemetry::request::observe_stage("codec.compress", start, elapsed);
    let level = level.to_string();
    let labels = [("algo", algo), ("level", level.as_str())];
    let reg = telemetry::global();
    reg.counter("codecs.compress.calls", &labels).inc();
    reg.counter("codecs.compress.bytes_in", &labels)
        .add(bytes_in as u64);
    reg.counter("codecs.compress.bytes_out", &labels)
        .add(bytes_out as u64);
    reg.histogram("codecs.compress.nanos", &labels)
        .observe_duration(elapsed);
    let win = telemetry::windows();
    win.counter("codecs.compress.bytes_in", &labels)
        .add(bytes_in as u64);
    win.histogram("codecs.compress.nanos", &labels)
        .observe_linked(elapsed.as_nanos() as u64, || {
            telemetry::trace::instant_ref("codec.compress.window_max")
        });
}

/// Records one successful decompression call.
pub(crate) fn record_decompress(algo: &'static str, level: i32, bytes_out: usize, start: Instant) {
    let elapsed = start.elapsed();
    telemetry::request::observe_stage("codec.decompress", start, elapsed);
    let level = level.to_string();
    let labels = [("algo", algo), ("level", level.as_str())];
    let reg = telemetry::global();
    reg.counter("codecs.decompress.calls", &labels).inc();
    reg.counter("codecs.decompress.bytes_out", &labels)
        .add(bytes_out as u64);
    reg.histogram("codecs.decompress.nanos", &labels)
        .observe_duration(elapsed);
    let win = telemetry::windows();
    win.counter("codecs.decompress.bytes_out", &labels)
        .add(bytes_out as u64);
    win.histogram("codecs.decompress.nanos", &labels)
        .observe_linked(elapsed.as_nanos() as u64, || {
            telemetry::trace::instant_ref("codec.decompress.window_max")
        });
}

#[cfg(test)]
mod tests {
    use crate::Algorithm;

    #[test]
    fn codec_calls_show_up_in_global_registry() {
        let data = b"instrumentation check data data data data".repeat(10);
        let labels = |algo: &'static str, level: &'static str| [("algo", algo), ("level", level)];
        // Global registry is shared across concurrently running tests,
        // so assert deltas (other tests only ever add).
        let before = telemetry::snapshot();
        for a in Algorithm::ALL {
            let c = a.compressor(2);
            let frame = c.compress(&data);
            assert_eq!(c.decompress(&frame).unwrap(), data);
        }
        let after = telemetry::snapshot();
        for algo in ["zstdx", "lz4x", "zlibx"] {
            let l = labels(algo, "2");
            assert!(
                after.counter("codecs.compress.calls", &l)
                    > before.counter("codecs.compress.calls", &l),
                "{algo} compress call not recorded"
            );
            assert!(
                after.counter("codecs.decompress.calls", &l)
                    > before.counter("codecs.decompress.calls", &l),
                "{algo} decompress call not recorded"
            );
            assert!(
                after.counter("codecs.compress.bytes_in", &l)
                    >= before.counter("codecs.compress.bytes_in", &l) + data.len() as u64,
                "{algo} bytes_in not recorded"
            );
            let h = after
                .histogram("codecs.compress.nanos", &l)
                .expect("latency histogram");
            assert!(h.count() >= 1);
        }
    }
}
