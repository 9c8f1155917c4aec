//! Machine-speed calibration. On a shared 2-vCPU VM the host's speed
//! drifts by 10–20% over tens of seconds without showing as CPU steal,
//! and moves every single-threaded timing with it. A fixed reference
//! kernel, written here and sharing no code with the repository, is
//! timed at points interleaved with the workload, and timed metrics are
//! reported at the reference speed: with `speed = REFERENCE_NS /
//! measured`, rates are divided by `speed` and times multiplied by
//! it. A change to the code under test cannot move the kernel, so it
//! still moves the metrics in full.

use std::hint::black_box;
use std::time::Instant;

use crate::rng::SplitMix64;
use crate::stats::{median, Report};

/// Kernel time of one unit at the reference speed (a typical reading
/// on the 2-vCPU VM the benchmark was tuned on); reported values are
/// "at this speed".
pub const REFERENCE_NS: f64 = 540_000.0;

const BUF: usize = 128 * 1024;
const TABLE_LOG: u32 = 14;

/// Text-like bytes (words from a small vocabulary), fixed forever.
fn buffer() -> Vec<u8> {
    let mut rng = SplitMix64::new(0x00ca_11b8);
    let words: Vec<Vec<u8>> = (0..200)
        .map(|_| {
            let len = 2 + (rng.next_u64() % 8) as usize;
            (0..len)
                .map(|_| b'a' + (rng.next_u64() % 26) as u8)
                .collect()
        })
        .collect();
    let mut out = Vec::with_capacity(BUF + 16);
    while out.len() < BUF {
        out.extend_from_slice(&words[(rng.next_u64() % 200) as usize]);
        out.push(b' ');
    }
    out.truncate(BUF);
    out
}

/// One unit: a greedy hash-table match scan over the buffer, the
/// memory and branch pattern of an LZ match finder.
fn unit(buf: &[u8], table: &mut [u32]) -> u64 {
    table.iter_mut().for_each(|t| *t = 0);
    let mut i = 0usize;
    let mut matched = 0u64;
    while i + 8 <= buf.len() {
        let w = u32::from_le_bytes([buf[i], buf[i + 1], buf[i + 2], buf[i + 3]]);
        let h = (w.wrapping_mul(2_654_435_761) >> (32 - TABLE_LOG)) as usize;
        let cand = table[h] as usize;
        table[h] = i as u32;
        if cand > 0 && cand < i && buf[cand..cand + 4] == buf[i..i + 4] {
            let mut l = 4;
            while i + l < buf.len() && buf[cand + l] == buf[i + l] && l < 64 {
                l += 1;
            }
            matched += l as u64;
            i += l;
        } else {
            i += 1;
        }
    }
    matched
}

/// Interleaved calibration points of one run.
pub struct Calib {
    buf: Vec<u8>,
    table: Vec<u32>,
    points: Vec<f64>,
}

impl Calib {
    pub fn new() -> Self {
        Self {
            buf: buffer(),
            table: vec![0; 1 << TABLE_LOG],
            points: Vec::new(),
        }
    }

    /// Times the kernel (median of 5 units) and records the point.
    pub fn point(&mut self) {
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(unit(&self.buf, &mut self.table));
                t.elapsed().as_nanos() as f64
            })
            .collect();
        self.points.push(median(&times).unwrap_or(REFERENCE_NS));
    }

    /// Median kernel time over the run's points, in nanoseconds.
    pub fn kernel_ns(&self) -> f64 {
        median(&self.points).unwrap_or(REFERENCE_NS)
    }

    /// This run's machine speed relative to the reference.
    pub fn speed(&self) -> f64 {
        REFERENCE_NS / self.kernel_ns()
    }

    /// Rescales the named metrics of `r` to the reference speed (rates
    /// divided by the speed, times multiplied) and prints the raw
    /// values.
    pub fn normalize(&self, r: &mut Report, names: &[&str]) {
        let speed = self.speed();
        eprintln!(
            "  machine speed {speed:.4} of reference ({} points); raw values:",
            self.points.len()
        );
        for m in r
            .metrics
            .iter_mut()
            .chain(&mut r.printed)
            .filter(|m| names.contains(&m.name.as_str()))
        {
            let time = matches!(m.unit, "s" | "us");
            let scale = if time { speed } else { 1.0 / speed };
            eprintln!("    {:<20} {:.4} {}", m.name, m.value, m.unit);
            m.value *= scale;
        }
    }
}
