//! Sample arithmetic: quantiles over raw client-side samples, with
//! failed requests counted as latency misses, and the result JSON.

use std::fmt::Write as _;

/// Latency recorded for a failed request: above every finite limit, so
/// a failure can only push a quantile up, never hide in it.
pub const FAILED: u64 = u64::MAX;

/// Raw latency samples in nanoseconds, one per attempted request.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            ns: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn push_failed(&mut self) {
        self.ns.push(FAILED);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    #[cfg(test)]
    pub fn failures(&self) -> usize {
        self.ns.iter().filter(|&&v| v == FAILED).count()
    }

    /// Nearest-rank quantile `q` in `[0, 1]`: the smallest sample with
    /// at least `q * n` samples at or below it. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        quantile_sorted(&sorted, q)
    }

    /// Number of samples strictly above `value`.
    pub fn beyond(&self, value: u64) -> usize {
        self.ns.iter().filter(|&&v| v > value).count()
    }

    /// Quantile `q` in microseconds, or `None` when fewer than
    /// `min_tail` samples lie beyond it (the quantile is then not
    /// resolved by the data). A quantile that lands on a failure reads
    /// as `f64::MAX`.
    pub fn quantile_us(&self, q: f64, min_tail: usize) -> Option<f64> {
        let v = self.quantile(q)?;
        if v != FAILED && self.beyond(v) < min_tail {
            return None;
        }
        Some(ns_to_us(v))
    }
}

/// Quantile `q` in microseconds as the median over phases of each
/// phase's quantile, so a burst of outside load, or a connection state
/// drawn badly, moves one phase and not the result. `None` when a phase
/// has fewer than `min_tail` samples beyond its quantile.
pub fn phase_quantile_us(phases: &[Samples], q: f64, min_tail: usize) -> Option<f64> {
    let values = phases
        .iter()
        .map(|p| p.quantile_us(q, min_tail))
        .collect::<Option<Vec<f64>>>()?;
    median(&values)
}

pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied()
}

fn ns_to_us(v: u64) -> f64 {
    if v == FAILED {
        f64::MAX
    } else {
        v as f64 / 1e3
    }
}

/// Median of a float sample set (mean of the two middle values for an
/// even count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// One reported metric: value, unit, and the number of samples behind
/// it (printed on the console, not in the result line).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Metrics in insertion order, and figures that are printed with them
/// but left out of the result line (too noisy on a shared VM to gate a
/// change on; see `perfbench/README.md`).
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub printed: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn add_printed(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.printed.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `{"correct":..,"attempted":..,"failed":..,
    /// "metrics":{name:{"value":..,"unit":..}}}`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip printer
/// gives; non-finite values (never valid JSON) become `f64::MAX`.
pub fn json_number(v: f64) -> String {
    let v = if v.is_finite() { v } else { f64::MAX };
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(v: &[u64]) -> Samples {
        let mut s = Samples::default();
        for &x in v {
            s.push(x);
        }
        s
    }

    #[test]
    fn nearest_rank_quantiles_on_known_samples() {
        let s = samples(&(1..=100).collect::<Vec<_>>());
        assert_eq!(s.quantile(0.5), Some(50));
        assert_eq!(s.quantile(0.99), Some(99));
        assert_eq!(s.quantile(1.0), Some(100));
        assert_eq!(s.quantile(0.0), Some(1));
        let odd = samples(&[30, 10, 20]);
        assert_eq!(odd.quantile(0.5), Some(20));
        assert_eq!(Samples::default().quantile(0.5), None);
    }

    #[test]
    fn failures_count_as_latency_misses() {
        // 98 fast successes and 2 failures: the p99 must land on a
        // failure, not on the slowest success.
        let mut s = samples(&vec![1_000; 98]);
        s.push_failed();
        s.push_failed();
        assert_eq!(s.failures(), 2);
        assert_eq!(s.quantile(0.99), Some(FAILED));
        assert_eq!(s.quantile_us(0.99, 0), Some(f64::MAX));
        assert_eq!(s.quantile(0.5), Some(1_000));
        // A failure exceeds any limit a successful sample could set.
        assert_eq!(s.beyond(u64::MAX - 1), 2);
    }

    #[test]
    fn tail_quantile_needs_enough_samples_beyond_it() {
        let s = samples(&(1..=500).collect::<Vec<_>>());
        // p99 of 500 samples is 495, with 5 samples beyond it.
        assert_eq!(s.quantile(0.99), Some(495));
        assert_eq!(s.quantile_us(0.99, 10), None);
        let s = samples(&(1..=2000).collect::<Vec<_>>());
        assert_eq!(s.quantile_us(0.99, 10), Some(1.98));
    }

    #[test]
    fn phase_quantile_is_the_median_of_phase_quantiles() {
        // Three phases; the middle one is slow.
        let fast = samples(&[10; 300]);
        let slow = samples(&[1_000_000; 300]);
        let phases = [fast.clone(), slow.clone(), fast.clone()];
        // Pooled over the run the slow phase sets the p99...
        let mut pooled = fast.clone();
        pooled.extend(&slow);
        pooled.extend(&fast);
        assert_eq!(pooled.quantile(0.99), Some(1_000_000));
        // ...per phase, it moves one phase of three.
        assert_eq!(phase_quantile_us(&phases, 0.99, 0), Some(0.01));
        // A failure inside every phase still reads as a miss.
        let mut failing = samples(&[10; 3]);
        for _ in 0..3 {
            failing.push_failed();
        }
        assert_eq!(phase_quantile_us(&[failing], 0.99, 0), Some(f64::MAX));
        // Too few samples beyond the quantile in a phase: not reported.
        assert_eq!(phase_quantile_us(&phases, 0.99, 10), None);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn result_line_has_exact_keys_and_full_digits() {
        let mut r = Report::default();
        r.add("latency_ms", 1.203_456_789, "ms", 10);
        let line = r.result_json(true, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_number(f64::INFINITY), format!("{:?}", f64::MAX));
        assert_eq!(json_number(2.0), "2.0");
    }
}
