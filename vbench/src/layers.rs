//! Per-layer timing for traced runs. The benchmark times calls into each
//! layer's public functions from outside — no span inside the program —
//! and keeps every sample in memory until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::median;

/// Samples of one traced run: per-call milliseconds by layer, counters
/// by name, and the number of whole deck passes they cover.
#[derive(Default)]
pub struct Layers {
    times: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, u64>,
    passes: usize,
}

impl Layers {
    /// Times one call into `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_ms(layer, ms_since(start));
        out
    }

    /// Records one call's duration.
    pub fn add_ms(&mut self, layer: &'static str, ms: f64) {
        self.times.entry(layer).or_default().push(ms);
    }

    /// Adds `n` to a counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Marks the end of one whole pass over the deck.
    pub fn end_pass(&mut self) {
        self.passes += 1;
    }

    /// Folds another recorder (another client thread's) into this one.
    pub fn merge(&mut self, other: Layers) {
        for (k, v) in other.times {
            self.times.entry(k).or_default().extend(v);
        }
        for (k, n) in other.counts {
            self.count(k, n);
        }
        self.passes += other.passes;
    }

    /// The samples of `layer`, empty when it was never called.
    fn samples(&self, layer: &str) -> &[f64] {
        self.times.get(layer).map_or(&[], Vec::as_slice)
    }

    /// Milliseconds recorded across every layer.
    pub fn sum_ms(&self) -> f64 {
        self.times.values().flatten().sum()
    }

    fn has(&self, key: &str) -> bool {
        self.passes > 0 && (self.times.contains_key(key) || self.counts.contains_key(key))
    }

    fn total_ms(&self, layer: &str) -> f64 {
        self.samples(layer).iter().sum()
    }

    fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64
    }

    fn per_pass(&self, total: f64) -> f64 {
        total / self.passes as f64
    }
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// How a per-layer metric is computed from a [`Layers`] recorder.
#[derive(Clone, Copy)]
enum Agg {
    /// Milliseconds spent in the layer per deck pass.
    MsPerPass(&'static str),
    /// Median microseconds per call.
    UsPerCall(&'static str),
    /// Median milliseconds per call.
    MsPerCall(&'static str),
    /// Counter total per deck pass.
    CountPerPass(&'static str),
    /// Counter total per second spent in the listed layers.
    PerSecond(&'static str, &'static [&'static str]),
    /// Ratio of two counters.
    Ratio(&'static str, &'static str),
}

impl Agg {
    /// The sample or counter whose presence shows the layer was exercised.
    fn key(self) -> &'static str {
        match self {
            Agg::MsPerPass(k)
            | Agg::UsPerCall(k)
            | Agg::MsPerCall(k)
            | Agg::CountPerPass(k)
            | Agg::PerSecond(k, _)
            | Agg::Ratio(k, _) => k,
        }
    }

    fn value(self, l: &Layers) -> f64 {
        match self {
            Agg::MsPerPass(k) => l.per_pass(l.total_ms(k)),
            Agg::UsPerCall(k) => median(l.samples(k)) * 1e3,
            Agg::MsPerCall(k) => median(l.samples(k)),
            Agg::CountPerPass(k) => l.per_pass(l.counter(k)),
            Agg::PerSecond(k, layers) => {
                let ms: f64 = layers.iter().map(|t| l.total_ms(t)).sum();
                l.counter(k) / (ms / 1e3)
            }
            Agg::Ratio(num, den) => l.counter(num) / l.counter(den),
        }
    }
}

/// Every per-layer metric: name, unit, and how it is computed.
const PER_LAYER: [(&str, &str, Agg); 24] = [
    ("verify.build_ms", "ms", Agg::MsPerPass("build")),
    ("alloy.hash_ms", "ms", Agg::MsPerPass("hash")),
    ("relalg.translate_ms", "ms", Agg::MsPerPass("translate")),
    (
        "relalg.cnf_clauses",
        "count",
        Agg::CountPerPass("cnf_clauses"),
    ),
    ("relalg.cnf_vars", "count", Agg::CountPerPass("cnf_vars")),
    ("sat.load_ms", "ms", Agg::MsPerPass("load")),
    ("sat.solve_ms", "ms", Agg::MsPerPass("solve")),
    ("sat.premise_ms", "ms", Agg::MsPerPass("premise")),
    ("sat.preprocess_ms", "ms", Agg::MsPerPass("preprocess")),
    ("sat.conflicts", "count", Agg::CountPerPass("conflicts")),
    (
        "sat.propagations_per_s",
        "1/s",
        Agg::PerSecond("propagations", &["solve", "premise"]),
    ),
    ("serve.resolve_us", "us", Agg::UsPerCall("resolve")),
    ("serve.lookup_us", "us", Agg::UsPerCall("lookup")),
    ("serve.wire_us", "us", Agg::UsPerCall("wire")),
    ("serve.execute_ms", "ms", Agg::MsPerCall("execute")),
    ("serve.roundtrip_ms", "ms", Agg::MsPerCall("roundtrip")),
    ("serve.transport_ms", "ms", Agg::MsPerCall("transport")),
    ("serve.hit_ratio", "ratio", Agg::Ratio("hits", "requests")),
    ("serve.cold_ms", "ms", Agg::MsPerCall("cold")),
    ("core.explore_ms", "ms", Agg::MsPerPass("explore")),
    ("core.states_explored", "count", Agg::CountPerPass("states")),
    (
        "core.states_per_s",
        "1/s",
        Agg::PerSecond("states", &["explore"]),
    ),
    ("core.simulate_us", "us", Agg::UsPerCall("simulate")),
    (
        "core.messages_delivered",
        "count",
        Agg::CountPerPass("messages"),
    ),
];

/// Computes every per-layer metric from the first recorder in `sources`
/// that exercised the layer: the workload's timed phase, then its
/// set-up, then the fixed layer probe, which exercises every layer.
///
/// # Panics
///
/// Panics if no source exercised some layer.
pub fn per_layer_metrics(sources: &[&Layers]) -> Vec<(String, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, agg)| {
            let src = sources
                .iter()
                .find(|l| l.has(agg.key()))
                .unwrap_or_else(|| panic!("no recorder exercised {name}"));
            (name.to_string(), agg.value(src), unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_fall_back_to_the_next_source() {
        let mut timed = Layers::default();
        timed.add_ms("solve", 30.0);
        timed.add_ms("solve", 10.0);
        timed.count("propagations", 4000);
        timed.end_pass();
        timed.end_pass();
        let mut probe = Layers::default();
        for layer in PER_LAYER.iter().map(|(_, _, a)| a.key()) {
            probe.add_ms(layer, 1.0);
            probe.count(layer, 1);
        }
        probe.count("requests", 1);
        probe.end_pass();
        let m: BTreeMap<String, f64> = per_layer_metrics(&[&timed, &probe])
            .into_iter()
            .map(|(n, v, _)| (n, v))
            .collect();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m["sat.solve_ms"], 20.0); // 40 ms over two passes
        assert_eq!(m["sat.propagations_per_s"], 100_000.0); // 4000 in 40 ms
        assert_eq!(m["core.explore_ms"], 1.0); // from the probe
        assert_eq!(m["serve.lookup_us"], 1000.0);
    }
}
