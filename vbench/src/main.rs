//! `vbench`: the MCA verification suite's benchmark.
//!
//! ```text
//! vbench [--steady <runs>]
//!        --workload <check-cold|solve-cached|serve-warm|explicit-state>
//!        --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets its workload up several times (reporting the median as
//! `setup_s`), replays the workload's deck in whole, seeded, shuffled
//! passes on one closed loop for about `--seconds`, checks every answer,
//! and prints one JSON object as the last line of standard output. With
//! `--trace 1` it instead times every layer from outside and prints the
//! per-layer metrics, the per-query layer-sum reconciliation and the
//! tracing overhead. See README.md.

mod answers;
mod check_cold;
mod explicit_state;
mod layers;
mod oracle;
mod probe;
mod serve_warm;
mod solve_cached;
mod stats;
mod steady;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use answers::Tally;
use layers::Layers;
use stats::{geomean, median, percentile, tail_percentile};

const USAGE: &str = "usage: vbench [--steady <runs>] \
                     --workload <check-cold|solve-cached|serve-warm|explicit-state> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// How many times each run sets its workload up; `setup_s` is the median.
const SETUPS: usize = 3;

/// Largest relative difference between a query's untraced time and the
/// sum of its traced layers that the reconciliation accepts.
const LAYER_SUM_TOLERANCE: f64 = 0.20;

/// Command-line arguments of one run.
pub struct Args {
    /// The workload to run.
    pub workload: String,
    /// Seed of every generated input and order.
    pub seed: u64,
    /// Target length of the timed phase.
    pub seconds: f64,
    /// Whether this is a traced (per-layer) run.
    pub trace: bool,
    /// With `Some(k)`, run the workload `k` times and print how steady
    /// its metrics are.
    pub steady: Option<usize>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut steady) =
            (None, None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--steady" => {
                    let k: usize = value.parse().map_err(|_| bad("expected a run count"))?;
                    if !(1..=100).contains(&k) {
                        return Err(bad("expected 1 to 100 runs"));
                    }
                    steady = Some(k);
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("expected 0 < seconds <= 600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            steady,
        })
    }
}

/// What a workload hands back: its answer tally and its metrics.
pub struct Report {
    /// Attempted, failed and wrong operations.
    pub tally: Tally,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// Per-query latency samples of a timed phase, plus how many operations
/// completed in how much wall-clock time.
#[derive(Default)]
pub struct Timed {
    /// Milliseconds per operation, by query name.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Operations completed.
    pub ops: u64,
    /// Wall-clock seconds of the timed phase.
    pub wall_s: f64,
}

impl Timed {
    /// Records one operation of `query`.
    pub fn add(&mut self, query: &str, ms: f64) {
        self.samples.entry(query.to_string()).or_default().push(ms);
        self.ops += 1;
    }

    /// Folds another client's samples into this one.
    pub fn merge(&mut self, other: Timed) {
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        self.ops += other.ops;
    }

    /// Geometric mean over queries of each query's median latency.
    fn geomean_of_medians(&self) -> f64 {
        let medians: Vec<f64> = self.samples.values().map(|v| median(v)).collect();
        geomean(&medians)
    }

    /// The four end-to-end metrics of a run.
    pub fn end_to_end(&self, setups_s: &[f64]) -> Vec<(String, f64, &'static str)> {
        let rss_mb =
            mca_obs::peak_rss_kb().expect("VmHWM readable in /proc/self/status") as f64 / 1024.0;
        vec![
            ("setup_s".into(), median(setups_s), "s"),
            (
                "verdicts_per_s".into(),
                self.ops as f64 / self.wall_s,
                "1/s",
            ),
            ("verdict_ms_geomean".into(), self.geomean_of_medians(), "ms"),
            ("peak_rss_mb".into(), rss_mb, "MB"),
        ]
    }

    /// Prints each query's sample count, median and — with enough
    /// samples — the highest percentile that has ten samples beyond it.
    pub fn print_summary(&self, workload: &str) {
        eprintln!(
            "[{workload}] {} ops in {:.2} s over {} queries",
            self.ops,
            self.wall_s,
            self.samples.len()
        );
        for (q, v) in &self.samples {
            let tail = tail_percentile(v.len())
                .map(|p| format!("  p{p} {:.3} ms", percentile(v, p)))
                .unwrap_or_default();
            eprintln!(
                "  {q:<44} n={:<5} median {:.3} ms{tail}",
                v.len(),
                median(v)
            );
        }
    }
}

/// Runs whole passes over a deck while another pass is expected to end
/// no more than half a pass after `--seconds`. Every run makes at least
/// one pass, a traced run two, so each query is traced in both orders
/// (see [`Tracer::paired`]). Returns the wall-clock seconds they took.
pub fn run_passes(args: &Args, mut pass: impl FnMut(usize)) -> f64 {
    let min_passes = if args.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut n = 0;
    loop {
        pass(n);
        n += 1;
        let el = start.elapsed().as_secs_f64();
        if n >= min_passes && el + 0.5 * el / n as f64 > args.seconds {
            return el;
        }
    }
}

/// Times `setup` [`SETUPS`] times, keeping the last result; earlier
/// results are handed to `discard` outside the timing.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// One query's reconciliation row: the untraced time of a call against
/// the sum of the traced layers it is made of, and the query's untraced
/// against its traced operation time (the tracing overhead). All values
/// are medians over the run.
pub struct Reconciled {
    /// The query.
    pub query: String,
    /// The call the layers should add up to, timed whole and untraced.
    pub whole_ms: f64,
    /// The sum of its traced layers.
    pub layer_sum_ms: f64,
    /// One untraced operation.
    pub untraced_ms: f64,
    /// One traced operation, timers included.
    pub traced_ms: f64,
}

/// Prints the per-query layer-sum reconciliation and the tracing
/// overhead, and returns whether every query is within tolerance.
pub fn print_reconciliation(workload: &str, rows: &[Reconciled]) -> bool {
    eprintln!(
        "[{workload}] layer-sum reconciliation (tolerance ±{:.0}%)",
        LAYER_SUM_TOLERANCE * 100.0
    );
    let mut ok = true;
    for r in rows {
        let dev = (r.layer_sum_ms - r.whole_ms) / r.whole_ms;
        let within = dev.abs() <= LAYER_SUM_TOLERANCE;
        ok &= within;
        eprintln!(
            "  {:<44} whole {:>10.3} ms  layers {:>10.3} ms  {:>+6.1}%  {}",
            r.query,
            r.whole_ms,
            r.layer_sum_ms,
            dev * 100.0,
            if within { "ok" } else { "OUTSIDE" }
        );
    }
    let untraced = geomean(&rows.iter().map(|r| r.untraced_ms).collect::<Vec<_>>());
    let traced = geomean(&rows.iter().map(|r| r.traced_ms).collect::<Vec<_>>());
    eprintln!(
        "[{workload}] tracing overhead: traced geomean {traced:.3} ms vs untraced {untraced:.3} ms ({:+.2}%)",
        (traced / untraced - 1.0) * 100.0
    );
    ok
}

/// The traced side of a run: per-layer samples, and per query the
/// traced operation times and their layer sums.
#[derive(Default)]
pub struct Tracer {
    /// Every layer sample of the traced operations.
    pub layers: Layers,
    layer_sums: BTreeMap<String, Vec<f64>>,
    traced: BTreeMap<String, Vec<f64>>,
}

impl Tracer {
    /// Runs one operation untraced and, in a traced run, traced too:
    /// untraced first in even passes, traced first in odd ones, so
    /// neither side always runs on the caches the other warmed.
    pub fn paired<U, T>(
        &mut self,
        args: &Args,
        pass: usize,
        query: &str,
        untraced: impl FnOnce() -> U,
        traced: impl FnOnce(&mut Layers) -> T,
    ) -> (U, Option<T>) {
        if !args.trace {
            return (untraced(), None);
        }
        if pass % 2 == 1 {
            let t = self.op(query, traced);
            (untraced(), Some(t))
        } else {
            let u = untraced();
            (u, Some(self.op(query, traced)))
        }
    }

    fn op<T>(&mut self, query: &str, f: impl FnOnce(&mut Layers) -> T) -> T {
        let mut op = Layers::default();
        let start = Instant::now();
        let out = f(&mut op);
        let ms = layers::ms_since(start);
        self.traced.entry(query.to_string()).or_default().push(ms);
        self.layer_sums
            .entry(query.to_string())
            .or_default()
            .push(op.sum_ms());
        self.layers.merge(op);
        out
    }

    /// Reconciliation rows: each query's untraced operation is itself the
    /// whole its traced layers add up to.
    pub fn reconcile(&self, untraced: &Timed) -> Vec<Reconciled> {
        untraced
            .samples
            .iter()
            .map(|(q, v)| Reconciled {
                query: q.clone(),
                whole_ms: median(v),
                layer_sum_ms: median(&self.layer_sums[q]),
                untraced_ms: median(v),
                traced_ms: median(&self.traced[q]),
            })
            .collect()
    }
}

fn render(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.correct(),
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = args.steady {
        return steady::run(k, &args);
    }
    let report = match args.workload.as_str() {
        "check-cold" => check_cold::run(&args),
        "solve-cached" => solve_cached::run(&args),
        "serve-warm" => serve_warm::run(&args),
        "explicit-state" => explicit_state::run(&args),
        other => {
            eprintln!("vbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for (failure, n) in &report.tally.failures {
        println!("FAILED x{n}: {failure}");
        eprintln!("FAILED x{n}: {failure}");
    }
    println!("{}", render(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse("--workload check-cold --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("check-cold", 7, 10.0, true)
        );
        assert!(parse("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload x --seed 1 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload x --seconds 5").is_err());
        assert!(parse("--bogus 1").is_err());
        assert!(parse("--seed").is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let report = Report {
            tally: Tally::default(),
            metrics: vec![("latency_ms".into(), 1.25, "ms")],
        };
        assert_eq!(
            render(&report),
            "{\"correct\": true, \"attempted\": 0, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
