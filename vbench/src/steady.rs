//! The steadiness command: runs one workload `k` times in fresh
//! processes with seeds `seed..seed+k` and prints, for every metric, the
//! median, the quartiles, the quartile spread and the largest deviation
//! from the median, each spread as a share of the median. The bounds in
//! `BENCHMARK.json` are set from this output.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use mca_obs::Json;

use crate::stats::{median, quartiles};
use crate::Args;

/// One run's result line, parsed.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn parse_result(line: &str) -> Result<RunResult, String> {
    let json = Json::parse(line).map_err(|e| format!("result line is not JSON: {e:?}"))?;
    let field = |k: &str| json.get(k).ok_or(format!("result line lacks `{k}`"));
    let Json::Bool(correct) = field("correct")? else {
        return Err("`correct` is not a boolean".into());
    };
    let count = |k: &str| field(k)?.as_u64().ok_or(format!("`{k}` is not a count"));
    let Json::Object(pairs) = field("metrics")? else {
        return Err("`metrics` is not an object".into());
    };
    let metrics = pairs
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or(format!("metric `{name}` has no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(RunResult {
        correct: *correct,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Runs the steadiness command.
pub fn run(k: usize, args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable's path");
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut failed_shares = Vec::new();
    for i in 0..k as u64 {
        let seed = args.seed + i;
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("start a benchmark run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let parsed = match out.status.success() {
            true => parse_result(stdout.lines().last().unwrap_or("")),
            false => Err(format!("exited with {}", out.status)),
        };
        let r = match parsed {
            Ok(r) if r.correct => r,
            Ok(_) => return fail(seed, "answers were wrong", &out.stderr),
            Err(e) => return fail(seed, &e, &out.stderr),
        };
        let share = r.failed as f64 / r.attempted as f64;
        let shown: Vec<String> = r
            .metrics
            .iter()
            .map(|(n, v)| format!("{n}={v:.6}"))
            .collect();
        eprintln!(
            "seed {seed}: {} attempted, {} failed, {}",
            r.attempted,
            r.failed,
            shown.join(" ")
        );
        failed_shares.push(share);
        for (name, v) in r.metrics {
            values.entry(name).or_default().push(v);
        }
    }
    println!(
        "{} x{k}, {} s per run, seeds {}..={}",
        args.workload,
        args.seconds,
        args.seed,
        args.seed + k as u64 - 1
    );
    println!(
        "{:<26} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "metric", "median", "q1", "q3", "iqr%", "maxdev%"
    );
    for (name, v) in &values {
        let med = median(v);
        let [q1, _, q3] = if v.len() >= 2 { quartiles(v) } else { [med; 3] };
        let max_dev = v.iter().map(|x| (x - med).abs()).fold(0.0, f64::max);
        println!(
            "{name:<26} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>8.2} {:>8.2}",
            (q3 - q1) / med.abs() * 100.0,
            max_dev / med.abs() * 100.0
        );
    }
    let same_share = failed_shares.windows(2).all(|w| w[0] == w[1]);
    println!(
        "failed share {} in every run: {}",
        failed_shares.first().copied().unwrap_or(0.0),
        if same_share { "yes" } else { "NO" }
    );
    ExitCode::SUCCESS
}

fn fail(seed: u64, why: &str, stderr: &[u8]) -> ExitCode {
    eprintln!("{}", String::from_utf8_lossy(stderr));
    eprintln!("vbench: run with seed {seed} failed: {why}");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let r = parse_result(
            r#"{"correct": true, "attempted": 10, "failed": 1, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#,
        )
        .unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (10, 1));
        assert_eq!(r.metrics, vec![("setup_s".to_string(), 0.5)]);
        assert!(parse_result(r#"{"correct": true}"#).is_err());
        assert!(parse_result("not json").is_err());
    }
}
