//! `compare`: two sets of runs, side by side, with a verdict per workload
//! and end-to-end metric.
//!
//! Each input file holds one JSON object per run, as `--out` appends them:
//! `{"workload": …, "seed": …, "trace": …, "result": {…}}`. Runs pair up
//! in file order within a workload. Verdicts follow the `choosing-metrics`
//! guide (§6 and §8), with each metric's bound read from `BENCHMARK.json`:
//!
//! * `improved` — the change wins at least nine tenths of the pairs (ties
//!   count for neither side) and the medians differ by more than the
//!   distance between the base's quartiles;
//! * `regressed` — the change's median is worse than the base's by more
//!   than the bound;
//! * `unresolved` — neither, but the base's own quartile distance is wider
//!   than the bound, and not every change run beats every base run;
//! * `unchanged` — otherwise.

use crate::json::{self, Json};
use std::collections::BTreeMap;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method); a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    [1usize, 2, 3].map(|k| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// One side's summary and the verdict for one workload × metric.
#[derive(Debug)]
pub struct Row {
    pub base: [f64; 3],
    pub change: [f64; 3],
    pub won: usize,
    pub lost: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

pub fn judge(spec: &MetricSpec, base: &[f64], change: &[f64]) -> Row {
    // Turn "better" into "smaller" so one comparison serves both directions.
    let sign = if spec.lower_is_better { 1.0 } else { -1.0 };
    let pairs = base.len().min(change.len());
    let won = base
        .iter()
        .zip(change)
        .filter(|(b, c)| sign * **c < sign * **b)
        .count();
    let lost = base
        .iter()
        .zip(change)
        .filter(|(b, c)| sign * **c > sign * **b)
        .count();
    let bq = quartiles(base);
    let cq = quartiles(change);
    let spread = bq[2] - bq[0];
    let worsening = sign * (cq[1] - bq[1]);
    let scale = bq[1].abs();
    let every_run_better = change
        .iter()
        .all(|c| base.iter().all(|b| sign * c < sign * b));
    let verdict = if pairs > 0 && won * 10 >= pairs * 9 && -worsening > spread {
        Verdict::Improved
    } else if worsening > spec.bound * scale {
        Verdict::Regressed
    } else if spread > spec.bound * scale && !every_run_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Row {
        base: bq,
        change: cq,
        won,
        lost,
        pairs,
        verdict,
    }
}

/// The end-to-end metric declarations of a `BENCHMARK.json` document.
pub fn metric_specs(doc: &Json) -> Result<Vec<MetricSpec>, String> {
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("metric without {key}"))
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// workload → metric → values in file order, from a file of run lines.
/// Per-layer runs (`"trace": 1`) are skipped.
pub fn read_runs(text: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if doc.get("trace").and_then(Json::as_f64) == Some(1.0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        let Some(Json::Object(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("line {}: no result.metrics", n + 1));
        };
        let by_metric = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("line {}: {name} has no value", n + 1))?;
            by_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(runs)
}

/// Compare two run files; returns the printed table and whether any
/// metric regressed.
pub fn compare(benchmark_json: &str, base: &str, change: &str) -> Result<(String, bool), String> {
    let specs = metric_specs(&json::parse(benchmark_json)?)?;
    let base = read_runs(base)?;
    let change = read_runs(change)?;
    let mut out = String::new();
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    out.push_str(&format!(
        "{:<18} {:<17} {:>5} {:>38} {:>38} {:>9}  verdict\n",
        "workload", "metric", "bound", "base median [q1, q3]", "change median [q1, q3]", "won/lost"
    ));
    for (workload, base_metrics) in &base {
        let Some(change_metrics) = change.get(workload) else {
            return Err(format!("{workload} has runs in the base only"));
        };
        for spec in &specs {
            let (Some(b), Some(c)) = (base_metrics.get(&spec.name), change_metrics.get(&spec.name))
            else {
                return Err(format!("{workload}: {} is missing on one side", spec.name));
            };
            let row = judge(spec, b, c);
            *counts.entry(row.verdict.name()).or_default() += 1;
            let side = |q: [f64; 3]| format!("{:.5} [{:.5}, {:.5}]", q[1], q[0], q[2]);
            out.push_str(&format!(
                "{:<18} {:<17} {:>4.0}% {:>38} {:>38} {:>4}/{:<4}  {} ({} pairs, {})\n",
                workload,
                spec.name,
                spec.bound * 100.0,
                side(row.base),
                side(row.change),
                row.won,
                row.lost,
                row.verdict.name(),
                row.pairs,
                spec.unit,
            ));
        }
    }
    let summary: Vec<String> = counts.iter().map(|(v, n)| format!("{n} {v}")).collect();
    out.push_str(&format!("summary: {}\n", summary.join(", ")));
    Ok((out, counts.contains_key("regressed")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "us".into(),
            lower_is_better: lower,
            bound: 0.10,
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn verdicts_follow_the_guide() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.2).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(judge(&spec(true), &base, &same).verdict, Verdict::Unchanged);
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        let row = judge(&spec(true), &base, &faster);
        assert_eq!((row.verdict, row.won, row.lost), (Verdict::Improved, 10, 0));
        // The same numbers are a regression when higher is better.
        assert_eq!(
            judge(&spec(false), &base, &faster).verdict,
            Verdict::Regressed
        );
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            judge(&spec(true), &base, &slower).verdict,
            Verdict::Regressed
        );
        // Within the bound but the base itself is noisier than the bound.
        let noisy = [
            80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0,
        ];
        let also_noisy = [
            100.0, 90.0, 120.0, 80.0, 105.0, 95.0, 70.0, 130.0, 100.0, 110.0,
        ];
        assert_eq!(
            judge(&spec(true), &noisy, &also_noisy).verdict,
            Verdict::Unresolved
        );
        // Eight wins of ten is short of nine tenths.
        let mut mostly: Vec<f64> = faster.clone();
        mostly[0] = 200.0;
        mostly[1] = 200.0;
        assert_ne!(
            judge(&spec(true), &base, &mostly).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn compares_two_run_files() {
        let benchmark = r#"{"end_to_end": [
            {"name": "latency_us", "unit": "us", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;
        let line = |latency: f64, rate: f64| {
            format!(
                "{{\"workload\": \"w\", \"seed\": 1, \"trace\": 0, \"result\": {{\"correct\": true, \"attempted\": 1, \
                 \"failed\": 0, \"metrics\": {{\"latency_us\": {{\"value\": {latency}, \"unit\": \"us\"}}, \
                 \"rate\": {{\"value\": {rate}, \"unit\": \"1/s\"}}}}}}}}\n"
            )
        };
        let base: String = (0..5)
            .map(|i| line(10.0 + f64::from(i) * 0.01, 500.0))
            .collect();
        let change: String = (0..5)
            .map(|i| line(13.0 + f64::from(i) * 0.01, 500.0))
            .collect();
        let (table, regressed) = compare(benchmark, &base, &change).expect("compares");
        assert!(regressed);
        assert!(
            table.contains("latency_us") && table.contains("regressed"),
            "{table}"
        );
        assert!(table.contains("1 regressed, 1 unchanged"), "{table}");
        let (_, regressed) = compare(benchmark, &base, &base).expect("compares");
        assert!(!regressed);
        assert!(
            compare(benchmark, &base, "").is_err(),
            "a workload missing on one side is an error"
        );
    }
}
