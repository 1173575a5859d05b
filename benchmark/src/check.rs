//! `--check <parent.jsonl> <change.jsonl>`: compare two sets of runs metric
//! by metric against the bounds `BENCHMARK.json` fixes.
//!
//! A result file holds one line per run, as `--out` appends them. For every
//! (workload, end-to-end metric) row the verdict is `regressed` (the
//! change's median is worse than the parent's by more than the bound),
//! `unresolved` (a side's own quartile spread exceeds the bound, so the
//! runs cannot tell) or `within bound`. More failed operations than the
//! parent is a regression whatever the timings say.

use crate::json::Json;
use crate::stats::{compare, median, spread, worsening, Better, Verdict};

struct Bound {
    name: String,
    better: Better,
    bound: f64,
}

fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: better = {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: no bound"))?;
            Ok(Bound {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// One untraced run: workload, metric values, failed operations.
struct Run {
    workload: String,
    metrics: Vec<(String, f64)>,
    failed: f64,
}

fn runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if v.get("trace").and_then(Json::as_f64) == Some(1.0) {
            continue; // per-layer numbers carry no bound
        }
        let field = |k: &str| v.get(k).ok_or(format!("{path}:{}: no {k:?}", i + 1));
        out.push(Run {
            workload: field("workload")?
                .as_str()
                .ok_or("workload is not a string")?
                .to_string(),
            failed: field("failed")?.as_f64().ok_or("failed is not a number")?,
            metrics: field("metrics")?
                .as_obj()
                .ok_or("metrics is not an object")?
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect(),
        });
    }
    Ok(out)
}

fn values(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(k, _)| k == metric).map(|(_, v)| *v))
        .collect()
}

/// Print the comparison; `Ok(true)` when any row regressed.
pub fn check(benchmark_json: &str, parent_path: &str, change_path: &str) -> Result<bool, String> {
    let bounds = bounds(benchmark_json)?;
    let (parent, change) = (runs(parent_path)?, runs(change_path)?);
    let mut workloads: Vec<&str> = Vec::new();
    for r in parent.iter().chain(&change) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut regressed = false;
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "parent median",
        "change median",
        "worse",
        "spr(p)",
        "spr(c)",
        "bound"
    );
    for w in workloads {
        for b in &bounds {
            let (p, c) = (values(&parent, w, &b.name), values(&change, w, &b.name));
            if p.is_empty() || c.is_empty() {
                println!(
                    "{w:<14} {:<12} missing on one side ({} vs {} runs)",
                    b.name,
                    p.len(),
                    c.len()
                );
                continue;
            }
            let verdict = compare(&p, &c, b.better, b.bound);
            regressed |= verdict == Verdict::Regressed;
            let spr = |xs: &[f64]| {
                if xs.len() >= 2 {
                    format!("{:.1}%", spread(xs) * 100.0)
                } else {
                    "-".into()
                }
            };
            println!(
                "{w:<14} {:<12} {:>14.6} {:>14.6} {:>+7.1}% {:>7} {:>7} {:>5.0}%  {}",
                b.name,
                median(&p),
                median(&c),
                worsening(&p, &c, b.better) * 100.0,
                spr(&p),
                spr(&c),
                b.bound * 100.0,
                match verdict {
                    Verdict::Regressed => "regressed",
                    Verdict::WithinBound => "within bound",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let failed = |rs: &[Run]| {
            rs.iter()
                .filter(|r| r.workload == w)
                .map(|r| r.failed)
                .sum::<f64>()
        };
        let (pf, cf) = (failed(&parent), failed(&change));
        let worse = cf > pf;
        regressed |= worse;
        println!(
            "{w:<14} {:<12} {pf:>14} {cf:>14} {:>49}",
            "failed",
            if worse { "regressed" } else { "within bound" }
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;

    fn file(name: &str, rows: &[(&str, f64, f64, u64)]) -> String {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let text: String = rows
            .iter()
            .map(|(w, lat, qps, failed)| {
                format!(
                    "{{\"workload\": \"{w}\", \"seed\": 1, \"trace\": 0, \"correct\": true, \"attempted\": 10, \"failed\": {failed}, \"metrics\": {{\"lat_ms\": {{\"value\": {lat}, \"unit\": \"ms\"}}, \"qps\": {{\"value\": {qps}, \"unit\": \"1/s\"}}}}}}\n"
                )
            })
            .collect();
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn flags_a_regression_on_one_row_only() {
        let a = file(
            "test-check-a.jsonl",
            &[
                ("w1", 10.0, 100.0, 0),
                ("w1", 10.2, 101.0, 0),
                ("w2", 5.0, 50.0, 0),
            ],
        );
        let same = file(
            "test-check-b.jsonl",
            &[("w1", 10.1, 100.5, 0), ("w2", 5.1, 50.0, 0)],
        );
        let slow = file(
            "test-check-c.jsonl",
            &[("w1", 12.0, 100.0, 0), ("w2", 5.0, 50.0, 0)],
        );
        let fails = file(
            "test-check-d.jsonl",
            &[("w1", 10.0, 100.0, 1), ("w2", 5.0, 50.0, 0)],
        );
        assert_eq!(check(BENCH, &a, &same), Ok(false));
        assert_eq!(check(BENCH, &a, &slow), Ok(true));
        assert_eq!(check(BENCH, &a, &fails), Ok(true));
        for f in [a, same, slow, fails] {
            std::fs::remove_file(f).unwrap();
        }
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(bounds("{}").is_err());
        assert!(runs("/nonexistent/file.jsonl").is_err());
    }
}
