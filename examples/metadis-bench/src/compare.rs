//! `--compare PARENT CHANGE`: one row per (workload, metric) with both
//! sides' medians and quartiles, judged against the bounds in
//! `BENCHMARK.json` (read from the working directory).
//!
//! Each side is a comma-separated list of `results.json` files, one per
//! run. With several runs a side's median and quartiles are taken across
//! runs, and equal run counts pair up in order (parent run i against
//! change run i) for a win count; with one run they are the run's own
//! sample quartiles. Exits 5 on a regression, as `metadis trace-diff`
//! does.

use crate::stats::{quartiles, verdict, Better, Verdict, SETUP_FLOOR_S};
use obs::json::JsonValue;
use std::process::ExitCode;

/// Exit code on a regression.
const EXIT_REGRESSION: u8 = 5;

struct Bound {
    name: String,
    better: Better,
    bound: f64,
}

/// The metric list of `BENCHMARK.json`: end-to-end metrics with their
/// bounds, then per-layer metric names.
fn load_bench() -> Result<(Vec<Bound>, Vec<String>), String> {
    let doc = read_json("BENCHMARK.json")?;
    let list = |k: &str| {
        doc.get(k)
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no '{k}' list"))
    };
    let name = |m: &JsonValue| {
        m.get("name")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| "BENCHMARK.json: metric without a name".to_string())
    };
    let bounds = list("end_to_end")?
        .iter()
        .map(|m| {
            let better = match m.get("better").and_then(JsonValue::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err("BENCHMARK.json: 'better' must be lower or higher".into()),
            };
            let bound = m
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or("BENCHMARK.json: end-to-end metric without a bound")?;
            Ok(Bound {
                name: name(m)?,
                better,
                bound,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let layers = list("per_layer")?
        .iter()
        .map(name)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((bounds, layers))
}

fn read_json(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One side's view of a (workload, metric): per-run values, median and
/// quartiles.
struct Side {
    runs: Vec<f64>,
    q1: f64,
    median: f64,
    q3: f64,
}

fn side(files: &[JsonValue], workload: &str, metric: &str) -> Option<Side> {
    let entries: Vec<&JsonValue> = files
        .iter()
        .filter_map(|f| {
            f.get("workloads")?
                .as_arr()?
                .iter()
                .find(|w| w.get("name").and_then(JsonValue::as_str) == Some(workload))?
                .get("metrics")?
                .get(metric)
        })
        .collect();
    let runs: Vec<f64> = entries
        .iter()
        .filter_map(|e| e.get("value")?.as_f64())
        .collect();
    let (q1, median, q3) = match entries.as_slice() {
        [] => return None,
        [one] => {
            let q = |k: &str| one.get(k).and_then(JsonValue::as_f64);
            (q("q1")?, q("value")?, q("q3")?)
        }
        _ => quartiles(&runs)?,
    };
    Some(Side {
        runs,
        q1,
        median,
        q3,
    })
}

/// Pairs the change wins, when both sides ran equally often (>1 time).
fn wins(p: &Side, c: &Side, better: Better) -> Option<(usize, usize)> {
    let n = p.runs.len();
    (n > 1 && c.runs.len() == n).then(|| {
        let won = p
            .runs
            .iter()
            .zip(&c.runs)
            .filter(|(a, b)| match better {
                Better::Lower => b < a,
                Better::Higher => b > a,
            })
            .count();
        (won, n)
    })
}

fn fmt(s: &Side) -> String {
    format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3)
}

/// Run the comparison; prints the table and returns the exit code.
pub fn main(parent: &str, change: &str) -> ExitCode {
    match run(parent, change) {
        Ok(true) => ExitCode::from(EXIT_REGRESSION),
        Ok(false) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("metadis-bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(true)` when some end-to-end metric regressed.
fn run(parent: &str, change: &str) -> Result<bool, String> {
    let (bounds, layers) = load_bench()?;
    let load = |list: &str| {
        list.split(',')
            .map(read_json)
            .collect::<Result<Vec<_>, String>>()
    };
    let (pf, cf) = (load(parent)?, load(change)?);
    let workloads: Vec<String> = pf[0]
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("{parent}: no workloads"))?
        .iter()
        .filter_map(|w| w.get("name")?.as_str().map(str::to_string))
        .collect();
    println!(
        "{:<13} {:<32} {:>38} {:>38} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "bound"
    );
    let mut regressed = false;
    for w in &workloads {
        let rows = bounds
            .iter()
            .map(|b| (b.name.as_str(), Some(b)))
            .chain(layers.iter().map(|l| (l.as_str(), None)));
        for (metric, bound) in rows {
            let (Some(p), Some(c)) = (side(&pf, w, metric), side(&cf, w, metric)) else {
                println!("{w:<13} {metric:<32} missing on one side");
                continue;
            };
            let delta = if p.median == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.1}%", 100.0 * (c.median / p.median - 1.0))
            };
            let (bound_text, verdict_text) = match bound {
                None => ("-".to_string(), "per-layer".to_string()),
                Some(b) => {
                    let spread = if p.median == 0.0 {
                        0.0
                    } else {
                        (p.q3 - p.q1) / p.median.abs()
                    };
                    let floor = if metric == "setup_s" {
                        SETUP_FLOOR_S
                    } else {
                        0.0
                    };
                    let mut v = verdict(p.median, c.median, spread, b.better, b.bound, floor);
                    // a noisy parent still resolves when every change run
                    // beats every parent run
                    let all_better = match b.better {
                        Better::Lower => {
                            c.runs.iter().cloned().fold(f64::MIN, f64::max)
                                < p.runs.iter().cloned().fold(f64::MAX, f64::min)
                        }
                        Better::Higher => {
                            c.runs.iter().cloned().fold(f64::MAX, f64::min)
                                > p.runs.iter().cloned().fold(f64::MIN, f64::max)
                        }
                    };
                    if v == Verdict::Unresolved && all_better {
                        v = Verdict::Ok;
                    }
                    regressed |= v == Verdict::Regression;
                    let mut text = match v {
                        Verdict::Ok => "ok".to_string(),
                        Verdict::Regression => "REGRESSION".to_string(),
                        Verdict::Unresolved => "unresolved".to_string(),
                    };
                    if let Some((won, n)) = wins(&p, &c, b.better) {
                        text.push_str(&format!(" (change wins {won}/{n} pairs)"));
                    }
                    (format!("{:.0}%", b.bound * 100.0), text)
                }
            };
            println!(
                "{w:<13} {metric:<32} {:>38} {:>38} {delta:>8} {bound_text:>6}  {verdict_text}",
                fmt(&p),
                fmt(&c)
            );
        }
    }
    Ok(regressed)
}
