//! `-- compare <base.json> <new.json>`: one row per (end-to-end metric,
//! workload) with base, new, ratio and a verdict under the recorded
//! bounds. This is how "two run sets agree" is checked, and how a later
//! change is held to "no worse on every other workload".

use std::process::ExitCode;

use crate::spec::{self, Better, Metric};
use crate::sut::{self, Json};

/// What a pair of values says about a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// Better by more than the bound, and by more than the runs' own noise.
    Better,
    /// Worse by more than the bound, and by more than the runs' own noise.
    Worse,
    /// Beyond the bound, but inside the window-to-window spread the runs
    /// themselves recorded: run again (or more pairs) before claiming
    /// anything.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `base` the metric got worse (negative = better).
pub fn worsening(metric: &Metric, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return if new == base { 0.0 } else { f64::INFINITY };
    }
    match metric.better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Judge one (metric, workload) pair. `noise` is the larger of the two
/// runs' recorded relative window spreads for the metric.
pub fn judge(metric: &Metric, base: f64, new: f64, noise: f64) -> Verdict {
    let w = worsening(metric, base, new);
    if w.abs() <= metric.bound {
        Verdict::Same
    } else if noise >= w.abs() {
        Verdict::Unresolved
    } else if w > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

/// The per-workload results of a file: a run set's `workloads` object, or
/// a single-workload result wrapped as one.
fn workloads(doc: &Json) -> Vec<(String, Json)> {
    if let Some(Json::Obj(members)) = doc.get("workloads") {
        return members.clone();
    }
    match doc.get("workload").and_then(Json::as_str) {
        Some(name) => vec![(name.to_string(), doc.clone())],
        None => Vec::new(),
    }
}

fn load(path: &str) -> Result<Vec<(String, Json)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let found = workloads(&sut::parse_json(&text).map_err(|e| format!("{path}: {e}"))?);
    if found.is_empty() {
        return Err(format!("{path}: neither a run set nor a workload result"));
    }
    Ok(found)
}

fn field(result: &Json, group: &str, name: &str) -> Option<f64> {
    result.get(group)?.get(name)?.as_f64()
}

/// Compare two result files; non-zero exit when any pair is `worse`.
pub fn main(base_path: &str, new_path: &str) -> ExitCode {
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<24} {:<16} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    let mut worse = 0;
    let mut compared = 0;
    for (name, b) in &base {
        let Some((_, n)) = new.iter().find(|(w, _)| w == name) else {
            println!("{name:<24} missing from {new_path}");
            worse += 1;
            continue;
        };
        for m in &spec::END_TO_END {
            let (Some(bv), Some(nv)) = (field(b, "metrics", m.name), field(n, "metrics", m.name))
            else {
                continue;
            };
            let noise = field(b, "spreads", m.name)
                .unwrap_or(0.0)
                .max(field(n, "spreads", m.name).unwrap_or(0.0));
            let verdict = judge(m, bv, nv, noise);
            worse += usize::from(verdict == Verdict::Worse);
            compared += 1;
            println!(
                "{name:<24} {:<16} {bv:>14.4} {nv:>14.4} {:>8.3} {:>6.0}%  {}",
                m.name,
                nv / bv,
                m.bound * 100.0,
                verdict.name()
            );
        }
        // Any increase in failures is a regression, whatever the speed.
        let failed = |r: &Json| r.get("failed_share").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(n) > failed(b) {
            println!(
                "{name:<24} {:<16} {:>14.6} {:>14.6} {:>8} {:>7}  worse",
                "failed_share",
                failed(b),
                failed(n),
                "-",
                "0%"
            );
            worse += 1;
        }
    }
    if compared == 0 {
        eprintln!("no (metric, workload) pair in common");
        return ExitCode::from(2);
    }
    println!("{compared} pairs compared, {worse} worse");
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> Metric {
        Metric {
            name: "m",
            unit: "x",
            better,
            bound,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let lower = metric(Better::Lower, 0.10);
        let higher = metric(Better::Higher, 0.10);
        assert!((worsening(&lower, 100.0, 120.0) - 0.20).abs() < 1e-12);
        assert!((worsening(&higher, 100.0, 120.0) + 0.20).abs() < 1e-12);
        assert_eq!(judge(&lower, 100.0, 120.0, 0.0), Verdict::Worse);
        assert_eq!(judge(&higher, 100.0, 120.0, 0.0), Verdict::Better);
        assert_eq!(judge(&lower, 100.0, 80.0, 0.0), Verdict::Better);
        assert_eq!(judge(&higher, 100.0, 80.0, 0.0), Verdict::Worse);
    }

    #[test]
    fn the_bound_is_inclusive_and_noise_makes_it_unresolved() {
        let m = metric(Better::Lower, 0.10);
        assert_eq!(judge(&m, 100.0, 110.0, 0.0), Verdict::Same);
        assert_eq!(judge(&m, 100.0, 90.5, 0.0), Verdict::Same);
        assert_eq!(judge(&m, 100.0, 111.0, 0.0), Verdict::Worse);
        // The same 11% inside a 15% window spread proves nothing.
        assert_eq!(judge(&m, 100.0, 111.0, 0.15), Verdict::Unresolved);
        assert_eq!(judge(&m, 100.0, 85.0, 0.20), Verdict::Unresolved);
        // Noise never rescues a change that is worse by more than it.
        assert_eq!(judge(&m, 100.0, 140.0, 0.15), Verdict::Worse);
        // A zero base only agrees with itself.
        assert_eq!(judge(&m, 0.0, 0.0, 0.0), Verdict::Same);
        assert_eq!(judge(&m, 0.0, 1.0, 0.0), Verdict::Worse);
    }

    #[test]
    fn run_sets_and_single_results_both_load() {
        let single = sut::parse_json(r#"{"workload":"w","metrics":{"setup_s":1.0}}"#).unwrap();
        let set = sut::parse_json(r#"{"workloads":{"w":{"metrics":{"setup_s":1.0}}}}"#).unwrap();
        assert_eq!(workloads(&single)[0].0, "w");
        assert_eq!(workloads(&set)[0].0, "w");
        assert_eq!(
            field(&workloads(&set)[0].1, "metrics", "setup_s"),
            Some(1.0)
        );
        assert!(workloads(&sut::parse_json("{}").unwrap()).is_empty());
    }
}
