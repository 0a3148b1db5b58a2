//! Run context, environment capture, and result output: the human table,
//! the result file under `benchmark/out/`, and the one-line JSON verdict
//! the driver reads from the end of standard output.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::spec::{self, Metric};
use crate::sut::{self, Json};

/// Everything a workload needs to know about this invocation.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: &'static str,
    /// Traffic seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Multiplier on the generators' default dataset sizes.
    pub scale: usize,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Smoke run: ×1 datasets, short windows, every oracle on.
    pub smoke: bool,
    /// Client threads (= `nproc`, closed loop, one connection each).
    pub clients: usize,
    /// Scratch directory for this run's journals, snapshots and traces.
    pub out: PathBuf,
}

impl Ctx {
    /// A fresh file path under the scratch directory, removing leftovers
    /// of an earlier run with the same name.
    pub fn scratch(&self, name: &str) -> PathBuf {
        let path = self.out.join(format!("{}.{name}", self.workload));
        let _ = std::fs::remove_file(&path);
        path
    }
}

/// `benchmark/out/`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn fs_type(dir: &Path) -> String {
    // The mount with the longest prefix of `dir` wins.
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
                    dir.starts_with(mount)
                        .then(|| (mount.len(), fstype.to_string()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, t)| t)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the numbers were taken.
pub fn environment(ctx: &Ctx) -> Json {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = command_line("git", &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"]);
    Json::obj([
        ("nproc", Json::Int(ctx.clients as i64)),
        ("scratch_fs", Json::Str(fs_type(&ctx.out))),
        ("simd_tier", Json::str(sut::simd_tier())),
        (
            "rustc",
            command_line("rustc", &["--version"]).map_or(Json::Null, Json::Str),
        ),
        ("git_commit", git.map_or(Json::Null, Json::Str)),
        ("dataset_scale", Json::Int(ctx.scale as i64)),
    ])
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: turns, operator phases and oracle checks.
    pub attempted: u64,
    /// Of those, how many failed, were refused, or mismatched an oracle.
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Relative spread of the windows/repetitions behind a metric.
    pub spreads: Vec<(&'static str, f64)>,
    /// Anything else worth keeping in the result file.
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Record a metric with the spread of the samples behind it.
    pub fn set_summary(&mut self, name: &'static str, s: crate::stats::Summary) {
        self.metrics.push((name, s.median));
        self.spreads.push((name, s.spread));
    }

    /// Count `n` more attempted operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, first_error: Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        if let Some(e) = first_error {
            self.note_error(e);
        }
    }

    /// One oracle check.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            self.note_error(what());
        }
    }

    fn note_error(&mut self, e: String) {
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    /// Keep a detail for the result file.
    pub fn note(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// No operation failed and no oracle mismatched.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The metrics this mode must report, with the outcome's value for each
/// (0 where the workload does not exercise the layer).
fn declared(ctx: &Ctx, outcome: &Outcome) -> Vec<(&'static Metric, f64)> {
    let table: &[Metric] = if ctx.trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    table
        .iter()
        .map(|m| (m, outcome.get(m.name).unwrap_or(0.0)))
        .collect()
}

/// The driver's verdict line.
pub fn verdict_line(ctx: &Ctx, outcome: &Outcome) -> String {
    let metrics: Vec<(String, Json)> = declared(ctx, outcome)
        .into_iter()
        .map(|(m, v)| {
            (
                m.name.to_string(),
                Json::obj([("value", Json::Float(v)), ("unit", Json::str(m.unit))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .encode()
}

/// This run as a result-file entry (`compare` reads these).
pub fn result_json(ctx: &Ctx, outcome: &Outcome) -> Json {
    let pairs = |v: &[(&'static str, f64)]| {
        Json::Obj(
            v.iter()
                .map(|(n, x)| (n.to_string(), Json::Float(*x)))
                .collect(),
        )
    };
    let failed_share = if outcome.attempted == 0 {
        1.0
    } else {
        outcome.failed as f64 / outcome.attempted as f64
    };
    let mut members = vec![
        ("workload".to_string(), Json::str(ctx.workload)),
        ("seed".to_string(), Json::Int(ctx.seed as i64)),
        ("seconds".to_string(), Json::Float(ctx.seconds)),
        ("trace".to_string(), Json::Bool(ctx.trace)),
        ("smoke".to_string(), Json::Bool(ctx.smoke)),
        ("correct".to_string(), Json::Bool(outcome.correct())),
        ("attempted".to_string(), Json::Int(outcome.attempted as i64)),
        ("failed".to_string(), Json::Int(outcome.failed as i64)),
        ("failed_share".to_string(), Json::Float(failed_share)),
        (
            "errors".to_string(),
            Json::Arr(outcome.errors.iter().map(Json::str).collect()),
        ),
        ("metrics".to_string(), pairs(&outcome.metrics)),
        ("spreads".to_string(), pairs(&outcome.spreads)),
        ("environment".to_string(), environment(ctx)),
    ];
    members.extend(outcome.detail.iter().cloned());
    Json::Obj(members)
}

/// Print every metric by name with its unit, then the failures.
pub fn print_table(ctx: &Ctx, outcome: &Outcome) {
    println!(
        "== {} (seed {}, {:.1}s, {}, scale x{}, {} clients)",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        if ctx.trace { "traced" } else { "end-to-end" },
        ctx.scale,
        ctx.clients
    );
    let declared = declared(ctx, outcome);
    for (m, v) in &declared {
        let spread = outcome
            .spreads
            .iter()
            .find(|(n, _)| *n == m.name)
            .map_or(String::new(), |(_, s)| {
                format!("  (window spread {:.1}%)", s * 100.0)
            });
        println!("{:<42} {:>16.4} {}{}", m.name, v, m.unit, spread);
    }
    // Whatever else the run could read for free (counters, phases).
    for (name, v) in &outcome.metrics {
        if !declared.iter().any(|(m, _)| m.name == *name) {
            println!("{name:<42} {v:>16.4}   (not part of this mode's verdict)");
        }
    }
    println!(
        "attempted {}  failed {}  failed_share {:.6}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for e in &outcome.errors {
        println!("FAILED: {e}");
    }
}

/// Write `value` to `path` (pretty enough to diff: one member per line at
/// the top level).
pub fn write_json(path: &Path, value: &Json) -> Result<(), String> {
    let text = match value {
        Json::Obj(members) => {
            let lines: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("  {}: {}", Json::str(k.as_str()).encode(), v.encode()))
                .collect();
            format!("{{\n{}\n}}\n", lines.join(",\n"))
        }
        other => other.encode() + "\n",
    };
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}
