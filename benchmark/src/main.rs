//! The repo benchmark: four workloads, end-to-end and per-layer metrics,
//! and an outside-in traced run. See `README.md` next to this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run [--workload W] [--seed N]
//!     [--seconds S] [--trace [0|1]] [--smoke]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare <a.json> <b.json>
//! cargo run --release --manifest-path benchmark/Cargo.toml -- spec
//! ```

mod compare;
mod lifecycle;
mod load;
mod oneshot;
mod report;
mod served;
mod spans;
mod spec;
mod stats;
mod sut;
mod traced;
mod traffic;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::{Ctx, Outcome};
use sut::Json;

const USAGE: &str = "usage:
  squid-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
  squid-benchmark compare <base.json> <new.json>
  squid-benchmark spec";

/// Dataset multiplier of a full run: the ROADMAP's "one larger synthetic
/// slate" (IMDb 60 000 persons / 30 000 movies, DBLP 30 000 / 90 000,
/// Adult 80 000 rows).
const FULL_SCALE: usize = 10;

struct RunArgs {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut seconds_given = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |flag: &str| -> Result<&String, String> {
            i += 1;
            args.get(i).ok_or(format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => {
                let name = value("--workload")?;
                out.workload = Some(
                    spec::workload(name)
                        .ok_or(format!("unknown workload {name:?}"))?
                        .name,
                );
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds_given = true;
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes `--trace 0|1`.
                out.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    if out.smoke && !seconds_given {
        out.seconds = 2.0;
    }
    Ok(out)
}

fn run_workload(ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("create {}: {e}", ctx.out.display()))?;
    match (ctx.workload, ctx.trace) {
        ("interactive_mem", false) => served::run(ctx, false),
        ("interactive_journaled", false) => served::run(ctx, true),
        ("oneshot_discover", false) => oneshot::run(ctx),
        ("lifecycle_ops", false) => lifecycle::run(ctx),
        (_, true) => traced::run(ctx),
        (other, _) => Err(format!("unknown workload {other:?}")),
    }
}

/// Where a single workload's result goes.
fn result_file(trace: bool, workload: &str) -> PathBuf {
    let kind = if trace { "trace_result" } else { "result" };
    report::out_dir().join(format!("{kind}_{workload}.json"))
}

/// Run one workload in this process and print its verdict line last.
fn run_one(args: &RunArgs, workload: &'static str) -> ExitCode {
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        scale: if args.smoke { 1 } else { FULL_SCALE },
        trace: args.trace,
        smoke: args.smoke,
        clients: std::thread::available_parallelism().map_or(1, |n| n.get().clamp(1, 8)),
        out: report::out_dir(),
    };
    let outcome = match run_workload(&ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    report::print_table(&ctx, &outcome);
    let file = result_file(ctx.trace, workload);
    if let Err(e) = report::write_json(&file, &report::result_json(&ctx, &outcome)) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    println!("{}", report::verdict_line(&ctx, &outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in its own child process (the global
/// interner, the caches and the RSS high-water mark must not leak from
/// one workload into the next), and gather the results into one run set.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = report::out_dir();
    let mut all_ok = true;
    let mut entries = Vec::new();
    for w in &spec::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        // The child prints its own table; wait for it before the next.
        let ok = cmd.status().is_ok_and(|s| s.success());
        all_ok &= ok;
        let file = result_file(args.trace, w.name);
        match std::fs::read_to_string(&file)
            .map_err(|e| e.to_string())
            .and_then(|t| sut::parse_json(&t))
        {
            Ok(j) if ok => entries.push((w.name.to_string(), j)),
            Ok(_) => eprintln!("{}: run failed", w.name),
            Err(e) => {
                eprintln!("{}: no result file: {e}", w.name);
                all_ok = false;
            }
        }
    }
    let set = Json::obj([
        ("seed", Json::Int(args.seed as i64)),
        ("trace", Json::Bool(args.trace)),
        ("workloads", Json::Obj(entries)),
    ]);
    let file = out.join(if args.trace {
        "trace_results.json"
    } else {
        "results.json"
    });
    match report::write_json(&file, &set) {
        Ok(()) => println!("run set written to {}", file.display()),
        Err(e) => {
            eprintln!("{e}");
            all_ok = false;
        }
    }
    for note in spec::INTERACTION_NOTES {
        println!("note: {note}");
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run_args(&args[1..]) {
            Ok(run) => match run.workload {
                Some(w) => run_one(&run, w),
                None => run_all(&run),
            },
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() == 3 => compare::main(&args[1], &args[2]),
        Some("spec") => {
            println!("{}", spec::benchmark_json_text());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
