//! `perfbench` — the serve-path benchmark's command line.
//!
//! ```text
//! perfbench --workload <small_closed|dct_closed|mixed_open|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the machine note, one line per metric with its unit, and as
//! the last line a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--workload all` runs every workload in its own
//! process, one after another.

use perfbench::report::{machine_note, result_json};
use perfbench::stream::{workload, WORKLOADS};
use perfbench::{run_workload, RunArgs};
use std::path::Path;
use std::process::{Command, ExitCode};

struct Cli {
    workload: String,
    args: RunArgs,
    raw: Vec<String>,
}

fn parse(raw: Vec<String>) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        args: RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        },
        raw,
    })
}

/// Runs each workload as a child process of this binary, so each
/// reports its own peak memory.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut all_correct = true;
    for wl in WORKLOADS {
        let mut args = cli.raw.clone();
        let at = args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed --workload");
        args[at + 1] = wl.name.to_string();
        let status = Command::new(&exe)
            .args(&args)
            .status()
            .map_err(|e| format!("running {}: {e}", wl.name))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1).collect()) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.workload == "all" {
        return match run_all(&cli) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(wl) = workload(&cli.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload `{}` (expected one of {} or all)",
            cli.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a subdirectory of the repository");
    println!("{}", machine_note(root));
    match run_workload(wl, cli.args) {
        Ok(report) => {
            print!("{}", report.text);
            println!(
                "{}",
                result_json(
                    report.correct,
                    report.attempted,
                    report.failed,
                    &report.metrics
                )
            );
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", wl.name);
            ExitCode::FAILURE
        }
    }
}
