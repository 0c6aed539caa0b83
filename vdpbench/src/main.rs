//! End-to-end and per-layer benchmark of the VeriDP monitor.
//!
//! ```text
//! cargo run --release --manifest-path vdpbench/Cargo.toml -- \
//!     --workload wire_clean --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path vdpbench/Cargo.toml -- --smoke
//! ```
//!
//! One workload per process. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, and the metrics, the
//! end-to-end ones with `--trace 0` and the per-layer ones with
//! `--trace 1`. Two `machine probe` lines before it time fixed work outside
//! the program, before and after the run. The traced run also writes its
//! spans, one JSON object per line, under `.bench_trace/`. The process
//! exits nonzero when an output check fails. See README.md beside this file for the workloads, the
//! metrics and what each layer figure should move.

mod checks;
mod churn;
mod layers;
mod sys;
mod trace;
mod wire;

use std::process::ExitCode;

/// Every workload, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 2] = ["wire_clean", "wire_hostile"];

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Output {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed output check; empty when the run is correct.
    pub problems: Vec<String>,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.smoke && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// Run one workload at full or smoke scale.
fn run_workload(workload: &str, seed: u64, seconds: f64, smoke: bool) -> std::io::Result<Output> {
    let wire_scale = if smoke {
        wire::WireScale::smoke()
    } else {
        wire::WireScale::full()
    };
    let churn_scale = if smoke {
        churn::ChurnScale::smoke()
    } else {
        churn::ChurnScale::full()
    };
    match workload {
        "wire_clean" => wire::run::<veridp_core::HeaderSpace>(
            wire::Kind::Clean,
            seed,
            seconds,
            &wire_scale,
            &churn_scale,
        ),
        "wire_hostile" => wire::run::<veridp_atoms::AtomSpace>(
            wire::Kind::Hostile,
            seed,
            seconds,
            &wire_scale,
            &churn_scale,
        ),
        other => unreachable!("workload {other} passed argument checks"),
    }
}

fn json_line(out: &Output, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

/// Every workload at reduced volume, traced, with every output check.
/// Returns the problems found, prefixed by workload.
fn smoke() -> Vec<String> {
    let mut problems = Vec::new();
    for w in WORKLOADS {
        trace::enable(true, 0);
        match run_workload(w, 7, 1.0, true) {
            Ok(out) => {
                println!("smoke {w}: {}", json_line(&out, &out.e2e));
                problems.extend(out.problems.iter().map(|p| format!("{w}: {p}")));
                for m in out.e2e.iter().chain(&out.layers) {
                    if !m.value.is_finite() {
                        problems.push(format!("{w}: metric {} is {}", m.name, m.value));
                    }
                }
                if out.e2e.iter().any(|m| m.value <= 0.0) || out.layers.is_empty() {
                    problems.push(format!(
                        "{w}: an end-to-end metric read 0 or no layer figures"
                    ));
                }
            }
            Err(e) => problems.push(format!("{w}: {e}")),
        }
        let _ = trace::take_thread();
    }
    problems
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "context: nproc={} obs={} loopback_only=true",
        sys::nproc(),
        if veridp_obs::ENABLED { "on" } else { "off" }
    );
    if args.smoke {
        let problems = smoke();
        for p in &problems {
            eprintln!("check failed: {p}");
        }
        return if problems.is_empty() {
            println!("smoke: all workloads correct");
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let probe = |when: &str| {
        let (mem, cpu) = sys::machine_probe();
        println!("machine probe {when}: mem_walk_ms={mem:.3} cpu_loop_ms={cpu:.3}");
    };
    probe("before");
    trace::enable(args.trace, 0);
    let out = match run_workload(&args.workload, args.seed, args.seconds, false) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            ".bench_trace/{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        let (kept, dropped) = trace::recorded();
        eprintln!("spans: {kept} recorded, {dropped} dropped past the cap");
        match trace::write_jsonl(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: writing {}: {e}", path.display()),
        }
        let e2e: Vec<String> = out
            .e2e
            .iter()
            .map(|m| format!("{}={:.6}", m.name, m.value))
            .collect();
        eprintln!("traced end-to-end: {}", e2e.join(" "));
    }
    probe("after");
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    println!("{}", json_line(&out, metrics));
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_runs_every_workload_with_every_check() {
        let problems = super::smoke();
        assert!(problems.is_empty(), "{problems:#?}");
    }
}
