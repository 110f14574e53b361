//! `hostbench`: RecoBench's host-performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! Runs one workload's fixed cell list (see `cells.rs`) in whole passes,
//! on one thread: at least three passes, and more while the next one is
//! expected to end within `--seconds`. It checks every cell's outcome
//! (see `gate.rs`) and prints, as its last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` gives the end-to-end metrics; `--trace 1` gives the
//! per-layer metrics of a separate traced run (see `mirror.rs`). The full
//! record, with per-cell times, failures and spans, goes to
//! `target/hostbench/<workload>[.trace].json`.
//!
//! `--bless` (pinned seed only) rewrites `reference/<workload>.tsv` from
//! this run's outcomes: only for a change meant to alter simulated
//! results.

mod cells;
mod clock;
mod gate;
mod micro;
mod mirror;
mod probe;
mod report;
mod run;
mod stats;

use std::fmt::Write as _;

use cells::{Workload, PINNED_SEED};
use report::{metrics_json, number, string, END_TO_END, PER_LAYER};
use run::{Args, RunReport};

/// Version of the artifact's layout.
const SCHEMA: &str = "recobench-hostbench/1";

const USAGE: &str =
    "usage: hostbench --workload <paper_campaign|media_recovery|beyond_cache|torture_oracle> \
                     --seed <n> --seconds <s> --trace <0|1> [--bless]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = PINNED_SEED;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut bless = false;
    while let Some(flag) = argv.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("a workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if bless && (trace || seed != PINNED_SEED) {
        return Err(format!(
            "--bless needs --trace 0 and the pinned seed {PINNED_SEED}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        bless,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let rep = match run::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(1);
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = metrics_json(table, &rep.values);
    let failed = rep.failures.len();
    let correct = failed == 0;

    summarize(&args, &rep, table);
    let path = format!(
        "target/hostbench/{}{}.json",
        args.workload.name(),
        if args.trace { ".trace" } else { "" }
    );
    match std::fs::create_dir_all("target/hostbench")
        .and_then(|()| std::fs::write(&path, artifact(&args, &rep, &metrics)))
    {
        Ok(()) => eprintln!("hostbench: record written to {path}"),
        Err(e) => eprintln!("hostbench: could not write {path}: {e}"),
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        rep.attempted()
    );
}

/// The human-readable summary, on standard error.
fn summarize(args: &Args, rep: &RunReport, table: &[(&str, &str)]) {
    let n = rep.attempted();
    let failed = rep.failures.len();
    eprintln!(
        "hostbench: {} seed {} trace {}: {n} cells x {} pass(es), 1 worker thread, nproc {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        rep.passes,
        nproc()
    );
    for (name, unit) in table {
        let v = rep.values.get(name).copied().unwrap_or(0.0);
        let note = match *name {
            "cell_ms_p50" | "cell_ms_p80" => format!("  (over {n} cells, fastest of 3 runs each)"),
            "setup_s" => format!("  (median of {} set-ups)", rep.setup_reps_s.len()),
            _ => String::new(),
        };
        eprintln!("  {name:<40} {v:>14.4} {unit}{note}");
    }
    eprintln!(
        "  {:<40} {:>14.4} ratio  ({failed} failed of {n} attempted)",
        "failed_share",
        failed as f64 / n as f64
    );
    for (i, why) in &rep.failures {
        eprintln!("  FAILED cell {i} ({}): {why}", rep.labels[*i]);
    }
    if let Some(p) = &rep.blessed {
        eprintln!("hostbench: reference written to {p}");
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The run's full record, as JSON.
fn artifact(args: &Args, rep: &RunReport, metrics: &str) -> String {
    let n = rep.attempted();
    let failed = rep.failures.len();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"trace\": {},\n  \
         \"seconds\": {},\n  \"nproc\": {},\n  \"worker_threads\": 1,\n  \"passes\": {},\n  \
         \"attempted\": {n},\n  \"failed\": {failed},\n  \"failed_share\": {},\n  \
         \"setup_reps_s\": [{}],\n  \"metrics\": {metrics},\n  \"cells\": [",
        args.workload.name(),
        args.seed,
        args.trace,
        number(args.seconds),
        nproc(),
        rep.passes,
        number(failed as f64 / n as f64),
        rep.setup_reps_s.iter().map(|s| number(*s)).collect::<Vec<_>>().join(", "),
    );
    for (i, label) in rep.labels.iter().enumerate() {
        let ms = rep.cell_ms[i]
            .iter()
            .map(|m| number(*m))
            .collect::<Vec<_>>()
            .join(", ");
        let failure = rep
            .failures
            .get(&i)
            .map_or("null".to_string(), |f| string(f));
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"index\": {i}, \"label\": {}, \"wall_ms\": [{ms}], \"failure\": {failure}}}",
            string(label)
        );
    }
    out.push_str("\n  ],\n  \"spans\": [");
    if let Some(tr) = &rep.tracer {
        for (k, s) in tr.spans.iter().enumerate() {
            let sep = if k == 0 { "" } else { "," };
            let parent = if s.name == "cell" { "null" } else { "\"cell\"" };
            let _ = write!(
                out,
                "{sep}\n    {{\"cell\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"dur_ns\": {}}}",
                s.cell, s.name, s.start_ns, s.dur_ns
            );
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}
