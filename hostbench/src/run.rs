//! One benchmark run: set up, run the workload's cells in whole passes
//! until the time is up, judge every cell, and collect the metrics.

use std::collections::BTreeMap;

use recobench_core::{Experiment, ExperimentOutcome, ExperimentScratch, ExperimentTemplate};
use recobench_faults::FaultSchedule;
use recobench_oracle::{TortureOutcome, TortureRunner};

use crate::cells::{cells, CellSpec, Cells, Workload, PINNED_SEED};
use crate::clock::Stopwatch;
use crate::gate;
use crate::micro;
use crate::mirror::{self, Counters, MirrorTemplate, Tracer};
use crate::probe::OracleProbe;
use crate::report::Values;
use crate::stats::{mean, median, percentile, ratio};

/// What the command line asked for.
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed the cells are generated from.
    pub seed: u64,
    /// Seconds to measure for; the run always completes whole passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Rewrite the pinned seed's reference digests from this run.
    pub bless: bool,
}

/// Everything a run produced.
pub struct RunReport {
    /// Cell labels, in run order.
    pub labels: Vec<String>,
    /// Host wall ms of every cell run, per cell, one entry per pass.
    pub cell_ms: Vec<Vec<f64>>,
    /// The first failure reason of every failed cell.
    pub failures: BTreeMap<usize, String>,
    /// Whole passes over the cell list.
    pub passes: usize,
    /// Wall seconds of every setup repetition.
    pub setup_reps_s: Vec<f64>,
    /// Metric values (end-to-end or per-layer, as asked).
    pub values: Values,
    /// Spans of the traced run.
    pub tracer: Option<Tracer>,
    /// Where a bless wrote the reference.
    pub blessed: Option<String>,
}

impl RunReport {
    fn new(labels: Vec<String>) -> RunReport {
        RunReport {
            cell_ms: vec![Vec::new(); labels.len()],
            labels,
            failures: BTreeMap::new(),
            passes: 0,
            setup_reps_s: Vec::new(),
            values: Values::new(),
            tracer: None,
            blessed: None,
        }
    }

    fn fail(&mut self, cell: usize, reason: String) {
        self.failures.entry(cell).or_insert(reason);
    }

    /// Cells attempted (each cell once, however many passes ran).
    pub fn attempted(&self) -> usize {
        self.labels.len()
    }
}

/// Runs the benchmark as `args` asks.
///
/// # Errors
///
/// Fails only when `--bless` cannot write the reference.
pub fn run(args: &Args) -> Result<RunReport, String> {
    let gen_sw = Stopwatch::start();
    let cells = cells(args.workload, args.seed);
    let gen_s = gen_sw.elapsed_s();
    let reference = if args.seed == PINNED_SEED && !args.bless {
        gate::reference(args.workload)
    } else {
        None
    };
    let mut rep = RunReport::new(cells.labels());
    let reference = match reference {
        Some(r) if r.len() != cells.len() => {
            for i in 0..cells.len() {
                rep.fail(
                    i,
                    format!(
                        "the pinned reference has {} cells, the workload {}",
                        r.len(),
                        cells.len()
                    ),
                );
            }
            None
        }
        r => r,
    };
    let digests = match &cells {
        Cells::Experiments(specs) => {
            if args.trace {
                traced_experiments(args, specs, reference.as_deref(), &mut rep)
            } else {
                untraced_experiments(args, specs, reference.as_deref(), &mut rep)
            }
        }
        Cells::Schedules(schedules) => {
            torture(args, schedules, gen_s, reference.as_deref(), &mut rep)
        }
    };
    if args.trace {
        rep.values.extend(micro::timings());
    }
    if args.bless {
        if rep.failures.values().any(|f| f.starts_with("setup error")) {
            return Err("refusing to bless a run with setup errors".into());
        }
        let path = gate::bless(args.workload, &rep.labels, &digests).map_err(|e| e.to_string())?;
        rep.blessed = Some(path);
    }
    Ok(rep)
}

/// Judges one pass's digest of cell `i`: against the pinned reference
/// and against the first pass.
fn judge_digest(i: usize, digest: u64, reference: Option<&[u64]>, first: &[u64]) -> Option<String> {
    if let Some(&want) = reference.and_then(|r| r.get(i)) {
        if want != digest {
            return Some(format!(
                "outcome digest {digest:016x} differs from the pinned reference {want:016x}"
            ));
        }
    }
    match first.get(i) {
        Some(&d) if d != digest => Some("outcome differs from the first pass".into()),
        _ => None,
    }
}

/// Templates of one setup repetition, by template key.
struct Setup {
    templates: BTreeMap<String, Result<ExperimentTemplate, String>>,
    build_ms: Vec<f64>,
}

impl Setup {
    /// `Experiment::build_template` once per distinct template key.
    fn build(exps: &[Experiment], keys: &[String]) -> Setup {
        let mut setup = Setup {
            templates: BTreeMap::new(),
            build_ms: Vec::new(),
        };
        for (e, key) in exps.iter().zip(keys) {
            if !setup.templates.contains_key(key) {
                let sw = Stopwatch::start();
                let tpl = e
                    .build_template()
                    .map_err(|err| format!("setup error: {err}"));
                setup.build_ms.push(sw.elapsed_s() * 1e3);
                setup.templates.insert(key.clone(), tpl);
            }
        }
        setup
    }
}

/// Setup repetitions: at least 3, and up to 9 while they take under a
/// second in total; `setup_s` is their median.
fn setup_reps_done(reps: &[f64]) -> bool {
    reps.len() >= 9 || (reps.len() >= 3 && reps.iter().sum::<f64>() >= 1.0)
}

/// Runs every experiment cell once from `setup`, judging each outcome.
/// Returns the pass's outcomes.
fn experiment_pass(
    exps: &[Experiment],
    keys: &[String],
    setup: &Setup,
    reference: Option<&[u64]>,
    first: &[u64],
    rep: &mut RunReport,
) -> Vec<Option<ExperimentOutcome>> {
    let mut scratch = ExperimentScratch::default();
    let mut outcomes = Vec::with_capacity(exps.len());
    for (i, (e, key)) in exps.iter().zip(keys).enumerate() {
        let sw = Stopwatch::start();
        let result = match &setup.templates[key] {
            Ok(tpl) => e
                .run_with_template_in(tpl, &mut scratch)
                .map_err(|err| format!("setup error: {err}")),
            Err(err) => Err(err.clone()),
        };
        rep.cell_ms[i].push(sw.elapsed_s() * 1e3);
        match result {
            Ok(o) => {
                let problem = gate::check_breakdown(&o)
                    .err()
                    .or_else(|| judge_digest(i, gate::experiment_digest(&o), reference, first));
                if let Some(p) = problem {
                    rep.fail(i, p);
                }
                outcomes.push(Some(o));
            }
            Err(err) => {
                rep.fail(i, err);
                outcomes.push(None);
            }
        }
    }
    outcomes
}

fn digests_of(outcomes: &[Option<ExperimentOutcome>]) -> Vec<u64> {
    outcomes
        .iter()
        .map(|o| o.as_ref().map_or(0, gate::experiment_digest))
        .collect()
}

fn untraced_experiments(
    args: &Args,
    specs: &[CellSpec],
    reference: Option<&[u64]>,
    rep: &mut RunReport,
) -> Vec<u64> {
    let exps: Vec<Experiment> = specs.iter().map(CellSpec::experiment).collect();
    let keys: Vec<String> = exps.iter().map(Experiment::template_key).collect();
    let mut setup = Setup {
        templates: BTreeMap::new(),
        build_ms: Vec::new(),
    };
    while !setup_reps_done(&rep.setup_reps_s) {
        setup.templates.clear(); // one template set alive at a time
        let sw = Stopwatch::start();
        setup = Setup::build(&exps, &keys);
        rep.setup_reps_s.push(sw.elapsed_s());
    }

    let measured = Stopwatch::start();
    let mut first: Vec<u64> = Vec::new();
    let mut last_pass_s = 0.0;
    while rep.passes < MIN_PASSES || measured.elapsed_s() + last_pass_s <= args.seconds {
        let pass = Stopwatch::start();
        let outcomes = experiment_pass(&exps, &keys, &setup, reference, &first, rep);
        if first.is_empty() {
            first = digests_of(&outcomes);
        }
        rep.passes += 1;
        last_pass_s = pass.elapsed_s();
    }
    end_to_end(rep);
    first
}

/// Passes every run makes at least, and the runs each cell's time is
/// taken from. Noise on a shared host only ever slows a cell down, and
/// comes in episodes of seconds; each cell's time is the fastest of its
/// first three runs, taken one pass apart. Later passes, when time allows
/// them, only check that outcomes repeat: a varying number of samples
/// would make the minimum vary with it.
const MIN_PASSES: usize = 3;

/// The end-to-end metrics of an untraced run, over each cell's fastest
/// run: throughput of one pass at that speed, and the 50th and 80th
/// percentile over cells.
fn end_to_end(rep: &mut RunReport) {
    let best: Vec<f64> = rep
        .cell_ms
        .iter()
        .map(|runs| {
            runs.iter()
                .take(MIN_PASSES)
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let v = &mut rep.values;
    v.insert("setup_s", median(&rep.setup_reps_s));
    v.insert(
        "cells_per_s",
        ratio(best.len() as f64, best.iter().sum::<f64>() / 1e3),
    );
    v.insert("cell_ms_p50", percentile(&best, 50.0));
    v.insert("cell_ms_p80", percentile(&best, 80.0));
    v.insert("peak_rss_mb", peak_rss_mib());
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Every how many cells the traced run mirrors a cell a second time to
/// check that its exact counters repeat.
const REPEAT_EVERY: usize = 8;

fn traced_experiments(
    args: &Args,
    specs: &[CellSpec],
    reference: Option<&[u64]>,
    rep: &mut RunReport,
) -> Vec<u64> {
    // 1. One untraced pass: the outcomes the mirror must reproduce, and
    //    the untraced wall time the tracing overhead is measured against.
    let exps: Vec<Experiment> = specs.iter().map(CellSpec::experiment).collect();
    let keys: Vec<String> = exps.iter().map(Experiment::template_key).collect();
    let setup = Setup::build(&exps, &keys);
    let untraced = experiment_pass(&exps, &keys, &setup, reference, &[], rep);
    rep.passes = 1;
    let v = &mut rep.values;
    v.insert("core.build_template_ms", mean(&setup.build_ms));
    v.insert("core.templates_built", setup.build_ms.len() as f64);
    drop(setup);

    // 2. The traced mirror of every cell. Every cell has its own seed and
    //    so its own template, built just before the cell and dropped after.
    let mut tr = Tracer::new();
    let mut counters: Vec<Counters> = Vec::new();
    let mut probe = OracleProbe::default();
    for (i, spec) in specs.iter().enumerate() {
        let tpl = match MirrorTemplate::build(spec) {
            Ok(t) => t,
            Err(e) => {
                rep.fail(i, format!("setup error: {e}"));
                continue;
            }
        };
        match mirror::run_cell(spec, &tpl, i, &mut tr) {
            Ok((outcome, c)) => {
                if untraced[i].as_ref() != Some(&outcome) {
                    rep.fail(
                        i,
                        "mirror outcome differs from the untraced run of the cell".into(),
                    );
                }
                if i % REPEAT_EVERY == 0 {
                    match mirror::run_cell(spec, &tpl, i, &mut Tracer::new()) {
                        Ok((again, c2)) if again == outcome && c2 == c => {}
                        _ => rep.fail(i, "exact counters differ between repeated runs".into()),
                    }
                }
                counters.push(c);
            }
            Err(e) => rep.fail(i, format!("setup error: {e}")),
        }
        if args.workload == Workload::PaperCampaign && spec.fault.is_none() {
            match probe.run(spec, &tpl) {
                Ok(None) => {}
                Ok(Some(reason)) => rep.fail(i, reason),
                Err(e) => rep.fail(i, format!("oracle probe: {e}")),
            }
        }
    }

    per_layer(&mut rep.values, &tr, &counters, &probe);
    rep.values
        .insert("trace.overhead_share", overhead_share(&tr, &rep.cell_ms));
    rep.tracer = Some(tr);
    digests_of(&untraced)
}

/// Tracing overhead: the median over cells of traced / untraced wall
/// time, minus 1. A median of per-cell ratios, because host noise comes
/// in episodes that a ratio of totals would take for overhead.
fn overhead_share(tr: &Tracer, untraced_ms: &[Vec<f64>]) -> f64 {
    let ratios: Vec<f64> = tr
        .spans
        .iter()
        .filter(|s| s.name == "cell")
        .filter_map(|s| {
            let untraced = untraced_ms.get(s.cell)?.first()?;
            Some(ratio(s.dur_ns as f64 / 1e6, *untraced))
        })
        .collect();
    median(&ratios) - 1.0
}

/// Per-layer metrics from the mirror's spans and counters.
fn per_layer(v: &mut Values, tr: &Tracer, counters: &[Counters], probe: &OracleProbe) {
    let span_ms = |name: &str| -> Vec<f64> {
        tr.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    };
    let cell_ms: f64 = span_ms("cell").iter().sum();
    let step_us: Vec<f64> = tr.step_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let recover_ms = span_ms("faults.recover");
    let sum = |f: fn(&Counters) -> u64| counters.iter().map(f).sum::<u64>() as f64;
    let commits = sum(|c| c.engine.commits);

    v.insert(
        "engine.from_snapshot_us",
        percentile(&span_ms("engine.from_snapshot"), 50.0) * 1e3,
    );
    v.insert("tpcc.step_us_p50", percentile(&step_us, 50.0));
    v.insert("tpcc.step_us_p99", percentile(&step_us, 99.0));
    v.insert("tpcc.steps", sum(|c| c.steps));
    v.insert(
        "tpcc.step_share",
        ratio(step_us.iter().sum::<f64>() / 1e3, cell_ms),
    );
    v.insert("tpcc.errors", sum(|c| c.errors));
    v.insert("tpcc.deadlock_aborts", sum(|c| c.deadlock_aborts));
    v.insert(
        "tpcc.check_consistency_ms",
        mean(&span_ms("tpcc.check_consistency")),
    );
    v.insert(
        "tpcc.audit_lost_orders_ms",
        mean(&span_ms("tpcc.audit_lost_orders")),
    );
    v.insert("tpcc.quiesce_ms", mean(&span_ms("tpcc.quiesce")));

    v.insert("engine.commits", commits);
    v.insert("engine.redo_records", sum(|c| c.engine.redo_records));
    v.insert("engine.redo_bytes", sum(|c| c.engine.redo_bytes));
    v.insert("engine.log_flushes", sum(|c| c.engine.log_flushes));
    v.insert("engine.log_switches", sum(|c| c.engine.log_switches));
    v.insert(
        "engine.full_checkpoints",
        sum(|c| c.engine.full_checkpoints),
    );
    v.insert("engine.blocks_written", sum(|c| c.engine.blocks_written));
    v.insert(
        "engine.archives_created",
        sum(|c| c.engine.archives_created),
    );
    v.insert("engine.lock_waits", sum(|c| c.engine.lock_waits));
    v.insert("engine.deadlocks", sum(|c| c.engine.deadlocks));
    v.insert(
        "engine.checksum_mismatches",
        sum(|c| c.engine.checksum_mismatches),
    );
    v.insert(
        "engine.blocks_written_per_txn",
        ratio(sum(|c| c.engine.blocks_written), commits),
    );
    v.insert(
        "engine.redo_bytes_per_txn",
        ratio(sum(|c| c.engine.redo_bytes), commits),
    );

    v.insert("vfs.reads", sum(|c| c.vfs.reads));
    v.insert("vfs.writes", sum(|c| c.vfs.writes));
    v.insert("vfs.bytes_read", sum(|c| c.vfs.bytes_read));
    v.insert("vfs.bytes_written", sum(|c| c.vfs.bytes_written));
    v.insert("vfs.reads_per_txn", ratio(sum(|c| c.vfs.reads), commits));

    let applied = sum(|c| c.engine.recovery_records_applied);
    v.insert("faults.inject_ms", mean(&span_ms("faults.inject")));
    v.insert("faults.recover_ms_p50", percentile(&recover_ms, 50.0));
    v.insert(
        "faults.recover_share",
        ratio(recover_ms.iter().sum(), cell_ms),
    );
    v.insert("engine.recovery_records_applied", applied);
    v.insert(
        "engine.recovery_records_skipped",
        sum(|c| c.engine.recovery_records_skipped),
    );
    v.insert(
        "engine.recovery_archives_processed",
        sum(|c| c.engine.recovery_archives_processed),
    );
    v.insert(
        "engine.replay_records_per_s",
        ratio(applied, recover_ms.iter().sum::<f64>() / 1e3),
    );

    v.insert(
        "oracle.observe_ns",
        ratio(probe.observe_ns as f64, probe.dml_changes as f64),
    );
    v.insert("oracle.dml_changes", probe.dml_changes as f64);
    v.insert("oracle.from_server_ms", mean(&probe.from_server_ms));
    v.insert("oracle.diff_states_ms", mean(&probe.diff_states_ms));
    v.insert("oracle.rows_diffed", probe.rows_diffed as f64);
    v.insert(
        "engine.verify_integrity_ms",
        mean(&probe.verify_integrity_ms),
    );
}

/// Runs every schedule once under `TortureRunner::default()`, judging
/// each outcome. Returns the outcomes.
fn torture_pass(
    schedules: &[FaultSchedule],
    reference: Option<&[u64]>,
    first: &[u64],
    rep: &mut RunReport,
) -> Vec<Option<TortureOutcome>> {
    let runner = TortureRunner::default();
    let mut outcomes = Vec::with_capacity(schedules.len());
    for (i, s) in schedules.iter().enumerate() {
        let sw = Stopwatch::start();
        let result = runner.run(s);
        rep.cell_ms[i].push(sw.elapsed_s() * 1e3);
        match result {
            Ok(o) => {
                if let Some(d) = o.divergences.first() {
                    rep.fail(
                        i,
                        format!("oracle divergence ({} in all): {d:?}", o.divergences.len()),
                    );
                }
                if let Some(p) = judge_digest(i, gate::torture_digest(&o), reference, first) {
                    rep.fail(i, p);
                }
                outcomes.push(Some(o));
            }
            Err(e) => {
                rep.fail(i, format!("setup error: {e}"));
                outcomes.push(None);
            }
        }
    }
    outcomes
}

fn torture(
    args: &Args,
    schedules: &[FaultSchedule],
    gen_s: f64,
    reference: Option<&[u64]>,
    rep: &mut RunReport,
) -> Vec<u64> {
    let digests = |outcomes: &[Option<TortureOutcome>]| -> Vec<u64> {
        outcomes
            .iter()
            .map(|o| o.as_ref().map_or(0, gate::torture_digest))
            .collect()
    };
    // `TortureRunner::run` sets up inside the cell; the workload's own
    // setup is generating the schedules.
    rep.setup_reps_s.push(gen_s);
    while !setup_reps_done(&rep.setup_reps_s) {
        let sw = Stopwatch::start();
        std::hint::black_box(cells(args.workload, args.seed));
        rep.setup_reps_s.push(sw.elapsed_s());
    }

    let measured = Stopwatch::start();
    let first = digests(&torture_pass(schedules, reference, &[], rep));
    rep.passes = 1;
    if args.trace {
        // The traced pass: the same runs, timed at `TortureRunner::run`
        // granularity, whose outcomes must repeat the untraced pass.
        let mut tr = Tracer::new();
        let runner = TortureRunner::default();
        let mut outs: Vec<TortureOutcome> = Vec::new();
        for (i, s) in schedules.iter().enumerate() {
            let sw = Stopwatch::start();
            let result = runner.run(s);
            tr.close(i, "cell", sw);
            match result {
                Ok(o) => {
                    if first.get(i) != Some(&gate::torture_digest(&o)) {
                        rep.fail(
                            i,
                            "traced outcome differs from the untraced run of the cell".into(),
                        );
                    }
                    outs.push(o);
                }
                Err(e) => rep.fail(i, format!("setup error: {e}")),
            }
        }
        let traced_ms: f64 = tr.spans.iter().map(|s| s.dur_ns as f64 / 1e6).sum();
        let overhead = overhead_share(&tr, &rep.cell_ms);
        let sum = |f: fn(&TortureOutcome) -> u64| outs.iter().map(f).sum::<u64>() as f64;
        let attempted = sum(|o| o.attempted);
        let v = &mut rep.values;
        v.insert("oracle.attempted", attempted);
        v.insert("oracle.commits", sum(|o| o.commits));
        v.insert(
            "oracle.faults_injected",
            sum(|o| o.faults.iter().filter(|f| f.injected_at.is_some()).count() as u64),
        );
        v.insert("oracle.failovers", sum(|o| o.failovers));
        v.insert("oracle.lost_commits", sum(|o| o.lost_commits));
        v.insert("oracle.divergences", sum(|o| o.divergences.len() as u64));
        v.insert("oracle.us_per_txn", ratio(traced_ms * 1e3, attempted));
        v.insert("trace.overhead_share", overhead);
        rep.tracer = Some(tr);
    } else {
        let mut last_pass_s = measured.elapsed_s();
        while rep.passes < MIN_PASSES || measured.elapsed_s() + last_pass_s <= args.seconds {
            let pass = Stopwatch::start();
            torture_pass(schedules, reference, &first, rep);
            rep.passes += 1;
            last_pass_s = pass.elapsed_s();
        }
        end_to_end(rep);
    }
    first
}
