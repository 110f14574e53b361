//! The traced run's mirror of one experiment cell.
//!
//! `Experiment::run_with_template_in` is one call, so it cannot say where
//! its host time goes. The mirror drives the same cell through the same
//! public calls in the same order (boot from a setup snapshot, step the
//! TPC-C driver, inject and recover the fault, quiesce, audit, check
//! consistency) and records a span around each. It covers the cells this
//! benchmark runs: no stand-by, no second fault, no event capture. The
//! traced run compares every mirrored outcome with the untraced outcome of
//! the same cell, so the per-layer numbers describe the program the
//! end-to-end numbers measure.

use std::sync::{Arc, Mutex};

use recobench_core::{apply_margin_cutoff, ExperimentOutcome, Measures, RecoveryBreakdown};
use recobench_engine::stats::EngineStats;
use recobench_engine::{
    DbResult, DbServer, DbSnapshot, DiskLayout, EngineEvent, FailoverPolicy, RecoveryPhase,
    ReplicaTopology, Scn,
};
use recobench_faults::{FaultInjector, FaultPlan};
use recobench_sim::{SimClock, SimDuration, SimRng, SimTime};
use recobench_tpcc::{check_consistency, create_schema, load_database, TpccDriver, TpccSchema};

use crate::cells::CellSpec;
use crate::clock::Stopwatch;

/// A setup snapshot for the mirror, built by the same public calls as
/// `Experiment::build_template` (whose snapshot is private to `core`).
pub struct MirrorTemplate {
    snapshot: DbSnapshot,
    schema: TpccSchema,
}

impl MirrorTemplate {
    /// Creates the database, loads TPC-C, takes the cold backup and
    /// snapshots the result, exactly as `Experiment::build_template` does.
    ///
    /// # Errors
    ///
    /// Fails on setup problems (storage exhaustion, misconfiguration).
    pub fn build(spec: &CellSpec) -> DbResult<MirrorTemplate> {
        let clock = SimClock::shared();
        let mut primary = DbServer::on_fresh_disks(
            "PRIMARY",
            clock,
            DiskLayout::four_disk(),
            spec.config.to_instance_config(true),
        );
        primary.create_database()?;
        let mut rng = SimRng::seed_from(spec.seed);
        let schema = create_schema(&mut primary, spec.scale, DATAFILES, BLOCKS_PER_FILE)?;
        load_database(&mut primary, &schema, &mut rng.fork(1))?;
        primary.take_cold_backup()?;
        Ok(MirrorTemplate {
            snapshot: primary.snapshot(),
            schema,
        })
    }

    /// Boots a server from the snapshot on a fresh clock.
    pub fn boot(&self) -> DbServer {
        DbServer::from_snapshot(SimClock::shared(), &self.snapshot)
    }

    /// The TPC-C schema the snapshot holds.
    pub fn schema(&self) -> TpccSchema {
        self.schema
    }
}

/// `Experiment`'s default TPC-C storage, which every cell uses.
const DATAFILES: u32 = 8;
const BLOCKS_PER_FILE: u64 = 768;

/// One recorded span: a layer call inside one cell. Every span's parent
/// is its cell's `cell` span; times are ns since the trace started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the cell in the workload.
    pub cell: usize,
    /// Layer call, e.g. `faults.recover`.
    pub name: &'static str,
    /// Start, ns since the trace started.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// Exact work counters of one cell. Deterministic: the same cell must
/// give the same counters on every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Engine counters over the cell (`EngineStats::since`).
    pub engine: EngineStats,
    /// Simulated disk I/O over the cell, summed over disks.
    pub vfs: VfsCounts,
    /// `TpccDriver::step` calls.
    pub steps: u64,
    /// Transactions the driver attempted.
    pub attempted: u64,
    /// Errored attempts.
    pub errors: u64,
    /// Deadlock victims the driver replayed.
    pub deadlock_aborts: u64,
}

/// Simulated disk I/O, summed over a server's disks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsCounts {
    /// Read requests.
    pub reads: u64,
    /// Write requests.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

impl VfsCounts {
    fn of(server: &DbServer) -> VfsCounts {
        let fs = server.fs().lock();
        let mut sum = VfsCounts::default();
        for disk in fs.disk_ids() {
            if let Ok(s) = fs.disk_stats(disk) {
                sum.reads += s.reads;
                sum.writes += s.writes;
                sum.bytes_read += s.bytes_read;
                sum.bytes_written += s.bytes_written;
            }
        }
        sum
    }

    fn since(&self, earlier: &VfsCounts) -> VfsCounts {
        VfsCounts {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
        }
    }
}

/// Spans and step timings, kept in memory for the whole traced run.
pub struct Tracer {
    epoch: Stopwatch,
    /// Every recorded span, in record order.
    pub spans: Vec<Span>,
    /// Host ns of every `TpccDriver::step` call, over all cells.
    pub step_ns: Vec<u64>,
}

impl Tracer {
    /// An empty trace starting now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Stopwatch::start(),
            spans: Vec::new(),
            step_ns: Vec::new(),
        }
    }

    /// Records span `name` of `cell`, started at `started`, ending now.
    pub fn close(&mut self, cell: usize, name: &'static str, started: Stopwatch) {
        self.spans.push(Span {
            cell,
            name,
            start_ns: self.epoch.ns_until(started),
            dur_ns: started.elapsed_ns(),
        });
    }
}

/// Runs `spec` from `tpl`, recording spans as cell `cell`. Returns the
/// outcome `Experiment::run_with_template_in` would return for the same
/// cell, and the cell's work counters.
///
/// # Errors
///
/// As `Experiment::run`: only setup problems are errors.
pub fn run_cell(
    spec: &CellSpec,
    tpl: &MirrorTemplate,
    cell: usize,
    tr: &mut Tracer,
) -> DbResult<(ExperimentOutcome, Counters)> {
    let cell_sw = Stopwatch::start();
    let sw = Stopwatch::start();
    let mut primary = tpl.boot();
    tr.close(cell, "engine.from_snapshot", sw);
    let clock = primary.clock().clone();
    let spans: Arc<Mutex<Vec<(SimTime, RecoveryPhase, SimTime)>>> = Arc::default();
    {
        let spans = Arc::clone(&spans);
        primary.events_mut().subscribe(move |at, ev| {
            if let EngineEvent::PhaseSpan { phase, started_at } = ev {
                spans
                    .lock()
                    .expect("phase-span log lock")
                    .push((at, *phase, *started_at));
            }
        });
    }
    let mut rng = SimRng::seed_from(spec.seed);
    let _load_rng = rng.fork(1);
    let schema = tpl.schema;
    let t0 = clock.now();
    let duration = SimDuration::from_secs(spec.duration_secs);
    let end = t0 + duration;
    let mut driver = TpccDriver::new(schema, spec.driver, rng.fork(2), t0);
    let stats0 = primary.stats();
    let vfs0 = VfsCounts::of(&primary);
    let steps0 = tr.step_ns.len();

    let injector = spec
        .fault
        .map(|(f, at)| FaultInjector::new(FaultPlan::new(f, at)));
    let mut fault_time: Option<SimTime> = None;
    let mut recovery_ready: Option<SimTime> = None;
    let mut records_applied = 0u64;
    let mut archives_processed = 0u64;
    let mut unrecoverable = false;
    let mut injected = false;
    let mut scn_trail: Vec<(SimTime, Scn)> = Vec::new();

    loop {
        if clock.now() >= end {
            break;
        }
        if let Some(inj) = injector.as_ref().filter(|_| !injected) {
            let tt = inj.trigger_time(t0);
            if tt <= driver.next_ready() && tt <= end {
                clock.advance_to(tt);
                let sw = Stopwatch::start();
                let mut record = inj.inject(&mut primary)?;
                tr.close(cell, "faults.inject", sw);
                fault_time = Some(record.injected_at);
                driver.record_outage(record.injected_at);
                apply_margin_cutoff(&mut record, &scn_trail, inj.plan().pitr_margin);
                injected = true;
                let sw = Stopwatch::start();
                let recovered = inj.recover(&mut primary, &record);
                tr.close(cell, "faults.recover", sw);
                match recovered {
                    Ok(out) => {
                        recovery_ready = Some(out.recovery_finished_at);
                        records_applied = out.records_applied;
                        archives_processed = out.archives_processed;
                    }
                    Err(_) => unrecoverable = true,
                }
                continue;
            }
        }
        if driver.next_ready() >= end {
            clock.advance_to(end);
            break;
        }
        let sw = Stopwatch::start();
        driver.step(&mut primary);
        tr.step_ns.push(sw.elapsed_ns());
        if !injected {
            match scn_trail.last() {
                Some((_, last)) if *last == primary.current_scn() => {}
                _ => scn_trail.push((clock.now(), primary.current_scn())),
            }
        }
    }

    let sw = Stopwatch::start();
    driver.quiesce(&mut primary);
    tr.close(cell, "tpcc.quiesce", sw);
    let warm_up = SimDuration::from_secs(60).min(duration / 10);
    let perf_end = fault_time.unwrap_or(end).min(end);
    let tpmc = driver.tpmc(t0 + warm_up, perf_end);
    let restored_at = recovery_ready.and_then(|ready| driver.first_success_after(ready));
    let (recovery_time_secs, recovered_within_run) = match (fault_time, recovery_ready) {
        (Some(ft), Some(_)) => match restored_at {
            Some(restored) => (Some(restored.saturating_since(ft).as_secs_f64()), true),
            None => (None, false),
        },
        (Some(_), None) => (None, false),
        (None, _) => (None, true),
    };
    let breakdown = match (fault_time, recovery_ready, restored_at) {
        (Some(ft), Some(ready), Some(restored)) => {
            let mut b = RecoveryBreakdown::default();
            for (span_end, phase, span_start) in spans.lock().expect("phase-span log lock").iter() {
                let from = (*span_start).max(ft);
                let to = (*span_end).min(ready);
                if to <= from {
                    continue;
                }
                let us = to.saturating_since(from).as_micros();
                match phase {
                    RecoveryPhase::Detection => b.detection_us += us,
                    RecoveryPhase::InstanceStartup => b.instance_startup_us += us,
                    RecoveryPhase::MediaRestore => b.media_restore_us += us,
                    RecoveryPhase::RedoScan => b.redo_scan_us += us,
                    RecoveryPhase::RedoApply => b.redo_apply_us += us,
                    RecoveryPhase::TxnRollback => b.txn_rollback_us += us,
                    RecoveryPhase::StandbyActivation => b.standby_activation_us += us,
                }
            }
            b.other_us = ready
                .saturating_since(ft)
                .as_micros()
                .saturating_sub(b.total_us());
            b.service_resume_us = restored.saturating_since(ready).as_micros();
            Some(b)
        }
        _ => None,
    };
    let timeline = driver.availability_timeline(t0, end);

    let (lost, violations) = if primary.is_open() {
        let sw = Stopwatch::start();
        let lost = driver.audit_lost_orders(&primary).unwrap_or(0);
        tr.close(cell, "tpcc.audit_lost_orders", sw);
        let sw = Stopwatch::start();
        let violations = check_consistency(&primary, &schema)
            .map(|r| r.violation_count())
            .unwrap_or(u64::MAX);
        tr.close(cell, "tpcc.check_consistency", sw);
        (lost, violations)
    } else {
        (0, 0)
    };

    let window = primary.stats().since(&stats0);
    let measures = Measures {
        tpmc,
        recovery_time_secs,
        recovered_within_run,
        lost_transactions: lost,
        integrity_violations: violations,
        checkpoints: window.log_switches,
        log_switches: window.log_switches,
        redo_mb: window.redo_bytes as f64 / (1024.0 * 1024.0),
        client_errors: driver.error_count(),
        total_commits: window.commits,
    };
    let counters = Counters {
        engine: window,
        vfs: VfsCounts::of(&primary).since(&vfs0),
        steps: (tr.step_ns.len() - steps0) as u64,
        attempted: driver.attempted(),
        errors: driver.error_count(),
        deadlock_aborts: driver.deadlock_aborts(),
    };
    let outcome = ExperimentOutcome {
        config_name: spec.config.name.clone(),
        archive: true,
        standby: false,
        topology: ReplicaTopology::none().name().to_string(),
        policy: FailoverPolicy::Manual.name().to_string(),
        failovers: 0,
        fault: spec.fault.map(|(f, _)| f),
        trigger_secs: spec.fault.map(|(_, at)| at),
        terminals: spec.driver.terminals,
        lock_waits: window.lock_waits,
        deadlocks: window.deadlocks,
        measures,
        breakdown,
        timeline,
        events_jsonl: None,
        recovery_records_applied: records_applied,
        recovery_archives: archives_processed,
        unrecoverable,
    };
    tr.close(cell, "cell", cell_sw);
    Ok((outcome, counters))
}
