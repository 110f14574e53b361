//! The oracle primitives, timed on `paper_campaign`'s fault-free cells:
//! a benchmark-owned DML tap feeding a `RefModel`, then `diff_states` and
//! the engine's own `verify_integrity`. Fault-free cells need no model
//! truncation, so the diff must come back empty; the probe runs after the
//! mirror pass so the tap does not inflate the mirror's step timings.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use recobench_engine::DbResult;
use recobench_oracle::{diff_states, RefModel};
use recobench_sim::{SimDuration, SimRng};
use recobench_tpcc::TpccDriver;

use crate::cells::CellSpec;
use crate::clock::Stopwatch;
use crate::mirror::MirrorTemplate;

/// Host cost of the oracle primitives over the probed cells.
#[derive(Debug, Default)]
pub struct OracleProbe {
    /// ns spent in `RefModel::observe`, over every DML change.
    pub observe_ns: u64,
    /// DML changes the tap delivered.
    pub dml_changes: u64,
    /// ms per `RefModel::from_server`.
    pub from_server_ms: Vec<f64>,
    /// ms per `diff_states`.
    pub diff_states_ms: Vec<f64>,
    /// ms per `DbServer::verify_integrity`.
    pub verify_integrity_ms: Vec<f64>,
    /// Model rows compared by `diff_states`.
    pub rows_diffed: u64,
}

impl OracleProbe {
    /// Runs fault-free cell `spec` from `tpl` under the tap and diffs the
    /// result. Returns a failure reason if the oracle disagrees with the
    /// engine.
    ///
    /// # Errors
    ///
    /// Fails if the engine cannot be inspected.
    pub fn run(&mut self, spec: &CellSpec, tpl: &MirrorTemplate) -> DbResult<Option<String>> {
        let mut srv = tpl.boot();
        let sw = Stopwatch::start();
        let model = RefModel::from_server(&srv)?;
        self.from_server_ms.push(sw.elapsed_s() * 1e3);
        let model = Arc::new(Mutex::new(model));
        let tap_ns = Arc::new(AtomicU64::new(0));
        let changes = Arc::new(AtomicU64::new(0));
        {
            let (model, tap_ns, changes) = (
                Arc::clone(&model),
                Arc::clone(&tap_ns),
                Arc::clone(&changes),
            );
            srv.set_dml_tap(move |change| {
                let sw = Stopwatch::start();
                model.lock().expect("model lock").observe(change);
                tap_ns.fetch_add(sw.elapsed_ns(), Ordering::Relaxed);
                changes.fetch_add(1, Ordering::Relaxed);
            });
        }
        let mut rng = SimRng::seed_from(spec.seed);
        let _load_rng = rng.fork(1);
        let t0 = srv.clock().now();
        let end = t0 + SimDuration::from_secs(spec.duration_secs);
        let mut driver = TpccDriver::new(tpl.schema(), spec.driver, rng.fork(2), t0);
        while driver.next_ready() < end {
            driver.step(&mut srv);
        }
        driver.quiesce(&mut srv);
        srv.clear_dml_tap();
        self.observe_ns += tap_ns.load(Ordering::Relaxed);
        self.dml_changes += changes.load(Ordering::Relaxed);

        let model = model.lock().expect("model lock");
        let sw = Stopwatch::start();
        let divergences = diff_states(&srv, &model)?;
        self.diff_states_ms.push(sw.elapsed_s() * 1e3);
        self.rows_diffed += model.state().len() as u64;
        let sw = Stopwatch::start();
        let integrity = srv.verify_integrity()?;
        self.verify_integrity_ms.push(sw.elapsed_s() * 1e3);
        Ok(if let Some(d) = divergences.first() {
            Some(format!(
                "oracle probe: {} divergences, first {d:?}",
                divergences.len()
            ))
        } else if !integrity.is_clean() {
            Some(format!(
                "oracle probe: integrity report not clean: {integrity:?}"
            ))
        } else {
            None
        })
    }
}
