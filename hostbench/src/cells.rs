//! The benchmark's workloads: fixed cell lists, generated from the seed.
//!
//! Each workload stresses a different layer (see `hostbench/RECORD.json`
//! for why each was chosen and which per-layer metric should move on it).
//! Cells run one after another on one thread: a researcher running a
//! campaign waits for each result, so the load is a closed loop with one
//! client. Inside a cell the TPC-C terminals are the engine's own closed
//! loop in simulated time.

use recobench_core::{Experiment, RecoveryConfig};
use recobench_faults::{FaultSchedule, FaultType, TortureFaultKind};
use recobench_sim::{SimDuration, SimRng};
use recobench_tpcc::{DriverConfig, TpccScale};

/// The seed whose cell outcomes are pinned in `reference/`.
pub const PINNED_SEED: u64 = 42;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 51-cell mini campaign's shape, with shorter cells.
    PaperCampaign,
    /// Media, PITR and crash recovery at two trigger points.
    MediaRecovery,
    /// Fault-free cells on a database larger than the buffer cache.
    BeyondCache,
    /// Randomized multi-fault schedules under the differential oracle.
    TortureOracle,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperCampaign,
        Workload::MediaRecovery,
        Workload::BeyondCache,
        Workload::TortureOracle,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCampaign => "paper_campaign",
            Workload::MediaRecovery => "media_recovery",
            Workload::BeyondCache => "beyond_cache",
            Workload::TortureOracle => "torture_oracle",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One experiment cell, spelled out in public parameters so the traced
/// run can drive it through the same calls `Experiment::run_with_template_in`
/// makes. Every cell runs in ARCHIVELOG mode on the default storage
/// (8 datafiles x 768 blocks, four-disk layout) with no stand-by.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Human-readable cell name, unique within the workload.
    pub label: String,
    /// Recovery configuration under test.
    pub config: RecoveryConfig,
    /// TPC-C scale.
    pub scale: TpccScale,
    /// Measured-phase length in simulated seconds.
    pub duration_secs: u64,
    /// Fault type and trigger offset in simulated seconds, if any.
    pub fault: Option<(FaultType, u64)>,
    /// Experiment seed.
    pub seed: u64,
    /// Terminal driver.
    pub driver: DriverConfig,
}

impl CellSpec {
    /// The cell as the library's experiment.
    pub fn experiment(&self) -> Experiment {
        let mut b = Experiment::builder(self.config.clone())
            .archive_logs(true)
            .duration_secs(self.duration_secs)
            .scale(self.scale)
            .driver(self.driver)
            .seed(self.seed);
        if let Some((fault, at)) = self.fault {
            b = b.fault(fault, at);
        }
        b.build()
    }
}

/// A workload's cells.
pub enum Cells {
    /// Experiment cells (every workload but `torture_oracle`).
    Experiments(Vec<CellSpec>),
    /// Torture schedules, each run by `TortureRunner::default()`.
    Schedules(Vec<FaultSchedule>),
}

impl Cells {
    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Cells::Experiments(v) => v.len(),
            Cells::Schedules(v) => v.len(),
        }
    }

    /// The cells' labels, in run order.
    pub fn labels(&self) -> Vec<String> {
        match self {
            Cells::Experiments(v) => v.iter().map(|c| c.label.clone()).collect(),
            Cells::Schedules(v) => (0..v.len()).map(|i| format!("schedule/{i}")).collect(),
        }
    }
}

/// `workload`'s cells for `seed`.
///
/// Every experiment cell gets its own seed, `seed * 1000 + index`, and so
/// its own TPC-C data and transaction stream (and its own template). With
/// one seed shared by all cells, a whole run's host cost would move with
/// that one stream; with one seed per cell it averages over 50 or more.
pub fn cells(workload: Workload, seed: u64) -> Cells {
    let configs = RecoveryConfig::archive_subset();
    let mut v: Vec<CellSpec> = Vec::new();
    let mut push = |label: String, config: &RecoveryConfig, duration_secs, fault| {
        let index = v.len() as u64;
        v.push(CellSpec {
            label,
            config: config.clone(),
            scale: TpccScale::tiny(),
            duration_secs,
            fault,
            seed: seed.wrapping_mul(1_000).wrapping_add(index),
            driver: DriverConfig::default(),
        });
    };
    match workload {
        Workload::PaperCampaign => {
            // campaign_wallclock's mini campaign, with every cell cut to
            // 160 s so that a run fits three passes: every fault x every
            // archive configuration at 100 s (60 s tail), two fault-free
            // baselines, one contended eight-terminal cell.
            for f in FaultType::all() {
                for c in &configs {
                    push(
                        format!("{f:?}/{}/t100", c.name),
                        c,
                        PAPER_SECS,
                        Some((f, 100)),
                    );
                }
            }
            for c in configs.iter().take(2) {
                push(format!("baseline/{}", c.name), c, PAPER_SECS, None);
            }
            push(
                format!("contended8/{}", configs[0].name),
                &configs[0],
                2,
                None,
            );
            if let Some(contended) = v.last_mut() {
                contended.driver = DriverConfig {
                    terminals: 8,
                    mean_think: SimDuration::from_micros(200),
                    mean_keying: SimDuration::from_micros(50),
                    retry_interval: SimDuration::from_millis(100),
                };
            }
        }
        Workload::MediaRecovery => {
            let faults = [
                FaultType::DeleteDatafile,
                FaultType::DeleteTablespace,
                FaultType::DeleteUsersObject,
                FaultType::ShutdownAbort,
            ];
            // Each fault type meets every configuration at two of 16
            // triggers spread evenly over 50..=100 s (rotated per fault
            // type), so cell costs form a continuum: with two trigger
            // values the median cell would sit on the gap between two
            // clusters and jump across it.
            for (fi, f) in faults.into_iter().enumerate() {
                for (k, c) in configs.iter().enumerate() {
                    for r in 0..2 {
                        let at = 50 + ((4 * fi + 2 * k + r) % 16) as u64 * 50 / 15;
                        push(format!("{f:?}/{}/t{at}", c.name), c, at + 30, Some((f, at)));
                    }
                }
            }
        }
        Workload::BeyondCache => {
            // Six warehouses load more data blocks than the 384-block
            // buffer cache holds, so reads reach the simulated disks.
            for k in 0..BEYOND_ROUNDS {
                for c in &configs {
                    push(format!("{}/round{k}", c.name), c, BEYOND_SECS, None);
                }
            }
            let scale = TpccScale {
                warehouses: 6,
                ..TpccScale::mini()
            };
            for cell in &mut v {
                cell.scale = scale;
            }
        }
        Workload::TortureOracle => {
            return Cells::Schedules(
                (0..TORTURE_SCHEDULES)
                    .map(|i| {
                        FaultSchedule::random_from(
                            &mut SimRng::seed_from(seed + i),
                            &TortureFaultKind::all_extended(),
                            1 + (i % 4) as usize,
                            200,
                            30,
                        )
                    })
                    .collect(),
            )
        }
    }
    Cells::Experiments(v)
}

/// Simulated seconds per `paper_campaign` cell (the mini campaign's are
/// 380 s; see `RECORD.json` for why they are shorter here).
const PAPER_SECS: u64 = 160;

/// Rounds over the archive configurations in `beyond_cache` (7 x 8 = 56
/// cells, so the 80th percentile has 11 cells beyond it).
const BEYOND_ROUNDS: u64 = 7;

/// Simulated seconds per `beyond_cache` cell.
const BEYOND_SECS: u64 = 40;

/// Schedules in `torture_oracle`, drawn as the torture sweep draws them.
const TORTURE_SCHEDULES: u64 = 50;
