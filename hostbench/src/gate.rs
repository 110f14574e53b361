//! The outcome gate: what makes a cell count as failed.
//!
//! The simulated results (tpmC, recovery time, lost transactions, ...)
//! must stay byte-identical for the same seed whatever a change does to
//! host performance. For the pinned seed, `reference/<workload>.tsv`
//! holds a digest of every cell's outcome; a cell whose digest differs
//! fails. For every seed, a cell also fails on a setup error, an oracle
//! divergence, a recovery breakdown that does not sum to the recovery
//! time, or an outcome that differs between repeated runs of the cell.

use std::fmt::Write as _;

use recobench_core::ExperimentOutcome;
use recobench_oracle::TortureOutcome;

use crate::cells::Workload;

/// FNV-1a, 64 bit: a stable digest (unlike `DefaultHasher`, whose
/// algorithm may change between Rust releases).
pub fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of an experiment cell: its outcome's `Debug` text.
pub fn experiment_digest(o: &ExperimentOutcome) -> u64 {
    fnv1a64(&format!("{o:?}"))
}

/// Digest of a torture cell: its counts and divergences.
pub fn torture_digest(o: &TortureOutcome) -> u64 {
    fnv1a64(&format!(
        "attempted={} commits={} failovers={} lost_commits={} unrecoverable={} divergences={:?}",
        o.attempted, o.commits, o.failovers, o.lost_commits, o.unrecoverable, o.divergences
    ))
}

/// The recovery breakdown must sum to the recovery time within one
/// simulated tick (1 µs), and exist exactly when the recovery time does.
pub fn check_breakdown(o: &ExperimentOutcome) -> Result<(), String> {
    match (o.measures.recovery_time_secs, &o.breakdown) {
        (None, None) => Ok(()),
        (Some(rt), Some(b)) => {
            let rt_us = (rt * 1e6).round() as u64;
            if b.total_us().abs_diff(rt_us) <= 1 {
                Ok(())
            } else {
                Err(format!(
                    "breakdown sums to {} us, recovery time is {rt_us} us",
                    b.total_us()
                ))
            }
        }
        (Some(_), None) => Err("recovery time without a breakdown".into()),
        (None, Some(_)) => Err("breakdown without a recovery time".into()),
    }
}

/// The pinned seed's digests, in cell order, or `None` when the
/// workload has no reference yet.
pub fn reference(workload: Workload) -> Option<Vec<u64>> {
    let text = match workload {
        Workload::PaperCampaign => include_str!("../reference/paper_campaign.tsv"),
        Workload::MediaRecovery => include_str!("../reference/media_recovery.tsv"),
        Workload::BeyondCache => include_str!("../reference/beyond_cache.tsv"),
        Workload::TortureOracle => include_str!("../reference/torture_oracle.tsv"),
    };
    let digests: Vec<u64> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.split('\t').nth(1))
        .filter_map(|d| u64::from_str_radix(d, 16).ok())
        .collect();
    (!digests.is_empty()).then_some(digests)
}

/// Writes the reference file for `workload` from this run's digests.
///
/// # Errors
///
/// Fails if the file cannot be written.
pub fn bless(workload: Workload, labels: &[String], digests: &[u64]) -> std::io::Result<String> {
    let path = format!(
        "{}/reference/{}.tsv",
        env!("CARGO_MANIFEST_DIR"),
        workload.name()
    );
    let mut text = format!(
        "# Outcome digests of workload {} at the pinned seed (index, FNV-1a 64 of the\n\
         # outcome text, cell). Regenerate only for an intended change of simulated\n\
         # results: cargo run --release --manifest-path hostbench/Cargo.toml -- \\\n\
         #   --workload {} --seed {} --bless\n",
        workload.name(),
        workload.name(),
        crate::cells::PINNED_SEED
    );
    for (i, (label, d)) in labels.iter().zip(digests).enumerate() {
        let _ = writeln!(text, "{i}\t{d:016x}\t{label}");
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
