//! Metric names and units, and the JSON the benchmark prints and writes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p80", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from the traced run: `(name, unit)`. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("core.build_template_ms", "ms"),
    ("core.templates_built", "count"),
    ("engine.from_snapshot_us", "us"),
    ("tpcc.step_us_p50", "us"),
    ("tpcc.step_us_p99", "us"),
    ("tpcc.steps", "count"),
    ("tpcc.step_share", "ratio"),
    ("tpcc.errors", "count"),
    ("tpcc.deadlock_aborts", "count"),
    ("tpcc.check_consistency_ms", "ms"),
    ("tpcc.audit_lost_orders_ms", "ms"),
    ("tpcc.quiesce_ms", "ms"),
    ("engine.commits", "count"),
    ("engine.redo_records", "count"),
    ("engine.redo_bytes", "bytes"),
    ("engine.log_flushes", "count"),
    ("engine.log_switches", "count"),
    ("engine.full_checkpoints", "count"),
    ("engine.blocks_written", "count"),
    ("engine.archives_created", "count"),
    ("engine.lock_waits", "count"),
    ("engine.deadlocks", "count"),
    ("engine.checksum_mismatches", "count"),
    ("engine.blocks_written_per_txn", "blocks/txn"),
    ("engine.redo_bytes_per_txn", "bytes/txn"),
    ("vfs.reads", "count"),
    ("vfs.writes", "count"),
    ("vfs.bytes_read", "bytes"),
    ("vfs.bytes_written", "bytes"),
    ("vfs.reads_per_txn", "reads/txn"),
    ("faults.inject_ms", "ms"),
    ("faults.recover_ms_p50", "ms"),
    ("faults.recover_share", "ratio"),
    ("engine.recovery_records_applied", "count"),
    ("engine.recovery_records_skipped", "count"),
    ("engine.recovery_archives_processed", "count"),
    ("engine.replay_records_per_s", "1/s"),
    ("engine.codec.crc32_ns_per_8k", "ns"),
    ("engine.page.block_encode_into_ns", "ns"),
    ("engine.page.block_decode_ns", "ns"),
    ("engine.redo.record_encode_into_ns", "ns"),
    ("engine.row.key_encode_into_ns", "ns"),
    ("engine.txn.lock_wait_grant_cycle_ns", "ns"),
    ("engine.txn.deadlock_detect_refuse_ns", "ns"),
    ("oracle.attempted", "count"),
    ("oracle.commits", "count"),
    ("oracle.faults_injected", "count"),
    ("oracle.failovers", "count"),
    ("oracle.lost_commits", "count"),
    ("oracle.divergences", "count"),
    ("oracle.us_per_txn", "us"),
    ("oracle.observe_ns", "ns"),
    ("oracle.dml_changes", "count"),
    ("oracle.from_server_ms", "ms"),
    ("oracle.diff_states_ms", "ms"),
    ("oracle.rows_diffed", "count"),
    ("engine.verify_integrity_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// `{"name": {"value": v, "unit": "u"}, ...}` over `table`, in table
/// order; a metric missing from `values` reads 0.
pub fn metrics_json(table: &[(&'static str, &'static str)], values: &Values) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in table.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = values.get(name).copied().unwrap_or(0.0);
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(v)
        );
    }
    out.push('}');
    out
}

/// A finite JSON number with every digit `f64` holds (non-finite and
/// negative zero read 0).
pub fn number(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn strings_escape_quotes_and_controls() {
        assert_eq!(string("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
    }
}
