//! Micro-timings of the engine's public codec, CRC and lock functions:
//! the per-call costs behind the write path (block and redo encode, key
//! encode, lock hand-off) and the read path (block decode with its CRC
//! check). Each is the median of several timed batches.

use recobench_engine::codec::{crc32, Writer};
use recobench_engine::page::BlockImage;
use recobench_engine::redo::{RedoOp, RedoRecord};
use recobench_engine::row::{encode_key_into, Row, Value};
use recobench_engine::txn::LockTable;
use recobench_engine::types::{FileNo, ObjectId, RowId, Scn, TxnId};
use recobench_engine::LockOutcome;
use recobench_sim::SimTime;

use crate::clock::Stopwatch;
use crate::stats::median;

/// `(metric name, ns per call)` for every micro-timing.
pub fn timings() -> Vec<(&'static str, f64)> {
    let row = Row::new(vec![
        Value::U64(42),
        Value::U64(7),
        Value::I64(-1234),
        Value::from("CUSTOMERLASTNAME"),
        Value::from("some-filler-data-some-filler-data-some-filler-data"),
    ]);
    let rec = RedoRecord {
        scn: Scn(99),
        txn: Some(TxnId(7)),
        op: RedoOp::Update {
            obj: ObjectId(3),
            rid: RowId {
                file: FileNo(1),
                block: 9,
                slot: 4,
            },
            before: row.clone(),
            after: row.clone(),
        },
    };
    let mut img = BlockImage::empty();
    for slot in 0..20 {
        img.put(slot, row.clone(), Scn(u64::from(slot)));
    }
    let encoded = img.encode();
    let page: Vec<u8> = (0..8192u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let key_vals = [Value::U64(1), Value::U64(2), Value::U64(3)];
    let mut w = Writer::new();
    let mut key_buf: Vec<u8> = Vec::with_capacity(32);
    let mut lt = LockTable::new();
    let (a, b) = (TxnId(1), TxnId(2));
    let obj = ObjectId(1);
    let r0 = RowId {
        file: FileNo(1),
        block: 1,
        slot: 0,
    };
    let r1 = RowId {
        file: FileNo(1),
        block: 1,
        slot: 1,
    };

    vec![
        (
            "engine.codec.crc32_ns_per_8k",
            ns_per_call(2_000, || crc32(std::hint::black_box(&page))),
        ),
        (
            "engine.page.block_encode_into_ns",
            ns_per_call(2_000, || {
                w.truncate(0);
                img.encode_into(&mut w);
                w.len()
            }),
        ),
        (
            "engine.page.block_decode_ns",
            ns_per_call(2_000, || {
                BlockImage::decode(std::hint::black_box(&encoded).clone()).map(|b| b.row_count())
            }),
        ),
        (
            "engine.redo.record_encode_into_ns",
            ns_per_call(100_000, || {
                w.truncate(0);
                rec.encode_into(&mut w);
                w.len()
            }),
        ),
        (
            "engine.row.key_encode_into_ns",
            ns_per_call(200_000, || {
                key_buf.clear();
                encode_key_into(&key_vals, &mut key_buf);
                key_buf.len()
            }),
        ),
        (
            // Hold, contended wait, release granting the waiter, final
            // release: the lock manager's full hand-off path.
            "engine.txn.lock_wait_grant_cycle_ns",
            ns_per_call(100_000, || {
                lt.lock_row(a, obj, r0, SimTime::ZERO);
                lt.lock_row(b, obj, r0, SimTime::from_micros(5));
                let grants = lt.release_all(a, &[(obj, r0)], SimTime::from_micros(9));
                lt.release_all(b, &[(obj, r0)], SimTime::from_micros(12));
                grants.len()
            }),
        ),
        (
            // Two crossed holders: the closing request walks the
            // waits-for chain and is refused as the victim.
            "engine.txn.deadlock_detect_refuse_ns",
            ns_per_call(100_000, || {
                lt.lock_row(a, obj, r0, SimTime::ZERO);
                lt.lock_row(b, obj, r1, SimTime::ZERO);
                lt.lock_row(a, obj, r1, SimTime::from_micros(3));
                let refused = lt.lock_row(b, obj, r0, SimTime::from_micros(5));
                lt.release_all(b, &[(obj, r1)], SimTime::from_micros(8));
                lt.release_all(a, &[(obj, r0), (obj, r1)], SimTime::from_micros(9));
                matches!(refused, LockOutcome::Deadlock { .. })
            }),
        ),
    ]
}

/// Batches timed per micro-timing; the median batch is reported.
const BATCHES: usize = 5;

/// Median ns per call of `f` over [`BATCHES`] batches of `iters` calls,
/// after one untimed warm-up batch of a tenth the size.
fn ns_per_call<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..iters / 10 {
        std::hint::black_box(f());
    }
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let sw = Stopwatch::start();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            sw.elapsed_ns() as f64 / f64::from(iters)
        })
        .collect();
    median(&per_batch)
}
