//! Criterion micro-benchmarks of the engine's hot paths: these measure
//! the *simulator's real execution cost* (how fast RecoBench runs), which
//! bounds how large a campaign is practical.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use recobench_engine::catalog::IndexDef;
use recobench_engine::codec::{crc32, Writer};
use recobench_engine::redo::{decode_stream, RedoOp, RedoRecord};
use recobench_engine::row::{encode_key, encode_key_into, Row, Value};
use recobench_engine::page::BlockImage;
use recobench_engine::types::{FileNo, ObjectId, RowId, Scn, TxnId};
use recobench_engine::{DbServer, DiskLayout, InstanceConfig};
use recobench_sim::SimClock;

fn sample_row() -> Row {
    Row::new(vec![
        Value::U64(42),
        Value::U64(7),
        Value::I64(-1234),
        Value::from("CUSTOMERLASTNAME"),
        Value::from("some-filler-data-some-filler-data-some-filler-data"),
    ])
}

fn bench_codecs(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    let row = sample_row();
    let encoded = row.encode();
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("row_encode", |b| b.iter(|| std::hint::black_box(row.encode())));
    g.bench_function("row_decode", |b| {
        b.iter(|| Row::decode(std::hint::black_box(encoded.clone())).unwrap())
    });
    g.bench_function("row_encode_into", |b| {
        // The hot path reuses one buffer across encodes (log buffer,
        // checkpoint writer); this measures that steady state.
        let mut w = recobench_engine::codec::Writer::new();
        b.iter(|| {
            w.truncate(0);
            row.encode_into(&mut w);
            std::hint::black_box(w.len())
        })
    });
    g.bench_function("key_encode", |b| {
        b.iter(|| encode_key(std::hint::black_box(&[Value::U64(1), Value::U64(2), Value::U64(3)])))
    });
    g.bench_function("key_encode_into", |b| {
        // Index probes reuse a scratch buffer (clear + encode + look up).
        let mut buf = Vec::with_capacity(32);
        b.iter(|| {
            buf.clear();
            encode_key_into(
                std::hint::black_box(&[Value::U64(1), Value::U64(2), Value::U64(3)]),
                &mut buf,
            );
            std::hint::black_box(buf.len())
        })
    });

    let rec = RedoRecord {
        scn: Scn(99),
        txn: Some(TxnId(7)),
        op: RedoOp::Update {
            obj: ObjectId(3),
            rid: RowId { file: FileNo(1), block: 9, slot: 4 },
            before: sample_row(),
            after: sample_row(),
        },
    };
    let rec_bytes = rec.encode();
    g.throughput(Throughput::Bytes(rec_bytes.len() as u64));
    g.bench_function("redo_record_encode", |b| b.iter(|| std::hint::black_box(rec.encode())));
    g.bench_function("redo_stream_decode_100", |b| {
        let mut seg = Vec::new();
        for _ in 0..100 {
            seg.extend_from_slice(&rec.encode());
        }
        let segs = vec![bytes_from(seg)];
        b.iter(|| decode_stream(std::hint::black_box(&segs), 640).unwrap())
    });

    let mut img = BlockImage::empty();
    for slot in 0..20 {
        img.put(slot, sample_row(), Scn(slot as u64));
    }
    let img_bytes = img.encode();
    g.throughput(Throughput::Bytes(img_bytes.len() as u64));
    g.bench_function("block_encode_20rows", |b| b.iter(|| std::hint::black_box(img.encode())));
    g.bench_function("block_encode_into_20rows", |b| {
        let mut w = Writer::new();
        b.iter(|| {
            w.truncate(0);
            img.encode_into(&mut w);
            std::hint::black_box(w.len())
        })
    });
    g.bench_function("block_decode_20rows", |b| {
        b.iter(|| BlockImage::decode(std::hint::black_box(img_bytes.clone())).unwrap())
    });
    // The block checksum every write-out and read pays, over one 8 KiB
    // block's worth of bytes.
    let page: Vec<u8> = (0..8192u32).map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8).collect();
    g.throughput(Throughput::Bytes(page.len() as u64));
    g.bench_function("crc32_8k", |b| b.iter(|| crc32(std::hint::black_box(&page))));
    g.finish();
}

fn bytes_from(v: Vec<u8>) -> bytes::Bytes {
    bytes::Bytes::from(v)
}

fn loaded_server() -> (DbServer, ObjectId) {
    let cfg = InstanceConfig::builder()
        .redo_file_bytes(4 * 1024 * 1024)
        .redo_groups(3)
        .checkpoint_timeout_secs(60)
        .archive_mode(true)
        .cache_blocks(128)
        .build();
    let mut srv = DbServer::on_fresh_disks("BENCH", SimClock::shared(), DiskLayout::four_disk(), cfg);
    srv.create_database().unwrap();
    srv.create_user("b").unwrap();
    srv.create_tablespace("B", 2, 4096).unwrap();
    let t = srv
        .create_table("KV", "b", "B", vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }])
        .unwrap();
    (srv, t)
}

fn bench_transactions(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.bench_function("insert_commit", |b| {
        let (mut srv, t) = loaded_server();
        let s = srv.connect().unwrap();
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            srv.insert(s, t, Row::new(vec![Value::U64(k), Value::from("payload")])).unwrap();
            srv.commit(s).unwrap();
        })
    });
    g.bench_function("read_by_pk", |b| {
        let (mut srv, t) = loaded_server();
        let s = srv.connect().unwrap();
        for k in 0..500u64 {
            srv.insert(s, t, Row::new(vec![Value::U64(k), Value::from("payload")])).unwrap();
            srv.commit(s).unwrap();
        }
        srv.disconnect(s);
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 17) % 500;
            let rid = srv.lookup(t, 0, &[Value::U64(k)]).unwrap()[0];
            std::hint::black_box(srv.get_row(t, rid).unwrap());
        })
    });
    g.bench_function("lock_wait_grant_cycle", |b| {
        // One full contention round trip: holder locks, waiter queues,
        // holder commits, grant hands over, waiter retries and commits.
        let (mut srv, t) = loaded_server();
        let s1 = srv.connect().unwrap();
        let s2 = srv.connect().unwrap();
        srv.insert(s1, t, Row::new(vec![Value::U64(0), Value::from("payload")])).unwrap();
        srv.commit(s1).unwrap();
        let rid = srv.lookup(t, 0, &[Value::U64(0)]).unwrap()[0];
        b.iter(|| {
            srv.update(s1, t, rid, Row::new(vec![Value::U64(0), Value::from("p1")])).unwrap();
            let wait =
                srv.update(s2, t, rid, Row::new(vec![Value::U64(0), Value::from("p2")])).unwrap_err();
            std::hint::black_box(wait);
            srv.commit(s1).unwrap();
            std::hint::black_box(srv.take_lock_grants());
            srv.update(s2, t, rid, Row::new(vec![Value::U64(0), Value::from("p2")])).unwrap();
            srv.commit(s2).unwrap();
        })
    });
    g.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let mut g = c.benchmark_group("recovery");
    g.sample_size(10);
    g.bench_function("crash_recovery_2000_txns", |b| {
        b.iter_batched(
            || {
                let (mut srv, t) = loaded_server();
                let s = srv.connect().unwrap();
                for k in 0..2000u64 {
                    srv.insert(s, t, Row::new(vec![Value::U64(k), Value::from("payload")]))
                        .unwrap();
                    srv.commit(s).unwrap();
                }
                srv.shutdown_abort().unwrap();
                srv
            },
            |mut srv| {
                srv.startup().unwrap();
                srv
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("cold_backup", |b| {
        b.iter_batched(
            || {
                let (mut srv, t) = loaded_server();
                let s = srv.connect().unwrap();
                for k in 0..500u64 {
                    srv.insert(s, t, Row::new(vec![Value::U64(k), Value::from("payload")]))
                        .unwrap();
                    srv.commit(s).unwrap();
                }
                srv
            },
            |mut srv| {
                srv.take_cold_backup().unwrap();
                srv
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_codecs, bench_transactions, bench_recovery);
criterion_main!(benches);
