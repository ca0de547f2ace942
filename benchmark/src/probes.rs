//! In-process probes: each times one crate's public functions on the
//! workload's own statements and writesets, with the deployment stopped and
//! the machine otherwise idle. They are the "what one commit should cost"
//! column of the budget; the gap to the end-to-end median is what the
//! layers do not explain.

use crate::stats::{median_f64, quantile};
use crate::workload::{
    Generator, Rng, Txn, TxnKind, Workload, HOT_IDS, INITIAL_BALANCE, ROWS, ROWS_PER_GROUP, SCHEMA,
};
use sirep_common::wire::Wire;
use sirep_common::{AbortReason, DbError, GlobalTid, ReplicaId, XactId};
use sirep_core::{Cluster, ClusterConfig, Connection, ReplMsg, WsList, WsMsg};
use sirep_driver::remote::{ClientReq, ClientResp};
use sirep_gcs::{Delivery, Member, Sequencer, TcpGroup};
use sirep_sql::{execute, execute_sql, parse, Statement};
use sirep_storage::{Database, Key, Value, WriteSet, WsOp};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every nanosecond-scale probe: five batches of 4 000 iterations, 20 000
/// in all, the median batch reported.
const BATCHES: usize = 5;
const ITERS_PER_BATCH: usize = 4_000;
/// Statements or reads executed inside one probe transaction.
const BLOCK: usize = 50;
/// The microsecond-scale probes (a whole in-process commit, a sequencer
/// round trip) run fewer iterations so a traced run stays short; they
/// report a median over all of them.
const SLOW_ITERS: usize = 2_500;
const PIPELINED_MSGS: usize = 20_000;
/// Live certification entries the certify probe validates against.
const CERT_WINDOW: usize = 1_024;

#[derive(Debug, Default, Clone)]
pub struct ProbeResults {
    pub sql_parse_ns: f64,
    pub sql_exec_update_ns: f64,
    pub sql_exec_select_ns: f64,
    pub storage_read_ns: f64,
    pub storage_update_commit_ns: f64,
    pub storage_commit_ns: f64,
    pub storage_ws_extract_ns: f64,
    pub storage_apply_ws_ns: f64,
    pub core_certify_ns: f64,
    pub core_commit_inproc_p50_us: f64,
    pub gcs_seq_rtt_p50_us: f64,
    pub gcs_seq_msgs_per_s: f64,
    pub wire_ws_encode_ns: f64,
    pub wire_ws_decode_ns: f64,
    pub wire_ws_bytes: f64,
    pub wire_exec_roundtrip_ns: f64,
}

type Probe<T> = Result<T, String>;

fn err(what: &'static str) -> impl Fn(DbError) -> String {
    move |e| format!("probe {what}: {e}")
}

/// Nanoseconds per operation. `batch` performs `ITERS_PER_BATCH` operations
/// and returns the time spent in the timed part; the median batch counts.
fn per_op_ns(mut batch: impl FnMut() -> Probe<Duration>) -> Probe<f64> {
    let mut per_batch = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        per_batch.push(batch()?.as_nanos() as f64 / ITERS_PER_BATCH as f64);
    }
    Ok(median_f64(&per_batch))
}

fn account_row(id: i64, balance: i64) -> Vec<Value> {
    vec![Value::Int(id), Value::Int(id / ROWS_PER_GROUP as i64), Value::Int(balance)]
}

fn load_accounts(db: &Database) -> Result<(), DbError> {
    let txn = db.begin()?;
    for id in 0..ROWS as i64 {
        txn.insert("accounts", account_row(id, INITIAL_BALANCE))?;
    }
    txn.commit().map(|_| ())
}

/// The benchmark's table, loaded, in a bare storage engine.
fn loaded_database() -> Probe<Database> {
    let db = Database::in_memory();
    let txn = db.begin().map_err(err("begin"))?;
    for ddl in SCHEMA {
        execute_sql(&db, &txn, ddl).map_err(err("ddl"))?;
    }
    txn.commit().map_err(err("ddl commit"))?;
    load_accounts(&db).map_err(err("load"))?;
    Ok(db)
}

/// `n` of the workload's own transactions of one kind (none if the workload
/// has none), pre-generated so generation is never timed.
fn sample_txns(workload: Workload, seed: u64, kind: TxnKind, n: usize) -> Vec<Txn> {
    let has_kind = match kind {
        TxnKind::Read => workload.has_reads(),
        TxnKind::Update => workload.has_updates(),
    };
    if !has_kind {
        return Vec::new();
    }
    let mut gen = Generator::new(workload, seed, 0);
    std::iter::repeat_with(|| gen.next_txn()).filter(|t| t.kind == kind).take(n).collect()
}

fn parsed_statements(txns: &[Txn]) -> Probe<Vec<Statement>> {
    txns.iter()
        .flat_map(|t| &t.statements)
        .take(ITERS_PER_BATCH)
        .map(|sql| parse(sql).map_err(err("parse")))
        .collect()
}

pub fn run_all(workload: Workload, seed: u64) -> Probe<ProbeResults> {
    let mut out = ProbeResults::default();
    let db = loaded_database()?;
    let reads = sample_txns(workload, seed, TxnKind::Read, ITERS_PER_BATCH);
    let updates = sample_txns(workload, seed, TxnKind::Update, ITERS_PER_BATCH);

    out.sql_parse_ns = parse_probe(workload, seed)?;
    out.sql_exec_select_ns = exec_probe(&db, &parsed_statements(&reads)?)?;
    out.sql_exec_update_ns = exec_probe(&db, &parsed_statements(&updates)?)?;
    out.storage_read_ns = read_probe(&db, workload, seed)?;
    out.wire_exec_roundtrip_ns = wire_exec_probe(&db, workload, seed)?;
    if workload.has_updates() {
        let ws = writesets(&db, &updates[..CERT_WINDOW])?;
        storage_write_probes(&db, &ws, &mut out)?;
        out.core_certify_ns = certify_probe(&ws)?;
        let msg = ws_message(&ws[0]);
        wire_ws_probe(&msg, &mut out)?;
        sequencer_probe(&msg, &mut out)?;
    }
    out.core_commit_inproc_p50_us = inproc_commit_probe(workload, seed)?;
    Ok(out)
}

/// `sql.parse_ns`: the workload's statements in their natural mix.
fn parse_probe(workload: Workload, seed: u64) -> Probe<f64> {
    let mut gen = Generator::new(workload, seed, 0);
    let statements: Vec<String> = std::iter::repeat_with(|| gen.next_txn())
        .flat_map(|t| t.statements)
        .take(ITERS_PER_BATCH)
        .collect();
    per_op_ns(|| {
        let t = Instant::now();
        for sql in &statements {
            black_box(parse(black_box(sql)).map_err(err("parse"))?);
        }
        Ok(t.elapsed())
    })
}

/// `sql.exec_*_ns`: executing already-parsed statements of one kind, `BLOCK`
/// to a transaction that is then rolled back; begin and rollback are not
/// timed. 0 when the workload has no statement of the kind.
fn exec_probe(db: &Database, statements: &[Statement]) -> Probe<f64> {
    if statements.is_empty() {
        return Ok(0.0);
    }
    assert_eq!(statements.len(), ITERS_PER_BATCH, "per_op_ns divides by the batch size");
    per_op_ns(|| {
        let mut spent = Duration::ZERO;
        for block in statements.chunks(BLOCK) {
            let txn = db.begin().map_err(err("begin"))?;
            let t = Instant::now();
            for stmt in block {
                black_box(execute(db, &txn, stmt).map_err(err("execute"))?);
            }
            spent += t.elapsed();
            txn.abort(AbortReason::UserRequested);
        }
        Ok(spent)
    })
}

/// `storage.read_ns`: snapshot reads of keys drawn from the workload's id
/// range.
fn read_probe(db: &Database, workload: Workload, seed: u64) -> Probe<f64> {
    let ids = if workload == Workload::TransferHot { HOT_IDS } else { ROWS };
    let mut rng = Rng::new(seed);
    let keys: Vec<Key> = (0..ITERS_PER_BATCH).map(|_| Key::single(rng.below(ids) as i64)).collect();
    per_op_ns(|| {
        let txn = db.begin().map_err(err("begin"))?;
        let t = Instant::now();
        for key in &keys {
            black_box(txn.read("accounts", key).map_err(err("read"))?);
        }
        let spent = t.elapsed();
        txn.commit_quiet().map_err(err("commit"))?;
        Ok(spent)
    })
}

/// The writeset each of `txns` produces: run it, extract, roll back.
fn writesets(db: &Database, txns: &[Txn]) -> Probe<Vec<Arc<WriteSet>>> {
    txns.iter()
        .map(|t| {
            let txn = db.begin().map_err(err("begin"))?;
            for sql in &t.statements {
                execute_sql(db, &txn, sql).map_err(err("writeset statement"))?;
            }
            let ws = txn.writeset();
            txn.abort(AbortReason::UserRequested);
            Ok(Arc::new(ws))
        })
        .collect()
}

fn buffer_writes(txn: &sirep_storage::TxnHandle, ws: &WriteSet) -> Result<(), DbError> {
    for e in ws.entries() {
        let WsOp::Put(row) = &e.op else { continue };
        txn.read(&e.table, &e.key)?;
        txn.update_key(&e.table, e.key.clone(), row.clone())?;
    }
    Ok(())
}

/// `storage.update_commit_ns` (a local update transaction at the engine:
/// begin, read + write each tuple, commit), `storage.commit_ns` (its commit
/// call alone), `storage.ws_extract_ns` and `storage.apply_ws_ns` (a remote
/// replica's whole cost: begin, apply, commit) — all at the workload's |ws|.
fn storage_write_probes(db: &Database, ws: &[Arc<WriteSet>], out: &mut ProbeResults) -> Probe<()> {
    let cycle = |i: usize| &*ws[i % ws.len()];
    out.storage_update_commit_ns = per_op_ns(|| {
        let t = Instant::now();
        for i in 0..ITERS_PER_BATCH {
            let txn = db.begin().map_err(err("begin"))?;
            buffer_writes(&txn, cycle(i)).map_err(err("update"))?;
            black_box(txn.commit_quiet().map_err(err("commit"))?);
        }
        Ok(t.elapsed())
    })?;
    out.storage_commit_ns = per_op_ns(|| {
        let mut spent = Duration::ZERO;
        for i in 0..ITERS_PER_BATCH {
            let txn = db.begin().map_err(err("begin"))?;
            buffer_writes(&txn, cycle(i)).map_err(err("update"))?;
            let t = Instant::now();
            black_box(txn.commit_quiet().map_err(err("commit"))?);
            spent += t.elapsed();
        }
        Ok(spent)
    })?;
    out.storage_ws_extract_ns = per_op_ns(|| {
        let txn = db.begin().map_err(err("begin"))?;
        buffer_writes(&txn, cycle(0)).map_err(err("update"))?;
        let t = Instant::now();
        for _ in 0..ITERS_PER_BATCH {
            black_box(txn.writeset());
        }
        let spent = t.elapsed();
        txn.abort(AbortReason::UserRequested);
        Ok(spent)
    })?;
    out.storage_apply_ws_ns = per_op_ns(|| {
        let t = Instant::now();
        for i in 0..ITERS_PER_BATCH {
            let txn = db.begin().map_err(err("begin"))?;
            txn.apply_writeset(cycle(i)).map_err(err("apply"))?;
            black_box(txn.commit_quiet().map_err(err("commit"))?);
        }
        Ok(t.elapsed())
    })?;
    Ok(())
}

/// `core.certify_ns`: `WsList::passes` + `append` with `CERT_WINDOW` live
/// entries to validate against; every probe passes, so all |ws| keys are
/// looked up.
fn certify_probe(ws: &[Arc<WriteSet>]) -> Probe<f64> {
    let xact = |i: usize| XactId::new(ReplicaId::new(0), i as u64);
    per_op_ns(|| {
        let mut list = WsList::new();
        for (i, w) in ws.iter().cycle().take(CERT_WINDOW).enumerate() {
            list.append(xact(i), Arc::clone(w));
        }
        let t = Instant::now();
        for i in 0..ITERS_PER_BATCH {
            let w = &ws[i % ws.len()];
            if !black_box(list.passes(list.last_tid(), w)) {
                return Err("probe certify: a non-concurrent writeset failed validation".into());
            }
            black_box(list.append(xact(i), Arc::clone(w)));
        }
        Ok(t.elapsed())
    })
}

fn ws_message(ws: &Arc<WriteSet>) -> ReplMsg {
    ReplMsg::WriteSet(Arc::new(WsMsg {
        origin: ReplicaId::new(0),
        xact: XactId::new(ReplicaId::new(0), 1),
        cert: GlobalTid::ZERO.next(),
        ws: Arc::clone(ws),
    }))
}

/// `common.wire_ws_*`: the multicast frame carrying the workload's writeset.
fn wire_ws_probe(msg: &ReplMsg, out: &mut ProbeResults) -> Probe<()> {
    let bytes = msg.to_wire();
    // On the wire a frame is its payload plus the 4-byte length prefix.
    out.wire_ws_bytes = (bytes.len() + 4) as f64;
    out.wire_ws_encode_ns = per_op_ns(|| {
        let t = Instant::now();
        for _ in 0..ITERS_PER_BATCH {
            black_box(black_box(msg).to_wire());
        }
        Ok(t.elapsed())
    })?;
    out.wire_ws_decode_ns = per_op_ns(|| {
        let t = Instant::now();
        for _ in 0..ITERS_PER_BATCH {
            black_box(ReplMsg::from_wire(black_box(&bytes)).map_err(|e| format!("decode: {e:?}"))?);
        }
        Ok(t.elapsed())
    })?;
    Ok(())
}

/// `common.wire_exec_roundtrip_ns`: the codec work of one statement round
/// trip — request encoded and decoded, response encoded and decoded — for
/// the first statement of the workload's median transaction.
fn wire_exec_probe(db: &Database, workload: Workload, seed: u64) -> Probe<f64> {
    let txn = sample_txns(workload, seed, workload.median_kind(), 1).remove(0);
    let sql = txn.statements[0].clone();
    let handle = db.begin().map_err(err("begin"))?;
    let result = execute_sql(db, &handle, &sql).map_err(err("exec"))?;
    handle.abort(AbortReason::UserRequested);
    let req = ClientReq::Exec { sql };
    let resp = ClientResp::Exec { result, xact: Some(XactId::new(ReplicaId::new(0), 1)) };
    per_op_ns(|| {
        let t = Instant::now();
        for _ in 0..ITERS_PER_BATCH {
            let bytes = black_box(&req).to_wire();
            black_box(ClientReq::from_wire(&bytes).map_err(|e| format!("decode: {e:?}"))?);
            let bytes = black_box(&resp).to_wire();
            black_box(ClientResp::from_wire(&bytes).map_err(|e| format!("decode: {e:?}"))?);
        }
        Ok(t.elapsed())
    })
}

/// Block until the next total-order delivery arrives at `m`; returns how
/// many messages it carried.
fn recv_total(m: &impl Member<ReplMsg>) -> Probe<usize> {
    loop {
        match m.recv_timeout(Duration::from_secs(10)) {
            Ok(Delivery::TotalOrder { .. }) => return Ok(1),
            Ok(Delivery::TotalBatch { entries, .. }) => return Ok(entries.len()),
            Ok(_) => {}
            Err(e) => return Err(format!("probe sequencer: {e}")),
        }
    }
}

/// `gcs.seq_rtt_p50_us` and `gcs.seq_msgs_per_s`: a sequencer and three
/// members over loopback TCP inside this process. One member multicasts the
/// workload's writeset frame and waits for its own delivery, one at a time;
/// then it sends `PIPELINED_MSGS` back to back and drains them.
fn sequencer_probe(msg: &ReplMsg, out: &mut ProbeResults) -> Probe<()> {
    let gcs = |e: sirep_gcs::GcsError| format!("probe sequencer: {e}");
    let seq = Sequencer::spawn("127.0.0.1:0").map_err(|e| format!("probe sequencer: {e}"))?;
    let group: TcpGroup<ReplMsg> = TcpGroup::new(seq.addr().to_string(), 0);
    let sender = group.join_as(0).map_err(gcs)?;
    let done = AtomicBool::new(false);
    let result = std::thread::scope(|scope| {
        let result = (|| -> Probe<()> {
            // The other two members only receive; without a reader their
            // deliveries would pile up unread.
            for replica in 1..3 {
                let listener = group.join_as(replica).map_err(gcs)?;
                let done = &done;
                scope.spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        let _ = listener.recv_timeout(Duration::from_millis(20));
                    }
                    listener.leave();
                });
            }
            let cast = sender.handle();
            let mut rtt_ns = Vec::with_capacity(SLOW_ITERS);
            for _ in 0..SLOW_ITERS {
                let t = Instant::now();
                cast.multicast_total(msg.clone()).map_err(gcs)?;
                recv_total(&sender)?;
                rtt_ns.push(t.elapsed().as_nanos() as u64);
            }
            rtt_ns.sort_unstable();
            out.gcs_seq_rtt_p50_us = quantile(&rtt_ns, 0.5) as f64 / 1e3;

            let t = Instant::now();
            for _ in 0..PIPELINED_MSGS {
                cast.multicast_total(msg.clone()).map_err(gcs)?;
            }
            let mut delivered = 0;
            while delivered < PIPELINED_MSGS {
                delivered += recv_total(&sender)?;
            }
            out.gcs_seq_msgs_per_s = PIPELINED_MSGS as f64 / t.elapsed().as_secs_f64();
            Ok(())
        })();
        // Set on the error path too, or the scope would wait for ever.
        done.store(true, Ordering::Relaxed);
        result
    });
    sender.leave();
    seq.shutdown();
    result
}

/// `core.commit_inproc_p50_us`: the workload's median transaction through a
/// three-replica `Cluster` on the simulated transport with zero link delay —
/// SQL, locks, writeset, certification and commit, but no socket and no
/// second process.
fn inproc_commit_probe(workload: Workload, seed: u64) -> Probe<f64> {
    let cluster = Cluster::new(ClusterConfig::builder().replicas(3).build());
    let result = (|| -> Probe<f64> {
        for ddl in SCHEMA {
            cluster.execute_ddl(ddl).map_err(err("inproc ddl"))?;
        }
        cluster.load_with(load_accounts).map_err(err("inproc load"))?;
        let mut session = cluster.session(0);
        let kind = workload.median_kind();
        let mut gen = Generator::new(workload, seed, 0);
        let mut ns = Vec::with_capacity(SLOW_ITERS);
        while ns.len() < SLOW_ITERS {
            let txn = gen.next_txn();
            let t = Instant::now();
            for sql in &txn.statements {
                black_box(session.execute(sql).map_err(err("inproc execute"))?);
            }
            session.commit().map_err(err("inproc commit"))?;
            if txn.kind == kind {
                ns.push(t.elapsed().as_nanos() as u64);
            }
        }
        ns.sort_unstable();
        Ok(quantile(&ns, 0.5) as f64 / 1e3)
    })();
    cluster.shutdown();
    result
}
