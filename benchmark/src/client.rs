//! One closed-loop client: generate a transaction, run it with retries,
//! record when it completed and how long it took. With tracing on it also
//! records a span around every call into the driver.

use crate::calibrate::{SLICE_NS, WORK_NS};
use crate::workload::{Generator, Txn, TxnKind, Workload};
use sirep_common::DbError;
use sirep_driver::remote::RemoteConn;
use sirep_sql::ExecResult;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Attempts per transaction before it counts as failed.
pub const RETRY_BUDGET: u32 = 100;
/// Back-off before attempt `n + 1` is `n ×` this.
pub const BACKOFF_STEP: Duration = Duration::from_micros(100);
/// Pings per client at the end of warm-up (traced runs).
const PINGS: usize = 1_000;
/// Transactions per client whose spans are kept whole for the Chrome trace
/// (every traced transaction still feeds the span statistics).
const TRACE_FILE_TXNS: u64 = 2_000;

/// The calls a transaction makes. `RemoteConn` in the benchmark; a scripted
/// fake in the retry-accounting tests.
pub trait Conn {
    fn execute(&mut self, sql: &str) -> Result<ExecResult, DbError>;
    fn commit(&mut self) -> Result<(), DbError>;
    fn rollback(&mut self) -> Result<(), DbError>;
}

impl Conn for RemoteConn<'_> {
    fn execute(&mut self, sql: &str) -> Result<ExecResult, DbError> {
        RemoteConn::execute(self, sql)
    }
    fn commit(&mut self) -> Result<(), DbError> {
        RemoteConn::commit(self)
    }
    fn rollback(&mut self) -> Result<(), DbError> {
        RemoteConn::rollback(self)
    }
}

/// Whether a failed call may be retried on the same connection after a
/// rollback. No fault is injected here, so connection loss — in doubt or
/// not — is a failure, never a retry.
fn retryable(e: &DbError) -> bool {
    matches!(e, DbError::Aborted(r) if r.is_retryable())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    Txn,
    Exec,
    Commit,
    Rollback,
    Backoff,
}

impl SpanName {
    fn label(self) -> &'static str {
        match self {
            SpanName::Txn => "txn",
            SpanName::Exec => "driver.exec",
            SpanName::Commit => "driver.commit",
            SpanName::Rollback => "driver.rollback",
            SpanName::Backoff => "client.backoff",
        }
    }
}

/// One span of one transaction, in nanoseconds since the window opened.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: SpanName,
    /// Statement index for `Exec`, attempt number otherwise.
    pub index: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects the child spans of the transaction being run.
pub struct SpanSink {
    origin: Instant,
    pub children: Vec<Span>,
}

impl SpanSink {
    fn timed<T>(&mut self, name: SpanName, index: u32, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.children.push(Span {
            name,
            index,
            start_ns: ns_since(self.origin, start),
            end_ns: ns_since(self.origin, end),
        });
        out
    }
}

fn ns_since(origin: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(origin).as_nanos() as u64
}

/// How one transaction ended.
#[derive(Debug, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Committed after `retries` aborted attempts.
    Committed { retries: u32 },
    /// Retry budget exhausted, a non-retryable error (in-doubt included), or
    /// a statement that reported the wrong row count.
    Failed { retries: u32, why: String },
}

fn check_rows(result: &ExecResult, expected: usize) -> Result<(), String> {
    let got = match result {
        ExecResult::Rows { rows, .. } => rows.len(),
        ExecResult::Affected(n) => *n,
        ExecResult::Created => 0,
    };
    if got == expected {
        Ok(())
    } else {
        Err(format!("statement reported {got} rows, expected {expected}"))
    }
}

/// Run `txn` to its commit ack: on a retryable abort roll back, back off
/// `attempt × BACKOFF_STEP` (through `sleep`) and replay the statements.
pub fn run_txn<C: Conn>(
    conn: &mut C,
    txn: &Txn,
    mut spans: Option<&mut SpanSink>,
    sleep: impl Fn(Duration),
) -> TxnOutcome {
    // With a sink every call is wrapped in a span; without one it is called
    // bare, so the untraced run pays for no clock reads but its own two.
    macro_rules! call {
        ($name:expr, $index:expr, $f:expr) => {
            match spans.as_deref_mut() {
                Some(sink) => sink.timed($name, $index, || $f),
                None => $f,
            }
        };
    }
    let mut retries = 0;
    loop {
        let attempt: Result<(), DbError> = (|| {
            for (i, sql) in txn.statements.iter().enumerate() {
                let result = call!(SpanName::Exec, i as u32, conn.execute(sql))?;
                if let Err(why) = check_rows(&result, txn.rows_per_statement) {
                    return Err(DbError::Internal(why));
                }
            }
            call!(SpanName::Commit, retries, conn.commit())
        })();
        match attempt {
            Ok(()) => return TxnOutcome::Committed { retries },
            Err(e) if retryable(&e) && retries + 1 < RETRY_BUDGET => {
                retries += 1;
                if let Err(e) = call!(SpanName::Rollback, retries, conn.rollback()) {
                    return TxnOutcome::Failed { retries, why: format!("rollback: {e}") };
                }
                call!(SpanName::Backoff, retries, sleep(BACKOFF_STEP * retries));
            }
            Err(e) => {
                // Leave the session clean for the next transaction.
                let _ = conn.rollback();
                return TxnOutcome::Failed { retries, why: e.to_string() };
            }
        }
    }
}

/// One transaction that completed inside the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, nanoseconds since the window opened.
    pub end_ns: u64,
    /// First statement of the first attempt → commit ack (retries inside).
    pub latency_ns: u64,
    pub kind: TxnKind,
    pub retries: u32,
    pub committed: bool,
}

/// Span durations of the traced transactions, by what they measure.
#[derive(Debug, Default)]
pub struct SpanStats {
    pub exec_update_ns: Vec<u64>,
    pub exec_select_ns: Vec<u64>,
    pub commit_update_ns: Vec<u64>,
    pub commit_readonly_ns: Vec<u64>,
    /// `txn` span self time: generating the transaction and bookkeeping.
    pub txn_self_ns: Vec<u64>,
}

/// What one client hands back.
#[derive(Debug, Default)]
pub struct ClientReport {
    pub samples: Vec<Sample>,
    /// Update transactions committed over the client's whole life, warm-up
    /// and the one in flight at the deadline included: the balance check
    /// needs every one of them.
    pub updates_committed_ever: u64,
    pub first_failure: Option<String>,
    pub ping_ns: Vec<u64>,
    pub span_stats: SpanStats,
    /// `(txn id, txn span, child spans)` for the Chrome trace.
    pub traced_txns: Vec<(u64, Span, Vec<Span>)>,
    /// When this client's last transaction was acknowledged.
    pub last_ack: Option<Instant>,
}

/// What the clients and the coordinating thread share.
pub struct Shared {
    /// Clients arrive when warm-up (and pinging) is done; the coordinator
    /// arrives, samples the window's opening edge, and publishes `opened`.
    pub warmed_up: Barrier,
    pub open: Barrier,
    pub opened: OnceLock<Instant>,
    pub stop: AtomicBool,
}

pub struct ClientPlan {
    pub workload: Workload,
    pub seed: u64,
    pub client: usize,
    pub warmup: Duration,
    pub window: Duration,
    pub trace: bool,
}

/// In a traced run, spans are recorded in the odd one-second slices only:
/// the even slices are the untraced control the tracing overhead is
/// measured against, inside the same run.
pub fn slice_is_traced(slice: u64) -> bool {
    slice % 2 == 1
}

pub fn run_client(plan: &ClientPlan, conn: &mut RemoteConn<'_>, shared: &Shared) -> ClientReport {
    let mut report = ClientReport::default();
    let mut gen = Generator::new(plan.workload, plan.seed, plan.client);
    let sleep = |d: Duration| std::thread::sleep(d);
    let note = |report: &mut ClientReport, txn: &Txn, outcome: &TxnOutcome| match outcome {
        TxnOutcome::Committed { .. } if txn.kind == TxnKind::Update => {
            report.updates_committed_ever += 1;
        }
        TxnOutcome::Committed { .. } => {}
        TxnOutcome::Failed { why, .. } => {
            report.first_failure.get_or_insert_with(|| why.clone());
        }
    };

    let warm_until = Instant::now() + plan.warmup;
    while Instant::now() < warm_until {
        let txn = gen.next_txn();
        let outcome = run_txn(conn, &txn, None, sleep);
        note(&mut report, &txn, &outcome);
    }
    if plan.trace {
        for _ in 0..PINGS {
            let t = Instant::now();
            if let Err(e) = conn.ping() {
                report.first_failure.get_or_insert(format!("ping: {e}"));
                break;
            }
            report.ping_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    shared.warmed_up.wait();
    shared.open.wait();
    let opened = *shared.opened.get().expect("published before the open barrier");
    let window_ns = plan.window.as_nanos() as u64;

    let mut txn_id = 0u64;
    // Keep the load on until the coordinator has sampled the window's
    // closing edge and says stop: transactions that end after the window are
    // run but not recorded.
    while !shared.stop.load(Ordering::Relaxed) {
        let span_start = Instant::now();
        let start_ns = ns_since(opened, span_start);
        if start_ns < window_ns && start_ns % SLICE_NS >= WORK_NS {
            // The rest of this second belongs to the calibration ring.
            sleep(Duration::from_nanos(SLICE_NS - start_ns % SLICE_NS));
            continue;
        }
        let traced = plan.trace && start_ns < window_ns && slice_is_traced(start_ns / SLICE_NS);
        let txn = gen.next_txn();
        let mut sink = traced.then(|| SpanSink { origin: opened, children: Vec::new() });
        let first_statement = Instant::now();
        let outcome = run_txn(conn, &txn, sink.as_mut(), sleep);
        let acked = Instant::now();
        note(&mut report, &txn, &outcome);
        report.last_ack = Some(acked);
        let (committed, retries) = match outcome {
            TxnOutcome::Committed { retries } => (true, retries),
            TxnOutcome::Failed { retries, .. } => (false, retries),
        };
        let end_ns = ns_since(opened, acked);
        if end_ns < window_ns {
            report.samples.push(Sample {
                end_ns,
                latency_ns: (acked - first_statement).as_nanos() as u64,
                kind: txn.kind,
                retries,
                committed,
            });
        }
        if let Some(sink) = sink {
            let parent = Span { name: SpanName::Txn, index: retries, start_ns, end_ns };
            record_spans(&mut report, txn.kind, txn_id, parent, sink.children);
        }
        txn_id += 1;
    }
    report
}

fn record_spans(
    report: &mut ClientReport,
    kind: TxnKind,
    txn_id: u64,
    parent: Span,
    children: Vec<Span>,
) {
    let stats = &mut report.span_stats;
    for s in &children {
        let d = s.end_ns - s.start_ns;
        match (s.name, kind) {
            (SpanName::Exec, TxnKind::Update) => stats.exec_update_ns.push(d),
            (SpanName::Exec, TxnKind::Read) => stats.exec_select_ns.push(d),
            (SpanName::Commit, TxnKind::Update) => stats.commit_update_ns.push(d),
            (SpanName::Commit, TxnKind::Read) => stats.commit_readonly_ns.push(d),
            _ => {}
        }
    }
    let intervals: Vec<(u64, u64)> = children.iter().map(|s| (s.start_ns, s.end_ns)).collect();
    stats.txn_self_ns.push(crate::stats::self_time((parent.start_ns, parent.end_ns), &intervals));
    if (report.traced_txns.len() as u64) < TRACE_FILE_TXNS {
        report.traced_txns.push((txn_id, parent, children));
    }
}

/// Chrome-trace ("Trace Event Format") JSON of the kept spans: one complete
/// event per span, `pid` = client, spans of one transaction sharing the id
/// `client#n` in `args.txn`. Loads in `chrome://tracing` and Perfetto.
pub fn chrome_trace_json(reports: &[ClientReport]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (client, report) in reports.iter().enumerate() {
        for (txn_id, parent, children) in &report.traced_txns {
            for s in std::iter::once(parent).chain(children) {
                if !first {
                    out.push(',');
                }
                first = false;
                let name = match s.name {
                    SpanName::Exec => format!("{}[{}]", s.name.label(), s.index),
                    _ => s.name.label().to_string(),
                };
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{client},\"tid\":0,\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"txn\":\"{client}#{txn_id}\"}}}}",
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3
                ));
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirep_common::AbortReason;
    use std::cell::RefCell;
    use std::collections::VecDeque;

    /// A connection that answers from a script and logs what it was asked.
    struct Scripted {
        commit_results: VecDeque<Result<(), DbError>>,
        exec_rows: usize,
        log: Vec<&'static str>,
    }

    impl Scripted {
        fn new(commit_results: Vec<Result<(), DbError>>) -> Scripted {
            Scripted { commit_results: commit_results.into(), exec_rows: 1, log: Vec::new() }
        }
    }

    impl Conn for Scripted {
        fn execute(&mut self, _sql: &str) -> Result<ExecResult, DbError> {
            self.log.push("exec");
            Ok(ExecResult::Affected(self.exec_rows))
        }
        fn commit(&mut self) -> Result<(), DbError> {
            self.log.push("commit");
            self.commit_results.pop_front().unwrap_or(Ok(()))
        }
        fn rollback(&mut self) -> Result<(), DbError> {
            self.log.push("rollback");
            Ok(())
        }
    }

    fn transfer() -> Txn {
        Generator::new(Workload::TransferWide, 1, 0).next_txn()
    }

    fn validation_abort() -> Result<(), DbError> {
        Err(DbError::Aborted(AbortReason::ValidationFailure))
    }

    #[test]
    fn an_abort_that_later_commits_is_a_retry_not_a_failure() {
        let mut conn = Scripted::new(vec![validation_abort(), validation_abort(), Ok(())]);
        let slept = RefCell::new(Vec::new());
        let outcome = run_txn(&mut conn, &transfer(), None, |d| slept.borrow_mut().push(d));
        assert_eq!(outcome, TxnOutcome::Committed { retries: 2 });
        // Statements are replayed on every attempt, with a rollback between.
        assert_eq!(
            conn.log,
            [
                "exec", "exec", "commit", "rollback", "exec", "exec", "commit", "rollback", "exec",
                "exec", "commit"
            ]
        );
        assert_eq!(*slept.borrow(), [BACKOFF_STEP, BACKOFF_STEP * 2]);
    }

    #[test]
    fn an_exhausted_retry_budget_is_a_failure() {
        let mut conn = Scripted::new(vec![validation_abort(); RETRY_BUDGET as usize + 5]);
        let outcome = run_txn(&mut conn, &transfer(), None, |_| {});
        assert!(matches!(outcome, TxnOutcome::Failed { .. }), "{outcome:?}");
        let commits = conn.log.iter().filter(|c| **c == "commit").count();
        assert_eq!(commits, RETRY_BUDGET as usize);
    }

    #[test]
    fn in_doubt_and_wrong_row_counts_fail_without_retry() {
        let mut conn = Scripted::new(vec![Err(DbError::ConnectionLost { in_doubt: true })]);
        let outcome = run_txn(&mut conn, &transfer(), None, |_| {});
        assert!(matches!(outcome, TxnOutcome::Failed { retries: 0, .. }), "{outcome:?}");

        let mut conn = Scripted::new(vec![]);
        conn.exec_rows = 0;
        let outcome = run_txn(&mut conn, &transfer(), None, |_| {});
        assert!(matches!(outcome, TxnOutcome::Failed { retries: 0, .. }), "{outcome:?}");
        assert_eq!(conn.log, ["exec", "rollback"]);
    }

    #[test]
    fn spans_cover_every_driver_call_and_feed_the_chrome_trace() {
        let mut conn = Scripted::new(vec![validation_abort(), Ok(())]);
        let mut sink = SpanSink { origin: Instant::now(), children: Vec::new() };
        let outcome = run_txn(&mut conn, &transfer(), Some(&mut sink), |_| {});
        assert_eq!(outcome, TxnOutcome::Committed { retries: 1 });
        let names: Vec<SpanName> = sink.children.iter().map(|s| s.name).collect();
        use SpanName::{Backoff, Commit, Exec, Rollback};
        assert_eq!(names, [Exec, Exec, Commit, Rollback, Backoff, Exec, Exec, Commit]);
        assert!(sink.children.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));

        let mut report = ClientReport::default();
        let end = sink.children.last().expect("spans").end_ns + 10;
        let parent = Span { name: SpanName::Txn, index: 1, start_ns: 0, end_ns: end };
        record_spans(&mut report, TxnKind::Update, 5, parent, sink.children);
        assert_eq!(report.span_stats.exec_update_ns.len(), 4);
        assert_eq!(report.span_stats.commit_update_ns.len(), 2);
        assert!(report.span_stats.txn_self_ns[0] >= 10);
        let json = chrome_trace_json(&[report]);
        let parsed = crate::json::Json::parse(&json).expect("chrome trace parses");
        let events = parsed.get("traceEvents").and_then(crate::json::Json::as_arr).expect("array");
        assert_eq!(events.len(), 9);
        assert!(json.contains("\"txn\":\"0#5\"") && json.contains("driver.exec[1]"));
    }
}
