//! Per-node telemetry service + scrape client: the cross-process
//! observability plane (DESIGN.md §15).
//!
//! Every `sirep-cluster` node process embeds a [`TelemetryServer`] next to
//! its client-facing [`NodeServer`](crate::NodeServer). It answers
//! [`Wire`]-framed scrape requests with point-in-time snapshots:
//!
//! - [`TelemetryReq::Report`] — the process's merged [`ClusterReport`]
//!   (counters, stage histograms, gauges, transport rollup, auditor
//!   violations, per-node statuses; a scraper renders Prometheus text from
//!   it);
//! - [`TelemetryReq::Journal`] — the raw protocol event journals, for the
//!   scraped-journal auditor and the merged Perfetto trace;
//! - [`TelemetryReq::ClockProbe`] — the clock handshake: the node samples
//!   its own journal clock around a live sequencer time probe and returns
//!   the signed offset that maps its journal timestamps onto the
//!   sequencer's timeline (`0` on the sim transport, which shares one
//!   process and one epoch anyway).
//!
//! **Lock discipline**: every response is fully materialized (owned data,
//! short internal locks inside `Cluster` accessors) *before* the first
//! response byte is written — no node-state lock is ever held across a
//! socket write, so a stalled scraper cannot back-pressure the commit path.
//!
//! **Scrape totality**: the client helpers put a timeout on the socket and
//! decode with the same total `Wire` discipline as the transport tier — a
//! node killed mid-frame yields `Err`, never a panic or a hang.

use crate::remote::Listener;
use sirep_common::wire::{read_frame, write_frame};
use sirep_common::{Event, ReplicaId};
use sirep_core::{Cluster, ClusterReport, Transport};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Default socket timeout for scrape round trips: long enough for a busy
/// node to snapshot, short enough that `report` over a dead node fails
/// promptly.
pub const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// One telemetry request frame, scraper → node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryReq {
    /// The process-local merged [`ClusterReport`].
    Report,
    /// The raw protocol event journals (for offline audit / trace merge).
    Journal,
    /// Run the clock handshake against the sequencer and report the offset.
    ClockProbe,
}

// Tags 0, 2 and 4 are retired (per-replica statuses, Prometheus text and
// the gauge rollup: each a part of the report).
sirep_common::wire_codec!(enum TelemetryReq, "telemetry req tag" {
    1 => Report,
    3 => Journal,
    5 => ClockProbe,
});

/// One telemetry response frame, node → scraper. (No `PartialEq`:
/// [`ClusterReport`] carries live atomic counters; equality is
/// byte-equality of the wire form.)
#[derive(Debug, Clone)]
pub enum TelemetryResp {
    Report(Box<ClusterReport>),
    Journal(Vec<(ReplicaId, Vec<Event>)>),
    /// Signed nanoseconds to *add* to this node's journal timestamps to land
    /// them on the sequencer's timeline.
    Clock {
        offset_ns: i64,
    },
    /// The node could not answer (e.g. the sequencer was unreachable during
    /// a clock probe).
    Err(String),
}

// Tags 0, 2 and 4 are retired with their requests.
sirep_common::wire_codec!(enum TelemetryResp, "telemetry resp tag" {
    1 => Report(report),
    3 => Journal(journals),
    5 => Clock { offset_ns },
    6 => Err(msg),
});

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Scrape endpoint embedded in every node process: serves any number of
/// request frames per connection, one thread per scraper (scrapers are few
/// and short-lived).
pub struct TelemetryServer(Listener);

impl TelemetryServer {
    /// Bind `bind` (e.g. `"127.0.0.1:0"`) and serve telemetry for `cluster`.
    pub fn spawn(bind: &str, cluster: Arc<Cluster>) -> io::Result<TelemetryServer> {
        let serve = move |stream| serve_scraper(stream, &cluster);
        Listener::spawn(bind, "telemetry-server", serve).map(TelemetryServer)
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }
}

fn serve_scraper(mut stream: TcpStream, cluster: &Arc<Cluster>) {
    // A scraper that stalls mid-request must not pin this thread forever.
    let _ = stream.set_read_timeout(Some(SCRAPE_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SCRAPE_TIMEOUT));
    loop {
        let Ok(req) = read_frame::<_, TelemetryReq>(&mut stream) else { return };
        // Materialize the whole response before writing: `Cluster` accessors
        // take their internal locks briefly and return owned data, so no
        // shared lock spans the socket write below.
        let resp = handle_req(cluster, req);
        if write_frame(&mut stream, &resp).is_err() {
            return;
        }
    }
}

fn handle_req(cluster: &Arc<Cluster>, req: TelemetryReq) -> TelemetryResp {
    match req {
        TelemetryReq::Report => TelemetryResp::Report(Box::new(cluster.metrics())),
        TelemetryReq::Journal => TelemetryResp::Journal(cluster.journal_events()),
        TelemetryReq::ClockProbe => match clock_probe(cluster) {
            Ok(offset_ns) => TelemetryResp::Clock { offset_ns },
            Err(e) => TelemetryResp::Err(format!("clock probe failed: {e}")),
        },
    }
}

/// The clock handshake: sample this process's journal clock around a live
/// sequencer time probe; the probe's midpoint is the best estimate of when
/// the sequencer read its clock, so `seq_now - midpoint` maps journal time
/// onto sequencer time. On the sim transport every replica already shares
/// one epoch, so the offset is zero by construction.
fn clock_probe(cluster: &Arc<Cluster>) -> io::Result<i64> {
    match &cluster.config().transport {
        Transport::Sim => Ok(0),
        Transport::Tcp { sequencer } => {
            let t0 = cluster.epoch_elapsed_ns();
            let seq_now = sirep_gcs::probe_seq_time(sequencer)?;
            let t1 = cluster.epoch_elapsed_ns();
            let midpoint = t0 + (t1 - t0) / 2;
            Ok(seq_now as i64 - midpoint as i64)
        }
    }
}

// ---------------------------------------------------------------------------
// Scrape client
// ---------------------------------------------------------------------------

/// One request/response round trip with an explicit timeout. Any transport
/// or decode failure — connection refused, node killed mid-frame, corrupt
/// bytes — is an `Err`; decode is total, so malicious or truncated input
/// cannot panic, and the timeout bounds a node that stops mid-response.
pub fn scrape_with_timeout(
    addr: &str,
    req: TelemetryReq,
    timeout: Duration,
) -> io::Result<TelemetryResp> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write_frame(&mut stream, &req)?;
    read_frame(&mut stream)
}

fn scrape(addr: &str, req: TelemetryReq) -> io::Result<TelemetryResp> {
    scrape_with_timeout(addr, req, SCRAPE_TIMEOUT)
}

fn unexpected(what: &str, got: TelemetryResp) -> io::Error {
    let msg = match got {
        TelemetryResp::Err(e) => format!("telemetry {what}: node reported: {e}"),
        other => format!("telemetry {what}: unexpected response {other:?}"),
    };
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Scrape the process-local merged [`ClusterReport`] at `addr`.
pub fn scrape_report(addr: &str) -> io::Result<ClusterReport> {
    match scrape(addr, TelemetryReq::Report)? {
        TelemetryResp::Report(r) => Ok(*r),
        other => Err(unexpected("report", other)),
    }
}

/// Scrape the raw protocol event journals at `addr`.
pub fn scrape_journal(addr: &str) -> io::Result<Vec<(ReplicaId, Vec<Event>)>> {
    match scrape(addr, TelemetryReq::Journal)? {
        TelemetryResp::Journal(j) => Ok(j),
        other => Err(unexpected("journal", other)),
    }
}

/// Ask the node at `addr` to run the clock handshake; returns the signed
/// nanosecond offset that maps its journal timestamps onto the sequencer's
/// timeline.
pub fn scrape_clock_offset(addr: &str) -> io::Result<i64> {
    match scrape(addr, TelemetryReq::ClockProbe)? {
        TelemetryResp::Clock { offset_ns } => Ok(offset_ns),
        other => Err(unexpected("clock probe", other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sirep_common::wire::{Wire, WireError};
    use sirep_common::{EventKind, GaugeReading, GaugeSnapshot, GlobalTid, Metrics};
    use sirep_common::{StageSnapshot, TransportSnapshot, XactId};
    use sirep_core::{AuditKind, AuditViolation, ClusterConfig, Connection, NodeStatus};
    use std::io::{Read as _, Write as _};
    use std::net::TcpListener;
    use std::thread;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_wire();
        let back = T::from_wire(&bytes).expect("decode");
        assert_eq!(&back, v);
        assert_eq!(back.to_wire(), bytes, "re-encode must be bit-identical");
        for cut in 0..bytes.len() {
            assert!(T::from_wire(&bytes[..cut]).is_err(), "truncation at {cut} must fail");
        }
    }

    /// Round trip by wire-form equality, for types without `PartialEq`.
    fn round_trip_bytes<T: Wire + std::fmt::Debug>(v: &T) {
        let bytes = v.to_wire();
        let back = T::from_wire(&bytes).expect("decode");
        assert_eq!(back.to_wire(), bytes, "re-encode must be bit-identical");
        for cut in 0..bytes.len() {
            assert!(T::from_wire(&bytes[..cut]).is_err(), "truncation at {cut} must fail");
        }
    }

    /// `v`'s encoding as hex: the golden assertions pin the layout, which
    /// a round trip alone cannot (it passes when both sides change).
    fn hex<T: Wire>(v: &T) -> String {
        v.to_wire().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A status with a distinct value in every field it encodes itself.
    fn fixed_status() -> NodeStatus {
        NodeStatus {
            replica: ReplicaId::new(1),
            alive: true,
            last_validated: GlobalTid::new(41),
            queued: 2,
            pending_local: 3,
            holes_open: false,
            running_locals: 4,
            waiting_to_start: 5,
            view: vec![ReplicaId::new(0), ReplicaId::new(1)],
            metrics: Metrics::new(),
            stages: StageSnapshot::default(),
            gauges: GaugeSnapshot {
                tocommit_depth: GaugeReading { current: 6, high_water: 7 },
                partitioned: GaugeReading { current: 8, high_water: 9 },
                ..GaugeSnapshot::default()
            },
            transport: TransportSnapshot {
                frames_in: 10,
                evictions: 11,
                recv_queue: GaugeReading { current: 12, high_water: 13 },
                ..TransportSnapshot::default()
            },
        }
    }

    #[test]
    fn request_frames_round_trip() {
        let reqs = [TelemetryReq::Report, TelemetryReq::Journal, TelemetryReq::ClockProbe];
        for req in reqs {
            round_trip(&req);
        }
        assert_eq!(reqs.map(|req| hex(&req)).concat(), "010305");
        for retired in [0, 2, 4, 6] {
            let got = TelemetryReq::from_wire(&[retired]);
            assert_eq!(got, Err(WireError::Corrupt("telemetry req tag")));
        }
    }

    #[test]
    fn response_frames_round_trip() {
        // Use a live (sim) cluster so the payloads carry real shapes.
        let cluster = Cluster::new(ClusterConfig::builder().replicas(2).build());
        cluster.execute_ddl("CREATE TABLE t (a INT, PRIMARY KEY (a))").unwrap();
        let mut s = cluster.session(0);
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        s.commit().unwrap();
        assert!(cluster.quiesce(Duration::from_secs(5)));

        round_trip_bytes(&TelemetryResp::Report(Box::new(cluster.metrics())));
        round_trip_bytes(&TelemetryResp::Journal(cluster.journal_events()));
        round_trip_bytes(&TelemetryResp::Clock { offset_ns: -1_234_567 });
        round_trip_bytes(&TelemetryResp::Err("sequencer unreachable".into()));
        for retired in [0, 2, 4, 7] {
            let got = TelemetryResp::from_wire(&[retired]);
            assert!(matches!(got, Err(WireError::Corrupt("telemetry resp tag"))), "{retired}");
        }

        // Golden bytes, one value per variant. `Metrics` and `StageSnapshot`
        // are pinned by their own tests; here they are what they encode to.
        let (metrics, stages) = (hex(&Metrics::new()), hex(&StageSnapshot::default()));
        let status = fixed_status();
        let status_hex = [
            "0100000000000000",
            "01",
            "2900000000000000",
            "0200000000000000",
            "0300000000000000",
            "00",
            "0400000000000000",
            "0500000000000000",
            "02000000",
            "0000000000000000",
            "0100000000000000",
            &metrics,
            &stages,
            "06000000000000000700000000000000",
            "00000000000000000000000000000000",
            "00000000000000000000000000000000",
            "00000000000000000000000000000000",
            "00000000000000000000000000000000",
            "00000000000000000000000000000000",
            "00000000000000000000000000000000",
            "00000000000000000000000000000000",
            "08000000000000000900000000000000",
            "0a00000000000000",
            "0000000000000000",
            "0000000000000000",
            "0000000000000000",
            "0000000000000000",
            "0000000000000000",
            "0b00000000000000",
            "00000000000000000000000000000000",
            "0c000000000000000d00000000000000",
        ]
        .concat();
        assert_eq!(hex(&status), status_hex);
        let kinds = [
            AuditKind::CommitOrderDivergence,
            AuditKind::FirstCommitterWins,
            AuditKind::HoleSyncViolation,
            AuditKind::PruneWatermarkViolation,
        ];
        let violations = kinds.map(|kind| AuditViolation {
            kind,
            replica: ReplicaId::new(2),
            detail: "d".into(),
        });
        let report = ClusterReport::from_statuses(vec![status], violations.to_vec());
        let resp = TelemetryResp::Report(Box::new(report));
        round_trip_bytes(&resp);
        assert_eq!(
            hex(&resp),
            [
                "01",
                &metrics,
                &stages,
                "06000000000000000700000000000000",
                "00000000000000000000000000000000",
                "00000000000000000000000000000000",
                "00000000000000000000000000000000",
                "00000000000000000000000000000000",
                "00000000000000000000000000000000",
                "00000000000000000000000000000000",
                "00000000000000000000000000000000",
                "08000000000000000900000000000000",
                "04000000",
                "00",
                "0200000000000000",
                "01000000",
                "64",
                "01",
                "0200000000000000",
                "01000000",
                "64",
                "02",
                "0200000000000000",
                "01000000",
                "64",
                "03",
                "0200000000000000",
                "01000000",
                "64",
                "0a00000000000000",
                "0000000000000000",
                "0000000000000000",
                "0000000000000000",
                "0000000000000000",
                "0000000000000000",
                "0b00000000000000",
                "00000000000000000000000000000000",
                "0c000000000000000d00000000000000",
                "01000000",
                &status_hex
            ]
            .concat()
        );
        let commit =
            EventKind::Commit { xact: XactId::new(ReplicaId::new(1), 5), tid: GlobalTid::new(6) };
        let event = Event { seq: 3, at_ns: 4, replica: ReplicaId::new(1), kind: commit };
        let resp = TelemetryResp::Journal(vec![(ReplicaId::new(1), vec![event])]);
        round_trip_bytes(&resp);
        assert_eq!(
            hex(&resp),
            concat!(
                "03",
                "01000000",
                "0100000000000000",
                "01000000",
                "0300000000000000",
                "0400000000000000",
                "0100000000000000",
                "08",
                "0100000000000000",
                "0500000000000000",
                "0600000000000000"
            )
        );
        let resp = TelemetryResp::Clock { offset_ns: -2 };
        round_trip_bytes(&resp);
        assert_eq!(hex(&resp), "05feffffffffffffff");
        let resp = TelemetryResp::Err("e".into());
        round_trip_bytes(&resp);
        assert_eq!(hex(&resp), "060100000065");
    }

    proptest! {
        #[test]
        fn prop_random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = TelemetryReq::from_wire(&bytes);
            let _ = TelemetryResp::from_wire(&bytes);
        }
    }

    #[test]
    fn end_to_end_scrape_over_sim_cluster() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::builder().replicas(3).build()));
        cluster.execute_ddl("CREATE TABLE t (a INT, PRIMARY KEY (a))").unwrap();
        for i in 0..5 {
            let mut s = cluster.session(i % 3);
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
            s.commit().unwrap();
        }
        assert!(cluster.quiesce(Duration::from_secs(5)));

        let server = TelemetryServer::spawn("127.0.0.1:0", Arc::clone(&cluster)).expect("bind");
        let addr = server.addr().to_string();

        let report = scrape_report(&addr).expect("report");
        assert_eq!(report.commits(), cluster.metrics().commits());
        assert!(report.violations.is_empty());
        assert_eq!(report.per_node.len(), 3);
        assert!(report.per_node.iter().all(|s| s.alive));

        let prom = report.prometheus_text();
        assert!(prom.contains("sirep_commits_update_total"));
        assert!(prom.contains("sirep_transport_frames_in_total"));

        let journals = scrape_journal(&addr).expect("journal");
        assert_eq!(journals.len(), 3);
        assert!(journals.iter().any(|(_, events)| !events.is_empty()));

        assert_eq!(scrape_clock_offset(&addr).expect("clock"), 0, "sim shares one epoch");

        // Several requests on one scraper connection also work.
        let mut stream = TcpStream::connect(&addr).unwrap();
        write_frame(&mut stream, &TelemetryReq::Report).unwrap();
        let _: TelemetryResp = read_frame(&mut stream).unwrap();
        write_frame(&mut stream, &TelemetryReq::Journal).unwrap();
        let _: TelemetryResp = read_frame(&mut stream).unwrap();
    }

    /// A node killed mid-frame must surface as `Err` at the scraper —
    /// never a panic, never a hang (satellite: scrape resilience).
    #[test]
    fn killed_mid_frame_is_an_error_not_a_hang() {
        // A fake "node" that reads the request, then writes a frame header
        // promising 1 MiB and dies after 10 bytes of payload.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let t = thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = [0u8; 64];
            let _ = conn.read(&mut buf);
            let _ = conn.write_all(&(1u32 << 20).to_le_bytes());
            let _ = conn.write_all(&[0u8; 10]);
            // Drop: RST/EOF mid-frame.
        });
        let err = scrape_with_timeout(&addr, TelemetryReq::Report, Duration::from_secs(2))
            .expect_err("truncated frame must error");
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
            ),
            "got {err:?}"
        );
        t.join().unwrap();
    }

    /// A node that accepts and then goes silent must hit the read timeout.
    #[test]
    fn silent_node_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let t = thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            // Hold the connection open, never respond.
            thread::sleep(Duration::from_millis(500));
            drop(conn);
        });
        let start = std::time::Instant::now();
        let err = scrape_with_timeout(&addr, TelemetryReq::Report, Duration::from_millis(100))
            .expect_err("silent node must time out");
        assert!(
            matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
            "got {err:?}"
        );
        assert!(start.elapsed() < Duration::from_secs(2), "timeout must be prompt");
        t.join().unwrap();
    }

    /// Corrupt response bytes decode to `Err` (total decode), and a corrupt
    /// *request* makes the server drop the connection rather than wedge.
    #[test]
    fn corrupt_frames_are_rejected_end_to_end() {
        let cluster = Arc::new(Cluster::new(ClusterConfig::builder().replicas(1).build()));
        let server = TelemetryServer::spawn("127.0.0.1:0", Arc::clone(&cluster)).expect("bind");
        let addr = server.addr().to_string();
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        // Valid length prefix, garbage tag.
        stream.write_all(&1u32.to_le_bytes()).unwrap();
        stream.write_all(&[200u8]).unwrap();
        let mut buf = Vec::new();
        let n = stream.read_to_end(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "server must hang up on a corrupt request, not answer");
    }
}
