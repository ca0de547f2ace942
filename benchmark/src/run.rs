//! One benchmark run: confine everything to one CPU, set up a fresh
//! deployment, warm up, measure for the window (every second of it part load,
//! part host-speed calibration), check correctness, stop everything, and turn
//! what was recorded into the named metrics.

use crate::calibrate::{Ring, MARGIN_NS, SETTLE_NS, SLICE_NS, WORK_NS};
use crate::client::{self, ClientPlan, ClientReport, Sample, Shared};
use crate::deploy::{self, Deployment, StatusDrivers, StatusProbes, REPLICAS};
use crate::probes::{self, ProbeResults};
use crate::procfs::{self, ProcSample};
use crate::stats::{median_f64, quantile, slice_index, supported_quantile};
use crate::workload::{Generator, TxnKind, Workload, ROWS_PER_GROUP};
use sirep_common::Stage;
use sirep_core::ClusterReport;
use sirep_driver::remote::RemoteDriver;
use sirep_driver::telemetry::scrape_report;
use sirep_gcs::query_seq_stats;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Closed-loop clients, one connection each: the second keeps the servers
/// supplied with work while the first is between transactions, and is what
/// makes transactions overlap at all (see the README for why not more).
const CLIENTS: usize = 2;
/// Deployments set up per run; `setup_s` is the median, the last one is the
/// one measured.
const SETUPS_PER_RUN: usize = 3;
/// How long the ring runs after each set-up to calibrate `setup_s`.
const SETUP_CALIBRATION: Duration = Duration::from_millis(150);
/// The host-noise sentinel: a fixed amount of single-thread arithmetic.
const SPIN_ITERS: u64 = 30_000_000;
/// Calibrations further apart than this mark the run `noisy`.
const NOISY_PCT: f64 = 10.0;

pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Every metric the benchmark reports, with its unit: `BENCHMARK.json` must
/// declare exactly these (a unit test holds the two together).
pub const END_TO_END: [(&str, &str); 5] = [
    ("commit_tps", "1/s"),
    ("txn_p50_ms", "ms"),
    ("txn_p95_ms", "ms"),
    ("cpu_us_per_commit", "us"),
    ("setup_s", "s"),
];

pub const PER_LAYER: [(&str, &str); 68] = [
    ("driver.ping_rtt_p50_us", "us"),
    ("driver.exec_update_p50_us", "us"),
    ("driver.exec_select_p50_us", "us"),
    ("driver.commit_update_p50_us", "us"),
    ("driver.commit_update_p95_us", "us"),
    ("driver.commit_readonly_p50_us", "us"),
    ("driver.update_txn_p50_us", "us"),
    ("driver.read_txn_p50_us", "us"),
    ("driver.txn_p99_ms", "ms"),
    ("driver.txn_self_p50_us", "us"),
    ("driver.retries_per_commit", "ratio"),
    ("core.commit_ratio", "ratio"),
    ("core.aborts_validation_per_kcommit", "count"),
    ("core.aborts_serialization_per_kcommit", "count"),
    ("core.aborts_deadlock_per_kcommit", "count"),
    ("core.ws_apply_retries_per_kcommit", "count"),
    ("core.begin_hole_wait_ratio", "ratio"),
    ("core.commits_delayed_for_holes_per_kcommit", "count"),
    ("core.ws_discard_ratio", "ratio"),
    ("core.tocommit_depth_hw", "count"),
    ("core.applier_backlog_hw", "count"),
    ("core.ws_list_len_hw", "count"),
    ("core.stage_begin_wait_p50_us", "us"),
    ("core.stage_execute_p50_us", "us"),
    ("core.stage_ws_extract_p50_us", "us"),
    ("core.stage_gcs_deliver_p50_us", "us"),
    ("core.stage_validate_queue_p50_us", "us"),
    ("core.stage_apply_p50_us", "us"),
    ("core.stage_commit_p50_us", "us"),
    ("core.drain_ms", "ms"),
    ("core.certify_ns", "ns"),
    ("core.commit_inproc_p50_us", "us"),
    ("gcs.frames_out_per_commit", "count"),
    ("gcs.frames_in_per_commit", "count"),
    ("gcs.bytes_out_per_commit", "bytes"),
    ("gcs.bytes_in_per_commit", "bytes"),
    ("gcs.ws_per_frame_in", "ratio"),
    ("gcs.recv_queue_hw", "count"),
    ("gcs.pending_sends_hw", "count"),
    ("gcs.seq_log_frames_per_commit", "count"),
    ("gcs.seq_rtt_p50_us", "us"),
    ("gcs.seq_msgs_per_s", "1/s"),
    ("sql.parse_ns", "ns"),
    ("sql.exec_update_ns", "ns"),
    ("sql.exec_select_ns", "ns"),
    ("storage.read_ns", "ns"),
    ("storage.update_commit_ns", "ns"),
    ("storage.commit_ns", "ns"),
    ("storage.ws_extract_ns", "ns"),
    ("storage.apply_ws_ns", "ns"),
    ("common.wire_ws_encode_ns", "ns"),
    ("common.wire_ws_decode_ns", "ns"),
    ("common.wire_ws_bytes", "bytes"),
    ("common.wire_exec_roundtrip_ns", "ns"),
    ("cluster.seq_cpu_us_per_commit", "us"),
    ("cluster.node_cpu_us_per_commit", "us"),
    ("cluster.client_cpu_us_per_commit", "us"),
    ("cluster.cpu_busy_pct", "pct"),
    ("cluster.seq_ctxsw_per_commit", "count"),
    ("cluster.node_ctxsw_per_commit", "count"),
    ("cluster.seq_threads", "count"),
    ("cluster.node_threads", "count"),
    ("cluster.seq_rss_bytes_per_commit", "bytes"),
    ("cluster.node_rss_bytes_per_commit", "bytes"),
    ("cluster.unattributed_us", "us"),
    ("cluster.trace_overhead_pct", "pct"),
    ("cluster.host_noise_pct", "pct"),
    ("cluster.host_speed", "ratio"),
];

fn metric(name: &'static str, value: f64) -> Metric {
    let (_, unit) = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the declared tables"));
    Metric { name, unit, value }
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// What the result line carries: the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub metrics: Vec<Metric>,
    /// The end-to-end metrics per one-second slice of the window — the
    /// spread inside this one run.
    pub slices: Vec<SliceSeries>,
    pub host_noise_pct: f64,
    pub noisy: bool,
    pub clients: usize,
    /// CPUs the benchmark was allowed to use, and the one of them it
    /// confined itself and the servers to.
    pub cores: usize,
    pub pinned_cpu: usize,
    /// Traced runs: the commit-time budget, ready to print.
    pub budget: Option<String>,
    pub spans_json: Option<String>,
    pub first_failure: Option<String>,
}

/// One metric, one value per one-second slice of the measured window.
pub struct SliceSeries {
    pub name: &'static str,
    pub unit: &'static str,
    pub values: Vec<f64>,
}

fn spin_ms() -> f64 {
    let t = Instant::now();
    let mut x = 1u64;
    for _ in 0..SPIN_ITERS {
        x = black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// What the coordinator records in each one-second slice of the window.
#[derive(Debug, Default)]
struct SliceWatch {
    /// Server CPU time (sequencer + nodes, user + system, microseconds)
    /// consumed in the slice.
    server_cpu_us: Vec<f64>,
    /// The ring's rate in the slice's calibration part, relative to the
    /// reference machine.
    host_speed: Vec<f64>,
    /// CPU time of this process spent turning the ring over the whole
    /// window: not the load generator's, so taken off the client's account.
    ring_cpu_us: f64,
}

/// The coordinator's part of the window: sleep through each second's load,
/// turn the calibration ring while the clients pause, and read the servers'
/// CPU time at the slice boundary.
fn watch_window(
    dep: &Deployment,
    ring: &mut Ring,
    clk_tck: u64,
    opened: Instant,
    seconds: u64,
) -> Result<SliceWatch, String> {
    let server_cpu = || -> Result<f64, String> {
        let mut total = procfs::cpu_us(dep.seq_pid(), clk_tck)?;
        for pid in dep.node_pids() {
            total += procfs::cpu_us(pid, clk_tck)?;
        }
        Ok(total)
    };
    let own_cpu = || procfs::cpu_us(std::process::id(), clk_tck);
    let sleep_until = |ns: u64| {
        std::thread::sleep(
            (opened + Duration::from_nanos(ns)).saturating_duration_since(Instant::now()),
        );
    };
    let mut watch = SliceWatch::default();
    let mut at_edge = server_cpu()?;
    for slice in 0..seconds {
        let slice_start = slice * SLICE_NS;
        sleep_until(slice_start + WORK_NS + SETTLE_NS);
        let before = own_cpu()?;
        let ring_until = opened + Duration::from_nanos(slice_start + SLICE_NS - MARGIN_NS);
        watch.host_speed.push(ring.host_speed_until(ring_until)?);
        watch.ring_cpu_us += own_cpu()? - before;
        sleep_until(slice_start + SLICE_NS);
        let now = server_cpu()?;
        watch.server_cpu_us.push(now - at_edge);
        at_edge = now;
    }
    Ok(watch)
}

/// What is sampled at each edge of the measured window.
struct Edge {
    seq: ProcSample,
    nodes: Vec<ProcSample>,
    client: ProcSample,
    /// Traced runs only: the merged scrape of the three nodes, and the
    /// sequencer's replay-log length.
    scraped: Option<(ClusterReport, u64)>,
}

fn sample_edge(dep: &Deployment, clk_tck: u64, trace: bool) -> Result<Edge, String> {
    let seq = procfs::sample(dep.seq_pid(), clk_tck)?;
    let nodes = dep
        .node_pids()
        .into_iter()
        .map(|p| procfs::sample(p, clk_tck))
        .collect::<Result<_, _>>()?;
    let client = procfs::sample(std::process::id(), clk_tck)?;
    let scraped = if trace {
        let mut merged: Option<ClusterReport> = None;
        for addr in &dep.telemetry_addrs {
            let report = scrape_report(addr).map_err(|e| format!("scraping {addr}: {e}"))?;
            match merged.as_mut() {
                None => merged = Some(report),
                Some(m) => m.absorb(report),
            }
        }
        let stats = query_seq_stats(&dep.seq_addr).map_err(|e| format!("sequencer stats: {e}"))?;
        Some((merged.expect("three nodes"), stats.log_len))
    } else {
        None
    };
    Ok(Edge { seq, nodes, client, scraped })
}

pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    let bin = deploy::build_cluster_binary()?;
    // Everything from here on — servers, clients, probes — runs on one CPU,
    // the highest-numbered one allowed (CPU 0 also serves the guest's
    // housekeeping). With the processes free to move between CPUs, where the
    // scheduler happens to put two threads that talk to each other decides
    // the result: a loopback round trip costs 7 us on one CPU and 43 us
    // across two on this machine. The build above is not confined.
    let allowed = procfs::allowed_cpus()?;
    let cores = allowed.len();
    let pinned_cpu = *allowed.last().expect("allowed_cpus is never empty");
    procfs::pin_to_cpu(pinned_cpu)?;
    let clients = CLIENTS;
    let clk_tck = procfs::clk_tck();
    let window = Duration::from_secs(opts.seconds);
    let warmup = Duration::from_secs_f64((opts.seconds as f64 / 3.0).min(3.0));

    let spin_before = spin_ms();
    let mut ring = Ring::start()?;
    let mut setup_s = Vec::new();
    let mut deployment = None;
    for _ in 0..SETUPS_PER_RUN {
        // Stop the previous deployment before starting the next, so every
        // set-up has the machine to itself.
        drop(deployment.take());
        let (dep, secs) = deploy::setup(&bin, clients)?;
        // Like the window's metrics, at the reference machine's speed.
        setup_s.push(secs * ring.host_speed_until(Instant::now() + SETUP_CALIBRATION)?);
        deployment = Some(dep);
    }
    let dep = deployment.expect("SETUPS_PER_RUN >= 1");

    let status_drivers = StatusDrivers::new(&dep);
    let mut status = StatusProbes::over(&status_drivers)?;
    let drivers: Vec<RemoteDriver> =
        (0..clients).map(|c| RemoteDriver::new(dep.addrs_for_client(c))).collect();
    let mut conns = Vec::new();
    for (c, driver) in drivers.iter().enumerate() {
        let mut conn = driver.connect().map_err(|e| format!("client {c}: {e}"))?;
        conn.set_autocommit(false).map_err(|e| format!("client {c}: {e}"))?;
        conns.push(conn);
    }
    let shared = Shared {
        warmed_up: Barrier::new(clients + 1),
        open: Barrier::new(clients + 1),
        opened: OnceLock::new(),
        stop: AtomicBool::new(false),
    };
    let (edges, reports) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let plan = ClientPlan {
                    workload: opts.workload,
                    seed: opts.seed,
                    client: c,
                    warmup,
                    window,
                    trace: opts.trace,
                };
                let shared = &shared;
                scope.spawn(move || client::run_client(&plan, &mut conn, shared))
            })
            .collect();
        shared.warmed_up.wait();
        let opening = sample_edge(&dep, clk_tck, opts.trace);
        if opening.is_err() {
            shared.stop.store(true, Ordering::Relaxed);
        }
        let opened = Instant::now();
        shared.opened.set(opened).expect("set once");
        shared.open.wait();
        let edges = opening.and_then(|opening| {
            let watch = watch_window(&dep, &mut ring, clk_tck, opened, opts.seconds)?;
            Ok((opening, sample_edge(&dep, clk_tck, opts.trace)?, watch))
        });
        shared.stop.store(true, Ordering::Relaxed);
        let reports: Vec<ClientReport> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (edges, reports)
    });
    let (opening, closing, watch) = edges?;
    drop(ring);

    let last_ack = reports.iter().filter_map(|r| r.last_ack).max();
    status.await_convergence(Duration::from_secs(30))?;
    let drain_ms = last_ack.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);

    let updates_ever: u64 = reports.iter().map(|r| r.updates_committed_ever).sum();
    let balance_delta = match opts.workload {
        Workload::MixedRw10 => (ROWS_PER_GROUP * updates_ever) as i64,
        _ => 0,
    };
    let gate = deploy::correctness_gate(&dep, &mut status, balance_delta);
    drop(status);
    drop(dep);
    let spin_after = spin_ms();
    let host_noise_pct = (spin_after - spin_before).abs() / spin_before.min(spin_after) * 100.0;

    let samples: Vec<Sample> = reports.iter().flat_map(|r| r.samples.iter().copied()).collect();
    let attempted = samples.len() as u64;
    let failed = samples.iter().filter(|s| !s.committed).count() as u64;
    let first_failure = gate
        .as_ref()
        .err()
        .cloned()
        .or_else(|| reports.iter().find_map(|r| r.first_failure.clone()));
    let cpu = CpuView::new(&opening, &closing, watch.ring_cpu_us);
    let window_view = WindowView::new(&samples, watch);

    let (metrics, budget) = if opts.trace {
        let probe_results = probes::run_all(opts.workload, opts.seed)?;
        let layer = LayerInputs {
            workload: opts.workload,
            seed: opts.seed,
            window: &window_view,
            cpu: &cpu,
            opening: &opening,
            closing: &closing,
            reports: &reports,
            probes: &probe_results,
            drain_ms,
            host_noise_pct,
        };
        let (m, b) = layer_metrics(&layer);
        (m, Some(b))
    } else {
        (end_to_end_metrics(&window_view, median_f64(&setup_s)), None)
    };

    Ok(RunResult {
        correct: first_failure.is_none() && failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        slices: window_view.slice_series(),
        host_noise_pct,
        noisy: host_noise_pct > NOISY_PCT,
        clients,
        cores,
        pinned_cpu,
        budget,
        spans_json: opts.trace.then(|| client::chrome_trace_json(&reports)),
        first_failure,
    })
}

/// The measured window: what the clients saw, and what the coordinator
/// recorded beside them, per one-second slice.
struct WindowView {
    commits: u64,
    /// Latencies of committed transactions, ascending.
    latency_ns: Vec<u64>,
    /// Per slice: the latencies of the transactions committed in it,
    /// ascending.
    slices: Vec<Vec<u64>>,
    retries: u64,
    watch: SliceWatch,
}

/// The part of each slice the clients load the deployment for, in seconds.
const WORK_S: f64 = WORK_NS as f64 / 1e9;

impl WindowView {
    fn new(samples: &[Sample], watch: SliceWatch) -> WindowView {
        let mut slices = vec![Vec::new(); watch.host_speed.len()];
        let mut latency_ns = Vec::with_capacity(samples.len());
        let mut retries = 0;
        for s in samples.iter().filter(|s| s.committed) {
            latency_ns.push(s.latency_ns);
            retries += u64::from(s.retries);
            if let Some(k) = slice_index(s.end_ns, SLICE_NS, slices.len()) {
                slices[k].push(s.latency_ns);
            }
        }
        latency_ns.sort_unstable();
        for s in &mut slices {
            s.sort_unstable();
        }
        WindowView { commits: latency_ns.len() as u64, latency_ns, slices, retries, watch }
    }

    // The end-to-end metrics are each computed per slice, brought to the
    // reference machine's speed with that slice's calibration (a rate is
    // divided by `host_speed`, a time multiplied), and reported as the median
    // over the slices. Per slice, because the host changes speed within a
    // run; the median, because one stalled or disturbed second should not
    // move the result. Slices without a commit have no latency or CPU cost
    // and are left out of those (the stall shows in `commit_tps`).

    /// Commits per second of load in each slice.
    fn slice_tps(&self) -> Vec<f64> {
        self.slices
            .iter()
            .zip(&self.watch.host_speed)
            .map(|(s, speed)| s.len() as f64 / WORK_S / speed)
            .collect()
    }

    /// A latency quantile of each slice, in ms (`None` without a commit);
    /// the ten-samples-beyond rule applies per slice.
    fn slice_latency_ms(&self, q: f64) -> Vec<Option<f64>> {
        self.slices
            .iter()
            .zip(&self.watch.host_speed)
            .map(|(s, speed)| {
                (!s.is_empty()).then(|| supported_quantile(s, q).0 as f64 / 1e6 * speed)
            })
            .collect()
    }

    /// Server CPU per commit of each slice, in us (`None` without a commit).
    fn slice_cpu_us_per_commit(&self) -> Vec<Option<f64>> {
        self.slices
            .iter()
            .zip(self.watch.server_cpu_us.iter().zip(&self.watch.host_speed))
            .map(|(s, (cpu_us, speed))| (!s.is_empty()).then(|| cpu_us / s.len() as f64 * speed))
            .collect()
    }

    fn host_speed(&self) -> f64 {
        median_f64(&self.watch.host_speed)
    }

    /// The pooled median as the clients' clocks saw it, not brought to the
    /// reference speed: what the budget's probe components add up to.
    fn raw_p50_us(&self) -> f64 {
        quantile(&self.latency_ns, 0.5) as f64 / 1e3
    }

    /// The per-slice values behind the metrics, one per second of the
    /// window (0 where a slice has no commit).
    fn slice_series(&self) -> Vec<SliceSeries> {
        let or_zero = |v: Vec<Option<f64>>| v.into_iter().map(|x| x.unwrap_or(0.0)).collect();
        vec![
            SliceSeries { name: "commit_tps", unit: "1/s", values: self.slice_tps() },
            SliceSeries {
                name: "txn_p50_ms",
                unit: "ms",
                values: or_zero(self.slice_latency_ms(0.5)),
            },
            SliceSeries {
                name: "txn_p95_ms",
                unit: "ms",
                values: or_zero(self.slice_latency_ms(0.95)),
            },
            SliceSeries {
                name: "cpu_us_per_commit",
                unit: "us",
                values: or_zero(self.slice_cpu_us_per_commit()),
            },
            SliceSeries {
                name: "host_speed",
                unit: "ratio",
                values: self.watch.host_speed.clone(),
            },
        ]
    }
}

/// CPU time the window cost, per process role, in µs, as the guest's clock
/// counted it.
struct CpuView {
    seq_us: f64,
    nodes_us: f64,
    /// The load generator's: this process, less the calibration ring.
    client_us: f64,
}

impl CpuView {
    fn new(opening: &Edge, closing: &Edge, ring_cpu_us: f64) -> CpuView {
        CpuView {
            seq_us: closing.seq.cpu_us - opening.seq.cpu_us,
            nodes_us: closing
                .nodes
                .iter()
                .zip(&opening.nodes)
                .map(|(c, o)| c.cpu_us - o.cpu_us)
                .sum(),
            client_us: (closing.client.cpu_us - opening.client.cpu_us - ring_cpu_us).max(0.0),
        }
    }
}

fn end_to_end_metrics(w: &WindowView, setup_s: f64) -> Vec<Metric> {
    let median_of = |v: Vec<Option<f64>>| median_f64(&v.into_iter().flatten().collect::<Vec<_>>());
    vec![
        metric("commit_tps", median_f64(&w.slice_tps())),
        metric("txn_p50_ms", median_of(w.slice_latency_ms(0.5))),
        metric("txn_p95_ms", median_of(w.slice_latency_ms(0.95))),
        metric("cpu_us_per_commit", median_of(w.slice_cpu_us_per_commit())),
        metric("setup_s", setup_s),
    ]
}

struct LayerInputs<'a> {
    workload: Workload,
    seed: u64,
    window: &'a WindowView,
    cpu: &'a CpuView,
    opening: &'a Edge,
    closing: &'a Edge,
    reports: &'a [ClientReport],
    probes: &'a ProbeResults,
    drain_ms: f64,
    host_noise_pct: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn p_us(values: impl Iterator<Item = u64>, q: f64) -> f64 {
    let mut v: Vec<u64> = values.collect();
    v.sort_unstable();
    quantile(&v, q) as f64 / 1e3
}

/// The components of one median transaction, as the probes price them.
fn budget_components(
    workload: Workload,
    seed: u64,
    ping_us: f64,
    p: &ProbeResults,
) -> Vec<(String, f64)> {
    let kind = workload.median_kind();
    let mut gen = Generator::new(workload, seed, 0);
    let txn =
        std::iter::repeat_with(|| gen.next_txn()).find(|t| t.kind == kind).expect("kind occurs");
    let stmts = txn.statements.len() as f64;
    let mut parts = vec![
        (format!("driver   {} round trips x ping_rtt_p50", stmts + 1.0), (stmts + 1.0) * ping_us),
        (format!("common   {stmts} x wire_exec_roundtrip"), stmts * p.wire_exec_roundtrip_ns / 1e3),
    ];
    match kind {
        TxnKind::Read => parts.push((
            format!("sql      {stmts} x (parse + exec_select)"),
            stmts * (p.sql_parse_ns + p.sql_exec_select_ns) / 1e3,
        )),
        TxnKind::Update => parts.extend([
            (
                format!("sql      {stmts} x (parse + exec_update)"),
                stmts * (p.sql_parse_ns + p.sql_exec_update_ns) / 1e3,
            ),
            ("storage  ws_extract".into(), p.storage_ws_extract_ns / 1e3),
            (
                "common   wire_ws encode + decode".into(),
                (p.wire_ws_encode_ns + p.wire_ws_decode_ns) / 1e3,
            ),
            ("gcs      seq_rtt_p50".into(), p.gcs_seq_rtt_p50_us),
            ("core     certify".into(), p.core_certify_ns / 1e3),
            ("storage  commit".into(), p.storage_commit_ns / 1e3),
        ]),
    }
    parts
}

fn layer_metrics(i: &LayerInputs<'_>) -> (Vec<Metric>, String) {
    let commits = i.window.commits as f64;
    let kcommits = commits / 1e3;
    let (open_report, open_log) = i.opening.scraped.as_ref().expect("traced run scrapes");
    let (close_report, close_log) = i.closing.scraped.as_ref().expect("traced run scrapes");
    // A named cumulative counter's growth over the window.
    let growth = |pairs: fn(&ClusterReport) -> Vec<(&'static str, u64)>, name: &str| -> f64 {
        let read = |r| pairs(r).iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v);
        (read(close_report) - read(open_report)) as f64
    };
    let counter = |name: &str| growth(|r| r.metrics.counters().to_vec(), name);
    let wire = |name: &str| growth(|r| r.transport.counters().to_vec(), name);
    let server_commits = counter("commits_update") + counter("commits_readonly");
    let aborts =
        counter("aborts_validation") + counter("aborts_serialization") + counter("aborts_deadlock");
    let stage_us = |s: Stage| close_report.stages.median(s) * 1e3;
    let spans = |f: fn(&ClientReport) -> &Vec<u64>, q: f64| {
        p_us(i.reports.iter().flat_map(|r| f(r).iter().copied()), q)
    };
    let txn_us = |kind: TxnKind| {
        p_us(
            i.reports
                .iter()
                .flat_map(|r| &r.samples)
                .filter(|s| s.committed && s.kind == kind)
                .map(|s| s.latency_ns),
            0.5,
        )
    };
    let ping_us = spans(|r| &r.ping_ns, 0.5);

    // Tracing overhead: traced (odd) against untraced (even) slices.
    let tps = i.window.slice_tps();
    let of = |traced: bool| -> Vec<f64> {
        tps.iter()
            .enumerate()
            .filter(|(k, _)| client::slice_is_traced(*k as u64) == traced)
            .map(|(_, v)| *v)
            .collect()
    };
    let (untraced, traced) = (median_f64(&of(false)), median_f64(&of(true)));
    let trace_overhead_pct = ratio(untraced - traced, untraced) * 100.0;

    let p50_us = i.window.raw_p50_us();
    let parts = budget_components(i.workload, i.seed, ping_us, i.probes);
    let explained: f64 = parts.iter().map(|(_, us)| us).sum();
    let unattributed_us = p50_us - explained;
    let mut budget = format!(
        "budget {}: one median ({:?}) transaction, microseconds\n",
        i.workload.name(),
        i.workload.median_kind()
    );
    for (label, us) in &parts {
        budget.push_str(&format!("  {label:<44} {us:>9.2}\n"));
    }
    budget.push_str(&format!("  {:<44} {explained:>9.2}\n", "sum of components"));
    budget.push_str(&format!("  {:<44} {unattributed_us:>9.2}\n", "cluster.unattributed_us"));
    budget.push_str(&format!("  {:<44} {p50_us:>9.2}\n", "txn_p50 (this traced run)"));
    budget.push_str(&format!(
        "  {:<44} {:>9.2}\n",
        "for comparison: core.commit_inproc_p50_us", i.probes.core_commit_inproc_p50_us
    ));

    let seq_growth = |f: fn(&ProcSample) -> f64| f(&i.closing.seq) - f(&i.opening.seq);
    let node_growth = |f: fn(&ProcSample) -> f64| -> f64 {
        i.closing.nodes.iter().zip(&i.opening.nodes).map(|(c, o)| f(c) - f(o)).sum()
    };
    let node_threads =
        i.closing.nodes.iter().map(|n| n.threads as f64).sum::<f64>() / REPLICAS as f64;
    let p = i.probes;
    let (p99, _) = supported_quantile(&i.window.latency_ns, 0.99);

    let metrics = vec![
        metric("driver.ping_rtt_p50_us", ping_us),
        metric("driver.exec_update_p50_us", spans(|r| &r.span_stats.exec_update_ns, 0.5)),
        metric("driver.exec_select_p50_us", spans(|r| &r.span_stats.exec_select_ns, 0.5)),
        metric("driver.commit_update_p50_us", spans(|r| &r.span_stats.commit_update_ns, 0.5)),
        metric("driver.commit_update_p95_us", spans(|r| &r.span_stats.commit_update_ns, 0.95)),
        metric("driver.commit_readonly_p50_us", spans(|r| &r.span_stats.commit_readonly_ns, 0.5)),
        metric("driver.update_txn_p50_us", txn_us(TxnKind::Update)),
        metric("driver.read_txn_p50_us", txn_us(TxnKind::Read)),
        metric("driver.txn_p99_ms", p99 as f64 / 1e6),
        metric("driver.txn_self_p50_us", spans(|r| &r.span_stats.txn_self_ns, 0.5)),
        metric("driver.retries_per_commit", ratio(i.window.retries as f64, commits)),
        metric("core.commit_ratio", ratio(server_commits, server_commits + aborts)),
        metric("core.aborts_validation_per_kcommit", ratio(counter("aborts_validation"), kcommits)),
        metric(
            "core.aborts_serialization_per_kcommit",
            ratio(counter("aborts_serialization"), kcommits),
        ),
        metric("core.aborts_deadlock_per_kcommit", ratio(counter("aborts_deadlock"), kcommits)),
        metric("core.ws_apply_retries_per_kcommit", ratio(counter("ws_apply_retries"), kcommits)),
        metric(
            "core.begin_hole_wait_ratio",
            ratio(counter("begins_delayed_by_holes"), counter("begins_total")),
        ),
        metric(
            "core.commits_delayed_for_holes_per_kcommit",
            ratio(counter("commits_delayed_for_holes"), kcommits),
        ),
        metric("core.ws_discard_ratio", ratio(counter("ws_discarded"), counter("ws_delivered"))),
        metric("core.tocommit_depth_hw", close_report.gauges.tocommit_depth.high_water as f64),
        metric("core.applier_backlog_hw", close_report.gauges.applier_backlog.high_water as f64),
        metric("core.ws_list_len_hw", close_report.gauges.ws_list_len.high_water as f64),
        metric("core.stage_begin_wait_p50_us", stage_us(Stage::BeginWait)),
        metric("core.stage_execute_p50_us", stage_us(Stage::Execute)),
        metric("core.stage_ws_extract_p50_us", stage_us(Stage::WsExtract)),
        metric("core.stage_gcs_deliver_p50_us", stage_us(Stage::GcsDeliver)),
        metric("core.stage_validate_queue_p50_us", stage_us(Stage::ValidateQueue)),
        metric("core.stage_apply_p50_us", stage_us(Stage::Apply)),
        metric("core.stage_commit_p50_us", stage_us(Stage::Commit)),
        metric("core.drain_ms", i.drain_ms),
        metric("core.certify_ns", p.core_certify_ns),
        metric("core.commit_inproc_p50_us", p.core_commit_inproc_p50_us),
        metric("gcs.frames_out_per_commit", ratio(wire("frames_out"), commits)),
        metric("gcs.frames_in_per_commit", ratio(wire("frames_in"), commits)),
        metric("gcs.bytes_out_per_commit", ratio(wire("bytes_out"), commits)),
        metric("gcs.bytes_in_per_commit", ratio(wire("bytes_in"), commits)),
        metric("gcs.ws_per_frame_in", ratio(counter("ws_delivered"), wire("frames_in"))),
        metric("gcs.recv_queue_hw", close_report.transport.recv_queue.high_water as f64),
        metric("gcs.pending_sends_hw", close_report.transport.pending_sends.high_water as f64),
        metric(
            "gcs.seq_log_frames_per_commit",
            ratio(*close_log as f64 - *open_log as f64, commits),
        ),
        metric("gcs.seq_rtt_p50_us", p.gcs_seq_rtt_p50_us),
        metric("gcs.seq_msgs_per_s", p.gcs_seq_msgs_per_s),
        metric("sql.parse_ns", p.sql_parse_ns),
        metric("sql.exec_update_ns", p.sql_exec_update_ns),
        metric("sql.exec_select_ns", p.sql_exec_select_ns),
        metric("storage.read_ns", p.storage_read_ns),
        metric("storage.update_commit_ns", p.storage_update_commit_ns),
        metric("storage.commit_ns", p.storage_commit_ns),
        metric("storage.ws_extract_ns", p.storage_ws_extract_ns),
        metric("storage.apply_ws_ns", p.storage_apply_ws_ns),
        metric("common.wire_ws_encode_ns", p.wire_ws_encode_ns),
        metric("common.wire_ws_decode_ns", p.wire_ws_decode_ns),
        metric("common.wire_ws_bytes", p.wire_ws_bytes),
        metric("common.wire_exec_roundtrip_ns", p.wire_exec_roundtrip_ns),
        metric("cluster.seq_cpu_us_per_commit", ratio(i.cpu.seq_us, commits)),
        metric("cluster.node_cpu_us_per_commit", ratio(i.cpu.nodes_us, commits)),
        metric("cluster.client_cpu_us_per_commit", ratio(i.cpu.client_us, commits)),
        // Of the one CPU everything is confined to, over the loaded part of
        // the window.
        metric(
            "cluster.cpu_busy_pct",
            (i.cpu.seq_us + i.cpu.nodes_us + i.cpu.client_us)
                / (i.window.slices.len() as f64 * WORK_S * 1e6)
                * 100.0,
        ),
        metric("cluster.seq_ctxsw_per_commit", ratio(seq_growth(|s| s.ctxsw as f64), commits)),
        metric("cluster.node_ctxsw_per_commit", ratio(node_growth(|s| s.ctxsw as f64), commits)),
        metric("cluster.seq_threads", i.closing.seq.threads as f64),
        metric("cluster.node_threads", node_threads),
        metric(
            "cluster.seq_rss_bytes_per_commit",
            ratio(seq_growth(|s| s.rss_bytes as f64), commits),
        ),
        metric(
            "cluster.node_rss_bytes_per_commit",
            ratio(node_growth(|s| s.rss_bytes as f64), commits),
        ),
        metric("cluster.unattributed_us", unattributed_us),
        metric("cluster.trace_overhead_pct", trace_overhead_pct),
        metric("cluster.host_noise_pct", i.host_noise_pct),
        metric("cluster.host_speed", i.window.host_speed()),
    ];
    assert_eq!(metrics.len(), PER_LAYER.len(), "a declared per-layer metric was not computed");
    (metrics, budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(second: u64, n: u64, latency_us: u64, committed: bool) -> Vec<Sample> {
        (0..n)
            .map(|i| Sample {
                end_ns: second * SLICE_NS + i * 1_000,
                latency_ns: latency_us * 1_000,
                kind: TxnKind::Read,
                retries: 1,
                committed,
            })
            .collect()
    }

    #[test]
    fn window_metrics_are_slice_medians_at_the_reference_speed() {
        // Second 0: the host runs at the reference speed. Second 1: at half
        // of it, so half the commits get through, each taking twice the time
        // and the CPU. Second 2: a stall.
        let mut all = samples(0, 160, 20, true);
        all.extend(samples(1, 80, 40, true));
        all.extend(samples(1, 7, 500, false));
        let watch = SliceWatch {
            server_cpu_us: vec![3_200.0, 3_200.0, 0.0],
            host_speed: vec![1.0, 0.5, 1.0],
            ring_cpu_us: 0.0,
        };
        let w = WindowView::new(&all, watch);
        assert_eq!((w.commits, w.retries), (240, 240));
        // 160 commits in 0.8 s of load; 80 in 0.8 s at half speed.
        assert_eq!(w.slice_tps(), [200.0, 200.0, 0.0]);
        assert_eq!(w.slice_latency_ms(0.5), [Some(0.020), Some(0.020), None]);
        assert_eq!(w.slice_cpu_us_per_commit(), [Some(20.0), Some(20.0), None]);
        assert_eq!(w.raw_p50_us(), 20.0);
        let value = |name: &str| {
            let metrics = end_to_end_metrics(&w, 0.5);
            metrics.iter().find(|m| m.name == name).expect("declared").value
        };
        // The stalled second is outvoted in throughput and has no say in
        // the latency.
        assert_eq!(value("commit_tps"), 200.0);
        assert_eq!(value("txn_p95_ms"), 0.020);
        assert_eq!(value("cpu_us_per_commit"), 20.0);
        let series = w.slice_series();
        let by_name = |n: &str| &series.iter().find(|s| s.name == n).expect("series").values;
        assert_eq!(by_name("txn_p50_ms"), &[0.020, 0.020, 0.0]);
        assert_eq!(by_name("host_speed"), &[1.0, 0.5, 1.0]);
    }

    #[test]
    fn every_declared_metric_has_a_unit_and_a_unique_name() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert_eq!(metric("setup_s", 1.5).unit, "s");
    }
}
