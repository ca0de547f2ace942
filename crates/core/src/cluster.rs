//! Cluster assembly: N middleware/database replica pairs over one group.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::audit::{history_from_journals, AuditViolation, Auditor, History, HistoryGap};
use crate::chaos::{CrashPlan, PausePoint};
use crate::msg::ReplMsg;
use crate::node::{NodeStatus, ReplicaNode, ReplicationMode};
use crate::session::Session;
use parking_lot::{Mutex, RwLock};
use sirep_common::{
    CrashPoint, DbError, Event, GaugeSnapshot, JournalWriter, MemberId, Metrics, ReplicaId,
    StageSnapshot, TransportSnapshot, DEFAULT_JOURNAL_CAPACITY,
};
use sirep_gcs::{FaultConfig, Group, GroupConfig, Member, SimGroup, TcpGroup, NETWORK_REPLICA};
use sirep_storage::{CostModel, Database};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which GCS backend carries the cluster's replication traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// The in-process simulated network: deterministic, model-time latency,
    /// seeded fault plans. The correctness/chaos tier.
    Sim,
    /// Real sockets through the sequencer service at `sequencer`
    /// (`"host:port"`). A multinode deployment runs one single-replica
    /// cluster per process, each with its own
    /// [`ClusterConfig::first_replica`]. Fault plans and partitions are
    /// no-ops on this transport.
    Tcp { sequencer: String },
}

/// Configuration for an SRCA-Rep / SRCA-Opt cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub replicas: usize,
    pub mode: ReplicationMode,
    /// Database service-time model (shared by all replicas).
    pub cost: CostModel,
    /// Group communication latency model.
    pub gcs: GroupConfig,
    /// Which transport backend carries replication traffic.
    pub transport: Transport,
    /// Logical replica id of this cluster's first node — nonzero only for
    /// multinode TCP deployments, where each process hosts a slice of the
    /// group.
    pub first_replica: u64,
    /// Applier threads per replica (step III concurrency).
    pub appliers: usize,
    /// Track reads, so the journals carry the readsets of Def. 3's history
    /// ([`Cluster::collect_history`]).
    pub track_history: bool,
    /// DDL every replica's database starts with, installed before the
    /// replica joins the group's delivery stream.
    pub schema: Vec<String>,
}

impl ClusterConfig {
    /// Start building a configuration. Defaults match [`Default`]: one
    /// replica, full SRCA-Rep, instantaneous cost/GCS models.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder { cfg: ClusterConfig::default() }
    }
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            replicas: 1,
            mode: ReplicationMode::SrcaRep,
            cost: CostModel::free(),
            gcs: GroupConfig::instant(),
            transport: Transport::Sim,
            first_replica: 0,
            appliers: 2,
            track_history: false,
            schema: Vec::new(),
        }
    }
}

/// Fluent construction for [`ClusterConfig`]:
///
/// ```
/// use sirep_core::{ClusterConfig, ReplicationMode};
///
/// let cfg = ClusterConfig::builder()
///     .replicas(5)
///     .mode(ReplicationMode::SrcaRep)
///     .appliers(4)
///     .build();
/// assert_eq!(cfg.replicas, 5);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
}

impl ClusterConfigBuilder {
    pub fn replicas(mut self, n: usize) -> Self {
        self.cfg.replicas = n;
        self
    }

    pub fn mode(mut self, mode: ReplicationMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Database service-time model shared by all replicas.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cfg.cost = cost;
        self
    }

    /// Group communication latency model.
    pub fn gcs(mut self, gcs: GroupConfig) -> Self {
        self.cfg.gcs = gcs;
        self
    }

    /// Which transport backend carries replication traffic (default:
    /// [`Transport::Sim`]).
    pub fn transport(mut self, transport: Transport) -> Self {
        self.cfg.transport = transport;
        self
    }

    /// Logical replica id of this cluster's first node (multinode TCP
    /// deployments; default 0).
    pub fn first_replica(mut self, first: u64) -> Self {
        self.cfg.first_replica = first;
        self
    }

    /// Applier threads per replica (step III concurrency).
    pub fn appliers(mut self, n: usize) -> Self {
        self.cfg.appliers = n;
        self
    }

    /// Track reads, so the journals carry the readsets of Def. 3's history
    /// ([`Cluster::collect_history`]).
    pub fn track_history(mut self, on: bool) -> Self {
        self.cfg.track_history = on;
        self
    }

    /// One more DDL statement of the schema every replica starts with.
    pub fn schema(mut self, ddl: impl Into<String>) -> Self {
        self.cfg.schema.push(ddl.into());
        self
    }

    pub fn build(self) -> ClusterConfig {
        self.cfg
    }
}

/// What [`Cluster::metrics`] returns: cluster-wide counter totals, merged
/// per-stage latency histograms, and a per-replica status breakdown.
///
/// Derefs to [`Metrics`], so existing counter reads
/// (`cluster.metrics().commits()`, `...summary()`) keep working unchanged.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Counters summed over all replicas (alive and crashed).
    pub metrics: Metrics,
    /// Per-stage latency histograms merged over all replicas.
    pub stages: StageSnapshot,
    /// Queue-depth gauges rolled up over all replicas (currents summed,
    /// high-water marks maxed).
    pub gauges: GaugeSnapshot,
    /// Invariant violations the online 1-copy-SI auditor has recorded
    /// (always empty on a correct run — the test suites assert this).
    pub violations: Vec<AuditViolation>,
    /// Wire-level transport counters rolled up over all replicas (empty on
    /// the sim transport, which never serializes).
    pub transport: TransportSnapshot,
    /// One status snapshot per replica, in replica-id order.
    pub per_node: Vec<NodeStatus>,
}

impl std::ops::Deref for ClusterReport {
    type Target = Metrics;
    fn deref(&self) -> &Metrics {
        &self.metrics
    }
}

impl ClusterReport {
    /// Build a report by merging per-replica status snapshots: counters
    /// summed, stage histograms merged, gauge currents summed with
    /// high-water marks maxed, transport counters rolled up. This is the
    /// same aggregation [`Cluster::metrics`] performs in-process, exposed so
    /// the `report` role can run it over *scraped* snapshots from other
    /// processes.
    ///
    /// Note: `gauges.gcs_in_flight` is the sum of every node's own reading;
    /// in-process callers override it with a single group-wide read (see
    /// [`Cluster::metrics`]).
    pub fn from_statuses(per_node: Vec<NodeStatus>, violations: Vec<AuditViolation>) -> Self {
        let metrics = Metrics::new();
        let mut stages = StageSnapshot::default();
        let mut gauges = GaugeSnapshot::default();
        let mut transport = TransportSnapshot::default();
        for status in &per_node {
            metrics.merge(&status.metrics);
            stages.merge(&status.stages);
            gauges.absorb(&status.gauges);
            transport.absorb(&status.transport);
        }
        ClusterReport { metrics, stages, gauges, violations, transport, per_node }
    }

    /// Merge another process's report into this one (the multinode `report`
    /// role scrapes one report per node process and folds them together).
    /// Counters sum, histograms merge, gauge currents sum / high-waters
    /// max, violation lists concatenate, and the per-node snapshots are
    /// re-sorted by replica id.
    pub fn absorb(&mut self, other: ClusterReport) {
        self.metrics.merge(&other.metrics);
        self.stages.merge(&other.stages);
        self.gauges.absorb(&other.gauges);
        self.transport.absorb(&other.transport);
        self.violations.extend(other.violations);
        self.per_node.extend(other.per_node);
        self.per_node.sort_by_key(|s| s.replica.raw());
    }

    /// The per-stage p50/p95/p99 breakdown table
    /// ([`StageSnapshot::breakdown_table`]).
    pub fn breakdown_table(&self) -> String {
        self.stages.breakdown_table()
    }

    /// Prometheus text exposition of the whole report
    /// ([`crate::export::prometheus_text`]).
    pub fn prometheus_text(&self) -> String {
        crate::export::prometheus_text(self)
    }
}

sirep_common::wire_codec!(struct ClusterReport {
    metrics,
    stages,
    gauges,
    violations,
    transport,
    per_node,
});

/// A running cluster. Dropping it shuts every replica down.
pub struct Cluster {
    nodes: RwLock<Vec<Arc<ReplicaNode>>>,
    group: Arc<dyn Group<ReplMsg>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    config: ClusterConfig,
    /// Shared journal epoch so every replica's events land on one timeline.
    epoch: Instant,
    /// The cluster-wide online 1-copy-SI auditor.
    auditor: Arc<Auditor>,
    /// Armed crash-points, shared by every node (chaos harness).
    crash_plan: Arc<CrashPlan>,
}

impl Cluster {
    /// Build and start a cluster, panicking on construction failure — the
    /// right ergonomics for the sim tier, where joins cannot fail.
    #[expect(clippy::expect_used, reason = "sim joins cannot fail; TCP deployments use try_new")]
    pub fn new(config: ClusterConfig) -> Cluster {
        Cluster::try_new(config).expect("cluster construction failed")
    }

    /// Build and start a cluster. Fails if the configured transport cannot
    /// join the group (e.g. the TCP sequencer is unreachable).
    pub fn try_new(config: ClusterConfig) -> Result<Cluster, DbError> {
        if config.replicas == 0 {
            return Err(DbError::Internal("a cluster needs at least one replica".into()));
        }
        let group: Arc<dyn Group<ReplMsg>> = match &config.transport {
            Transport::Sim => Arc::new(SimGroup::new(config.gcs.clone())),
            Transport::Tcp { sequencer } => {
                Arc::new(TcpGroup::new(sequencer.clone(), config.first_replica))
            }
        };
        let epoch = Instant::now();
        let auditor = Arc::new(Auditor::new());
        let crash_plan = Arc::new(CrashPlan::new());
        let mut nodes = Vec::with_capacity(config.replicas);
        let mut threads = Vec::new();
        for k in 0..config.replicas {
            let member = group
                .join_as(config.first_replica + k as u64)
                .map_err(|e| DbError::Internal(format!("transport join failed: {e}")))?;
            let rid = member.id().replica();
            let db = Database::new(config.cost.clone());
            if config.track_history {
                db.set_track_reads(true);
            }
            // Before the delivery thread exists: a replayed writeset must
            // never reach an applier ahead of its table.
            for ddl in &config.schema {
                run_ddl(&db, ddl)?;
            }
            // The member id carries the replica's join count, so a restarted
            // TCP process (and a sim replica after `recover`) mints
            // transaction ids that cannot collide with its previous life.
            let node = ReplicaNode::new(
                db,
                member.handle(),
                config.mode,
                None,
                JournalWriter::with_epoch(rid, epoch, DEFAULT_JOURNAL_CAPACITY),
                Arc::clone(&auditor),
                Arc::clone(&crash_plan),
            );
            threads.extend(spawn_node_threads(&node, member, config.appliers)?);
            nodes.push(node);
        }
        Ok(Cluster {
            nodes: RwLock::new(nodes),
            group,
            threads: Mutex::new(threads),
            config,
            epoch,
            auditor,
            crash_plan,
        })
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Nanoseconds since this cluster's shared journal epoch — "journal
    /// time" now. The telemetry clock handshake samples this around a
    /// sequencer time probe to compute the offset that maps this process's
    /// journal timestamps onto the sequencer's timeline.
    pub fn epoch_elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    pub fn len(&self) -> usize {
        self.nodes.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.read().is_empty()
    }

    pub fn node(&self, k: usize) -> Arc<ReplicaNode> {
        // sirep-lint: allow(no-index-on-protocol-paths): accessor contract — a replica id out of range is harness misuse, panicking here is the documented behavior (like slice indexing)
        Arc::clone(&self.nodes.read()[k])
    }

    pub fn nodes(&self) -> Vec<Arc<ReplicaNode>> {
        self.nodes.read().clone()
    }

    /// Live replicas — what the driver's discovery multicast returns.
    pub fn alive(&self) -> Vec<Arc<ReplicaNode>> {
        self.nodes.read().iter().filter(|n| n.is_alive()).cloned().collect()
    }

    /// Open a client session pinned to replica `k`.
    pub fn session(&self, k: usize) -> Session {
        Session::new(self.node(k))
    }

    /// Run DDL at every replica (schemas must be identical; the paper
    /// installs them before the run).
    pub fn execute_ddl(&self, sql: &str) -> Result<(), DbError> {
        self.nodes.read().iter().try_for_each(|n| run_ddl(n.database(), sql))
    }

    /// Deterministically populate every replica (same closure per replica —
    /// use a fixed seed!).
    pub fn load_with(&self, f: impl Fn(&Database) -> Result<(), DbError>) -> Result<(), DbError> {
        for n in self.nodes.read().iter() {
            // Bulk load: initial population is not part of any experiment,
            // so skip the service-time charges.
            n.database().cost_model().set_suspended(true);
            let r = f(n.database());
            n.database().cost_model().set_suspended(false);
            r?;
        }
        Ok(())
    }

    /// Install a seeded fault-injection plan on the underlying group (see
    /// [`FaultConfig`]). Faults journal under [`NETWORK_REPLICA`] on the
    /// cluster's shared epoch so they interleave correctly with replica
    /// events in trace exports.
    pub fn install_faults(&self, cfg: FaultConfig) {
        self.group.install_faults_with_epoch(cfg, self.epoch);
    }

    /// Symmetrically partition `replicas` away from the rest of the
    /// cluster: deliveries to them are held, and their own multicasts are
    /// buffered, until [`Cluster::heal_partition`]. Installs a quiet fault
    /// plan if none is present.
    pub fn partition(&self, replicas: &[usize]) {
        let nodes = self.nodes.read();
        let members: Vec<MemberId> =
            replicas.iter().filter_map(|&k| nodes.get(k)).map(|n| n.member()).collect();
        drop(nodes);
        self.group.partition(&members);
    }

    /// Heal the active partition: held deliveries flush in their original
    /// order, then the isolated members' buffered multicasts are sequenced.
    pub fn heal_partition(&self) {
        self.group.heal();
    }

    /// Running fingerprint of the fault schedule as `(count, fnv64)` — two
    /// runs with the same seed and workload shape must agree byte-for-byte.
    pub fn fault_fingerprint(&self) -> Option<(u64, u64)> {
        self.group.fault_fingerprint()
    }

    /// Arm a one-shot crash-point: the next time replica `k` reaches
    /// `point`, it crash-stops there (see [`crate::chaos`]).
    pub fn arm_crash_point(&self, point: CrashPoint, k: usize) {
        self.crash_plan.arm(point, ReplicaId::new(self.config.first_replica + k as u64));
    }

    /// Disarm a crash-point. `false`: it was not armed any more, i.e. it
    /// has fired and its replica is going (or already) down.
    pub fn disarm_crash_point(&self, point: CrashPoint) -> bool {
        self.crash_plan.disarm(point)
    }

    /// Crash-points still armed (not yet fired or disarmed).
    pub fn armed_crash_points(&self) -> Vec<(CrashPoint, ReplicaId)> {
        self.crash_plan.armed()
    }

    /// Arm a pause-point: threads of replica `k` reaching `point` block
    /// until [`Cluster::release_pause`] — the deterministic-interleaving
    /// hook counterexample-replay tests (sirep-model) are built on.
    pub fn arm_pause(&self, point: PausePoint, k: usize) {
        self.crash_plan.arm_pause(point, ReplicaId::new(self.config.first_replica + k as u64));
    }

    /// Release every thread parked at `point` and disarm it.
    pub fn release_pause(&self, point: PausePoint) {
        self.crash_plan.release_pause(point);
    }

    /// How many threads have parked at `point` since it was armed.
    pub fn pause_reached(&self, point: PausePoint) -> usize {
        self.crash_plan.pause_reached(point)
    }

    /// Crash replica `k`: survivors get a view change; clients of `k` see
    /// connection errors and fail over.
    pub fn crash(&self, k: usize) {
        // Crash the group member first so the survivors' uniform-delivery
        // cut is taken before local cleanup rejects anything. (A member
        // already gone from the group is ignored there; the local
        // mark_crashed is still required.)
        let node = self.node(k);
        self.group.crash(node.member());
        node.mark_crashed();
    }

    /// **Online recovery** (the paper's §8 future work): bring a crashed
    /// replica back without halting transaction processing.
    ///
    /// Protocol: the recovering replica first re-joins the group as the next
    /// incarnation of its replica id (its deliveries buffer from that point
    /// on); a donor
    /// replica is then briefly latched to produce a consistent state
    /// transfer — a fork of its committed database plus the validation
    /// state (`ws_list`, queue, outcome log). Buffered deliveries already
    /// covered by the transfer are recognized via the outcome log and
    /// skipped; everything newer validates and applies normally. Only the
    /// donor is latched, and only for the duration of the copy.
    pub fn recover(&self, k: usize) -> Result<(), DbError> {
        {
            let nodes = self.nodes.read();
            match nodes.get(k) {
                None => return Err(DbError::Internal(format!("no such replica {k}"))),
                Some(n) if n.is_alive() => {
                    return Err(DbError::Internal(format!("replica {k} has not crashed")));
                }
                Some(_) => {}
            }
        }
        // 1. Join the group: deliveries buffer in the member's queue from
        //    here on.
        let member = self
            .group
            .join_as(self.config.first_replica + k as u64)
            .map_err(|e| DbError::Internal(format!("transport re-join failed: {e}")))?;
        let rid = member.id().replica();
        // 2+3. Pick a donor, barrier on a marker, pull the state transfer.
        //    A donor can die at any point in this window (including via the
        //    armed `mid_state_transfer` crash-point, which kills it right
        //    after it produced the snapshot); each failure discards the
        //    partial transfer and restarts with the next live donor.
        let (db, bootstrap) = loop {
            let donor = self
                .alive()
                .into_iter()
                .find(|n| n.id() != rid)
                .ok_or_else(|| DbError::Internal("no live donor replica".into()))?;
            // Barrier: multicast a marker through the joiner's membership
            // and wait for the donor to process it. Everything sequenced
            // before the joiner's buffer began is then reflected in the
            // donor's state; everything after is in the buffer.
            let token = {
                use std::sync::atomic::{AtomicU64, Ordering};
                static NEXT: AtomicU64 = AtomicU64::new(1);
                (member.id().raw() << 32) | NEXT.fetch_add(1, Ordering::Relaxed)
            };
            member
                .handle()
                .multicast_total(crate::msg::ReplMsg::Marker { token })
                .map_err(|_| DbError::Internal("joiner failed to multicast marker".into()))?;
            if !donor.wait_for_marker(token, Duration::from_secs(30)) {
                if !donor.is_alive() {
                    continue; // the donor died while we waited; next donor
                }
                return Err(DbError::Internal("donor never processed the recovery marker".into()));
            }
            // Consistent state transfer from the donor (brief latch).
            let snapshot = donor.state_transfer(self.config.cost.clone());
            if donor.crash_point(CrashPoint::MidStateTransfer) {
                // The donor crash-stops with the snapshot handed over but
                // not yet installed; the joiner must not trust a transfer
                // from a dead donor, so discard it and retry.
                continue;
            }
            break snapshot;
        };
        if self.config.track_history {
            db.set_track_reads(true);
        }
        // 4. Construct the node and let it drain the buffer + live stream.
        let node = ReplicaNode::new(
            db,
            member.handle(),
            self.config.mode,
            Some(bootstrap),
            JournalWriter::with_epoch(rid, self.epoch, DEFAULT_JOURNAL_CAPACITY),
            Arc::clone(&self.auditor),
            Arc::clone(&self.crash_plan),
        );
        let threads = spawn_node_threads(&node, member, self.config.appliers)?;
        self.threads.lock().extend(threads);
        let mut nodes = self.nodes.write();
        *nodes.get_mut(k).ok_or_else(|| DbError::Internal(format!("no such replica {k}")))? = node;
        Ok(())
    }

    /// Aggregated observability report: cluster-wide counters, merged
    /// stage-latency histograms, and per-replica status snapshots. Derefs
    /// to [`Metrics`] for counter access.
    pub fn metrics(&self) -> ClusterReport {
        let nodes = self.nodes.read().clone();
        let per_node: Vec<NodeStatus> = nodes.iter().map(|n| n.status()).collect();
        let mut report = ClusterReport::from_statuses(per_node, self.auditor.violations());
        // Every node reports the same group-wide in-flight gauge, so the
        // merge above over-counts it |nodes| times — read it once instead.
        report.gauges.gcs_in_flight = self.group.in_flight();
        // Fault gauges live on the group's fault plan, not on any node.
        if let Some((injected, partitioned)) = self.group.fault_gauges() {
            report.gauges.faults_injected = injected;
            report.gauges.partitioned = partitioned;
        }
        // The group-level rollup also covers retired (crashed / re-joined)
        // endpoints and reconnect/eviction churn the per-node snapshots
        // cannot see.
        report.transport = self.group.transport();
        report
    }

    /// Violations the online 1-copy-SI auditor has recorded so far.
    pub fn audit_violations(&self) -> Vec<AuditViolation> {
        self.auditor.violations()
    }

    /// True while the auditor has recorded no violation.
    pub fn audit_is_clean(&self) -> bool {
        self.auditor.is_clean()
    }

    /// Snapshot of every replica's protocol event journal, in replica
    /// order. When a fault
    /// plan is installed its network-level events (injections, partitions)
    /// are appended under the pseudo-replica [`NETWORK_REPLICA`].
    pub fn journal_events(&self) -> Vec<(ReplicaId, Vec<Event>)> {
        let mut out: Vec<(ReplicaId, Vec<Event>)> =
            self.nodes.read().iter().map(|n| (n.id(), n.journal.snapshot())).collect();
        let net = self.group.fault_journal();
        if !net.is_empty() {
            out.push((NETWORK_REPLICA, net));
        }
        out
    }

    /// Render all journals as a Chrome-Trace/Perfetto JSON document
    /// ([`crate::export::perfetto_trace_json`]).
    pub fn perfetto_json(&self) -> String {
        crate::export::perfetto_trace_json(&self.journal_events())
    }

    /// Wait until all in-flight replication work has drained (queues empty,
    /// no pending local transactions, validation counters stable).
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut stable_rounds = 0;
        let mut last_fingerprint = (0u64, 0usize, 0usize);
        while Instant::now() < deadline {
            let alive = self.alive();
            let fp = (
                alive.iter().map(|n| n.last_validated().raw()).max().unwrap_or(0),
                alive.iter().map(|n| n.queue_len()).sum::<usize>(),
                alive.iter().map(|n| n.pending_len()).sum::<usize>(),
            );
            let idle =
                fp.1 == 0 && fp.2 == 0 && alive.iter().all(|n| n.last_validated().raw() == fp.0);
            if idle && fp == last_fingerprint {
                stable_rounds += 1;
                if stable_rounds >= 3 {
                    return true;
                }
            } else {
                stable_rounds = 0;
            }
            last_fingerprint = fp;
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    /// Def. 3's history of this cluster, from its journals
    /// ([`history_from_journals`]). Call on a quiesced cluster built with
    /// `track_history`, or every readset is empty.
    pub fn collect_history(&self) -> Result<History, HistoryGap> {
        history_from_journals(&self.journal_events())
    }

    /// Shut the whole cluster down and join all threads.
    pub fn shutdown(&self) {
        let nodes = self.nodes.read().clone();
        for n in nodes.iter().filter(|n| n.is_alive()) {
            self.group.crash(n.member());
            n.mark_crashed();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.threads.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Start `node`'s delivery thread and applier pool. Their names are what
/// `top -H` and `/proc/<pid>/task/*/comm` show (the kernel keeps 15 bytes):
/// which replica is behind, and on what.
fn spawn_node_threads(
    node: &Arc<ReplicaNode>,
    member: Box<dyn Member<ReplMsg>>,
    appliers: usize,
) -> Result<Vec<JoinHandle<()>>, DbError> {
    let k = node.id().raw();
    let failed = |e: std::io::Error| {
        // Whatever did start must not outlive the failed construction.
        node.mark_crashed();
        DbError::Internal(format!("cannot start a thread of replica {k}: {e}"))
    };
    let thread = |name: String| std::thread::Builder::new().name(name);
    let n = Arc::clone(node);
    let deliver = thread(format!("sirep-deliver-{k}")).spawn(move || n.run_delivery(member));
    let mut threads = vec![deliver.map_err(failed)?];
    for i in 0..appliers {
        let n = Arc::clone(node);
        let apply = thread(format!("sirep-apply-{k}-{i}")).spawn(move || n.run_applier());
        threads.push(apply.map_err(failed)?);
    }
    Ok(threads)
}

fn run_ddl(db: &Database, sql: &str) -> Result<(), DbError> {
    let txn = db.begin()?;
    sirep_sql::execute_sql(db, &txn, sql)?;
    txn.commit().map(drop)
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
