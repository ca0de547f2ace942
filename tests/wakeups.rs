//! A commit wakes only the threads that have work (core/node.rs, "Who wakes
//! whom"). Two sides of that:
//!
//! - the budget: a local commit has nothing for its replica's appliers, and a
//!   remote one has nothing for them either — the delivery thread applies it
//!   — unless the database charges service time; counted as voluntary
//!   context switches of the `sirep-apply-*` threads;
//! - no lost wake-up: a thread that is *not* woken when it should be is found
//!   by the next `WAIT_TICK` poll, so the failure is a 25 ms stall, not a
//!   hang. Under contention — conflicts, holes, gated begins — nearly no
//!   commit and no gated begin may take that long. (Counting over *all*
//!   begins would hide it: a client stalled for 25 ms leaves the other
//!   replica without conflicts, so stalls make themselves rare.)
//!
//! Both are budgets on what a cluster's threads do on a few CPUs, so the
//! tests run one at a time ([`SERIAL`]): two clusters side by side preempt
//! each other's threads, and a preempted thread is a stall or a wake-up
//! that the cluster under test did not cause.

use si_rep::common::{Stage, StageSnapshot, TimeScale};
use si_rep::core::node::WAIT_TICK;
use si_rep::core::{Cluster, ClusterConfig, Connection, Transport};
use si_rep::gcs::Sequencer;
use si_rep::storage::CostModel;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

const Q: Duration = Duration::from_secs(20);

/// Held by each test for its whole run (see the module header).
static SERIAL: Mutex<()> = Mutex::new(());

/// Wait for the other tests of this file to finish; a failed one poisons
/// nothing here.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Voluntary context switches so far of this process's threads whose name
/// starts with `prefix`, and how many threads that is.
fn voluntary_switches(prefix: &str) -> (u64, usize) {
    let mut total = (0, 0);
    for task in std::fs::read_dir("/proc/self/task").expect("procfs").flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if !comm.starts_with(prefix) {
            continue;
        }
        let status = std::fs::read_to_string(task.path().join("status")).expect("status");
        let line = status.lines().find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
        total.0 += line.expect("voluntary_ctxt_switches").trim().parse::<u64>().expect("count");
        total.1 += 1;
    }
    total
}

/// Voluntary context switches per commit of the appliers of each replica of
/// a two-replica sim cluster on replicas `first` and `first + 1`, over
/// `commits` uncontended commits at the first (the origin).
fn applier_switches_per_commit(first: u64, cost: CostModel, commits: u64) -> [f64; 2] {
    let cfg = ClusterConfig::builder().replicas(2).first_replica(first).cost(cost);
    let c = Cluster::new(cfg.schema("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))").build());
    let appliers = [first, first + 1].map(|k| format!("sirep-apply-{k}-"));
    let mut s = c.session(0);
    s.execute("INSERT INTO kv VALUES (-1, 0)").unwrap();
    s.commit().unwrap();
    assert!(c.quiesce(Q));

    let before = appliers.clone().map(|p| voluntary_switches(&p));
    assert_eq!(before.map(|(_, threads)| threads), [2, 2], "two named appliers per replica");
    for k in 0..commits {
        s.execute(&format!("INSERT INTO kv VALUES ({k}, 0)")).unwrap();
        s.commit().unwrap();
    }
    assert!(c.quiesce(Q));
    let after = appliers.map(|p| voluntary_switches(&p));
    assert_eq!(c.node(1).database().table_len("kv") as u64, commits + 1);
    assert!(c.audit_is_clean());
    [0, 1].map(|i| (after[i].0 - before[i].0) as f64 / commits as f64)
}

#[test]
fn an_uncontended_commit_wakes_no_applier_at_the_origin_or_the_remote() {
    let _serial = serial();
    // Replica ids nobody else in this file uses: thread names carry them.
    let [origin, remote] = applier_switches_per_commit(8, CostModel::free(), 1_000);
    eprintln!("applier wake-ups per commit: origin {origin}, remote {remote}");
    // What remains is the appliers' shutdown poll: a local commit has
    // nothing for an applier, and the remote's delivery thread applies.
    assert!(origin <= 0.2, "origin appliers: {origin} per commit");
    assert!(remote <= 0.2, "remote appliers: {remote} per commit");
}

/// A database that charges service time sleeps in it, and the delivery
/// thread must not: every remote writeset is an applier's.
#[test]
fn a_costed_database_keeps_remote_applies_on_the_appliers() {
    let _serial = serial();
    let cost = CostModel { scale: TimeScale::TEST_FAST, apply_write_ms: 1.0, ..CostModel::free() };
    let [origin, remote] = applier_switches_per_commit(10, cost, 300);
    eprintln!("costed applier wake-ups per commit: origin {origin}, remote {remote}");
    assert!(origin <= 0.2, "origin appliers: {origin} per commit");
    assert!((0.5..=1.5).contains(&remote), "remote appliers: {remote} per commit");
}

const HOT_IDS: i64 = 8;
const TRANSFERS: usize = 2_000;

const CLIENTS_PER_NODE: usize = 2;

/// This client's share of `TRANSFERS` committed transfers between hot
/// accounts through `s`, retried on abort. Returns how long each commit took.
fn transfer(mut s: impl Connection, seed: u64) -> Vec<Duration> {
    let mut commits = Vec::new();
    let mut x = seed;
    let mut next = |n: i64| {
        // splitmix64
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as i64
    };
    let mut committed = 0;
    while committed < TRANSFERS / (2 * CLIENTS_PER_NODE) {
        let from = next(HOT_IDS);
        let to = (from + 1 + next(HOT_IDS - 1)) % HOT_IDS;
        let done = s
            .execute(&format!("UPDATE acc SET bal = bal - 1 WHERE id = {from}"))
            .and_then(|_| s.execute(&format!("UPDATE acc SET bal = bal + 1 WHERE id = {to}")))
            .and_then(|_| {
                let t = Instant::now();
                let r = s.commit();
                commits.push(t.elapsed());
                r
            });
        match done {
            Ok(()) => committed += 1,
            Err(_) => s.rollback(),
        }
    }
    commits
}

/// Nanoseconds the calling thread has spent runnable but not running (the
/// second field of its `schedstat`); 0 where the kernel keeps no such count.
fn run_queue_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    stat.split_whitespace().nth(1).and_then(|ns| ns.parse().ok()).unwrap_or(0)
}

fn sum_of_balances(c: &Cluster) -> i64 {
    let mut s = c.session(0);
    let r = s.execute("SELECT SUM(bal) FROM acc").unwrap();
    let v = r.rows()[0][0].as_int().unwrap();
    s.commit().unwrap();
    v
}

/// Hot transfers from `CLIENTS_PER_NODE` clients at each of `nodes` (cluster,
/// replica index) at once; then: nearly nothing waited out a poll, no money
/// was made or lost, the audit is clean.
fn hot_transfers_never_wait_for_a_poll(nodes: [(&Cluster, usize); 2]) {
    let (first, _) = nodes[0];
    let mut s = first.session(nodes[0].1);
    for id in 0..HOT_IDS {
        s.execute(&format!("INSERT INTO acc VALUES ({id}, 1000)")).unwrap();
    }
    s.commit().unwrap();
    let loaded = |c: &Cluster, k: usize| c.node(k).database().table_len("acc") as i64 == HOT_IDS;
    let deadline = Instant::now() + Q;
    while !nodes.iter().all(|&(c, k)| loaded(c, k)) {
        assert!(Instant::now() < deadline, "the accounts never reached every replica");
        thread::sleep(Duration::from_millis(5));
    }

    let started = Instant::now();
    let (mut commits, mut queued_ns) = (Vec::new(), 0);
    thread::scope(|scope| {
        let clients: Vec<_> = (0..2 * CLIENTS_PER_NODE)
            .map(|i| {
                let (c, k) = nodes[i % 2];
                scope.spawn(move || {
                    let queued = run_queue_ns();
                    let commits = transfer(c.session(k), 7 + i as u64);
                    (commits, run_queue_ns() - queued)
                })
            })
            .collect();
        for client in clients {
            let (took, queued) = client.join().expect("client panicked");
            commits.extend(took);
            queued_ns += queued;
        }
    });
    // What tells CPU starvation from a lost wake-up: how long the clients,
    // the threads whose begins wait, sat runnable but not running.
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let host = format!(
        "the {} clients sat runnable but not running for {} ms in all during a {} ms run, \
         loadavg {}",
        2 * CLIENTS_PER_NODE,
        queued_ns / 1_000_000,
        started.elapsed().as_millis(),
        loadavg.split_whitespace().take(3).collect::<Vec<_>>().join(" ")
    );
    let half_tick_ms = WAIT_TICK.as_secs_f64() * 1e3 / 2.0;

    let slow = commits.iter().filter(|d| **d >= WAIT_TICK / 2).count();
    assert!(commits.len() >= TRANSFERS, "{} commits", commits.len());
    let n = commits.len();
    assert!(slow * 100 < n, "{slow} of {n} commits took half a tick ({host})");
    // `Stage::BeginWait` is what hole-gated begins, and only they, waited.
    let mut stages = StageSnapshot::default();
    for (c, k) in nodes {
        stages.merge(&c.node(k).status().stages);
    }
    let gated = stages.count(Stage::BeginWait);
    let p99 = stages.quantile(Stage::BeginWait, 0.99);
    assert!(
        p99 < half_tick_ms,
        "{gated} gated begins, p99 {p99} ms: somebody was not woken or was starved ({host})"
    );
    assert!(gated >= 50, "only {gated} begins were gated: this run shows nothing");

    for (c, _) in nodes {
        assert!(c.quiesce(Q));
    }
    let deadline = Instant::now() + Q;
    let validated = |&(c, k): &(&Cluster, usize)| c.node(k).last_validated();
    while validated(&nodes[0]) != validated(&nodes[1]) {
        assert!(Instant::now() < deadline, "the replicas never converged");
        thread::sleep(Duration::from_millis(5));
    }
    for (c, _) in nodes {
        assert!(c.quiesce(Q));
        assert_eq!(sum_of_balances(c), 1000 * HOT_IDS, "money made or lost");
        assert!(c.audit_is_clean(), "{:?}", c.audit_violations());
    }
}

const ACCOUNTS: &str = "CREATE TABLE acc (id INT, bal INT, PRIMARY KEY (id))";

#[test]
fn no_wake_up_is_lost_under_contention_on_the_sim_cluster() {
    let _serial = serial();
    let cfg = ClusterConfig::builder().replicas(2).first_replica(2).schema(ACCOUNTS);
    let c = Cluster::new(cfg.build());
    hot_transfers_never_wait_for_a_poll([(&c, 0), (&c, 1)]);
}

#[test]
fn no_wake_up_is_lost_under_contention_on_two_tcp_nodes() {
    let _serial = serial();
    let seq = Sequencer::spawn("127.0.0.1:0").expect("bind sequencer");
    let node = |replica| {
        let cfg = ClusterConfig::builder()
            .transport(Transport::Tcp { sequencer: seq.addr().to_string() })
            .first_replica(replica)
            .schema(ACCOUNTS);
        Cluster::try_new(cfg.build()).expect("join")
    };
    let (a, b) = (node(4), node(5));
    hot_transfers_never_wait_for_a_poll([(&a, 0), (&b, 0)]);
}
