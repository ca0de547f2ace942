//! # sirep-core
//!
//! The paper's contribution: **middleware-based replica control providing
//! 1-copy snapshot isolation** (Lin, Kemme, Patiño-Martínez, Jiménez-Peris —
//! SIGMOD 2005), implemented over the [`sirep_storage`] engine and the
//! [`sirep_gcs`] group communication substrate.
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`model`] | §2 | SI-schedules, SI-equivalence, the 1-copy-SI criterion and an exact checker |
//! | [`srca`] | §3 | the centralized SRCA algorithm (Fig. 1) |
//! | [`validation`] | §3/§5.3 | `ws_list` certification + distributed garbage collection |
//! | [`holes`] | §4.3.3 | commit-order holes and start/commit synchronization |
//! | [`replica`], [`tocommit`], `outcomes` | §4–5 | SRCA-Rep's decisions (Fig. 4, adjustments 1–3) as one thread-free state machine, its tocommit queue and its outcome log |
//! | [`node`], [`cluster`] | §5 | the decentralized SRCA-Rep middleware (Fig. 4) and SRCA-Opt: threads, database and group member around the replica core |
//! | [`session`] | §5.3–5.4 | JDBC-style sessions, the [`System`]/[`Connection`] abstraction |
//! | [`centralized`] | §6 | the single-database baseline of the figures |
//! | [`tablelock`] | §6.3 | the reimplemented table-level-locking protocol of [20] |
//! | [`audit`] | Def. 3/Thm 1/§4.3.3 | the 1-copy-SI checker over the journal's event stream — online, over scraped journals, over model traces — and Def. 3's history built from journals |
//! | [`export`] | — | Perfetto trace and Prometheus text renderers |
//!
//! ## Quick start
//!
//! ```
//! use sirep_core::{Cluster, ClusterConfig, Connection};
//!
//! let cluster = Cluster::new(ClusterConfig::builder().replicas(3).build());
//! cluster.execute_ddl("CREATE TABLE acc (id INT, bal INT, PRIMARY KEY (id))").unwrap();
//!
//! let mut s = cluster.session(0);
//! s.execute("INSERT INTO acc VALUES (1, 100)").unwrap();
//! s.commit().unwrap();                       // validated + replicated
//!
//! // The write is now visible at every replica.
//! cluster.quiesce(std::time::Duration::from_secs(5));
//! let mut s2 = cluster.session(2);
//! let r = s2.execute("SELECT bal FROM acc WHERE id = 1").unwrap();
//! assert_eq!(r.rows()[0][0], sirep_storage::Value::Int(100));
//! ```

pub mod audit;
pub mod centralized;
pub mod chaos;
pub mod cluster;
pub mod export;
pub mod holes;
pub mod model;
pub mod msg;
pub mod node;
mod outcomes;
pub mod replica;
pub mod session;
pub mod srca;
pub mod tablelock;
pub mod tocommit;
pub mod validation;

pub use audit::{
    audit_scraped_journals, history_from_journals, key_digest, read_digest, AuditKind,
    AuditViolation, Auditor, Checker, History, HistoryGap, VIOLATION_CAP,
};
pub use centralized::Centralized;
pub use chaos::{CrashPlan, PausePoint};
pub use cluster::{Cluster, ClusterConfig, ClusterConfigBuilder, ClusterReport, Transport};
pub use export::{perfetto_trace_json, prometheus_text, shift_events};
pub use holes::HoleTracker;
pub use model::{
    check_one_copy_si, is_conflict_serializable, is_si_schedule, si_equivalent, Op,
    ReplicatedExecution, Schedule, TxSpec, Violation,
};
pub use msg::{Outcome, ReplMsg, WsMsg, XactId};
pub use node::{NodeStatus, ReplicaNode, ReplicationMode, INQUIRE_DEADLINE};
pub use replica::{InDoubt, ReplicaCore};
pub use session::{Connection, Session, System, TxnTemplate};
pub use validation::{CertEntry, WsList};

#[cfg(test)]
mod cluster_tests;
#[cfg(test)]
mod proptests;
#[cfg(test)]
mod srca_tests;
