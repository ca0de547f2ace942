//! Certification micro-bench: key-indexed validation vs the paper's
//! reverse scan.
//!
//! Sweeps ws_list length × candidate writeset size and times
//! [`WsList::passes`] (last-certifier index, O(|ws|)) against
//! [`WsList::passes_scan`] (the paper's literal formulation,
//! O(list · |ws|)). Every timed probe uses `cert = 0` — the candidate is
//! certified against the *whole* window, the scan's worst case and exactly
//! the regime of a lagging replica — and non-conflicting keys, so the scan
//! can never exit early. Emits `results/BENCH_certification.json`; the
//! speedup at ws_list ≥ 1024 is the acceptance gate of the key-indexing PR.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sirep_bench as bench;
use sirep_common::{GlobalTid, ReplicaId};
use sirep_core::validation::WsList;
use sirep_core::XactId;
use sirep_storage::{Key, WriteSet, WsOp};
use std::sync::Arc;

/// A writeset of `size` distinct keys drawn from `lo..hi`.
fn random_ws(rng: &mut SmallRng, size: usize, lo: i64, hi: i64) -> Arc<WriteSet> {
    let mut ws = WriteSet::new();
    let mut picked = 0;
    while picked < size {
        let k = rng.gen_range(lo..hi);
        if ws.contains("stock", &Key::single(k)) {
            continue;
        }
        ws.push(Arc::from("stock"), Key::single(k), WsOp::Delete);
        picked += 1;
    }
    Arc::new(ws)
}

/// Build a ws_list with `list_len` entries of `entry_ws` keys each, all in
/// the positive key range; candidates draw from the disjoint negative range
/// so the timed verdict is always "pass" and the scan never short-circuits.
fn build_list(rng: &mut SmallRng, list_len: usize, entry_ws: usize) -> WsList {
    let mut list = WsList::new();
    for seq in 0..list_len {
        let mut ws = WriteSet::new();
        for _ in 0..entry_ws {
            let k = rng.gen_range(1..1_000_000_i64);
            ws.push(Arc::from("stock"), Key::single(k), WsOp::Delete);
        }
        list.append(XactId { origin: ReplicaId::new(0), seq: seq as u64 }, Arc::new(ws));
    }
    list
}

fn main() {
    let quick = bench::quick();
    let list_lens: &[usize] = if quick { &[256, 1024] } else { &[256, 1024, 4096] };
    let ws_sizes: &[usize] = if quick { &[10] } else { &[2, 10, 50] };
    let (reps, iters) = if quick { (3, 200) } else { (7, 1000) };
    let entry_ws = 10; // tuples per certified entry (≈ TPC-W update txn)

    let mut rng = SmallRng::seed_from_u64(0xCE47);
    let mut rows = Vec::new();
    let mut gate_speedup = f64::INFINITY;
    println!("== certification: last-certifier index vs reverse scan (cert = full window) ==");
    println!(
        "{:>9} {:>8} {:>14} {:>14} {:>9}",
        "ws_list", "|ws|", "indexed ns/op", "scan ns/op", "speedup"
    );
    for &list_len in list_lens {
        let list = build_list(&mut rng, list_len, entry_ws);
        for &ws_size in ws_sizes {
            // Pre-draw disjoint candidates (negative keys): never conflict.
            let cands: Vec<Arc<WriteSet>> =
                (0..32).map(|_| random_ws(&mut rng, ws_size, -1_000_000, 0)).collect();
            let mut i = 0;
            let mut next = || {
                i += 1;
                &cands[i % cands.len()]
            };
            let indexed = bench::time_ns(reps, iters, || {
                assert!(list.passes(GlobalTid::ZERO, next()), "bench candidates must all pass");
            });
            let mut j = 0;
            let mut next_s = || {
                j += 1;
                &cands[j % cands.len()]
            };
            let scan = bench::time_ns(reps, iters, || {
                assert!(
                    list.passes_scan(GlobalTid::ZERO, next_s()),
                    "bench candidates must all pass"
                );
            });
            let speedup = scan / indexed;
            if list_len >= 1024 {
                gate_speedup = gate_speedup.min(speedup);
            }
            println!("{list_len:>9} {ws_size:>8} {indexed:>14.0} {scan:>14.0} {speedup:>8.1}x");
            rows.push(format!(
                "{{\"ws_list_len\":{list_len},\"ws_size\":{ws_size},\
                 \"entry_ws\":{entry_ws},\"indexed_ns\":{indexed:.1},\
                 \"scan_ns\":{scan:.1},\"speedup\":{speedup:.2}}}"
            ));
        }
    }
    bench::write_json_str(
        "certification",
        &format!(
            "{{\"bench\":\"certification\",\"quick\":{quick},\
             \"cert\":\"full window (0)\",\"rows\":[{}]}}",
            rows.join(",")
        ),
    )
    .expect("write json");
    println!("\nmin speedup at ws_list >= 1024: {gate_speedup:.1}x (acceptance gate: >= 5x)");
    assert!(
        gate_speedup >= 5.0,
        "indexed certification must be >= 5x the scan at ws_list >= 1024 (got {gate_speedup:.1}x)"
    );
}
