//! **T-4** (§5.2) — group communication latency/throughput: *"the delay for
//! a uniform reliable multicast does not exceed 3 ms in a LAN even for
//! message rates of several hundreds of messages per second."*
//!
//! Measures delivery latency of the simulated GCS at increasing message
//! rates, verifying the configured LAN latency holds under load (it is a
//! simulation parameter, but the queues and horizon bookkeeping around it
//! are real and could distort it).

use sirep_bench as bench;
use sirep_common::OnlineStats;
use sirep_gcs::{Cast, Delivery, GroupConfig, Member, SimGroup};
use std::time::Instant;

fn main() {
    let scale = bench::scale();
    let cfg = GroupConfig::lan(scale);
    let latency_budget_ms = cfg.total_order_delay_ms;

    println!("\n== T-4: uniform reliable total order multicast (5 members) ==");
    println!("{:>12} {:>14} {:>14} {:>12}", "rate msg/s", "mean ms", "p99-ish ms", "delivered");
    for &rate in &bench::thin(&[100.0, 200.0, 400.0, 800.0]) {
        let group: SimGroup<u64> = SimGroup::new(cfg.clone());
        let mut members: Vec<_> = (0..5).map(|_| group.join()).collect();
        for m in &members {
            while let Some(Delivery::ViewChange(_)) = m.try_recv() {}
        }
        let n = if bench::quick() { 200 } else { 1000 };
        let sender = members[0].handle();
        let gap_ms = 1000.0 / rate;
        // Receive concurrently at a non-sender member, recording arrivals;
        // the other members stay joined (a dropped endpoint leaves the group).
        let receiver = members.swap_remove(1);
        let rx_thread = std::thread::spawn(move || {
            let mut arrivals = Vec::with_capacity(n);
            while arrivals.len() < n {
                match receiver.recv_timeout(std::time::Duration::from_secs(10)) {
                    Ok(Delivery::TotalOrder { .. }) => arrivals.push(Instant::now()),
                    Ok(_) => {}
                    Err(e) => panic!("delivery stalled: {e}"),
                }
            }
            arrivals
        });
        let mut send_times = Vec::with_capacity(n);
        for _ in 0..n {
            send_times.push(Instant::now());
            sender.multicast_total(0).unwrap();
            scale.sleep(gap_ms);
        }
        let arrivals = rx_thread.join().expect("receiver panicked");
        let mut stats = OnlineStats::new();
        for (sent, arrived) in send_times.iter().zip(&arrivals) {
            stats.record(scale.model_ms(arrived.saturating_duration_since(*sent)));
        }
        println!(
            "{:>12.0} {:>14.2} {:>14.2} {:>12}",
            rate,
            stats.mean(),
            stats.mean() + 2.0 * stats.std_dev(),
            stats.count()
        );
        assert!(
            stats.mean() < latency_budget_ms * 10.0,
            "delivery latency exploded at {rate} msg/s: {} ms",
            stats.mean()
        );
    }
    println!("(configured LAN latency: {latency_budget_ms} model ms, as in the paper's Spread)");
}
