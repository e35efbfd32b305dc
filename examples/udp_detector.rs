//! A live φ-accrual failure detector cluster over real UDP sockets.
//!
//! Three nodes heartbeat each other on loopback; after two seconds node 2
//! is killed, and the survivors' φ-accrual detectors report the
//! suspicion as it accrues — the "realistic" detector of the paper's
//! title, on a real network stack.
//!
//! Run with: `cargo run --example udp_detector`

use realistic_failure_detectors::core::ProcessId;
use realistic_failure_detectors::net::clock::{Clock, Nanos, SystemClock};
use realistic_failure_detectors::net::detector::DetectorNode;
use realistic_failure_detectors::net::estimator::PhiAccrual;
use realistic_failure_detectors::net::transport::udp::loopback_cluster;
use std::time::Duration;

fn main() -> std::io::Result<()> {
    let n = 3;
    let transports = loopback_cluster(n)?;
    let clock = SystemClock::new();
    let period = Nanos::from_millis(50);
    let prototype = PhiAccrual::new(3.0, 32, Nanos::from_millis(300));
    let mut nodes: Vec<_> = transports
        .into_iter()
        .map(|t| DetectorNode::new(n, prototype.clone(), t, clock.clone(), period))
        .collect();

    let victim = ProcessId::new(2);
    let kill_at = Nanos::from_millis(2_000);
    let end_at = Nanos::from_millis(4_500);
    let mut killed = false;
    let mut last_print = Nanos::ZERO;

    println!("3-node φ-accrual cluster on UDP loopback; killing p2 at t=2s");
    while clock.now() < end_at {
        let now = clock.now();
        if !killed && now >= kill_at {
            killed = true;
            println!("t={:>5}ms  ⚡ p2 killed", now.as_millis());
        }
        for (ix, node) in nodes.iter_mut().enumerate() {
            if killed && ix == victim.index() {
                continue; // the victim stops polling (and heartbeating)
            }
            node.poll();
        }
        if now.saturating_sub(last_print) >= Nanos::from_millis(500) {
            last_print = now;
            let d0 = nodes[0].detector();
            println!(
                "t={:>5}ms  p0 view: suspects={} φ(p1)={:.2} φ(p2)={:.2}",
                now.as_millis(),
                d0.suspects(now),
                d0.suspicion_level(ProcessId::new(1), now),
                d0.suspicion_level(victim, now),
            );
        }
        #[allow(
            clippy::disallowed_methods,
            reason = "paces a real-socket demo in wall-clock time"
        )]
        std::thread::sleep(Duration::from_millis(5));
    }

    let now = clock.now();
    let suspects0 = nodes[0].detector().suspects(now);
    let suspects1 = nodes[1].detector().suspects(now);
    println!("final: p0 suspects {suspects0}, p1 suspects {suspects1}");
    assert!(
        suspects0.contains(victim) && suspects1.contains(victim),
        "both survivors must have detected the kill"
    );
    assert!(
        !suspects0.contains(ProcessId::new(1)),
        "p1 is alive and trusted"
    );
    println!("crash detected by every survivor; no false suspicion of live nodes");
    Ok(())
}
