//! The host-speed calibration: a fixed loop of the kind of work a commit is
//! made of — a message handed from thread to thread over loopback TCP — run
//! for a fifth of every second of the measured window, while the clients
//! pause. Its rate says how fast this machine was in that second, and the
//! end-to-end metrics are reported at a fixed reference rate.
//!
//! Why: the sandbox is a small guest on a shared host, and the same program
//! runs up to 1.5 times slower for minutes at a time. The deployment spends
//! most of its CPU time in the kernel's socket and context-switch paths, and
//! that is what slows down; a loop of pure arithmetic does not track it
//! (it was tried), this one does. See the README's Noise section for the
//! measurements.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// The window's schedule, second by second: the clients load the deployment
/// for the first `WORK_NS` of each second and pause for the rest; the ring
/// runs in that rest, from `SETTLE_NS` after the pause began (transactions
/// in flight finish, appliers drain) to `MARGIN_NS` before the next second.
pub const SLICE_NS: u64 = 1_000_000_000;
pub const WORK_NS: u64 = 800_000_000;
pub const SETTLE_NS: u64 = 10_000_000;
pub const MARGIN_NS: u64 = 5_000_000;

/// Threads a message passes through per round, beside the driving one: as
/// many hops as a commit makes (client, local node, sequencer, node, client).
const STAGES: usize = 4;
const MESSAGE_BYTES: usize = 64;
/// Rounds per second of the ring on the machine the benchmark was written
/// on, in its fast phase. Only fixes the scale: a `host_speed` of 1 means
/// "as fast as that".
pub const REFERENCE_ROUNDS_PER_S: f64 = 33_000.0;

fn connected_pair() -> Result<(TcpStream, TcpStream), String> {
    let io = |e: std::io::Error| format!("calibration ring: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let near = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
    let (far, _) = listener.accept().map_err(io)?;
    near.set_nodelay(true).map_err(io)?;
    far.set_nodelay(true).map_err(io)?;
    Ok((near, far))
}

/// The ring: `head → stage 1 → … → stage STAGES → tail`, every arrow a
/// loopback TCP connection, every stage a thread that forwards what it reads.
pub struct Ring {
    head: TcpStream,
    tail: TcpStream,
    stages: Vec<JoinHandle<()>>,
}

impl Ring {
    pub fn start() -> Result<Ring, String> {
        let (head, mut upstream) = connected_pair()?;
        let mut stages = Vec::new();
        for _ in 0..STAGES {
            let (mut forward, next_upstream) = connected_pair()?;
            let mut from = std::mem::replace(&mut upstream, next_upstream);
            stages.push(std::thread::spawn(move || {
                let mut message = [0u8; MESSAGE_BYTES];
                // Ends when the stage before closes its end.
                while from.read_exact(&mut message).is_ok() && forward.write_all(&message).is_ok() {
                }
            }));
        }
        Ok(Ring { head, tail: upstream, stages })
    }

    /// Send messages round the ring, one at a time, until `deadline`.
    /// Returns rounds per second.
    fn rounds_per_s_until(&mut self, deadline: Instant) -> Result<f64, String> {
        let io = |e: std::io::Error| format!("calibration ring: {e}");
        let mut message = [0u8; MESSAGE_BYTES];
        let started = Instant::now();
        let mut rounds = 0u64;
        loop {
            self.head.write_all(&message).map_err(io)?;
            self.tail.read_exact(&mut message).map_err(io)?;
            rounds += 1;
            let now = Instant::now();
            if now >= deadline {
                return Ok(rounds as f64 / (now - started).as_secs_f64());
            }
        }
    }

    /// The speed of the host over the time to `deadline`, relative to the
    /// reference machine.
    pub fn host_speed_until(&mut self, deadline: Instant) -> Result<f64, String> {
        Ok(self.rounds_per_s_until(deadline)? / REFERENCE_ROUNDS_PER_S)
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        // Shutting the head makes stage 1's read fail; each stage's exit
        // closes the connection the next one reads from.
        let _ = self.head.shutdown(Shutdown::Both);
        for stage in self.stages.drain(..) {
            let _ = stage.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn the_ring_turns_and_stops() {
        let mut ring = Ring::start().expect("loopback is available");
        let rate = ring.rounds_per_s_until(Instant::now() + Duration::from_millis(50)).expect("io");
        // Anything from a crawling CI box to a fast desktop.
        assert!(rate > 100.0 && rate < 10_000_000.0, "{rate}");
        let speed = ring.host_speed_until(Instant::now()).expect("io");
        assert!(speed > 0.0);
        drop(ring); // must join every stage, not hang
    }
}
