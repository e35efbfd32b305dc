//! Transports: datagram delivery for the heartbeat stack.
//!
//! [`InMemoryNetwork`] is the one simulated medium: a deterministic
//! virtual-time network with configurable loss and delay, crashes,
//! partitions and the adversarial weather planes of [`crate::weather`]
//! — the workhorse of the QoS experiments. [`UdpTransport`] carries the
//! same traffic over real `UdpSocket`s for the end-to-end examples, and
//! [`FaultyTransport`] gives a fleet of them what real sockets lack:
//! the crash and partition half of the fault-injection surface
//! ([`ChurnableTransport`]), so the same crash / recover / partition
//! schedules run over genuine OS sockets.

// Wire-safety: no datagram may panic this module (ARCHITECTURE.md,
// "Determinism & wire-safety invariants"); its unit tests are exempt.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

pub mod faulty;
pub mod memory;
pub mod udp;

pub use faulty::{faulty_cluster, FaultInjector, FaultyTransport};
pub use memory::{Endpoint, InMemoryNetwork, LossModel, NetworkConfig};
pub use udp::UdpTransport;

use crate::clock::Nanos;
use crate::weather::WeatherDirective;
use bytes::Bytes;
use rfd_core::{ProcessId, ProcessSet};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks the medium's or the fault injector's shared state. A holder
/// that panicked poisons nothing: every critical section leaves the
/// state whole, so the guard is recovered rather than the panic spread.
fn lock<T>(state: &Mutex<T>) -> MutexGuard<'_, T> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A received datagram.
#[derive(Clone, Debug)]
pub struct Datagram {
    /// Sending node.
    pub from: ProcessId,
    /// Receiving node.
    pub to: ProcessId,
    /// Payload bytes.
    pub payload: Bytes,
    /// Delivery time (virtual networks) or receive time (UDP).
    pub delivered_at: Nanos,
}

/// A node-side transport handle.
pub trait Transport {
    /// This node's identity.
    fn me(&self) -> ProcessId;

    /// Sends `payload` to `to` (best effort — may be lost).
    fn send(&self, to: ProcessId, payload: Bytes);

    /// Receives the next available datagram, if any.
    fn recv(&self) -> Option<Datagram>;

    /// Drains every currently available datagram into `into` (appending —
    /// the caller decides when to clear), returning how many arrived.
    ///
    /// The default loops [`Transport::recv`]; implementations whose inbox
    /// sits behind a lock should override this to drain under a single
    /// acquisition. Hot loops that poll every tick want this: one
    /// `recv_batch` into a reused buffer replaces per-datagram lock
    /// round-trips and lets the caller keep one long-lived allocation.
    fn recv_batch(&self, into: &mut Vec<Datagram>) -> usize {
        let before = into.len();
        while let Some(datagram) = self.recv() {
            into.push(datagram);
        }
        into.len() - before
    }
}

/// The fleet-level fault-injection surface of a transport: what a churn
/// driver ([`crate::online::OnlineRunner`],
/// [`crate::online::run_membership_churn`]) needs to apply a ground-truth
/// [`crate::online::FaultSchedule`].
///
/// Two implementations ship:
///
/// * [`InMemoryNetwork`] — faults and weather act on the simulated
///   medium itself (virtual time, deterministic per seed);
/// * [`FaultInjector`] — the shared control plane of a
///   [`FaultyTransport`] cluster, muting and partitioning traffic that
///   really flows through OS sockets (wall time).
pub trait ChurnableTransport {
    /// Crashes `node`: from now on it neither sends nor receives.
    fn take_down(&self, node: ProcessId);

    /// Recovers `node` (churn): its traffic flows again. Datagrams
    /// addressed to it while it was down must not surface afterwards
    /// (implementations may also drop a datagram arriving in the brief
    /// window between recovery and the node's next receive — best-effort
    /// loss, never stale delivery).
    fn bring_up(&self, node: ProcessId);

    /// Installs a network partition between `side` and its complement;
    /// traffic within either side is unaffected. Replaces any previous
    /// partition.
    fn set_partition(&self, side: ProcessSet);

    /// Heals the active partition, if any.
    fn heal_partition(&self);

    /// Applies an adversarial-weather directive (one-way blocks,
    /// duplication, reordering, gray failure, spikes — see
    /// [`WeatherDirective`]), returning whether this control plane
    /// supports it. The default declines: only the simulated medium,
    /// [`InMemoryNetwork`], implements the catalogue, and a schedule
    /// carrying weather over an unsupporting substrate is a driver bug
    /// the churn runners turn into a panic rather than a silently calm
    /// run.
    fn apply_weather(&self, directive: &WeatherDirective) -> bool {
        let _ = directive;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::lock;
    use std::sync::{Arc, Mutex};

    #[test]
    fn lock_survives_a_panicked_holder() {
        let state = Arc::new(Mutex::new(0));
        let held = Arc::clone(&state);
        let _ = std::thread::spawn(move || {
            let _guard = lock(&held);
            panic!("poison the lock");
        })
        .join();
        *lock(&state) += 1;
        assert_eq!(*lock(&state), 1);
    }
}
