//! The switch pipeline abstraction: a program processes one frame at a
//! time against shared switch state and emits forwarding decisions.
//!
//! The engine-facing node wrapper lives in the `slingshot` core crate
//! (which knows the global message enum); this crate keeps the pure
//! data-plane machinery so it is unit-testable in isolation.

use slingshot_netsim::Frame;
use slingshot_sim::Nanos;

/// A switch port. Ports map 1:1 to attached devices (RUs, PHY servers,
/// the L2 server, the controller CPU port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u16);

impl PortId {
    /// The CPU/controller port (control-plane packets, failure
    /// notifications).
    pub const CPU: PortId = PortId(u16::MAX);
}

/// What the pipeline decided to do with a packet.
#[derive(Debug, Clone, PartialEq)]
pub enum SwitchAction {
    /// Emit `frame` out of `port`.
    Forward { port: PortId, frame: Frame },
    /// Drop (filtered).
    Drop,
}

impl SwitchAction {
    /// The egress port if this action forwards, else `None`.
    pub fn forward_to(&self) -> Option<PortId> {
        match self {
            SwitchAction::Forward { port, .. } => Some(*port),
            SwitchAction::Drop => None,
        }
    }
}

/// Per-pipeline-pass fixed latency: a few hundred nanoseconds on real
/// hardware ("negligible added latency", paper §5).
pub const PIPELINE_LATENCY: Nanos = Nanos(400);

/// A data-plane program. One `process` call is one pipeline pass.
///
/// `on_generator_tick` is invoked by the switch's built-in packet
/// generator (the paper emulates timers by injecting `n` generated
/// packets per timeout period `T`, §5.2.2).
pub trait SwitchProgram {
    fn process(&mut self, now: Nanos, ingress: PortId, frame: Frame) -> Vec<SwitchAction>;

    fn on_generator_tick(&mut self, _now: Nanos) -> Vec<SwitchAction> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_generator_tick_is_empty() {
        struct DropAll;
        impl SwitchProgram for DropAll {
            fn process(&mut self, _: Nanos, _: PortId, _: Frame) -> Vec<SwitchAction> {
                vec![SwitchAction::Drop]
            }
        }
        assert!(DropAll.on_generator_tick(Nanos(0)).is_empty());
    }
}
