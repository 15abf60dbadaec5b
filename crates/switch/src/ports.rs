//! Switch port-space bookkeeping.
//!
//! [`PortSpace`] hands out one switch's port numbers sequentially, so a
//! deployment of any size gets collision-free ports by construction;
//! running out of the 16-bit port space panics at build time with the
//! switch's name instead of wrapping into a corrupted forwarding table.

use crate::pipeline::PortId;

/// A sequential allocator for one switch's port numbers.
#[derive(Debug)]
pub struct PortSpace {
    switch: String,
    next: u16,
}

impl PortSpace {
    /// A fresh port space for the switch named `switch` (the name only
    /// appears in the exhaustion panic). Allocation starts at 1; port 0
    /// is left unused to keep "unset" obvious in dumps.
    pub fn new(switch: &str) -> PortSpace {
        PortSpace {
            switch: switch.to_string(),
            next: 1,
        }
    }

    /// Allocate the lowest unused port.
    pub fn alloc(&mut self) -> PortId {
        let port = PortId(self.next);
        assert_ne!(
            port,
            PortId::CPU,
            "switch {}: port space exhausted",
            self.switch
        );
        self.next += 1;
        port
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_sequential_from_one() {
        let mut ps = PortSpace::new("leaf0");
        assert_eq!(ps.alloc(), PortId(1));
        assert_eq!(ps.alloc(), PortId(2));
    }

    #[test]
    #[should_panic(expected = "port space exhausted")]
    fn exhaustion_panics_before_the_cpu_port() {
        let mut ps = PortSpace::new("spine");
        ps.next = PortId::CPU.0;
        ps.alloc();
    }
}
