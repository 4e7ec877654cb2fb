//! The trace abstraction every workload produces.

use banshee_common::Addr;

/// One memory access in a core's instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryAccess {
    /// Virtual address of the access (byte granularity).
    pub vaddr: Addr,
    /// True for stores.
    pub write: bool,
    /// Number of non-memory instructions executed since the previous memory
    /// access (the generator's way of expressing memory intensity).
    pub inst_gap: u32,
}

impl MemoryAccess {
    /// Convenience constructor for a load.
    pub fn load(vaddr: Addr, inst_gap: u32) -> Self {
        MemoryAccess {
            vaddr,
            write: false,
            inst_gap,
        }
    }

    /// Convenience constructor for a store.
    pub fn store(vaddr: Addr, inst_gap: u32) -> Self {
        MemoryAccess {
            vaddr,
            write: true,
            inst_gap,
        }
    }

    /// Instructions this access accounts for (the gap plus the access
    /// itself).
    pub fn instructions(&self) -> u64 {
        self.inst_gap as u64 + 1
    }
}

/// An infinite, deterministic stream of memory accesses for one core.
pub trait TraceGenerator: Send {
    /// Produce the next access. Generators never terminate; the simulator
    /// decides when to stop.
    fn next_access(&mut self) -> MemoryAccess;

    /// Short benchmark name ("lbm", "pagerank", ...).
    fn name(&self) -> &str;

    /// The total virtual footprint this generator touches, in bytes
    /// (used for reporting and sanity checks).
    fn footprint_bytes(&self) -> u64;
}

/// Anything that can stamp out one [`TraceGenerator`] per core: the built-in
/// [`crate::Workload`] catalogue and the data-driven scenario workloads both
/// implement this, so the simulator can run either without knowing which.
pub trait TraceFactory: Send + Sync {
    /// Display name for tables and result labels.
    fn name(&self) -> String;

    /// Build one deterministic trace generator per core.
    fn build_traces(&self, cores: usize) -> Vec<Box<dyn TraceGenerator>>;
}

/// A position-tracking wrapper around a [`TraceGenerator`].
///
/// Generators are deterministic but opaque (closures over RNG state, file
/// cursors), so snapshots persist only the *number of accesses consumed*;
/// resuming rebuilds the generator through its [`TraceFactory`] and
/// fast-forwards to the recorded position. Replaying the generator alone is
/// orders of magnitude cheaper than re-simulating the machine it fed.
#[derive(Debug)]
pub struct TraceCursor {
    gen: Box<dyn TraceGenerator>,
    consumed: u64,
}

impl TraceCursor {
    /// Wrap a freshly built generator at position zero.
    pub fn new(gen: Box<dyn TraceGenerator>) -> Self {
        TraceCursor { gen, consumed: 0 }
    }

    /// Produce the next access, advancing the cursor.
    pub fn next_access(&mut self) -> MemoryAccess {
        self.consumed += 1;
        self.gen.next_access()
    }

    /// Number of accesses pulled from the generator so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// The wrapped generator's benchmark name.
    pub fn name(&self) -> &str {
        self.gen.name()
    }

    /// The wrapped generator's virtual footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.gen.footprint_bytes()
    }

    /// Advance a freshly built cursor to `target` accesses consumed,
    /// discarding the replayed accesses. Returns an error message if the
    /// cursor is already past `target` (the image and the generator
    /// disagree).
    pub fn fast_forward(&mut self, target: u64) -> Result<(), String> {
        if self.consumed > target {
            return Err(format!(
                "trace cursor at {} cannot rewind to {target}",
                self.consumed
            ));
        }
        while self.consumed < target {
            self.next_access();
        }
        Ok(())
    }
}

impl std::fmt::Debug for dyn TraceGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TraceGenerator({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingTrace(u64);
    impl TraceGenerator for CountingTrace {
        fn next_access(&mut self) -> MemoryAccess {
            self.0 += 1;
            MemoryAccess::load(Addr::new(self.0 * 64), 3)
        }
        fn name(&self) -> &str {
            "counting"
        }
        fn footprint_bytes(&self) -> u64 {
            1 << 20
        }
    }

    #[test]
    fn cursor_counts_and_fast_forwards() {
        let mut original = TraceCursor::new(Box::new(CountingTrace(0)));
        for _ in 0..57 {
            original.next_access();
        }
        assert_eq!(original.consumed(), 57);

        // A fresh cursor fast-forwarded to the same position produces the
        // same continuation.
        let mut replay = TraceCursor::new(Box::new(CountingTrace(0)));
        replay.fast_forward(57).unwrap();
        assert_eq!(replay.consumed(), 57);
        for _ in 0..10 {
            assert_eq!(replay.next_access(), original.next_access());
        }

        // Rewinding is an error, not a silent mismatch.
        assert!(replay.fast_forward(5).is_err());
    }

    #[test]
    fn access_constructors() {
        let l = MemoryAccess::load(Addr::new(0x100), 7);
        assert!(!l.write);
        assert_eq!(l.instructions(), 8);
        let s = MemoryAccess::store(Addr::new(0x200), 0);
        assert!(s.write);
        assert_eq!(s.instructions(), 1);
    }
}
