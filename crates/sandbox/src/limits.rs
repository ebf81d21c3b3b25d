//! Container resource limits.
//!
//! Paper §V: "the container is configured with limited RAM and no
//! network access … only 8GB of memory, and a maximum lifetime of 1
//! hour." No container reaches the network: the network tools fail
//! whatever the limits say.

use rai_sim::SimDuration;

/// Maximum resident memory of any container: the paper's 8 GB.
pub const MEMORY_BYTES: u64 = 8 * 1024 * 1024 * 1024;

/// Resource limits applied to a container.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Maximum container lifetime (wall clock inside the simulation).
    pub max_lifetime: SimDuration,
    /// Number of GPUs visible inside the container.
    pub gpus: u32,
}

impl Default for ResourceLimits {
    /// The paper's job defaults: 1 hour, one GPU volume.
    fn default() -> Self {
        ResourceLimits { max_lifetime: SimDuration::from_hours(1), gpus: 1 }
    }
}

impl ResourceLimits {
    /// Builder: override the lifetime cap (instructor sessions).
    pub fn with_max_lifetime(mut self, d: SimDuration) -> Self {
        self.max_lifetime = d;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let l = ResourceLimits::default();
        assert_eq!(MEMORY_BYTES, 8 * 1024 * 1024 * 1024);
        assert_eq!(l.max_lifetime, SimDuration::from_hours(1));
        assert_eq!(l.gpus, 1);
    }

    #[test]
    fn builders() {
        let l = ResourceLimits::default().with_max_lifetime(SimDuration::from_mins(5));
        assert_eq!(l.max_lifetime, SimDuration::from_mins(5));
    }
}
