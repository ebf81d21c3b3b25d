//! RNG implementations. `StdRng` is SplitMix64 — not the real crate's
//! ChaCha12, but deterministic, uniform, and plenty for simulation.

use crate::{RngCore, SeedableRng};

/// Deterministic 64-bit generator (SplitMix64, Steele et al. 2014).
#[derive(Clone, Debug)]
pub struct StdRng {
    state: u64,
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl SeedableRng for StdRng {
    fn seed_from_u64(state: u64) -> Self {
        // Pre-mix so nearby seeds (0, 1, 2…) do not produce
        // correlated early outputs.
        let mut rng = StdRng { state: state ^ 0x5851_F42D_4C95_7F2D };
        rng.next_u64();
        rng
    }
}
