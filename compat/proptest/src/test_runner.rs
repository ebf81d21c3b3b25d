//! Test-loop configuration, error channel, and the deterministic RNG
//! that drives generation.

/// Subset of `proptest::test_runner::ProptestConfig`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a single generated case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// `prop_assume!` failed — skip the case, it does not count.
    Reject(String),
    /// `prop_assert*!` failed — the property is violated.
    Fail(String),
}

/// Deterministic generation RNG (SplitMix64). Each test case gets a
/// seed derived from the test's full path and the case index, so runs
/// are reproducible without any persisted state.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn for_case(test_path: &str, case: u32) -> Self {
        // FNV-1a over the test path, mixed with the case index.
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for byte in test_path.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = TestRng { state: hash ^ ((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) };
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform signed value in `[lo, hi]` (inclusive, `lo <= hi`).
    pub fn int_between(&mut self, lo: i128, hi: i128) -> i128 {
        debug_assert!(lo <= hi);
        let span = (hi - lo + 1) as u128;
        if span == 0 {
            // Full u128 span cannot happen for the 64-bit-derived
            // ranges used here; treat as "any 64 bits".
            return lo + self.next_u64() as i128;
        }
        let wide = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
        lo + (wide % span) as i128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_path_and_case() {
        let mut a = TestRng::for_case("mod::test", 3);
        let mut b = TestRng::for_case("mod::test", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("mod::test", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn int_between_stays_in_bounds() {
        let mut rng = TestRng::for_case("bounds", 0);
        for _ in 0..10_000 {
            let v = rng.int_between(-5, 5);
            assert!((-5..=5).contains(&v));
        }
    }
}
