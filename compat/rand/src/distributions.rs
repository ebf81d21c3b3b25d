//! Distribution traits mirroring `rand::distributions`.

use crate::{RngCore, SampleUniform};

pub trait Distribution<T> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// Uniform distribution over a half-open range.
#[derive(Clone, Copy, Debug)]
pub struct Uniform<T> {
    lo: T,
    hi: T,
}

impl<T: SampleUniform> Uniform<T> {
    pub fn new(lo: T, hi: T) -> Self {
        assert!(lo < hi, "Uniform::new requires lo < hi");
        Uniform { lo, hi }
    }
}

impl<T: SampleUniform> Distribution<T> for Uniform<T> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T {
        T::sample_between(rng, self.lo, self.hi, false)
    }
}
