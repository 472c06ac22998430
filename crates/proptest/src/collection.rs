//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use rand::Rng;
use std::ops::{Range, RangeInclusive};

/// Anything usable as a vec-length specification: a fixed `usize`, a
/// `Range<usize>`, or a `RangeInclusive<usize>`.
pub trait IntoSizeRange {
    /// Converts to inclusive `(min, max)` bounds.
    fn bounds(&self) -> (usize, usize);
}

impl IntoSizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

impl IntoSizeRange for Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start < self.end, "empty vec size range");
        (self.start, self.end - 1)
    }
}

impl IntoSizeRange for RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start() <= self.end(), "empty vec size range");
        (*self.start(), *self.end())
    }
}

/// Generates `Vec`s whose elements come from `element` and whose length
/// falls in `size`.
pub fn vec<S: Strategy, Z: IntoSizeRange>(element: S, size: Z) -> VecStrategy<S> {
    let (min, max) = size.bounds();
    VecStrategy { element, min, max }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    min: usize,
    max: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = rng.gen_range(self.min..=self.max);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::case_rng;

    #[test]
    fn fixed_and_ranged_sizes() {
        let mut rng = case_rng("vec", 0);
        let fixed = vec(0u32..5, 3usize).generate(&mut rng);
        assert_eq!(fixed.len(), 3);
        for case in 0..100 {
            let mut rng = case_rng("vec", case);
            let v = vec(0u32..5, 1usize..4).generate(&mut rng);
            assert!((1..=3).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }
}
