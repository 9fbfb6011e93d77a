//! Division by a divisor fixed in advance, without the divide.
//!
//! Node ids are flattened coordinates (`column * width + idx`,
//! `row * cols + col`, base-`r` digit strings), so every routed hop
//! splits one or more of them again — by a divisor that was fixed when
//! the topology was built. A 64-bit hardware divide costs 20–40 cycles;
//! [`Divisor`] precomputes `⌈2⁶⁴ / d⌉` once and answers with the high
//! half of one 64×64 multiply (Lemire, Kaser & Kurz, *Faster remainder
//! by direct computation*, 2019: exact whenever dividend and divisor are
//! both below `2³²`, which node ids are — packets carry them as `u32`).
//!
//! A power-of-two divisor — a butterfly's width and radix powers, a
//! binary shuffle's, a mesh with `2ᵏ` columns — needs no reciprocal: its
//! quotient is a right shift and its remainder a mask, one cycle each
//! and exact for every dividend.

/// A divisor `d ≥ 1` with its precomputed reciprocal.
/// [`div_rem`](Divisor::div_rem) equals `(n / d, n % d)` for **every**
/// `n`: a power-of-two `d` shifts and masks, otherwise dividends below
/// `2³²` take the multiply and larger ones fall back to the hardware
/// divide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divisor {
    d: u64,
    /// `⌈2⁶⁴ / d⌉`, or `0` when `d` is a power of two (including
    /// `d = 1`, whose reciprocal `2⁶⁴` does not fit).
    magic: u64,
    /// `log₂ d` when `d` is a power of two.
    shift: u32,
}

impl Divisor {
    /// Precompute the reciprocal of `d`. Panics on `d = 0`.
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "division by zero");
        let d = d as u64;
        Divisor {
            d,
            magic: if d.is_power_of_two() {
                0
            } else {
                u64::MAX / d + 1
            },
            shift: d.trailing_zeros(),
        }
    }

    /// The divisor itself.
    #[inline]
    pub fn get(&self) -> usize {
        self.d as usize
    }

    /// `(n / d, n % d)`.
    #[inline]
    pub fn div_rem(&self, n: usize) -> (usize, usize) {
        let n = n as u64;
        if self.magic == 0 {
            return ((n >> self.shift) as usize, (n & (self.d - 1)) as usize);
        }
        if n > u64::from(u32::MAX) {
            return ((n / self.d) as usize, (n % self.d) as usize);
        }
        let q = ((u128::from(self.magic) * u128::from(n)) >> 64) as u64;
        (q as usize, (n - q * self.d) as usize)
    }

    /// `n / d`.
    #[inline]
    pub fn div(&self, n: usize) -> usize {
        self.div_rem(n).0
    }

    /// `n % d`.
    #[inline]
    pub fn rem(&self, n: usize) -> usize {
        self.div_rem(n).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn check(n: u64, d: u64) {
        let (n, d) = (n as usize, d as usize);
        assert_eq!(Divisor::new(d).div_rem(n), (n / d, n % d), "{n} / {d}");
    }

    #[test]
    fn div_rem_is_exact_at_the_edges_of_every_small_and_special_divisor() {
        let max = u64::from(u32::MAX);
        let mut divisors: Vec<u64> = (1..=4096).collect();
        for k in 0..32 {
            divisors.extend([(1u64 << k).saturating_sub(1).max(1), 1 << k, (1 << k) + 1]);
        }
        divisors.push(max);
        for d in divisors {
            for n in [0, d - 1, d, max] {
                check(n, d);
            }
            // Around multiples of d spread over the whole 32-bit range.
            for q in [1, 2, 3, max / d / 2, max / d] {
                for n in [(q * d).saturating_sub(1), q * d, q * d + 1] {
                    check(n.min(max), d);
                }
            }
        }
    }

    #[test]
    fn get_div_and_rem_agree_with_div_rem() {
        let d = Divisor::new(1024);
        assert_eq!(d.get(), 1024);
        assert_eq!((d.div(5000), d.rem(5000)), (4, 904));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_divisor_is_refused() {
        Divisor::new(0);
    }

    proptest! {
        #[test]
        fn prop_div_rem_matches_hardware_below_2_pow_32(n: u32, d in 1u32..) {
            check(u64::from(n), u64::from(d));
        }

        /// Outside the multiply's exact range the answer is still right.
        #[test]
        fn prop_div_rem_matches_hardware_on_any_operands(n: u64, d in 1u64..) {
            check(n, d);
        }

        /// The shift-and-mask path of `d = 2ᵏ`, k ≤ 40, on dividends
        /// on both sides of `2³²` (up to `2⁴⁸`) and anywhere in `u64`.
        #[test]
        fn prop_power_of_two_divisors_shift_exactly(
            k in 0u32..=40,
            small: u32,
            mid in 0u64..1 << 48,
            any: u64,
        ) {
            let d = 1u64 << k;
            prop_assert_eq!(Divisor::new(d as usize).magic, 0);
            for n in [u64::from(small), mid, any, d - 1, d, d << 8 | 1] {
                check(n, d);
            }
        }
    }
}
