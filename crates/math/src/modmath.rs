//! Overflow-safe modular arithmetic over `u64`.
//!
//! The Karlin–Upfal hash family (paper §2.1) evaluates degree-`S−1`
//! polynomials over `Z_P` for a prime `P ≥ M` where `M` is the PRAM address
//! space, so all operations must be exact for moduli up to `2^63`. We route
//! products through `u128` — a single `mul`, but the `u128` remainder is a
//! library call. [`horner`], the hash-evaluation hot path (`bench_layers`'
//! `hash.eval_ns` row), avoids it for moduli up to `2^32`, where every
//! product of reduced operands fits a `u64`.

/// `(a + b) mod m`. Requires `m > 0`; operands need not be reduced.
#[inline]
pub fn addmod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    let (a, b) = (a % m, b % m);
    let (s, overflow) = a.overflowing_add(b);
    if overflow || s >= m {
        s.wrapping_sub(m)
    } else {
        s
    }
}

/// `(a * b) mod m` via `u128`.
#[inline]
pub fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    ((a as u128 * b as u128) % m as u128) as u64
}

/// `a^e mod m` by binary exponentiation.
pub fn powmod(mut a: u64, mut e: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    if m == 1 {
        return 0;
    }
    a %= m;
    let mut acc: u64 = 1;
    while e > 0 {
        if e & 1 == 1 {
            acc = mulmod(acc, a, m);
        }
        a = mulmod(a, a, m);
        e >>= 1;
    }
    acc
}

/// Evaluate the polynomial `Σ coeffs[i]·x^i mod m` by Horner's rule.
///
/// This is the inner loop of hash evaluation: `h(x) = ((Σ aᵢ xⁱ) mod P)
/// mod N` from the paper's class `H`. For `m ≤ 2³²` it needs one `u64`
/// remainder per coefficient: with `acc, x < m`, `acc·x` fits a `u64`,
/// and so does `acc·x + c` for any coefficient `c < 2⁶⁴ − m²` (a sampled
/// one is `< m`).
#[inline]
pub fn horner(coeffs: &[u64], x: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    if m > 1 << 32 {
        return horner_wide(coeffs, x, m);
    }
    let x = x % m;
    let mut acc: u64 = 0;
    for &c in coeffs.iter().rev() {
        let t = acc * x;
        acc = match t.checked_add(c) {
            Some(s) => s % m,
            None => addmod(t, c, m),
        };
    }
    acc
}

/// [`horner`] for any modulus, every step through `u128`.
fn horner_wide(coeffs: &[u64], x: u64, m: u64) -> u64 {
    let x = x % m;
    let mut acc: u64 = 0;
    for &c in coeffs.iter().rev() {
        acc = addmod(mulmod(acc, x, m), c, m);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `(a - b) mod m`, always in `0..m`.
    fn submod(a: u64, b: u64, m: u64) -> u64 {
        debug_assert!(m > 0);
        let (a, b) = (a % m, b % m);
        if a >= b {
            a - b
        } else {
            a + (m - b)
        }
    }

    /// Modular inverse of `a` mod prime `p` via Fermat's little theorem.
    ///
    /// Returns `None` when `a ≡ 0 (mod p)`.
    fn invmod_prime(a: u64, p: u64) -> Option<u64> {
        if a.is_multiple_of(p) {
            None
        } else {
            Some(powmod(a, p - 2, p))
        }
    }

    #[test]
    fn addmod_handles_near_overflow() {
        let m = u64::MAX - 1;
        assert_eq!(addmod(m - 1, m - 1, m), m - 2);
        assert_eq!(addmod(0, 0, 1), 0);
        assert_eq!(addmod(5, 7, 10), 2);
    }

    #[test]
    fn submod_wraps() {
        assert_eq!(submod(3, 5, 7), 5);
        assert_eq!(submod(5, 3, 7), 2);
        assert_eq!(submod(0, 0, 1), 0);
    }

    #[test]
    fn powmod_small_cases() {
        assert_eq!(powmod(2, 10, 1_000_000_007), 1024);
        assert_eq!(powmod(0, 0, 13), 1); // 0^0 := 1 by convention
        assert_eq!(powmod(7, 0, 13), 1);
        assert_eq!(powmod(123, 456, 1), 0);
    }

    #[test]
    fn fermat_inverse() {
        let p = 1_000_000_007u64;
        for a in [1u64, 2, 999, p - 1] {
            let inv = invmod_prime(a, p).unwrap();
            assert_eq!(mulmod(a, inv, p), 1);
        }
        assert_eq!(invmod_prime(0, p), None);
        assert_eq!(invmod_prime(p, p), None);
    }

    #[test]
    fn horner_matches_naive() {
        let coeffs = [3u64, 0, 5, 7]; // 3 + 5x^2 + 7x^3
        let m = 97;
        for x in 0..97u64 {
            let naive = (3 + 5 * x * x + 7 * x * x * x) % m;
            assert_eq!(horner(&coeffs, x, m), naive, "x={x}");
        }
    }

    #[test]
    fn horner_empty_is_zero() {
        assert_eq!(horner(&[], 5, 13), 0);
    }

    proptest! {
        #[test]
        fn prop_addmod_matches_u128(a: u64, b: u64, m in 1u64..) {
            let expect = ((a as u128 + b as u128) % m as u128) as u64;
            prop_assert_eq!(addmod(a, b, m), expect);
        }

        #[test]
        fn prop_mulmod_matches_u128(a: u64, b: u64, m in 1u64..) {
            let expect = ((a as u128 * b as u128) % m as u128) as u64;
            prop_assert_eq!(mulmod(a, b, m), expect);
        }

        /// The `u64` path equals the `u128` one, for the primes on both
        /// sides of 2³² (so both paths of `horner` run) and a small one,
        /// with reduced and unreduced coefficients.
        #[test]
        fn prop_horner_matches_u128_path(seed: u64, len in 0usize..12, x: u64, reduce: bool) {
            let mut state = seed;
            let coeffs: Vec<u64> = (0..len).map(|_| crate::rng::splitmix64(&mut state)).collect();
            for m in [4_294_967_291u64, 4_294_967_311, 1_000_003, 2] {
                let coeffs: Vec<u64> =
                    coeffs.iter().map(|&c| if reduce { c % m } else { c }).collect();
                prop_assert_eq!(horner(&coeffs, x, m), horner_wide(&coeffs, x, m));
            }
        }

        #[test]
        fn prop_sub_add_roundtrip(a: u64, b: u64, m in 1u64..) {
            let d = submod(a, b, m);
            prop_assert_eq!(addmod(d, b, m), a % m);
        }

        #[test]
        fn prop_powmod_agrees_with_repeated_mul(a in 0u64..1000, e in 0u64..64, m in 1u64..10_000) {
            let mut acc = if m == 1 { 0 } else { 1 % m };
            for _ in 0..e {
                acc = mulmod(acc, a, m);
            }
            if m == 1 {
                prop_assert_eq!(powmod(a, e, m), 0);
            } else if e == 0 {
                prop_assert_eq!(powmod(a, e, m), 1 % m);
            } else {
                prop_assert_eq!(powmod(a, e, m), acc);
            }
        }
    }
}
