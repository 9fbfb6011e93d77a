//! Sampling and evaluating functions from the class `H`.

use lnpram_math::modmath::horner;
use lnpram_math::primes::next_prime_at_least;
use lnpram_math::rng::Rng;

/// The family `H` for a fixed `(M, N, S)`: address space `M`, module count
/// `N`, polynomial degree parameter `S` (number of coefficients).
///
/// The paper sets `S = cL` where `L` is the diameter of the emulating
/// network and `c` a constant chosen for the desired failure probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashFamily {
    /// PRAM shared-address-space size M.
    pub address_space: u64,
    /// Number of memory modules N.
    pub modules: u64,
    /// Number of polynomial coefficients S (degree S−1).
    pub degree_s: usize,
    /// The prime `P ≥ M` actually used.
    pub prime: u64,
}

impl HashFamily {
    /// Family for `M` addresses onto `N` modules with degree parameter `S`.
    pub fn new(address_space: u64, modules: u64, degree_s: usize) -> Self {
        assert!(address_space >= 1, "empty address space");
        assert!(modules >= 1, "need at least one module");
        assert!(degree_s >= 1, "need at least one coefficient");
        // P must exceed every address (addresses are 0..M) and be >= M.
        let prime = next_prime_at_least(address_space.max(2));
        HashFamily {
            address_space,
            modules,
            degree_s,
            prime,
        }
    }

    /// The paper's parameterisation: `S = c·L` for diameter `L`, with the
    /// multiplier `c` (≥ 1).
    pub fn for_diameter(address_space: u64, modules: u64, diameter: usize, c: usize) -> Self {
        Self::new(address_space, modules, (c * diameter).max(1))
    }

    /// Sample a uniformly random member of the family.
    pub fn sample(&self, rng: &mut Rng) -> PolyHash {
        let coeffs = (0..self.degree_s)
            .map(|_| rng.gen_range(0..self.prime))
            .collect();
        PolyHash {
            coeffs,
            prime: self.prime,
            modules: self.modules,
        }
    }
}

/// One sampled hash function `h(x) = ((Σ aᵢ xⁱ) mod P) mod N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyHash {
    coeffs: Vec<u64>,
    prime: u64,
    modules: u64,
}

impl PolyHash {
    /// Build from explicit coefficients (tests; production code samples
    /// via [`HashFamily::sample`]).
    pub fn from_coeffs(coeffs: Vec<u64>, prime: u64, modules: u64) -> Self {
        assert!(!coeffs.is_empty());
        assert!(modules >= 1);
        PolyHash {
            coeffs,
            prime,
            modules,
        }
    }

    /// The module for address `x`.
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        horner(&self.coeffs, x, self.prime) % self.modules
    }

    /// Number of coefficients S.
    pub fn degree_s(&self) -> usize {
        self.coeffs.len()
    }

    /// The coefficients `a₀..a_{S−1}` — the description that gets
    /// broadcast when rehashing (`S · ⌈log₂ P⌉` bits, the paper's
    /// `O(L log M)`); a hash rebuilt from them via
    /// [`PolyHash::from_coeffs`] is identical.
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// The modulus prime P.
    pub fn prime(&self) -> u64 {
        self.prime
    }

    /// The number of modules N.
    pub fn modules(&self) -> u64 {
        self.modules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_math::primes::is_prime;
    use lnpram_math::rng::SeedSeq;
    use proptest::prelude::*;

    #[test]
    fn family_picks_prime_at_least_m() {
        let fam = HashFamily::new(1 << 20, 64, 8);
        assert!(fam.prime >= 1 << 20);
        assert!(is_prime(fam.prime));
    }

    #[test]
    fn eval_in_range_and_deterministic() {
        let fam = HashFamily::new(10_000, 37, 5);
        let mut rng = SeedSeq::new(3).rng();
        let h = fam.sample(&mut rng);
        for x in 0..10_000u64 {
            let v = h.eval(x);
            assert!(v < 37);
            assert_eq!(v, h.eval(x), "must be deterministic");
        }
    }

    #[test]
    fn distinct_samples_differ() {
        let fam = HashFamily::new(1 << 16, 256, 6);
        let mut rng = SeedSeq::new(5).rng();
        let h1 = fam.sample(&mut rng);
        let h2 = fam.sample(&mut rng);
        assert_ne!(h1, h2);
        // ... and disagree on at least one input
        assert!((0..1000u64).any(|x| h1.eval(x) != h2.eval(x)));
    }

    #[test]
    fn for_diameter_multiplies() {
        let fam = HashFamily::for_diameter(1 << 12, 16, 9, 2);
        assert_eq!(fam.degree_s, 18);
    }

    #[test]
    fn constant_polynomial_is_constant() {
        let h = PolyHash::from_coeffs(vec![5], 101, 7);
        for x in 0..50 {
            assert_eq!(h.eval(x), 5);
        }
    }

    #[test]
    fn linear_hash_is_affine_mod_p_mod_n() {
        let h = PolyHash::from_coeffs(vec![3, 2], 101, 10);
        for x in 0..101u64 {
            assert_eq!(h.eval(x), ((3 + 2 * x) % 101) % 10);
        }
    }

    #[test]
    fn sampled_hash_has_family_degree() {
        for degree_s in [1usize, 2, 8, 40] {
            let fam = HashFamily::new(1 << 16, 64, degree_s);
            let h = fam.sample(&mut SeedSeq::new(9).rng());
            assert_eq!(h.degree_s(), degree_s);
            assert_eq!(h.prime(), fam.prime);
            assert_eq!(h.modules(), fam.modules);
        }
    }

    #[test]
    fn description_roundtrip_reproduces_evaluation() {
        // The rehash broadcast: a hash rebuilt from its transmitted
        // description (coefficients + P + N) must evaluate identically.
        let fam = HashFamily::new(1 << 20, 128, 12);
        let h = fam.sample(&mut SeedSeq::new(21).rng());
        let rebuilt = PolyHash::from_coeffs(h.coeffs().to_vec(), h.prime(), h.modules());
        assert_eq!(rebuilt, h);
        for x in (0..1u64 << 20).step_by(997) {
            assert_eq!(rebuilt.eval(x), h.eval(x), "x={x}");
        }
    }

    #[test]
    fn same_seed_same_hash() {
        // Fuzz-failure reproducibility: sampling with the seed a failing
        // test printed must rebuild the exact hash function.
        let fam = HashFamily::new(1 << 18, 32, 6);
        let a = fam.sample(&mut SeedSeq::new(0xDEAD_BEEF).rng());
        let b = fam.sample(&mut SeedSeq::new(0xDEAD_BEEF).rng());
        assert_eq!(a, b);
        assert_eq!(a.coeffs(), b.coeffs());
    }

    #[test]
    fn marginal_uniformity_rough() {
        // With a random degree-8 polynomial, loads over many addresses
        // should be near-uniform: no module gets more than 3x the mean.
        let fam = HashFamily::new(1 << 16, 64, 8);
        let mut rng = SeedSeq::new(11).rng();
        let h = fam.sample(&mut rng);
        let mut counts = vec![0u32; 64];
        for x in 0..(1u64 << 16) {
            counts[h.eval(x) as usize] += 1;
        }
        let mean = (1 << 16) / 64;
        for (m, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - mean as i64).unsigned_abs() < mean as u64,
                "module {m} load {c} vs mean {mean}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_eval_below_modules(seed: u64, x: u64, n in 1u64..1000) {
            let fam = HashFamily::new(1 << 24, n, 4);
            let h = fam.sample(&mut SeedSeq::new(seed).rng());
            prop_assert!(h.eval(x) < n);
        }

        #[test]
        fn prop_pairwise_collision_rate(seed: u64) {
            // Degree >= 2 gives pairwise independence: over random pairs,
            // collision rate should be near 1/N.
            let n = 32u64;
            let fam = HashFamily::new(1 << 20, n, 2);
            let h = fam.sample(&mut SeedSeq::new(seed).rng());
            let mut rng = SeedSeq::new(seed).child(1).rng();
            let mut collisions = 0u32;
            let pairs = 2000u32;
            for _ in 0..pairs {
                let x = rng.gen_range(0..1u64 << 20);
                let y = rng.gen_range(0..1u64 << 20);
                if x != y && h.eval(x) == h.eval(y) {
                    collisions += 1;
                }
            }
            // Expected ~ pairs/n = 62.5; allow generous slack (8x) since a
            // single fixed h has quenched randomness.
            prop_assert!(collisions < 8 * pairs / n as u32,
                "collisions={collisions}");
        }
    }
}
