//! Bucket-load analysis: Lemma 2.2 and Corollaries 3.1–3.3.
//!
//! The emulation bound needs: *with extremely high probability, no more
//! than `cℓ` of the requested items land in the same memory module*
//! (§2.4). Lemma 2.2 (due to Karlin & Upfal) bounds the tail of the load
//! `X_S^L` of module `L` under a random `h ∈ H`. This module computes both
//! the *measured* loads of sampled hash functions and the *analytic*
//! bound, so the `lemma22` experiment can print them side by side.

use crate::family::PolyHash;
use lnpram_math::bounds::ln_choose;

/// Per-module loads when `items` are hashed by `h`.
pub fn load_profile(h: &PolyHash, items: impl Iterator<Item = u64>) -> Vec<u32> {
    let mut loads = vec![0u32; h.modules() as usize];
    for x in items {
        loads[h.eval(x) as usize] += 1;
    }
    loads
}

/// Maximum per-module load when `items` are hashed by `h`.
pub fn max_load(h: &PolyHash, items: impl Iterator<Item = u64>) -> u32 {
    load_profile(h, items).into_iter().max().unwrap_or(0)
}

/// Lemma 2.2 tail bound for a *single fixed module* `L`:
///
/// ```text
/// P[X_S^L ≥ γ] ≤ C(|S|, δ) · (1/N)^δ / C(γ, δ)      for γ > δ
/// ```
///
/// where `δ = S` is the polynomial degree parameter. (The paper's proof
/// counts "bad" degree-(δ−1) polynomials through the interpolation
/// argument: any δ of the γ colliding points determine the polynomial.)
///
/// Returns a probability (clamped to 1.0).
pub fn karlin_upfal_tail_bound(set_size: u64, modules: u64, degree_s: u64, gamma: u64) -> f64 {
    assert!(modules >= 1);
    if gamma <= degree_s {
        return 1.0; // the lemma requires γ > δ
    }
    if gamma > set_size {
        return 0.0;
    }
    let ln_p = ln_choose(set_size, degree_s)
        - degree_s as f64 * (modules as f64).ln()
        - ln_choose(gamma, degree_s);
    ln_p.exp().min(1.0)
}

/// Union bound over all `N` modules: `P[max load ≥ γ] ≤ N · (single-module
/// bound)` — this is the form used in Theorem 2.5's proof ("fixing δ to be
/// cℓ, the probability that more than cℓ elements … is bounded by N^{-α}").
pub fn karlin_upfal_max_load_bound(set_size: u64, modules: u64, degree_s: u64, gamma: u64) -> f64 {
    (modules as f64 * karlin_upfal_tail_bound(set_size, modules, degree_s, gamma)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::HashFamily;
    use lnpram_math::rng::SeedSeq;

    #[test]
    fn load_profile_sums_to_item_count() {
        let fam = HashFamily::new(1 << 14, 32, 4);
        let h = fam.sample(&mut SeedSeq::new(1).rng());
        let loads = load_profile(&h, 0..5000u64);
        assert_eq!(loads.len(), 32);
        assert_eq!(loads.iter().map(|&c| c as u64).sum::<u64>(), 5000);
        assert_eq!(max_load(&h, 0..5000u64), loads.into_iter().max().unwrap());
    }

    #[test]
    fn tail_bound_vacuous_at_or_below_delta() {
        assert_eq!(karlin_upfal_tail_bound(1000, 100, 10, 10), 1.0);
        assert_eq!(karlin_upfal_tail_bound(1000, 100, 10, 5), 1.0);
    }

    #[test]
    fn tail_bound_zero_above_set_size() {
        assert_eq!(karlin_upfal_tail_bound(100, 10, 4, 101), 0.0);
    }

    #[test]
    fn tail_bound_decreasing_in_gamma() {
        // |S| = N = 4096 (one request per module on average), δ = 8.
        let b1 = karlin_upfal_tail_bound(1 << 12, 1 << 12, 8, 12);
        let b2 = karlin_upfal_tail_bound(1 << 12, 1 << 12, 8, 16);
        let b3 = karlin_upfal_tail_bound(1 << 12, 1 << 12, 8, 24);
        assert!(b1 < 1.0);
        assert!(b2 < b1, "{b2} !< {b1}");
        assert!(b3 < b2);
    }

    #[test]
    fn bound_becomes_tiny_at_c_ell() {
        // The emulation regime: |S| = N requests, N modules, δ = ℓ = 16,
        // γ = 4ℓ. The bound should be astronomically small.
        let b = karlin_upfal_max_load_bound(1 << 16, 1 << 16, 16, 64);
        assert!(b < 1e-12, "bound {b}");
    }

    #[test]
    fn measured_loads_rarely_exceed_bound_threshold() {
        // Empirical check of Lemma 2.2's *shape*: with δ = 8 and γ = 24,
        // the analytic bound is far below 1/trials, so no trial should see
        // max load ≥ γ.
        let n_modules = 256u64;
        let set: Vec<u64> = (0..n_modules).map(|i| i * 977 + 13).collect();
        let fam = HashFamily::new(1 << 20, n_modules, 8);
        let gamma = 24u32;
        let bound = karlin_upfal_max_load_bound(set.len() as u64, n_modules, 8, gamma as u64);
        assert!(bound < 1e-6, "analytic bound {bound}");
        let mut violations = 0;
        for t in 0..100 {
            let h = fam.sample(&mut SeedSeq::new(42).child(t).rng());
            if max_load(&h, set.iter().copied()) >= gamma {
                violations += 1;
            }
        }
        assert_eq!(violations, 0);
    }
}
