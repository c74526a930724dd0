//! Property suite pinning the shipping subset gather bit-identical to
//! its reference algorithm.
//!
//! `gdp_serve::kernels::gather_subset` (validation pass over a reusable
//! scratch bitmap, then a check-free gather in subset order) and
//! `gather_subset_reference` (the original interleaved loop) must agree
//! on every input: same defect verdict, and — on clean subsets — the
//! same `f64` bits, across subnormal / negative-zero / mixed-magnitude
//! premass values, every subset length up to 80 and the reference's
//! 65 536-node bitmap/sort boundary.

use gdp_serve::kernels::{gather_subset, gather_subset_reference};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Premass pool exercising the float corners where any change to
/// summation order shows up in the bits.
fn awkward_premass(groups: u32, rng: &mut StdRng) -> Vec<f64> {
    (0..groups)
        .map(|_| match rng.gen_range(0u32..8) {
            0 => f64::MIN_POSITIVE / 2.0,
            1 => -f64::MIN_POSITIVE / 4.0,
            2 => -0.0,
            3 => 0.0,
            4 => 1e16,
            5 => -1e16,
            6 => rng.gen_range(-1.0..1.0),
            _ => rng.gen_range(-1e9..1e9),
        })
        .collect()
}

fn assert_agree(group_of: &[u32], premass: &[f64], nodes: &[u32]) {
    let shipping = gather_subset(group_of, premass, nodes);
    let reference = gather_subset_reference(group_of, premass, nodes);
    assert_eq!(
        shipping.map(f64::to_bits),
        reference.map(f64::to_bits),
        "shipping/reference divergence at n={} |S|={}",
        group_of.len(),
        nodes.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Clean, duplicated and out-of-range subsets against small sides
    /// (the reference's stack-bitmap tier), lengths 0 to 79.
    #[test]
    fn small_side_subsets_agree(
        n in 1u32..5000,
        groups in 1u32..64,
        len in 0usize..80,
        defect in 0u32..3,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let group_of: Vec<u32> = (0..n).map(|_| rng.gen_range(0..groups)).collect();
        let premass = awkward_premass(groups, &mut rng);
        // Distinct ids by construction: a permutation prefix.
        let mut ids: Vec<u32> = (0..n).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..(i + 1) as u32) as usize);
        }
        let mut nodes: Vec<u32> = ids.iter().take(len).copied().collect();
        match defect {
            1 if !nodes.is_empty() => {
                let dup = nodes[rng.gen_range(0..nodes.len() as u32) as usize];
                nodes.push(dup);
            }
            2 => nodes.insert(rng.gen_range(0..=nodes.len() as u32) as usize, n + rng.gen_range(0u32..10)),
            _ => {}
        }
        assert_agree(&group_of, &premass, &nodes);
    }

    /// The 65 536-node boundary where the reference switches from its
    /// stack bitmap to sort-based duplicate detection; the shipping
    /// gather's reusable scratch must agree bitwise on both sides.
    #[test]
    fn bitmap_sort_boundary_agrees(
        offset in 0u32..3,          // n ∈ {65_535, 65_536, 65_537}
        groups in 1u32..64,
        len in 0usize..64,
        defect in 0u32..3,
        seed in 0u64..10_000,
    ) {
        let n = 65_535 + offset;
        let mut rng = StdRng::seed_from_u64(seed);
        let group_of: Vec<u32> = (0..n).map(|v| v.wrapping_mul(2_654_435_761) % groups).collect();
        let premass = awkward_premass(groups, &mut rng);
        // Strided distinct ids spanning the whole side.
        let stride = (n / 97).max(1);
        let mut nodes: Vec<u32> = (0..len as u32).map(|i| (i * stride) % n).collect();
        nodes.sort_unstable();
        nodes.dedup();
        match defect {
            1 if !nodes.is_empty() => {
                let dup = nodes[rng.gen_range(0..nodes.len() as u32) as usize];
                nodes.push(dup);
            }
            2 => nodes.push(n + rng.gen_range(0u32..10)),
            _ => {}
        }
        assert_agree(&group_of, &premass, &nodes);
    }
}
