//! The raw subset-gather kernel behind [`IndexedRelease::answer`]'s
//! subset counts.
//!
//! Exposed as a public module so `bench_pipeline` and the equivalence
//! property suites can drive the shipping gather and its reference
//! algorithm directly, without an artifact in the loop.
//!
//! # Structure
//!
//! The reference form ([`gather_subset_reference`]) interleaves the
//! bounds check, the duplicate-bitmap update and the double gather in
//! one loop, zero-initializes an 8 KiB stack bitmap on every call, and
//! on sides past 65 536 nodes allocates and sorts a copy of the whole
//! subset to find duplicates. The shipping form ([`gather_subset`])
//! splits the work in two plain loops:
//!
//! 1. **Validate** (the private `subset_defective`): one pass over the
//!    subset — bound check, then test-and-set in a **reusable
//!    thread-local bitmap** that is cleared lazily (only the words the
//!    subset touched), so no call zeroes or sorts anything
//!    proportional to the side.
//! 2. **Gather**: a check-free `Σ premass[group_of[v]]` in subset
//!    order.
//!
//! Summation order is part of the released-answer contract (an
//! artifact sealed yesterday must serve the same bits tomorrow), so
//! both forms add in subset order and agree bit for bit; the speedup
//! comes from the bitmap handling, not from reordering the sum.
//!
//! [`IndexedRelease::answer`]: crate::IndexedRelease::answer

use std::cell::RefCell;

/// Stack-bitmap capacity of [`gather_subset_reference`]: 1024 words =
/// 65 536 node ids, the boundary past which it falls back to sort-based
/// duplicate detection.
pub const REFERENCE_BITMAP_WORDS: usize = 1024;

thread_local! {
    /// The reusable duplicate-detection bitmap. Sized to the largest
    /// side this thread has gathered against, zero between calls by
    /// the lazy-clear invariant: every call clears exactly the words
    /// its subset set before returning.
    static DUP_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The shipping subset gather: `Σ premass[group_of[v]]` over `v` in
/// subset order, or `None` when the subset is defective (a node out of
/// range, or a duplicate) — the caller re-walks defective subsets
/// canonically to produce the typed error, so this path never decides
/// error precedence.
///
/// Bit-identical to [`gather_subset_reference`] on every input (pinned
/// by unit and property tests): validation is hoisted, the accumulation
/// order is not changed.
pub fn gather_subset(group_of: &[u32], premass: &[f64], nodes: &[u32]) -> Option<f64> {
    if subset_defective(nodes, group_of.len() as u32) {
        return None;
    }
    let mut total = 0.0;
    for &v in nodes {
        total += premass[group_of[v as usize] as usize];
    }
    Some(total)
}

/// One pass deciding defectiveness: any node `>= n` or any duplicate.
/// Bits are set in the thread-local scratch bitmap and cleared before
/// returning.
fn subset_defective(nodes: &[u32], n: u32) -> bool {
    let words = (n as usize).div_ceil(64);
    DUP_SCRATCH.with(|cell| {
        let mut bitmap = cell.borrow_mut();
        if bitmap.len() < words {
            bitmap.resize(words, 0);
        }
        // The bound check runs first: an out-of-range id would index
        // past the bitmap.
        let defect = nodes.iter().position(|&node| {
            if node >= n {
                return true;
            }
            let (word, bit) = (node as usize / 64, 1u64 << (node % 64));
            let seen = bitmap[word] & bit != 0;
            bitmap[word] |= bit;
            seen
        });
        // Lazy clear: every node before the first defect is in range,
        // and all set bits live in their words, so this restores the
        // all-zero invariant in O(|S|) regardless of the side's size.
        for &node in &nodes[..defect.unwrap_or(nodes.len())] {
            bitmap[node as usize / 64] = 0;
        }
        defect.is_some()
    })
}

/// The original algorithm, kept verbatim as the **reference**: per-node
/// bounds branch, interleaved bitmap update (a zero-initialized 8 KiB
/// stack bitmap for sides up to 65 536 nodes), and — beyond that —
/// duplicate detection by allocating and sorting a copy of the subset
/// on every call. The equivalence oracle for [`gather_subset`] and the
/// baseline of `bench_pipeline`'s `subset_gather` entry.
pub fn gather_subset_reference(group_of: &[u32], premass: &[f64], nodes: &[u32]) -> Option<f64> {
    let n = group_of.len() as u32;
    let words = (n as usize).div_ceil(64);
    let mut defective = false;
    let mut total = 0.0;
    if words <= REFERENCE_BITMAP_WORDS {
        let mut bitmap = [0u64; REFERENCE_BITMAP_WORDS];
        for &node in nodes {
            if node >= n {
                defective = true;
                break;
            }
            let (word, bit) = (node as usize / 64, 1u64 << (node % 64));
            defective |= bitmap[word] & bit != 0;
            bitmap[word] |= bit;
            total += premass[group_of[node as usize] as usize];
        }
    } else {
        for &node in nodes {
            if node >= n {
                defective = true;
                break;
            }
            total += premass[group_of[node as usize] as usize];
        }
        if !defective {
            let mut sorted = nodes.to_vec();
            sorted.sort_unstable();
            defective = sorted.windows(2).any(|w| w[0] == w[1]);
        }
    }
    if defective {
        None
    } else {
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A side of `n` nodes with `groups` groups and sign-mixed premass
    /// values (including a negative zero and a subnormal so ordered
    /// summation differences cannot hide).
    fn side(n: u32, groups: u32) -> (Vec<u32>, Vec<f64>) {
        let group_of: Vec<u32> = (0..n)
            .map(|v| (v.wrapping_mul(2_654_435_761)) % groups)
            .collect();
        let premass: Vec<f64> = (0..groups)
            .map(|g| match g % 5 {
                0 => -0.0,
                1 => f64::MIN_POSITIVE / 2.0,
                2 => (g as f64) * 1e12,
                3 => -(g as f64) * 1e-9,
                _ => g as f64 + 0.125,
            })
            .collect();
        (group_of, premass)
    }

    fn assert_paths_agree(group_of: &[u32], premass: &[f64], nodes: &[u32]) {
        let shipping = gather_subset(group_of, premass, nodes);
        let reference = gather_subset_reference(group_of, premass, nodes);
        assert_eq!(
            shipping.map(f64::to_bits),
            reference.map(f64::to_bits),
            "shipping/reference divergence on subset {nodes:?}"
        );
    }

    /// The 65 536-node reference boundary, one node either side of it
    /// and on it: the shipping gather must agree bitwise with whichever
    /// duplicate detector the reference picks — the regression test for
    /// the large-side sort path.
    #[test]
    fn boundary_65536_both_sides() {
        for n in [65_535u32, 65_536, 65_537] {
            let (group_of, premass) = side(n, 73);
            // Clean subsets across the whole range, remainder lengths included.
            let clean: Vec<u32> = (0..80).map(|i| i * (n / 80)).collect();
            assert_paths_agree(&group_of, &premass, &clean);
            assert_paths_agree(&group_of, &premass, &clean[..7]);
            assert_paths_agree(&group_of, &premass, &[n - 1]);
            // Duplicates, early and late.
            let mut dup = clean.clone();
            dup.push(clean[3]);
            assert_paths_agree(&group_of, &premass, &dup);
            assert_paths_agree(&group_of, &premass, &[0, 0]);
            // Out of range, alone and after valid prefixes.
            assert_paths_agree(&group_of, &premass, &[n]);
            let mut oob = clean.clone();
            oob.push(n + 17);
            assert_paths_agree(&group_of, &premass, &oob);
            // Empty subset.
            assert_paths_agree(&group_of, &premass, &[]);
        }
    }

    /// The scratch bitmap must not leak state between calls on the same
    /// thread: a duplicate (or an early out-of-range exit) in one call
    /// must leave the next call's verdicts untouched.
    #[test]
    fn scratch_bitmap_clears_between_calls() {
        let (group_of, premass) = side(200_000, 31);
        let probe: Vec<u32> = (0..64u32).map(|i| i * 3000).collect();
        let baseline = gather_subset(&group_of, &premass, &probe).expect("clean subset");
        // A duplicate-heavy call, an out-of-range call (early exit after
        // marking a prefix), then the probe again — same bits.
        let mut dup = probe.clone();
        dup.extend_from_slice(&probe);
        assert_eq!(gather_subset(&group_of, &premass, &dup), None);
        let mut oob = probe.clone();
        oob.push(400_000);
        assert_eq!(gather_subset(&group_of, &premass, &oob), None);
        let again = gather_subset(&group_of, &premass, &probe).expect("still clean");
        assert_eq!(baseline.to_bits(), again.to_bits());
        // And a subset that *reuses* ids from the defective calls is
        // still clean — the bits really were cleared, not masked.
        assert!(gather_subset(&group_of, &premass, &probe[..7]).is_some());
    }

    /// Growing the scratch (first large side seen on the thread) must
    /// zero-fill the new words.
    #[test]
    fn scratch_bitmap_grows_zeroed() {
        let (small_g, small_p) = side(70_000, 11);
        let (big_g, big_p) = side(900_000, 11);
        let nodes: Vec<u32> = (0..33u32).map(|i| 60_000 + i * 17).collect();
        assert_paths_agree(&small_g, &small_p, &nodes);
        let far: Vec<u32> = (0..33u32).map(|i| 800_000 + i * 13).collect();
        assert_paths_agree(&big_g, &big_p, &far);
        assert_paths_agree(&big_g, &big_p, &nodes);
    }

    #[test]
    fn chunk_granular_oob_matches_scalar_verdict() {
        // Out-of-range ids at every position of a 17-node subset: both
        // forms must report defective, and clean calls must still work
        // afterwards (the shipping form clears only the prefix it
        // marked before the bad id).
        let (group_of, premass) = side(1000, 7);
        for pos in 0..=16 {
            let mut nodes: Vec<u32> = (0..=16).collect();
            nodes[pos] = 5000;
            assert_paths_agree(&group_of, &premass, &nodes);
        }
        assert_paths_agree(&group_of, &premass, &[1, 2, 3]);
    }

    #[test]
    fn empty_side_rejects_everything() {
        let (group_of, premass): (Vec<u32>, Vec<f64>) = (Vec::new(), Vec::new());
        assert_eq!(gather_subset(&group_of, &premass, &[0]), None);
        assert_eq!(gather_subset(&group_of, &premass, &[]), Some(0.0));
        assert_eq!(gather_subset_reference(&group_of, &premass, &[]), Some(0.0));
    }
}
