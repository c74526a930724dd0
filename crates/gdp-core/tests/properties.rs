//! Property-based tests for the group-privacy core.

use proptest::prelude::*;

use gdp_core::adjacency::{DatasetVector, Group, GroupStructure};
use gdp_core::artifact::content_digest;
use gdp_core::codec;
use gdp_core::scoring::{cut_utilities, cut_utilities_naive, prefix_masses};
use gdp_core::{
    relative_error, AccessPolicy, AnswerContext, DisclosureConfig, GroupHierarchy, GroupLevel,
    HierarchyStats, MultiLevelDiscloser, NoiseMechanism, Privilege, Query, ReleaseArtifact,
    SpecializationConfig, Specializer, SplitStrategy,
};
use gdp_graph::binfmt::read_container;
use gdp_graph::io::xxh64;
use gdp_graph::{
    BipartiteGraph, DegreeHistogram, GraphBuilder, LeftId, PairCounts, RightId, Side, SidePartition,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn graph_strategy() -> impl Strategy<Value = BipartiteGraph> {
    (2u32..30, 2u32..30)
        .prop_flat_map(|(nl, nr)| {
            let edges = proptest::collection::vec((0..nl, 0..nr), 1..150);
            (Just(nl), Just(nr), edges)
        })
        .prop_map(|(nl, nr, edges)| {
            let mut b = GraphBuilder::new(nl, nr);
            for (l, r) in edges {
                b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
            }
            b.build()
        })
}

/// `ids` relabelled in first-seen order, so every label in
/// `0..count` is used: a surjective assignment and its block count.
fn compact(ids: &[u32]) -> (Vec<u32>, u32) {
    let mut relabel = std::collections::HashMap::new();
    let out = ids
        .iter()
        .map(|id| {
            let next = relabel.len() as u32;
            *relabel.entry(*id).or_insert(next)
        })
        .collect();
    (out, relabel.len() as u32)
}

/// A random nested hierarchy of `levels` levels over `nl` + `nr` nodes:
/// level 0 is the singletons or a random partition, and each coarser
/// level repeats the one below or merges its blocks at random.
fn nested_hierarchy(
    nl: u32,
    nr: u32,
    levels: usize,
    singletons: bool,
    seed: u64,
) -> GroupHierarchy {
    let mut rng = StdRng::seed_from_u64(seed);
    let finest = |side, n: u32, rng: &mut StdRng| {
        if singletons {
            return SidePartition::singletons(side, n);
        }
        let ids: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n.div_ceil(2))).collect();
        let (assignment, blocks) = compact(&ids);
        SidePartition::new(side, assignment, blocks).unwrap()
    };
    let mut out = vec![GroupLevel::new(
        finest(Side::Left, nl, &mut rng),
        finest(Side::Right, nr, &mut rng),
    )
    .unwrap()];
    while out.len() < levels {
        let below = out.last().unwrap();
        let next = if rng.gen_bool(0.3) {
            below.clone()
        } else {
            let mut merge = |p: &SidePartition| {
                let targets = p.block_count().div_ceil(2);
                let map: Vec<u32> = (0..p.block_count())
                    .map(|_| rng.gen_range(0..targets))
                    .collect();
                let (map, blocks) = compact(&map);
                p.coarsen(&map, blocks).unwrap()
            };
            GroupLevel::new(merge(below.left()), merge(below.right())).unwrap()
        };
        out.push(next);
    }
    GroupHierarchy::new(out).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn nested_hierarchies_round_trip_through_the_refinement_chain(
        graph in graph_strategy(),
        levels in 1usize..7,
        singletons in 0u8..2,
        seed in 0u64..1000,
    ) {
        let h = nested_hierarchy(graph.left_count(), graph.right_count(), levels, singletons == 1, seed);
        let release = MultiLevelDiscloser::new(
            DisclosureConfig::count_only(0.5, 1e-6)
                .unwrap()
                .with_queries(vec![Query::TotalAssociations, Query::PerGroupCounts]),
        )
        .disclose(&graph, &h, &mut StdRng::seed_from_u64(seed))
        .unwrap();
        let sealed = ReleaseArtifact::seal("chain", seed, h, release).unwrap();
        let back = codec::decode(&codec::encode(&sealed).unwrap())
            .unwrap()
            .seal()
            .unwrap();
        prop_assert_eq!(&back, &sealed);
        prop_assert_eq!(
            content_digest(back.hierarchy(), back.release()),
            sealed.manifest().content_digest
        );
        // The decoded maps are the ones refinement validation yields.
        let decoded = back.hierarchy();
        prop_assert_eq!(decoded.block_maps().len(), levels - 1);
        for (i, maps) in decoded.block_maps().iter().enumerate() {
            let (finer, coarser) = (&decoded.levels()[i], &decoded.levels()[i + 1]);
            prop_assert_eq!(&maps[0], &finer.left().block_map_to(coarser.left()).unwrap());
            prop_assert_eq!(&maps[1], &finer.right().block_map_to(coarser.right()).unwrap());
            prop_assert_eq!(maps, &sealed.hierarchy().block_maps()[i]);
        }
    }

    #[test]
    fn specialization_invariants_hold_for_all_strategies(
        graph in graph_strategy(),
        rounds in 1u32..5,
        strategy_pick in 0u8..3,
        seed in 0u64..100,
    ) {
        let strategy = match strategy_pick {
            0 => SplitStrategy::Exponential,
            1 => SplitStrategy::Median,
            _ => SplitStrategy::Random,
        };
        let mut config = SpecializationConfig::paper_default(rounds).unwrap();
        config.strategy = strategy;
        let h = Specializer::new(config)
            .specialize(&graph, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        // The chain passes the validating constructor, which derives
        // the same block maps.
        let validated = GroupHierarchy::new(h.levels().to_vec()).unwrap();
        prop_assert_eq!(validated.block_maps(), h.block_maps());
        prop_assert_eq!(h.level_count(), rounds as usize + 2);
        // Finest level is singletons.
        prop_assert_eq!(
            h.finest().group_count(),
            graph.left_count() as u64 + graph.right_count() as u64
        );
        // Coarsest level is one group per side.
        prop_assert_eq!(h.coarsest().group_count(), 2);
        // Sensitivities monotone and bounded by m.
        let sens = h.sensitivities(&graph);
        for w in sens.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        prop_assert_eq!(*sens.last().unwrap(), graph.edge_count());
        // Group counts strictly shrink toward the top (or stay equal once
        // saturated at singletons).
        let counts = h.group_counts();
        for w in counts.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn per_group_counts_partition_edge_mass(
        graph in graph_strategy(),
        seed in 0u64..100,
    ) {
        let h = Specializer::new(SpecializationConfig::median(2).unwrap())
            .specialize(&graph, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        for level in h.levels() {
            let answer = Query::PerGroupCounts.answer(&graph, level);
            let left_blocks = level.left().block_count() as usize;
            let left_sum: f64 = answer.values[..left_blocks].iter().sum();
            let right_sum: f64 = answer.values[left_blocks..].iter().sum();
            prop_assert!((left_sum - graph.edge_count() as f64).abs() < 1e-9);
            prop_assert!((right_sum - graph.edge_count() as f64).abs() < 1e-9);
            // L2 ≤ L1 always.
            prop_assert!(answer.sensitivity.l2 <= answer.sensitivity.l1 + 1e-9);
        }
    }

    #[test]
    fn hierarchy_stats_bit_identical_to_per_level_scan(
        graph in graph_strategy(),
        rounds in 1u32..5,
        seed in 0u64..100,
    ) {
        let h = Specializer::new(SpecializationConfig::paper_default(rounds).unwrap())
            .specialize(&graph, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let stats = HierarchyStats::compute(&graph, &h).unwrap();
        prop_assert_eq!(stats.level_count(), h.level_count());
        for (i, level) in h.levels().iter().enumerate() {
            let cached = stats.level(i).unwrap();
            // Rolled-up CSR counts equal a direct per-level edge scan.
            // The finest level is the singletons, whose table is the
            // adjacency the graph holds, so it is not kept.
            let direct = PairCounts::compute(&graph, level.left(), level.right());
            prop_assert_eq!(cached.pair_counts().is_none(), i == 0);
            match cached.pair_counts() {
                Some(table) => prop_assert_eq!(table, &direct),
                None => prop_assert_eq!(PairCounts::from_adjacency(&graph), direct),
            }
            // Cached marginals equal the per-call edge accounting.
            prop_assert_eq!(cached.incident_edges(), level.incident_edges(&graph));
            prop_assert_eq!(
                cached.max_incident_edges(),
                level.max_incident_edges(&graph)
            );
            prop_assert_eq!(cached.total(), graph.edge_count());
        }
        prop_assert_eq!(stats.sensitivities(), h.sensitivities(&graph));
    }

    #[test]
    fn cached_answers_bit_identical_to_direct_answers(
        graph in graph_strategy(),
        rounds in 1u32..4,
        seed in 0u64..100,
    ) {
        let h = Specializer::new(SpecializationConfig::median(rounds).unwrap())
            .specialize(&graph, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let stats = HierarchyStats::compute(&graph, &h).unwrap();
        let left_degree_hist = DegreeHistogram::from_degrees(&graph.left_degrees());
        let queries = [
            Query::TotalAssociations,
            Query::PerGroupCounts,
            Query::LeftDegreeHistogram { max_degree: 8 },
            Query::GroupSizeCounts,
        ];
        for (i, level) in h.levels().iter().enumerate() {
            let ctx = AnswerContext {
                level,
                stats: stats.level(i).unwrap(),
                left_degree_hist: &left_degree_hist,
            };
            for q in queries {
                // PartialEq on QueryAnswer compares every value and both
                // sensitivity floats exactly — bitwise equivalence.
                prop_assert_eq!(q.answer(&graph, level), q.answer_cached(&ctx));
            }
        }
    }

    #[test]
    fn disclosure_metadata_is_consistent(
        graph in graph_strategy(),
        eps in 0.05f64..0.95,
        seed in 0u64..100,
    ) {
        let h = Specializer::new(SpecializationConfig::median(2).unwrap())
            .specialize(&graph, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let release = MultiLevelDiscloser::new(
            DisclosureConfig::count_only(eps, 1e-6).unwrap(),
        )
        .disclose(&graph, &h, &mut StdRng::seed_from_u64(seed ^ 1))
        .unwrap();
        prop_assert_eq!(release.levels().len(), h.level_count());
        for (i, level) in release.levels().iter().enumerate() {
            prop_assert_eq!(level.level, i);
            prop_assert_eq!(level.group_count, h.level(i).unwrap().group_count());
            prop_assert!((level.budget.epsilon.get() - eps).abs() < 1e-12);
            for q in &level.queries {
                prop_assert!(q.noise_scale > 0.0);
                prop_assert!(q.noisy_values.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn streamed_content_digest_equals_hash_of_gda_sections(
        graph in graph_strategy(),
        rounds in 1u32..4,
        mechanism_pick in 0u8..4,
        query_mask in 1u8..16,
        eps in 0.05f64..0.95,
        seed in 0u64..1000,
    ) {
        let h = Specializer::new(SpecializationConfig::median(rounds).unwrap())
            .specialize(&graph, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let mechanism = [
            NoiseMechanism::GaussianClassic,
            NoiseMechanism::GaussianAnalytic,
            NoiseMechanism::Laplace,
            NoiseMechanism::Geometric,
        ][mechanism_pick as usize];
        let queries: Vec<Query> = [
            Query::TotalAssociations,
            Query::PerGroupCounts,
            Query::LeftDegreeHistogram { max_degree: 8 },
            Query::GroupSizeCounts,
        ]
        .into_iter()
        .enumerate()
        .filter(|(i, _)| query_mask & (1 << i) != 0)
        .map(|(_, q)| q)
        .collect();
        let release = MultiLevelDiscloser::new(
            DisclosureConfig::count_only(eps, 1e-6)
                .unwrap()
                .with_mechanism(mechanism)
                .with_queries(queries),
        )
        .disclose(&graph, &h, &mut StdRng::seed_from_u64(seed ^ 1))
        .unwrap();
        let streamed = content_digest(&h, &release);
        let sealed = ReleaseArtifact::seal("prop", seed, h, release).unwrap();
        // The definition: XXH64 over the hierarchy section payload, a
        // zero byte, then the release section payload, as the container
        // reader hands them back from the encoded file, concatenated.
        let bytes = codec::encode(&sealed).unwrap();
        let sections = read_container(&bytes).unwrap();
        let payload = |tag: u32| sections.iter().find(|(t, _)| *t == tag).unwrap().1;
        let oracle = xxh64(
            &[payload(codec::SECTION_HIERARCHY), &[0], payload(codec::SECTION_RELEASE)].concat(),
        );
        prop_assert_eq!(streamed, oracle);
        prop_assert_eq!(sealed.manifest().content_digest, oracle);
        // The parts decoded back from the file re-derive it too.
        let from_gda = codec::decode(&bytes).unwrap().seal().unwrap();
        prop_assert_eq!(content_digest(from_gda.hierarchy(), from_gda.release()), oracle);
        prop_assert_eq!(&from_gda, &sealed);
    }

    #[test]
    fn access_policy_is_monotone(levels in 1usize..12, privilege in 0usize..15) {
        let policy = AccessPolicy::new(levels).unwrap();
        let p = Privilege::new(privilege);
        let range = policy.accessible_levels(p);
        for l in 0..levels {
            prop_assert_eq!(policy.allows(p, l), range.contains(&l));
            // A weaker privilege never sees more.
            let weaker = Privilege::new(privilege + 1);
            if policy.allows(weaker, l) {
                prop_assert!(policy.allows(p, l));
            }
        }
    }

    #[test]
    fn relative_error_properties(p in -1e9f64..1e9, t in 1e-3f64..1e9) {
        let r = relative_error(p, t);
        prop_assert!(r >= 0.0);
        prop_assert!((relative_error(t, t)).abs() < 1e-12);
        // Symmetric around the truth.
        let above = relative_error(t + 5.0, t);
        let below = relative_error(t - 5.0, t);
        prop_assert!((above - below).abs() < 1e-9);
        prop_assert!(r.is_finite());
    }

    #[test]
    fn prefix_sum_cut_scores_match_naive_exactly(
        graph in graph_strategy(),
        max_candidates in 1usize..80,
        use_right in proptest::bool::ANY,
        start_pick in 0usize..1000,
        end_pick in 0usize..1000,
    ) {
        // Score the whole side and one sub-range of its (degree, id)
        // order with both scorers: the range scorer reads the side's
        // cumulative mass, the naive one rescans the members, and they
        // must agree bit-for-bit, not just approximately.
        let degrees = if use_right {
            graph.right_degrees()
        } else {
            graph.left_degrees()
        };
        prop_assert!(degrees.len() >= 2);
        let mut order: Vec<u32> = (0..degrees.len() as u32).collect();
        order.sort_unstable_by_key(|&n| (degrees[n as usize], n));
        let prefix = prefix_masses(&order, &degrees);
        let n = order.len();
        let s = start_pick % (n - 1);
        let e = s + 2 + end_pick % (n - s - 1);
        for (s, e) in [(0, n), (s, e)] {
            // Evenly spaced candidates — the specializer's rule.
            let available = e - s - 1;
            let take = available.min(max_candidates.max(1));
            let candidates: Vec<usize> = (1..=take)
                .map(|i| 1 + (i - 1) * available / take)
                .collect();
            let fast = cut_utilities(&prefix[s..=e], &candidates);
            let naive = cut_utilities_naive(&order[s..e], &degrees, &candidates);
            prop_assert_eq!(fast, naive);
        }
    }

    #[test]
    fn group_adjacency_iff_union_with_one_group(
        sizes in proptest::collection::vec(1usize..5, 1..6),
        which in 0usize..6,
    ) {
        // Build a structure with the given group sizes.
        let mut groups = Vec::new();
        let mut next = 0usize;
        for s in &sizes {
            groups.push(Group::new((next..next + s).collect()));
            next += s;
        }
        let universe = next;
        let gs = GroupStructure::new(groups.clone(), universe).unwrap();
        let base = DatasetVector::new(vec![1; universe]);
        let which = which % groups.len();
        // Remove exactly group `which` from the full dataset.
        let mut counts = vec![1u64; universe];
        for &m in groups[which].members() {
            counts[m] = 0;
        }
        let removed = DatasetVector::new(counts);
        prop_assert_eq!(gs.adjacency_witness(&base, &removed), Some(which));
        // Removing one extra element breaks adjacency (unless a group of
        // size 1 happens to match — excluded by removing from `which`'s
        // complement when possible).
        if let Some(extra) = (0..universe).find(|i| !groups[which].members().contains(i)) {
            let mut counts2 = removed.counts().to_vec();
            counts2[extra] = 0;
            let removed2 = DatasetVector::new(counts2);
            // Either not adjacent to base, or adjacent via a different
            // (singleton) group — never via `which`.
            if let Some(w) = gs.adjacency_witness(&base, &removed2) {
                prop_assert_ne!(w, which);
            }
        }
    }
}
