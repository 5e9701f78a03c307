//! Property test: a destination search that stops when `dst` settles
//! returns exactly what a full shortest-path tree says about `dst`.
//!
//! Costs are either all 1.0 or small integers, so equal-cost routes are
//! common and any change in tie-breaking would show. Links are excluded at
//! random, which also produces unreachable pairs.

use drt_net::algo::{k_shortest_paths, shortest_path, shortest_path_tree, two_step_disjoint_pair};
use drt_net::{topology, Bandwidth, LinkId, NodeId};
use proptest::prelude::*;

const CAP: Bandwidth = Bandwidth::from_mbps(100);

/// Per-link cost codes (0 excludes the link, 1..=3 is its integer cost),
/// enough for the largest generated network's 2 × 39 directed links.
const MAX_LINKS: usize = 2 * 40;

fn arb_case() -> impl Strategy<Value = (drt_net::Network, Vec<u8>, bool, u32, u32)> {
    (
        4usize..=16,
        0usize..=24,
        any::<u64>(),
        prop::collection::vec(0u8..4, MAX_LINKS),
        any::<bool>(),
        (0u32..16, 0u32..16),
    )
        .prop_map(|(n, extra, seed, codes, unit, (src, dst))| {
            let m = (n - 1 + extra).min(n * (n - 1) / 2);
            let net =
                topology::random_connected(n, m, CAP, seed).expect("feasible by construction");
            let n = n as u32;
            (net, codes, unit, src % n, dst % n)
        })
}

/// The cost closure of one case: `None` for excluded links, 1.0 for every
/// other link when `unit`, else the link's integer code.
fn cost_of(codes: &[u8], unit: bool) -> impl Fn(LinkId) -> Option<f64> + '_ {
    move |l| match codes[l.index() % codes.len()] {
        0 => None,
        _ if unit => Some(1.0),
        c => Some(f64::from(c)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn destination_search_matches_full_tree(case in arb_case()) {
        let (net, codes, unit, src, dst) = case;
        let (src, dst) = (NodeId::new(src), NodeId::new(dst));
        let cost = cost_of(&codes, unit);
        let tree = shortest_path_tree(&net, src, &cost);
        let want = tree
            .distance(dst)
            .zip(tree.route_to(&net, dst));
        prop_assert_eq!(shortest_path(&net, src, dst, &cost), want.clone());

        // The two callers of the destination search see the same first
        // route as the full tree.
        let first = k_shortest_paths(&net, src, dst, 1, &cost).into_iter().next();
        prop_assert_eq!(first, want.clone());
        if let Some(pair) = two_step_disjoint_pair(&net, src, dst, &cost) {
            let (c1, primary) = want.expect("a pair implies a route");
            prop_assert_eq!(&pair.primary, &primary);
            let avoid = |l| if primary.contains_link(l) { None } else { cost(l) };
            let backup_tree = shortest_path_tree(&net, src, avoid);
            prop_assert_eq!(backup_tree.route_to(&net, dst), Some(pair.backup));
            prop_assert_eq!(backup_tree.distance(dst).map(|c2| c1 + c2), Some(pair.total_cost));
        }
    }
}
