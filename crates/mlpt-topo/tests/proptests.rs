//! Property tests on topology invariants and diamond metrics.

use mlpt_topo::diamond::{
    all_diamond_metrics, find_diamonds, hop_pair_meshed, hop_pair_width_asymmetry,
};
use mlpt_topo::graph::addr;
use mlpt_topo::router::collapse;
use mlpt_topo::{MultipathTopology, RouterMap, TopologyBuilder};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Strategy: a random valid hop-width profile (1, w1, ..., wn, 1) and a
/// wiring seed; builds the topology with even unmeshed wiring plus
/// seed-dependent extra edges.
fn arb_topology() -> impl Strategy<Value = MultipathTopology> {
    (proptest::collection::vec(1usize..=9, 1..8), any::<u64>()).prop_map(|(mut widths, seed)| {
        widths.insert(0, 1);
        widths.push(1);
        let mut b = TopologyBuilder::default();
        for (h, &w) in widths.iter().enumerate() {
            b.add_hop((0..w).map(|i| addr(h, i)));
        }
        for h in 0..widths.len() - 1 {
            b.connect_unmeshed(h);
            // Extra edges from the seed: maybe mesh this hop pair.
            let roll = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(h as u32);
            if roll % 3 == 0 && widths[h] >= 2 && widths[h + 1] >= 2 {
                let from = addr(h, (roll % widths[h] as u64) as usize);
                let to = addr(h + 1, ((roll >> 8) % widths[h + 1] as u64) as usize);
                b.add_edge(h, from, to);
            }
        }
        b.build().expect("construction is valid")
    })
}

/// Hops, the edges fed to the builder, and the topology it built.
type Wired = (
    Vec<Vec<Ipv4Addr>>,
    Vec<(usize, Ipv4Addr, Ipv4Addr)>,
    MultipathTopology,
);

/// Strategy: hops whose vertices are inserted in descending address
/// order, wired unmeshed plus random extra edges (repeats included).
fn arb_wired() -> impl Strategy<Value = Wired> {
    (
        proptest::collection::vec(1usize..=6, 1..6),
        proptest::collection::vec((any::<usize>(), any::<usize>(), any::<usize>()), 0..24),
    )
        .prop_map(|(mut widths, extra)| {
            widths.insert(0, 1);
            widths.push(1);
            let hops: Vec<Vec<Ipv4Addr>> = widths
                .iter()
                .enumerate()
                .map(|(h, &w)| (0..w).rev().map(|i| addr(h, i)).collect())
                .collect();
            let mut edges = Vec::new();
            for h in 0..hops.len() - 1 {
                let (from, to) = (&hops[h], &hops[h + 1]);
                for j in 0..from.len().max(to.len()) {
                    edges.push((h, from[j % from.len()], to[j % to.len()]));
                }
            }
            for (h, f, t) in extra {
                let h = h % (hops.len() - 1);
                edges.push((
                    h,
                    hops[h][f % hops[h].len()],
                    hops[h + 1][t % hops[h + 1].len()],
                ));
            }
            let mut b = TopologyBuilder::default();
            for hop in &hops {
                b.add_hop(hop.iter().copied());
            }
            for &(h, f, t) in &edges {
                b.add_edge(h, f, t);
            }
            let topo = b.build().expect("every vertex is wired both ways");
            (hops, edges, topo)
        })
}

proptest! {
    /// Reach probabilities are a distribution at every hop.
    #[test]
    fn reach_probabilities_sum_to_one(topo in arb_topology()) {
        for layer in topo.reach_probabilities() {
            let sum: f64 = layer.values().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
            for &p in layer.values() {
                prop_assert!(p > 0.0 && p <= 1.0 + 1e-12);
            }
        }
    }

    /// The flat layout answers every query as the edges it was built
    /// from say, whatever the insertion order: `hop(i)` keeps insertion
    /// order, `edges()` is the deduplicated input sorted by hop, source
    /// and target, successors and predecessors are ascending, and
    /// `vertex_index` points into `vertices()`.
    #[test]
    fn flat_layout_matches_its_edges((hops, mut edges, topo) in arb_wired()) {
        edges.sort_unstable();
        edges.dedup();
        prop_assert_eq!(topo.edges().collect::<Vec<_>>(), edges.clone());
        prop_assert_eq!(topo.total_edges(), edges.len());
        prop_assert_eq!(topo.hops().collect::<Vec<_>>(), hops.iter().map(Vec::as_slice).collect::<Vec<_>>());
        prop_assert_eq!(topo.vertices(), hops.concat());
        for (h, hop) in hops.iter().enumerate() {
            for &v in hop {
                let succ: Vec<Ipv4Addr> =
                    edges.iter().filter(|e| e.0 == h && e.1 == v).map(|e| e.2).collect();
                let pred: Vec<Ipv4Addr> =
                    edges.iter().filter(|e| e.0 + 1 == h && e.2 == v).map(|e| e.1).collect();
                prop_assert_eq!(topo.successors(h, v), &succ[..]);
                prop_assert_eq!(topo.predecessors(h, v), &pred[..]);
                let index = topo.vertex_index(h, v);
                prop_assert_eq!(index.map(|i| topo.vertices()[i]), Some(v));
            }
            prop_assert!(!topo.contains(h, addr(h, 99)));
        }
    }

    /// Every non-final vertex has a successor; every non-first vertex has
    /// a predecessor (builder invariant re-checked through the API).
    #[test]
    fn connectivity_invariants(topo in arb_topology()) {
        for i in 0..topo.num_hops() {
            for &v in topo.hop(i) {
                if i + 1 < topo.num_hops() {
                    prop_assert!(topo.out_degree(i, v) >= 1);
                }
                if i > 0 {
                    prop_assert!(topo.in_degree(i, v) >= 1);
                }
            }
        }
    }

    /// Diamonds partition correctly: divergence/convergence hops are
    /// single-vertex, interiors are all multi-vertex.
    #[test]
    fn diamond_boundaries(topo in arb_topology()) {
        for d in find_diamonds(&topo) {
            prop_assert_eq!(topo.hop(d.divergence_hop).len(), 1);
            prop_assert_eq!(topo.hop(d.convergence_hop).len(), 1);
            for h in d.divergence_hop + 1..d.convergence_hop {
                prop_assert!(topo.hop(h).len() >= 2, "interior hop {h} single");
            }
        }
    }

    /// Metric sanity: width/length bounds, meshed-pair counts, asymmetry
    /// consistency with the pairwise functions.
    #[test]
    fn metric_bounds(topo in arb_topology()) {
        for (d, m) in find_diamonds(&topo).iter().zip(all_diamond_metrics(&topo)) {
            prop_assert_eq!(m.max_length, d.convergence_hop - d.divergence_hop);
            prop_assert!(m.min_length <= m.max_length);
            prop_assert!(m.max_width >= 2);
            prop_assert!(m.meshed_hop_pairs <= m.total_hop_pairs);
            prop_assert!(m.ratio_of_meshed_hops() <= 1.0);
            prop_assert!(m.max_probability_difference >= 0.0);
            prop_assert!(m.max_probability_difference < 1.0);
            let expected_meshed = (d.divergence_hop..d.convergence_hop)
                .filter(|&i| hop_pair_meshed(&topo, i))
                .count();
            prop_assert_eq!(m.meshed_hop_pairs, expected_meshed);
            let expected_asym = (d.divergence_hop..d.convergence_hop)
                .map(|i| hop_pair_width_asymmetry(&topo, i))
                .max()
                .unwrap_or(0);
            prop_assert_eq!(m.max_width_asymmetry, expected_asym);
        }
    }

    /// Zero width asymmetry implies uniform reach probabilities inside
    /// unmeshed diamonds (the MDA-Lite's working assumption).
    #[test]
    fn symmetric_unmeshed_is_uniform(topo in arb_topology()) {
        for m in all_diamond_metrics(&topo) {
            if m.is_width_symmetric() && !m.is_meshed() {
                prop_assert!(
                    m.max_probability_difference < 1e-9,
                    "asym 0, unmeshed, but probability spread {}",
                    m.max_probability_difference
                );
            }
        }
    }

    /// Collapsing with an empty router map is the identity; collapsing
    /// never increases any hop's width and preserves hop count.
    #[test]
    fn collapse_monotone(topo in arb_topology(), group_hop in 0usize..6) {
        prop_assert_eq!(collapse(&topo, &RouterMap::new()), topo.clone());

        // Group the first two vertices of some hop, if it has them.
        let h = group_hop % topo.num_hops();
        if topo.hop(h).len() >= 2 {
            let group = vec![topo.hop(h)[0], topo.hop(h)[1]];
            let map = RouterMap::from_alias_sets([group]);
            let collapsed = collapse(&topo, &map);
            prop_assert_eq!(collapsed.num_hops(), topo.num_hops());
            for i in 0..topo.num_hops() {
                prop_assert!(collapsed.hop(i).len() <= topo.hop(i).len());
            }
            prop_assert_eq!(collapsed.hop(h).len(), topo.hop(h).len() - 1);
        }
    }

    /// The meshing-miss probability (Eq. 1) is a probability and decreases
    /// with phi.
    #[test]
    fn meshing_miss_probability_monotone(topo in arb_topology()) {
        use mlpt_topo::diamond::meshing_miss_probability;
        for i in 0..topo.num_hops() - 1 {
            if topo.hop(i).len() >= 2 && topo.hop(i + 1).len() >= 2 {
                let p2 = meshing_miss_probability(&topo, i, 2);
                let p3 = meshing_miss_probability(&topo, i, 3);
                prop_assert!((0.0..=1.0).contains(&p2));
                prop_assert!(p3 <= p2 + 1e-12, "p3 {p3} > p2 {p2}");
                if hop_pair_meshed(&topo, i) {
                    prop_assert!(p2 < 1.0, "meshed pair must be detectable");
                }
            }
        }
    }
}
