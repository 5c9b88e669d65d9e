//! Property tests on the tracing algorithms: soundness on arbitrary
//! random topologies, end to end through the packet path.

use mlpt_core::prelude::*;
use mlpt_sim::SimNetwork;
use mlpt_topo::graph::addr;
use mlpt_topo::{MultipathTopology, TopologyBuilder};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

fn arb_topology() -> impl Strategy<Value = MultipathTopology> {
    proptest::collection::vec(1usize..=6, 1..6).prop_map(|mut widths| {
        widths.insert(0, 1);
        widths.push(1);
        let mut b = TopologyBuilder::default();
        for (h, &w) in widths.iter().enumerate() {
            b.add_hop((0..w).map(|i| addr(h, i)));
        }
        for h in 0..widths.len() - 1 {
            b.connect_unmeshed(h);
        }
        b.build().expect("valid")
    })
}

/// Checks soundness: everything a trace reports exists in truth.
fn assert_sound(topo: &MultipathTopology, trace: &Trace) -> Result<(), TestCaseError> {
    for ttl in 1..=topo.num_hops() as u8 {
        for &v in trace.vertices_at(ttl) {
            prop_assert!(
                topo.contains(usize::from(ttl - 1), v),
                "phantom vertex {v} at ttl {ttl}"
            );
        }
        for (from, tos) in trace.discovery.edges_from(ttl) {
            for to in tos {
                prop_assert!(
                    topo.successors(usize::from(ttl - 1), from).contains(&to),
                    "phantom edge {from}->{to}"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The MDA never invents vertices or edges, always reaches the
    /// destination on a lossless network, and its per-hop stopping costs
    /// stay within the budget.
    #[test]
    fn mda_sound_and_terminating(topo in arb_topology(), seed in any::<u64>()) {
        let net = SimNetwork::new(topo.clone(), seed);
        let mut engine = SweepEngine::new(net, SRC);
        let trace = trace_mda(&mut engine, topo.destination(), &TraceConfig::new(seed));
        prop_assert!(trace.reached_destination);
        prop_assert!(!trace.budget_exhausted);
        assert_sound(&topo, &trace)?;
        // Always finds the (single) first-hop and destination vertices.
        prop_assert_eq!(trace.vertices_at(1), topo.hop(0));
        let dest_ttl = trace.destination_ttl().unwrap();
        prop_assert_eq!(usize::from(dest_ttl), topo.num_hops());
    }

    /// Same soundness for MDA-Lite: never a phantom vertex or edge, and
    /// the destination is always reached on a lossless network.
    #[test]
    fn mda_lite_sound(topo in arb_topology(), seed in any::<u64>()) {
        let net = SimNetwork::new(topo.clone(), seed);
        let mut engine = SweepEngine::new(net, SRC);
        let trace = trace_mda_lite(&mut engine, topo.destination(), &TraceConfig::new(seed));
        prop_assert!(trace.reached_destination);
        assert_sound(&topo, &trace)?;
    }

    /// The discovered topology converts to a valid MultipathTopology whose
    /// vertex sets are subsets of truth per hop.
    #[test]
    fn trace_topology_valid_subset(topo in arb_topology(), seed in any::<u64>()) {
        let net = SimNetwork::new(topo.clone(), seed);
        let mut engine = SweepEngine::new(net, SRC);
        let trace = trace_mda(&mut engine, topo.destination(), &TraceConfig::new(seed));
        let got = trace.to_topology().expect("reached destination");
        prop_assert_eq!(got.num_hops(), topo.num_hops());
        for i in 0..topo.num_hops() {
            let want: BTreeSet<_> = topo.hop(i).iter().collect();
            let have: BTreeSet<_> = got.hop(i).iter().collect();
            prop_assert!(have.is_subset(&want), "hop {i}");
        }
    }

    /// Single-flow tracing yields one vertex per hop along a real path.
    #[test]
    fn single_flow_walks_a_path(topo in arb_topology(), seed in any::<u64>(), flow in any::<u16>()) {
        let net = SimNetwork::new(topo.clone(), seed);
        let mut engine = SweepEngine::new(net, SRC);
        let trace = trace_single_flow(&mut engine, topo.destination(), &TraceConfig::new(seed), FlowId(flow));
        prop_assert!(trace.reached_destination);
        prop_assert_eq!(trace.probes_sent, topo.num_hops() as u64);
        let mut prev: Option<Ipv4Addr> = None;
        for ttl in 1..=topo.num_hops() as u8 {
            let vs = trace.vertices_at(ttl);
            prop_assert_eq!(vs.len(), 1);
            if let Some(p) = prev {
                prop_assert!(topo.successors(usize::from(ttl - 2), p).contains(&vs[0]));
            }
            prev = Some(vs[0]);
        }
    }

    /// Cost ordering invariant: single-flow <= MDA-Lite <= MDA (on clean
    /// multiple-fan topologies where Lite never switches).
    #[test]
    fn cost_ordering(topo in arb_topology(), seed in 0u64..1000) {
        let clean = (0..topo.num_hops() - 1).all(|h| {
            let a = topo.hop(h).len();
            let b = topo.hop(h + 1).len();
            a.max(b) % a.min(b) == 0
        });
        prop_assume!(clean);
        let run = |which: u8| -> u64 {
            let net = SimNetwork::new(topo.clone(), seed);
            let mut engine = SweepEngine::new(net, SRC);
            let config = TraceConfig::new(seed);
            match which {
                0 => trace_single_flow(&mut engine, topo.destination(), &config, FlowId(1)).probes_sent,
                1 => trace_mda_lite(&mut engine, topo.destination(), &config).probes_sent,
                _ => trace_mda(&mut engine, topo.destination(), &config).probes_sent,
            }
        };
        let single = run(0);
        let lite = run(1);
        let mda = run(2);
        prop_assert!(single <= lite, "single {single} > lite {lite}");
        // Lite may pay small meshing-test overhead on multi-multi pairs,
        // but must never exceed the MDA by more than that bounded extra.
        prop_assert!(lite <= mda + 24, "lite {lite} >> mda {mda}");
    }
}

/// On even unmeshed fan topologies (wider side a multiple of the
/// narrower), zero width asymmetry and no meshing exist, so a switch to
/// the full MDA is only ever justified by a stopping-rule miss. The
/// stopping rule runs at 95 % confidence, so misses — and hence
/// switches — must stay a small minority across many seeded runs; this
/// is the statistically sound form of "no spurious switches".
#[test]
fn mda_lite_spurious_switch_rate_is_small() {
    let mut b = TopologyBuilder::default();
    for (h, &w) in [1usize, 2, 6, 3, 1].iter().enumerate() {
        b.add_hop((0..w).map(|i| addr(h, i)));
    }
    for h in 0..4 {
        b.connect_unmeshed(h);
    }
    let topo = b.build().expect("valid");

    let runs = 200u64;
    let mut switched = 0u64;
    for seed in 0..runs {
        let net = SimNetwork::new(topo.clone(), seed);
        let mut engine = SweepEngine::new(net, SRC);
        let trace = trace_mda_lite(&mut engine, topo.destination(), &TraceConfig::new(seed));
        assert!(trace.reached_destination, "seed {seed}");
        if trace.switched.is_some() {
            switched += 1;
        }
    }
    let rate = switched as f64 / runs as f64;
    assert!(
        rate < 0.15,
        "spurious switch rate {rate} ({switched}/{runs}) too high for a clean fan"
    );
}
