//! Multilevel tracing against simulator ground truth — the validation the
//! paper's future work wished Fakeroute could do ("Another extension
//! might be to allow simulation of multilevel route tracing").

use mlpt::alias::rounds::{ProbeMethod, RoundsConfig};
use mlpt::prelude::*;
use mlpt::sim::{IpIdProfile, MplsProfile, RouterProfile};
use mlpt::topo::graph::addr;
use mlpt::topo::RouterId;
use std::net::Ipv4Addr;

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// A 1-6-1 diamond with three 2-interface routers.
fn three_router_diamond() -> (MultipathTopology, RouterMap) {
    let mut b = MultipathTopology::builder();
    b.add_hop([addr(0, 0)]);
    b.add_hop((0..6).map(|i| addr(1, i)));
    b.add_hop([addr(2, 0)]);
    b.connect_unmeshed(0);
    b.connect_unmeshed(1);
    let topo = b.build().unwrap();
    let truth = RouterMap::from_alias_sets([
        vec![addr(1, 0), addr(1, 1)],
        vec![addr(1, 2), addr(1, 3)],
        vec![addr(1, 4), addr(1, 5)],
    ]);
    (topo, truth)
}

#[test]
fn multilevel_recovers_ground_truth_aliases() {
    let (topo, truth) = three_router_diamond();
    let net = SimNetwork::builder(topo.clone())
        .routers(truth.clone())
        .seed(17)
        .build();
    let mut engine = SweepEngine::new(net, SRC);
    let config = MultilevelConfig::new(17);
    let result = trace_multilevel(&mut engine, topo.destination(), &config);

    // Exactly the ground-truth pairing, nothing across routers.
    for i in 0..6u8 {
        for j in (i + 1)..6u8 {
            let a = addr(1, i.into());
            let b = addr(1, j.into());
            assert_eq!(
                result.router_map.are_aliases(a, b),
                truth.are_aliases(a, b),
                "pair ({i},{j})"
            );
        }
    }
    // Router-level diamond narrowed 6 → 3.
    let router_topo = result.router_topology.unwrap();
    assert_eq!(router_topo.hop(1).len(), 3);
}

#[test]
fn mixed_evidence_sources_cooperate() {
    // Router A: shared counters (MBT). Router B: constant IDs but stable
    // MPLS labels (labeling). Router C: constant IDs, no labels, same
    // fingerprint (signature fallback — the paper's false-positive
    // mechanism keeps them together, correctly here).
    let (topo, truth) = three_router_diamond();
    let profile_b = RouterProfile {
        ipid: IpIdProfile::constant_zero(),
        mpls: Some(MplsProfile {
            label: 777,
            stable: true,
        }),
        ..RouterProfile::well_behaved()
    };
    let profile_c = RouterProfile {
        ipid: IpIdProfile::constant_zero(),
        initial_ttl_indirect: 64,
        initial_ttl_direct: 64,
        ..RouterProfile::well_behaved()
    };
    let net = SimNetwork::builder(topo.clone())
        .routers(truth.clone())
        .profile(RouterId(1), profile_b)
        .profile(RouterId(2), profile_c)
        .seed(23)
        .build();
    let mut engine = SweepEngine::new(net, SRC);
    let config = MultilevelConfig::new(23);
    let result = trace_multilevel(&mut engine, topo.destination(), &config);

    assert!(result.router_map.are_aliases(addr(1, 0), addr(1, 1)), "MBT");
    assert!(
        result.router_map.are_aliases(addr(1, 2), addr(1, 3)),
        "MPLS"
    );
    assert!(
        result.router_map.are_aliases(addr(1, 4), addr(1, 5)),
        "signature fallback"
    );
    // Across routers: the 255-fingerprint groups must not leak into the
    // 64-fingerprint group.
    assert!(!result.router_map.are_aliases(addr(1, 1), addr(1, 4)));
    assert!(!result.router_map.are_aliases(addr(1, 3), addr(1, 4)));
}

#[test]
fn direct_vs_indirect_disagreement_reproduced() {
    // Per-interface Time Exceeded counters with a router-wide Echo
    // counter: indirect probing must reject, direct probing must accept —
    // the 14.4% cell of Table 2.
    use mlpt::alias::evidence::EvidenceBase;
    use mlpt::alias::rounds::AliasRoundsSession;
    use std::collections::BTreeSet;

    let (topo, truth) = three_router_diamond();
    let per_if = RouterProfile {
        ipid: IpIdProfile::per_interface_indirect(2, 3),
        ..RouterProfile::well_behaved()
    };
    let net = SimNetwork::builder(topo.clone())
        .routers(truth.clone())
        .profile(RouterId(0), per_if)
        .seed(31)
        .build();
    let mut engine = SweepEngine::new(net, SRC);
    let traced = LoggedSession::new(MdaLiteSession::new(
        topo.destination(),
        TraceConfig::new(31),
    ));
    let (trace, traced) = engine.run_trace(traced);
    let candidates: BTreeSet<Ipv4Addr> = trace.vertices_at(2).iter().copied().collect();
    assert_eq!(candidates.len(), 6);

    // The indirect campaign, then the direct one on top of its evidence.
    let mut rounds = |base, config| {
        let session = AliasRoundsSession::new(&trace, &candidates, base, config);
        engine.run_session(session).0.into_parts()
    };
    let base = EvidenceBase::from_log(traced.log(), &candidates);
    let (indirect, base) = rounds(base, RoundsConfig::default());
    let direct_cfg = RoundsConfig {
        method: ProbeMethod::Direct,
        ..RoundsConfig::default()
    };
    let (direct, _) = rounds(base, direct_cfg);

    let ind = &indirect.last().unwrap().partition;
    let dir = &direct.last().unwrap().partition;
    assert!(!ind.same_set(addr(1, 0), addr(1, 1)), "indirect rejects");
    assert!(dir.same_set(addr(1, 0), addr(1, 1)), "direct accepts");
}

#[test]
fn alias_probing_cost_is_accounted() {
    let (topo, truth) = three_router_diamond();
    let net = SimNetwork::builder(topo.clone())
        .routers(truth)
        .seed(3)
        .build();
    let mut engine = SweepEngine::new(net, SRC);
    let config = MultilevelConfig {
        trace: TraceConfig::new(3),
        rounds: RoundsConfig {
            rounds: 10,
            replies_per_round: 30,
            ..RoundsConfig::default()
        },
    };
    let result = trace_multilevel(&mut engine, topo.destination(), &config);
    // 6 candidates: round 1 = 6 direct + 180 indirect; rounds 2..10 = 180
    // each → 6 + 10*180 = 1806.
    assert_eq!(result.alias_probes, 1806);
    assert_eq!(
        engine.stats().probes_sent,
        result.trace.probes_sent + result.alias_probes
    );
}
