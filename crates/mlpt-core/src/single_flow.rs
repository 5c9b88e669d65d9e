//! Paris traceroute with a single flow identifier.
//!
//! The baseline the paper compares against (Sec. 2.4.2): "one with just a
//! single flow ID, the way Paris Traceroute is currently implemented on
//! the RIPE Atlas infrastructure". One probe per TTL, all with the same
//! flow identifier, so the trace follows exactly one load-balanced path
//! and discovers one vertex and one edge per hop.

use crate::config::TraceConfig;
use crate::engine::SweepEngine;
use crate::session::SingleFlowSession;
use crate::trace::Trace;
use mlpt_wire::transport::SplitTransport;
use mlpt_wire::FlowId;
use std::net::Ipv4Addr;

/// Traces a single path towards `destination` using one flow identifier.
///
/// The algorithm lives in [`SingleFlowSession`], a sans-IO state machine
/// emitting one single-spec round per hop; this entry point runs it as a
/// one-session sweep on `engine`, like the multipath algorithms: the
/// hop's outcome gates whether the next TTL is probed at all.
pub fn trace_single_flow<T: SplitTransport>(
    engine: &mut SweepEngine<T>,
    destination: Ipv4Addr,
    config: &TraceConfig,
    flow: FlowId,
) -> Trace {
    engine
        .run_trace(SingleFlowSession::new(destination, config.clone(), flow))
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpt_sim::SimNetwork;
    use mlpt_topo::canonical;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    #[test]
    fn traces_one_path() {
        let topo = canonical::fig1_unmeshed();
        let net = SimNetwork::new(topo.clone(), 7);
        let mut engine = SweepEngine::new(net, SRC);
        let config = TraceConfig::new(7);
        let trace = trace_single_flow(&mut engine, topo.destination(), &config, FlowId(5));
        assert!(trace.reached_destination);
        // One vertex per hop.
        for ttl in 1..=topo.num_hops() as u8 {
            assert_eq!(trace.vertices_at(ttl).len(), 1, "ttl {ttl}");
        }
        // Exactly one probe per hop.
        assert_eq!(trace.probes_sent, topo.num_hops() as u64);
    }

    #[test]
    fn discovers_fraction_of_wide_hop() {
        let topo = canonical::max_length_2();
        let net = SimNetwork::new(topo.clone(), 7);
        let mut engine = SweepEngine::new(net, SRC);
        let config = TraceConfig::new(7);
        let trace = trace_single_flow(&mut engine, topo.destination(), &config, FlowId(5));
        // 1 of 28 middle vertices: heavy undercount, tiny probe bill.
        assert_eq!(trace.total_vertices(), 3);
        assert_eq!(trace.probes_sent, 3);
    }

    #[test]
    fn stable_flow_stable_path() {
        let topo = canonical::meshed();
        let a = {
            let net = SimNetwork::new(topo.clone(), 3);
            let mut p = SweepEngine::new(net, SRC);
            trace_single_flow(&mut p, topo.destination(), &TraceConfig::new(1), FlowId(9))
        };
        let b = {
            let net = SimNetwork::new(topo.clone(), 3);
            let mut p = SweepEngine::new(net, SRC);
            trace_single_flow(&mut p, topo.destination(), &TraceConfig::new(2), FlowId(9))
        };
        for ttl in 1..=topo.num_hops() as u8 {
            assert_eq!(a.vertices_at(ttl), b.vertices_at(ttl));
        }
    }
}
