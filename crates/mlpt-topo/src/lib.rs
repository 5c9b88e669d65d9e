//! Multipath topology model: hop-structured DAGs, diamonds and metrics.
//!
//! Per-flow load-balanced routes between a source and a destination form a
//! directed acyclic graph organised in *hops*: the set of interfaces that
//! answer probes at a given TTL. This crate provides:
//!
//! * [`graph`] — [`MultipathTopology`]: the hop-structured DAG itself, with
//!   a validating builder, successor/predecessor queries and
//!   reach-probability analysis under uniform load balancing. A built
//!   topology is immutable and shared: one flat graph (a hop-major
//!   vertex array and address-sorted adjacency runs) behind an `Arc`,
//!   so cloning it for a simulator lane or a sweep's ground truth
//!   copies nothing.
//! * [`diamond`] — diamond extraction and every diamond metric the paper
//!   defines (Fig. 6): maximum width, maximum length, maximum width
//!   asymmetry, meshing of hop pairs and the ratio of meshed hops, plus
//!   uniformity analysis (Figs. 7–9).
//! * [`canonical`] — the specific topologies the paper uses in its worked
//!   examples and simulations (Fig. 1's unmeshed/meshed diamonds, the four
//!   Sec. 2.4.1 topologies, the simplest diamond of Sec. 3).
//! * [`router`] — router-level overlays: alias ground truth, collapsing an
//!   IP-level topology to the router level, as the multilevel tracer and
//!   the Sec. 5.2 survey do.
//!
//! A topology is *interface-level*: vertices are IPv4 addresses. The same
//! address may appear at several hops (this is how unequal-length paths
//! through a diamond manifest in hop-structured traces). Edges connect
//! adjacent hops only.

pub mod canonical;
pub mod diamond;
pub mod graph;
pub mod render;
pub mod router;

pub use diamond::{Diamond, DiamondKey, DiamondMetrics};
pub use graph::{MultipathTopology, TopologyBuilder, TopologyError};
pub use render::render_ascii;
pub use router::{RouterId, RouterMap};

use std::net::Ipv4Addr;

/// Reserved address prefix for non-responding ("star") hops: when a trace
/// cannot elicit any response at a TTL, the hop is represented by a star
/// placeholder so diamond accounting can distinguish star-delimited
/// diamonds, as the paper's survey does (Sec. 5).
pub const STAR_PREFIX: [u8; 2] = [255, 255];

/// Builds the star placeholder address for a given TTL.
pub fn star_address(ttl: u8) -> Ipv4Addr {
    Ipv4Addr::new(STAR_PREFIX[0], STAR_PREFIX[1], 255, ttl)
}

/// True if an address is a star placeholder.
pub fn is_star(addr: Ipv4Addr) -> bool {
    let o = addr.octets();
    o[0] == STAR_PREFIX[0] && o[1] == STAR_PREFIX[1] && o[2] == 255
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_addresses_are_stars() {
        for ttl in [0u8, 1, 30, 255] {
            assert!(is_star(star_address(ttl)));
        }
    }

    #[test]
    fn normal_addresses_are_not_stars() {
        assert!(!is_star(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(!is_star(Ipv4Addr::new(255, 255, 0, 1)));
    }

    #[test]
    fn star_addresses_distinct_per_ttl() {
        assert_ne!(star_address(3), star_address(4));
    }
}
