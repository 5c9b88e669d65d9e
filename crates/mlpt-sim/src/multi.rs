//! Multi-destination routing: one transport, many simulated networks.
//!
//! A sweep traces many destinations at once over one transport.
//! [`MultiNetwork`] is that transport: it hosts one [`SimNetwork`] **lane** per destination
//! and routes every injected probe to its lane by the packet's
//! destination address (UDP probes by traced destination, ICMP echoes by
//! target interface), exactly as one vantage-point NIC faces many remote
//! networks.
//!
//! # Determinism under interleaving
//!
//! Every lane keeps its *own* RNG stream, virtual clock, IP-ID engine and
//! fault state — the full per-destination [`SimNetwork`] — and only ever
//! advances when one of its own packets crosses. Probes for different
//! destinations therefore cannot perturb each other no matter how a
//! scheduler interleaves them: the byte streams (and per-lane timestamps)
//! a lane produces are bit-identical to running the same packets through
//! a standalone `SimNetwork` built with the same seed. This is the
//! transport half of the sweep engine's headline invariant — concurrent
//! sweeps reproduce sequential traces exactly.
//!
//! A crossing runs on the caller's thread: [`SplitTransport::send_probes`]
//! routes each probe once and runs, on its lane, the same per-probe step a
//! standalone `SimNetwork` runs. Sweeps that want more cores split the
//! lanes across engine shards ([`MultiNetwork::split_by`]).

use crate::network::{PendingBatch, SimNetwork, TrafficCounters};
use mlpt_wire::ipv4::{Ipv4Header, PROTO_ICMP, PROTO_UDP};
use mlpt_wire::transport::{PacketBatch, PacketTransport, ReplyBatch, SplitTransport};
use std::net::Ipv4Addr;

/// Errors detected while assembling a [`MultiNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiNetworkError {
    /// Two lanes simulate the same traced destination; probes could not
    /// be routed unambiguously.
    DuplicateDestination(Ipv4Addr),
}

impl std::fmt::Display for MultiNetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiNetworkError::DuplicateDestination(d) => {
                write!(f, "two lanes simulate destination {d}")
            }
        }
    }
}

impl std::error::Error for MultiNetworkError {}

/// One shared transport over per-destination [`SimNetwork`] lanes.
pub struct MultiNetwork {
    lanes: Vec<SimNetwork>,
    /// Sorted (destination, lane) pairs for UDP routing.
    dests: Vec<(u32, usize)>,
    /// Sorted (interface, lane) pairs for echo routing; an interface
    /// shared by several lanes (e.g. a common core) routes to the first.
    interfaces: Vec<(u32, usize)>,
    /// Virtual ticks every lane's clock advances after each crossing.
    cycle_gap: u64,
    /// In-flight batch of the split (send/recv) transport exchange.
    pending: PendingBatch,
}

impl MultiNetwork {
    /// Builds the shared transport over `lanes`. Destinations must be
    /// unique across lanes.
    pub fn new(lanes: Vec<SimNetwork>) -> Result<Self, MultiNetworkError> {
        let mut dests: Vec<(u32, usize)> = lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| (u32::from(lane.destination()), i))
            .collect();
        dests.sort_unstable();
        if let Some(pair) = dests.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(MultiNetworkError::DuplicateDestination(Ipv4Addr::from(
                pair[0].0,
            )));
        }
        let mut interfaces: Vec<(u32, usize)> = Vec::new();
        for (i, lane) in lanes.iter().enumerate() {
            interfaces.extend(lane.interfaces().map(|addr| (u32::from(addr), i)));
        }
        // First lane wins for shared interfaces: sort by (addr, lane) and
        // keep the first entry per address.
        interfaces.sort_unstable();
        interfaces.dedup_by_key(|&mut (addr, _)| addr);
        Ok(Self {
            lanes,
            dests,
            interfaces,
            cycle_gap: 0,
            pending: PendingBatch::default(),
        })
    }

    /// Returns `self` unchanged: a crossing always runs on the caller's
    /// thread. Kept only because the repository benchmark (`surveybench`)
    /// still calls it.
    #[deprecated(note = "the simulator has no worker threads; split lanes across engine shards")]
    #[doc(hidden)]
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }

    /// Splits this transport into `shards` independent transports, each
    /// owning the lanes `assign` maps to it (by the lane's traced
    /// destination, so a sharded sweep's sessions and their lanes land
    /// on the same shard). The handoff for
    /// `mlpt_core::shard::ShardedSweepEngine`: lane state and cycle gap
    /// carry over verbatim; shards the assignment leaves empty are valid
    /// (they simply answer nothing). Lane order within a shard preserves
    /// this network's lane order.
    ///
    /// Sharding assumes the standard per-destination lane construction
    /// (disjoint address blocks): an interface shared by lanes on
    /// *different* shards would be answered by each shard's own first
    /// owning lane, where the unsharded network routes all echoes to
    /// the global first.
    pub fn split_by<F>(self, shards: usize, assign: F) -> Vec<MultiNetwork>
    where
        F: Fn(Ipv4Addr) -> usize,
    {
        let shards = shards.max(1);
        let mut per_shard: Vec<Vec<SimNetwork>> = (0..shards).map(|_| Vec::new()).collect();
        for lane in self.lanes {
            let shard = assign(lane.destination()) % shards;
            per_shard[shard].push(lane);
        }
        per_shard
            .into_iter()
            .map(|mut sub| {
                // A shard keeps its lanes for the whole sweep; growth by
                // pushing may have left up to twice their size allocated.
                sub.shrink_to_fit();
                MultiNetwork::new(sub)
                    .expect("a subset of unique destinations stays unique")
                    .with_cycle_gap(self.cycle_gap)
            })
            .collect()
    }

    /// Advances every lane's virtual clock by `ticks` after each
    /// crossing, modelling the round-trip pause between a scheduler's
    /// dispatch cycles. With a gap, per-router ICMP token buckets
    /// ([`crate::FaultPlan::with_rate_limit_window`]) refill between
    /// cycles, so *burst size per cycle* — not just total probe count —
    /// determines how many replies a rate limiter suppresses. That is the
    /// behaviour an adaptive in-flight budget exploits by backing off.
    ///
    /// The default gap of 0 keeps the pre-existing semantics: lane clocks
    /// advance only on their own packets, so batching is invisible and
    /// sweeps stay bit-identical to sequential traces even under
    /// rate-limiting fault plans.
    pub fn with_cycle_gap(mut self, ticks: u64) -> Self {
        self.cycle_gap = ticks;
        self
    }

    /// Number of lanes.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// A lane's simulator.
    pub fn lane(&self, index: usize) -> &SimNetwork {
        &self.lanes[index]
    }

    /// Aggregated traffic counters across all lanes.
    pub fn counters(&self) -> TrafficCounters {
        let mut total = TrafficCounters::default();
        for lane in &self.lanes {
            let c = lane.counters();
            total.probes_received += c.probes_received;
            total.probes_lost += c.probes_lost;
            total.replies_sent += c.replies_sent;
            total.replies_rate_limited += c.replies_rate_limited;
            total.replies_lost += c.replies_lost;
            total.probes_blackholed += c.probes_blackholed;
            total.mutations_applied += c.mutations_applied;
            total.mutations_rejected += c.mutations_rejected;
        }
        total
    }

    /// The lane a packet routes to, if any, with the packet's parsed IPv4
    /// header and its length: UDP probes go to the lane simulating their
    /// destination, echoes to the lane owning the target interface.
    fn lane_for(&self, packet: &[u8]) -> Option<(usize, Ipv4Header, usize)> {
        let (header, ihl) = Ipv4Header::parse(packet).ok()?;
        let dest = u32::from(header.destination);
        let table = match header.protocol {
            PROTO_UDP => &self.dests,
            PROTO_ICMP => &self.interfaces,
            _ => return None,
        };
        let i = table.binary_search_by_key(&dest, |&(a, _)| a).ok()?;
        Some((table[i].1, header, ihl))
    }
}

impl PacketTransport for MultiNetwork {
    fn send_packet(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        let mut reply = Vec::new();
        self.send_packet_into(packet, &mut reply).then_some(reply)
    }

    fn send_packet_into(&mut self, packet: &[u8], reply: &mut Vec<u8>) -> bool {
        match self.lane_for(packet) {
            Some((lane, header, ihl)) => {
                self.lanes[lane].send_parsed_into(packet, Some((header, ihl)), reply)
            }
            None => false,
        }
    }

    /// Total virtual time across lanes (each lane's clock ticks only for
    /// its own packets). Per-probe timestamps — the values observations
    /// carry — come from the owning lane via the split exchange.
    fn now(&self) -> u64 {
        self.lanes.iter().map(SimNetwork::clock).sum()
    }
}

/// The send half routes each probe once and runs the standalone
/// simulator's per-probe step on its lane: the reply slot carries the
/// *lane's* clock, so a session's observations bear the timestamps a
/// dedicated per-destination simulator would produce, and the reply
/// latency comes from the lane's own schedule and jitter stream at that
/// tick. Slots visit each lane in its own dispatch order, so the draws a
/// lane consumes are a pure function of its probe sequence. After the
/// batch every lane's clock advances by the cycle gap. The recv half
/// suppresses replies that missed their per-probe deadline and advances
/// no lane clocks, so the lane-isolation invariant is untouched.
impl SplitTransport for MultiNetwork {
    fn send_probes(&mut self, probes: &PacketBatch, timeouts: &[u64]) {
        debug_assert_eq!(probes.len(), timeouts.len(), "one timeout per probe");
        self.pending.begin(timeouts);
        for packet in probes.iter() {
            match self.lane_for(packet) {
                Some((lane, header, ihl)) => {
                    self.pending
                        .send(Some(&mut self.lanes[lane]), packet, Some((header, ihl)))
                }
                None => self.pending.send(None, packet, None),
            }
        }
        if self.cycle_gap > 0 {
            for lane in &mut self.lanes {
                lane.advance_clock(self.cycle_gap);
            }
        }
    }

    fn recv_replies(&mut self, replies: &mut ReplyBatch) {
        self.pending.resolve_into(replies);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpt_topo::canonical;
    use mlpt_wire::probe::{build_udp_probe_into, parse_reply, ProbePacket};
    use mlpt_wire::FlowId;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    /// Canonical topologies all share addresses, so lanes are built from
    /// translated copies occupying disjoint address blocks.
    fn lanes(n: u32, base_seed: u64) -> Vec<SimNetwork> {
        (0..n)
            .map(|i| {
                let topo = canonical::fig1_meshed().translated(0x0100_0000 * (i + 1));
                SimNetwork::new(topo, base_seed + u64::from(i))
            })
            .collect()
    }

    fn probe_bytes(dst: Ipv4Addr, flow: u16, ttl: u8, seq: u16) -> Vec<u8> {
        let mut buf = Vec::new();
        build_udp_probe_into(
            &ProbePacket {
                source: SRC,
                destination: dst,
                flow: FlowId(flow),
                ttl,
                sequence: seq,
            },
            &mut buf,
        );
        buf
    }

    /// One crossing of the split exchange, with deadlines no reply misses.
    fn cross(net: &mut MultiNetwork, batch: &PacketBatch) -> ReplyBatch {
        net.send_probes(batch, &vec![u64::MAX; batch.len()]);
        let mut replies = ReplyBatch::new();
        net.recv_replies(&mut replies);
        replies
    }

    #[test]
    fn duplicate_destinations_rejected() {
        let topo = canonical::simplest_diamond();
        let twins = vec![
            SimNetwork::new(topo.clone(), 1),
            SimNetwork::new(topo.clone(), 2),
        ];
        assert_eq!(
            MultiNetwork::new(twins).err(),
            Some(MultiNetworkError::DuplicateDestination(topo.destination()))
        );
        // Lanes A, B, A: the duplicate is found though it is not next to
        // its twin.
        let mut apart = lanes(2, 7);
        let twin = apart[0].topology().clone();
        apart.push(SimNetwork::new(twin.clone(), 9));
        assert_eq!(
            MultiNetwork::new(apart).err(),
            Some(MultiNetworkError::DuplicateDestination(twin.destination()))
        );
    }

    #[test]
    fn routes_by_destination() {
        let lanes = lanes(3, 7);
        let dests: Vec<Ipv4Addr> = lanes.iter().map(|l| l.topology().destination()).collect();
        let mut net = MultiNetwork::new(lanes).expect("unique destinations");
        for (i, &dst) in dests.iter().enumerate() {
            let reply = net
                .send_packet(&probe_bytes(dst, 3, 1, 1))
                .expect("routed and answered");
            let parsed = parse_reply(&reply).expect("valid reply");
            assert!(
                net.lane(i)
                    .topology()
                    .all_addresses()
                    .contains(&parsed.responder),
                "lane {i} must answer its own probe"
            );
        }
        // Unknown destination: silently unanswered.
        assert!(net
            .send_packet(&probe_bytes(Ipv4Addr::new(8, 8, 8, 8), 0, 1, 1))
            .is_none());
    }

    /// The headline invariant at the transport level: a lane's byte
    /// stream is bit-identical to a standalone SimNetwork with the same
    /// seed, regardless of how other lanes' packets interleave.
    #[test]
    fn lanes_unperturbed_by_interleaving() {
        let all = lanes(2, 40);
        let d0 = all[0].topology().destination();
        let d1 = all[1].topology().destination();
        let mut multi = MultiNetwork::new(all).expect("unique destinations");
        let mut standalone = lanes(2, 40).remove(0);

        for step in 0..60u16 {
            let ttl = (step % 4 + 1) as u8;
            // Interleave: lane-1 traffic between every lane-0 packet.
            let noise = probe_bytes(d1, step, ttl, step);
            let _ = multi.send_packet(&noise);
            let probe = probe_bytes(d0, step, ttl, step);
            assert_eq!(
                multi.send_packet(&probe),
                standalone.send_packet(&probe),
                "lane 0 diverged at step {step}"
            );
        }
        assert_eq!(multi.lane(0).counters(), standalone.counters());
    }

    /// A crossing stamps each slot with the owning lane's clock and is
    /// identical to sequential single-packet dispatch.
    #[test]
    fn batch_matches_sequential_with_lane_clocks() {
        let all = lanes(3, 9);
        let dests: Vec<Ipv4Addr> = all.iter().map(|l| l.topology().destination()).collect();
        let mut batch = PacketBatch::new();
        for round in 0..8u16 {
            for (i, &dst) in dests.iter().enumerate() {
                let flow = round * 4 + i as u16;
                batch.push(&probe_bytes(dst, flow, (round % 4 + 1) as u8, flow));
            }
        }
        // One unroutable packet mid-batch.
        batch.push(&probe_bytes(Ipv4Addr::new(9, 9, 9, 9), 0, 1, 0));

        let mut batched = MultiNetwork::new(all).expect("unique destinations");
        let replies = cross(&mut batched, &batch);

        let mut sequential = MultiNetwork::new(lanes(3, 9)).expect("unique destinations");
        for (slot, packet) in batch.iter().enumerate() {
            let expected = sequential.send_packet(packet);
            assert_eq!(
                replies.get(slot).map(<[u8]>::to_vec),
                expected,
                "slot {slot}"
            );
            if expected.is_some() {
                let (lane, _, _) = sequential.lane_for(packet).expect("routed");
                assert_eq!(
                    replies.timestamp(slot),
                    sequential.lane(lane).clock(),
                    "slot {slot} must carry its lane's clock"
                );
            }
        }
    }

    /// Under a schedule that delays and jitters replies, a lane's split
    /// exchange (replies, deadlines, resolved timestamps) is the one a
    /// standalone `SimNetwork` with the same seed produces for the same
    /// probes, however other lanes' probes share its crossings.
    #[test]
    fn split_exchange_matches_standalone_lane_under_jitter() {
        let schedule = crate::FaultSchedule::preset("jitter-spread").expect("preset");
        let build = |i: u32| {
            let topo = canonical::fig1_meshed().translated(0x0100_0000 * (i + 1));
            SimNetwork::builder(topo)
                .faults(schedule.clone())
                .seed(60 + u64::from(i))
                .build()
        };
        let d0 = build(0).topology().destination();
        let d1 = build(1).topology().destination();
        let mut multi = MultiNetwork::new(vec![build(0), build(1)]).expect("unique");
        let mut standalone = build(0);
        let mut seq = 0u16;
        for crossing in 0..24u16 {
            let (mut mixed, mut own) = (PacketBatch::new(), PacketBatch::new());
            for i in 0..=(crossing % 5) {
                seq += 1;
                let probe = probe_bytes(d0, seq, (i % 4 + 1) as u8, seq);
                mixed.push(&probe_bytes(d1, seq, 2, seq));
                mixed.push(&probe);
                own.push(&probe);
            }
            let timeouts = |n: usize| vec![6; n];
            multi.send_probes(&mixed, &timeouts(mixed.len()));
            standalone.send_probes(&own, &timeouts(own.len()));
            let (mut got, mut want) = (ReplyBatch::new(), ReplyBatch::new());
            multi.recv_replies(&mut got);
            standalone.recv_replies(&mut want);
            for k in 0..want.len() {
                let slot = 2 * k + 1;
                assert_eq!(got.get(slot), want.get(k), "crossing {crossing} probe {k}");
                assert_eq!(
                    got.timestamp(slot),
                    want.timestamp(k),
                    "crossing {crossing} probe {k} timestamp"
                );
            }
        }
        assert_eq!(multi.lane(0).counters(), standalone.counters());
    }

    /// `split_by` hands each lane (with its full state) to the shard its
    /// destination maps to: every shard answers exactly its own
    /// destinations, empty shards are valid, and the shards' replies are
    /// bit-identical to the unsharded network's.
    #[test]
    fn split_by_partitions_lanes_and_preserves_state() {
        let all = lanes(4, 55);
        let dests: Vec<Ipv4Addr> = all.iter().map(|l| l.topology().destination()).collect();
        let assign = |d: Ipv4Addr| usize::from(u32::from(d) % 2 == 0);
        // Shard 2 stays empty on purpose.
        let mut shards = MultiNetwork::new(all)
            .expect("unique")
            .with_cycle_gap(3)
            .split_by(3, assign);
        assert_eq!(shards.len(), 3);
        assert_eq!(
            shards.iter().map(MultiNetwork::num_lanes).sum::<usize>(),
            dests.len()
        );
        assert_eq!(shards[2].num_lanes(), 0);
        let mut unsharded = MultiNetwork::new(lanes(4, 55)).expect("unique");
        for (i, &dst) in dests.iter().enumerate() {
            let probe = probe_bytes(dst, i as u16, 2, i as u16);
            let expected = unsharded.send_packet(&probe);
            assert!(expected.is_some(), "destination {dst} must answer");
            for (s, shard) in shards.iter_mut().enumerate() {
                let reply = shard.send_packet(&probe);
                if s == assign(dst) {
                    assert_eq!(reply, expected, "owning shard {s} must answer {dst}");
                } else {
                    assert!(reply.is_none(), "shard {s} must not own {dst}");
                }
            }
        }
    }

    /// With an inter-cycle gap, a rate-limited lane suppresses oversized
    /// bursts but recovers between dispatch cycles — the signal an
    /// adaptive budget backs off from. Without a gap, batch slicing is
    /// invisible to the limiter (clocks only tick on own packets).
    #[test]
    fn cycle_gap_refills_rate_limited_lanes() {
        use crate::faults::FaultPlan;
        let topo = canonical::simplest_diamond().translated(0x0100_0000);
        let d = topo.destination();
        // Every reply comes from the same last-hop router at TTL 3; allow
        // 2 replies per 8-tick window.
        let build = || {
            crate::SimNetwork::builder(topo.clone())
                .faults(FaultPlan::with_rate_limit_window(2, 8))
                .seed(1)
                .build()
        };
        let batch_of = |n: u16| {
            let mut batch = PacketBatch::new();
            for i in 0..n {
                batch.push(&probe_bytes(d, i, 3, i + 1));
            }
            batch
        };

        // One burst of 8 into a capacity-2 bucket: most suppressed.
        let mut burst_net = MultiNetwork::new(vec![build()]).expect("unique");
        cross(&mut burst_net, &batch_of(8));
        let burst_suppressed = burst_net.counters().replies_rate_limited;
        assert!(burst_suppressed >= 5, "suppressed {burst_suppressed}");

        // The same 8 probes as 4 cycles of 2 with a full window between
        // cycles: the bucket refills each time, nothing is suppressed.
        let mut paced_net = MultiNetwork::new(vec![build()])
            .expect("unique")
            .with_cycle_gap(8);
        for c in 0..4u16 {
            let mut batch = PacketBatch::new();
            for i in 0..2u16 {
                let seq = c * 2 + i;
                batch.push(&probe_bytes(d, seq, 3, seq + 1));
            }
            cross(&mut paced_net, &batch);
        }
        assert_eq!(paced_net.counters().replies_rate_limited, 0);
        assert_eq!(paced_net.counters().replies_sent, 8);
    }

    /// Rate-limit profiles apply to Echo Replies exactly as to ICMP
    /// errors: an echo burst into a rate-limited lane is suppressed at
    /// the router's token bucket, and the inter-cycle gap refills it —
    /// the behaviour an adaptive alias sweep (echo-heavy direct probing)
    /// backs off from.
    #[test]
    fn rate_limit_applies_to_echo_replies_on_lanes() {
        use crate::faults::FaultPlan;
        use crate::router::RouterProfile;
        use mlpt_topo::RouterId;
        let topo = canonical::simplest_diamond().translated(0x0100_0000);
        // Group the two middle interfaces into one router so the echo
        // burst drains a single shared token bucket.
        let targets: Vec<Ipv4Addr> = topo.hop(1).to_vec();
        let routers = mlpt_topo::RouterMap::from_alias_sets([targets.clone()]);
        let build = || {
            crate::SimNetwork::builder(topo.clone())
                .routers(routers.clone())
                .profile(RouterId(0), RouterProfile::well_behaved())
                .faults(FaultPlan::with_rate_limit_window(2, 8))
                .seed(3)
                .build()
        };
        let echo_batch = |n: u16| {
            let mut batch = PacketBatch::new();
            for i in 0..n {
                let target = targets[usize::from(i) % targets.len()];
                batch.push(&mlpt_wire::probe::build_echo_probe(
                    SRC,
                    target,
                    0x4D4C,
                    i + 1,
                    64,
                ));
            }
            batch
        };

        // One burst of 8 echoes into a capacity-2 bucket: most dropped.
        let mut burst_net = MultiNetwork::new(vec![build()]).expect("unique");
        let replies = cross(&mut burst_net, &echo_batch(8));
        let suppressed = burst_net.counters().replies_rate_limited;
        assert!(suppressed >= 5, "suppressed {suppressed}");
        // The answered ones are real Echo Replies from the targets.
        let answered = (0..replies.len())
            .filter(|&i| replies.get(i).is_some())
            .count();
        assert_eq!(answered as u64, burst_net.counters().replies_sent);

        // The same 8 echoes paced 2 per cycle with a full window between
        // cycles: the bucket refills, nothing is suppressed.
        let mut paced_net = MultiNetwork::new(vec![build()])
            .expect("unique")
            .with_cycle_gap(8);
        for c in 0..4u16 {
            let mut batch = PacketBatch::new();
            for i in 0..2u16 {
                let seq = c * 2 + i;
                let target = targets[usize::from(seq) % targets.len()];
                batch.push(&mlpt_wire::probe::build_echo_probe(
                    SRC,
                    target,
                    0x4D4C,
                    seq + 1,
                    64,
                ));
            }
            cross(&mut paced_net, &batch);
        }
        assert_eq!(paced_net.counters().replies_rate_limited, 0);
        assert_eq!(paced_net.counters().replies_sent, 8);
    }

    #[test]
    fn echo_routes_to_owning_lane() {
        let all = lanes(2, 3);
        let target = *all[1].topology().hop(1).first().expect("multi-vertex hop");
        let mut net = MultiNetwork::new(all).expect("unique destinations");
        let echo = mlpt_wire::probe::build_echo_probe(SRC, target, 0xBEEF, 1, 64);
        let reply = net.send_packet(&echo).expect("echo answered");
        let parsed = parse_reply(&reply).expect("valid reply");
        assert_eq!(parsed.responder, target);
        assert_eq!(net.lane(0).counters().probes_received, 0);
        assert_eq!(net.lane(1).counters().probes_received, 1);
    }
}
