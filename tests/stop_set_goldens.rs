//! Golden digests of plain-`SweepEngine` stop-set sweeps.
//!
//! The shared stop set's generation protocol (source-order generations,
//! snapshot adoption at pull time, source-order commits) decides which
//! probes every session elides, so its observable results are pinned
//! here: per configuration, an FNV-1a-64 digest of the traces, every
//! `SweepStats` counter and the final snapshot. The grid crosses both
//! lane families (shared-prefix lanes, translated `fig1_meshed` lanes),
//! all three tracers, all three admission modes, commit widths 1/4/16,
//! lossless and lossy-with-retries networks, and source lists with and
//! without a second session on some destinations.
//!
//! Both engines run the same generation coordinator, so the proptests
//! comparing them cannot catch a change to it. These digests were
//! recorded from an independent implementation inside the engine's
//! admission loop, and so can.

use mlpt::core::engine::{AdaptiveBudget, Admission, SweepConfig, SweepEngine};
use mlpt::core::prelude::*;
use mlpt::sim::{FaultPlan, MultiNetwork, SimNetwork};
use mlpt::topo::{canonical, MultipathTopology};
use std::net::Ipv4Addr;

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const LANES: usize = 5;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn topologies(meshed: bool) -> Vec<MultipathTopology> {
    (0..LANES)
        .map(|i| {
            if meshed {
                canonical::fig1_meshed().translated(0x0100_0000 * (i as u32 + 1))
            } else {
                canonical::shared_prefix_lane(5, 2, i)
            }
        })
        .collect()
}

/// Lane index per session in source order. The duplicated destinations
/// share a generation at width 4, so their second sessions are deferred
/// behind the first.
fn source_order(duplicates: bool) -> Vec<usize> {
    if duplicates {
        vec![0, 1, 2, 0, 3, 4, 3]
    } else {
        (0..LANES).collect()
    }
}

/// One session per source index. Budgets and TTL limits vary with the
/// index (never binding on these short routes) so the sessions' predicted
/// costs differ and the cost-aware modes really reorder admission.
fn session(tracer: usize, destination: Ipv4Addr, index: usize) -> Box<dyn TraceSession> {
    let spread = (index * 3 % 7) as u8;
    let config = TraceConfig {
        max_ttl: 20 + spread,
        probe_budget: 100_000 * (1 + u64::from(spread)),
        ..TraceConfig::new(100 + index as u64)
    };
    match tracer {
        0 => Box::new(SingleFlowSession::new(destination, config, FlowId(7))),
        1 => Box::new(MdaLiteSession::new(destination, config)),
        _ => Box::new(MdaSession::new(destination, config)),
    }
}

fn digest(
    meshed: bool,
    tracer: usize,
    admission: Admission,
    commit_width: usize,
    lossy: bool,
    duplicates: bool,
) -> u64 {
    let topologies = topologies(meshed);
    let faults = if lossy {
        FaultPlan::with_loss(0.0, 0.2)
    } else {
        FaultPlan::none()
    };
    let lanes: Vec<SimNetwork> = topologies
        .iter()
        .enumerate()
        .map(|(i, t)| {
            SimNetwork::builder(t.clone())
                .faults(faults)
                .seed(31 + i as u64)
                .build()
        })
        .collect();
    let net = MultiNetwork::new(lanes).expect("unique destinations");
    let config = SweepConfig {
        max_in_flight: 4,
        retries: if lossy { 2 } else { 0 },
        admission,
        adaptive: (lossy && admission == Admission::Streaming).then(|| AdaptiveBudget {
            min_in_flight: 2,
            ..AdaptiveBudget::default()
        }),
        stop_set: Some(StopSetConfig {
            commit_width,
            ..StopSetConfig::default()
        }),
        ..SweepConfig::default()
    };
    let mut engine = SweepEngine::new(net, SRC).with_config(config);
    let sessions = source_order(duplicates)
        .into_iter()
        .enumerate()
        .map(|(index, lane)| session(tracer, topologies[lane].destination(), index));
    let traces = engine.run_stream(sessions);
    let stats = *engine.stats();
    let snapshot = engine.stop_snapshot();
    fnv1a(&format!("{traces:?}{stats:?}{snapshot:?}"))
}

/// Digests in grid order: lane family, tracer, admission, width, loss,
/// duplicates.
#[rustfmt::skip]
const GOLDEN: &[u64] = &[
    0xfceb8a77f8c412eb, 0x6eff85a82400462c, 0x4e700284b3f7e880, 0x96d8a0820bf9ff4c,
    0x39e25bf482e566dd, 0x60fb6fac74e3ea0b, 0x47f8331f15974c56, 0x52a5a1800bb05eea,
    0xccfaa5332bbdf84c, 0xe6e419d5d41f4cac, 0xbe6f8bc65a77adb3, 0x5556dc2f93f82c69,
    0xfceb8a77f8c412eb, 0x6eff85a82400462c, 0x08e66d75d930f5cc, 0xaed4cef97180b96f,
    0x39e25bf482e566dd, 0x60fb6fac74e3ea0b, 0x2239a9b4e7ed3e6b, 0x3b7d838b856e4441,
    0xccfaa5332bbdf84c, 0xe6e419d5d41f4cac, 0x78929db771f4757f, 0x9174d81418da3bb8,
    0xfceb8a77f8c412eb, 0x6eff85a82400462c, 0x08e66d75d930f5cc, 0xaed4cef97180b96f,
    0x39e25bf482e566dd, 0x60fb6fac74e3ea0b, 0x2239a9b4e7ed3e6b, 0x3b7d838b856e4441,
    0xccfaa5332bbdf84c, 0x38b6e4d4d21aeed7, 0x7298473d650acaad, 0x9174d81418da3bb8,
    0xcdce4665c7143154, 0xa09cc40380fa8f9d, 0x954b9d01f19a630e, 0x92a23ddad66c0dd5,
    0x8a397abcc7e10db2, 0xce835ba5c06bb061, 0x89a6a4afbefcc949, 0xfdf3342ca194401b,
    0x92b7eda34abd782a, 0x21d931a3c7260541, 0x0d3423f1e729e977, 0x0fe81fda9880d4bb,
    0xcdce4665c7143154, 0xa09cc40380fa8f9d, 0x55cce3fc72898879, 0x1465676e4eabbfd4,
    0x8a397abcc7e10db2, 0xf5bfebbffc0bef3e, 0x0984eccc56c1cabf, 0x9eb24d1c5ba3af4d,
    0x92b7eda34abd782a, 0x21d931a3c7260541, 0xac1992b5d39ccfca, 0x7f46415fc639ce00,
    0xcdce4665c7143154, 0xa09cc40380fa8f9d, 0x55cce3fc72898879, 0x1465676e4eabbfd4,
    0x8a397abcc7e10db2, 0xf5bfebbffc0bef3e, 0xaebae408124206c8, 0x9eb24d1c5ba3af4d,
    0x92b7eda34abd782a, 0x21d931a3c7260541, 0x20636304dc448d3e, 0x75d268f61a963d02,
    0x86ce21f25c38b8a4, 0xc5f1a942d98eae8b, 0xf20f5f536f916853, 0x4b1a1cdbd38ecf9b,
    0x779933756041ef58, 0xbc1ea1ebf1970895, 0x4baa521f16117f0b, 0xa618bfe95f105a14,
    0x779933756041ef58, 0xbc1ea1ebf1970895, 0x93f000b1bf9e1935, 0xb0f493ecdf6e28b7,
    0x86ce21f25c38b8a4, 0xc5f1a942d98eae8b, 0xfc7c16cded817195, 0xcda747aa529442ed,
    0x779933756041ef58, 0x51c278afd2d1cbab, 0x762408638102bfe1, 0xd0a09900381e7f03,
    0x779933756041ef58, 0xbc1ea1ebf1970895, 0xd23dedf12c9bb1a0, 0x9ede5415ed79c5f0,
    0x86ce21f25c38b8a4, 0xc5f1a942d98eae8b, 0xfc7c16cded817195, 0xcda747aa529442ed,
    0x779933756041ef58, 0x51c278afd2d1cbab, 0x82f38883c60cc168, 0xd0a09900381e7f03,
    0x779933756041ef58, 0xbc1ea1ebf1970895, 0x7099757491b5a3d4, 0xaac5f0a694841c3a,
    0x3e1763960df4d6ee, 0xb892032de63a49f4, 0x28a8741fc6b72580, 0x76715f3955941bc1,
    0xe0b182632cda7369, 0x411e7ac535f9e070, 0x4fe07b7cabc261c8, 0x1e725beacd3a61be,
    0xe0b182632cda7369, 0x2bd226e559309d12, 0x58fc108a19776ea0, 0x02970a72a4793468,
    0x3e1763960df4d6ee, 0xb892032de63a49f4, 0xc26426e5e718c59c, 0x048c266462644431,
    0xe0b182632cda7369, 0x411e7ac535f9e070, 0xcb2349b18d347a6a, 0xe695f1e213bc5946,
    0xe0b182632cda7369, 0x2bd226e559309d12, 0x16392280b5d664a4, 0x05c45526853ce309,
    0x3e1763960df4d6ee, 0xb892032de63a49f4, 0xc26426e5e718c59c, 0x048c266462644431,
    0xe0b182632cda7369, 0x411e7ac535f9e070, 0xcb2349b18d347a6a, 0xe695f1e213bc5946,
    0xe0b182632cda7369, 0xc71541bde710c77f, 0x84ad89dc2128a936, 0x05c45526853ce309,
    0xaea9189d53eb69b9, 0x89351efb0f0fd635, 0xa557c0a31063f063, 0x8e06da3cc5c7293c,
    0xb5c321767eadf315, 0x4960f345164a72b1, 0xe357a1a33e933a31, 0x70ec7781e6417595,
    0x09b63c673aead47b, 0xfa567b8b2275894c, 0xc15901e0d00b7ee5, 0x725ee9282bdf9519,
    0xaea9189d53eb69b9, 0x89351efb0f0fd635, 0xb7df5db5c6b6a0f2, 0xdb32b216783eb9c8,
    0xd2797bc1474e3bc1, 0xdb79df6e78baa48d, 0x04b0e938b29408be, 0xd97d21248bc6d60d,
    0x41b5914ab6ce2da3, 0x8ebe2ff9060abcd5, 0x1a9dcbe5f0897407, 0xad27c18a465cd8da,
    0xaea9189d53eb69b9, 0x89351efb0f0fd635, 0xb7df5db5c6b6a0f2, 0xdb32b216783eb9c8,
    0xd0bae53d52c562a3, 0xdb79df6e78baa48d, 0x010b34a464afc0cb, 0xd97d21248bc6d60d,
    0x70031f208a458fed, 0x6dd6e7d23ec04f98, 0x84e61fcb4bd71457, 0x090204eb3c365b6b,
    0x6bfda3c841b47513, 0x0f1941619eff05d0, 0xbc7081d36e2318c4, 0x68434ef8f06e8f75,
    0x2461328b2ac42607, 0xe39139ee3fc8749c, 0x9e956a9f6b2ed520, 0xba23c07307436324,
    0xad59388e38e33af3, 0x6ca41f305f2f4875, 0xf0696e0511fa27cd, 0x76c18f8b59d28703,
    0x6bfda3c841b47513, 0x0f1941619eff05d0, 0x778af036ec37871d, 0xe69aa0e7ff8e6c00,
    0x965fb482b368dbad, 0x3fed8d1c1d6a9650, 0x61b2ff22192f381c, 0x3852c0476cccd657,
    0xb323fa49deb74c39, 0x01fca6f699f26e1c, 0xc040c2414c10f743, 0x41345761a61e6b0a,
    0x6bfda3c841b47513, 0x0f1941619eff05d0, 0x778af036ec37871d, 0xe69aa0e7ff8e6c00,
    0x396bc0083bf1252b, 0x3fed8d1c1d6a9650, 0x5b48d7171ab7b61d, 0x3852c0476cccd657,
    0x71f52cf9073a675d, 0x1cb258db11574063, 0x009d886b574e5368, 0xb6f7c979a6e9d8ec,
];

#[test]
fn stop_set_sweeps_match_golden_digests() {
    let mut got = Vec::new();
    for meshed in [false, true] {
        for tracer in 0..3 {
            for admission in [
                Admission::Streaming,
                Admission::CostAware(usize::MAX),
                Admission::CostAware(3),
            ] {
                for commit_width in [1, 4, 16] {
                    for lossy in [false, true] {
                        for duplicates in [false, true] {
                            got.push(digest(
                                meshed,
                                tracer,
                                admission,
                                commit_width,
                                lossy,
                                duplicates,
                            ));
                        }
                    }
                }
            }
        }
    }
    let rendered: Vec<String> = got.iter().map(|d| format!("{d:#018x},")).collect();
    assert_eq!(
        got.as_slice(),
        GOLDEN,
        "digests now:\n{}",
        rendered.join("\n")
    );
}
