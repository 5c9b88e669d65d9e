//! Alias resolution and multilevel route tracing (Sec. 4 of the paper).
//!
//! "Multilevel" route tracing resolves the IP interfaces seen at each hop
//! of a multipath trace into routers, *during* the trace — the paper's
//! third contribution. Three techniques provide the evidence:
//!
//! * the **Monotonic Bounds Test** (MIDAR): interleaved IP-ID samples
//!   from two interfaces form one monotonically increasing (wraparound
//!   aware) sequence only if they come from a shared counter ([`series`],
//!   [`mbt`]);
//! * **Network Fingerprinting** (Vanaubel et al.): inferred initial TTLs
//!   of replies; differing fingerprints mean different routers
//!   ([`evidence`]);
//! * **MPLS Labeling** (Vanaubel et al.): stable label-stack entries at a
//!   common hop; differing labels mean different routers, equal labels
//!   the same router ([`evidence`]).
//!
//! [`resolver`] combines pair evidence into alias sets following the
//! MBT's set-based schema ("an initial set … broken down into smaller and
//! smaller sets"); [`rounds`] implements the Round 0–10 probing protocol
//! of Sec. 4.2 with both indirect (MMLPT) and direct (MIDAR-style)
//! probing; [`multilevel`] packages it all as the Multilevel MDA-Lite
//! Paris Traceroute (MMLPT) tool.

pub mod evidence;
pub mod mbt;
pub mod multilevel;
pub mod resolver;
pub mod rounds;
pub mod series;

pub use evidence::{AddressEvidence, EvidenceBase, Fingerprint, MplsEvidence};
pub use mbt::{merged_monotonic, MbtParams, PairCompatibility};
pub use multilevel::{
    trace_multilevel, DirectComparison, MultilevelConfig, MultilevelOutcome, MultilevelSession,
    MultilevelTrace,
};
pub use resolver::{resolve, AliasPartition, PairVerdict, SetVerdict};
pub use rounds::{AliasRoundsSession, ProbeMethod, RoundReport, RoundsConfig};
pub use series::{classify_series, IpIdSample, SeriesClass};
