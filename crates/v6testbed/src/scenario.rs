//! Enumerable, seedable single-client runs — the unit of work for the
//! fleet runner (`v6fleet`).
//!
//! A [`Scenario`] names one cell of the paper's Fig. 4 evaluation space:
//! an OS profile, a topology variant (with or without the managed
//! switch + Raspberry Pi), an IPv4 DNS intervention policy, and an RNG
//! seed for the client. [`Scenario::run`] builds a fresh testbed, boots
//! the client, browses the IPv4-only conference site and dual-stack
//! ip6.me, and returns a plain-data [`ScenarioResult`]: verdict, census
//! row, full [`MetricsSnapshot`], and virtual-clock timing. Everything
//! in the result is `Clone + Eq`, so two runs of the same scenario can
//! be compared field-for-field — the property the fleet's determinism
//! tests rely on.

use crate::arena::CellArena;
use crate::census::CensusEntry;
use crate::zones::addrs;
use std::net::IpAddr;
use std::sync::OnceLock;
use v6dns::poison::PoisonPolicy;
pub use v6dns::server::ResolutionFailure;
use v6host::profiles::OsProfile;
use v6host::tasks::TaskOutcome;
use v6sim::engine::TraceMode;
use v6sim::fault::{EndpointMatch, FaultPlan, Impairment, LinkFault, Outage};
use v6sim::metrics::MetricsSnapshot;
use v6sim::time::SimTime;

/// Which physical build of Fig. 4 the scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyVariant {
    /// The paper's production testbed: managed switch (RA injection +
    /// DHCP snooping) and the Raspberry Pi's DHCP server.
    PaperDefault,
    /// The Fig. 3 "before" condition: dumb switch, no Pi DHCP — clients
    /// see only the 5G gateway's broken announcements.
    RawGateway,
}

impl TopologyVariant {
    /// All variants, in matrix order.
    pub const ALL: [TopologyVariant; 2] =
        [TopologyVariant::PaperDefault, TopologyVariant::RawGateway];

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TopologyVariant::PaperDefault => "paper",
            TopologyVariant::RawGateway => "raw-gw",
        }
    }
}

/// Which IPv4 DNS intervention the Pi's dnsmasq applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoisonVariant {
    /// No intervention (SC23 control condition).
    Off,
    /// dnsmasq `address=/#/…` wildcard-A (the paper's deployed config).
    WildcardA,
    /// The conclusion's BIND9 RPZ-style rewrite (existing names only).
    Rpz,
}

impl PoisonVariant {
    /// All variants, in matrix order.
    pub const ALL: [PoisonVariant; 3] = [
        PoisonVariant::Off,
        PoisonVariant::WildcardA,
        PoisonVariant::Rpz,
    ];

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PoisonVariant::Off => "off",
            PoisonVariant::WildcardA => "wildcard-a",
            PoisonVariant::Rpz => "rpz",
        }
    }

    /// The concrete policy (interventions answer with ip6.me's address,
    /// as deployed).
    pub fn policy(self) -> PoisonPolicy {
        let answer = addrs::IP6ME_V4.parse().expect("static ip");
        match self {
            PoisonVariant::Off => PoisonPolicy::Off,
            PoisonVariant::WildcardA => PoisonPolicy::WildcardA { answer, ttl: 60 },
            PoisonVariant::Rpz => PoisonPolicy::ResponsePolicyZone { answer, ttl: 60 },
        }
    }
}

/// Which failure regime the scenario runs under — the fault dimension of
/// the evaluation matrix. `Clean` installs nothing and stays bit-identical
/// to the pre-fault testbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultVariant {
    /// Perfect network (the original matrix).
    #[default]
    Clean,
    /// The 5G uplink degrades: loss, latency, jitter, reordering,
    /// duplication, plus a mid-run link flap.
    LossyUplink,
    /// The Raspberry Pi (DNS64 + poisoned dnsmasq + DHCP) goes dark for a
    /// crash-and-restart window right as the browse workload starts.
    Dns64Outage,
    /// The carrier NAT64's translation table is already saturated by other
    /// subscribers: no new bindings, existing ones keep refreshing.
    Nat64Exhaustion,
    /// The global DNS is published as a *delegation tree* and the Pi's
    /// resolver walks it iteratively over IPv6 only — but the `org`
    /// parent's glue for `supercomputing.org` is A-only, so the poisoned
    /// and DNS64 paths both fail sc24 resolution with the classified
    /// reason `no-aaaa-glue` instead of a timeout.
    BrokenDelegation,
}

impl FaultVariant {
    /// All variants, in matrix order.
    pub const ALL: [FaultVariant; 5] = [
        FaultVariant::Clean,
        FaultVariant::LossyUplink,
        FaultVariant::Dns64Outage,
        FaultVariant::Nat64Exhaustion,
        FaultVariant::BrokenDelegation,
    ];

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultVariant::Clean => "clean",
            FaultVariant::LossyUplink => "lossy-uplink",
            FaultVariant::Dns64Outage => "dns64-outage",
            FaultVariant::Nat64Exhaustion => "nat64-exhaustion",
            FaultVariant::BrokenDelegation => "broken-delegation",
        }
    }

    /// This variant's position in [`FaultVariant::ALL`] — the index the
    /// population census keys its fault-mix row by.
    pub fn index(self) -> usize {
        match self {
            FaultVariant::Clean => 0,
            FaultVariant::LossyUplink => 1,
            FaultVariant::Dns64Outage => 2,
            FaultVariant::Nat64Exhaustion => 3,
            FaultVariant::BrokenDelegation => 4,
        }
    }

    /// The seeded [`FaultPlan`] this variant installs (keyed to the
    /// testbed's node names). `Clean`, `Nat64Exhaustion` and
    /// `BrokenDelegation` return the no-op plan — those are device-state
    /// conditions, not link impairments.
    pub fn plan(self, seed: u64) -> FaultPlan {
        match self {
            FaultVariant::Clean
            | FaultVariant::Nat64Exhaustion
            | FaultVariant::BrokenDelegation => FaultPlan::default(),
            FaultVariant::LossyUplink => FaultPlan {
                seed,
                links: vec![LinkFault {
                    on: EndpointMatch::between("5g-gw", "internet"),
                    impairment: Impairment {
                        drop_per_mille: 25,
                        extra_latency_us: 20_000,
                        jitter_us: 15_000,
                        reorder_per_mille: 40,
                        reorder_window_us: 20_000,
                        duplicate_per_mille: 15,
                        ..Impairment::default()
                    },
                }],
                // A short flap while the browse workload is in flight.
                outages: vec![Outage {
                    on: EndpointMatch::between("5g-gw", "internet"),
                    start_us: 16_000_000,
                    end_us: 16_600_000,
                }],
            },
            FaultVariant::Dns64Outage => FaultPlan {
                seed,
                links: Vec::new(),
                // The Pi crashes exactly as the post-boot workload starts
                // (boot ends at 15 s) and is back 2.4 s later: long enough
                // that the fixed-timeout stub of old would have declared
                // DNS dead, short enough that backoff retransmission
                // recovers within the task deadline.
                outages: vec![Outage {
                    on: EndpointMatch::node("raspberry-pi"),
                    start_us: 15_000_000,
                    end_us: 17_400_000,
                }],
            },
        }
    }

    /// NAT64 binding cap this variant imposes on the gateway.
    pub fn nat64_binding_cap(self) -> Option<usize> {
        match self {
            FaultVariant::Nat64Exhaustion => Some(0),
            _ => None,
        }
    }
}

/// Index into the interned paper profile table ([`os_profiles`]).
///
/// Population-scale sampling draws millions of cells; interning the
/// eleven [`OsProfile`]s once and passing a two-byte id around makes a
/// sampled cell plain table-driven data (`Copy`, no strings) instead of
/// a freshly constructed profile per sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OsProfileId(pub u16);

/// The interned paper profile table, built once per process. Order is
/// [`OsProfile::all_paper_profiles`] order, so ids are stable for the
/// life of the program *and* across processes (the population sampler's
/// determinism relies on that).
pub fn os_profiles() -> &'static [OsProfile] {
    static TABLE: OnceLock<Vec<OsProfile>> = OnceLock::new();
    TABLE.get_or_init(OsProfile::all_paper_profiles)
}

impl OsProfileId {
    /// The interned profile this id names. Panics on an out-of-table id
    /// (ids only ever come from enumerating [`os_profiles`]).
    pub fn profile(self) -> &'static OsProfile {
        &os_profiles()[self.0 as usize]
    }

    /// The profile's display name.
    pub fn name(self) -> &'static str {
        &self.profile().name
    }

    /// Every id in table order.
    pub fn all() -> impl Iterator<Item = OsProfileId> {
        (0..os_profiles().len() as u16).map(OsProfileId)
    }

    /// Look an id up by profile display name — the inverse of
    /// [`OsProfileId::name`], used when a name arrives over the wire
    /// (e.g. a lab-daemon job spec) and must resolve to the interned
    /// table or be rejected.
    pub fn by_name(name: &str) -> Option<OsProfileId> {
        OsProfileId::all().find(|id| id.name() == name)
    }
}

/// A fully table-driven cell: every dimension is a `Copy` index or
/// variant, the OS profile an id into the interned table. This is the
/// unit the population sampler draws — a 16-byte value derived on the
/// fly per sample, where a [`Scenario`] would clone profile strings for
/// every one of a million draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Interned OS profile under test.
    pub os: OsProfileId,
    /// Which build of the topology it attaches to.
    pub topology: TopologyVariant,
    /// The IPv4 DNS intervention in force.
    pub poison: PoisonVariant,
    /// The failure regime injected into the build.
    pub fault: FaultVariant,
    /// RNG seed for the client's stack.
    pub seed: u64,
}

impl CellSpec {
    /// Materialize the equivalent [`Scenario`] (clones the interned
    /// profile — needed only when the full result is wanted).
    pub fn to_scenario(self) -> Scenario {
        Scenario {
            os: self.os.profile().clone(),
            topology: self.topology,
            poison: self.poison,
            fault: self.fault,
            seed: self.seed,
        }
    }

    /// Run the cell on a freshly built testbed and observe only the
    /// compact census row. A cold run is a run on an empty
    /// [`CellArena`]; see [`CellArena::run_observation`].
    pub fn run_observation(self) -> CellObservation {
        CellArena::new().run_observation(self)
    }
}

/// Address family a task completed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathFamily {
    /// Completed against an IPv6 peer.
    V6,
    /// Completed against an IPv4 peer.
    V4,
    /// Did not complete.
    Fail,
}

impl PathFamily {
    pub(crate) fn of(o: &TaskOutcome) -> PathFamily {
        match o.peer() {
            Some(IpAddr::V6(_)) => PathFamily::V6,
            Some(IpAddr::V4(_)) => PathFamily::V4,
            None => PathFamily::Fail,
        }
    }

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PathFamily::V6 => "v6",
            PathFamily::V4 => "v4",
            PathFamily::Fail => "fail",
        }
    }
}

/// One cell of the Fig. 4 evaluation matrix.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The client under test.
    pub os: OsProfile,
    /// Which build of the topology it attaches to.
    pub topology: TopologyVariant,
    /// The IPv4 DNS intervention in force.
    pub poison: PoisonVariant,
    /// The failure regime injected into the build.
    pub fault: FaultVariant,
    /// RNG seed for the client's stack.
    pub seed: u64,
}

impl Scenario {
    /// The full matrix: every paper OS profile × every topology variant
    /// × every poison policy, with seeds derived from `base_seed` so two
    /// matrices built from the same base are identical. All cells run
    /// clean; use [`Scenario::matrix_with_fault`] for an impaired sweep.
    pub fn matrix(base_seed: u64) -> Vec<Scenario> {
        Self::matrix_with_fault(base_seed, FaultVariant::Clean)
    }

    /// The same matrix with every cell run under `fault`. Seeds depend
    /// only on `base_seed` and cell index, so the clean and impaired
    /// matrices are cell-for-cell comparable.
    pub fn matrix_with_fault(base_seed: u64, fault: FaultVariant) -> Vec<Scenario> {
        let mut out = Vec::new();
        for topology in TopologyVariant::ALL {
            for poison in PoisonVariant::ALL {
                for os in OsProfile::all_paper_profiles() {
                    let seed = base_seed.wrapping_add(out.len() as u64);
                    out.push(Scenario {
                        os,
                        topology,
                        poison,
                        fault,
                        seed,
                    });
                }
            }
        }
        out
    }

    /// Stable human-readable identifier (used as the report key). Clean
    /// runs keep the historical three-part label so pre-fault reports
    /// stay byte-identical; impaired runs append the fault dimension.
    pub fn label(&self) -> String {
        let fault = match self.fault {
            FaultVariant::Clean => String::new(),
            f => format!("/{}", f.label()),
        };
        format!(
            "{}/{}/{}{}/seed{}",
            self.topology.label(),
            self.poison.label(),
            self.os.name,
            fault,
            self.seed
        )
    }

    /// Fault-independent cell key: topology/poison/OS/seed. Two matrices
    /// built from the same base seed share cell keys across fault
    /// variants, which is what lets a run manifest differ line up the
    /// clean and impaired verdicts for the same population.
    pub fn cell_label(&self) -> String {
        format!(
            "{}/{}/{}/seed{}",
            self.topology.label(),
            self.poison.label(),
            self.os.name,
            self.seed
        )
    }

    /// The compact table-driven form of this scenario — the inverse of
    /// [`CellSpec::to_scenario`]. `None` when the OS profile is not in
    /// the interned table (a hand-built profile has no id).
    pub fn cell_spec(&self) -> Option<CellSpec> {
        Some(CellSpec {
            os: OsProfileId::by_name(&self.os.name)?,
            topology: self.topology,
            poison: self.poison,
            fault: self.fault,
            seed: self.seed,
        })
    }

    /// Stable 64-bit digest of the scenario's configuration — every
    /// matrix dimension plus the seed and the resolved fault plan — for
    /// the run-manifest config section. A pure function of `self`,
    /// reproducible across processes.
    pub fn digest(&self) -> u64 {
        // FNV-1a over the label text covers topology, poison, OS and
        // seed; folding in the fault plan digest covers everything the
        // fault dimension resolves to (including the seed it samples
        // with and the NAT64 binding cap variant).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.label().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let cap = match self.fault.nat64_binding_cap() {
            Some(c) => c as u64 + 1,
            None => 0,
        };
        h ^ self.fault.plan(self.seed).digest().rotate_left(31) ^ cap
    }

    /// Run this cell on a freshly built testbed and collect everything.
    ///
    /// Entirely driven by the virtual clock and the scenario seed: the
    /// result is a pure function of `self`, which is what lets the
    /// fleet runner execute scenarios on any thread in any order and
    /// still aggregate a deterministic report.
    ///
    /// Fleet cells never read the frame trace, so this runs under
    /// [`TraceMode::Hops`]; trace verbosity never perturbs the simulation
    /// (the result is identical in every mode — see
    /// [`Scenario::run_with_trace`] and the determinism tests), so the
    /// cheaper mode is a pure win.
    pub fn run(&self) -> ScenarioResult {
        self.run_with_trace(TraceMode::Hops)
    }

    /// [`Scenario::run`] with an explicit engine trace mode — `Off` for
    /// maximum-throughput sweeps, `Full` when the per-frame summaries are
    /// wanted (figure regeneration, debugging a single cell). A cold run
    /// is a run on an empty [`CellArena`], which builds the testbed
    /// fresh.
    pub fn run_with_trace(&self, trace: TraceMode) -> ScenarioResult {
        CellArena::new().run_with_trace(self, trace)
    }
}

/// The compact, `Copy` observation of one cell — everything the
/// population census folds into its sketch, and nothing else. A strict
/// projection of [`ScenarioResult`]: [`CellObservation::from_result`]
/// computes the identical value from a full result, which is how the
/// streaming aggregation is proven equivalent to the materializing one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellObservation {
    /// RFC 8925 engaged after boot (IPv4 administratively off).
    pub rfc8925_engaged: bool,
    /// Client still holds an IPv4 data path.
    pub has_v4: bool,
    /// Family that reached the IPv4-only conference site.
    pub sc24: PathFamily,
    /// Family that reached dual-stack ip6.me.
    pub ip6me: PathFamily,
    /// Client was redirected to the intervention page.
    pub intervened: bool,
    /// Counted by the SC23-style naive census.
    pub naive_counted: bool,
    /// Counted by the SC24-style accurate census.
    pub accurate_counted: bool,
    /// Injected faults visibly bit (fault drops or NAT64 refusals).
    pub degraded: bool,
    /// Most severe classified resolution failure the client saw
    /// (lowest [`ResolutionFailure::index`] wins), if any.
    pub dns_failure: Option<ResolutionFailure>,
    /// Virtual microseconds at which the cell finished.
    pub completed_us: u64,
    /// Engine events the cell processed.
    pub events: u64,
}

impl CellObservation {
    /// Project a full [`ScenarioResult`] down to the observation. This is
    /// the one place a result's census row is classified: `v6fleet`'s
    /// census counts and `v6report`'s verdict rows both read it.
    pub fn from_result(r: &ScenarioResult) -> CellObservation {
        let nat64_refusals = r
            .metrics
            .node("5g-gw")
            .map(|n| n.device.get("nat64.dropped_table_full"))
            .unwrap_or(0);
        CellObservation {
            rfc8925_engaged: r.verdict.rfc8925_engaged,
            has_v4: r.verdict.has_v4,
            sc24: r.verdict.sc24,
            ip6me: r.verdict.ip6me,
            intervened: r.verdict.intervened,
            naive_counted: r.census.naive_counted,
            accurate_counted: r.census.accurate_counted,
            degraded: r.metrics.faults.total_dropped() > 0 || nat64_refusals > 0,
            dns_failure: r.dns_failure(),
            completed_us: r.completed_at.as_micros(),
            events: r.metrics.engine.events_processed,
        }
    }
}

/// The scenario-level observations the fleet report aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// RFC 8925 engaged after boot (IPv4 administratively off).
    pub rfc8925_engaged: bool,
    /// Client still holds an IPv4 data path.
    pub has_v4: bool,
    /// Family that reached the IPv4-only conference site.
    pub sc24: PathFamily,
    /// Family that reached dual-stack ip6.me.
    pub ip6me: PathFamily,
    /// Client was redirected to the intervention page.
    pub intervened: bool,
}

/// Everything one scenario run produced — plain data, `Clone + Eq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioResult {
    /// [`Scenario::label`] of the run.
    pub label: String,
    /// The client seed.
    pub seed: u64,
    /// Outcome classification.
    pub verdict: Verdict,
    /// The client's census row.
    pub census: CensusEntry,
    /// Full engine + per-node counter snapshot at the end of the run.
    pub metrics: MetricsSnapshot,
    /// Virtual-clock time when the run finished.
    pub completed_at: SimTime,
}

impl ScenarioResult {
    /// Most severe classified resolution failure the client recorded —
    /// the same lowest-index-wins projection `Host::dns_failure`
    /// applies, read back out of the host's device metrics (the first
    /// host is always the `host0-`-prefixed node).
    pub fn dns_failure(&self) -> Option<ResolutionFailure> {
        self.metrics
            .nodes
            .iter()
            .find(|n| n.name.starts_with("host0-"))
            .and_then(|n| {
                ResolutionFailure::ALL
                    .into_iter()
                    .find(|f| n.device.get(&format!("dns.fail.{}", f.label())) > 0)
            })
    }

    /// Paper-style one-line rendering.
    pub fn render(&self) -> String {
        format!(
            "{:<48} rfc8925={:<5} v4-path={:<5} sc24=via-{:<4} ip6me=via-{:<4} intervened={}",
            self.label,
            self.verdict.rfc8925_engaged,
            self.verdict.has_v4,
            self.verdict.sc24.label(),
            self.verdict.ip6me.label(),
            self.verdict.intervened,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_the_full_cross_product() {
        let m = Scenario::matrix(1);
        let profiles = OsProfile::all_paper_profiles().len();
        assert_eq!(
            m.len(),
            profiles * TopologyVariant::ALL.len() * PoisonVariant::ALL.len()
        );
        // Labels are unique (they key the fleet report).
        let mut labels: Vec<String> = m.iter().map(Scenario::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), m.len());
    }

    #[test]
    fn cell_labels_are_fault_invariant_and_digests_are_not() {
        let clean = Scenario::matrix(5);
        let faulted = Scenario::matrix_with_fault(5, FaultVariant::Dns64Outage);
        for (c, f) in clean.iter().zip(&faulted) {
            assert_eq!(
                c.cell_label(),
                f.cell_label(),
                "cell key ignores the fault dimension"
            );
            assert_ne!(c.digest(), f.digest(), "config digest does not");
            assert_eq!(c.digest(), c.digest(), "digest is a pure function");
        }
        let mut other_seed = clean[0].clone();
        other_seed.seed += 1;
        assert_ne!(clean[0].digest(), other_seed.digest());
    }

    #[test]
    fn same_scenario_same_result() {
        let s = Scenario {
            os: OsProfile::nintendo_switch(),
            topology: TopologyVariant::PaperDefault,
            poison: PoisonVariant::WildcardA,
            fault: FaultVariant::Clean,
            seed: 42,
        };
        let a = s.run();
        let b = s.run();
        assert_eq!(a, b);
        assert!(a.verdict.intervened, "v4-only console gets the page");
        assert_eq!(a.verdict.sc24, PathFamily::V4);
    }

    #[test]
    fn observation_is_a_strict_projection_of_the_full_result() {
        // Across a spread of cells — both topologies, an RFC 8925
        // client, a v4-only console, and two impaired runs — the cheap
        // observation path must agree field-for-field with projecting
        // the full materialized result.
        let cells = [
            Scenario {
                os: OsProfile::macos(),
                topology: TopologyVariant::PaperDefault,
                poison: PoisonVariant::WildcardA,
                fault: FaultVariant::Clean,
                seed: 11,
            },
            Scenario {
                os: OsProfile::nintendo_switch(),
                topology: TopologyVariant::RawGateway,
                poison: PoisonVariant::Off,
                fault: FaultVariant::Clean,
                seed: 12,
            },
            Scenario {
                os: OsProfile::windows_10(),
                topology: TopologyVariant::PaperDefault,
                poison: PoisonVariant::Rpz,
                fault: FaultVariant::LossyUplink,
                seed: 13,
            },
            Scenario {
                os: OsProfile::macos(),
                topology: TopologyVariant::PaperDefault,
                poison: PoisonVariant::WildcardA,
                fault: FaultVariant::Nat64Exhaustion,
                seed: 14,
            },
            Scenario {
                os: OsProfile::macos(),
                topology: TopologyVariant::PaperDefault,
                poison: PoisonVariant::WildcardA,
                fault: FaultVariant::BrokenDelegation,
                seed: 15,
            },
        ];
        for s in cells {
            let full = CellObservation::from_result(&s.run());
            let cheap = s.cell_spec().expect("paper profile").run_observation();
            assert_eq!(full, cheap, "{} diverged", s.label());
        }
    }

    #[test]
    fn cell_spec_round_trips_through_the_interned_table() {
        let table = os_profiles();
        assert_eq!(table.len(), OsProfile::all_paper_profiles().len());
        for id in OsProfileId::all() {
            assert_eq!(id.name(), table[id.0 as usize].name);
        }
        let spec = CellSpec {
            os: OsProfileId(6), // macOS in table order
            topology: TopologyVariant::PaperDefault,
            poison: PoisonVariant::WildcardA,
            fault: FaultVariant::Clean,
            seed: 42,
        };
        assert_eq!(spec.os.name(), "macOS");
        let s = spec.to_scenario();
        assert_eq!(s.os.name, "macOS");
        assert_eq!(s.seed, 42);
        assert_eq!(
            spec.run_observation(),
            s.cell_spec().expect("paper profile").run_observation()
        );
    }

    #[test]
    fn broken_delegation_fails_sc24_with_classified_reason() {
        // A v6-only (RFC 8925) client resolving through the v4-only-glue
        // authoritative fails sc24 with `no-aaaa-glue` — a classified
        // failure, not a timeout — while dual-glue ip6.me keeps working.
        let s = Scenario {
            os: OsProfile::macos(),
            topology: TopologyVariant::PaperDefault,
            poison: PoisonVariant::WildcardA,
            fault: FaultVariant::BrokenDelegation,
            seed: 21,
        };
        let o = s.cell_spec().expect("paper profile").run_observation();
        assert_eq!(o.dns_failure, Some(ResolutionFailure::NoAaaaGlue));
        assert_eq!(o.sc24, PathFamily::Fail, "sc24 unreachable, classified");
        assert_eq!(o.ip6me, PathFamily::V6, "dual glue keeps resolving");
        // A v4-only console still gets the wildcard-A intervention: the
        // poisoned resolver answers A locally, never touching the tree.
        let s4 = Scenario {
            os: OsProfile::nintendo_switch(),
            seed: 22,
            ..s
        };
        let o4 = s4.cell_spec().expect("paper profile").run_observation();
        assert!(o4.intervened, "the intervention survives the fault");
        assert_eq!(o4.dns_failure, None);
    }

    #[test]
    fn metrics_snapshot_sees_every_device() {
        let s = Scenario {
            os: OsProfile::macos(),
            topology: TopologyVariant::PaperDefault,
            poison: PoisonVariant::WildcardA,
            fault: FaultVariant::Clean,
            seed: 7,
        };
        let r = s.run();
        let m = &r.metrics;
        let gw = m.node("5g-gw").expect("gateway row");
        assert!(gw.link.frames_rx > 0 && gw.link.frames_tx > 0);
        assert!(
            gw.device.get("nat64.outbound") > 0,
            "RFC 8925 client reaches the v4-only site via NAT64: {}",
            gw.device
        );
        let pi = m.node("raspberry-pi").expect("pi row");
        assert!(pi.device.get("dns64.queries") > 0, "healthy resolver used");
        assert!(
            m.node("managed-sw")
                .expect("switch row")
                .device
                .get("forwarded")
                > 0
        );
        assert!(m.engine.events_processed > 0 && m.engine.queue_high_water > 0);
    }
}
