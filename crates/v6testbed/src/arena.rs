//! Cell execution: reusable testbed arenas, the one way a cell runs.
//!
//! Building the Fig. 4 topology dominates a cell's cost at population
//! scale: twelve boxed nodes, eleven route-table parses, resolver and
//! NAT construction, zone wiring — all to run a ~40-virtual-second
//! single-client cell and throw the testbed away. A [`CellArena`] keeps
//! one built [`Testbed`] per distinct build configuration (topology ×
//! poison × trace mode — six combinations in the paper matrix) and
//! [recycles](Testbed::recycle) it between cells instead of rebuilding.
//!
//! A *cold* run is a run on an empty arena: its first cell of each
//! configuration builds with [`Testbed::build`], exactly as a one-off
//! run would. [`Scenario::run_with_trace`] and
//! [`CellSpec::run_observation`] are that case.
//!
//! Correctness bar: a warm run is *byte-identical* to a cold run — same
//! [`CellObservation`], same [`ScenarioResult`] including the full
//! metrics snapshot (pool counters included). The differential suite in
//! `tests/warm_cold.rs` proves this over random cell sequences; the
//! reset invariants it relies on are documented in DESIGN.md §13.
//!
//! Arenas are deliberately *not* shared across threads: each fleet
//! worker owns one, so the hot path takes no locks and reuse is a plain
//! `&mut` borrow.

use crate::census::census;
use crate::scenario::{
    CellObservation, CellSpec, FaultVariant, PathFamily, PoisonVariant, Scenario, ScenarioResult,
    TopologyVariant, Verdict,
};
use crate::topology::{Testbed, TestbedConfig};
use crate::zones::delegated_internet_dns;
use v6host::profiles::OsProfile;
use v6host::tasks::{AppTask, TaskOutcome};
use v6sim::engine::{NodeId, TraceMode};

/// Stable key for one build configuration. FNV-1a over the three
/// build-time dimensions; everything else a cell varies is per-run
/// state applied by the shared run body.
fn arena_key(topology: TopologyVariant, poison: PoisonVariant, trace: TraceMode) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in [
        topology.label().as_bytes(),
        poison.label().as_bytes(),
        match trace {
            TraceMode::Off => b"off".as_slice(),
            TraceMode::Hops => b"hops".as_slice(),
            TraceMode::Full => b"full".as_slice(),
        },
    ]
    .into_iter()
    .flatten()
    {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct ArenaSlot {
    key: u64,
    config: TestbedConfig,
    tb: Testbed,
}

/// A per-worker pool of reusable testbeds, keyed by build configuration.
///
/// ```
/// use v6testbed::arena::CellArena;
/// use v6testbed::scenario::{CellSpec, FaultVariant, OsProfileId, PoisonVariant, TopologyVariant};
///
/// let spec = CellSpec {
///     os: OsProfileId(6), // macOS
///     topology: TopologyVariant::PaperDefault,
///     poison: PoisonVariant::WildcardA,
///     fault: FaultVariant::Clean,
///     seed: 42,
/// };
/// let mut arena = CellArena::new();
/// let warm = {
///     arena.run_observation(spec); // cold build, populates the slot
///     arena.run_observation(spec) // warm: recycled in place
/// };
/// assert_eq!(warm, spec.run_observation(), "warm equals cold");
/// assert_eq!(arena.cells_warm(), 1);
/// ```
#[derive(Default)]
pub struct CellArena {
    slots: Vec<ArenaSlot>,
    cells_cold: u64,
    cells_warm: u64,
}

impl CellArena {
    /// An empty arena; testbeds are built lazily on first use of each
    /// configuration.
    pub fn new() -> CellArena {
        CellArena::default()
    }

    /// Cells that paid a full topology build (first use of a config).
    pub fn cells_cold(&self) -> u64 {
        self.cells_cold
    }

    /// Cells that ran on a recycled testbed.
    pub fn cells_warm(&self) -> u64 {
        self.cells_warm
    }

    /// Distinct build configurations currently held.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Total frame-buffer mallocs across every held testbed — the
    /// steady-state gate: after warm-up, running more cells must leave
    /// this flat (see `tests/pool_steady_state.rs`).
    pub fn pool_fresh_allocations(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.tb.net.pool_fresh_allocations())
            .sum()
    }

    /// A ready-to-run testbed for the given build dimensions: recycled
    /// in place when a matching slot exists, built cold otherwise.
    fn slot_index(
        &mut self,
        topology: TopologyVariant,
        poison: PoisonVariant,
        trace: TraceMode,
    ) -> usize {
        let key = arena_key(topology, poison, trace);
        if let Some(i) = self.slots.iter().position(|s| s.key == key) {
            let slot = &mut self.slots[i];
            slot.tb.recycle(&slot.config);
            self.cells_warm += 1;
            i
        } else {
            let config = cell_config(topology, poison, trace);
            let tb = Testbed::build(config.clone());
            self.slots.push(ArenaSlot { key, config, tb });
            self.cells_cold += 1;
            self.slots.len() - 1
        }
    }

    /// Run a population cell and observe only the compact, `Copy` census
    /// row — the population hot path. No label string, no
    /// `CensusEntry` clones, and no full metrics snapshot (which clones
    /// every node name and counter map): the counters the census needs
    /// are read straight off the engine and the gateway. Every field
    /// agrees with [`CellObservation::from_result`] of the full result.
    pub fn run_observation(&mut self, spec: CellSpec) -> CellObservation {
        let i = self.slot_index(spec.topology, spec.poison, TraceMode::Off);
        let slot = &mut self.slots[i];
        let (id, verdict) = run_cell_body(
            &mut slot.tb,
            spec.fault,
            spec.os.profile().clone(),
            spec.seed,
        );
        observe_cell(&mut slot.tb, id, &verdict)
    }

    /// Run a matrix cell under `trace` and collect everything: verdict,
    /// census row, full metrics snapshot and virtual completion time.
    pub fn run_with_trace(&mut self, s: &Scenario, trace: TraceMode) -> ScenarioResult {
        let i = self.slot_index(s.topology, s.poison, trace);
        let slot = &mut self.slots[i];
        let (_id, verdict) = run_cell_body(&mut slot.tb, s.fault, s.os.clone(), s.seed);
        let (entries, _) = census(&mut slot.tb);
        ScenarioResult {
            label: s.label(),
            seed: s.seed,
            verdict,
            census: entries.into_iter().next().expect("one host attached"),
            metrics: slot.tb.net.metrics(),
            completed_at: slot.tb.net.now(),
        }
    }
}

/// The [`TestbedConfig`] a cell's (topology, poison, trace) dimensions
/// resolve to. These are exactly the build-time knobs — everything else
/// a cell varies (fault plan, NAT64 cap, host profile, seed) is applied
/// per run by [`run_cell_body`], which is what makes testbeds reusable
/// across cells that share this config.
fn cell_config(
    topology: TopologyVariant,
    poison: PoisonVariant,
    trace: TraceMode,
) -> TestbedConfig {
    let managed = topology == TopologyVariant::PaperDefault;
    TestbedConfig {
        managed_switch: managed,
        pi_dhcp: managed,
        poison: poison.policy(),
        block_v4_internet: false,
        trace,
    }
}

/// Install the per-cell state on a post-build (or recycled) testbed,
/// boot the client, run the browse workload, and classify the outcome.
/// Freshly built and recycled testbeds both run exactly this body, in
/// exactly this order — the conditional fault install mirrors the fact
/// that a fresh build never sees `set_fault_plan` for a no-op plan, so
/// `fault_active` agrees.
fn run_cell_body(
    tb: &mut Testbed,
    fault: FaultVariant,
    os: OsProfile,
    seed: u64,
) -> (NodeId, Verdict) {
    let plan = fault.plan(seed);
    if !plan.is_noop() {
        tb.net.set_fault_plan(plan);
    }
    if let Some(cap) = fault.nat64_binding_cap() {
        tb.gateway().nat64.set_max_bindings(Some(cap));
    }
    if fault == FaultVariant::BrokenDelegation {
        // Swap the Pi's flat DNS database for the delegation tree walked
        // iteratively over IPv6 only. `PiServer::reset` reinstalls the
        // flat database, so a recycled testbed starts from the same state
        // as a cold build.
        tb.pi_server().install_global_dns(delegated_internet_dns());
    }
    let id = tb.set_host_seeded(os, seed);
    tb.boot();
    // The workload names are constants; parse them once per process and
    // hand out clones (a DnsName clone is a reference-count bump).
    static SC24_NAME: std::sync::OnceLock<v6dns::name::DnsName> = std::sync::OnceLock::new();
    static IP6ME_NAME: std::sync::OnceLock<v6dns::name::DnsName> = std::sync::OnceLock::new();
    let sc24 = tb.run_task(
        id,
        AppTask::Browse {
            name: SC24_NAME
                .get_or_init(|| "sc24.supercomputing.org".parse().expect("static name"))
                .clone(),
            path: "/".into(),
        },
        25,
    );
    let ip6me = tb.run_task(
        id,
        AppTask::Browse {
            name: IP6ME_NAME
                .get_or_init(|| "ip6.me".parse().expect("static name"))
                .clone(),
            path: "/".into(),
        },
        25,
    );
    let intervened = matches!(
        (&sc24, &ip6me),
        (TaskOutcome::HttpOk { body, .. }, _) | (_, TaskOutcome::HttpOk { body, .. })
            if body.contains("helpdesk")
    );
    let h = tb.host(id);
    let verdict = Verdict {
        rfc8925_engaged: h.v6only_mode,
        has_v4: h.v4_active(),
        sc24: PathFamily::of(&sc24),
        ip6me: PathFamily::of(&ip6me),
        intervened,
    };
    (id, verdict)
}

/// Project a finished cell on a live testbed down to the compact
/// observation. The live-testbed twin of [`CellObservation::from_result`]:
/// it reads the gateway's NAT64 refusal counter directly instead of out
/// of a metrics snapshot.
fn observe_cell(tb: &mut Testbed, id: NodeId, verdict: &Verdict) -> CellObservation {
    let h = tb.host(id);
    let has_v6 = h.v6_global_active();
    let has_v4 = h.v4_active();
    let dns_failure = h.dns_failure();
    let fault_dropped = tb.net.fault_frames_dropped();
    let nat64_refusals = tb.gateway().nat64.dropped_table_full;
    CellObservation {
        rfc8925_engaged: verdict.rfc8925_engaged,
        has_v4: verdict.has_v4,
        sc24: verdict.sc24,
        ip6me: verdict.ip6me,
        intervened: verdict.intervened,
        naive_counted: true,
        accurate_counted: has_v6 && !has_v4,
        degraded: fault_dropped > 0 || nat64_refusals > 0,
        dns_failure,
        completed_us: tb.net.now().as_micros(),
        events: tb.net.events_processed(),
    }
}
