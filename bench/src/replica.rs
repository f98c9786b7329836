//! A replica of the testbed's per-cell run body, built from public
//! calls, with a span around each call into a layer. The traced run
//! checks every replica cell against the production `CellArena` on the
//! same cell: if they differ, the spans describe a different program.

use std::net::IpAddr;
use std::sync::OnceLock;

use v6dns::name::DnsName;
use v6host::profiles::OsProfile;
use v6host::tasks::{AppTask, TaskOutcome};
use v6sim::engine::NodeId;
use v6sim::pcap::CapturedFrame;
use v6testbed::scenario::{FaultVariant, PathFamily};
use v6testbed::{
    census, zones, CellObservation, CellSpec, PoisonVariant, Scenario, ScenarioResult, Testbed,
    TestbedConfig, TopologyVariant, TraceMode, Verdict,
};

use crate::trace::Tracer;

/// Engine counts of one cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellCounts {
    /// Events dispatched while booting.
    pub events_boot: u64,
    /// Events dispatched by the two browses.
    pub events_browse: u64,
    /// Frames delivered over the whole cell.
    pub frames: u64,
}

struct Slot {
    topology: TopologyVariant,
    poison: PoisonVariant,
    config: TestbedConfig,
    tb: Testbed,
}

/// One built testbed per (topology, poison), recycled between cells —
/// what `CellArena` does, with every layer call inside a span.
pub struct ReplicaArena {
    mode: TraceMode,
    slots: Vec<Slot>,
    /// Capture every delivered frame of the next cells.
    pub capture: bool,
    /// Frames captured so far (while `capture` was on).
    pub captured: Vec<CapturedFrame>,
}

fn config(topology: TopologyVariant, poison: PoisonVariant, trace: TraceMode) -> TestbedConfig {
    let managed = topology == TopologyVariant::PaperDefault;
    TestbedConfig {
        managed_switch: managed,
        pi_dhcp: managed,
        poison: poison.policy(),
        block_v4_internet: false,
        trace,
    }
}

fn family(o: &TaskOutcome) -> PathFamily {
    match o.peer() {
        Some(IpAddr::V6(_)) => PathFamily::V6,
        Some(IpAddr::V4(_)) => PathFamily::V4,
        None => PathFamily::Fail,
    }
}

fn browse(name: &'static OnceLock<DnsName>, text: &str) -> AppTask {
    AppTask::Browse {
        name: name
            .get_or_init(|| text.parse().expect("static name"))
            .clone(),
        path: "/".into(),
    }
}

impl ReplicaArena {
    /// An empty arena whose testbeds run under `mode`.
    pub fn new(mode: TraceMode) -> ReplicaArena {
        ReplicaArena {
            mode,
            slots: Vec::new(),
            capture: false,
            captured: Vec::new(),
        }
    }

    /// Frame-buffer mallocs over every held testbed's lifetime.
    pub fn pool_fresh_allocations(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.tb.net.pool_fresh_allocations())
            .sum()
    }

    /// A ready testbed: recycled when one with these build dimensions
    /// exists, built otherwise.
    fn slot(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        topology: TopologyVariant,
        poison: PoisonVariant,
    ) -> usize {
        if let Some(i) = self
            .slots
            .iter()
            .position(|s| s.topology == topology && s.poison == poison)
        {
            let slot = &mut self.slots[i];
            let span = tr.begin("v6testbed.recycle", id);
            slot.tb.recycle(&slot.config);
            tr.end(span);
            i
        } else {
            let span = tr.begin("v6testbed.build", id);
            let config = config(topology, poison, self.mode);
            let tb = Testbed::build(config.clone());
            tr.end(span);
            self.slots.push(Slot {
                topology,
                poison,
                config,
                tb,
            });
            self.slots.len() - 1
        }
    }

    /// The per-cell body: fault install, host attach, boot, two
    /// browses, verdict.
    fn body(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        slot: usize,
        fault: FaultVariant,
        os: &OsProfile,
        seed: u64,
    ) -> (NodeId, Verdict, CellCounts) {
        let capture = self.capture;
        let tb = &mut self.slots[slot].tb;
        tb.net.capture_frames = capture;

        let span = tr.begin("v6testbed.fault_install", id);
        let plan = fault.plan(seed);
        if !plan.is_noop() {
            tb.net.set_fault_plan(plan);
        }
        if let Some(cap) = fault.nat64_binding_cap() {
            tb.gateway().nat64.set_max_bindings(Some(cap));
        }
        if fault == FaultVariant::BrokenDelegation {
            tb.pi_server()
                .install_global_dns(zones::delegated_internet_dns());
        }
        tr.end(span);

        let span = tr.begin("v6host.attach", id);
        let host = tb.set_host_seeded(os.clone(), seed);
        tr.end(span);

        let before_boot = tb.net.events_processed();
        let span = tr.begin("v6testbed.boot", id);
        tb.boot();
        tr.end(span);
        let after_boot = tb.net.events_processed();

        static SC24: OnceLock<DnsName> = OnceLock::new();
        static IP6ME: OnceLock<DnsName> = OnceLock::new();
        let span = tr.begin("v6testbed.browse_sc24", id);
        let sc24 = tb.run_task(host, browse(&SC24, "sc24.supercomputing.org"), 25);
        tr.end(span);
        let span = tr.begin("v6testbed.browse_ip6me", id);
        let ip6me = tb.run_task(host, browse(&IP6ME, "ip6.me"), 25);
        tr.end(span);

        let span = tr.begin("v6testbed.observe", id);
        let intervened = matches!(
            (&sc24, &ip6me),
            (TaskOutcome::HttpOk { body, .. }, _) | (_, TaskOutcome::HttpOk { body, .. })
                if body.contains("helpdesk")
        );
        let h = tb.host(host);
        let verdict = Verdict {
            rfc8925_engaged: h.v6only_mode,
            has_v4: h.v4_active(),
            sc24: family(&sc24),
            ip6me: family(&ip6me),
            intervened,
        };
        tr.end(span);
        let counts = CellCounts {
            events_boot: after_boot - before_boot,
            events_browse: tb.net.events_processed() - after_boot,
            frames: tb.net.frames_delivered,
        };
        if capture {
            self.captured.append(&mut tb.net.captured);
            tb.net.capture_frames = false;
        }
        (host, verdict, counts)
    }

    /// Replica of `CellArena::run_observation`.
    pub fn observation(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        cell: CellSpec,
    ) -> (CellObservation, CellCounts) {
        let slot = self.slot(tr, id, cell.topology, cell.poison);
        let (host, verdict, counts) =
            self.body(tr, id, slot, cell.fault, cell.os.profile(), cell.seed);
        let tb = &mut self.slots[slot].tb;
        let span = tr.begin("v6testbed.observe", id);
        let h = tb.host(host);
        let has_v6 = h.v6_global_active();
        let has_v4 = h.v4_active();
        let dns_failure = h.dns_failure();
        let fault_dropped = tb.net.fault_frames_dropped();
        let nat64_refusals = tb.gateway().nat64.dropped_table_full;
        let obs = CellObservation {
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
        };
        tr.end(span);
        (obs, counts)
    }

    /// Replica of `CellArena::run_with_trace` under this arena's mode.
    pub fn result(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        s: &Scenario,
    ) -> (ScenarioResult, CellCounts) {
        let slot = self.slot(tr, id, s.topology, s.poison);
        let (_host, verdict, counts) = self.body(tr, id, slot, s.fault, &s.os, s.seed);
        let tb = &mut self.slots[slot].tb;
        let span = tr.begin("v6testbed.census", id);
        let (entries, _) = census(tb);
        tr.end(span);
        let span = tr.begin("v6sim.metrics_snapshot", id);
        let metrics = tb.net.metrics();
        tr.end(span);
        let span = tr.begin("v6testbed.observe", id);
        let result = ScenarioResult {
            label: s.label(),
            seed: s.seed,
            verdict,
            census: entries.into_iter().next().expect("one host attached"),
            metrics,
            completed_at: tb.net.now(),
        };
        tr.end(span);
        (result, counts)
    }
}
