//! A panic inside the worker pool reaches the caller: a fleet or census
//! whose work panics fails the call, on one thread or several. It never
//! hangs and never returns a partial report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use v6fleet::{CensusSketch, FleetObserver, FleetRunner, PopulationSpec};
use v6testbed::{Scenario, ScenarioResult};

/// Panics when the scenario or shard at index `at` completes.
struct PanicAt {
    at: usize,
}

impl FleetObserver for PanicAt {
    fn scenario_done(&self, index: usize, _: &ScenarioResult) {
        assert_ne!(index, self.at, "observer panic at scenario {index}");
    }

    fn shard_done(&self, shard: usize, _: &CensusSketch) {
        assert_ne!(shard, self.at, "observer panic at shard {shard}");
    }
}

/// Run `call` on a helper thread and return its panic message. Fails
/// if the call returns normally or takes longer than a minute.
fn panic_message(call: impl FnOnce() + Send + 'static) -> String {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(call));
        let _ = tx.send(outcome.map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        }));
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(Err(message)) => message,
        Ok(Ok(())) => panic!("the call returned instead of panicking"),
        Err(_) => panic!("the call hung"),
    }
}

#[test]
fn a_scenario_panic_fails_the_fleet_at_one_and_three_threads() {
    let scenarios: Vec<Scenario> = Scenario::matrix(0x5c24).into_iter().take(5).collect();
    for threads in [1, 3] {
        let scenarios = scenarios.clone();
        let message = panic_message(move || {
            let run = FleetRunner::new(threads).run_observed(&scenarios, &PanicAt { at: 2 });
            drop(run);
        });
        assert!(
            message.contains("observer panic at scenario 2"),
            "threads={threads}: {message:?}"
        );
    }
}

#[test]
fn a_shard_panic_fails_the_census_at_one_and_three_threads() {
    let spec = PopulationSpec::paper_default(0x5c24, 12);
    for threads in [1, 3] {
        let spec = spec.clone();
        let message = panic_message(move || {
            let run =
                FleetRunner::new(threads).run_population_observed(&spec, 4, &PanicAt { at: 2 });
            drop(run);
        });
        assert!(
            message.contains("observer panic at shard 2"),
            "threads={threads}: {message:?}"
        );
    }
}
