//! The scenario registry: every named serving drill as data.
//!
//! Each entry is a [`ScenarioSpec`] built from its [`Group`]'s
//! defaults plus a few edits, and [`run`] drives any entry by name
//! through the one scenario engine ([`crate::scenario`]). Every run
//! checks the same SLOs:
//!
//! - **zero unanswered** — every submitted request gets exactly one
//!   rung-tagged response,
//! - **validity** — every response's routing validates against the
//!   topology active when it was served,
//! - **bounded degradation** — the p99 ladder depth stays within the
//!   scenario's bound,
//!
//! plus whatever the entry's [`Slo`] adds: Fresh recovery after the
//! last fault, failover/hedge/recovery counts, shedding, breaker
//! cycles, warm or cold restarts.
//!
//! Scenarios are pure functions of `(name, seed, requests)`: running
//! one twice must produce bit-identical rung, failover and event
//! sequences, which the chaos harness asserts and
//! `results/SCENARIO_digests.json` pins. Four entries are
//! deliberately broken and must fail (`expect_fail`): `budget_zero`,
//! `replicas_exhausted`, `broken_blackout` and `manifest_lies`.

use crate::controller::ControllerConfig;
use crate::engine::{Fault, FaultPlan};
use crate::fleet::FleetConfig;
use crate::replica::{FailoverConfig, HedgeConfig};
use crate::request::ServeError;
use crate::scenario::{
    CrashStep, Damage, DynamicsEvent, DynamicsPlan, Group, Load, Malformed, ScenarioOutcome,
    ScenarioSpec, Slo, Topology, Traffic,
};
use crate::worker::ExecMode;

/// The fewest requests any scenario runs with.
pub const MIN_REQUESTS: usize = 40;

/// Every named scenario, in harness order: faults, replication,
/// dynamics, recovery.
pub fn registry() -> Vec<ScenarioSpec> {
    use Group::{Dynamics, Faults, Recovery, Replication};
    let hang = Fault::Hang { sleep_ms: 400 };
    let flap = |count, repair_after| DynamicsEvent::LinkFlap {
        count,
        repair_after,
    };
    let drain = |factor, restore_after| DynamicsEvent::CapacityDrain {
        factor,
        restore_after,
    };
    let window = |first_replica, replicas, stride| DynamicsEvent::MaintenanceWindow {
        first_replica,
        replicas,
        stride,
    };
    let crash = |at, damage| Some(CrashStep { at, damage });
    vec![
        entry("healthy", Faults, |s| s.slo.max_p99_depth = 0),
        entry("worker_panic", Faults, |s| {
            s.faults[0] = [10, 12, 14, 16]
                .into_iter()
                .fold(FaultPlan::new(), |p, e| p.at(e, Fault::Panic));
            s.slo.fresh_within = Some((16, 10));
        }),
        entry("oracle_storm", Faults, |s| {
            // Scoring failures never degrade the rung, so the ladder
            // stays fresh throughout.
            s.pivot_faults = 5;
            s.slo.max_p99_depth = 0;
            s.slo.breaker_cycles = 3;
            s.slo.fresh_within = Some((2, 10));
        }),
        entry("slow_inference", Faults, |s| {
            s.faults[0] = FaultPlan::new().span(10..=20, Fault::Slow { cost_ms: 99 });
            s.slo.fresh_within = Some((20, 10));
        }),
        entry("malformed", Faults, |s| {
            s.load.malformed = vec![
                (10, Malformed::NonFinite),
                (13, Malformed::Empty),
                (16, Malformed::WrongSize),
                (18, Malformed::ZeroDeadline),
            ];
            s.slo.fresh_within = Some((18, 10));
        }),
        entry("overload_burst", Faults, |s| {
            s.controller.queue_capacity = 4;
            (s.load.bursts, s.load.burst) = (vec![15, 30], 10);
            s.slo.expect_shed = true;
            s.slo.fresh_within = Some((30, 10));
        }),
        entry("link_failure", Faults, |s| {
            s.link_failure_at = Some(15);
            s.slo.fresh_within = Some((15, 10));
        }),
        entry("hang", Faults, |s| {
            s.controller.pool.mode = ExecMode::Threaded;
            s.controller.pool.hang_timeout_ms = 60;
            s.faults[0] = FaultPlan::new().at(10, hang.clone()).at(20, hang.clone());
            s.slo.fresh_within = Some((20, 10));
        }),
        entry("budget_zero", Faults, |s| {
            // Deliberately broken: no restart budget under a panic
            // storm. The pool dies and no fresh response ever returns.
            s.expect_fail = true;
            s.controller.pool.workers = 1;
            s.controller.pool.restart_budget = 0;
            s.faults[0] = FaultPlan::new().span(10..=4096, Fault::Panic);
            s.slo.fresh_within = Some((12, 10));
            s.slo.slo_alert = true;
        }),
        entry("primary_kill_failover", Replication, |s| {
            // The primary's pool dies mid-run; the standby takes over
            // with the Fresh ratio back above 90% within 20 responses.
            s.controller.pool.workers = 1;
            s.controller.pool.restart_budget = 1;
            s.faults[0] = FaultPlan::new().span(10..=14, Fault::Panic);
            s.slo.failovers = Some(1..=u64::MAX);
            s.slo.min_recoveries = 1;
            s.slo.fresh_after_failover = Some((20, 0.9));
        }),
        entry("hedged_straggler", Replication, |s| {
            // A slow-but-correct primary is hedged to the standby,
            // never failed over.
            s.faults[0] = FaultPlan::new().span(10..=25, Fault::Slow { cost_ms: 30 });
            s.hedge = HedgeConfig {
                enabled: true,
                threshold_ms: 20,
            };
            s.slo.min_hedges = 10;
            s.slo.failovers = Some(0..=0);
            s.slo.max_p99_depth = 0;
        }),
        entry("rolling_retool", Replication, |s| {
            // A link flap, a rolling retool of all three replicas and a
            // capacity drain, plus an overload burst and a slow window,
            // with failover pinned off: the set absorbs it all in place.
            s.faults = vec![FaultPlan::new().span(14..=15, Fault::Slow { cost_ms: 99 }); 3];
            s.controller.queue_capacity = 4;
            (s.load.bursts, s.load.burst) = (vec![8], 10);
            s.load.bursts_in_budget = true;
            s.failover.failover_threshold = 1_000;
            s.dynamics = DynamicsPlan::new()
                .at(5, flap(2, 4))
                .at(10, window(0, 3, 1))
                .at(13, drain(0.5, 3));
            s.slo.failovers = Some(0..=0);
            s.slo.expect_shed = true;
        }),
        entry("flapping_replica", Replication, |s| {
            // Each replica fails in turn: the role ping-pongs 0 -> 1 ->
            // 0 with hysteresis, and demoted replicas re-earn
            // eligibility through their probe windows.
            s.controller.pool.workers = 1;
            s.controller.pool.restart_budget = 1;
            s.faults[0] = FaultPlan::new().span(8..=11, Fault::Panic);
            s.faults[1] = FaultPlan::new().span(18..=21, Fault::Panic);
            s.failover.failover_threshold = 2;
            s.failover.min_hold = 4;
            s.failover.hold_jitter = 2;
            s.failover.probe_window = 4;
            s.slo.failovers = Some(2..=u64::MAX);
            s.slo.min_recoveries = 1;
        }),
        entry("replicas_exhausted", Replication, |s| {
            // Deliberately broken: every replica dies with no restart
            // budget, so the fresh-recovery SLO cannot hold.
            s.controller.pool.workers = 1;
            s.controller.pool.restart_budget = 0;
            s.faults = vec![FaultPlan::new().span(10..=4096, Fault::Panic); 2];
            s.failover.failover_threshold = 2;
            s.expect_fail = true;
            s.slo.failovers = Some(1..=u64::MAX);
            s.slo.fresh_after_failover = Some((20, 0.9));
            s.slo.slo_alert = true;
        }),
        entry("diurnal_flash_crowd", Dynamics, |s| {
            // A link flap lands mid-spike of a day/night cycle.
            s.shards = 2;
            s.traffic = Traffic::DiurnalFlashCrowd;
            s.dynamics = DynamicsPlan::new().at(10, flap(1, 6));
        }),
        entry("rolling_maintenance", Dynamics, |s| {
            // A rolling retool window overlapping a capacity drain,
            // absorbed in place with failover pinned off.
            s.faults = vec![FaultPlan::new(); 3];
            s.traffic = Traffic::NoisyCyclical { cycle: 6 };
            s.dynamics = DynamicsPlan::new()
                .at(6, window(0, 3, 2))
                .at(8, drain(0.6, 4));
            s.failover.failover_threshold = 1_000;
            s.slo.failovers = Some(0..=0);
        }),
        entry("flap_storm", Dynamics, |s| {
            // Overlapping seeded flaps on a 100-node WAN: the active
            // topology changes nearly every other tick.
            s.topology = Topology::HierWan {
                nodes: 100,
                salt: 0x1a57,
            };
            s.controller.score_responses = false;
            s.memory = 2;
            s.traffic = Traffic::ElephantMice { elephants: 6 };
            s.dynamics = DynamicsPlan::new()
                .at(4, flap(2, 5))
                .at(7, flap(2, 5))
                .at(
                    10,
                    DynamicsEvent::FlapEdge {
                        edge: 0,
                        repair_after: 4,
                    },
                )
                .at(13, flap(1, 4));
        }),
        entry("big_wan_drain", Dynamics, |s| {
            // A 400-node WAN served end to end under stacked drains
            // and a flap; policy sizes shrink so an engine stays small.
            s.topology = Topology::HierWan {
                nodes: 400,
                salt: 0xb16,
            };
            s.controller.score_responses = false;
            (s.memory, s.hidden) = (1, vec![4]);
            s.load.clients = 1;
            s.traffic = Traffic::ElephantMice { elephants: 12 };
            s.dynamics = DynamicsPlan::new()
                .at(4, drain(0.5, 6))
                .at(6, drain(0.7, 6))
                .at(9, flap(2, 4));
        }),
        entry("broken_blackout", Dynamics, |s| {
            // Deliberately broken: both replicas die under a panic
            // storm with no restart budget while a flap is open, so no
            // Fresh response can follow the horizon.
            s.expect_fail = true;
            s.controller.pool.workers = 1;
            s.controller.pool.restart_budget = 0;
            s.faults = vec![FaultPlan::new().span(6..=4096, Fault::Panic); 2];
            s.failover.failover_threshold = 2;
            s.traffic = Traffic::NoisyCyclical { cycle: 4 };
            s.dynamics = DynamicsPlan::new().at(4, flap(1, 4));
            s.slo.fresh_within = Some((0, 10));
            s.slo.max_p99_depth = 3;
            s.slo.slo_alert = true;
        }),
        entry("process_crash_recovery", Recovery, |s| {
            s.crash = crash(12, Damage::None);
        }),
        entry("corrupt_snapshot", Recovery, |s| {
            s.crash = crash(4, Damage::Sweep);
        }),
        entry("manifest_lies", Recovery, |s| {
            // Deliberately broken: the store rightly refuses a stale
            // record under an intact manifest, but this scenario
            // demands a warm restore.
            s.expect_fail = true;
            s.crash = crash(4, Damage::StaleRecord);
        }),
    ]
}

/// A group's defaults, edited into one registry entry.
fn entry(name: &'static str, group: Group, edit: impl FnOnce(&mut ScenarioSpec)) -> ScenarioSpec {
    let mut controller = ControllerConfig::default();
    controller.pool.workers = 2;
    controller.pool.restart_budget = 4;
    controller.pool.backoff_base_epochs = 1;
    // Faults and replication admit a whole tick before serving any of
    // it (a burst must overflow the queue), on one thread; the fault
    // drills serve request by request.
    let one_chunk = |coalesce_window| FleetConfig {
        coalesce_window,
        threads: 1,
        admit_chunk: 64,
    };
    let (replicas, clients, fleet) = match group {
        Group::Faults => (1, 1, one_chunk(1)),
        Group::Replication => (2, 2, one_chunk(4)),
        Group::Dynamics => (2, 2, FleetConfig::default()),
        Group::Recovery => (1, 2, FleetConfig::default()),
    };
    let dynamics = group == Group::Dynamics;
    let mut spec = ScenarioSpec {
        name,
        group,
        expect_fail: false,
        topology: Topology::Cesnet,
        shards: 1,
        faults: vec![FaultPlan::new(); replicas],
        pivot_faults: 0,
        link_failure_at: None,
        controller,
        failover: FailoverConfig::default(),
        hedge: HedgeConfig::default(),
        fleet,
        memory: 3,
        hidden: vec![8],
        traffic: Traffic::Bimodal,
        load: Load {
            clients,
            ..Load::default()
        },
        dynamics: DynamicsPlan::new(),
        crash: None,
        slo: Slo {
            max_p99_depth: 2,
            fresh_within: dynamics.then_some((0, 12)),
            ..Slo::default()
        },
        request_floor: if dynamics { 88 } else { 0 },
    };
    edit(&mut spec);
    spec
}

/// The registry entry named `name`.
///
/// # Errors
///
/// Returns [`ServeError::Config`] for unknown names.
fn spec(name: &str) -> Result<ScenarioSpec, ServeError> {
    registry()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| ServeError::Config(format!("unknown scenario '{name}'")))
}

/// Runs the scenario `name` with `requests` requests (raised to its
/// `request_floor`) and evaluates its SLOs.
///
/// # Errors
///
/// Returns [`ServeError::Config`] for unknown names, fewer than
/// [`MIN_REQUESTS`] requests, or a spec the engine cannot run; SLO
/// failures are reported in [`ScenarioOutcome::violations`], not as
/// `Err`.
pub fn run(name: &str, seed: u64, requests: usize) -> Result<ScenarioOutcome, ServeError> {
    let spec = spec(name)?;
    if requests < MIN_REQUESTS {
        return Err(ServeError::Config(format!(
            "scenarios need at least {MIN_REQUESTS} requests"
        )));
    }
    spec.run(seed, requests.max(spec.request_floor))
}

/// Mixes a per-scenario offset into the base seed so scenarios don't
/// share traffic streams.
pub fn scenario_seed(base: u64, name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    base ^ h
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// An entry name and its entry-specific assertions.
    type Row = (&'static str, fn(&ScenarioOutcome));

    /// One row per registry entry with assertions of its own. Every
    /// entry also gets the common checks in [`replay`].
    const ROWS: &[Row] = &[
        ("healthy", |o| {
            assert!(o.rung_sequence.chars().all(|c| c == 'F'))
        }),
        ("budget_zero", |o| assert!(has(o, "no fresh response"))),
        ("replicas_exhausted", |o| {
            assert!(has(o, "fresh ratio") || has(o, "no failover"))
        }),
        ("rolling_retool", |o| {
            assert!(o.shed > 0, "burst must shed");
            assert!(o.breaker_transitions > 0, "slow window must trip breakers");
            assert_eq!(o.failovers, 0);
        }),
        ("process_crash_recovery", |o| {
            assert!(
                o.event_sequence.starts_with("warm(g"),
                "{}",
                o.event_sequence
            );
            assert!(
                o.rung_sequence.contains('L'),
                "warm window must serve LastGood"
            );
        }),
        ("corrupt_snapshot", |o| {
            for kind in [
                "cold:truncated",
                "cold:missing_manifest",
                "cold:manifest_mismatch",
            ] {
                assert!(
                    o.event_sequence.contains(kind),
                    "missing {kind}: {}",
                    o.event_sequence
                );
            }
            assert!(
                !o.rung_sequence.contains('L'),
                "cold starts never serve restored state"
            );
        }),
        ("manifest_lies", |o| {
            assert!(has(o, "demands a warm restore"));
            assert!(o.event_sequence.contains("cold:manifest_mismatch"));
        }),
        ("broken_blackout", |o| assert!(has(o, "no fresh response"))),
    ];

    /// Entries too slow for a debug-build unit test; the release
    /// `scenario` CI leg covers them.
    const RELEASE_ONLY: &[&str] = &["flap_storm", "big_wan_drain"];

    fn has(o: &ScenarioOutcome, text: &str) -> bool {
        o.violations.iter().any(|v| v.contains(text))
    }

    /// Runs each entry twice at the CI request count and checks: it
    /// passes exactly when it is not expected to fail, it answers
    /// everything, the second run reproduces the first exactly, and
    /// its row (if any) holds.
    pub(crate) fn replay(names: &[&str]) {
        for &name in names {
            let spec = spec(name).unwrap();
            let seed = scenario_seed(42, name);
            let a = run(name, seed, 48).unwrap();
            assert_eq!(a.passed(), !spec.expect_fail, "{name}: {:?}", a.violations);
            assert_eq!(a.answered, a.submitted, "{name}");
            let b = run(name, seed, 48).unwrap();
            assert_eq!(a, b, "{name}: same-seed replay diverged");
            if let Some((_, row)) = ROWS.iter().find(|(n, _)| *n == name) {
                row(&a);
            }
        }
    }

    /// One `#[test]` per list of entries, plus `REPLAYED`: every entry
    /// the module's tests replay.
    macro_rules! replay_tests {
        ($($test:ident => [$($name:literal),+ $(,)?];)+) => {
            $(
                #[test]
                fn $test() {
                    crate::chaos::tests::replay(&[$($name),+]);
                }
            )+
            pub(crate) const REPLAYED: &[&str] = &[$($($name),+),+];
        };
    }
    pub(crate) use replay_tests;

    replay_tests! {
        healthy_scenario_passes_and_is_deterministic => ["healthy"];
        fault_scenarios_pass_and_are_deterministic => [
            "worker_panic",
            "oracle_storm",
            "slow_inference",
            "malformed",
            "overload_burst",
            "link_failure",
            "hang",
        ];
        budget_zero_scenario_fails_loudly => ["budget_zero"];
        replication_scenarios_pass_and_are_deterministic => [
            "primary_kill_failover",
            "hedged_straggler",
            "flapping_replica",
        ];
        rolling_retool_absorbs_maintenance_without_failover => ["rolling_retool"];
        replicas_exhausted_fails_loudly => ["replicas_exhausted"];
        process_crash_recovery_restores_warm_and_is_deterministic => ["process_crash_recovery"];
        corrupt_snapshot_sweep_cold_starts_cleanly => ["corrupt_snapshot"];
        manifest_lies_fails_loudly => ["manifest_lies"];
    }

    #[test]
    fn every_entry_is_replayed_once_and_rows_name_entries() {
        let mut names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        names.sort_unstable();
        let mut covered: Vec<&str> =
            [REPLAYED, crate::scenario::tests::REPLAYED, RELEASE_ONLY].concat();
        covered.sort_unstable();
        assert_eq!(covered, names);
        for (row, _) in ROWS {
            assert!(names.contains(row), "row for unknown entry {row}");
        }
        for spec in registry() {
            assert!(
                spec.link_failure_at.is_none() || spec.dynamics.is_empty(),
                "{}: a link failure cannot be combined with a dynamics plan",
                spec.name
            );
        }
        let broken: Vec<&str> = registry()
            .into_iter()
            .filter(|s| s.expect_fail)
            .map(|s| s.name)
            .collect();
        assert_eq!(
            broken,
            [
                "budget_zero",
                "replicas_exhausted",
                "broken_blackout",
                "manifest_lies"
            ]
        );
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        let err = run("nope", 1, 40).unwrap_err();
        assert!(matches!(err, ServeError::Config(_)), "{err}");
        for name in [
            "healthy",
            "hedged_straggler",
            "flap_storm",
            "corrupt_snapshot",
        ] {
            assert!(
                matches!(run(name, 1, 39), Err(ServeError::Config(_))),
                "{name}"
            );
        }
    }

    #[test]
    fn scenario_seeds_differ_by_name() {
        assert_ne!(
            scenario_seed(7, "healthy"),
            scenario_seed(7, "worker_panic")
        );
    }
}
