//! The scenario engine: one spec type, one plan type for topology
//! changes, one runner.
//!
//! A [`ScenarioSpec`] describes a serving drill as data: the fleet
//! shape (shards × replicas, each replica with its own engine
//! [`FaultPlan`]), controller, failover, hedge and fleet config, the
//! policy shape, a traffic model and offered load, one
//! [`DynamicsPlan`] of live topology churn, an optional crash-then-
//! corrupt [`CrashStep`], and the [`Slo`] gates. The named scenarios
//! live in [`crate::chaos::registry`]; [`crate::chaos::run`] drives
//! any of them through [`ShardRouter::run`], one fleet tick per call.
//!
//! A [`DynamicsPlan`] schedules link flaps (with repair timers),
//! capacity drains (with restore timers) and rolling maintenance
//! windows on a **count-based tick clock**. The plan compiles to a
//! [`DynamicsTimeline`] — a pure, pre-simulated map from tick to the
//! exact topology and retool actions due — so applying it while the
//! fleet serves traffic is replayable: every event lands between
//! serving epochs and same-seed runs produce bit-identical event,
//! rung and failover sequences. Each open flap and drain carries its
//! own repair timer, so overlapping events compose and unwind
//! independently.
//!
//! Link flaps are drawn through the existing
//! [`gddr_core::FailureInjector`] (connectivity-preserving, seeded)
//! against the *currently degraded* topology, so overlapping flaps
//! compose without ever disconnecting the WAN. Retools reuse
//! [`crate::replica::ReplicaSet::retool_replica`], and topology
//! changes flow through [`crate::replica::ReplicaSet::apply_topology`].

use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gddr_core::{DdrEnvConfig, FailureInjector, MlpPolicy};
use gddr_net::algo::is_strongly_connected;
use gddr_net::graph::EdgeId;
use gddr_net::topology::hierarchical::hierarchical_wan_sized;
use gddr_net::topology::zoo;
use gddr_net::Graph;
use gddr_rng::rngs::StdRng;
use gddr_rng::{Rng, SeedableRng};
use gddr_store::Store;
use gddr_traffic::gen::{bimodal, BimodalParams};
use gddr_traffic::scenario::{
    diurnal_flash_crowd, elephant_mice, ElephantMiceParams, FlashCrowdParams,
};
use gddr_traffic::sequence::noisy_cyclical;
use gddr_traffic::DemandMatrix;

use crate::breaker::BreakerState;
use crate::controller::{Controller, ControllerConfig};
use crate::engine::{ChaosEngine, EngineFactory, FaultPlan, InferenceEngine, PolicyEngine};
use crate::fleet::{FleetConfig, FleetRequest, RecoveryReport, ShardRouter, SnapshotPolicy};
use crate::replica::{FailoverConfig, HedgeConfig, ReplicaTransition};
use crate::request::{EpochRequest, Rung, ServeError, DEFAULT_DEADLINE_MS};

/// Typed validation and compilation errors for dynamics plans.
///
/// Malformed plans are *data*, not bugs: every degenerate input maps
/// to a variant here and never to a panic (the `scenario_plan` fuzz
/// target enforces this).
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A repair/restore timer, window stride, flap count or window
    /// length of zero — the event would be a no-op or never end.
    ZeroDuration { tick: usize },
    /// A flap names an edge the base graph does not have.
    UnknownEdge { edge: usize, num_edges: usize },
    /// A maintenance window reaches a replica index out of range.
    UnknownReplica { replica: usize, replicas: usize },
    /// A drain factor outside `(0, 1]` (draining *below* zero capacity
    /// or inflating it) or non-finite.
    InvalidFactor { factor: f64 },
    /// Removing the named edge would disconnect the active topology.
    DisconnectingFlap { edge: usize, tick: usize },
    /// Stacked drains pushed some capacity to zero (underflow).
    DegenerateCapacity { tick: usize },
    /// An event window ends past [`MAX_HORIZON`] (or overflows),
    /// which would make the compiler's tick loop unbounded.
    HorizonOverflow { tick: usize },
}

/// Upper bound on any event window's closing tick. Far beyond any
/// real scenario; exists so a malformed plan (e.g. `tick =
/// usize::MAX`) is a typed error instead of an unbounded compile
/// loop.
pub const MAX_HORIZON: usize = 1 << 20;

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::ZeroDuration { tick } => {
                write!(f, "zero-duration event scheduled at tick {tick}")
            }
            ScenarioError::UnknownEdge { edge, num_edges } => {
                write!(f, "flap names edge {edge} but the graph has {num_edges}")
            }
            ScenarioError::UnknownReplica { replica, replicas } => {
                write!(
                    f,
                    "maintenance window reaches replica {replica} of {replicas}"
                )
            }
            ScenarioError::InvalidFactor { factor } => {
                write!(f, "drain factor {factor} outside (0, 1]")
            }
            ScenarioError::DisconnectingFlap { edge, tick } => {
                write!(f, "flapping edge {edge} at tick {tick} disconnects the WAN")
            }
            ScenarioError::DegenerateCapacity { tick } => {
                write!(
                    f,
                    "stacked drains underflow capacity to zero at tick {tick}"
                )
            }
            ScenarioError::HorizonOverflow { tick } => {
                write!(
                    f,
                    "event at tick {tick} ends past the supported horizon ({MAX_HORIZON})"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One scheduled dynamics event.
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicsEvent {
    /// Remove `count` seeded, connectivity-preserving undirected links
    /// (via [`FailureInjector`]) from the currently active topology,
    /// repairing them `repair_after` ticks later.
    LinkFlap { count: usize, repair_after: usize },
    /// Flap one specific undirected link (named by a base-graph edge
    /// id), repairing it `repair_after` ticks later. Compilation fails
    /// if removing it would disconnect the active topology.
    FlapEdge { edge: usize, repair_after: usize },
    /// Scale every active link capacity by `factor` (in `(0, 1]`),
    /// restoring `restore_after` ticks later. Overlapping drains
    /// compose multiplicatively.
    CapacityDrain { factor: f64, restore_after: usize },
    /// A rolling maintenance window: retool `replicas` replicas
    /// starting at `first_replica`, one every `stride` ticks.
    MaintenanceWindow {
        first_replica: usize,
        replicas: usize,
        stride: usize,
    },
}

/// A deterministic schedule of [`DynamicsEvent`]s keyed by tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynamicsPlan {
    events: Vec<(usize, DynamicsEvent)>,
}

impl DynamicsPlan {
    /// An empty plan.
    pub fn new() -> Self {
        DynamicsPlan::default()
    }

    /// Schedules `event` at `tick`. Events sharing a tick apply in
    /// insertion order.
    #[must_use]
    pub fn at(mut self, tick: usize, event: DynamicsEvent) -> Self {
        self.events.push((tick, event));
        self
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks every event against the base graph and replica count.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] found, in schedule order.
    pub fn validate(&self, graph: &Graph, replica_count: usize) -> Result<(), ScenarioError> {
        for &(tick, ref event) in &self.events {
            match *event {
                DynamicsEvent::LinkFlap {
                    count,
                    repair_after,
                } => {
                    if count == 0 || repair_after == 0 {
                        return Err(ScenarioError::ZeroDuration { tick });
                    }
                    check_horizon(tick, repair_after)?;
                }
                DynamicsEvent::FlapEdge { edge, repair_after } => {
                    if repair_after == 0 {
                        return Err(ScenarioError::ZeroDuration { tick });
                    }
                    if edge >= graph.num_edges() {
                        return Err(ScenarioError::UnknownEdge {
                            edge,
                            num_edges: graph.num_edges(),
                        });
                    }
                    check_horizon(tick, repair_after)?;
                }
                DynamicsEvent::CapacityDrain {
                    factor,
                    restore_after,
                } => {
                    if restore_after == 0 {
                        return Err(ScenarioError::ZeroDuration { tick });
                    }
                    if !factor.is_finite() || factor <= 0.0 || factor > 1.0 {
                        return Err(ScenarioError::InvalidFactor { factor });
                    }
                    check_horizon(tick, restore_after)?;
                }
                DynamicsEvent::MaintenanceWindow {
                    first_replica,
                    replicas,
                    stride,
                } => {
                    if replicas == 0 || stride == 0 {
                        return Err(ScenarioError::ZeroDuration { tick });
                    }
                    // Two-step check avoids `first + replicas - 1`
                    // overflowing on adversarial input.
                    if first_replica >= replica_count || replicas > replica_count - first_replica {
                        return Err(ScenarioError::UnknownReplica {
                            replica: first_replica.saturating_add(replicas).saturating_sub(1),
                            replicas: replica_count,
                        });
                    }
                    let span = (replicas - 1)
                        .checked_mul(stride)
                        .ok_or(ScenarioError::HorizonOverflow { tick })?;
                    check_horizon(tick, span)?;
                }
            }
        }
        Ok(())
    }
}

/// Rejects event windows that end past [`MAX_HORIZON`] (or whose end
/// overflows), keeping [`DynamicsTimeline::compile`]'s tick loop
/// bounded for arbitrary (fuzzed) plans.
fn check_horizon(tick: usize, span: usize) -> Result<(), ScenarioError> {
    match tick.checked_add(span) {
        Some(end) if end <= MAX_HORIZON => Ok(()),
        _ => Err(ScenarioError::HorizonOverflow { tick }),
    }
}

/// Everything due at one tick of a compiled timeline.
#[derive(Debug, Clone)]
pub struct TickActions {
    /// The topology to apply this tick (base minus open flaps, drains
    /// composed in), if anything topological changed.
    pub topology: Option<Graph>,
    /// Replica indices to retool this tick.
    pub retools: Vec<usize>,
    /// Digest labels for the events landing this tick.
    pub labels: Vec<String>,
}

impl TickActions {
    fn new() -> Self {
        TickActions {
            topology: None,
            retools: Vec::new(),
            labels: Vec::new(),
        }
    }
}

/// A [`DynamicsPlan`] pre-simulated against a base graph: a pure map
/// from tick to [`TickActions`]. Compilation resolves every seeded
/// draw up front, so the live run only applies snapshots — an event
/// can never observe serving state, which is what makes same-seed
/// replays bit-identical.
#[derive(Debug, Clone)]
pub struct DynamicsTimeline {
    ticks: BTreeMap<usize, TickActions>,
    horizon: usize,
    digest: String,
}

impl DynamicsTimeline {
    /// Compiles `plan` against `base`, drawing flaps from a
    /// [`FailureInjector`] derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] for invalid plans (see
    /// [`DynamicsPlan::validate`]) or for flaps/drains whose composed
    /// effect would disconnect the WAN or underflow a capacity.
    pub fn compile(
        plan: &DynamicsPlan,
        base: &Graph,
        replica_count: usize,
        seed: u64,
    ) -> Result<Self, ScenarioError> {
        plan.validate(base, replica_count)?;

        // End of the last event window.
        let end = plan
            .events
            .iter()
            .map(|&(tick, ref e)| {
                tick + match *e {
                    DynamicsEvent::LinkFlap { repair_after, .. }
                    | DynamicsEvent::FlapEdge { repair_after, .. } => repair_after,
                    DynamicsEvent::CapacityDrain { restore_after, .. } => restore_after,
                    DynamicsEvent::MaintenanceWindow {
                        replicas, stride, ..
                    } => (replicas - 1) * stride,
                }
            })
            .max()
            .unwrap_or(0);

        // Open mutations: (close tick, removed directed node pairs) for
        // flaps, (close tick, factor) for drains.
        let mut open_flaps: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
        let mut open_drains: Vec<(usize, f64)> = Vec::new();
        let mut retools_due: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut ticks: BTreeMap<usize, TickActions> = BTreeMap::new();
        let mut digest: Vec<String> = Vec::new();

        for tick in 0..=end {
            let mut actions = TickActions::new();
            let mut topo_changed = false;

            // Close expiring mutations first, so a repair and a fresh
            // flap at the same tick compose in a fixed order.
            let before = open_flaps.len();
            open_flaps.retain(|&(close, _)| close != tick);
            for _ in open_flaps.len()..before {
                actions.labels.push(format!("repair@{tick}"));
                topo_changed = true;
            }
            let before = open_drains.len();
            open_drains.retain(|&(close, _)| close != tick);
            for _ in open_drains.len()..before {
                actions.labels.push(format!("restore@{tick}"));
                topo_changed = true;
            }

            // Open events scheduled at this tick, in insertion order.
            for &(at, ref event) in plan.events.iter().filter(|&&(at, _)| at == tick) {
                match *event {
                    DynamicsEvent::LinkFlap {
                        count,
                        repair_after,
                    } => {
                        let active = compose_unscaled(base, &open_flaps);
                        let mut injector = FailureInjector::from_seed(
                            count,
                            seed ^ 0xf1a9 ^ (at as u64).wrapping_mul(0x9e3779b97f4a7c15),
                        );
                        let (degraded, removed) = injector.degrade(&active);
                        let gone = removed_pairs(&active, &degraded);
                        open_flaps.push((tick + repair_after, gone));
                        actions.labels.push(format!("flap{removed}@{tick}"));
                        topo_changed = true;
                    }
                    DynamicsEvent::FlapEdge { edge, repair_after } => {
                        let (a, b) = base.endpoints(EdgeId(edge));
                        let pairs = vec![(a.0, b.0), (b.0, a.0)];
                        open_flaps.push((tick + repair_after, pairs));
                        let candidate = compose_unscaled(base, &open_flaps);
                        if !is_strongly_connected(&candidate) {
                            return Err(ScenarioError::DisconnectingFlap { edge, tick });
                        }
                        actions.labels.push(format!("flapE{edge}@{tick}"));
                        topo_changed = true;
                    }
                    DynamicsEvent::CapacityDrain {
                        factor,
                        restore_after,
                    } => {
                        open_drains.push((tick + restore_after, factor));
                        actions.labels.push(format!("drain{factor:.2}@{tick}"));
                        topo_changed = true;
                    }
                    DynamicsEvent::MaintenanceWindow {
                        first_replica,
                        replicas,
                        stride,
                    } => {
                        for i in 0..replicas {
                            retools_due
                                .entry(tick + i * stride)
                                .or_default()
                                .push(first_replica + i);
                        }
                        actions
                            .labels
                            .push(format!("window{first_replica}+{replicas}@{tick}"));
                    }
                }
            }

            if topo_changed {
                let mut g = compose_unscaled(base, &open_flaps);
                let product: f64 = open_drains.iter().map(|&(_, f)| f).product();
                if product != 1.0 {
                    for e in 0..g.num_edges() {
                        let cap = g.capacity(EdgeId(e)) * product;
                        g.set_capacity(EdgeId(e), cap)
                            .map_err(|_| ScenarioError::DegenerateCapacity { tick })?;
                    }
                }
                actions.topology = Some(g);
            }
            if let Some(due) = retools_due.remove(&tick) {
                for r in due {
                    actions.labels.push(format!("retool{r}@{tick}"));
                    actions.retools.push(r);
                }
            }

            if actions.topology.is_some() || !actions.retools.is_empty() {
                digest.extend(actions.labels.iter().cloned());
                ticks.insert(tick, actions);
            } else if !actions.labels.is_empty() {
                // Window announcements with no same-tick retool.
                digest.extend(actions.labels.iter().cloned());
                ticks.insert(tick, actions);
            }
        }

        Ok(DynamicsTimeline {
            ticks,
            horizon: end,
            digest: digest.join(";"),
        })
    }

    /// Actions due at `tick`, if any.
    pub fn actions(&self, tick: usize) -> Option<&TickActions> {
        self.ticks.get(&tick)
    }

    /// The last tick at which any event window is still open.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// The full event digest (`flap2@5;repair@9;drain0.50@13`), the
    /// `event_sequence` half of the dynamic determinism check.
    pub fn event_sequence(&self) -> &str {
        &self.digest
    }
}

/// Base graph minus every currently-open flapped link; capacities from
/// the base (drains are layered on top by the caller).
fn compose_unscaled(base: &Graph, open_flaps: &[(usize, Vec<(usize, usize)>)]) -> Graph {
    let removed: BTreeSet<(usize, usize)> = open_flaps
        .iter()
        .flat_map(|(_, pairs)| pairs.iter().copied())
        .collect();
    if removed.is_empty() {
        return base.clone();
    }
    let (g, _) = base.filter_edges(|e| {
        let (a, b) = base.endpoints(e);
        !removed.contains(&(a.0, b.0))
    });
    g
}

/// Directed node pairs present in `before` but not in `after`.
fn removed_pairs(before: &Graph, after: &Graph) -> Vec<(usize, usize)> {
    let kept: BTreeSet<(usize, usize)> = after
        .edges()
        .map(|e| {
            let (a, b) = after.endpoints(e);
            (a.0, b.0)
        })
        .collect();
    before
        .edges()
        .map(|e| {
            let (a, b) = before.endpoints(e);
            (a.0, b.0)
        })
        .filter(|p| !kept.contains(p))
        .collect()
}

/// The CI smoke leg a scenario belongs to; `chaos_harness --scenario
/// <group>` runs one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// Single-controller faults: worker panics, oracle storms, slow
    /// and hung inference, malformed input, overload, link failure.
    Faults,
    /// Replica sets: failover, hedging, maintenance under traffic.
    Replication,
    /// Sharded fleets under live topology churn and scenario traffic.
    Dynamics,
    /// Crash, restart from the durable store, store corruption.
    Recovery,
}

impl Group {
    /// The group's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Group::Faults => "faults",
            Group::Replication => "replication",
            Group::Dynamics => "dynamics",
            Group::Recovery => "recovery",
        }
    }
}

/// The graph a scenario serves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Topology {
    /// The 6-node Cesnet zoo topology.
    Cesnet,
    /// A hierarchical WAN of about `nodes` nodes drawn from
    /// `seed ^ salt`.
    HierWan { nodes: usize, salt: u64 },
}

impl Topology {
    /// Builds the graph for `seed`.
    pub fn build(self, seed: u64) -> Graph {
        match self {
            Topology::Cesnet => zoo::cesnet(),
            Topology::HierWan { nodes, salt } => {
                hierarchical_wan_sized(nodes, &mut StdRng::seed_from_u64(seed ^ salt))
            }
        }
    }
}

/// The demand model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// A fresh bimodal matrix per request, drawn from the scenario
    /// seed.
    Bimodal,
    /// A day/night cycle (period 12, amplitude 0.3) with a flash crowd
    /// at its shoulder.
    DiurnalFlashCrowd,
    /// A bimodal cycle of `cycle` matrices with 10% jitter.
    NoisyCyclical { cycle: usize },
    /// `elephants` persistent heavy flows over churning mice.
    ElephantMice { elephants: usize },
}

impl Traffic {
    /// One matrix per tick for `ticks` ticks, or `None` for
    /// per-request [`Traffic::Bimodal`] traffic.
    pub fn sequence(self, n: usize, ticks: usize, rng: &mut StdRng) -> Option<Vec<DemandMatrix>> {
        Some(match self {
            Traffic::Bimodal => return None,
            Traffic::DiurnalFlashCrowd => diurnal_flash_crowd(
                n,
                ticks,
                12,
                0.3,
                600.0 * (n * (n - 1)) as f64,
                &FlashCrowdParams::default(),
                rng,
            ),
            Traffic::NoisyCyclical { cycle } => {
                noisy_cyclical(n, cycle, ticks, 0.1, &BimodalParams::default(), rng)
            }
            Traffic::ElephantMice { elephants } => elephant_mice(
                n,
                ticks,
                &ElephantMiceParams {
                    elephants,
                    ..ElephantMiceParams::default()
                },
                rng,
            ),
        })
    }
}

/// A malformed request substituted for a tick's first request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Malformed {
    /// An infinite demand entry (NaN is unconstructible in-tree:
    /// `DemandMatrix::from_fn` clamps it away).
    NonFinite,
    /// A zero-node matrix.
    Empty,
    /// Node count disagrees with the graph.
    WrongSize,
    /// No inference budget at all.
    ZeroDeadline,
}

/// The offered load: the requests each fleet tick carries.
#[derive(Debug, Clone, Default)]
pub struct Load {
    /// Requests per shard per tick.
    pub clients: usize,
    /// Ticks at which `burst` extra requests per shard arrive with the
    /// tick's own, enqueued together so a small queue overflows.
    pub bursts: Vec<usize>,
    /// See [`Load::bursts`].
    pub burst: usize,
    /// Whether burst requests count toward the run's request budget
    /// (serving stops once that many are submitted) or ride on top of
    /// it (the run lasts `requests / clients` ticks either way).
    pub bursts_in_budget: bool,
    /// Ticks whose first request is replaced by a malformed one.
    pub malformed: Vec<(usize, Malformed)>,
}

/// A simulated process crash: the fleet is dropped with no shutdown
/// hook before tick `at` is served, so only its committed snapshot
/// store (one generation per served tick) survives, and a new fleet
/// restarts from it.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashStep {
    /// Fleet tick at which the crash happens.
    pub at: usize,
    /// What happens to the store between crash and restart.
    pub damage: Damage,
}

/// Store damage between crash and restart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Damage {
    /// None: the restart must come back warm, answer first from the
    /// restored LastGood rung, then resume fresh inference.
    None,
    /// The newest record is overwritten with the previous
    /// generation's bytes under an intact manifest. The store detects
    /// the lie and cold-starts, yet the scenario still demands warm.
    StaleRecord,
    /// A sweep of torn writes, bit flips and missing files: one
    /// restart per case, one tick each, every one a typed cold start
    /// that never serves restored state; then a plain fleet serves
    /// the rest.
    Sweep,
}

/// SLO gates beyond the ones every scenario checks (zero unanswered,
/// every routing valid for the topology it was served on).
#[derive(Debug, Clone, Default)]
pub struct Slo {
    /// Maximum allowed p99 ladder depth.
    pub max_p99_depth: u8,
    /// `(after, within)`: among the first `within` answers to requests
    /// of ticks after `after` — or after the dynamics horizon, if
    /// later — at least one must be Fresh.
    pub fresh_within: Option<(usize, usize)>,
    /// Allowed failover count, summed over shards (None = unchecked).
    pub failovers: Option<RangeInclusive<u64>>,
    /// Minimum hedged dispatches.
    pub min_hedges: u64,
    /// Minimum replicas recovered through a probe window.
    pub min_recoveries: u64,
    /// The load must overflow an admission queue at least once.
    pub expect_shed: bool,
    /// The breaker must change state at least this often and end
    /// closed (0 = unchecked).
    pub breaker_cycles: u64,
    /// `(k, ratio)`: at least `ratio` of the `k` responses after a
    /// shard's first failover must be Fresh.
    pub fresh_after_failover: Option<(usize, f64)>,
    /// Running the scenario must trip an `slo_alert`, leaving a
    /// flight-recorder postmortem behind.
    pub slo_alert: bool,
}

/// One serving drill, as data.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Registry name.
    pub name: &'static str,
    /// CI smoke leg.
    pub group: Group,
    /// A deliberately broken scenario: its SLOs must fail, proving the
    /// gates detect violations.
    pub expect_fail: bool,
    /// The served graph.
    pub topology: Topology,
    /// Topology shards, each a replica set serving the same graph.
    pub shards: usize,
    /// One engine fault plan per replica; its length is the replica
    /// count. Faults are keyed by request epoch (the fleet tick).
    pub faults: Vec<FaultPlan>,
    /// Forced LP-oracle failures injected into every controller
    /// before serving.
    pub pivot_faults: u64,
    /// Tick at which two seeded links fail for good (the paper's
    /// link-failure model, Fig. 8). A fault rather than a plan event:
    /// it never repairs and stays out of the event digest. Never set
    /// together with `dynamics`, whose timeline is compiled against
    /// the intact graph.
    pub link_failure_at: Option<usize>,
    /// Per-controller config.
    pub controller: ControllerConfig,
    /// Failover policy; its seed is replaced by the scenario seed.
    pub failover: FailoverConfig,
    /// Hedged dispatch.
    pub hedge: HedgeConfig,
    /// Fleet scheduling.
    pub fleet: FleetConfig,
    /// Policy memory (demand-history length).
    pub memory: usize,
    /// Policy MLP hidden-layer sizes.
    pub hidden: Vec<usize>,
    /// Demand model.
    pub traffic: Traffic,
    /// Offered load.
    pub load: Load,
    /// Live topology churn and maintenance.
    pub dynamics: DynamicsPlan,
    /// Optional crash-then-corrupt step.
    pub crash: Option<CrashStep>,
    /// SLO gates.
    pub slo: Slo,
    /// Requests a run is raised to (enough ticks to cover the event
    /// horizon).
    pub request_floor: usize,
}

/// The outcome of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Seed the scenario ran with.
    pub seed: u64,
    /// Requests submitted.
    pub submitted: usize,
    /// Responses received.
    pub answered: usize,
    /// One letter per response, in order (`F`/`L`/`E`/`S`) — the
    /// determinism digest.
    pub rung_sequence: String,
    /// Requests shed (still answered).
    pub shed: u64,
    /// Worker restarts performed.
    pub worker_restarts: u64,
    /// Breaker state changes.
    pub breaker_transitions: u64,
    /// 99th-percentile ladder depth over all responses.
    pub p99_depth: u8,
    /// Primary failovers performed.
    pub failovers: u64,
    /// Hedged batch dispatches fired.
    pub hedges: u64,
    /// Replicas recovered through a shadow-probe window.
    pub recoveries: u64,
    /// Failover/recovery transition digest (`0>1@24;^0@56`), one per
    /// shard joined by `|`.
    pub failover_sequence: String,
    /// Applied dynamics events and restart outcomes
    /// (`flap2@5;repair@9;drain0.50@13`, `warm(g12)@t12`).
    pub event_sequence: String,
    /// SLO violations (empty = pass).
    pub violations: Vec<String>,
}

impl ScenarioOutcome {
    /// Whether every SLO held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Snapshot policy of the pre-crash fleet: commit after every tick,
/// open a two-epoch warm window on restore.
const SNAPSHOT_EVERY_TICK: SnapshotPolicy = SnapshotPolicy {
    every_runs: 1,
    warm_epochs: 2,
};

/// Post-crash fleets restore but never commit: a sweep case's own
/// serving would otherwise heal the store under later cases.
const RESTORE_ONLY: SnapshotPolicy = SnapshotPolicy {
    every_runs: 1_000_000,
    warm_epochs: 2,
};

/// What one served response contributes to the digests; routings are
/// dropped so a 400-node run stays bounded.
struct Served {
    shard: usize,
    epoch: u64,
    rung: Rung,
}

impl ScenarioSpec {
    /// Runs the scenario for `requests` requests and evaluates its
    /// SLOs. SLO failures land in [`ScenarioOutcome::violations`];
    /// `Err` means the spec or request count is unusable.
    pub(crate) fn run(&self, seed: u64, requests: usize) -> Result<ScenarioOutcome, ServeError> {
        let dir = std::env::temp_dir().join(format!(
            "gddr-scenario-{}-{seed}-{}",
            self.name,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let result = self.serve(seed, requests, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    fn serve(&self, seed: u64, requests: usize, dir: &Path) -> Result<ScenarioOutcome, ServeError> {
        let graph = self.topology.build(seed);
        let n = graph.num_nodes();
        let timeline = DynamicsTimeline::compile(&self.dynamics, &graph, self.faults.len(), seed)
            .map_err(|e| ServeError::Config(format!("dynamics plan: {e}")))?;
        let per_tick = self.load.clients * self.shards;
        let ticks = requests.div_ceil(per_tick);
        if !self.dynamics.is_empty() && ticks <= timeline.horizon() + 3 {
            return Err(ServeError::Config(format!(
                "scenario '{}' needs at least {} requests to cover its event horizon",
                self.name,
                (timeline.horizon() + 4) * per_tick
            )));
        }
        let sequence =
            self.traffic
                .sequence(n, ticks, &mut StdRng::seed_from_u64(seed ^ 0x00d1_57a2));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut injector = FailureInjector::from_seed(2, seed ^ 0xabcd);

        // Everything a (re)start needs, so a fleet rebuilt after a
        // crash gets the same shards, engines and faults.
        let factories: Vec<EngineFactory> = self
            .faults
            .iter()
            .enumerate()
            .map(|(i, plan)| engine_factory(seed ^ (i as u64 + 1), plan, self.memory, &self.hidden))
            .collect();
        let failover = FailoverConfig {
            seed,
            ..self.failover.clone()
        };
        let env_cfg = DdrEnvConfig {
            memory: self.memory,
            ..DdrEnvConfig::default()
        };
        let build = || -> Result<ShardRouter, ServeError> {
            let mut router = ShardRouter::new(self.fleet.clone())?;
            for s in 0..self.shards {
                router.add_replicated_shard(
                    &format!("{}-s{s}", graph.name()),
                    graph.clone(),
                    env_cfg,
                    self.controller.clone(),
                    factories.clone(),
                    failover.clone(),
                    self.hedge.clone(),
                )?;
            }
            if self.pivot_faults > 0 {
                controllers(&router, |c| {
                    c.oracle().inject_pivot_limit(self.pivot_faults)
                })?;
            }
            Ok(router)
        };
        let mut fleet = build()?;
        let mut drill = match &self.crash {
            Some(step) => {
                fleet.enable_snapshots(dir, SNAPSHOT_EVERY_TICK)?;
                Some(Drill::new(step, dir, seed))
            }
            None => None,
        };

        let mut active = graph.clone();
        let mut served: Vec<Served> = Vec::new();
        let mut submitted = 0usize;
        let mut invalid = 0usize;
        let mut events: Vec<String> = Vec::new();
        let mut violations: Vec<String> = Vec::new();
        for tick in 0..ticks {
            if self.load.bursts_in_budget && submitted >= requests {
                break;
            }
            if let Some(drill) = &mut drill {
                let restart =
                    drill.restart(tick, &build, served.len(), &mut events, &mut violations);
                if let Some(restarted) = restart? {
                    fleet = restarted;
                }
            }
            let actions = timeline.actions(tick);
            let mut topology = actions.and_then(|a| a.topology.clone());
            if self.link_failure_at == Some(tick) {
                topology = Some(injector.degrade(&graph).0);
            }
            for s in 0..self.shards {
                fleet.with_replica_set(s, |set| -> Result<(), ServeError> {
                    if let Some(g) = &topology {
                        set.apply_topology(g.clone())?;
                    }
                    actions
                        .map_or(&[][..], |a| &a.retools)
                        .iter()
                        .try_for_each(|&r| set.retool_replica(r))
                })??;
            }
            active = topology.unwrap_or(active);

            let extra = if self.load.bursts.contains(&tick) {
                self.load.burst
            } else {
                0
            };
            let malformed = self
                .load
                .malformed
                .iter()
                .find(|m| m.0 == tick)
                .map(|m| m.1);
            let mut batch = Vec::new();
            for s in 0..self.shards {
                for client in 0..self.load.clients + extra {
                    let demands = match &sequence {
                        Some(seq) => seq[tick % seq.len()].clone(),
                        None => bimodal(n, &BimodalParams::default(), &mut rng),
                    };
                    batch.push(FleetRequest {
                        topology: fleet.shard_name(s).to_string(),
                        request: request(tick as u64, demands, malformed.filter(|_| client == 0)),
                    });
                }
            }
            submitted += batch.len();
            let first = served.len();
            for (shard, outcome) in fleet.run(&batch)?.into_iter().enumerate() {
                for resp in outcome.responses {
                    invalid += usize::from(!resp.routing.validate(&active).is_empty());
                    let (epoch, rung) = (resp.epoch, resp.rung);
                    served.push(Served { shard, epoch, rung });
                }
            }
            if let Some(drill) = &drill {
                drill.check_tick(tick, &served[first..], &mut violations);
            }
        }

        let mut outcome = self.judge(
            seed,
            &fleet,
            timeline.horizon(),
            &served,
            submitted,
            invalid,
        )?;
        if let Some(drill) = &drill {
            drill.finish(&served, &mut violations);
        }
        outcome.violations.extend(violations);
        outcome.event_sequence = std::iter::once(timeline.event_sequence().to_string())
            .chain(events)
            .filter(|e| !e.is_empty())
            .collect::<Vec<_>>()
            .join(";");
        Ok(outcome)
    }

    /// Collects the fleet's counters and digests after a run and
    /// checks the SLO gates.
    fn judge(
        &self,
        seed: u64,
        fleet: &ShardRouter,
        horizon: usize,
        served: &[Served],
        submitted: usize,
        invalid: usize,
    ) -> Result<ScenarioOutcome, ServeError> {
        let (mut shed, mut worker_restarts, mut failovers, mut hedges, mut recoveries) =
            (0, 0, 0, 0, 0);
        let mut failover_sequences = Vec::new();
        let mut first_failovers = Vec::new();
        for s in 0..self.shards {
            let (stats, restarts) =
                fleet.with_replica_set(s, |set| (set.stats().clone(), set.worker_restarts()))?;
            shed += stats.shed;
            worker_restarts += restarts;
            failovers += stats.failovers;
            hedges += stats.hedges_fired;
            recoveries += stats.recoveries;
            failover_sequences.push(stats.failover_sequence());
            // The failover clock ticks once per answered request, so a
            // failover's clock value indexes the shard's responses.
            first_failovers.push(stats.log.iter().find_map(|t| match t {
                ReplicaTransition::Failover { clock, .. } => Some(*clock as usize),
                ReplicaTransition::Recovered { .. } => None,
            }));
        }
        let breakers = controllers(fleet, |c| {
            (c.stats().breaker_transitions, c.breaker_state())
        })?;
        let breaker_transitions: u64 = breakers.iter().map(|b| b.0).sum();
        let mut depths: Vec<u8> = served.iter().map(|r| r.rung.depth()).collect();
        let p99 = p99_depth(&mut depths);

        let slo = &self.slo;
        let no_fresh = slo.fresh_within.and_then(|(after, within)| {
            let after = after.max(horizon);
            let fresh = served
                .iter()
                .filter(|r| r.epoch > after as u64)
                .take(within)
                .any(|r| r.rung == Rung::Fresh);
            (!fresh)
                .then(|| format!("no fresh response within {within} requests after tick {after}"))
        });
        let gates = [
            (
                served.len() != submitted,
                format!(
                    "unanswered requests: submitted {submitted}, answered {}",
                    served.len()
                ),
            ),
            (
                invalid > 0,
                format!("{invalid} responses carried routings invalid for the active topology"),
            ),
            (
                p99 > slo.max_p99_depth,
                format!("p99 ladder depth {p99} exceeds bound {}", slo.max_p99_depth),
            ),
            (
                slo.failovers
                    .as_ref()
                    .is_some_and(|r| !r.contains(&failovers)),
                format!("{failovers} failovers, outside {:?}", slo.failovers),
            ),
            (
                hedges < slo.min_hedges,
                format!(
                    "only {hedges} hedged dispatches (expected at least {})",
                    slo.min_hedges
                ),
            ),
            (
                recoveries < slo.min_recoveries,
                format!(
                    "only {recoveries} replica recoveries (expected at least {})",
                    slo.min_recoveries
                ),
            ),
            (
                slo.expect_shed && shed == 0,
                "overload never shed (queue bound not exercised)".to_string(),
            ),
            (
                breaker_transitions < slo.breaker_cycles,
                format!(
                    "breaker saw only {breaker_transitions} transitions (expected at least {})",
                    slo.breaker_cycles
                ),
            ),
            (
                slo.breaker_cycles > 0 && breakers.iter().any(|b| b.1 != BreakerState::Closed),
                "breaker failed to close after the storm".to_string(),
            ),
            (
                slo.fresh_after_failover.is_some() && first_failovers.iter().all(Option::is_none),
                "fresh-recovery SLO set but no failover ever fired".to_string(),
            ),
        ];
        let mut violations: Vec<String> = gates
            .into_iter()
            .filter_map(|(violated, why)| violated.then_some(why))
            .chain(no_fresh)
            .collect();
        if let Some((k, ratio)) = slo.fresh_after_failover {
            for (shard, clock) in first_failovers.iter().enumerate() {
                let Some(clock) = *clock else { continue };
                let window: Vec<Rung> = served
                    .iter()
                    .filter(|r| r.shard == shard)
                    .skip(clock)
                    .take(k)
                    .map(|r| r.rung)
                    .collect();
                let fresh = window.iter().filter(|&&r| r == Rung::Fresh).count();
                if window.is_empty() || (fresh as f64) < ratio * window.len() as f64 {
                    violations.push(format!(
                        "fresh ratio {fresh}/{} within {k} responses of failover below {ratio}",
                        window.len()
                    ));
                }
            }
        }
        Ok(ScenarioOutcome {
            name: self.name.to_string(),
            seed,
            submitted,
            answered: served.len(),
            rung_sequence: served.iter().map(|r| r.rung.letter()).collect(),
            shed,
            worker_restarts,
            breaker_transitions,
            p99_depth: p99,
            failovers,
            hedges,
            recoveries,
            failover_sequence: failover_sequences.join("|"),
            event_sequence: String::new(),
            violations,
        })
    }
}

/// `f` applied to every controller of every shard, shard-major.
fn controllers<R>(
    router: &ShardRouter,
    mut f: impl FnMut(&mut Controller) -> R,
) -> Result<Vec<R>, ServeError> {
    let mut out = Vec::new();
    for s in 0..router.shard_count() {
        let shard = router.with_replica_set(s, |set| {
            (0..set.replica_count())
                .map(|i| set.with_replica(i, &mut f))
                .collect::<Result<Vec<R>, ServeError>>()
        })??;
        out.extend(shard);
    }
    Ok(out)
}

/// A seeded MLP policy engine behind a [`ChaosEngine`] running `plan`.
fn engine_factory(seed: u64, plan: &FaultPlan, memory: usize, hidden: &[usize]) -> EngineFactory {
    let (plan, hidden) = (Arc::new(plan.clone()), hidden.to_vec());
    Arc::new(move |graph: &Graph| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let policy = MlpPolicy::new(
            memory,
            graph.num_nodes(),
            graph.num_edges(),
            &hidden,
            -0.5,
            &mut rng,
        );
        let engine = PolicyEngine::new(policy, graph, memory);
        Box::new(ChaosEngine::new(engine, Arc::clone(&plan))) as Box<dyn InferenceEngine>
    })
}

/// An epoch request carrying `demands`, or a malformed stand-in.
fn request(epoch: u64, demands: DemandMatrix, malformed: Option<Malformed>) -> EpochRequest {
    let n = demands.num_nodes();
    let demands = match malformed {
        Some(Malformed::NonFinite) => DemandMatrix::from_fn(n, |s, d| {
            if (s, d) == (0, 1) {
                f64::INFINITY
            } else {
                demands.get(s, d)
            }
        }),
        Some(Malformed::Empty) => DemandMatrix::zeros(0),
        Some(Malformed::WrongSize) => DemandMatrix::zeros(n + 3),
        None | Some(Malformed::ZeroDeadline) => demands,
    };
    let deadline_ms = if malformed == Some(Malformed::ZeroDeadline) {
        0
    } else {
        DEFAULT_DEADLINE_MS
    };
    EpochRequest {
        epoch,
        demands,
        deadline_ms,
    }
}

/// 99th-percentile ladder depth (0 for no responses).
fn p99_depth(depths: &mut [u8]) -> u8 {
    if depths.is_empty() {
        return 0;
    }
    depths.sort_unstable();
    let idx = ((depths.len() as f64) * 0.99).ceil() as usize;
    depths[idx.saturating_sub(1).min(depths.len() - 1)]
}

/// One way the committed store gets damaged in a [`Damage::Sweep`].
enum Corruption {
    /// Torn write: only the first `len` bytes of the record survive.
    Truncate(usize),
    /// Radiation: one bit of the record flips.
    FlipBit { pos: usize, bit: u8 },
    /// The manifest itself is lost.
    DropManifest,
    /// The manifest survives but the record it points at is gone.
    DropRecord,
}

/// The restarts of a [`CrashStep`], applied tick by tick, and its
/// restart-specific SLO checks.
struct Drill<'a> {
    step: &'a CrashStep,
    dir: &'a Path,
    seed: u64,
    /// Sweep cases, built at the crash tick from the committed record.
    cases: Vec<(String, Corruption)>,
    /// Committed record and manifest (path, bytes) a sweep restores
    /// before each case.
    pristine: Vec<(PathBuf, Vec<u8>)>,
    /// Index of the first response after a warm-demanded restart.
    restarted_at: Option<usize>,
}

fn io_err(what: &'static str) -> impl Fn(std::io::Error) -> ServeError {
    move |e| ServeError::Config(format!("{what}: {e}"))
}

impl<'a> Drill<'a> {
    fn new(step: &'a CrashStep, dir: &'a Path, seed: u64) -> Self {
        Drill {
            step,
            dir,
            seed,
            cases: Vec::new(),
            pristine: Vec::new(),
            restarted_at: None,
        }
    }

    /// Crashes and restarts the fleet if `tick` calls for it, returning
    /// the restarted fleet. `served` counts the responses so far.
    fn restart(
        &mut self,
        tick: usize,
        build: &dyn Fn() -> Result<ShardRouter, ServeError>,
        served: usize,
        events: &mut Vec<String>,
        violations: &mut Vec<String>,
    ) -> Result<Option<ShardRouter>, ServeError> {
        let sweep = self.step.damage == Damage::Sweep;
        let Some(case) = tick.checked_sub(self.step.at) else {
            return Ok(None);
        };
        if case == 0 {
            self.damage_store()?;
        }
        if case > self.cases.len() || (!sweep && case > 0) {
            return Ok(None);
        }
        let mut label = String::new();
        if sweep {
            if case == self.cases.len() {
                // The sweep is over: a plain cold fleet serves the rest.
                return build().map(Some);
            }
            self.corrupt(case)?;
            label = format!("{}>", self.cases[case].0);
        } else {
            self.restarted_at = Some(served);
        }
        let mut fleet = build()?;
        fleet.enable_snapshots(self.dir, RESTORE_ONLY)?;
        let report = fleet.recover_from();
        match &report {
            RecoveryReport::Warm { generation, tick } => {
                events.push(format!("{label}warm(g{generation})@t{tick}"));
            }
            RecoveryReport::Cold { error } => {
                events.push(format!("{label}cold:{}", error.kind_name()));
            }
        }
        if report.is_warm() == sweep {
            violations.push(format!(
                "{label}restart came back {}, but this scenario demands a {}",
                report.outcome(),
                if sweep { "cold start" } else { "warm restore" }
            ));
        }
        Ok(Some(fleet))
    }

    /// At the crash tick: overwrite the newest record with the previous
    /// generation's bytes ([`Damage::StaleRecord`]), or keep the
    /// committed store and build the sweep's cases ([`Damage::Sweep`]).
    fn damage_store(&mut self) -> Result<(), ServeError> {
        let store =
            Store::open(self.dir).map_err(|e| ServeError::Config(format!("reopen store: {e}")))?;
        let at = self.step.at as u64;
        let record = store.record_path(at);
        match self.step.damage {
            Damage::None => {}
            Damage::StaleRecord => {
                let stale = std::fs::read(store.record_path(at.saturating_sub(1)))
                    .map_err(io_err("read stale record"))?;
                std::fs::write(&record, stale).map_err(io_err("overwrite record"))?;
            }
            Damage::Sweep => {
                let manifest = self.dir.join(gddr_store::MANIFEST_NAME);
                let bytes = std::fs::read(&record).map_err(io_err("read record"))?;
                self.cases = sweep_cases(bytes.len(), self.seed);
                let manifest_bytes = std::fs::read(&manifest).map_err(io_err("read manifest"))?;
                self.pristine = vec![(record, bytes), (manifest, manifest_bytes)];
            }
        }
        Ok(())
    }

    /// Restores the pristine store, then applies sweep case `case`.
    fn corrupt(&self, case: usize) -> Result<(), ServeError> {
        for (path, bytes) in &self.pristine {
            std::fs::write(path, bytes).map_err(io_err("restore store"))?;
        }
        let [(record, bytes), (manifest, _)] = &self.pristine[..] else {
            unreachable!("a sweep keeps its record and manifest")
        };
        match self.cases[case].1 {
            Corruption::Truncate(k) => std::fs::write(record, &bytes[..k]),
            Corruption::FlipBit { pos, bit } => {
                let mut bytes = bytes.clone();
                bytes[pos] ^= 1 << bit;
                std::fs::write(record, &bytes)
            }
            Corruption::DropManifest => std::fs::remove_file(manifest),
            Corruption::DropRecord => std::fs::remove_file(record),
        }
        .map_err(io_err("damage store"))
    }

    /// A sweep case's cold fleet must never serve restored state.
    fn check_tick(&self, tick: usize, responses: &[Served], violations: &mut Vec<String>) {
        let case = tick
            .checked_sub(self.step.at)
            .and_then(|c| self.cases.get(c));
        if let Some((label, _)) = case {
            if responses.iter().any(|r| r.rung == Rung::LastGood) {
                violations.push(format!("{label}: cold start served restored state"));
            }
        }
    }

    /// A warm restart must answer first from the restored LastGood
    /// rung, then resume fresh inference.
    fn finish(&self, served: &[Served], violations: &mut Vec<String>) {
        let Some(at) = self.restarted_at else {
            return;
        };
        match served.get(at) {
            Some(first) if first.rung == Rung::LastGood => {}
            Some(first) => violations.push(format!(
                "first post-restore rung {:?}, expected the restored LastGood",
                first.rung
            )),
            None => violations.push("no responses after restart".to_string()),
        }
        if !served[at..].iter().any(|r| r.rung == Rung::Fresh) {
            violations.push("inference never resumed after the warm window".to_string());
        }
    }
}

/// Torn-write prefixes (inside and past the header), seeded
/// payload-only bit flips (always a checksum mismatch), and missing
/// files. Labels carry no byte positions: the record length reflects
/// wall-clock latency histograms and is not replay-stable, only the
/// corruption *classes* are.
fn sweep_cases(len: usize, seed: u64) -> Vec<(String, Corruption)> {
    let torn = [
        ("torn_empty", 0),
        ("torn_hdr7", 7.min(len)),
        ("torn_hdr19", 19.min(len)),
        ("torn_third", len / 3),
        ("torn_half", len / 2),
        ("torn_tail", len - 1),
    ];
    let mut cases: Vec<(String, Corruption)> = torn
        .into_iter()
        .map(|(label, k)| (label.to_string(), Corruption::Truncate(k)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
    let header = gddr_store::RECORD_HEADER_LEN;
    for i in 0..4 {
        let pos = header + (rng.next_u64() as usize) % (len - header);
        let bit = (rng.next_u64() % 8) as u8;
        cases.push((format!("flip{i}"), Corruption::FlipBit { pos, bit }));
    }
    cases.push(("no_manifest".to_string(), Corruption::DropManifest));
    cases.push(("no_record".to_string(), Corruption::DropRecord));
    cases
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn diamondish() -> Graph {
        zoo::cesnet()
    }

    #[test]
    fn plan_validation_catches_degenerate_inputs() {
        let g = diamondish();
        let zero = DynamicsPlan::new().at(
            3,
            DynamicsEvent::LinkFlap {
                count: 1,
                repair_after: 0,
            },
        );
        assert_eq!(
            zero.validate(&g, 2),
            Err(ScenarioError::ZeroDuration { tick: 3 })
        );
        let bad_edge = DynamicsPlan::new().at(
            0,
            DynamicsEvent::FlapEdge {
                edge: 10_000,
                repair_after: 2,
            },
        );
        assert!(matches!(
            bad_edge.validate(&g, 2),
            Err(ScenarioError::UnknownEdge { .. })
        ));
        let bad_factor = DynamicsPlan::new().at(
            0,
            DynamicsEvent::CapacityDrain {
                factor: -0.5,
                restore_after: 2,
            },
        );
        assert!(matches!(
            bad_factor.validate(&g, 2),
            Err(ScenarioError::InvalidFactor { .. })
        ));
        let bad_replica = DynamicsPlan::new().at(
            0,
            DynamicsEvent::MaintenanceWindow {
                first_replica: 1,
                replicas: 4,
                stride: 1,
            },
        );
        assert!(matches!(
            bad_replica.validate(&g, 2),
            Err(ScenarioError::UnknownReplica { .. })
        ));
    }

    #[test]
    fn plan_validation_bounds_the_horizon() {
        let g = diamondish();
        // Overflowing end ticks and absurdly far windows are typed
        // errors, never a (near-)unbounded compile loop.
        for plan in [
            DynamicsPlan::new().at(
                usize::MAX,
                DynamicsEvent::LinkFlap {
                    count: 1,
                    repair_after: 2,
                },
            ),
            DynamicsPlan::new().at(
                0,
                DynamicsEvent::CapacityDrain {
                    factor: 0.5,
                    restore_after: MAX_HORIZON + 1,
                },
            ),
            DynamicsPlan::new().at(
                MAX_HORIZON,
                DynamicsEvent::MaintenanceWindow {
                    first_replica: 0,
                    replicas: 2,
                    stride: usize::MAX / 2,
                },
            ),
        ] {
            assert!(matches!(
                plan.validate(&g, 2),
                Err(ScenarioError::HorizonOverflow { .. })
            ));
            assert!(DynamicsTimeline::compile(&plan, &g, 2, 7).is_err());
        }
        // The bound itself is inclusive and huge windows under it pass.
        let ok = DynamicsPlan::new().at(
            0,
            DynamicsEvent::FlapEdge {
                edge: 0,
                repair_after: 64,
            },
        );
        assert!(ok.validate(&g, 2).is_ok());
    }

    #[test]
    fn timeline_opens_and_closes_windows() {
        let g = diamondish();
        let plan = DynamicsPlan::new()
            .at(
                2,
                DynamicsEvent::CapacityDrain {
                    factor: 0.5,
                    restore_after: 3,
                },
            )
            .at(
                3,
                DynamicsEvent::MaintenanceWindow {
                    first_replica: 0,
                    replicas: 2,
                    stride: 2,
                },
            );
        let tl = DynamicsTimeline::compile(&plan, &g, 2, 7).unwrap();
        // Drain opens at 2: all capacities halved.
        let drained = tl.actions(2).unwrap().topology.as_ref().unwrap();
        let e0 = EdgeId(0);
        assert!((drained.capacity(e0) - g.capacity(e0) * 0.5).abs() < 1e-12);
        // Restores at 5: back to base capacities.
        let restored = tl.actions(5).unwrap().topology.as_ref().unwrap();
        assert!((restored.capacity(e0) - g.capacity(e0)).abs() < 1e-12);
        // Window retools replica 0 at 3, replica 1 at 5.
        assert_eq!(tl.actions(3).unwrap().retools, vec![0]);
        assert_eq!(tl.actions(5).unwrap().retools, vec![1]);
        assert_eq!(tl.horizon(), 5);
        assert!(tl.event_sequence().contains("drain0.50@2"));
        assert!(tl.event_sequence().contains("restore@5"));
    }

    #[test]
    fn overlapping_flaps_stay_connected_and_repair_fully() {
        let g = hierarchical_wan_sized(100, &mut StdRng::seed_from_u64(5));
        let plan = DynamicsPlan::new()
            .at(
                1,
                DynamicsEvent::LinkFlap {
                    count: 2,
                    repair_after: 4,
                },
            )
            .at(
                3,
                DynamicsEvent::LinkFlap {
                    count: 2,
                    repair_after: 4,
                },
            );
        let tl = DynamicsTimeline::compile(&plan, &g, 2, 11).unwrap();
        for tick in [1usize, 3, 5] {
            if let Some(actions) = tl.actions(tick) {
                if let Some(topo) = &actions.topology {
                    assert!(is_strongly_connected(topo), "tick {tick}");
                    assert!(topo.num_edges() < g.num_edges(), "tick {tick}");
                }
            }
        }
        // After the last repair the base graph is back.
        let last = tl.actions(7).unwrap().topology.as_ref().unwrap();
        assert_eq!(last.num_edges(), g.num_edges());
    }

    #[test]
    fn timeline_is_deterministic_under_seed() {
        let g = diamondish();
        let plan = DynamicsPlan::new().at(
            1,
            DynamicsEvent::LinkFlap {
                count: 2,
                repair_after: 3,
            },
        );
        let a = DynamicsTimeline::compile(&plan, &g, 2, 9).unwrap();
        let b = DynamicsTimeline::compile(&plan, &g, 2, 9).unwrap();
        assert_eq!(a.event_sequence(), b.event_sequence());
        let ta = a.actions(1).unwrap().topology.as_ref().unwrap();
        let tb = b.actions(1).unwrap().topology.as_ref().unwrap();
        assert_eq!(ta, tb);
    }

    #[test]
    fn overlapping_flap_and_drain_repair_on_their_own_timers() {
        let g = diamondish();
        let plan = DynamicsPlan::new()
            .at(
                2,
                DynamicsEvent::LinkFlap {
                    count: 1,
                    repair_after: 6,
                },
            )
            .at(
                4,
                DynamicsEvent::CapacityDrain {
                    factor: 0.5,
                    restore_after: 2,
                },
            );
        let tl = DynamicsTimeline::compile(&plan, &g, 2, 3).unwrap();
        let at = |tick: usize| tl.actions(tick).unwrap().topology.clone().unwrap();
        let flapped = at(2);
        assert!(flapped.num_edges() < g.num_edges());
        // The drain opens inside the flap window: both apply.
        let both = at(4);
        assert_eq!(both.num_edges(), flapped.num_edges());
        for e in both.edges() {
            assert!((both.capacity(e) - flapped.capacity(e) * 0.5).abs() < 1e-12);
        }
        // The drain restores at 6 while the flap stays open...
        let restored = at(6);
        assert_eq!(restored, flapped);
        // ...and the flap repairs at 8, on its own timer.
        assert_eq!(at(8), g);
        assert_eq!(
            tl.event_sequence(),
            "flap1@2;drain0.50@4;restore@6;repair@8"
        );
    }

    crate::chaos::tests::replay_tests! {
        dynamic_scenarios_pass_and_replay_bit_identically => [
            "diurnal_flash_crowd",
            "rolling_maintenance",
        ];
        broken_blackout_fails_loudly_but_answers_everything => ["broken_blackout"];
    }
}
