//! Replica sets: N controllers behind one admission queue, with
//! deterministic primary selection, health-driven failover, hedged
//! dispatch, and shadow-probe recovery.
//!
//! The load-bearing invariant is **lockstep state**: every replica's
//! (serving epoch, demand history) advances identically for every
//! answered request. The primary serves for real; eligible standbys
//! fold each request in passively ([`Controller::observe_passive`]);
//! recovering replicas shadow-serve the same batches (responses
//! discarded) so their probe window measures real inference. Any
//! replica can therefore be promoted with a warm state and identical
//! staleness accounting.
//!
//! All failover decisions run on a **count-based clock** — one tick
//! per answered request — with hysteresis holds drawn from a seeded
//! RNG fork, so the failover epoch sequence is a bit-identical
//! function of the seed, exactly like the rung sequence it interleaves
//! with.

use gddr_core::DdrEnvConfig;
use gddr_net::Graph;
use gddr_rng::rngs::StdRng;
use gddr_rng::{Rng, SeedableRng};
use gddr_telemetry::{Event, TraceCtx};

use gddr_ser::Json;

use crate::controller::{Controller, ControllerConfig};
use crate::engine::EngineFactory;
use crate::health::HealthState;
use crate::queue::{AdmissionQueue, Admitted};
use crate::request::{EpochRequest, RouteResponse, Rung, ServeError};
use crate::snapshot::{count_from_json, index_from_json, u64_from_json, u64_to_json};

/// Failover policy knobs. All thresholds are measured on the
/// count-based failover clock (one tick per answered request), never
/// on wall time.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Consecutive non-fresh primary responses that trip a failover.
    pub failover_threshold: u64,
    /// Minimum clock ticks a freshly promoted primary holds the role
    /// before another failover may fire (hysteresis floor).
    pub min_hold: u64,
    /// Seeded jitter added to `min_hold` per failover, drawn from this
    /// set's RNG fork (0 disables jitter).
    pub hold_jitter: u64,
    /// Shadow-served responses a recovering replica must complete
    /// before its probe window is scored.
    pub probe_window: u64,
    /// Fresh fraction the probe window must reach for the replica to
    /// become eligible again.
    pub probe_fresh_min: f64,
    /// Seed of the failover clock's jitter stream.
    pub seed: u64,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            failover_threshold: 4,
            min_hold: 8,
            hold_jitter: 4,
            probe_window: 6,
            probe_fresh_min: 0.75,
            seed: 0,
        }
    }
}

/// Hedged-dispatch knobs.
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Re-issue straggling/failed batches to a standby replica.
    pub enabled: bool,
    /// A fresh primary reply with an engine-reported cost above this
    /// (milliseconds, logical) counts as a straggler and triggers the
    /// hedge. Worker-side failures (panic, hang, exhausted pool,
    /// deadline miss) always trigger it.
    pub threshold_ms: u64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            enabled: false,
            threshold_ms: 25,
        }
    }
}

/// Where a replica stands in the primary-eligibility lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// May serve as primary or hedge standby.
    Eligible,
    /// Demoted after failover; shadow-serving its probe window.
    Recovering {
        /// Shadow responses completed in the current window.
        probes: u64,
        /// How many of them were fresh.
        fresh: u64,
    },
}

struct Replica {
    controller: Controller,
    state: ReplicaState,
}

/// Replication counters and the deterministic failover log, kept
/// separately from telemetry so harnesses can assert on them without a
/// sink installed.
#[derive(Debug, Clone, Default)]
pub struct ReplicaStats {
    /// Primary demotions performed.
    pub failovers: u64,
    /// Hedged batch dispatches fired.
    pub hedges_fired: u64,
    /// Individual requests where the standby's hedged answer won.
    pub hedge_wins: u64,
    /// Replicas that cleared a probe window back to eligibility.
    pub recoveries: u64,
    /// Requests shed from the set's admission queue (still answered).
    pub shed: u64,
    /// Every failover (`from`, `to`, clock) and recovery (`replica`,
    /// clock) in decision order, digestible via
    /// [`ReplicaStats::failover_sequence`].
    pub log: Vec<ReplicaTransition>,
}

/// One entry of the replica-set transition log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaTransition {
    /// Primary `from` was demoted, `to` promoted, at `clock`.
    Failover {
        /// Demoted replica index.
        from: usize,
        /// Promoted replica index.
        to: usize,
        /// Failover-clock value at the decision.
        clock: u64,
    },
    /// `replica` cleared its probe window at `clock`.
    Recovered {
        /// The recovered replica index.
        replica: usize,
        /// Failover-clock value at recovery.
        clock: u64,
    },
}

impl ReplicaStats {
    /// Compact digest of the transition log (`0>1@24;^0@56`), the
    /// replication counterpart of the chaos harness's rung-sequence
    /// digest: two same-seed runs must produce identical strings.
    pub fn failover_sequence(&self) -> String {
        self.log
            .iter()
            .map(|t| match t {
                ReplicaTransition::Failover { from, to, clock } => format!("{from}>{to}@{clock}"),
                ReplicaTransition::Recovered { replica, clock } => format!("^{replica}@{clock}"),
            })
            .collect::<Vec<_>>()
            .join(";")
    }
}

/// N controllers serving one topology behind one bounded admission
/// queue. With a single replica the set is a transparent wrapper:
/// responses are bit-identical to driving the controller directly.
pub struct ReplicaSet {
    shard: u64,
    queue: AdmissionQueue,
    replicas: Vec<Replica>,
    primary: usize,
    failover: FailoverConfig,
    hedge: HedgeConfig,
    /// Count-based failover clock: ticks once per answered request.
    clock: u64,
    /// Consecutive non-fresh primary responses (shed excluded — a
    /// queue overflow is not the primary's fault).
    consecutive_bad: u64,
    /// Clock value before which failover is suppressed (hysteresis).
    hold_until: u64,
    /// Seeded jitter stream for hysteresis holds.
    rng: StdRng,
    /// Generation tag for hedged duplicates: bumped per hedge so a
    /// losing reply is identifiable (and discardable) by generation,
    /// mirroring the worker pool's straggler discard.
    hedge_generation: u64,
    stats: ReplicaStats,
}

impl ReplicaSet {
    /// Builds one controller per factory for `graph`, all tagged with
    /// `shard`. Replica 0 starts as primary; every replica gets its
    /// own worker pool and engines (callers fork RNG streams per
    /// factory for decorrelated replicas).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] when `factories` is empty.
    pub fn new(
        shard: u64,
        graph: Graph,
        env_cfg: DdrEnvConfig,
        config: ControllerConfig,
        factories: Vec<EngineFactory>,
        failover: FailoverConfig,
        hedge: HedgeConfig,
    ) -> Result<Self, ServeError> {
        if factories.is_empty() {
            return Err(ServeError::Config(
                "replica set needs at least one engine factory".to_string(),
            ));
        }
        let queue = AdmissionQueue::new(config.queue_capacity);
        let replicas = factories
            .into_iter()
            .map(|factory| Replica {
                controller: Controller::with_shard(
                    graph.clone(),
                    env_cfg,
                    config.clone(),
                    factory,
                    shard,
                ),
                state: ReplicaState::Eligible,
            })
            .collect();
        // Decorrelate jitter streams across shards deterministically.
        let rng = StdRng::seed_from_u64(failover.seed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Ok(ReplicaSet {
            shard,
            queue,
            replicas,
            primary: 0,
            failover,
            hedge,
            clock: 0,
            consecutive_bad: 0,
            hold_until: 0,
            rng,
            hedge_generation: 0,
            stats: ReplicaStats::default(),
        })
    }

    /// The shard tag shared by every replica.
    pub fn shard(&self) -> u64 {
        self.shard
    }

    /// Replicas in the set.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Index of the current primary.
    pub fn primary(&self) -> usize {
        self.primary
    }

    /// Lifecycle state of replica `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownReplica`] when `idx` is out of
    /// range.
    pub fn replica_state(&self, idx: usize) -> Result<ReplicaState, ServeError> {
        self.replicas
            .get(idx)
            .map(|r| r.state)
            .ok_or(ServeError::UnknownReplica {
                shard: self.shard,
                replica: idx,
                replicas: self.replicas.len(),
            })
    }

    /// Replication counters and the transition log.
    pub fn stats(&self) -> &ReplicaStats {
        &self.stats
    }

    /// Pending requests in the set's admission queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Health of the current primary.
    pub fn health(&self) -> HealthState {
        self.replicas[self.primary].controller.health()
    }

    /// Worker restarts summed over every replica's pool.
    pub fn worker_restarts(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.controller.worker_restarts())
            .sum()
    }

    /// Serialises the set's crash-restorable state: failover clock and
    /// hysteresis, primary index, per-replica lifecycle states and
    /// controller snapshots, the jitter RNG state (so post-restore
    /// failover holds replay bit-identically), and the transition log.
    pub fn export_state(&self) -> Json {
        Json::obj([
            ("primary", Json::Num(self.primary as f64)),
            ("clock", Json::Num(self.clock as f64)),
            ("consecutive_bad", Json::Num(self.consecutive_bad as f64)),
            ("hold_until", Json::Num(self.hold_until as f64)),
            ("hedge_generation", Json::Num(self.hedge_generation as f64)),
            (
                "rng",
                Json::Arr(self.rng.state().iter().map(|&w| u64_to_json(w)).collect()),
            ),
            ("stats", replica_stats_to_json(&self.stats)),
            (
                "replicas",
                Json::Arr(
                    self.replicas
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("state", replica_state_to_json(r.state)),
                                ("controller", r.controller.export_state()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Restores state exported by [`ReplicaSet::export_state`] into
    /// this (freshly built, identically configured) set; every replica
    /// controller opens a warm window of `warm_epochs` (see
    /// [`Controller::restore_state`]).
    ///
    /// On error the set is rolled back to the state it had on entry,
    /// so a corrupt-but-CRC-valid snapshot can never leave it half
    /// restored.
    ///
    /// # Errors
    ///
    /// Returns a description of the first offence when the snapshot
    /// does not decode, its replica count does not match this set, or
    /// any embedded controller state is invalid.
    pub fn restore_state(&mut self, json: &Json, warm_epochs: u64) -> Result<(), String> {
        let before = self.export_state();
        match self.try_restore(json, warm_epochs) {
            Ok(()) => Ok(()),
            Err(e) => {
                if let Err(rollback) = self.try_restore(&before, 0) {
                    return Err(format!("{e} (rollback also failed: {rollback})"));
                }
                Err(e)
            }
        }
    }

    fn try_restore(&mut self, json: &Json, warm_epochs: u64) -> Result<(), String> {
        let err = |e: gddr_ser::JsonError| format!("replica set: {}", e.0);
        let primary = index_from_json(json.field("primary").map_err(err)?, "set.primary")?;
        let replicas = json
            .field("replicas")
            .map_err(err)?
            .elements()
            .map_err(err)?;
        if replicas.len() != self.replicas.len() {
            return Err(format!(
                "replica set: snapshot has {} replicas, this set has {}",
                replicas.len(),
                self.replicas.len()
            ));
        }
        if primary >= self.replicas.len() {
            return Err(format!(
                "replica set: primary {primary} out of range ({} replicas)",
                self.replicas.len()
            ));
        }
        let clock = count_from_json(json.field("clock").map_err(err)?, "set.clock")?;
        let consecutive_bad = count_from_json(
            json.field("consecutive_bad").map_err(err)?,
            "set.consecutive_bad",
        )?;
        let hold_until = count_from_json(json.field("hold_until").map_err(err)?, "set.hold_until")?;
        let hedge_generation = count_from_json(
            json.field("hedge_generation").map_err(err)?,
            "set.hedge_generation",
        )?;
        let words = json.field("rng").map_err(err)?.elements().map_err(err)?;
        if words.len() != 4 {
            return Err(format!("replica set: rng state has {} words", words.len()));
        }
        let mut state = [0u64; 4];
        for (slot, word) in state.iter_mut().zip(words) {
            *slot = u64_from_json(word, "set.rng")?;
        }
        if state.iter().all(|&w| w == 0) {
            return Err("replica set: rng state is all zero".to_string());
        }
        let stats = replica_stats_from_json(json.field("stats").map_err(err)?)?;

        for (i, replica) in replicas.iter().enumerate() {
            let lifecycle = replica_state_from_json(replica.field("state").map_err(err)?)?;
            self.replicas[i]
                .controller
                .restore_state(replica.field("controller").map_err(err)?, warm_epochs)?;
            self.replicas[i].state = lifecycle;
        }
        self.primary = primary;
        self.clock = clock;
        self.consecutive_bad = consecutive_bad;
        self.hold_until = hold_until;
        self.hedge_generation = hedge_generation;
        self.rng = StdRng::from_state(state);
        self.stats = stats;
        Ok(())
    }

    /// Runs `f` against the current primary's controller (stats,
    /// health, oracle fault injection, ...).
    pub fn with_primary<R>(&mut self, f: impl FnOnce(&mut Controller) -> R) -> R {
        f(&mut self.replicas[self.primary].controller)
    }

    /// Runs `f` against replica `idx`'s controller.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownReplica`] when `idx` is out of
    /// range.
    pub fn with_replica<R>(
        &mut self,
        idx: usize,
        f: impl FnOnce(&mut Controller) -> R,
    ) -> Result<R, ServeError> {
        let replicas = self.replicas.len();
        match self.replicas.get_mut(idx) {
            Some(r) => Ok(f(&mut r.controller)),
            None => Err(ServeError::UnknownReplica {
                shard: self.shard,
                replica: idx,
                replicas,
            }),
        }
    }

    /// Swaps every replica onto a new topology (see
    /// [`Controller::apply_topology`]); the set stays in lockstep
    /// because all replicas retool together.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::TopologyMismatch`] when the node count
    /// changes. The check runs against the primary first, so on error
    /// no replica has been touched.
    pub fn apply_topology(&mut self, graph: Graph) -> Result<(), ServeError> {
        let expected = self.replicas[self.primary].controller.graph().num_nodes();
        if graph.num_nodes() != expected {
            return Err(ServeError::TopologyMismatch {
                expected,
                got: graph.num_nodes(),
            });
        }
        for r in &mut self.replicas {
            r.controller.apply_topology(graph.clone())?;
        }
        Ok(())
    }

    /// Rolling-maintenance retool of a single replica: rebuilds its
    /// engines, oracle and baselines on the graph it already serves
    /// (a re-warm in place). The rest of the set keeps serving.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownReplica`] when `idx` is out of
    /// range.
    pub fn retool_replica(&mut self, idx: usize) -> Result<(), ServeError> {
        self.with_replica(idx, |c| {
            let graph = c.graph().clone();
            c.apply_topology(graph)
        })?
    }

    /// Admits a request with no trace context.
    pub fn enqueue(&mut self, req: EpochRequest) -> Vec<RouteResponse> {
        self.enqueue_traced(req, TraceCtx::default())
    }

    /// Admits a request under a trace context minted at fleet
    /// admission; shed victims are answered immediately by the primary
    /// (ladder only) and returned.
    pub fn enqueue_traced(&mut self, req: EpochRequest, ctx: TraceCtx) -> Vec<RouteResponse> {
        gddr_telemetry::trace_annotation_event(
            ctx,
            "fleet.admitted",
            gddr_telemetry::now_us(),
            &[
                ("epoch", req.epoch.to_string()),
                ("queue_len", self.queue.len().to_string()),
            ],
        );
        let shed = self.queue.admit(req, ctx);
        shed.into_iter()
            .map(|victim| self.answer_shed(victim))
            .collect()
    }

    /// Serves the oldest pending request, if any.
    pub fn process_next(&mut self) -> Option<RouteResponse> {
        let mut served = self.process_coalesced(1);
        debug_assert!(served.len() <= 1);
        served.pop()
    }

    /// Serves the oldest coalescable run (same client epoch, up to
    /// `window` requests) with one batched primary dispatch, hedging
    /// to a standby when the primary straggles or fails.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn process_coalesced(&mut self, window: usize) -> Vec<RouteResponse> {
        assert!(window > 0, "coalescing window must be positive");
        let run = self.queue.pop_run(window);
        if run.is_empty() {
            return Vec::new();
        }
        self.serve_run(run)
    }

    /// Convenience: enqueue then drain, coalescing with `window`.
    pub fn handle(&mut self, req: EpochRequest, window: usize) -> Vec<RouteResponse> {
        let mut out = self.enqueue(req);
        loop {
            let served = self.process_coalesced(window);
            if served.is_empty() {
                break;
            }
            out.extend(served);
        }
        out
    }

    /// Answers a shed victim from the primary's ladder while keeping
    /// every other replica in lockstep. Shed responses do not feed the
    /// failover policy: queue overflow indicts the offered load, not
    /// the primary.
    fn answer_shed(&mut self, victim: Admitted) -> RouteResponse {
        self.stats.shed += 1;
        gddr_telemetry::emit(|| Event::RequestShed {
            shard: self.shard,
            epoch: victim.req.epoch,
            queue_len: self.queue.len() as u64,
        });
        let req = victim.req.clone();
        let primary = self.primary;
        for (i, replica) in self.replicas.iter_mut().enumerate() {
            if i != primary {
                replica.controller.observe_passive(&req);
            }
        }
        let resp = self.replicas[primary].controller.serve(victim, true);
        self.clock += 1;
        resp
    }

    /// Whether a primary response calls for hedging: a worker-side
    /// failure, or a fresh answer whose engine-reported (logical) cost
    /// crossed the straggler threshold.
    fn hedge_worthy(&self, resp: &RouteResponse) -> bool {
        if matches!(
            resp.degraded_reason,
            Some(ServeError::WorkerPanicked(_))
                | Some(ServeError::WorkerHung)
                | Some(ServeError::PoolExhausted)
                | Some(ServeError::DeadlineMiss { .. })
        ) {
            return true;
        }
        resp.rung == Rung::Fresh
            && resp
                .infer_cost_ms
                .is_some_and(|cost| cost > self.hedge.threshold_ms)
    }

    /// Per-request winner of a hedged pair: the standby's reply wins
    /// only when it is fresh and strictly faster on the logical clock
    /// (or the primary's is not fresh at all). Ties keep the primary.
    fn standby_wins(&self, primary: &RouteResponse, standby: &RouteResponse) -> bool {
        if standby.rung != Rung::Fresh {
            return false;
        }
        if primary.rung != Rung::Fresh {
            return true;
        }
        match (primary.infer_cost_ms, standby.infer_cost_ms) {
            (Some(p), Some(s)) => s < p,
            _ => false,
        }
    }

    /// First eligible standby scanning circularly from primary+1
    /// (deterministic next-primary order).
    fn pick_standby(&self) -> Option<usize> {
        let n = self.replicas.len();
        (1..n)
            .map(|k| (self.primary + k) % n)
            .find(|&i| self.replicas[i].state == ReplicaState::Eligible)
    }

    fn serve_run(&mut self, run: Vec<Admitted>) -> Vec<RouteResponse> {
        let primary = self.primary;
        // Single-replica fast path: no standby to hedge to or keep in
        // lockstep, so skip the batch clone entirely — this is the
        // zero-overhead legacy fleet configuration.
        if self.replicas.len() == 1 && !self.hedge.enabled {
            let responses = self.replicas[primary].controller.serve_batch(run);
            for resp in &responses {
                self.clock += 1;
                if resp.rung == Rung::Fresh {
                    self.consecutive_bad = 0;
                } else {
                    self.consecutive_bad += 1;
                }
            }
            return responses;
        }
        let tick = run[0].req.epoch;
        let reqs: Vec<EpochRequest> = run.iter().map(|a| a.req.clone()).collect();
        let mut responses = self.replicas[primary].controller.serve_batch(run.clone());

        // The primary's own rungs drive health/failover accounting —
        // captured before hedged answers can overwrite them.
        let primary_rungs: Vec<Rung> = responses.iter().map(|r| r.rung).collect();

        // Hedged dispatch: one straggling or failed response re-issues
        // the whole coalesced batch to the first eligible standby.
        let mut hedged_standby = None;
        if self.hedge.enabled && responses.iter().any(|r| self.hedge_worthy(r)) {
            if let Some(standby) = self.pick_standby() {
                hedged_standby = Some(standby);
                self.hedge_generation += 1;
                self.stats.hedges_fired += 1;
                // Traces stay with the primary attempt: the duplicate
                // serve is untraced so per-trace completeness checks
                // (exactly one admission, one response) still hold.
                let stripped: Vec<Admitted> = run
                    .iter()
                    .cloned()
                    .map(|mut a| {
                        a.ctx = TraceCtx::default();
                        a
                    })
                    .collect();
                let standby_responses = self.replicas[standby].controller.serve_batch(stripped);
                let mut wins = 0u64;
                for ((p, s), admitted) in
                    responses.iter_mut().zip(standby_responses).zip(run.iter())
                {
                    let standby_won = self.standby_wins(p, &s);
                    gddr_telemetry::trace_annotation_event(
                        admitted.ctx,
                        "fleet.hedge",
                        gddr_telemetry::now_us(),
                        &[
                            ("generation", self.hedge_generation.to_string()),
                            ("standby", standby.to_string()),
                            (
                                "winner",
                                if standby_won { "standby" } else { "primary" }.to_string(),
                            ),
                        ],
                    );
                    if standby_won {
                        // The winner adopts the request's identity: the
                        // trace id and latency anchor stay with the
                        // admitted request; the loser's reply is
                        // discarded by generation.
                        let trace_id = p.trace_id;
                        let latency_ns = p.latency_ns;
                        *p = s;
                        p.trace_id = trace_id;
                        p.latency_ns = latency_ns;
                        wins += 1;
                    }
                }
                self.stats.hedge_wins += wins;
                gddr_telemetry::emit(|| Event::HedgeFired {
                    shard: self.shard,
                    epoch: tick,
                    primary: primary as u64,
                    standby: standby as u64,
                    wins,
                    batch: responses.len() as u64,
                });
            }
        }

        // Keep every non-serving replica in lockstep: recovering ones
        // shadow-serve (their probe window measures real inference),
        // eligible standbys fold the requests in passively.
        for i in 0..self.replicas.len() {
            if i == primary || Some(i) == hedged_standby {
                continue;
            }
            match self.replicas[i].state {
                ReplicaState::Recovering { .. } => self.shadow_probe(i, &run),
                ReplicaState::Eligible => {
                    for req in &reqs {
                        self.replicas[i].controller.observe_passive(req);
                    }
                }
            }
        }

        // Failover accounting on the count-based clock.
        for rung in &primary_rungs {
            self.clock += 1;
            if *rung == Rung::Fresh {
                self.consecutive_bad = 0;
            } else {
                self.consecutive_bad += 1;
            }
        }
        self.maybe_failover();

        responses
    }

    /// Shadow-serves `run` on a recovering replica (responses
    /// discarded) and scores its probe window.
    fn shadow_probe(&mut self, idx: usize, run: &[Admitted]) {
        let stripped: Vec<Admitted> = run
            .iter()
            .cloned()
            .map(|mut a| {
                a.ctx = TraceCtx::default();
                a
            })
            .collect();
        let shadow = self.replicas[idx].controller.serve_batch(stripped);
        let ReplicaState::Recovering { probes, fresh } = &mut self.replicas[idx].state else {
            unreachable!("shadow_probe called on a non-recovering replica");
        };
        *probes += shadow.len() as u64;
        *fresh += shadow.iter().filter(|r| r.rung == Rung::Fresh).count() as u64;
        let (probes, fresh) = (*probes, *fresh);
        if probes < self.failover.probe_window {
            return;
        }
        if fresh as f64 >= self.failover.probe_fresh_min * probes as f64 {
            self.replicas[idx].state = ReplicaState::Eligible;
            self.stats.recoveries += 1;
            self.stats.log.push(ReplicaTransition::Recovered {
                replica: idx,
                clock: self.clock,
            });
            gddr_telemetry::emit(|| Event::ReplicaRecovered {
                shard: self.shard,
                replica: idx as u64,
                probes,
                clock: self.clock,
            });
        } else {
            // Failed window: retool again (the pool may have died
            // mid-probe) and keep probing from scratch.
            self.replicas[idx].controller.revive();
            self.replicas[idx].state = ReplicaState::Recovering {
                probes: 0,
                fresh: 0,
            };
        }
    }

    /// Demotes the primary when the failover policy trips: consecutive
    /// degraded responses past the threshold, or a dead worker pool.
    /// Hysteresis (min hold + seeded jitter) and the eligible-standby
    /// requirement keep a flapping replica from ping-ponging the role.
    fn maybe_failover(&mut self) {
        if self.replicas.len() < 2 || self.clock < self.hold_until {
            return;
        }
        let pool_dead = self.replicas[self.primary].controller.alive_workers() == 0;
        let degraded = self.consecutive_bad >= self.failover.failover_threshold;
        if !pool_dead && !degraded {
            return;
        }
        let Some(next) = self.pick_standby() else {
            // Nowhere to go: the ladder keeps answering from here.
            return;
        };
        let from = self.primary;
        let reason = if pool_dead {
            "pool_dead"
        } else {
            "consecutive_degraded"
        };
        // Demote: drain is implicit (dispatch is synchronous, nothing
        // is in flight), then retool and re-warm via shadow probes.
        self.replicas[from].controller.revive();
        self.replicas[from].state = ReplicaState::Recovering {
            probes: 0,
            fresh: 0,
        };
        self.primary = next;
        self.consecutive_bad = 0;
        let jitter = if self.failover.hold_jitter > 0 {
            self.rng.gen_range(0..self.failover.hold_jitter)
        } else {
            0
        };
        self.hold_until = self.clock + self.failover.min_hold + jitter;
        self.stats.failovers += 1;
        self.stats.log.push(ReplicaTransition::Failover {
            from,
            to: next,
            clock: self.clock,
        });
        gddr_telemetry::emit(|| Event::Failover {
            shard: self.shard,
            from_replica: from as u64,
            to_replica: next as u64,
            reason: reason.to_string(),
            clock: self.clock,
        });
    }
}

fn replica_state_to_json(state: ReplicaState) -> Json {
    match state {
        ReplicaState::Eligible => Json::Str("eligible".to_string()),
        ReplicaState::Recovering { probes, fresh } => Json::obj([
            ("probes", Json::Num(probes as f64)),
            ("fresh", Json::Num(fresh as f64)),
        ]),
    }
}

fn replica_state_from_json(json: &Json) -> Result<ReplicaState, String> {
    match json {
        Json::Str(s) if s == "eligible" => Ok(ReplicaState::Eligible),
        Json::Obj(_) => {
            let err = |e: gddr_ser::JsonError| format!("replica state: {}", e.0);
            let probes = count_from_json(json.field("probes").map_err(err)?, "probes")?;
            let fresh = count_from_json(json.field("fresh").map_err(err)?, "fresh")?;
            if fresh > probes {
                return Err(format!("replica state: {fresh} fresh of {probes} probes"));
            }
            Ok(ReplicaState::Recovering { probes, fresh })
        }
        _ => Err("replica state: expected 'eligible' or a probe object".to_string()),
    }
}

fn transition_to_json(t: &ReplicaTransition) -> Json {
    match t {
        ReplicaTransition::Failover { from, to, clock } => Json::obj([
            ("kind", Json::Str("failover".to_string())),
            ("from", Json::Num(*from as f64)),
            ("to", Json::Num(*to as f64)),
            ("clock", Json::Num(*clock as f64)),
        ]),
        ReplicaTransition::Recovered { replica, clock } => Json::obj([
            ("kind", Json::Str("recovered".to_string())),
            ("replica", Json::Num(*replica as f64)),
            ("clock", Json::Num(*clock as f64)),
        ]),
    }
}

fn transition_from_json(json: &Json) -> Result<ReplicaTransition, String> {
    let err = |e: gddr_ser::JsonError| format!("transition: {}", e.0);
    let kind = match json.field("kind").map_err(err)? {
        Json::Str(kind) => kind.as_str(),
        _ => return Err("transition: kind must be a string".to_string()),
    };
    let clock = count_from_json(json.field("clock").map_err(err)?, "transition.clock")?;
    match kind {
        "failover" => Ok(ReplicaTransition::Failover {
            from: index_from_json(json.field("from").map_err(err)?, "transition.from")?,
            to: index_from_json(json.field("to").map_err(err)?, "transition.to")?,
            clock,
        }),
        "recovered" => Ok(ReplicaTransition::Recovered {
            replica: index_from_json(json.field("replica").map_err(err)?, "transition.replica")?,
            clock,
        }),
        other => Err(format!("transition: unknown kind '{other}'")),
    }
}

fn replica_stats_to_json(stats: &ReplicaStats) -> Json {
    Json::obj([
        ("failovers", Json::Num(stats.failovers as f64)),
        ("hedges_fired", Json::Num(stats.hedges_fired as f64)),
        ("hedge_wins", Json::Num(stats.hedge_wins as f64)),
        ("recoveries", Json::Num(stats.recoveries as f64)),
        ("shed", Json::Num(stats.shed as f64)),
        (
            "log",
            Json::Arr(stats.log.iter().map(transition_to_json).collect()),
        ),
    ])
}

fn replica_stats_from_json(json: &Json) -> Result<ReplicaStats, String> {
    let err = |e: gddr_ser::JsonError| format!("replica stats: {}", e.0);
    let field = |name: &str| -> Result<u64, String> {
        count_from_json(json.field(name).map_err(err)?, name)
    };
    let log = json
        .field("log")
        .map_err(err)?
        .elements()
        .map_err(err)?
        .iter()
        .map(transition_from_json)
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ReplicaStats {
        failovers: field("failovers")?,
        hedges_fired: field("hedges_fired")?,
        hedge_wins: field("hedge_wins")?,
        recoveries: field("recoveries")?,
        shed: field("shed")?,
        log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ChaosEngine, Fault, FaultPlan, InferenceEngine, PolicyEngine};
    use gddr_core::MlpPolicy;
    use gddr_net::topology::zoo;
    use gddr_traffic::gen::{bimodal, BimodalParams};
    use gddr_traffic::DemandMatrix;
    use std::sync::Arc;

    fn factory(plan: Arc<FaultPlan>, seed: u64) -> EngineFactory {
        Arc::new(move |graph: &Graph| {
            let mut rng = StdRng::seed_from_u64(seed);
            let policy = MlpPolicy::new(
                3,
                graph.num_nodes(),
                graph.num_edges(),
                &[8],
                -0.5,
                &mut rng,
            );
            let engine = PolicyEngine::new(policy, graph, 3);
            Box::new(ChaosEngine::new(engine, Arc::clone(&plan))) as Box<dyn InferenceEngine>
        })
    }

    fn env_cfg() -> DdrEnvConfig {
        DdrEnvConfig {
            memory: 3,
            ..DdrEnvConfig::default()
        }
    }

    fn request(epoch: u64, seed: u64) -> EpochRequest {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(epoch));
        EpochRequest {
            epoch,
            demands: bimodal(6, &BimodalParams::default(), &mut rng),
            deadline_ms: crate::request::DEFAULT_DEADLINE_MS,
        }
    }

    fn set_with(plans: Vec<FaultPlan>, failover: FailoverConfig, hedge: HedgeConfig) -> ReplicaSet {
        let factories = plans.into_iter().map(|p| factory(Arc::new(p), 7)).collect();
        let mut config = ControllerConfig::default();
        config.pool.workers = 1;
        config.pool.restart_budget = 1;
        config.pool.backoff_base_epochs = 0;
        ReplicaSet::new(
            0,
            zoo::cesnet(),
            env_cfg(),
            config,
            factories,
            failover,
            hedge,
        )
        .unwrap()
    }

    #[test]
    fn empty_factory_list_is_a_typed_config_error() {
        let err = ReplicaSet::new(
            0,
            zoo::cesnet(),
            env_cfg(),
            ControllerConfig::default(),
            Vec::new(),
            FailoverConfig::default(),
            HedgeConfig::default(),
        )
        .err()
        .expect("empty factory list must be rejected");
        assert!(matches!(err, ServeError::Config(_)));
    }

    #[test]
    fn single_replica_set_matches_bare_controller_bitwise() {
        let mut set = ReplicaSet::new(
            0,
            zoo::cesnet(),
            env_cfg(),
            ControllerConfig::default(),
            vec![factory(Arc::new(FaultPlan::new()), 7)],
            FailoverConfig::default(),
            HedgeConfig::default(),
        )
        .unwrap();
        let mut solo = Controller::new(
            zoo::cesnet(),
            env_cfg(),
            ControllerConfig::default(),
            factory(Arc::new(FaultPlan::new()), 7),
        );
        for tick in 0..4u64 {
            for client in 0..3u64 {
                let req = request(tick, 500 + client * 13);
                solo.enqueue(req.clone());
                set.enqueue(req);
            }
            let mut a = Vec::new();
            loop {
                let served = solo.process_coalesced(8);
                if served.is_empty() {
                    break;
                }
                a.extend(served);
            }
            let mut b = Vec::new();
            loop {
                let served = set.process_coalesced(8);
                if served.is_empty() {
                    break;
                }
                b.extend(served);
            }
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.rung, y.rung);
                assert_eq!(x.served_at, y.served_at);
                assert_eq!(x.routing, y.routing);
                assert_eq!(x.score, y.score);
                // cost_ms is wall-clock, so only its presence (was an
                // inference dispatched at all?) is deterministic.
                assert_eq!(x.infer_cost_ms.is_some(), y.infer_cost_ms.is_some());
            }
        }
        assert_eq!(set.stats().failovers, 0);
    }

    #[test]
    fn failover_promotes_standby_and_recovers_the_primary() {
        let run_once = || {
            let plans = vec![FaultPlan::new().span(3..=6, Fault::Panic), FaultPlan::new()];
            let mut set = set_with(
                plans,
                FailoverConfig {
                    failover_threshold: 2,
                    min_hold: 4,
                    hold_jitter: 2,
                    probe_window: 4,
                    probe_fresh_min: 0.75,
                    seed: 11,
                },
                HedgeConfig::default(),
            );
            let mut rungs = String::new();
            for tick in 0..24u64 {
                for r in set.handle(request(tick, 900), 4) {
                    rungs.push(r.rung.letter());
                }
            }
            (
                rungs,
                set.stats().failover_sequence(),
                set.stats().clone(),
                set.primary(),
            )
        };
        let (rungs, seq, stats, primary) = run_once();
        assert!(stats.failovers >= 1, "no failover fired: {seq}");
        assert!(stats.recoveries >= 1, "demoted replica never recovered");
        assert_eq!(primary, 1, "replica 1 should hold the role");
        // The tail of the run is fresh again under the new primary.
        assert!(rungs.ends_with("FFFF"), "tail not fresh: {rungs}");
        // Same seed, same story — bit for bit.
        let (rungs2, seq2, _, _) = run_once();
        assert_eq!(rungs, rungs2);
        assert_eq!(seq, seq2);
    }

    #[test]
    fn exported_state_restores_to_a_fixed_point() {
        let failover = FailoverConfig {
            failover_threshold: 2,
            min_hold: 4,
            hold_jitter: 2,
            probe_window: 4,
            probe_fresh_min: 0.75,
            seed: 11,
        };
        let build = || {
            set_with(
                vec![FaultPlan::new().span(3..=6, Fault::Panic), FaultPlan::new()],
                failover.clone(),
                HedgeConfig::default(),
            )
        };
        // Drive a failover and a recovery so the snapshot carries a
        // non-trivial transition log, probe states and RNG progress.
        let mut a = build();
        for tick in 0..24u64 {
            a.handle(request(tick, 900), 4);
        }
        assert!(a.stats().failovers >= 1);
        let snap = a.export_state();

        let mut b = build();
        b.restore_state(&snap, 0).expect("restore");
        assert_eq!(b.primary(), a.primary());
        assert_eq!(b.stats().failover_sequence(), a.stats().failover_sequence());
        // Re-export is byte-identical: the codec has a fixed point.
        assert_eq!(snap.to_string(), b.export_state().to_string());

        // Demand history is deliberately not persisted, so a restored
        // set is not bit-identical to the never-crashed run — but two
        // same-seed restores of the same snapshot must replay each
        // other bit for bit.
        let mut c = build();
        c.restore_state(&snap, 0).expect("second restore");
        for tick in 24..32u64 {
            let rb = b.handle(request(tick, 900), 4);
            let rc = c.handle(request(tick, 900), 4);
            assert_eq!(rb.len(), rc.len());
            for (x, y) in rb.iter().zip(&rc) {
                assert_eq!(x.rung, y.rung, "tick {tick}");
                assert_eq!(x.served_at, y.served_at);
                assert_eq!(x.routing, y.routing);
            }
        }
        assert_eq!(b.stats().failover_sequence(), c.stats().failover_sequence());
    }

    #[test]
    fn restore_mismatch_rolls_back_untouched() {
        let solo = set_with(
            vec![FaultPlan::new()],
            FailoverConfig::default(),
            HedgeConfig::default(),
        );
        let wrong_count = solo.export_state();

        let mut set = set_with(
            vec![FaultPlan::new(), FaultPlan::new()],
            FailoverConfig::default(),
            HedgeConfig::default(),
        );
        for tick in 0..3u64 {
            set.handle(request(tick, 950), 4);
        }
        let before = set.export_state().to_string();
        assert!(set.restore_state(&wrong_count, 1).is_err());
        assert!(set.restore_state(&Json::Null, 1).is_err());
        assert_eq!(set.export_state().to_string(), before, "rollback drifted");
        // Still serving fresh afterwards.
        let r = set.handle(request(3, 950), 4).remove(0);
        assert_eq!(r.rung, Rung::Fresh);
    }

    #[test]
    fn no_eligible_standby_means_no_failover() {
        // Single replica: the policy can trip but has nowhere to go.
        let plans = vec![FaultPlan::new().span(0..=100, Fault::Panic)];
        let mut set = set_with(
            plans,
            FailoverConfig {
                failover_threshold: 1,
                ..FailoverConfig::default()
            },
            HedgeConfig::default(),
        );
        for tick in 0..8u64 {
            for r in set.handle(request(tick, 901), 4) {
                assert_ne!(r.rung, Rung::Fresh);
            }
        }
        assert_eq!(set.stats().failovers, 0);
        assert_eq!(set.primary(), 0);
    }

    #[test]
    fn hedge_rescues_stragglers_without_failover() {
        let plans = vec![
            FaultPlan::new().span(2..=9, Fault::Slow { cost_ms: 30 }),
            FaultPlan::new(),
        ];
        let mut set = set_with(
            plans,
            FailoverConfig::default(),
            HedgeConfig {
                enabled: true,
                threshold_ms: 20,
            },
        );
        let mut all_fresh = true;
        for tick in 0..12u64 {
            for r in set.handle(request(tick, 902), 4) {
                all_fresh &= r.rung == Rung::Fresh;
            }
        }
        assert!(all_fresh, "hedge should keep every response fresh");
        let stats = set.stats();
        assert!(stats.hedges_fired >= 8, "hedges: {}", stats.hedges_fired);
        assert!(stats.hedge_wins >= 8, "wins: {}", stats.hedge_wins);
        // A straggling-but-fresh primary is not a failover cause.
        assert_eq!(stats.failovers, 0);
    }

    #[test]
    fn hedge_ties_keep_the_primary_reply() {
        let fresh = |cost: Option<u64>, rung: Rung| RouteResponse {
            epoch: 0,
            trace_id: 0,
            latency_ns: 0,
            served_at: 0,
            rung,
            routing: gddr_core::eval::unit_ecmp_routing(&zoo::cesnet()),
            shed: false,
            infer_cost_ms: cost,
            score: None,
            degraded_reason: None,
        };
        let set = set_with(
            vec![FaultPlan::new(), FaultPlan::new()],
            FailoverConfig::default(),
            HedgeConfig {
                enabled: true,
                threshold_ms: 20,
            },
        );
        // Tie on cost: primary keeps the request.
        assert!(!set.standby_wins(&fresh(Some(5), Rung::Fresh), &fresh(Some(5), Rung::Fresh)));
        // Strictly faster standby wins.
        assert!(set.standby_wins(&fresh(Some(30), Rung::Fresh), &fresh(Some(0), Rung::Fresh)));
        // A non-fresh standby never wins.
        assert!(!set.standby_wins(&fresh(Some(30), Rung::Fresh), &fresh(None, Rung::Ecmp)));
        // A non-fresh primary loses to any fresh standby.
        assert!(set.standby_wins(&fresh(None, Rung::Ecmp), &fresh(Some(40), Rung::Fresh)));
    }

    #[test]
    fn replica_index_errors_are_typed() {
        let mut set = set_with(
            vec![FaultPlan::new()],
            FailoverConfig::default(),
            HedgeConfig::default(),
        );
        let err = set.with_replica(5, |_| ()).unwrap_err();
        assert_eq!(
            err,
            ServeError::UnknownReplica {
                shard: 0,
                replica: 5,
                replicas: 1,
            }
        );
        assert!(set.replica_state(5).is_err());
        assert!(set.retool_replica(5).is_err());
    }

    #[test]
    fn shed_victims_keep_replicas_in_lockstep() {
        let mut config = ControllerConfig {
            queue_capacity: 2,
            ..ControllerConfig::default()
        };
        config.pool.workers = 1;
        let mut set = ReplicaSet::new(
            0,
            zoo::cesnet(),
            env_cfg(),
            config,
            vec![
                factory(Arc::new(FaultPlan::new()), 7),
                factory(Arc::new(FaultPlan::new()), 8),
            ],
            FailoverConfig::default(),
            HedgeConfig::default(),
        )
        .unwrap();
        let mut responses = Vec::new();
        for client in 0..5u64 {
            responses.extend(set.enqueue(request(0, 910 + client)));
        }
        loop {
            let served = set.process_coalesced(2);
            if served.is_empty() {
                break;
            }
            responses.extend(served);
        }
        assert_eq!(responses.len(), 5, "every submitted request answered");
        assert_eq!(set.stats().shed, 3);
        assert_eq!(set.stats().failovers, 0, "shed must not indict the primary");
        // Both replicas saw every request: identical serving epochs.
        let invalid = EpochRequest {
            epoch: 9,
            demands: DemandMatrix::zeros(99),
            deadline_ms: 0,
        };
        set.enqueue(invalid);
        let r = set.process_next().unwrap();
        assert_eq!(r.served_at, 6, "primary epoch advanced once per request");
    }
}
