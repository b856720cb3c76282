//! The data-driven-routing environment (paper §V, Fig. 1).
//!
//! Each episode walks a demand sequence. At every timestep the agent
//! observes the previous `m` demand matrices, emits one weight per
//! edge, softmin routing translates the weights into a routing
//! strategy, and the reward compares the resulting max-link-utilisation
//! against the LP optimum for the *new* (unseen) demand matrix:
//!
//! `reward = − U_max_agent / U_max_optimal`  (Eq. 2)
//!
//! [`MultiGraphDdrEnv`] samples a different graph per episode — the
//! setup of the generalisation experiment (Fig. 8); only graph-size-
//! independent policies (the GNN ones) can train on it.

use std::sync::Arc;

use gddr_rng::rngs::StdRng;
use gddr_rng::{Rng, SeedableRng};

use gddr_gnn::GraphStructure;
use gddr_lp::CachedOracle;
use gddr_net::topology::mutate;
use gddr_net::Graph;
use gddr_nn::Matrix;
use gddr_rl::{Env, ResumableEnv, Step};
use gddr_routing::sim::max_link_utilisation;
use gddr_routing::softmin::{softmin_routing, SoftminConfig};
use gddr_ser::{FromJson, Json, JsonError, ToJson};
use gddr_telemetry::Event;
use gddr_traffic::DemandMatrix;

use crate::error::CoreError;
use crate::obs::{flat_features, node_features, DdrObs, DemandHistory};

/// Environment configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdrEnvConfig {
    /// Demand-history length `m` (paper: 5).
    pub memory: usize,
    /// Softmin translation settings (γ and DAG conversion).
    pub softmin: SoftminConfig,
    /// Raw actions are squashed with `tanh` and mapped into this
    /// weight interval.
    pub weight_range: (f64, f64),
}

impl Default for DdrEnvConfig {
    fn default() -> Self {
        DdrEnvConfig {
            memory: 5,
            softmin: SoftminConfig::default(),
            weight_range: (0.5, 4.5),
        }
    }
}

impl DdrEnvConfig {
    /// Maps one raw policy output to an edge weight.
    pub fn action_to_weight(&self, a: f64) -> f64 {
        let (lo, hi) = self.weight_range;
        lo + (a.tanh() + 1.0) / 2.0 * (hi - lo)
    }

    /// Maps a full raw action vector to edge weights.
    ///
    /// # Panics
    ///
    /// Panics if the action is shorter than `num_edges`. Fallible
    /// callers (serving workers) use
    /// [`DdrEnvConfig::try_action_to_weights`].
    pub fn action_to_weights(&self, action: &[f64], num_edges: usize) -> Vec<f64> {
        self.try_action_to_weights(action, num_edges)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`DdrEnvConfig::action_to_weights`]: a short or
    /// non-finite action surfaces as a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// [`CoreError::ActionTooShort`] if the action is shorter than
    /// `num_edges`; [`CoreError::Routing`] if any used entry is NaN
    /// (tanh squashing maps infinities fine, but NaN would poison the
    /// weight).
    pub fn try_action_to_weights(
        &self,
        action: &[f64],
        num_edges: usize,
    ) -> Result<Vec<f64>, CoreError> {
        if action.len() < num_edges {
            return Err(CoreError::ActionTooShort {
                got: action.len(),
                need: num_edges,
            });
        }
        if let Some(idx) = action[..num_edges].iter().position(|a| a.is_nan()) {
            return Err(CoreError::Routing(format!("NaN action entry at {idx}")));
        }
        Ok(action[..num_edges]
            .iter()
            .map(|&a| self.action_to_weight(a))
            .collect())
    }
}

/// A graph plus everything the environment needs to route on it.
#[derive(Debug)]
pub struct GraphContext {
    /// The topology.
    pub graph: Graph,
    /// GNN connectivity view (shared with observations).
    pub structure: Arc<GraphStructure>,
    /// Optimal-routing oracle with per-DM cache.
    pub oracle: CachedOracle,
    /// Demand sequences; an episode walks one of them.
    pub sequences: Vec<Vec<DemandMatrix>>,
}

impl GraphContext {
    /// Bundles a graph with its demand sequences.
    ///
    /// # Panics
    ///
    /// Panics if `sequences` is empty, any sequence is empty, or a
    /// matrix size disagrees with the graph.
    pub fn new(graph: Graph, sequences: Vec<Vec<DemandMatrix>>) -> Self {
        assert!(!sequences.is_empty(), "need at least one demand sequence");
        for seq in &sequences {
            assert!(!seq.is_empty(), "sequences must be non-empty");
            for dm in seq {
                assert_eq!(
                    dm.num_nodes(),
                    graph.num_nodes(),
                    "demand matrix size must match the graph"
                );
            }
        }
        let structure = Arc::new(GraphStructure::from_graph(&graph));
        let oracle = CachedOracle::new(graph.clone());
        GraphContext {
            graph,
            structure,
            oracle,
            sequences,
        }
    }

    /// Ratio `U_agent / U_opt` for a concrete routing and demand matrix
    /// — the quantity behind the paper's bar charts (lower is better,
    /// 1.0 is optimal). Delegates to [`routing_ratio`]: the oracle side
    /// degrades gracefully on solver trouble instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if the routing loses traffic (a softmin-translation
    /// invariant violation) or no routing exists at all.
    pub fn ratio(&self, routing: &gddr_routing::Routing, dm: &DemandMatrix) -> f64 {
        routing_ratio(&self.graph, &self.oracle, routing, dm).ratio
    }

    /// Fallible [`GraphContext::ratio`]: malformed demands and
    /// simulation/oracle failures surface as typed errors.
    ///
    /// # Errors
    ///
    /// As [`try_routing_ratio`].
    pub fn try_ratio(
        &self,
        routing: &gddr_routing::Routing,
        dm: &DemandMatrix,
    ) -> Result<RatioOutcome, CoreError> {
        try_routing_ratio(&self.graph, &self.oracle, routing, dm)
    }
}

/// The reward-side outcome of one routed step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioOutcome {
    /// `U_agent / U_opt` (1.0 is optimal, lower bound).
    pub ratio: f64,
    /// `true` when the denominator came from the oracle's degraded
    /// shortest-path fallback rather than the exact LP.
    pub degraded: bool,
}

/// Computes `U_agent / U_opt` through the resilient oracle: LP pivot
/// trouble falls back (Bland retry, then the shortest-path bound) and
/// flags the outcome `degraded` instead of aborting the episode.
///
/// # Panics
///
/// Panics if the routing loses traffic (a softmin-translation invariant
/// violation) or the demands are unroutable on any path — conditions no
/// fallback can paper over.
pub fn routing_ratio(
    graph: &Graph,
    oracle: &CachedOracle,
    routing: &gddr_routing::Routing,
    dm: &DemandMatrix,
) -> RatioOutcome {
    try_routing_ratio(graph, oracle, routing, dm).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`routing_ratio`]: validates the demand matrix (size and
/// finiteness) before touching the simulator, then maps simulation and
/// oracle failures to typed errors — the form serving workers need,
/// where a malformed request must degrade the response, not abort the
/// thread.
///
/// # Errors
///
/// [`CoreError::DemandMismatch`] / [`CoreError::NonFiniteDemand`] on a
/// malformed matrix, [`CoreError::Simulation`] if the routing loses
/// traffic, [`CoreError::Oracle`] if no optimal routing exists.
pub fn try_routing_ratio(
    graph: &Graph,
    oracle: &CachedOracle,
    routing: &gddr_routing::Routing,
    dm: &DemandMatrix,
) -> Result<RatioOutcome, CoreError> {
    let _span = gddr_telemetry::span("env.reward");
    let n = graph.num_nodes();
    if dm.num_nodes() != n {
        return Err(CoreError::DemandMismatch {
            expected: n,
            got: dm.num_nodes(),
        });
    }
    for s in 0..n {
        for t in 0..n {
            if !dm.get(s, t).is_finite() {
                return Err(CoreError::NonFiniteDemand { src: s, dst: t });
            }
        }
    }
    let report = max_link_utilisation(graph, routing, dm)
        .map_err(|e| CoreError::Simulation(format!("{e:?}")))?;
    let opt = oracle
        .u_opt_resilient(dm)
        .map_err(|e| CoreError::Oracle(format!("{e:?}")))?;
    let ratio = if opt.u_opt <= 1e-12 {
        1.0
    } else {
        report.u_max / opt.u_opt
    };
    gddr_telemetry::histogram_record("env.reward_ratio", ratio);
    Ok(RatioOutcome {
        ratio,
        degraded: opt.degraded,
    })
}

/// Per-episode link-failure injection (the robustness counterpart of
/// the paper's Fig. 8 generalisation setup): at every reset, up to
/// `edges_per_episode` random links are removed from the base graph —
/// connectivity-preserving, so every episode stays routable — and the
/// episode runs on the degraded topology. Draws come from the
/// injector's own seeded RNG stream (fork the training RNG), keeping
/// failure patterns reproducible and independent of policy sampling.
#[derive(Debug, Clone)]
pub struct FailureInjector {
    /// Links removed per episode (fewer when removal would disconnect
    /// the graph).
    pub edges_per_episode: usize,
    rng: StdRng,
}

impl FailureInjector {
    /// Creates an injector drawing from `rng` — typically a
    /// [`SeedableRng::fork`] of the training stream.
    pub fn new(edges_per_episode: usize, rng: StdRng) -> Self {
        FailureInjector {
            edges_per_episode,
            rng,
        }
    }

    /// Convenience constructor from a bare seed.
    pub fn from_seed(edges_per_episode: usize, seed: u64) -> Self {
        Self::new(edges_per_episode, StdRng::seed_from_u64(seed))
    }

    /// Removes up to `edges_per_episode` random links from `base`,
    /// keeping it strongly connected. Returns the degraded graph and
    /// the number of links actually removed (0 removals returns a
    /// plain clone). Public so `gddr-serve`'s chaos scenarios can
    /// inject the same failure patterns outside an environment.
    pub fn degrade(&mut self, base: &Graph) -> (Graph, usize) {
        let mut g = base.clone();
        let mut removed = 0;
        for _ in 0..self.edges_per_episode {
            match mutate::remove_random_edge(&g, &mut self.rng) {
                Some(next) => {
                    g = next;
                    removed += 1;
                }
                None => break,
            }
        }
        g.set_name(format!("{}-{removed}f", base.name()));
        (g, removed)
    }
}

/// The episode-local view of a degraded topology: the faulted graph
/// plus the derived structures routing and rewards need.
#[derive(Debug)]
struct FaultedView {
    graph: Graph,
    structure: Arc<GraphStructure>,
    oracle: CachedOracle,
    removed: usize,
}

impl FaultedView {
    fn new(graph: Graph, removed: usize) -> Self {
        let structure = Arc::new(GraphStructure::from_graph(&graph));
        let oracle = CachedOracle::new(graph.clone());
        FaultedView {
            graph,
            structure,
            oracle,
            removed,
        }
    }
}

/// Single-graph data-driven-routing environment (Figs. 6 and 7 setup),
/// optionally with per-episode link-failure injection
/// ([`DdrEnv::with_failures`]).
#[derive(Debug)]
pub struct DdrEnv {
    ctx: GraphContext,
    config: DdrEnvConfig,
    seq_idx: usize,
    t: usize,
    history: DemandHistory,
    injector: Option<FailureInjector>,
    faulted: Option<FaultedView>,
}

impl DdrEnv {
    /// Creates the environment.
    ///
    /// # Panics
    ///
    /// Panics if any sequence is not longer than the memory (there
    /// would be no step to take).
    pub fn new(ctx: GraphContext, config: DdrEnvConfig) -> Self {
        for seq in &ctx.sequences {
            assert!(
                seq.len() > config.memory,
                "sequence length {} must exceed memory {}",
                seq.len(),
                config.memory
            );
        }
        let history = DemandHistory::new(config.memory);
        DdrEnv {
            ctx,
            config,
            seq_idx: 0,
            t: 0,
            history,
            injector: None,
            faulted: None,
        }
    }

    /// Creates the environment with link-failure injection: every
    /// episode runs on a copy of the graph with up to
    /// `injector.edges_per_episode` random links removed
    /// (connectivity-preserving). The action dimension stays that of
    /// the base graph; surplus weight outputs are ignored on degraded
    /// topologies, mirroring [`MultiGraphDdrEnv`].
    ///
    /// # Panics
    ///
    /// As [`DdrEnv::new`].
    pub fn with_failures(
        ctx: GraphContext,
        config: DdrEnvConfig,
        injector: FailureInjector,
    ) -> Self {
        let mut env = Self::new(ctx, config);
        env.injector = Some(injector);
        env
    }

    /// The underlying graph context.
    pub fn context(&self) -> &GraphContext {
        &self.ctx
    }

    /// The environment configuration.
    pub fn config(&self) -> &DdrEnvConfig {
        &self.config
    }

    /// The graph the current episode routes on: the degraded copy when
    /// failure injection is active, the base graph otherwise.
    pub fn active_graph(&self) -> &Graph {
        match &self.faulted {
            Some(f) => &f.graph,
            None => &self.ctx.graph,
        }
    }

    /// Links removed from the base graph for the current episode.
    pub fn removed_links(&self) -> usize {
        self.faulted.as_ref().map_or(0, |f| f.removed)
    }

    fn active_structure(&self) -> &Arc<GraphStructure> {
        match &self.faulted {
            Some(f) => &f.structure,
            None => &self.ctx.structure,
        }
    }

    fn active_oracle(&self) -> &CachedOracle {
        match &self.faulted {
            Some(f) => &f.oracle,
            None => &self.ctx.oracle,
        }
    }

    fn observation(&self) -> DdrObs {
        let n = self.ctx.graph.num_nodes();
        let m_e = self.active_graph().num_edges();
        DdrObs {
            structure: Arc::clone(self.active_structure()),
            node_feats: node_features(&self.history, n, self.config.memory),
            edge_feats: Matrix::zeros(m_e, 3),
            globals: Matrix::zeros(1, 1),
            flat: flat_features(&self.history, n, self.config.memory),
            target_edge: None,
        }
    }
}

impl Env for DdrEnv {
    type Obs = DdrObs;

    fn reset(&mut self, rng: &mut StdRng) -> DdrObs {
        self.seq_idx = rng.gen_range(0..self.ctx.sequences.len());
        self.history.clear();
        // Pre-fill the history with the first `m` matrices: the agent
        // routes from timestep m onwards (Fig. 1).
        for i in 0..self.config.memory {
            self.history
                .push(self.ctx.sequences[self.seq_idx][i].clone());
        }
        self.t = self.config.memory;
        if let Some(injector) = self.injector.as_mut() {
            let (graph, removed) = injector.degrade(&self.ctx.graph);
            gddr_telemetry::emit(|| Event::FaultInjected {
                graph: self.ctx.graph.name().to_string(),
                edges_removed: removed as u64,
            });
            self.faulted = Some(FaultedView::new(graph, removed));
        }
        self.observation()
    }

    fn step(&mut self, action: &[f64], _rng: &mut StdRng) -> Step<DdrObs> {
        let _span = gddr_telemetry::span("env.step");
        let graph = match &self.faulted {
            Some(f) => &f.graph,
            None => &self.ctx.graph,
        };
        let weights = self.config.action_to_weights(action, graph.num_edges());
        let routing = softmin_routing(graph, &weights, &self.config.softmin)
            .expect("action_to_weights yields positive finite weights");
        let seq = &self.ctx.sequences[self.seq_idx];
        let dm = &seq[self.t];
        let reward = -routing_ratio(graph, self.active_oracle(), &routing, dm).ratio;
        self.history.push(dm.clone());
        self.t += 1;
        let done = self.t >= seq.len();
        Step {
            obs: self.observation(),
            reward,
            done,
        }
    }

    fn action_dim(&self) -> usize {
        self.ctx.graph.num_edges()
    }
}

fn rng_state_to_json(state: &[u64; 4]) -> Json {
    // Decimal strings: `gddr-ser` routes numbers through `f64`, which
    // would silently truncate state words above 2^53.
    Json::Arr(state.iter().map(|w| Json::Str(w.to_string())).collect())
}

fn rng_state_from_json(json: &Json) -> Result<[u64; 4], JsonError> {
    let words = match json {
        Json::Arr(items) if items.len() == 4 => items,
        _ => return Err(JsonError("rng state must be 4 words".to_string())),
    };
    let mut state = [0u64; 4];
    for (i, w) in words.iter().enumerate() {
        let text = match w {
            Json::Str(s) => s,
            _ => return Err(JsonError("rng state word must be a string".to_string())),
        };
        state[i] = text
            .parse::<u64>()
            .map_err(|e| JsonError(format!("bad rng state word {text:?}: {e}")))?;
    }
    Ok(state)
}

impl ResumableEnv for DdrEnv {
    fn state_json(&self) -> Json {
        let history: Vec<Json> = self.history.iter().map(ToJson::to_json).collect();
        let mut fields = vec![
            ("seq_idx".to_string(), self.seq_idx.to_json()),
            ("t".to_string(), self.t.to_json()),
            ("history".to_string(), Json::Arr(history)),
        ];
        if let Some(injector) = &self.injector {
            fields.push((
                "injector_rng".to_string(),
                rng_state_to_json(&injector.rng.state()),
            ));
        }
        if let Some(faulted) = &self.faulted {
            fields.push((
                "faulted".to_string(),
                Json::obj([
                    ("graph", faulted.graph.to_json()),
                    ("removed", (faulted.removed as u64).to_json()),
                ]),
            ));
        }
        Json::Obj(fields)
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), JsonError> {
        let seq_idx = usize::from_json(state.field("seq_idx")?)?;
        if seq_idx >= self.ctx.sequences.len() {
            return Err(JsonError(format!(
                "sequence index {seq_idx} out of range ({} sequences)",
                self.ctx.sequences.len()
            )));
        }
        let t = usize::from_json(state.field("t")?)?;
        if t < self.config.memory || t > self.ctx.sequences[seq_idx].len() {
            return Err(JsonError(format!("timestep {t} out of episode range")));
        }
        let history_json = match state.field("history")? {
            Json::Arr(items) => items,
            _ => return Err(JsonError("history must be an array".to_string())),
        };
        let mut matrices = Vec::with_capacity(history_json.len());
        for item in history_json {
            let dm = DemandMatrix::from_json(item)?;
            if dm.num_nodes() != self.ctx.graph.num_nodes() {
                return Err(JsonError("history matrix size mismatch".to_string()));
            }
            matrices.push(dm);
        }
        let injector_rng = match (&self.injector, state.field("injector_rng")) {
            (Some(_), Ok(json)) => Some(rng_state_from_json(json)?),
            (Some(_), Err(_)) => {
                return Err(JsonError(
                    "state lacks injector rng for a failure-injecting env".to_string(),
                ))
            }
            (None, _) => None,
        };
        if injector_rng == Some([0; 4]) {
            return Err(JsonError("all-zero injector rng state".to_string()));
        }
        let faulted = match state.field("faulted") {
            Ok(json) => {
                let graph = Graph::from_json(json.field("graph")?)?;
                if graph.num_nodes() != self.ctx.graph.num_nodes() {
                    return Err(JsonError("faulted graph node count mismatch".to_string()));
                }
                let removed = u64::from_json(json.field("removed")?)? as usize;
                Some(FaultedView::new(graph, removed))
            }
            Err(_) => None,
        };

        // All fields validated: commit.
        self.seq_idx = seq_idx;
        self.t = t;
        self.history.clear();
        for dm in matrices {
            self.history.push(dm);
        }
        if let (Some(injector), Some(rng_state)) = (self.injector.as_mut(), injector_rng) {
            injector.rng = StdRng::from_state(rng_state);
        }
        self.faulted = faulted;
        Ok(())
    }

    fn current_obs(&self) -> DdrObs {
        self.observation()
    }
}

/// Multi-graph environment: each episode runs on a randomly drawn
/// graph context (the Fig. 8 training setup).
#[derive(Debug)]
pub struct MultiGraphDdrEnv {
    contexts: Vec<GraphContext>,
    config: DdrEnvConfig,
    active: usize,
    seq_idx: usize,
    t: usize,
    history: DemandHistory,
}

impl MultiGraphDdrEnv {
    /// Creates the environment over the given graph mixture.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is empty or any sequence is not longer
    /// than the memory.
    pub fn new(contexts: Vec<GraphContext>, config: DdrEnvConfig) -> Self {
        assert!(!contexts.is_empty(), "need at least one graph");
        for ctx in &contexts {
            for seq in &ctx.sequences {
                assert!(
                    seq.len() > config.memory,
                    "sequence length must exceed memory"
                );
            }
        }
        let history = DemandHistory::new(config.memory);
        MultiGraphDdrEnv {
            contexts,
            config,
            active: 0,
            seq_idx: 0,
            t: 0,
            history,
        }
    }

    /// The graph contexts in the mixture.
    pub fn contexts(&self) -> &[GraphContext] {
        &self.contexts
    }

    /// The currently active context (valid after a reset).
    pub fn active_context(&self) -> &GraphContext {
        &self.contexts[self.active]
    }

    fn observation(&self) -> DdrObs {
        let ctx = &self.contexts[self.active];
        let n = ctx.graph.num_nodes();
        let m_e = ctx.graph.num_edges();
        DdrObs {
            structure: Arc::clone(&ctx.structure),
            node_feats: node_features(&self.history, n, self.config.memory),
            edge_feats: Matrix::zeros(m_e, 3),
            globals: Matrix::zeros(1, 1),
            flat: flat_features(&self.history, n, self.config.memory),
            target_edge: None,
        }
    }
}

impl Env for MultiGraphDdrEnv {
    type Obs = DdrObs;

    fn reset(&mut self, rng: &mut StdRng) -> DdrObs {
        self.active = rng.gen_range(0..self.contexts.len());
        let ctx = &self.contexts[self.active];
        self.seq_idx = rng.gen_range(0..ctx.sequences.len());
        self.history.clear();
        for i in 0..self.config.memory {
            self.history.push(ctx.sequences[self.seq_idx][i].clone());
        }
        self.t = self.config.memory;
        self.observation()
    }

    fn step(&mut self, action: &[f64], _rng: &mut StdRng) -> Step<DdrObs> {
        let _span = gddr_telemetry::span("env.step");
        let ctx = &self.contexts[self.active];
        let weights = self.config.action_to_weights(action, ctx.graph.num_edges());
        let routing = softmin_routing(&ctx.graph, &weights, &self.config.softmin)
            .expect("action_to_weights yields positive finite weights");
        let seq = &ctx.sequences[self.seq_idx];
        let dm = &seq[self.t];
        let reward = -ctx.ratio(&routing, dm);
        self.history.push(dm.clone());
        self.t += 1;
        let done = self.t >= seq.len();
        Step {
            obs: self.observation(),
            reward,
            done,
        }
    }

    fn action_dim(&self) -> usize {
        self.contexts
            .iter()
            .map(|c| c.graph.num_edges())
            .max()
            .expect("non-empty mixture")
    }
}

/// Builds the paper's standard workload for a graph: `count` cyclical
/// bimodal sequences of `length` DMs with cycle `cycle` (§VIII-B/D:
/// 60 DMs, cycle 10).
pub fn standard_sequences(
    graph: &Graph,
    count: usize,
    length: usize,
    cycle: usize,
    rng: &mut StdRng,
) -> Vec<Vec<DemandMatrix>> {
    let params = gddr_traffic::gen::BimodalParams::default();
    (0..count)
        .map(|_| gddr_traffic::sequence::cyclical(graph.num_nodes(), cycle, length, &params, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_net::topology::zoo;
    use gddr_rng::SeedableRng;

    fn small_env() -> DdrEnv {
        let g = zoo::cesnet();
        let mut rng = StdRng::seed_from_u64(0);
        let seqs = standard_sequences(&g, 2, 8, 4, &mut rng);
        let config = DdrEnvConfig {
            memory: 3,
            ..Default::default()
        };
        DdrEnv::new(GraphContext::new(g, seqs), config)
    }

    #[test]
    fn episode_walks_the_sequence() {
        let mut env = small_env();
        let mut rng = StdRng::seed_from_u64(1);
        let obs = env.reset(&mut rng);
        assert_eq!(obs.node_feats.shape(), (6, 6));
        assert_eq!(obs.flat.len(), 3 * 36);
        let action = vec![0.0; env.action_dim()];
        let mut steps = 0;
        let mut done = false;
        while !done {
            let s = env.step(&action, &mut rng);
            assert!(s.reward < 0.0, "ratio reward is negative");
            assert!(s.reward >= -50.0, "reward out of plausible range");
            done = s.done;
            steps += 1;
            assert!(steps <= 8, "episode too long");
        }
        // length 8, memory 3 → 5 routed steps.
        assert_eq!(steps, 5);
    }

    #[test]
    fn reward_is_at_best_minus_one() {
        // U_agent >= U_opt always, so reward <= -1.
        let mut env = small_env();
        let mut rng = StdRng::seed_from_u64(2);
        env.reset(&mut rng);
        let action = vec![0.3; env.action_dim()];
        let s = env.step(&action, &mut rng);
        assert!(
            s.reward <= -1.0 + 1e-6,
            "agent cannot beat the LP optimum: {}",
            s.reward
        );
    }

    #[test]
    fn action_weight_mapping_respects_range() {
        let cfg = DdrEnvConfig::default();
        let (lo, hi) = cfg.weight_range;
        for a in [-100.0, -1.0, 0.0, 1.0, 100.0] {
            let w = cfg.action_to_weight(a);
            assert!(w >= lo && w <= hi, "weight {w} outside [{lo}, {hi}]");
        }
        assert!((cfg.action_to_weight(0.0) - (lo + hi) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn oracle_cache_fills_once_per_distinct_dm() {
        let mut env = small_env();
        let mut rng = StdRng::seed_from_u64(3);
        let action = vec![0.0; env.action_dim()];
        for _ in 0..2 {
            env.reset(&mut rng);
            let mut done = false;
            while !done {
                done = env.step(&action, &mut rng).done;
            }
        }
        // 2 sequences × cycle 4 → at most 8 distinct DMs.
        assert!(env.context().oracle.cache_len() <= 8);
    }

    #[test]
    fn multi_graph_env_switches_graphs() {
        let mut rng = StdRng::seed_from_u64(4);
        let graphs = [zoo::cesnet(), zoo::janet()];
        let contexts: Vec<GraphContext> = graphs
            .iter()
            .map(|g| {
                let seqs = standard_sequences(g, 1, 6, 3, &mut rng);
                GraphContext::new(g.clone(), seqs)
            })
            .collect();
        let config = DdrEnvConfig {
            memory: 2,
            ..Default::default()
        };
        let mut env = MultiGraphDdrEnv::new(contexts, config);
        let mut sizes = std::collections::HashSet::new();
        for _ in 0..10 {
            let obs = env.reset(&mut rng);
            sizes.insert(obs.structure.num_nodes);
            // One full step works on whichever graph is active.
            let action = vec![0.1; obs.structure.num_edges];
            let s = env.step(&action, &mut rng);
            assert!(s.reward < 0.0);
        }
        assert_eq!(sizes.len(), 2, "both graphs should be sampled");
        assert_eq!(env.action_dim(), 2 * 11); // janet has 11 links
    }

    #[test]
    fn failure_injection_removes_links_but_episode_completes() {
        let g = zoo::cesnet();
        let base_edges = g.num_edges();
        let mut rng = StdRng::seed_from_u64(10);
        let seqs = standard_sequences(&g, 2, 8, 4, &mut rng);
        let config = DdrEnvConfig {
            memory: 3,
            ..Default::default()
        };
        let injector = FailureInjector::from_seed(2, 99);
        let mut env = DdrEnv::with_failures(GraphContext::new(g, seqs), config, injector);
        assert_eq!(
            env.action_dim(),
            base_edges,
            "action dim stays base-graph sized"
        );

        let mut rng = StdRng::seed_from_u64(11);
        env.reset(&mut rng);
        assert!(env.removed_links() >= 1, "cesnet tolerates removals");
        assert!(env.active_graph().num_edges() < base_edges);
        assert!(gddr_net::algo::is_strongly_connected(env.active_graph()));

        // A full episode on the degraded topology completes with
        // finite, sane rewards.
        let action = vec![0.0; env.action_dim()];
        let mut done = false;
        while !done {
            let s = env.step(&action, &mut rng);
            assert!(s.reward.is_finite());
            assert!(s.reward <= -1.0 + 1e-6, "optimum still bounds the agent");
            done = s.done;
        }
    }

    #[test]
    fn failure_patterns_are_deterministic_per_seed() {
        let g = zoo::cesnet();
        let episodes = |injector_seed: u64| -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(20);
            let seqs = standard_sequences(&g, 2, 8, 4, &mut rng);
            let config = DdrEnvConfig {
                memory: 3,
                ..Default::default()
            };
            let injector = FailureInjector::from_seed(1, injector_seed);
            let mut env =
                DdrEnv::with_failures(GraphContext::new(g.clone(), seqs), config, injector);
            let mut rng = StdRng::seed_from_u64(21);
            (0..4)
                .map(|_| {
                    env.reset(&mut rng);
                    env.active_graph().num_edges()
                })
                .collect()
        };
        assert_eq!(episodes(7), episodes(7), "same seed, same failures");
    }

    #[test]
    fn injector_preserves_connectivity_at_scale() {
        // Property: degrade() keeps any 100+ node graph strongly
        // connected under aggressive k, across generator families and
        // seeds — the guarantee the live-dynamics scenario engine
        // leans on when composing flaps on big WANs.
        use gddr_net::topology::hierarchical::hierarchical_wan_sized;
        use gddr_net::topology::random::{barabasi_albert, erdos_renyi};

        for seed in 0..4u64 {
            let mut gen_rng = StdRng::seed_from_u64(seed);
            let graphs = [
                erdos_renyi(100, 0.06, 100.0, &mut gen_rng),
                barabasi_albert(120, 2, 100.0, &mut gen_rng),
                hierarchical_wan_sized(150, &mut gen_rng),
            ];
            for g in &graphs {
                assert!(
                    gddr_net::algo::is_strongly_connected(g),
                    "generator precondition (seed {seed}, {})",
                    g.name()
                );
                for k in [5usize, 15, 40] {
                    let mut injector = FailureInjector::from_seed(k, seed ^ (k as u64) << 8);
                    let (degraded, removed) = injector.degrade(g);
                    assert!(
                        gddr_net::algo::is_strongly_connected(&degraded),
                        "disconnected after {removed} removals (k={k}, seed {seed}, {})",
                        g.name()
                    );
                    assert!(removed <= k);
                    assert_eq!(
                        degraded.num_edges(),
                        g.num_edges() - 2 * removed,
                        "each removal drops one undirected link"
                    );
                    assert_eq!(degraded.num_nodes(), g.num_nodes(), "node ids preserved");
                }
            }
        }
    }

    #[test]
    fn state_round_trip_restores_mid_episode_env() {
        let mut env = small_env();
        let mut rng = StdRng::seed_from_u64(30);
        env.reset(&mut rng);
        let action = vec![0.2; env.action_dim()];
        env.step(&action, &mut rng);
        env.step(&action, &mut rng);

        let state = env.state_json();
        let obs_before = env.current_obs();

        // A fresh env restored from the state produces the identical
        // observation and finishes the episode with identical rewards.
        let mut restored = small_env();
        restored.restore_state(&state).unwrap();
        let obs_after = restored.current_obs();
        assert_eq!(obs_before.flat, obs_after.flat);

        let mut rng_a = StdRng::seed_from_u64(31);
        let mut rng_b = StdRng::seed_from_u64(31);
        loop {
            let a = env.step(&action, &mut rng_a);
            let b = restored.step(&action, &mut rng_b);
            assert_eq!(a.reward, b.reward);
            assert_eq!(a.done, b.done);
            if a.done {
                break;
            }
        }
    }

    #[test]
    fn state_round_trip_covers_failure_injection() {
        let g = zoo::cesnet();
        let make = || {
            let mut rng = StdRng::seed_from_u64(40);
            let seqs = standard_sequences(&g, 2, 8, 4, &mut rng);
            let config = DdrEnvConfig {
                memory: 3,
                ..Default::default()
            };
            DdrEnv::with_failures(
                GraphContext::new(g.clone(), seqs),
                config,
                FailureInjector::from_seed(2, 5),
            )
        };
        let mut env = make();
        let mut rng = StdRng::seed_from_u64(41);
        env.reset(&mut rng);
        let action = vec![0.1; env.action_dim()];
        env.step(&action, &mut rng);

        let state = env.state_json();
        let mut restored = make();
        restored.restore_state(&state).unwrap();
        assert_eq!(
            restored.active_graph().num_edges(),
            env.active_graph().num_edges()
        );
        assert_eq!(restored.removed_links(), env.removed_links());

        // Both continue identically — including the *next* episode's
        // failure pattern, which draws from the restored injector RNG.
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        loop {
            let a = env.step(&action, &mut rng_a);
            let b = restored.step(&action, &mut rng_b);
            assert_eq!(a.reward, b.reward);
            if a.done {
                break;
            }
        }
        env.reset(&mut rng_a);
        restored.reset(&mut rng_b);
        assert_eq!(
            env.active_graph().num_edges(),
            restored.active_graph().num_edges()
        );
    }

    #[test]
    fn restore_rejects_corrupt_state_without_mutation() {
        let mut env = small_env();
        let mut rng = StdRng::seed_from_u64(50);
        env.reset(&mut rng);
        let good = env.state_json();

        let mut bad = small_env();
        bad.reset(&mut rng);
        let before = bad.current_obs().flat.clone();
        // Out-of-range sequence index must be rejected cleanly.
        let corrupt = Json::obj([
            ("seq_idx", Json::Num(99.0)),
            ("t", Json::Num(3.0)),
            ("history", Json::Arr(vec![])),
        ]);
        assert!(bad.restore_state(&corrupt).is_err());
        assert_eq!(
            bad.current_obs().flat,
            before,
            "failed restore must not mutate"
        );
        // The good state still restores.
        assert!(bad.restore_state(&good).is_ok());
    }

    #[test]
    fn forced_lp_failure_degrades_reward_but_completes_episode() {
        let mut env = small_env();
        let mut rng = StdRng::seed_from_u64(60);
        env.reset(&mut rng);
        // Force every remaining oracle solve this episode through the
        // fallback ladder.
        env.context().oracle.inject_pivot_limit(100);
        let action = vec![0.0; env.action_dim()];
        let mut done = false;
        let mut steps = 0;
        while !done {
            let s = env.step(&action, &mut rng);
            assert!(s.reward.is_finite(), "degraded oracle keeps rewards finite");
            done = s.done;
            steps += 1;
        }
        assert_eq!(steps, 5);
        let stats = env.context().oracle.stats();
        assert!(stats.fallbacks > 0, "fallbacks must be counted");
    }

    #[test]
    fn try_paths_type_errors_instead_of_panicking() {
        let g = zoo::cesnet();
        let mut rng = StdRng::seed_from_u64(70);
        let seqs = standard_sequences(&g, 1, 6, 3, &mut rng);
        let config = DdrEnvConfig {
            memory: 2,
            ..Default::default()
        };
        let ctx = GraphContext::new(g.clone(), seqs);
        let m_e = g.num_edges();

        // Short action.
        assert!(matches!(
            config.try_action_to_weights(&vec![0.0; m_e - 1], m_e),
            Err(CoreError::ActionTooShort { .. })
        ));
        // NaN action entry.
        let mut nan_action = vec![0.0; m_e];
        nan_action[3] = f64::NAN;
        assert!(matches!(
            config.try_action_to_weights(&nan_action, m_e),
            Err(CoreError::Routing(_))
        ));
        // The happy path matches the panicking wrapper.
        let ok = config.try_action_to_weights(&vec![0.1; m_e], m_e).unwrap();
        assert_eq!(ok, config.action_to_weights(&vec![0.1; m_e], m_e));

        let weights = vec![1.0; m_e];
        let routing = softmin_routing(&g, &weights, &config.softmin).unwrap();
        // Mismatched demand matrix.
        let wrong = DemandMatrix::zeros(g.num_nodes() + 2);
        assert!(matches!(
            ctx.try_ratio(&routing, &wrong),
            Err(CoreError::DemandMismatch { .. })
        ));
        // Non-finite demand. `from_fn` bypasses `set`'s checks, but its
        // `.max(0.0)` clamp scrubs NaN — infinity is the one non-finite
        // value constructible in-tree.
        let inf_dm = DemandMatrix::from_fn(g.num_nodes(), |s, t| {
            if (s, t) == (0, 1) {
                f64::INFINITY
            } else {
                0.0
            }
        });
        assert!(matches!(
            ctx.try_ratio(&routing, &inf_dm),
            Err(CoreError::NonFiniteDemand { src: 0, dst: 1 })
        ));
        // A well-formed matrix routes fine.
        let good = &ctx.sequences[0][3];
        let outcome = ctx.try_ratio(&routing, good).unwrap();
        assert!(outcome.ratio >= 1.0 - 1e-6);
    }

    #[test]
    #[should_panic(expected = "must exceed memory")]
    fn rejects_short_sequences() {
        let g = zoo::cesnet();
        let mut rng = StdRng::seed_from_u64(5);
        let seqs = standard_sequences(&g, 1, 3, 3, &mut rng);
        DdrEnv::new(
            GraphContext::new(g, seqs),
            DdrEnvConfig {
                memory: 5,
                ..Default::default()
            },
        );
    }
}
