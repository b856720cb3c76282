//! Pass-through wrappers that time calls into a layer's public trait
//! from outside. Each forwards every method to the wrapped value
//! unchanged — in particular `infer_batch` goes to the inner
//! `infer_batch`, so coalesced batching is exactly what the fleet does
//! without the benchmark.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gddr_core::{DdrEnv, DdrObs};
use gddr_nn::{ParamStore, Tape};
use gddr_rl::{ActionSample, Env, Evaluation, Policy, Step};
use gddr_rng::rngs::StdRng;
use gddr_serve::engine::InferenceReply;
use gddr_serve::{BatchItem, EpochRequest, InferenceEngine};
use gddr_traffic::DemandMatrix;

use crate::ledger::cpu_time;

/// Engine-call totals shared by every engine of a fleet. Statistics
/// only, so the counters are `Relaxed`; they are read after
/// `ShardRouter::run` has joined its threads.
#[derive(Debug, Default)]
pub struct EngineStats {
    calls: AtomicU64,
    items: AtomicU64,
    busy_ns: AtomicU64,
}

/// A point-in-time copy of [`EngineStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineTotals {
    /// `infer`/`infer_batch` calls.
    pub calls: u64,
    /// Requests answered by those calls.
    pub items: u64,
    /// Wall time inside the calls, summed over threads.
    pub busy_ns: u64,
}

impl EngineStats {
    /// Reads the current totals.
    pub fn totals(&self) -> EngineTotals {
        EngineTotals {
            calls: self.calls.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    fn add(&self, items: usize, start: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items as u64, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl EngineTotals {
    /// Totals accumulated since `earlier`.
    pub fn since(&self, earlier: &EngineTotals) -> EngineTotals {
        EngineTotals {
            calls: self.calls - earlier.calls,
            items: self.items - earlier.items,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

/// Times an [`InferenceEngine`].
pub struct TimedEngine {
    inner: Box<dyn InferenceEngine>,
    stats: Arc<EngineStats>,
}

impl TimedEngine {
    /// Wraps `inner`, adding its calls to `stats`.
    pub fn new(inner: Box<dyn InferenceEngine>, stats: Arc<EngineStats>) -> Self {
        TimedEngine { inner, stats }
    }
}

impl InferenceEngine for TimedEngine {
    fn infer(&mut self, req: &EpochRequest, history: &[DemandMatrix]) -> InferenceReply {
        let start = Instant::now();
        let reply = self.inner.infer(req, history);
        self.stats.add(1, start);
        reply
    }

    fn infer_batch(&mut self, items: &[BatchItem]) -> Vec<InferenceReply> {
        let start = Instant::now();
        let replies = self.inner.infer_batch(items);
        self.stats.add(items.len(), start);
        replies
    }
}

/// Times [`Env::step`] on a [`DdrEnv`].
pub struct TimedEnv {
    inner: DdrEnv,
    /// Duration of every `step` call, in nanoseconds.
    pub step_ns: Vec<u64>,
}

impl TimedEnv {
    /// Wraps `inner`.
    pub fn new(inner: DdrEnv) -> Self {
        TimedEnv {
            inner,
            step_ns: Vec::new(),
        }
    }

    /// The wrapped environment.
    pub fn inner(&self) -> &DdrEnv {
        &self.inner
    }
}

impl Env for TimedEnv {
    type Obs = DdrObs;

    fn reset(&mut self, rng: &mut StdRng) -> DdrObs {
        self.inner.reset(rng)
    }

    fn step(&mut self, action: &[f64], rng: &mut StdRng) -> Step<DdrObs> {
        let start = Instant::now();
        let step = self.inner.step(action, rng);
        self.step_ns.push(start.elapsed().as_nanos() as u64);
        step
    }

    fn action_dim(&self) -> usize {
        self.inner.action_dim()
    }
}

/// Call totals of one policy method.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTotals {
    /// Calls made.
    pub calls: u64,
    /// Wall time inside them.
    pub busy_ns: u64,
}

impl CallTotals {
    /// Totals accumulated since `earlier`.
    pub fn since(&self, earlier: &CallTotals) -> CallTotals {
        CallTotals {
            calls: self.calls - earlier.calls,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }

    fn add(&mut self, start: Instant) {
        self.calls += 1;
        self.busy_ns += start.elapsed().as_nanos() as u64;
    }
}

/// Times [`Policy::act`] and [`Policy::evaluate`], and marks where each PPO iteration starts: the
/// first `act` after an `evaluate` opens a new rollout.
pub struct TimedPolicy<P> {
    inner: P,
    act: Cell<CallTotals>,
    evaluate: Cell<CallTotals>,
    /// Evaluations whose log-probability, entropy or value was not
    /// finite — inputs that would make PPO skip a minibatch.
    nonfinite: Cell<u64>,
    in_update: Cell<bool>,
    /// Process CPU time at the start of each iteration.
    iteration_starts: RefCell<Vec<Duration>>,
}

impl<P> TimedPolicy<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        TimedPolicy {
            inner,
            act: Cell::default(),
            evaluate: Cell::default(),
            nonfinite: Cell::new(0),
            in_update: Cell::new(false),
            iteration_starts: RefCell::new(Vec::new()),
        }
    }

    /// `act` totals so far.
    pub fn act_totals(&self) -> CallTotals {
        self.act.get()
    }

    /// `evaluate` totals so far.
    pub fn evaluate_totals(&self) -> CallTotals {
        self.evaluate.get()
    }

    /// Non-finite evaluations so far.
    pub fn nonfinite(&self) -> u64 {
        self.nonfinite.get()
    }

    /// Drains the recorded iteration start times (process CPU time) and
    /// rearms the marker, so the next `act` opens a new iteration.
    pub fn take_iteration_starts(&self) -> Vec<Duration> {
        self.in_update.set(true);
        std::mem::take(&mut *self.iteration_starts.borrow_mut())
    }
}

fn bump(cell: &Cell<CallTotals>, start: Instant) {
    let mut totals = cell.get();
    totals.add(start);
    cell.set(totals);
}

impl<P: Policy<Obs = DdrObs>> Policy for TimedPolicy<P> {
    type Obs = DdrObs;

    fn act(&self, obs: &DdrObs, rng: &mut StdRng) -> ActionSample {
        let start = Instant::now();
        if self.in_update.replace(false) {
            self.iteration_starts.borrow_mut().push(cpu_time());
        }
        let sample = self.inner.act(obs, rng);
        bump(&self.act, start);
        sample
    }

    fn act_greedy(&self, obs: &DdrObs) -> Vec<f64> {
        self.inner.act_greedy(obs)
    }

    fn evaluate(&self, tape: &mut Tape, obs: &DdrObs, action: &[f64]) -> Evaluation {
        let start = Instant::now();
        self.in_update.set(true);
        let eval = self.inner.evaluate(tape, obs, action);
        bump(&self.evaluate, start);
        let finite = [eval.log_prob, eval.entropy, eval.value]
            .iter()
            .all(|&v| tape.value(v).as_slice().iter().all(|x| x.is_finite()));
        if !finite {
            self.nonfinite.set(self.nonfinite.get() + 1);
        }
        eval
    }

    fn params(&self) -> &ParamStore {
        self.inner.params()
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        self.inner.params_mut()
    }
}
