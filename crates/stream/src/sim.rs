//! Cycle-accurate co-simulation of a composed stream system.
//!
//! [`SystemSim`] steps every member module's [`CompiledSim`] behind its
//! handshake shell through the system's FIFOs, one system clock at a
//! time. External streams can be throttled by arbitrary per-port
//! [`StallSchedule`]s — the instrument the latency-insensitivity checker
//! uses to prove token streams backpressure-invariant.
//!
//! Timing model (one call to `step` = one clock edge):
//!
//! 1. external sinks pop (when their schedule is not stalling),
//! 2. modules advance in fall-through topological order — a shell in
//!    `Offer` delivers held tokens into channels with space, a `Busy`
//!    shell counts down, an `Idle` shell fires when every input FIFO has
//!    a visible token,
//! 3. external sources push (when not stalling and the boundary FIFO has
//!    space).
//!
//! A token pushed into a registered channel at cycle *t* becomes visible
//! at *t+1*; fall-through channels make it visible at *t* (which is why
//! the graph layer forbids cycles made only of fall-through channels).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use hls_ir::Slot;
use hls_verify::SplitMix64;
use rtl::{CompiledSim, SimError, VcdRecorder};

use crate::graph::{Consumer, Producer, SystemGraph};

/// When an external endpoint refuses to produce/consume a token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StallSchedule {
    /// Never stalls: the endpoint moves a token every cycle it can.
    None,
    /// Stalls on a seeded pseudo-random `stall_pct`% of cycles. The
    /// decision is a pure function of the cycle index, so schedules are
    /// reproducible and independent of simulation interleaving.
    Random {
        /// Generator seed.
        seed: u64,
        /// Percentage of cycles stalled, clamped to 0..=99.
        stall_pct: u8,
    },
    /// Explicit per-cycle pattern, repeated; `true` = stalled.
    Pattern(Vec<bool>),
}

impl StallSchedule {
    /// Is the endpoint stalled at `cycle`?
    pub fn stalled(&self, cycle: u64) -> bool {
        match self {
            StallSchedule::None => false,
            StallSchedule::Random { seed, stall_pct } => {
                let mut g = SplitMix64(seed ^ cycle.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                g.below(100) < u64::from(*stall_pct).min(99)
            }
            StallSchedule::Pattern(p) => {
                if p.is_empty() {
                    false
                } else {
                    p[(cycle % p.len() as u64) as usize]
                }
            }
        }
    }
}

/// Per-endpoint stall schedules, keyed by external stream name. Absent
/// endpoints never stall.
#[derive(Debug, Clone, Default)]
pub struct StallPlan {
    inputs: BTreeMap<String, StallSchedule>,
    outputs: BTreeMap<String, StallSchedule>,
}

impl StallPlan {
    /// The empty plan: nothing ever stalls.
    pub fn none() -> Self {
        StallPlan::default()
    }

    /// Sets the schedule of external input `name`.
    pub fn stall_input(mut self, name: impl Into<String>, s: StallSchedule) -> Self {
        self.inputs.insert(name.into(), s);
        self
    }

    /// Sets the schedule of external output `name`.
    pub fn stall_output(mut self, name: impl Into<String>, s: StallSchedule) -> Self {
        self.outputs.insert(name.into(), s);
        self
    }

    fn input_stalled(&self, name: &str, cycle: u64) -> bool {
        self.inputs.get(name).is_some_and(|s| s.stalled(cycle))
    }

    fn output_stalled(&self, name: &str, cycle: u64) -> bool {
        self.outputs.get(name).is_some_and(|s| s.stalled(cycle))
    }

    fn is_trivial(&self) -> bool {
        let quiet = |s: &StallSchedule| match s {
            StallSchedule::None => true,
            StallSchedule::Random { stall_pct, .. } => *stall_pct == 0,
            StallSchedule::Pattern(p) => p.iter().all(|&b| !b),
        };
        self.inputs.values().all(quiet) && self.outputs.values().all(quiet)
    }
}

/// What went wrong during co-simulation.
#[derive(Debug)]
pub enum SystemSimError {
    /// A member module's core simulator faulted.
    Module {
        /// Instance name.
        instance: String,
        /// The underlying fault.
        source: SimError,
    },
    /// The run hit `max_cycles` before draining.
    Timeout {
        /// The cycle budget that was exhausted.
        max_cycles: u64,
    },
    /// Nothing can ever make progress again (with no stalls configured):
    /// tokens remain but every shell and channel is wedged.
    Deadlock {
        /// The cycle the system wedged at.
        cycle: u64,
    },
    /// The input map names a stream the system does not have, or misses
    /// one it does.
    UnknownInput {
        /// The offending stream name.
        name: String,
    },
}

impl fmt::Display for SystemSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemSimError::Module { instance, source } => {
                write!(f, "instance `{instance}` faulted: {source}")
            }
            SystemSimError::Timeout { max_cycles } => {
                write!(f, "system did not drain within {max_cycles} cycles")
            }
            SystemSimError::Deadlock { cycle } => {
                write!(f, "system deadlocked at cycle {cycle}")
            }
            SystemSimError::UnknownInput { name } => {
                write!(
                    f,
                    "input stream map does not match system inputs at `{name}`"
                )
            }
        }
    }
}

impl std::error::Error for SystemSimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SystemSimError::Module { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The result of a completed run: everything the system emitted.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// Output token streams keyed by external output name, in emission
    /// order. This is the observable the latency-insensitivity check
    /// compares bit for bit.
    pub outputs: BTreeMap<String, Vec<Slot>>,
    /// System cycles until fully drained.
    pub cycles: u64,
    /// Tokens processed (core firings) per instance.
    pub firings: BTreeMap<String, u64>,
}

/// One FIFO channel's runtime state. Tokens are tagged with their push
/// cycle so registered channels hide same-cycle pushes.
struct Fifo {
    q: VecDeque<(u64, Slot)>,
    depth: usize,
    fall_through: bool,
}

impl Fifo {
    fn has_space(&self) -> bool {
        self.q.len() < self.depth
    }

    fn visible(&self, cycle: u64) -> bool {
        self.q
            .front()
            .is_some_and(|&(pushed, _)| pushed < cycle || (self.fall_through && pushed == cycle))
    }

    fn push(&mut self, cycle: u64, slot: Slot) {
        debug_assert!(self.has_space());
        self.q.push_back((cycle, slot));
    }

    fn pop(&mut self, cycle: u64) -> Slot {
        debug_assert!(self.visible(cycle));
        self.q.pop_front().expect("visible implies non-empty").1
    }
}

/// One shell's handshake state.
enum ShellState {
    /// Waiting for a full input token set.
    Idle,
    /// Core running; `outputs` are the precomputed results held until
    /// the countdown models the core's latency.
    Busy { remaining: u64, outputs: Vec<Slot> },
    /// Registered output stage holding tokens not yet accepted
    /// downstream (`None` = already delivered).
    Offer { pending: Vec<Option<Slot>> },
}

/// Cycle-accurate co-simulator for a validated [`SystemGraph`].
pub struct SystemSim<'g> {
    graph: &'g SystemGraph,
    order: Vec<usize>,
    sims: Vec<CompiledSim>,
    states: Vec<ShellState>,
    fifos: Vec<Fifo>,
    /// `in_ch[m][p]` = channel feeding input port `p` of module `m`.
    in_ch: Vec<Vec<usize>>,
    /// `out_ch[m][p]` = channel fed by output port `p` of module `m`.
    out_ch: Vec<Vec<usize>>,
    /// Channel fed by each external input, by external index.
    ext_in_ch: Vec<usize>,
    /// Channel drained by each external output, by external index.
    ext_out_ch: Vec<usize>,
    firings: Vec<u64>,
}

impl<'g> SystemSim<'g> {
    /// Builds the simulator, validating the graph. Channel depths come
    /// from the graph's [`ChannelCfg`](crate::ChannelCfg)s.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`](crate::GraphError) from validation.
    pub fn new(graph: &'g SystemGraph) -> Result<Self, crate::GraphError> {
        Self::with_depth_overrides(graph, &BTreeMap::new())
    }

    /// Like [`SystemSim::new`], with per-channel depth overrides (channel
    /// index → depth, clamped to ≥ 1). The latency-insensitivity checker
    /// uses this to randomize internal buffering.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`](crate::GraphError) from validation.
    pub fn with_depth_overrides(
        graph: &'g SystemGraph,
        depths: &BTreeMap<usize, usize>,
    ) -> Result<Self, crate::GraphError> {
        let topo = graph.validate()?;
        let n = graph.modules.len();
        let sims = graph
            .modules
            .iter()
            .map(|inst| CompiledSim::from_fsmd(&inst.module.fsmd))
            .collect();
        let states = (0..n).map(|_| ShellState::Idle).collect();
        let fifos = graph
            .channels
            .iter()
            .enumerate()
            .map(|(i, c)| Fifo {
                q: VecDeque::new(),
                depth: depths.get(&i).copied().unwrap_or(c.cfg.depth).max(1),
                fall_through: c.cfg.fall_through,
            })
            .collect();
        let mut in_ch: Vec<Vec<usize>> = graph
            .modules
            .iter()
            .map(|inst| vec![usize::MAX; inst.module.shell.inputs.len()])
            .collect();
        let mut out_ch: Vec<Vec<usize>> = graph
            .modules
            .iter()
            .map(|inst| vec![usize::MAX; inst.module.shell.outputs.len()])
            .collect();
        let mut ext_in_ch = vec![usize::MAX; graph.ext_inputs.len()];
        let mut ext_out_ch = vec![usize::MAX; graph.ext_outputs.len()];
        for (ci, c) in graph.channels.iter().enumerate() {
            match c.src {
                Producer::External(i) => ext_in_ch[i] = ci,
                Producer::Module { module, port } => out_ch[module][port] = ci,
            }
            match c.dst {
                Consumer::External(i) => ext_out_ch[i] = ci,
                Consumer::Module { module, port } => in_ch[module][port] = ci,
            }
        }
        Ok(SystemSim {
            graph,
            order: topo.order,
            sims,
            states,
            fifos,
            in_ch,
            out_ch,
            ext_in_ch,
            ext_out_ch,
            firings: vec![0; n],
        })
    }

    /// A VCD recorder with one scope per instance, ready for
    /// [`SystemSim::run_with_vcd`].
    pub fn vcd_recorder(&self) -> VcdRecorder {
        let modules: Vec<(&str, &CompiledSim)> = self
            .graph
            .modules
            .iter()
            .zip(&self.sims)
            .map(|(inst, sim)| (inst.name.as_str(), sim))
            .collect();
        VcdRecorder::new_system(&modules)
    }

    /// Runs the system to completion: feeds each external input its
    /// token stream, collects every external output stream.
    ///
    /// # Errors
    ///
    /// See [`SystemSimError`].
    pub fn run(
        &mut self,
        inputs: &BTreeMap<String, Vec<Slot>>,
        plan: &StallPlan,
        max_cycles: u64,
    ) -> Result<SystemRun, SystemSimError> {
        self.run_inner(inputs, plan, max_cycles, None)
    }

    /// Like [`SystemSim::run`], snapshotting every member simulator into
    /// `recorder` each cycle (one VCD, one scope per instance).
    ///
    /// # Errors
    ///
    /// See [`SystemSimError`].
    pub fn run_with_vcd(
        &mut self,
        inputs: &BTreeMap<String, Vec<Slot>>,
        plan: &StallPlan,
        max_cycles: u64,
        recorder: &mut VcdRecorder,
    ) -> Result<SystemRun, SystemSimError> {
        self.run_inner(inputs, plan, max_cycles, Some(recorder))
    }

    fn run_inner(
        &mut self,
        inputs: &BTreeMap<String, Vec<Slot>>,
        plan: &StallPlan,
        max_cycles: u64,
        mut recorder: Option<&mut VcdRecorder>,
    ) -> Result<SystemRun, SystemSimError> {
        for name in inputs.keys() {
            if !self.graph.ext_inputs.contains(name) {
                return Err(SystemSimError::UnknownInput { name: name.clone() });
            }
        }
        let feeds: Vec<&[Slot]> = self
            .graph
            .ext_inputs
            .iter()
            .map(|name| {
                inputs
                    .get(name)
                    .map(Vec::as_slice)
                    .ok_or_else(|| SystemSimError::UnknownInput { name: name.clone() })
            })
            .collect::<Result<_, _>>()?;
        let mut fed = vec![0usize; feeds.len()];
        let mut collected: Vec<Vec<Slot>> = vec![Vec::new(); self.graph.ext_outputs.len()];

        let mut cycle: u64 = 0;
        loop {
            if cycle >= max_cycles {
                return Err(SystemSimError::Timeout { max_cycles });
            }
            let mut progress = false;

            // 1. External sinks pop.
            for (xi, name) in self.graph.ext_outputs.iter().enumerate() {
                if plan.output_stalled(name, cycle) {
                    continue;
                }
                let ch = self.ext_out_ch[xi];
                if self.fifos[ch].visible(cycle) {
                    collected[xi].push(self.fifos[ch].pop(cycle));
                    progress = true;
                }
            }

            // 2. Modules, producers of fall-through channels first.
            for oi in 0..self.order.len() {
                let m = self.order[oi];
                // Busy -> countdown, maybe become Offer this cycle.
                if let ShellState::Busy { remaining, outputs } = &mut self.states[m] {
                    *remaining -= 1;
                    progress = true;
                    if *remaining == 0 {
                        let pending = outputs.drain(..).map(Some).collect();
                        self.states[m] = ShellState::Offer { pending };
                    }
                }
                // Offer -> deliver what fits downstream.
                if let ShellState::Offer { pending } = &mut self.states[m] {
                    let mut all_delivered = true;
                    for (pi, slot) in pending.iter_mut().enumerate() {
                        if let Some(tok) = slot.take() {
                            let ch = self.out_ch[m][pi];
                            if self.fifos[ch].has_space() {
                                self.fifos[ch].push(cycle, tok);
                                progress = true;
                            } else {
                                *slot = Some(tok);
                                all_delivered = false;
                            }
                        }
                    }
                    if all_delivered {
                        self.states[m] = ShellState::Idle;
                    }
                }
                // Idle -> fire when a full input token set is visible.
                if matches!(self.states[m], ShellState::Idle) {
                    let ready = self.in_ch[m]
                        .iter()
                        .all(|&ch| self.fifos[ch].visible(cycle));
                    if ready {
                        let shell = &self.graph.modules[m].module.shell;
                        let args: Vec<(hls_ir::VarId, Slot)> = self.in_ch[m]
                            .iter()
                            .enumerate()
                            .map(|(pi, &ch)| (shell.inputs[pi].var, self.fifos[ch].pop(cycle)))
                            .collect();
                        let result = self.sims[m].run_call(&args).map_err(|source| {
                            SystemSimError::Module {
                                instance: self.graph.modules[m].name.clone(),
                                source,
                            }
                        })?;
                        let outputs: Vec<Slot> = shell
                            .outputs
                            .iter()
                            .map(|p| {
                                result
                                    .get(&p.var)
                                    .cloned()
                                    .expect("core produces every Out parameter")
                            })
                            .collect();
                        self.states[m] = ShellState::Busy {
                            remaining: shell.shell_latency.max(1),
                            outputs,
                        };
                        self.firings[m] += 1;
                        progress = true;
                    }
                }
            }

            // 3. External sources push.
            for (xi, feed) in feeds.iter().enumerate() {
                let name = &self.graph.ext_inputs[xi];
                if fed[xi] >= feed.len() || plan.input_stalled(name, cycle) {
                    continue;
                }
                let ch = self.ext_in_ch[xi];
                if self.fifos[ch].has_space() {
                    self.fifos[ch].push(cycle, feed[fed[xi]].clone());
                    fed[xi] += 1;
                    progress = true;
                }
            }

            if let Some(r) = recorder.as_deref_mut() {
                r.snapshot_system(cycle, &self.sims);
            }

            cycle += 1;

            let drained = fed.iter().zip(&feeds).all(|(&f, feed)| f == feed.len())
                && self.fifos.iter().all(|f| f.q.is_empty())
                && self.states.iter().all(|s| matches!(s, ShellState::Idle));
            if drained {
                break;
            }
            if !progress && plan.is_trivial() {
                return Err(SystemSimError::Deadlock { cycle });
            }
        }

        let outputs = self
            .graph
            .ext_outputs
            .iter()
            .cloned()
            .zip(collected)
            .collect();
        let firings = self
            .graph
            .modules
            .iter()
            .map(|inst| inst.name.clone())
            .zip(self.firings.iter().copied())
            .collect();
        Ok(SystemRun {
            outputs,
            cycles: cycle,
            firings,
        })
    }
}
