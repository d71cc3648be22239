//! The FSMD (finite-state machine with datapath) netlist model.
//!
//! A synthesized design is a controller stepping through the schedule's
//! states plus a datapath executing each state's bound operations. The
//! model here keeps the scheduled DFGs (they *are* the per-state datapath)
//! together with the control skeleton: which states belong to which
//! segment, and how loop counters sequence iterations.

use hls_core::{Lowered, Port, Schedule, Segment, SynthesisResult};
use hls_ir::{CmpOp, Function, VarId};

/// Control structure of one segment.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Control {
    /// Straight-line: the segment's states execute once.
    Straight {
        /// Number of states (cycles).
        depth: u32,
    },
    /// Loop: the segment's states repeat `trip` times while the counter
    /// steps from `start` by `step` until `cmp` against `bound` fails.
    Loop {
        /// Loop label.
        label: String,
        /// Number of body states.
        depth: u32,
        /// Trip count.
        trip: usize,
        /// Counter register.
        counter: VarId,
        /// Counter start value.
        start: i64,
        /// Exit comparison.
        cmp: CmpOp,
        /// Loop bound.
        bound: i64,
        /// Counter step.
        step: i64,
    },
}

impl Control {
    /// Total cycles this segment contributes per invocation.
    pub fn cycles(&self) -> u64 {
        match self {
            Control::Straight { depth } => *depth as u64,
            Control::Loop { depth, trip, .. } => *depth as u64 * *trip as u64,
        }
    }
}

/// A complete FSMD design: control skeleton plus scheduled datapath.
#[derive(Debug, Clone)]
pub struct Fsmd {
    /// Design name (from the function).
    pub name: String,
    /// Interface ports.
    pub ports: Vec<Port>,
    /// The clock period (ns) the schedule targets.
    pub clock_ns: f64,
    /// The lowered design (segments with their DFGs and the staged
    /// function whose variables the datapath references).
    pub lowered: Lowered,
    /// One schedule per segment.
    pub schedules: Vec<Schedule>,
    /// Per-segment control.
    pub control: Vec<Control>,
}

impl Fsmd {
    /// Builds the FSMD from a synthesis result.
    pub fn from_synthesis(result: &SynthesisResult) -> Self {
        let control = result
            .lowered
            .segments
            .iter()
            .zip(&result.schedules)
            .map(|(seg, sched)| match seg {
                Segment::Straight { .. } => Control::Straight { depth: sched.depth },
                Segment::Loop {
                    label,
                    trip,
                    counter,
                    start,
                    cmp,
                    bound,
                    step,
                    ..
                } => Control::Loop {
                    label: label.clone(),
                    depth: sched.depth.max(1),
                    trip: *trip,
                    counter: *counter,
                    start: *start,
                    cmp: *cmp,
                    bound: *bound,
                    step: *step,
                },
            })
            .collect();
        Fsmd {
            name: result.lowered.func.name.clone(),
            ports: result.lowered.ports.clone(),
            clock_ns: result.metrics.clock_ns,
            lowered: result.lowered.clone(),
            schedules: result.schedules.clone(),
            control,
        }
    }

    /// The function whose variables the datapath references.
    pub fn function(&self) -> &Function {
        &self.lowered.func
    }

    /// Total FSM states (idle excluded).
    pub fn state_count(&self) -> usize {
        self.schedules.iter().map(|s| s.depth.max(1) as usize).sum()
    }

    /// Cycles per invocation (sequential execution; matches the
    /// scheduler's latency when no loop is pipelined).
    pub fn cycles_per_call(&self) -> u64 {
        self.control.iter().map(Control::cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_core::{synthesize, Directives, TechLibrary};
    use hls_ir::{Expr, FunctionBuilder, Ty};

    fn simple_design() -> SynthesisResult {
        let mut b = FunctionBuilder::new("acc4");
        let x = b.param_array("x", Ty::fixed(10, 0), 4);
        let out = b.param_scalar("out", Ty::fixed(14, 4));
        let acc = b.local("acc", Ty::fixed(14, 4));
        b.assign(acc, Expr::int_const(0));
        b.for_loop("sum", 0, CmpOp::Lt, 4, 1, |b, k| {
            b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
        });
        b.assign(out, Expr::var(acc));
        synthesize(
            &b.build(),
            &Directives::new(10.0),
            &TechLibrary::asic_100mhz(),
        )
        .expect("ok")
    }

    #[test]
    fn control_mirrors_segments() {
        let r = simple_design();
        let fsmd = Fsmd::from_synthesis(&r);
        assert_eq!(fsmd.control.len(), 3); // init, loop, commit
        assert!(matches!(fsmd.control[0], Control::Straight { depth: 1 }));
        match &fsmd.control[1] {
            Control::Loop {
                trip, depth, label, ..
            } => {
                assert_eq!(*trip, 4);
                assert_eq!(*depth, 1);
                assert_eq!(label, "sum");
            }
            other => panic!("expected loop, got {other:?}"),
        }
        assert_eq!(fsmd.cycles_per_call(), r.metrics.latency_cycles);
    }

    #[test]
    fn ports_propagate() {
        let r = simple_design();
        let fsmd = Fsmd::from_synthesis(&r);
        assert_eq!(fsmd.ports.len(), 2);
        assert_eq!(fsmd.ports[0].name, "x");
        assert_eq!(fsmd.name, "acc4");
        assert!(fsmd.state_count() >= 3);
    }
}
