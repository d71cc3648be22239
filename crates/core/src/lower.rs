//! Lowering: structured IR → schedulable segments plus interface synthesis.
//!
//! The transformed function body is cut into *segments*: maximal loop-free
//! straight-line regions (if-converted into one DFG each) and loops (whose
//! bodies become one DFG executed once per iteration). Two smaller passes
//! run first:
//!
//! - **code motion** — loop-independent statements stranded between loops
//!   are hoisted upward so they do not cost an FSM state of their own (the
//!   paper's `ydfe = 0` between the `nfe` and `dfe` loops);
//! - **output staging** — writes to handshake out-parameters are routed
//!   through a staging register and committed in a dedicated final state
//!   (the registered `*data` output), which is why the paper counts
//!   "three cycles for behavior between loops".

use hls_ir::{CmpOp, Direction, Expr, Function, Stmt, Var, VarId, VarKind};

use crate::dfg::{build_dfg, Dfg};
use crate::directives::{Directives, InterfaceKind};

/// One schedulable region.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Segment {
    /// Straight-line code: executes once.
    Straight {
        /// The region's data-flow graph.
        dfg: Dfg,
    },
    /// A loop: the body DFG executes once per iteration.
    Loop {
        /// The loop label (post-merge).
        label: String,
        /// Trip count.
        trip: usize,
        /// Counter variable.
        counter: VarId,
        /// Counter start value.
        start: i64,
        /// Exit comparison.
        cmp: CmpOp,
        /// Loop bound.
        bound: i64,
        /// Counter step.
        step: i64,
        /// Requested initiation interval, if the loop is pipelined.
        pipeline_ii: Option<u32>,
        /// The body data-flow graph.
        dfg: Dfg,
    },
}

impl Segment {
    /// The segment's DFG.
    pub fn dfg(&self) -> &Dfg {
        match self {
            Segment::Straight { dfg } => dfg,
            Segment::Loop { dfg, .. } => dfg,
        }
    }

    /// Label for reports.
    pub fn name(&self) -> String {
        match self {
            Segment::Straight { .. } => "<straight>".to_string(),
            Segment::Loop { label, .. } => label.clone(),
        }
    }
}

/// A synthesized port (interface synthesis output).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Port {
    /// Port name (from the parameter).
    pub name: String,
    /// Data direction.
    pub direction: Direction,
    /// The interface style.
    pub kind: InterfaceKind,
    /// Element width in bits.
    pub width: u32,
    /// Number of elements (1 for scalars).
    pub elements: usize,
}

/// The lowered design.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Lowered {
    /// The function after staging rewrites (what the segments reference).
    pub func: Function,
    /// Segments in execution order.
    pub segments: Vec<Segment>,
    /// Synthesized ports.
    pub ports: Vec<Port>,
    /// Whether a start/done handshake wraps the design.
    pub handshake: bool,
}

/// Lowers a (transformed) function.
pub fn lower(func: &Function, directives: &Directives) -> Lowered {
    let mut func = func.clone();
    crate::transform::hoist_between_loops(&mut func);
    stage_outputs(&mut func, directives);

    // Straight-line segments are the runs of statements between loops,
    // built from slices of the body.
    let mut segments = Vec::new();
    let mut run_start = 0;
    for (i, s) in func.body.iter().enumerate() {
        let Stmt::For(l) = s else { continue };
        if run_start < i {
            segments.push(Segment::Straight {
                dfg: build_dfg(&func, &func.body[run_start..i]),
            });
        }
        run_start = i + 1;
        let d = directives.loop_directive(&l.label);
        segments.push(Segment::Loop {
            label: l.label.clone(),
            trip: l.trip_count(),
            counter: l.var,
            start: l.start,
            cmp: l.cmp,
            bound: l.bound,
            step: l.step,
            pipeline_ii: d.pipeline_ii,
            dfg: build_dfg(&func, &flatten_inner_loops(&l.body)),
        });
    }
    if run_start < func.body.len() {
        segments.push(Segment::Straight {
            dfg: build_dfg(&func, &func.body[run_start..]),
        });
    }

    let ports = synthesize_ports(&func, directives);
    Lowered {
        func,
        segments,
        ports,
        handshake: true,
    }
}

/// Inner loops inside a segment body are fully expanded (the paper's designs
/// have no nesting after transforms; this keeps lowering total).
fn flatten_inner_loops(stmts: &[Stmt]) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in stmts {
        match s {
            Stmt::For(l) => {
                for k in l.iteration_values() {
                    out.push(Stmt::Assign {
                        var: l.var,
                        value: Expr::int_const(k),
                    });
                    out.extend(flatten_inner_loops(&l.body));
                }
            }
            Stmt::If { cond, then_, else_ } => out.push(Stmt::If {
                cond: cond.clone(),
                then_: flatten_inner_loops(then_),
                else_: flatten_inner_loops(else_),
            }),
            other => out.push(other.clone()),
        }
    }
    out
}

/// Routes assignments to handshake out-parameters through staging registers
/// and appends a final commit statement per staged output.
fn stage_outputs(func: &mut Function, directives: &Directives) {
    let staged: Vec<VarId> = func
        .params
        .iter()
        .copied()
        .filter(|p| {
            let v = func.var(*p);
            !v.is_array()
                && func.param_direction(*p) == Direction::Out
                && directives.interface_kind(&v.name) == InterfaceKind::RegisterHandshake
        })
        .collect();
    if staged.is_empty() {
        return;
    }
    let mut commits = Vec::new();
    for p in staged {
        let decl = func.var(p).clone();
        let stage = VarId::from_raw(func.vars.len() as u32);
        func.vars.push(Var {
            name: format!("{}_stage", decl.name),
            ty: decl.ty,
            kind: VarKind::Local,
            len: None,
        });
        rewrite_var(&mut func.body, p, stage);
        commits.push(Stmt::Assign {
            var: p,
            value: Expr::var(stage),
        });
    }
    func.body.extend(commits);
}

fn rewrite_var(stmts: &mut [Stmt], from: VarId, to: VarId) {
    for s in stmts {
        match s {
            Stmt::Assign { var, value } => {
                if *var == from {
                    *var = to;
                }
                *value = value.substitute(&|v| (v == from).then(|| Expr::var(to)));
            }
            Stmt::Store {
                array,
                index,
                value,
            } => {
                if *array == from {
                    *array = to;
                }
                *index = index.substitute(&|v| (v == from).then(|| Expr::var(to)));
                *value = value.substitute(&|v| (v == from).then(|| Expr::var(to)));
            }
            Stmt::For(l) => rewrite_var(&mut l.body, from, to),
            Stmt::If { cond, then_, else_ } => {
                *cond = cond.substitute(&|v| (v == from).then(|| Expr::var(to)));
                rewrite_var(then_, from, to);
                rewrite_var(else_, from, to);
            }
        }
    }
}

fn synthesize_ports(func: &Function, directives: &Directives) -> Vec<Port> {
    func.params
        .iter()
        .map(|&p| {
            let v = func.var(p);
            Port {
                name: v.name.clone(),
                direction: func.param_direction(p),
                kind: directives.interface_kind(&v.name),
                width: v.ty.width(),
                elements: v.len.unwrap_or(1),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::{FunctionBuilder, Ty};

    /// Models the paper's shape: init, loop, init-between, loop, tail.
    fn two_loop_func() -> Function {
        let mut b = FunctionBuilder::new("two");
        let x = b.param_array("x", Ty::fixed(10, 0), 8);
        let out = b.param_scalar("out", Ty::fixed(20, 4));
        let acc1 = b.local("acc1", Ty::fixed(20, 4));
        let acc2 = b.local("acc2", Ty::fixed(20, 4));
        b.assign(acc1, Expr::int_const(0));
        b.for_loop("l1", 0, CmpOp::Lt, 8, 1, |b, k| {
            b.assign(
                acc1,
                Expr::add(Expr::var(acc1), Expr::load(x, Expr::var(k))),
            );
        });
        // Stranded between the loops, like the paper's `ydfe = 0`.
        b.assign(acc2, Expr::int_const(0));
        b.for_loop("l2", 0, CmpOp::Lt, 8, 1, |b, k| {
            b.assign(
                acc2,
                Expr::add(Expr::var(acc2), Expr::load(x, Expr::var(k))),
            );
        });
        b.assign(out, Expr::add(Expr::var(acc1), Expr::var(acc2)));
        b.build()
    }

    #[test]
    fn hoisting_removes_stranded_state() {
        let f = two_loop_func();
        let d = Directives::new(10.0);
        let lowered = lower(&f, &d);
        // Expected segments: [init straight][l1][l2][tail+commit straight(s)]
        let names: Vec<String> = lowered.segments.iter().map(Segment::name).collect();
        assert_eq!(
            names,
            vec!["<straight>", "l1", "l2", "<straight>"],
            "acc2 init should be hoisted above l1"
        );
    }

    #[test]
    fn output_staging_appends_commit() {
        let f = two_loop_func();
        let d = Directives::new(10.0);
        let lowered = lower(&f, &d);
        // The final straight segment must write the out parameter.
        let last = lowered.segments.last().expect("segments");
        let out_id = f.params[1];
        assert!(last.dfg().live_out.contains(&out_id));
        // The staging variable exists.
        assert!(lowered.func.iter_vars().any(|(_, v)| v.name == "out_stage"));
    }

    #[test]
    fn ports_reflect_interface_synthesis() {
        let f = two_loop_func();
        let d = Directives::new(10.0).interface("x", InterfaceKind::Stream);
        let lowered = lower(&f, &d);
        let x = &lowered.ports[0];
        assert_eq!(x.name, "x");
        assert_eq!(x.kind, InterfaceKind::Stream);
        assert_eq!(x.direction, Direction::In);
        assert_eq!(x.width, 10);
        assert_eq!(x.elements, 8);
        let out = &lowered.ports[1];
        assert_eq!(out.direction, Direction::Out);
        assert_eq!(out.kind, InterfaceKind::RegisterHandshake);
    }

    #[test]
    fn loop_segments_carry_counter_info() {
        let f = two_loop_func();
        let lowered = lower(&f, &Directives::new(10.0));
        match &lowered.segments[1] {
            Segment::Loop {
                label,
                trip,
                start,
                step,
                bound,
                ..
            } => {
                assert_eq!(label, "l1");
                assert_eq!(*trip, 8);
                assert_eq!(*start, 0);
                assert_eq!(*step, 1);
                assert_eq!(*bound, 8);
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn inner_loops_are_flattened() {
        let mut b = FunctionBuilder::new("nest");
        let a = b.param_array("a", Ty::int(8), 4);
        let out = b.param_scalar("out", Ty::int(16));
        let acc = b.local("acc", Ty::int(16));
        b.for_loop("outer", 0, CmpOp::Lt, 2, 1, |b, _| {
            b.for_loop("inner", 0, CmpOp::Lt, 4, 1, |b, j| {
                b.assign(acc, Expr::add(Expr::var(acc), Expr::load(a, Expr::var(j))));
            });
        });
        b.assign(out, Expr::var(acc));
        let f = b.build();
        let lowered = lower(&f, &Directives::new(10.0));
        // outer remains a loop segment; inner is flattened into its body DFG.
        let loop_segs: Vec<&Segment> = lowered
            .segments
            .iter()
            .filter(|s| matches!(s, Segment::Loop { .. }))
            .collect();
        assert_eq!(loop_segs.len(), 1);
        // Inner flattening yields 4 loads in the body DFG.
        let dfg = loop_segs[0].dfg();
        let loads = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, crate::dfg::NodeKind::Load(_)))
            .count();
        assert_eq!(loads, 4);
    }
}
