//! Resource-constrained list scheduling with operator chaining.
//!
//! Scheduling "transforms the sequential specification into an architecture
//! with a well defined cycle-by-cycle behavior" (Section 2.5). Nodes are
//! placed into cycles in priority order (longest combinational path first);
//! a node may *chain* combinationally after a same-cycle predecessor as long
//! as the accumulated delay fits the clock period, which is what lets a
//! complete complex MAC execute in a single 10 ns cycle.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use hls_ir::VarId;

use crate::dfg::{Dfg, FixedBitSet, NodeId, NodeKind};
use crate::directives::Directives;
use crate::error::SynthesisError;
use crate::tech::{OpClass, TechLibrary};

/// The cycle-by-cycle placement of one DFG.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Cycle of each node (indexed by [`NodeId::index`]).
    pub node_cycle: Vec<u32>,
    /// Start time of each node within its cycle (ns).
    pub node_start_ns: Vec<f64>,
    /// End time of each node within its cycle (ns).
    pub node_end_ns: Vec<f64>,
    /// Number of cycles the region occupies.
    pub depth: u32,
    /// Operator class per node (resolved against the array mappings).
    pub node_class: Vec<OpClass>,
    /// Width used for delay/area characterization per node (operand width
    /// for multipliers, output width otherwise).
    pub node_width: Vec<u32>,
}

/// Start and end times hash as their bit patterns. `-0.0` and `0.0`
/// compare equal but hash apart, so the hash can only tell equal
/// schedules apart, never merge different ones.
impl Hash for Schedule {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.node_cycle.hash(h);
        for times in [&self.node_start_ns, &self.node_end_ns] {
            times.len().hash(h);
            for t in times {
                t.to_bits().hash(h);
            }
        }
        self.depth.hash(h);
        self.node_class.hash(h);
        self.node_width.hash(h);
    }
}

impl Schedule {
    /// Nodes placed in `cycle`, in start-time order.
    pub fn nodes_in_cycle(&self, cycle: u32) -> Vec<NodeId> {
        let mut v: Vec<usize> = (0..self.node_cycle.len())
            .filter(|i| self.node_cycle[*i] == cycle)
            .collect();
        v.sort_by(|a, b| {
            self.node_start_ns[*a]
                .partial_cmp(&self.node_start_ns[*b])
                .expect("finite start times")
        });
        v.into_iter().map(|i| NodeId(i as u32)).collect()
    }

    /// The longest combinational path in any cycle (critical path, ns).
    pub fn critical_path_ns(&self) -> f64 {
        self.node_end_ns.iter().cloned().fold(0.0, f64::max)
    }
}

/// Schedules one DFG.
///
/// # Errors
///
/// Returns [`SynthesisError::InfeasibleClock`] when a single operation is
/// slower than the clock period and [`SynthesisError::Unschedulable`] when
/// resource constraints cannot be met.
pub fn schedule_dfg(
    dfg: &Dfg,
    directives: &Directives,
    lib: &TechLibrary,
    mem_ports: &dyn Fn(VarId) -> Option<(u32, u32)>,
) -> Result<Schedule, SynthesisError> {
    let is_memory = |v: VarId| mem_ports(v).is_some();
    let clock = directives.clock_period_ns;
    let n = dfg.len();
    let (classes, char_widths) = node_resources(dfg, &is_memory);
    let delays: Vec<f64> = classes
        .iter()
        .zip(&char_widths)
        .map(|(class, width)| lib.delay(*class, *width))
        .collect();

    for (i, d) in delays.iter().enumerate() {
        if *d > clock {
            return Err(SynthesisError::InfeasibleClock {
                op: format!(
                    "{:?} ({} bits)",
                    dfg.nodes()[i].kind,
                    dfg.nodes()[i].format.width()
                ),
                delay_ns: *d,
                clock_ns: clock,
            });
        }
    }

    // Successor lists in CSR (flattened) form: one contiguous `u32` arena
    // indexed by per-node offsets, replacing the `Vec<Vec<_>>` the hot loop
    // used to chase. Node indices are topological by construction (the DFG
    // builder appends operands before their consumers), so a single reverse
    // sweep yields the longest-path-to-sink priorities.
    let mut succ_off = vec![0u32; n + 1];
    for nd in dfg.nodes() {
        for p in &nd.preds {
            succ_off[p.index() + 1] += 1;
        }
    }
    for i in 0..n {
        succ_off[i + 1] += succ_off[i];
    }
    let mut succ = vec![0u32; succ_off[n] as usize];
    let mut fill = succ_off.clone();
    for (i, nd) in dfg.nodes().iter().enumerate() {
        for p in &nd.preds {
            succ[fill[p.index()] as usize] = i as u32;
            fill[p.index()] += 1;
        }
    }
    let succs_of = |i: usize| &succ[succ_off[i] as usize..succ_off[i + 1] as usize];

    let mut priority = vec![0.0f64; n];
    for i in (0..n).rev() {
        let down = succs_of(i)
            .iter()
            .map(|s| priority[*s as usize])
            .fold(0.0, f64::max);
        priority[i] = delays[i] + down;
    }

    let mut node_cycle = vec![u32::MAX; n];
    let mut node_start = vec![0.0f64; n];
    let mut node_end = vec![0.0f64; n];
    let mut remaining = n;
    let mut cycle: u32 = 0;
    let max_cycles = (n as u32 + 4) * 4 + 64;

    // Readiness is tracked incrementally: a per-node count of unscheduled
    // predecessors (duplicate operand edges are mirrored in the CSR arena,
    // so the counts stay consistent), a bitset of the nodes placed in the
    // cycle being filled (the chaining-start computation only needs "was
    // this pred placed *this* cycle"), and explicit ready queues instead of
    // per-iteration rescans of every node.
    //
    // Equivalence with the rescan formulation is exact: a ready node that
    // fails placement in cycle `c` can never succeed later within `c` —
    // its chaining start is fixed (all predecessors are already scheduled)
    // and per-cycle resource usage only grows — so the original's repeated
    // rescans only ever place *newly ready* nodes after their first
    // attempt. Processing each newly-ready batch in (priority desc, index
    // asc) order reproduces the stable-sorted rescan bit for bit, and
    // failed nodes defer to the next cycle's queue.
    let mut pending_preds: Vec<u32> = dfg.nodes().iter().map(|nd| nd.preds.len() as u32).collect();
    let mut placed_in_cycle = FixedBitSet::new(n);
    let mut ready: Vec<u32> = (0..n as u32)
        .filter(|&i| pending_preds[i as usize] == 0)
        .collect();
    let by_priority = |priority: &[f64], batch: &mut Vec<u32>| {
        batch.sort_unstable_by(|a, b| {
            priority[*b as usize]
                .partial_cmp(&priority[*a as usize])
                .expect("finite priorities")
                .then_with(|| a.cmp(b))
        });
    };

    while remaining > 0 {
        if cycle > max_cycles {
            return Err(SynthesisError::Unschedulable {
                context: format!("{remaining} operations left after {cycle} cycles"),
            });
        }
        let mut fu_used: BTreeMap<OpClass, u32> = BTreeMap::new();
        let mut mem_reads: BTreeMap<VarId, u32> = BTreeMap::new();
        let mut mem_writes: BTreeMap<VarId, u32> = BTreeMap::new();
        placed_in_cycle.clear();
        let mut deferred: Vec<u32> = Vec::new();
        let mut batch = std::mem::take(&mut ready);
        while !batch.is_empty() {
            by_priority(&priority, &mut batch);
            let mut newly_ready: Vec<u32> = Vec::new();
            for &iu in &batch {
                let i = iu as usize;
                let nd = &dfg.nodes()[i];
                let start = nd
                    .preds
                    .iter()
                    .map(|p| {
                        if placed_in_cycle.contains(p.index()) {
                            node_end[p.index()]
                        } else {
                            0.0
                        }
                    })
                    .fold(0.0, f64::max);
                let class = classes[i];
                let mut fits = start + delays[i] <= clock;
                if fits {
                    if let Some(limit) = directives.fu_limit(class) {
                        if fu_used.get(&class).copied().unwrap_or(0) >= limit {
                            fits = false;
                        }
                    }
                }
                if fits {
                    if let Some(arr) = nd.accessed_array() {
                        if let Some((rp, wp)) = mem_ports(arr) {
                            match class {
                                OpClass::MemRead
                                    if mem_reads.get(&arr).copied().unwrap_or(0) >= rp =>
                                {
                                    fits = false;
                                }
                                OpClass::MemWrite
                                    if mem_writes.get(&arr).copied().unwrap_or(0) >= wp =>
                                {
                                    fits = false;
                                }
                                _ => {}
                            }
                        }
                    }
                }
                if !fits {
                    deferred.push(iu); // must wait for the next cycle
                    continue;
                }
                node_cycle[i] = cycle;
                node_start[i] = start;
                node_end[i] = start + delays[i];
                placed_in_cycle.insert(i);
                *fu_used.entry(class).or_insert(0) += 1;
                if let Some(arr) = nd.accessed_array() {
                    if is_memory(arr) {
                        match class {
                            OpClass::MemRead => *mem_reads.entry(arr).or_insert(0) += 1,
                            OpClass::MemWrite => *mem_writes.entry(arr).or_insert(0) += 1,
                            _ => {}
                        }
                    }
                }
                remaining -= 1;
                for &s in succs_of(i) {
                    pending_preds[s as usize] -= 1;
                    if pending_preds[s as usize] == 0 {
                        newly_ready.push(s);
                    }
                }
            }
            batch = newly_ready;
        }
        ready = deferred;
        if remaining > 0 {
            cycle += 1;
        }
    }

    let depth = if n == 0 {
        0
    } else {
        node_cycle.iter().copied().max().unwrap_or(0) + 1
    };
    Ok(Schedule {
        node_cycle,
        node_start_ns: node_start,
        node_end_ns: node_end,
        depth,
        node_class: classes,
        node_width: char_widths,
    })
}

/// Per-node operator classes and characterization widths — the one
/// resource model the scheduler, the allocator (via [`Schedule`]'s
/// `node_class`/`node_width`) and the explorer's lower bound
/// (`crate::bound`) all price against. Multipliers characterize at the
/// wider *operand* width; everything else at its output width.
pub(crate) fn node_resources(
    dfg: &Dfg,
    is_memory: &dyn Fn(VarId) -> bool,
) -> (Vec<OpClass>, Vec<u32>) {
    let classes: Vec<OpClass> = dfg
        .nodes()
        .iter()
        .map(|nd| nd.op_class(is_memory))
        .collect();
    let char_widths: Vec<u32> = dfg
        .nodes()
        .iter()
        .map(|nd| match &nd.kind {
            NodeKind::Bin(hls_ir::BinOp::Mul) => nd
                .preds
                .iter()
                .take(2)
                .map(|p| dfg.node(*p).format.width())
                .max()
                .unwrap_or(nd.format.width()),
            _ => nd.format.width(),
        })
        .collect();
    (classes, char_widths)
}

/// The minimum initiation interval forced by loop-carried recurrences.
///
/// One pass over the graph collects, per variable, the earliest read/load
/// cycle and the latest write/store cycle; the per-variable span (when the
/// write lands no earlier than the read) is the recurrence's minimum II.
pub fn recurrence_min_ii(dfg: &Dfg, schedule: &Schedule) -> u32 {
    let mut first_read: BTreeMap<VarId, u32> = BTreeMap::new();
    let mut last_write: BTreeMap<VarId, u32> = BTreeMap::new();
    let mut first_load: BTreeMap<VarId, u32> = BTreeMap::new();
    let mut last_store: BTreeMap<VarId, u32> = BTreeMap::new();
    for (id, n) in dfg.iter() {
        let c = schedule.node_cycle[id.index()];
        match n.kind {
            NodeKind::VarRead(v) => {
                let e = first_read.entry(v).or_insert(c);
                *e = (*e).min(c);
            }
            NodeKind::VarWrite(v) => {
                let e = last_write.entry(v).or_insert(c);
                *e = (*e).max(c);
            }
            NodeKind::Load(a) => {
                let e = first_load.entry(a).or_insert(c);
                *e = (*e).min(c);
            }
            NodeKind::Store(a) | NodeKind::StoreCond(a) => {
                let e = last_store.entry(a).or_insert(c);
                *e = (*e).max(c);
                // Stores also count as writes for scalar-style recurrences
                // (matching the historical per-variable scan).
                let w = last_write.entry(a).or_insert(c);
                *w = (*w).max(c);
            }
            _ => {}
        }
    }

    let mut min_ii = 1u32;
    // Scalar recurrence: write cycle - read cycle + 1.
    for var in &dfg.live_out {
        if !dfg.live_in.contains(var) {
            continue;
        }
        if let (Some(&r), Some(&w)) = (first_read.get(var), last_write.get(var)) {
            if w >= r {
                min_ii = min_ii.max(w - r + 1);
            }
        }
    }
    // Array recurrences (load and store of the same array in the body).
    for (arr, &w) in &last_store {
        if let Some(&l) = first_load.get(arr) {
            if w >= l {
                min_ii = min_ii.max(w - l + 1);
            }
        }
    }
    min_ii
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::build_dfg;
    use hls_ir::{CmpOp, Expr, FunctionBuilder, Ty};

    fn is_reg(_: VarId) -> Option<(u32, u32)> {
        None
    }

    #[test]
    fn mac_chains_into_one_cycle() {
        let mut b = FunctionBuilder::new("mac");
        let x = b.param_scalar("x", Ty::fixed(10, 0));
        let c = b.param_scalar("c", Ty::fixed(10, 0));
        let acc = b.param_scalar("acc", Ty::fixed(22, 2));
        b.assign(
            acc,
            Expr::add(Expr::var(acc), Expr::mul(Expr::var(x), Expr::var(c))),
        );
        let f = b.build();
        let dfg = build_dfg(&f, &f.body);
        let d = Directives::new(10.0);
        let lib = TechLibrary::asic_100mhz();
        let s = schedule_dfg(&dfg, &d, &lib, &is_reg).expect("schedules");
        assert_eq!(s.depth, 1, "complex of a simple MAC must fit one cycle");
        assert!(s.critical_path_ns() <= 10.0);
    }

    #[test]
    fn long_chain_splits_across_cycles() {
        // Eight chained 20-bit multiplies cannot fit one 10 ns cycle.
        let mut b = FunctionBuilder::new("chain");
        let x = b.param_scalar("x", Ty::fixed(8, 2));
        let out = b.param_scalar("out", Ty::fixed(8, 2));
        let mut tmp = Vec::new();
        for i in 0..4 {
            tmp.push(b.local(format!("t{i}"), Ty::fixed(8, 2)));
        }
        b.assign(tmp[0], Expr::mul(Expr::var(x), Expr::var(x)));
        for i in 1..4 {
            b.assign(tmp[i], Expr::mul(Expr::var(tmp[i - 1]), Expr::var(x)));
        }
        b.assign(out, Expr::var(tmp[3]));
        let f = b.build();
        let dfg = build_dfg(&f, &f.body);
        let d = Directives::new(10.0);
        let lib = TechLibrary::asic_100mhz();
        let s = schedule_dfg(&dfg, &d, &lib, &is_reg).expect("schedules");
        assert!(s.depth >= 2, "depth = {}", s.depth);
        // Dependences respected.
        for (id, n) in dfg.iter() {
            for p in &n.preds {
                assert!(s.node_cycle[p.index()] <= s.node_cycle[id.index()]);
                if s.node_cycle[p.index()] == s.node_cycle[id.index()] {
                    assert!(s.node_end_ns[p.index()] <= s.node_start_ns[id.index()] + 1e-9);
                }
            }
        }
    }

    #[test]
    fn fu_limit_serializes_ops() {
        // Four independent multiplies, one multiplier -> at least 4 cycles?
        // No: chaining is impossible for 10-bit muls (4.45 ns each, two fit),
        // but a 1-multiplier limit forces one per cycle.
        let mut b = FunctionBuilder::new("par");
        let xs: Vec<_> = (0..4)
            .map(|i| b.param_scalar(format!("x{i}"), Ty::fixed(10, 0)))
            .collect();
        let outs: Vec<_> = (0..4)
            .map(|i| b.param_scalar(format!("o{i}"), Ty::fixed(20, 0)))
            .collect();
        for i in 0..4 {
            b.assign(outs[i], Expr::mul(Expr::var(xs[i]), Expr::var(xs[i])));
        }
        let f = b.build();
        let dfg = build_dfg(&f, &f.body);
        let lib = TechLibrary::asic_100mhz();

        let free = schedule_dfg(&dfg, &Directives::new(10.0), &lib, &is_reg).expect("schedules");
        assert_eq!(free.depth, 1, "unconstrained: all multiplies in parallel");

        let limited = Directives::new(10.0).limit_fu(OpClass::Mul, 1);
        let s = schedule_dfg(&dfg, &limited, &lib, &is_reg).expect("schedules");
        // One multiply per cycle (chaining two muls through one FU in a
        // cycle is not possible — an FU instance is busy for the cycle).
        assert!(s.depth >= 4, "depth = {}", s.depth);
    }

    #[test]
    fn infeasible_clock_reported() {
        // A 30-bit multiply needs ~8.7 ns; a 5 ns clock cannot fit it.
        let mut b = FunctionBuilder::new("wide");
        let x = b.param_scalar("x", Ty::fixed(30, 0));
        let out = b.param_scalar("out", Ty::fixed(60, 0));
        b.assign(out, Expr::mul(Expr::var(x), Expr::var(x)));
        let f = b.build();
        let dfg = build_dfg(&f, &f.body);
        let lib = TechLibrary::asic_100mhz();
        let err = schedule_dfg(&dfg, &Directives::new(5.0), &lib, &is_reg).unwrap_err();
        assert!(
            matches!(err, SynthesisError::InfeasibleClock { .. }),
            "{err}"
        );
    }

    #[test]
    fn empty_dfg_schedules_to_zero_depth() {
        let dfg = Dfg::default();
        let lib = TechLibrary::asic_100mhz();
        let s = schedule_dfg(&dfg, &Directives::new(10.0), &lib, &is_reg).expect("schedules");
        assert_eq!(s.depth, 0);
    }

    #[test]
    fn accumulator_recurrence_forces_ii_one() {
        let mut b = FunctionBuilder::new("acc");
        let x = b.param_scalar("x", Ty::fixed(10, 0));
        let acc = b.param_scalar("acc", Ty::fixed(22, 2));
        b.assign(acc, Expr::add(Expr::var(acc), Expr::var(x)));
        let f = b.build();
        let dfg = build_dfg(&f, &f.body);
        let lib = TechLibrary::asic_100mhz();
        let s = schedule_dfg(&dfg, &Directives::new(10.0), &lib, &is_reg).expect("schedules");
        assert_eq!(recurrence_min_ii(&dfg, &s), 1);
    }

    #[test]
    fn memory_ports_limit_parallel_loads() {
        // Two loads from a memory-mapped array with one read port need two
        // cycles.
        let mut b = FunctionBuilder::new("mem");
        let a = b.param_array("a", Ty::fixed(10, 0), 8);
        let o1 = b.param_scalar("o1", Ty::fixed(10, 0));
        let o2 = b.param_scalar("o2", Ty::fixed(10, 0));
        b.assign(o1, Expr::load(a, Expr::int_const(0)));
        b.assign(o2, Expr::load(a, Expr::int_const(1)));
        let f = b.build();
        let a_id = f.params[0];
        let dfg = build_dfg(&f, &f.body);
        let lib = TechLibrary::asic_100mhz();
        let d = Directives::new(10.0);
        let one_port = move |v: VarId| (v == a_id).then_some((1u32, 1u32));
        let s = schedule_dfg(&dfg, &d, &lib, &one_port).expect("schedules");
        assert!(s.depth >= 2, "depth = {}", s.depth);

        let two_ports = move |v: VarId| (v == a_id).then_some((2u32, 1u32));
        let s2 = schedule_dfg(&dfg, &d, &lib, &two_ports).expect("schedules");
        assert!(s2.depth < s.depth, "two ports must beat one");
    }

    #[test]
    fn loop_body_with_guard_schedules() {
        // A merged-style guarded body still schedules in one cycle.
        let mut b = FunctionBuilder::new("g");
        let x = b.param_scalar("x", Ty::fixed(10, 0));
        let acc = b.param_scalar("acc", Ty::fixed(20, 4));
        let m = b.param_scalar("m", Ty::int(8));
        b.if_then(
            Expr::cmp(CmpOp::Lt, Expr::var(m), Expr::int_const(8)),
            |b| {
                b.assign(acc, Expr::add(Expr::var(acc), Expr::var(x)));
            },
        );
        let f = b.build();
        let dfg = build_dfg(&f, &f.body);
        let lib = TechLibrary::asic_100mhz();
        let s = schedule_dfg(&dfg, &Directives::new(10.0), &lib, &is_reg).expect("schedules");
        assert_eq!(s.depth, 1);
    }
}
