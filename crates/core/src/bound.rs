//! Admissible lower bounds on latency and area from unscheduled designs.
//!
//! The explorer's branch-and-bound pruning needs, for a transformed but
//! not-yet-scheduled candidate, numbers that are *guaranteed* not to
//! exceed what scheduling and allocation would report — then any
//! candidate whose bound is already Pareto-dominated by a completed
//! design point can skip the back end entirely without changing the
//! frontier.
//!
//! A single (latency, area) pair is too weak to prune real designs: a
//! deep schedule is slow but shares functional units, a shallow one is
//! fast but replicates them, and the minimum of each axis taken
//! independently describes a design that cannot exist. The bound here is
//! a **resource-relaxation envelope**: for every segment of the real
//! lowered design (the same [`crate::lower::Lowered`] the scheduler
//! consumes) and every feasible schedule depth `D`, it prices
//!
//! - **latency** exactly as [`crate::metrics::segment_cycles`] would
//!   (`D` for straight code, `trip·D` for loops, `D + (trip−1)·II`
//!   pipelined), with `D` floored by replaying the scheduler's own
//!   chaining recurrence over the segment DFG (delays cannot split
//!   across cycle boundaries, so this is tighter than `⌈chain/clock⌉`),
//!   by per-array memory-port counts and by per-class FU limits — none
//!   of which any legal schedule can beat;
//! - **area** by the pigeonhole relaxation of the allocator's peak
//!   per-cycle demand: a segment that executes `N` operations of a class
//!   in `D` cycles needs at least `⌈N / D⌉` concurrent units, each at
//!   the class's global characterization width (the allocator's own
//!   width rule, shared with the scheduler), plus the controller's
//!   `D` states and the architectural registers the allocator always
//!   counts.
//!
//! When a segment is free of memory ports and FU limits the list
//! scheduler is a pure chaining recurrence — deterministic and
//! priority-independent — so the replay does not merely floor the
//! depth, it reproduces every node's *exact* cycle. A design whose
//! segments are all unconstrained therefore gets a **single tight
//! corner**: exact latency, exact controller states, exact per-class FU
//! peaks (and with them the allocator's own sharing-mux prices) and
//! exact architectural registers — only the intermediate (temp)
//! registers, which need live ranges, are still resolved down to zero,
//! keeping the corner admissible. That corner is what lets pruning fire
//! on real sweeps — the speculative deep-depth corners of the general
//! envelope describe schedules the ASAP scheduler never builds.
//!
//! Constrained segments keep the conservative envelope: each class is
//! attributed to the segment with the most operations of it (a further
//! relaxation that keeps the bound separable), the per-segment
//! `(latency, area)` curves are Pareto-folded across segments (a
//! Minkowski sum), and the result is a small *corner set*: every
//! schedulable design lies component-wise above at least one corner. A
//! candidate is prunable exactly when **every** corner is strictly
//! dominated by an already-completed point. Anything uncertain is
//! resolved downward — sharing muxes and temporaries are priced at
//! zero. The accompanying proptests (`tests/explore_budget.rs`) check
//! admissibility across randomized per-loop unroll grids, clocks and
//! pipeline-II directives.

use std::collections::BTreeMap;

use hls_ir::Function;

use crate::allocate::counts_as_datapath;
use crate::directives::Directives;
use crate::lower::{lower, Lowered, Segment};
use crate::schedule::node_resources;
use crate::tech::{OpClass, TechLibrary};

/// How many corners the folded envelope keeps. Coarsening replaces the
/// adjacent pair with the smallest area gap by its component-wise
/// minimum, so the cap trades bound tightness for fold cost but never
/// admissibility.
const MAX_CORNERS: usize = 24;

/// Admissible lower bounds for one transformed candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignBound {
    /// Latency in cycles: the real design needs at least this many
    /// (the fastest corner of the envelope).
    pub latency_cycles: u64,
    /// Area in abstract units: the real design costs at least this much
    /// (the smallest corner of the envelope).
    pub area: f64,
    /// Operations visited while deriving the bound — the size input to
    /// the explorer's per-pass cost model.
    pub ops: usize,
    /// The latency/area trade-off envelope: corners sorted by ascending
    /// latency and descending area. Every schedulable design lies
    /// component-wise on or above at least one corner, so a candidate is
    /// provably dominated only when *every* corner is.
    pub corners: Vec<(u64, f64)>,
}

impl DesignBound {
    /// `true` when every corner of the envelope is strictly dominated by
    /// `(latency, area)` — the pruning test: no schedule of this
    /// candidate can escape domination.
    pub fn dominated_by(&self, latency: u64, area: f64) -> bool {
        self.corners
            .iter()
            .all(|&(l, a)| latency <= l && area <= a && (latency < l || area < a))
    }
}

/// The clock-independent part of a candidate's lower bound: exact
/// per-segment operation counts, dependence-chain delays and width-priced
/// unit costs extracted from the real lowered design. One profile serves
/// every clock in a sweep (candidates sharing a transform prefix share
/// their profile); [`bound_from_profile`] specializes it per clock.
#[derive(Debug, Clone)]
pub struct BoundProfile {
    segments: Vec<SegmentProfile>,
    /// Architectural register + loop-control area every schedule pays
    /// (the envelope path folds this into every corner).
    const_area: f64,
    /// Register area alone (statics, params, counters, cross-segment
    /// locals) — the allocator's `reg_area` with temps priced at zero.
    reg_area: f64,
    /// Controller area per FSM state.
    state_area: f64,
    /// Global datapath class table at the allocator's characterization
    /// widths (including the width-8 floors loop control imposes).
    classes: Vec<ClassInfo>,
    /// Whether any loop segment exists (counter adder + comparator).
    any_loop: bool,
    /// Total DFG nodes — the explorer's cost-model size input.
    ops: usize,
}

/// One datapath class priced at its global characterization width.
#[derive(Debug, Clone)]
struct ClassInfo {
    class: OpClass,
    /// Area of one unit.
    unit_area: f64,
    /// Area of one 2:1 sharing-mux slice (`mux_tree_area(2, width)`);
    /// a `k`-way tree costs `(k − 1)` slices.
    mux_unit: f64,
    /// Total operations of this class across all segments (the
    /// allocator's `bound_ops`).
    total: u32,
}

#[derive(Debug, Clone)]
struct SegmentProfile {
    latency: SegmentShape,
    /// `(delay ns, predecessor indices)` per DFG node in topological
    /// order — enough to replay the scheduler's chaining recurrence.
    chain: Vec<(f64, Vec<u32>)>,
    /// Class-table index per node (`u32::MAX` for non-datapath nodes),
    /// parallel to `chain` — the exact path counts per-cycle usage.
    class_idx: Vec<u32>,
    /// Depth floor independent of the clock: memory-port serialization,
    /// FU-limit serialization, and 1 for any non-empty DFG.
    fixed_depth_floor: u32,
    /// Whether memory ports or FU limits can defer nodes beyond the
    /// chaining recurrence. When `false` the replayed placement *is*
    /// the schedule the scheduler will produce, exactly.
    constrained: bool,
    /// `(area of one unit at the class's global width, op count)` for
    /// every datapath class attributed to this segment (envelope path).
    priced: Vec<(f64, u32)>,
}

#[derive(Debug, Clone)]
enum SegmentShape {
    Straight,
    Loop { trip: u64, ii: Option<u32> },
}

impl SegmentProfile {
    /// Replays the scheduler's chaining recurrence: each node lands in
    /// the latest predecessor cycle when the accumulated delay fits the
    /// clock, else the next cycle with a fresh chain. Without resource
    /// constraints list scheduling is exactly this recurrence (readiness
    /// order cannot change it), so the returned per-node cycles are the
    /// scheduler's own; with constraints nodes are only ever deferred
    /// further, so the depth is an admissible floor.
    fn place(&self, clock: f64) -> (u32, Vec<u32>) {
        let n = self.chain.len();
        if n == 0 {
            return (0, Vec::new());
        }
        let mut cyc = vec![0u32; n];
        let mut end = vec![0.0f64; n];
        let mut depth = 1u32;
        for (i, (delay, preds)) in self.chain.iter().enumerate() {
            let c = preds.iter().map(|&p| cyc[p as usize]).max().unwrap_or(0);
            let start = preds
                .iter()
                .filter(|&&p| cyc[p as usize] == c)
                .map(|&p| end[p as usize])
                .fold(0.0, f64::max);
            if start + delay <= clock {
                cyc[i] = c;
                end[i] = start + delay;
            } else {
                cyc[i] = c + 1;
                end[i] = *delay;
            }
            depth = depth.max(cyc[i] + 1);
        }
        (depth, cyc)
    }

    /// The replayed depth alone (the envelope path's clock floor).
    fn packed_depth(&self, clock: f64) -> u32 {
        self.place(clock).0
    }

    /// Latency contribution at schedule depth `depth`, mirroring
    /// [`crate::metrics::segment_cycles`].
    fn cycles(&self, depth: u32) -> u64 {
        match &self.latency {
            SegmentShape::Straight => depth as u64,
            SegmentShape::Loop { trip, ii } => {
                let d = depth.max(1) as u64;
                match ii {
                    Some(ii) if *trip > 0 => d + (trip - 1) * *ii as u64,
                    _ => trip * d,
                }
            }
        }
    }

    /// Area contribution at schedule depth `depth`: pigeonholed FU
    /// demand plus the controller states this segment adds.
    fn area(&self, depth: u32, state_area: f64) -> f64 {
        let d = depth.max(1);
        let mut a = state_area * d as f64;
        for (unit_area, count) in &self.priced {
            a += unit_area * count.div_ceil(d) as f64;
        }
        a
    }

    /// The segment's own Pareto corner set over feasible depths: a
    /// single exact-depth corner when unconstrained, the conservative
    /// depth staircase otherwise.
    fn corners(&self, clock: f64, state_area: f64) -> Vec<(u64, f64)> {
        let packed = self.packed_depth(clock);
        if !self.constrained {
            return vec![(self.cycles(packed), self.area(packed, state_area))];
        }
        let lb = packed.max(self.fixed_depth_floor);
        // Beyond the largest attributed op count every ⌈N/D⌉ term is
        // already 1, so deeper schedules only cost more on both axes and
        // the corner at `cap` covers them all.
        let cap = self
            .priced
            .iter()
            .map(|(_, n)| *n)
            .max()
            .unwrap_or(1)
            .max(lb)
            .max(1);
        let pts: Vec<(u64, f64)> = (lb.max(1)..=cap)
            .map(|d| (self.cycles(d), self.area(d, state_area)))
            .collect();
        pareto_floor(pts)
    }
}

/// Keeps the Pareto floor of a point set: corners sorted by ascending
/// latency with strictly descending area.
fn pareto_floor(mut pts: Vec<(u64, f64)>) -> Vec<(u64, f64)> {
    pts.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut out: Vec<(u64, f64)> = Vec::new();
    for (l, a) in pts {
        if out.last().is_none_or(|&(_, pa)| a < pa) {
            out.push((l, a));
        }
    }
    out
}

/// Folds one segment's corner set into the running envelope (a Minkowski
/// sum), then Pareto-filters and coarsens. Coarsening merges the
/// adjacent pair with the smallest area gap into its component-wise
/// minimum — a weaker corner, never an inadmissible one.
fn fold(total: Vec<(u64, f64)>, seg: &[(u64, f64)]) -> Vec<(u64, f64)> {
    let mut sum = Vec::with_capacity(total.len() * seg.len());
    for &(l1, a1) in &total {
        for &(l2, a2) in seg {
            sum.push((l1 + l2, a1 + a2));
        }
    }
    let mut out = pareto_floor(sum);
    while out.len() > MAX_CORNERS {
        let mut best = 0;
        let mut best_gap = f64::INFINITY;
        for i in 0..out.len() - 1 {
            let gap = out[i].1 - out[i + 1].1;
            if gap < best_gap {
                best_gap = gap;
                best = i;
            }
        }
        out[best].1 = out[best + 1].1;
        out.remove(best + 1);
    }
    out
}

/// Builds the clock-independent bound profile of a lowered design.
///
/// `directives` must carry the same array mappings, interfaces and FU
/// limits the design will be scheduled under (the explorer shares a
/// profile only among jobs whose prefix key and FU limits agree); the
/// clock period is deliberately unused here.
pub fn bound_profile(
    lowered: &Lowered,
    directives: &Directives,
    lib: &TechLibrary,
) -> BoundProfile {
    let func = &lowered.func;
    let mem_ports = |v| directives.mem_ports(func, v);
    let is_memory = |v: hls_ir::VarId| mem_ports(v).is_some();

    // Per-segment raw facts; widths are global (the allocator's rule).
    let mut widths: BTreeMap<OpClass, u32> = BTreeMap::new();
    let mut ops = 0usize;
    struct Raw {
        shape: SegmentShape,
        chain: Vec<(f64, Vec<u32>)>,
        node_class: Vec<OpClass>,
        fixed_depth_floor: u32,
        constrained: bool,
        counts: BTreeMap<OpClass, u32>,
    }
    let mut raws: Vec<Raw> = Vec::new();
    for seg in &lowered.segments {
        let dfg = seg.dfg();
        let (classes, char_widths) = node_resources(dfg, &is_memory);
        ops += dfg.len();

        let mut counts: BTreeMap<OpClass, u32> = BTreeMap::new();
        let mut all_counts: BTreeMap<OpClass, u32> = BTreeMap::new();
        let mut mem_reads: BTreeMap<hls_ir::VarId, u32> = BTreeMap::new();
        let mut mem_writes: BTreeMap<hls_ir::VarId, u32> = BTreeMap::new();
        // Per-node delay and predecessor structure: node indices are
        // topological by construction, so the chaining recurrence can be
        // replayed with one forward sweep per clock.
        let mut chain: Vec<(f64, Vec<u32>)> = Vec::with_capacity(dfg.len());
        let mut node_class: Vec<OpClass> = Vec::with_capacity(dfg.len());
        for (i, node) in dfg.nodes().iter().enumerate() {
            let class = classes[i];
            node_class.push(class);
            *all_counts.entry(class).or_insert(0) += 1;
            if counts_as_datapath(class) {
                *counts.entry(class).or_insert(0) += 1;
                let w = widths.entry(class).or_insert(0);
                *w = (*w).max(char_widths[i]);
            }
            if let Some(arr) = node.accessed_array() {
                if is_memory(arr) {
                    match class {
                        OpClass::MemRead => *mem_reads.entry(arr).or_insert(0) += 1,
                        OpClass::MemWrite => *mem_writes.entry(arr).or_insert(0) += 1,
                        _ => {}
                    }
                }
            }
            chain.push((
                lib.delay(class, char_widths[i]),
                node.preds.iter().map(|p| p.index() as u32).collect(),
            ));
        }

        // Clock-independent serialization floors: memory ports and
        // per-class FU limits cap how much one cycle can execute.
        let mut floor: u32 = u32::from(!dfg.is_empty());
        for (arr, n) in &mem_reads {
            if let Some((rp, _)) = mem_ports(*arr) {
                floor = floor.max(n.div_ceil(rp.max(1)));
            }
        }
        for (arr, n) in &mem_writes {
            if let Some((_, wp)) = mem_ports(*arr) {
                floor = floor.max(n.div_ceil(wp.max(1)));
            }
        }
        let mut limited = false;
        for (class, n) in &all_counts {
            if let Some(limit) = directives.fu_limit(*class) {
                limited = true;
                floor = floor.max(n.div_ceil(limit.max(1)));
            }
        }

        let shape = match seg {
            Segment::Straight { .. } => SegmentShape::Straight,
            Segment::Loop {
                trip, pipeline_ii, ..
            } => SegmentShape::Loop {
                trip: *trip as u64,
                ii: *pipeline_ii,
            },
        };
        raws.push(Raw {
            shape,
            chain,
            node_class,
            fixed_depth_floor: floor,
            constrained: limited || !mem_reads.is_empty() || !mem_writes.is_empty(),
            counts,
        });
    }

    // The global class table at the allocator's own widths: loop control
    // widens the adder to at least 8 bits and falls back to an 8-bit
    // comparator entry when no datapath compare fixes the width — the
    // exact adjustments `allocate` applies before pricing.
    let any_loop = lowered
        .segments
        .iter()
        .any(|s| matches!(s, Segment::Loop { .. }));
    let mut class_widths = widths.clone();
    if any_loop {
        let w = class_widths.entry(OpClass::Add).or_insert(0);
        *w = (*w).max(8);
        class_widths.entry(OpClass::Cmp).or_insert(8);
    }
    let mut totals: BTreeMap<OpClass, u32> = BTreeMap::new();
    for raw in &raws {
        for (class, n) in &raw.counts {
            *totals.entry(*class).or_insert(0) += n;
        }
    }
    let classes: Vec<ClassInfo> = class_widths
        .iter()
        .map(|(class, w)| ClassInfo {
            class: *class,
            unit_area: lib.area(*class, *w),
            mux_unit: lib.mux_tree_area(2, *w),
            total: totals.get(class).copied().unwrap_or(0),
        })
        .collect();
    let table_idx: BTreeMap<OpClass, u32> = classes
        .iter()
        .enumerate()
        .map(|(i, c)| (c.class, i as u32))
        .collect();

    // Attribute each class to the segment with the most operations of it
    // (ties to the earliest segment): the bound stays separable and
    // ⌈N/D⌉ at the argmax segment still lower-bounds the global peak.
    let mut argmax: BTreeMap<OpClass, usize> = BTreeMap::new();
    for (i, raw) in raws.iter().enumerate() {
        for (class, n) in &raw.counts {
            match argmax.get(class) {
                Some(&j) if raws[j].counts[class] >= *n => {}
                _ => {
                    argmax.insert(*class, i);
                }
            }
        }
    }
    let segments: Vec<SegmentProfile> = raws
        .iter()
        .enumerate()
        .map(|(i, raw)| SegmentProfile {
            latency: raw.shape.clone(),
            chain: raw.chain.clone(),
            class_idx: raw
                .node_class
                .iter()
                .map(|c| {
                    if counts_as_datapath(*c) {
                        table_idx[c]
                    } else {
                        u32::MAX
                    }
                })
                .collect(),
            fixed_depth_floor: raw.fixed_depth_floor,
            constrained: raw.constrained,
            priced: raw
                .counts
                .iter()
                .filter(|(class, n)| argmax.get(*class) == Some(&i) && **n > 0)
                .map(|(class, n)| {
                    let w = widths.get(class).copied().unwrap_or(1).max(1);
                    (lib.area(*class, w), *n)
                })
                .collect(),
        })
        .collect();

    // Registers every schedule pays: the allocator's architectural
    // state, with only the live-range temporaries resolved to zero.
    let reg_area = lib.register_area(crate::allocate::state_bits(func, lowered, directives));
    // Area the envelope folds into every corner regardless of depth:
    // those registers plus the allocator's loop-control units.
    let mut const_area = reg_area;
    if any_loop {
        // The allocator adds one counter incrementer *on top of* the
        // datapath adder peak (width floored at 8)…
        let w_add = widths.get(&OpClass::Add).copied().unwrap_or(0).max(8);
        const_area += lib.area(OpClass::Add, w_add);
        // …and guarantees one comparator; when datapath compares exist
        // the ⌈N/D⌉ term already covers it.
        if !widths.contains_key(&OpClass::Cmp) {
            const_area += lib.area(OpClass::Cmp, 8);
        }
    }

    BoundProfile {
        segments,
        const_area,
        reg_area,
        state_area: lib.controller_area(1),
        classes,
        any_loop,
        ops,
    }
}

/// Specializes a [`BoundProfile`] to the clock period in `directives`,
/// producing the candidate's admissible envelope.
pub fn bound_from_profile(profile: &BoundProfile, directives: &Directives) -> DesignBound {
    let clock = directives.clock_period_ns;
    if profile.segments.iter().all(|s| !s.constrained) {
        // Every segment schedules to exactly the replayed placement, so
        // the bound is one tight corner that reruns the allocator's own
        // arithmetic: exact latency and controller states, per-class FU
        // peaks read off the replayed cycles, the sharing-mux trees
        // those peaks imply, and the architectural registers — only the
        // live-range temporaries are resolved down to zero.
        let nc = profile.classes.len();
        let mut latency = 0u64;
        let mut states = 0u64;
        let mut peak = vec![0u32; nc];
        for seg in &profile.segments {
            let (d, cyc) = seg.place(clock);
            latency += seg.cycles(d);
            states += d.max(1) as u64;
            if d > 0 {
                let mut used = vec![0u32; d as usize * nc];
                for (i, &ci) in seg.class_idx.iter().enumerate() {
                    if ci != u32::MAX {
                        used[cyc[i] as usize * nc + ci as usize] += 1;
                    }
                }
                for (c, p) in peak.iter_mut().enumerate() {
                    for row in 0..d as usize {
                        *p = (*p).max(used[row * nc + c]);
                    }
                }
            }
        }
        // Loop control rides on top of the datapath peaks: one counter
        // incrementer beyond the adder demand, at least one comparator.
        if profile.any_loop {
            for (c, info) in profile.classes.iter().enumerate() {
                match info.class {
                    OpClass::Add => peak[c] += 1,
                    OpClass::Cmp => peak[c] = peak[c].max(1),
                    _ => {}
                }
            }
        }
        // Accumulate in the allocator's own class order and sum order so
        // equal designs price identically (ties never prune: domination
        // must be strict).
        let mut fu = 0.0f64;
        let mut mux = 0.0f64;
        for (c, info) in profile.classes.iter().enumerate() {
            let k = peak[c];
            if k == 0 {
                continue;
            }
            fu += info.unit_area * f64::from(k);
            let per_fu = info.total.div_ceil(k);
            if per_fu > 1 {
                mux += info.mux_unit * f64::from(per_fu - 1) * 2.0 * f64::from(k);
            }
        }
        let ctrl = profile.state_area * states as f64;
        let area = fu + mux + profile.reg_area + ctrl;
        return DesignBound {
            latency_cycles: latency,
            area,
            ops: profile.ops,
            corners: vec![(latency, area)],
        };
    }
    let mut corners: Vec<(u64, f64)> = vec![(0, 0.0)];
    for seg in &profile.segments {
        let seg_corners = seg.corners(clock, profile.state_area);
        if !seg_corners.is_empty() {
            corners = fold(corners, &seg_corners);
        }
    }
    for c in &mut corners {
        c.1 += profile.const_area;
    }
    let latency_cycles = corners.first().map(|c| c.0).unwrap_or(0);
    let area = corners.last().map(|c| c.1).unwrap_or(0.0);
    DesignBound {
        latency_cycles,
        area,
        ops: profile.ops,
        corners,
    }
}

/// Computes admissible latency/area lower bounds for a transformed (but
/// unscheduled) function under `directives`: lowers the function exactly
/// as synthesis would, profiles it, and specializes to the clock.
pub fn lower_bound(func: &Function, directives: &Directives, lib: &TechLibrary) -> DesignBound {
    let mut lowered = lower(func, directives);
    // Profile the netlist synthesis will actually schedule: default-on
    // netlist optimization shrinks the design, and a bound computed from
    // the unoptimized lowering would not be admissible against it.
    crate::netlist::optimize_lowered(&mut lowered, &directives.netlist_opt, lib);
    let profile = bound_profile(&lowered, directives, lib);
    bound_from_profile(&profile, directives)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directives::{ArrayMapping, Unroll};
    use crate::synthesize::synthesize;
    use crate::transform::apply_loop_transforms;
    use hls_ir::{CmpOp, Expr, FunctionBuilder, Ty};

    fn mac_loop() -> Function {
        let mut b = FunctionBuilder::new("fir");
        let x = b.param_array("x", Ty::fixed(10, 0), 16);
        let c = b.param_array("c", Ty::fixed(10, 0), 16);
        let out = b.param_scalar("out", Ty::fixed(24, 4));
        let acc = b.local("acc", Ty::fixed(24, 4));
        b.assign(acc, Expr::int_const(0));
        b.for_loop("mac", 0, CmpOp::Lt, 16, 1, |b, k| {
            b.assign(
                acc,
                Expr::add(
                    Expr::var(acc),
                    Expr::mul(Expr::load(x, Expr::var(k)), Expr::load(c, Expr::var(k))),
                ),
            );
        });
        b.assign(out, Expr::var(acc));
        b.build()
    }

    fn assert_admissible(func: &Function, d: &Directives) {
        let lib = TechLibrary::asic_100mhz();
        let t = apply_loop_transforms(func, d);
        let bound = lower_bound(&t.func, d, &lib);
        let actual = synthesize(func, d, &lib).expect("synthesizes");
        assert!(
            bound.latency_cycles <= actual.metrics.latency_cycles,
            "latency bound {} exceeds actual {} for {d:?}",
            bound.latency_cycles,
            actual.metrics.latency_cycles
        );
        assert!(
            bound.area <= actual.metrics.area + 1e-9,
            "area bound {} exceeds actual {} for {d:?}",
            bound.area,
            actual.metrics.area
        );
        // Envelope admissibility: the synthesized design must lie on or
        // above at least one corner — the property corner pruning needs.
        assert!(
            bound.corners.iter().any(
                |&(l, a)| l <= actual.metrics.latency_cycles && a <= actual.metrics.area + 1e-9
            ),
            "no corner of {:?} admits actual ({}, {}) for {d:?}",
            bound.corners,
            actual.metrics.latency_cycles,
            actual.metrics.area
        );
    }

    #[test]
    fn bounds_are_admissible_across_unroll_factors() {
        let f = mac_loop();
        for u in [1u32, 2, 4, 8] {
            let d = if u == 1 {
                Directives::new(10.0)
            } else {
                Directives::new(10.0).unroll("mac", Unroll::Factor(u))
            };
            assert_admissible(&f, &d);
        }
        assert_admissible(&f, &Directives::new(10.0).unroll("mac", Unroll::Full));
    }

    #[test]
    fn bounds_are_admissible_across_clocks_and_mappings() {
        let f = mac_loop();
        for clk in [5.0, 10.0, 20.0] {
            assert_admissible(&f, &Directives::new(clk));
            assert_admissible(
                &f,
                &Directives::new(clk).map_array(
                    "x",
                    ArrayMapping::Memory {
                        read_ports: 1,
                        write_ports: 1,
                    },
                ),
            );
        }
    }

    #[test]
    fn bound_is_informative_not_trivial() {
        let f = mac_loop();
        let d = Directives::new(10.0);
        let lib = TechLibrary::asic_100mhz();
        let t = apply_loop_transforms(&f, &d);
        let b = lower_bound(&t.func, &d, &lib);
        // 16 iterations of a rolled MAC loop: at least one cycle each.
        assert!(b.latency_cycles >= 16, "{}", b.latency_cycles);
        // Registers for the two 160-bit arrays alone dwarf zero.
        assert!(b.area > 0.0);
        assert!(b.ops > 0);
        assert!(!b.corners.is_empty());
    }

    #[test]
    fn pipelined_loop_bound_uses_initiation_interval() {
        let f = mac_loop();
        let lib = TechLibrary::asic_100mhz();
        let d = Directives::new(10.0).pipeline("mac", 1);
        let t = apply_loop_transforms(&f, &d);
        let b = lower_bound(&t.func, &d, &lib);
        let rolled = lower_bound(
            &apply_loop_transforms(&f, &Directives::new(10.0)).func,
            &Directives::new(10.0),
            &lib,
        );
        assert!(b.latency_cycles <= rolled.latency_cycles);
        assert_admissible(&f, &d);
    }

    #[test]
    fn unrolling_tightens_the_area_floor() {
        // The resource relaxation must see that an unrolled body demands
        // more concurrent units at equal latency: the area of the
        // fastest corner grows with the unroll factor.
        let f = mac_loop();
        let lib = TechLibrary::asic_100mhz();
        let fastest_area = |u: u32| -> f64 {
            let d = if u == 1 {
                Directives::new(10.0)
            } else {
                Directives::new(10.0).unroll("mac", Unroll::Factor(u))
            };
            let t = apply_loop_transforms(&f, &d);
            let b = lower_bound(&t.func, &d, &lib);
            b.corners.first().expect("corners").1
        };
        assert!(
            fastest_area(8) > fastest_area(1),
            "u8 fastest corner {} must out-price u1 {}",
            fastest_area(8),
            fastest_area(1)
        );
    }

    #[test]
    fn envelope_corners_are_a_pareto_staircase() {
        let f = mac_loop();
        let lib = TechLibrary::asic_100mhz();
        let d = Directives::new(10.0).unroll("mac", Unroll::Factor(4));
        let t = apply_loop_transforms(&f, &d);
        let b = lower_bound(&t.func, &d, &lib);
        assert!(b.corners.len() <= MAX_CORNERS);
        for w in b.corners.windows(2) {
            assert!(w[0].0 < w[1].0, "latencies ascend: {:?}", b.corners);
            assert!(w[0].1 > w[1].1, "areas descend: {:?}", b.corners);
        }
        assert_eq!(b.latency_cycles, b.corners.first().unwrap().0);
        assert_eq!(b.area.to_bits(), b.corners.last().unwrap().1.to_bits());
    }

    #[test]
    fn profile_reuse_matches_direct_bound() {
        // The two-level API (profile once per transform prefix, then
        // specialize per clock) must agree exactly with the one-shot
        // path the service uses.
        let f = mac_loop();
        let lib = TechLibrary::asic_100mhz();
        let d10 = Directives::new(10.0).unroll("mac", Unroll::Factor(2));
        let t = apply_loop_transforms(&f, &d10);
        let mut lowered = lower(&t.func, &d10);
        crate::netlist::optimize_lowered(&mut lowered, &d10.netlist_opt, &lib);
        let profile = bound_profile(&lowered, &d10, &lib);
        for clk in [5.0, 10.0, 20.0] {
            let d = Directives::new(clk).unroll("mac", Unroll::Factor(2));
            let direct = lower_bound(&t.func, &d, &lib);
            let via_profile = bound_from_profile(&profile, &d);
            assert_eq!(direct.latency_cycles, via_profile.latency_cycles);
            assert_eq!(direct.area.to_bits(), via_profile.area.to_bits());
            assert_eq!(direct.corners, via_profile.corners);
        }
    }
}
