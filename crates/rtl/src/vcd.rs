//! Value-change-dump (VCD) waveform recording.
//!
//! A [`CompiledSim`]'s every architectural register (and scalar port) can
//! be recorded into an IEEE-1364 VCD file viewable in GTKWave — the
//! working-engineer counterpart of the paper's RTL-verification loop.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fixpt::Fixed;
use hls_ir::VarId;

use crate::compile::CompiledSim;

/// A waveform recorder: snapshot the simulator after every call (or at any
/// cadence you like) and serialize to VCD text.
///
/// Arrays are flattened to one signal per element. A recorder is either
/// *flat* (one design, [`VcdRecorder::new`]) or a *system* recorder
/// ([`VcdRecorder::new_system`]) covering several module instances, each
/// emitted as its own nested `$scope module` so a composed stream system
/// dumps one waveform with per-module scopes.
#[derive(Debug, Clone)]
pub struct VcdRecorder {
    /// Instance names of a system recorder, one nested scope per entry;
    /// empty for a flat single-design recorder.
    scopes: Vec<String>,
    /// Signal order: (scope index, display name, width, source). The
    /// scope index is 0 (and unused) in a flat recorder.
    signals: Vec<(usize, String, u32, Source)>,
    /// Sample times (cycles) and values (two's-complement mantissas).
    samples: Vec<(u64, Vec<i128>)>,
    clock_ns: f64,
}

#[derive(Debug, Clone, Copy)]
enum Source {
    Reg(VarId),
    ArrayElem(VarId, usize),
}

/// The flattened signal list of one design: every scalar register and
/// array element, under the given scope index.
fn design_signals(scope: usize, func: &hls_ir::Function) -> Vec<(usize, String, u32, Source)> {
    let mut signals = Vec::new();
    for (id, v) in func.iter_vars() {
        let w = v.ty.width();
        match v.len {
            None => signals.push((scope, v.name.clone(), w, Source::Reg(id))),
            Some(n) => {
                for i in 0..n {
                    signals.push((
                        scope,
                        format!("{}_{i}", v.name),
                        w,
                        Source::ArrayElem(id, i),
                    ));
                }
            }
        }
    }
    signals
}

impl VcdRecorder {
    /// Creates a recorder for every scalar register and array element of
    /// the design under `sim`.
    pub fn new(sim: &CompiledSim) -> Self {
        VcdRecorder {
            scopes: Vec::new(),
            signals: design_signals(0, sim.program().function()),
            samples: Vec::new(),
            clock_ns: sim.program().clock_ns(),
        }
    }

    /// Creates a system recorder over several module instances. Each
    /// `(instance name, simulator)` pair becomes one nested scope; sample
    /// with [`VcdRecorder::snapshot_system`], passing the simulators in
    /// the same order. The timestamp scale is the first module's clock
    /// (a composed system is synchronous on one clock).
    ///
    /// # Panics
    ///
    /// Panics when `modules` is empty.
    pub fn new_system(modules: &[(&str, &CompiledSim)]) -> Self {
        assert!(!modules.is_empty(), "system recorder needs >= 1 module");
        let mut signals = Vec::new();
        for (scope, (_, sim)) in modules.iter().enumerate() {
            signals.extend(design_signals(scope, sim.program().function()));
        }
        VcdRecorder {
            scopes: modules.iter().map(|(n, _)| n.to_string()).collect(),
            signals,
            samples: Vec::new(),
            clock_ns: modules[0].1.program().clock_ns(),
        }
    }

    /// Number of snapshots taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no snapshots have been taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Snapshots the simulator's current state, timestamped by its cycle
    /// counter. Only meaningful on a flat recorder — a system recorder's
    /// signals span several designs; use
    /// [`VcdRecorder::snapshot_system`] there.
    pub fn snapshot(&mut self, sim: &CompiledSim) {
        debug_assert!(
            self.scopes.is_empty(),
            "snapshot() on a system recorder; use snapshot_system()"
        );
        self.sample(sim.cycles(), std::slice::from_ref(sim));
    }

    /// Snapshots every module of a system recorder at one shared system
    /// cycle (the composed simulation's own counter — member simulators
    /// advance at call granularity, so their counters are not a common
    /// timebase). `sims` must be in [`VcdRecorder::new_system`] order.
    ///
    /// # Panics
    ///
    /// Panics when `sims` does not match the number of scopes.
    pub fn snapshot_system(&mut self, cycle: u64, sims: &[CompiledSim]) {
        assert_eq!(
            sims.len(),
            self.scopes.len().max(1),
            "snapshot_system: simulator count must match scope count"
        );
        self.sample(cycle, sims);
    }

    fn sample(&mut self, cycle: u64, sims: &[CompiledSim]) {
        let values = self
            .signals
            .iter()
            .map(|(scope, _, _, src)| {
                let sim = &sims[*scope];
                match src {
                    Source::Reg(id) => sim.reg(*id).as_ref().map(Fixed::raw).unwrap_or(0),
                    Source::ArrayElem(id, i) => sim
                        .array(*id)
                        .and_then(|a| a.get(*i))
                        .map(Fixed::raw)
                        .unwrap_or(0),
                }
            })
            .collect();
        self.samples.push((cycle, values));
    }

    /// Serializes the recording as VCD text. A flat recording emits one
    /// `$scope module` named `module_name`; a system recording nests one
    /// scope per module instance inside it.
    pub fn to_vcd(&self, module_name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date reproduction run $end");
        let _ = writeln!(out, "$version wireless-hls vcd recorder $end");
        let _ = writeln!(out, "$timescale 1ns $end");
        let _ = writeln!(out, "$scope module {module_name} $end");
        let ids: Vec<String> = (0..self.signals.len()).map(vcd_id).collect();
        if self.scopes.is_empty() {
            for ((_, name, width, _), id) in self.signals.iter().zip(&ids) {
                let _ = writeln!(out, "$var wire {width} {id} {name} $end");
            }
        } else {
            for (scope, scope_name) in self.scopes.iter().enumerate() {
                let _ = writeln!(out, "$scope module {scope_name} $end");
                for ((s, name, width, _), id) in self.signals.iter().zip(&ids) {
                    if *s == scope {
                        let _ = writeln!(out, "$var wire {width} {id} {name} $end");
                    }
                }
                let _ = writeln!(out, "$upscope $end");
            }
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");

        let mut last: BTreeMap<usize, i128> = BTreeMap::new();
        for (cycle, values) in &self.samples {
            let t = (*cycle as f64 * self.clock_ns) as u64;
            let mut wrote_time = false;
            for (si, v) in values.iter().enumerate() {
                if last.get(&si) == Some(v) {
                    continue;
                }
                if !wrote_time {
                    let _ = writeln!(out, "#{t}");
                    wrote_time = true;
                }
                let width = self.signals[si].2;
                let _ = writeln!(out, "b{} {}", to_bits(*v, width), ids[si]);
                last.insert(si, *v);
            }
        }
        out
    }
}

/// VCD short identifier for signal index `i` (printable ASCII, base 94).
fn vcd_id(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

/// Two's-complement bit string of `v` at `width` bits.
fn to_bits(v: i128, width: u32) -> String {
    let mask = if width >= 127 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    };
    let u = (v as u128) & mask;
    (0..width)
        .rev()
        .map(|b| if (u >> b) & 1 == 1 { '1' } else { '0' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsmd::Fsmd;
    use fixpt::Format;
    use hls_core::{synthesize, Directives, TechLibrary};
    use hls_ir::{Expr, FunctionBuilder, Slot, Ty};

    fn sim() -> (CompiledSim, VarId) {
        let mut b = FunctionBuilder::new("acc");
        let x = b.param_scalar("x", Ty::fixed(8, 4));
        let out = b.param_scalar("out", Ty::fixed(12, 8));
        let state = b.static_scalar("state", Ty::fixed(12, 8));
        b.assign(state, Expr::add(Expr::var(state), Expr::var(x)));
        b.assign(out, Expr::var(state));
        let f = b.build();
        let r = synthesize(&f, &Directives::new(10.0), &TechLibrary::asic_100mhz())
            .expect("synthesizes");
        let x = r.lowered.func.params[0];
        (CompiledSim::from_fsmd(&Fsmd::from_synthesis(&r)), x)
    }

    #[test]
    fn records_state_evolution() {
        let (mut s, x) = sim();
        let mut rec = VcdRecorder::new(&s);
        rec.snapshot(&s);
        for _ in 0..3 {
            s.run_call(&[(x, Slot::Scalar(Fixed::from_f64(1.0, Format::signed(8, 4))))])
                .expect("runs");
            rec.snapshot(&s);
        }
        assert_eq!(rec.len(), 4);
        let vcd = rec.to_vcd("acc");
        assert!(vcd.contains("$timescale 1ns $end"));
        assert!(vcd.contains("$var wire 12"), "{vcd}");
        assert!(vcd.contains("state"), "{vcd}");
        // Three value changes of `state` after the initial dump.
        let changes = vcd.lines().filter(|l| l.starts_with('b')).count();
        assert!(changes >= 4, "{vcd}");
        // Timestamps are cycle * clock.
        assert!(vcd.contains("#20") || vcd.contains("#30"), "{vcd}");
    }

    #[test]
    fn unchanged_signals_not_redumped() {
        let (s, _) = sim();
        let mut rec = VcdRecorder::new(&s);
        rec.snapshot(&s);
        rec.snapshot(&s); // nothing changed
        let vcd = rec.to_vcd("acc");
        // Exactly one time marker (the initial dump).
        assert_eq!(
            vcd.lines().filter(|l| l.starts_with('#')).count(),
            1,
            "{vcd}"
        );
    }

    #[test]
    fn bit_strings_are_twos_complement() {
        assert_eq!(to_bits(-1, 4), "1111");
        assert_eq!(to_bits(5, 4), "0101");
        assert_eq!(to_bits(-8, 4), "1000");
    }

    #[test]
    fn system_recorder_nests_one_scope_per_module() {
        let (s1, x) = sim();
        let (s2, _) = sim();
        let mut rec = VcdRecorder::new_system(&[("u_front", &s1), ("u_back", &s2)]);
        let mut sims = [s1, s2];
        rec.snapshot_system(0, &sims);
        let half = Slot::Scalar(Fixed::from_f64(0.5, Format::signed(8, 4)));
        sims[0].run_call(&[(x, half.clone())]).expect("front runs");
        rec.snapshot_system(3, &sims);
        sims[1].run_call(&[(x, half)]).expect("back runs");
        rec.snapshot_system(6, &sims);

        let vcd = rec.to_vcd("system");
        assert!(vcd.contains("$scope module system $end"), "{vcd}");
        assert!(vcd.contains("$scope module u_front $end"), "{vcd}");
        assert!(vcd.contains("$scope module u_back $end"), "{vcd}");
        // One $upscope per module scope plus the top-level one.
        assert_eq!(vcd.matches("$upscope $end").count(), 3, "{vcd}");
        // Both instances' `state` registers are distinct signals: the
        // front's update at #30 and the back's at #60 both appear.
        assert!(vcd.contains("#30"), "{vcd}");
        assert!(vcd.contains("#60"), "{vcd}");
    }

    #[test]
    fn vcd_ids_unique_for_many_signals() {
        let ids: Vec<String> = (0..500).map(vcd_id).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }
}
