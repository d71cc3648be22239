//! Architectural directives: the designer's synthesis guidance.
//!
//! Section 2 of the paper lists the main architectural transformations —
//! interface synthesis, variable/array mapping, loop pipelining, loop
//! unrolling and scheduling constraints. Directives are the knobs that
//! select between them without touching the source, which is how Table 1's
//! four architectures were produced from one C function.

use std::collections::BTreeMap;

use hls_ir::{Function, Json, VarId};

use crate::netlist::{NetlistOptConfig, OptLevel};

/// How a loop is unrolled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Unroll {
    /// Keep the loop rolled (the default).
    #[default]
    None,
    /// Partial unroll by the given factor (the paper's `U=2`, `U=4`).
    Factor(u32),
    /// Fully unroll: the loop disappears into straight-line code.
    Full,
}

impl Unroll {
    /// The replication factor for a loop of `trip` iterations.
    pub fn factor(self, trip: usize) -> usize {
        match self {
            Unroll::None => 1,
            Unroll::Factor(f) => (f.max(1) as usize).min(trip.max(1)),
            Unroll::Full => trip.max(1),
        }
    }
}

/// Per-loop directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LoopDirective {
    /// Unrolling for this loop.
    pub unroll: Unroll,
    /// Pipeline the loop with the given initiation interval. `None` leaves
    /// the loop unpipelined.
    pub pipeline_ii: Option<u32>,
    /// Exclude the loop from automatic merging even when merging is enabled.
    pub no_merge: bool,
}

/// Legality policy for loop merging (see `transform::merge` for the
/// dependence analysis behind it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MergePolicy {
    /// Merge adjacent loops even when cross-iteration hazards on shared
    /// arrays are detected. This mirrors the paper's tool behaviour, whose
    /// default-constraint run merged the adaptation and shift loops; the
    /// hazards perturb only the sign-LMS gradient (quantified in tests).
    #[default]
    AllowHazards,
    /// Merge only when the interleaving is provably bit-exact.
    ExactOnly,
    /// Never merge.
    Off,
}

/// How an array is realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArrayMapping {
    /// Split into individual registers: unlimited parallel access (the
    /// right choice for the decoder's small tap/coefficient arrays).
    #[default]
    Registers,
    /// Map to a synchronous memory with the given port counts; accesses
    /// compete for ports and take a full cycle.
    Memory {
        /// Simultaneous read ports.
        read_ports: u32,
        /// Simultaneous write ports.
        write_ports: u32,
    },
}

/// How a parameter is exposed at the design boundary (interface synthesis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InterfaceKind {
    /// Plain wires, sampled at start (inputs) or driven continuously.
    Wire,
    /// Registered with a start/done handshake; out-parameters written in a
    /// dedicated completion state (the paper's registered `*data` output).
    #[default]
    RegisterHandshake,
    /// Array exposed as a memory interface port.
    Memory,
    /// Array streamed over time, one element per transfer (the paper's
    /// `uint10 x[1024]` example in Section 2.1).
    Stream,
}

/// Stream-shell interface synthesis: wrap the synthesized FSMD in a
/// ready/valid handshake shell so the design can be composed into
/// multi-module dataflow systems (the paper's "interface synthesis"
/// directive, extended from single transfers to full token streams).
///
/// One *token* on the input side carries the values of every `In`
/// parameter; one output token carries every `Out` parameter. The shell
/// stalls the core on `!in_valid` / `!out_ready` and adds a registered
/// output stage so `ready` never combinationally depends on `valid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamInterface {
    /// Default depth of FIFO channels attached to this module's ports
    /// (clamped to ≥ 1 by [`Directives::stream_interface`]).
    pub fifo_depth: u32,
    /// Default first-word-fall-through mode for attached channels: a
    /// token pushed this cycle is visible to the consumer this cycle.
    pub fall_through: bool,
}

impl Default for StreamInterface {
    fn default() -> Self {
        StreamInterface {
            fifo_depth: 2,
            fall_through: false,
        }
    }
}

/// The complete directive set for one synthesis run.
///
/// # Examples
///
/// ```
/// use hls_core::{Directives, Unroll};
///
/// // The paper's third architecture: merging on, U=2 on the 16-iteration
/// // loops.
/// let d = Directives::new(10.0)
///     .unroll("dfe", Unroll::Factor(2))
///     .unroll("dfe_adapt", Unroll::Factor(2))
///     .unroll("dfe_shift", Unroll::Factor(2));
/// assert_eq!(d.loop_directive("dfe").unroll, Unroll::Factor(2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Directives {
    /// Target clock period in nanoseconds.
    pub clock_period_ns: f64,
    /// Loop merging policy (the tool default enables merging).
    pub merge_policy: MergePolicy,
    /// Per-loop directives, keyed by loop label.
    pub loops: BTreeMap<String, LoopDirective>,
    /// Per-array mapping, keyed by variable name.
    pub arrays: BTreeMap<String, ArrayMapping>,
    /// Per-parameter interface kinds, keyed by parameter name.
    pub interfaces: BTreeMap<String, InterfaceKind>,
    /// Optional cap on functional units per class (scheduling resource
    /// constraint); keys are `OpClass` display names.
    pub fu_limits: BTreeMap<String, u32>,
    /// Netlist optimization between lowering and scheduling (default on
    /// at [`OptLevel::Full`]; part of the canonical request digest).
    pub netlist_opt: NetlistOptConfig,
    /// Stream-interface synthesis: when set, the `stream-shell` pass
    /// wraps the FSMD in a ready/valid handshake shell (`None` keeps the
    /// classic start/done call interface). Part of the canonical request
    /// digest, so shelled and unshelled artifacts can never alias.
    pub stream: Option<StreamInterface>,
}

impl Directives {
    /// Creates a directive set with the given clock period and the tool
    /// defaults: merging enabled, no unrolling, arrays in registers,
    /// register-handshake interfaces.
    pub fn new(clock_period_ns: f64) -> Self {
        Directives {
            clock_period_ns,
            merge_policy: MergePolicy::default(),
            loops: BTreeMap::new(),
            arrays: BTreeMap::new(),
            interfaces: BTreeMap::new(),
            fu_limits: BTreeMap::new(),
            netlist_opt: NetlistOptConfig::default(),
            stream: None,
        }
    }

    /// Requests stream-interface synthesis with the given default FIFO
    /// depth (clamped to ≥ 1) and fall-through mode.
    pub fn stream_interface(mut self, fifo_depth: u32, fall_through: bool) -> Self {
        self.stream = Some(StreamInterface {
            fifo_depth: fifo_depth.max(1),
            fall_through,
        });
        self
    }

    /// Sets the netlist optimization level.
    pub fn netlist_opt_level(mut self, level: OptLevel) -> Self {
        self.netlist_opt.level = level;
        self
    }

    /// Disables loop merging (the paper's second architecture: "none").
    pub fn no_merging(mut self) -> Self {
        self.merge_policy = MergePolicy::Off;
        self
    }

    /// Sets the merge policy.
    pub fn merge_policy(mut self, policy: MergePolicy) -> Self {
        self.merge_policy = policy;
        self
    }

    /// Sets the unroll factor of one loop.
    pub fn unroll(mut self, label: &str, unroll: Unroll) -> Self {
        self.loops.entry(label.to_string()).or_default().unroll = unroll;
        self
    }

    /// Pipelines one loop with the given initiation interval.
    pub fn pipeline(mut self, label: &str, ii: u32) -> Self {
        self.loops.entry(label.to_string()).or_default().pipeline_ii = Some(ii);
        self
    }

    /// Applies one point of a per-loop grid sweep: an unroll factor and a
    /// pipeline-II choice for every swept loop, in one call. Factor 1 and
    /// `None` are the defaults and create **no** per-loop entry, so a grid
    /// point that happens to match the tool defaults canonicalizes (and
    /// memoizes) identically to a directive set that never mentioned the
    /// loop.
    pub fn grid_point(mut self, unroll: &[(&str, u32)], pipeline: &[(&str, Option<u32>)]) -> Self {
        for &(label, f) in unroll {
            if f > 1 {
                self.loops.entry(label.to_string()).or_default().unroll = Unroll::Factor(f);
            }
        }
        for &(label, ii) in pipeline {
            if let Some(ii) = ii {
                self.loops.entry(label.to_string()).or_default().pipeline_ii = Some(ii);
            }
        }
        self
    }

    /// Excludes one loop from merging.
    pub fn no_merge(mut self, label: &str) -> Self {
        self.loops.entry(label.to_string()).or_default().no_merge = true;
        self
    }

    /// Maps one array variable.
    pub fn map_array(mut self, var: &str, mapping: ArrayMapping) -> Self {
        self.arrays.insert(var.to_string(), mapping);
        self
    }

    /// Sets the interface kind of one parameter.
    pub fn interface(mut self, param: &str, kind: InterfaceKind) -> Self {
        self.interfaces.insert(param.to_string(), kind);
        self
    }

    /// Caps the number of functional units of one class.
    pub fn limit_fu(mut self, class: crate::tech::OpClass, max: u32) -> Self {
        self.fu_limits.insert(class.to_string(), max);
        self
    }

    /// The directive for a loop (defaults when unset).
    pub fn loop_directive(&self, label: &str) -> LoopDirective {
        self.loops.get(label).copied().unwrap_or_default()
    }

    /// The mapping for an array (registers when unset).
    pub fn array_mapping(&self, var: &str) -> ArrayMapping {
        self.arrays.get(var).copied().unwrap_or_default()
    }

    /// The interface kind for a parameter (register-handshake when unset).
    pub fn interface_kind(&self, param: &str) -> InterfaceKind {
        self.interfaces.get(param).copied().unwrap_or_default()
    }

    /// The FU limit for a class, if any.
    pub fn fu_limit(&self, class: crate::tech::OpClass) -> Option<u32> {
        self.fu_limits.get(&class.to_string()).copied()
    }

    /// The `(read, write)` ports variable `v` of `func` competes for when
    /// scheduled, or `None` for one split into registers, which any number
    /// of operations may access at once. Memory-mapped arrays have their
    /// mapping's ports; streamed parameters one of each (Section 2.1:
    /// index accesses become accesses over time, one element per cycle).
    pub(crate) fn mem_ports(&self, func: &Function, v: VarId) -> Option<(u32, u32)> {
        let name = &func.var(v).name;
        if let ArrayMapping::Memory {
            read_ports,
            write_ports,
        } = self.array_mapping(name)
        {
            return Some((read_ports, write_ports));
        }
        (self.interface_kind(name) == InterfaceKind::Stream).then_some((1, 1))
    }

    /// Serializes the directive set to the JSON request schema used by
    /// `hls-serve` (BTreeMap iteration keeps key order deterministic).
    pub fn to_json(&self) -> Json {
        let loops = self
            .loops
            .iter()
            .map(|(label, d)| {
                let unroll = match d.unroll {
                    Unroll::None => Json::str("none"),
                    Unroll::Full => Json::str("full"),
                    Unroll::Factor(f) => Json::count(f as u64),
                };
                let ii = match d.pipeline_ii {
                    Some(ii) => Json::count(ii as u64),
                    None => Json::Null,
                };
                (
                    label.clone(),
                    Json::obj(vec![
                        ("unroll", unroll),
                        ("pipeline_ii", ii),
                        ("no_merge", Json::Bool(d.no_merge)),
                    ]),
                )
            })
            .collect();
        let arrays = self
            .arrays
            .iter()
            .map(|(var, m)| {
                let v = match m {
                    ArrayMapping::Registers => Json::str("registers"),
                    ArrayMapping::Memory {
                        read_ports,
                        write_ports,
                    } => Json::obj(vec![
                        ("read_ports", Json::count(*read_ports as u64)),
                        ("write_ports", Json::count(*write_ports as u64)),
                    ]),
                };
                (var.clone(), v)
            })
            .collect();
        let interfaces = self
            .interfaces
            .iter()
            .map(|(param, k)| {
                let v = match k {
                    InterfaceKind::Wire => "wire",
                    InterfaceKind::RegisterHandshake => "register_handshake",
                    InterfaceKind::Memory => "memory",
                    InterfaceKind::Stream => "stream",
                };
                (param.clone(), Json::str(v))
            })
            .collect();
        let fu_limits = self
            .fu_limits
            .iter()
            .map(|(class, max)| (class.clone(), Json::count(*max as u64)))
            .collect();
        let policy = match self.merge_policy {
            MergePolicy::AllowHazards => "allow_hazards",
            MergePolicy::ExactOnly => "exact_only",
            MergePolicy::Off => "off",
        };
        Json::obj(vec![
            ("clock_period_ns", Json::Num(self.clock_period_ns)),
            ("merge_policy", Json::str(policy)),
            ("loops", Json::Obj(loops)),
            ("arrays", Json::Obj(arrays)),
            ("interfaces", Json::Obj(interfaces)),
            ("fu_limits", Json::Obj(fu_limits)),
            ("netlist_opt", self.netlist_opt.to_json()),
            (
                "stream",
                match &self.stream {
                    None => Json::Null,
                    Some(s) => Json::obj(vec![
                        ("fifo_depth", Json::count(s.fifo_depth as u64)),
                        ("fall_through", Json::Bool(s.fall_through)),
                    ]),
                },
            ),
        ])
    }

    /// Deserializes a directive set from the JSON request schema. Unknown
    /// keys inside known maps are rejected so malformed requests fail loudly.
    pub fn from_json(v: &Json) -> Result<Directives, String> {
        let clock = v
            .get("clock_period_ns")
            .and_then(Json::as_f64)
            .ok_or("directives: missing numeric clock_period_ns")?;
        let mut d = Directives::new(clock);
        d.merge_policy = match v.get("merge_policy").and_then(Json::as_str) {
            None | Some("allow_hazards") => MergePolicy::AllowHazards,
            Some("exact_only") => MergePolicy::ExactOnly,
            Some("off") => MergePolicy::Off,
            Some(other) => return Err(format!("directives: unknown merge_policy {other:?}")),
        };
        for (label, ld) in v.get("loops").and_then(Json::as_obj).unwrap_or(&[]) {
            let unroll = match ld.get("unroll") {
                None => Unroll::None,
                Some(u) => match (u.as_str(), u.as_u64()) {
                    (Some("none"), _) => Unroll::None,
                    (Some("full"), _) => Unroll::Full,
                    (_, Some(f)) => Unroll::Factor(f as u32),
                    _ => return Err(format!("directives: bad unroll for loop {label:?}")),
                },
            };
            let pipeline_ii = match ld.get("pipeline_ii") {
                None | Some(Json::Null) => None,
                Some(ii) => Some(
                    ii.as_u64()
                        .ok_or_else(|| format!("directives: bad pipeline_ii for loop {label:?}"))?
                        as u32,
                ),
            };
            let no_merge = ld.get("no_merge").and_then(Json::as_bool).unwrap_or(false);
            d.loops.insert(
                label.clone(),
                LoopDirective {
                    unroll,
                    pipeline_ii,
                    no_merge,
                },
            );
        }
        for (var, m) in v.get("arrays").and_then(Json::as_obj).unwrap_or(&[]) {
            let mapping =
                match m {
                    Json::Str(s) if s == "registers" => ArrayMapping::Registers,
                    Json::Obj(_) => {
                        ArrayMapping::Memory {
                            read_ports: m.get("read_ports").and_then(Json::as_u64).ok_or_else(
                                || format!("directives: bad mapping for array {var:?}"),
                            )? as u32,
                            write_ports: m.get("write_ports").and_then(Json::as_u64).ok_or_else(
                                || format!("directives: bad mapping for array {var:?}"),
                            )? as u32,
                        }
                    }
                    _ => return Err(format!("directives: bad mapping for array {var:?}")),
                };
            d.arrays.insert(var.clone(), mapping);
        }
        for (param, k) in v.get("interfaces").and_then(Json::as_obj).unwrap_or(&[]) {
            let kind = match k.as_str() {
                Some("wire") => InterfaceKind::Wire,
                Some("register_handshake") => InterfaceKind::RegisterHandshake,
                Some("memory") => InterfaceKind::Memory,
                Some("stream") => InterfaceKind::Stream,
                _ => return Err(format!("directives: bad interface for {param:?}")),
            };
            d.interfaces.insert(param.clone(), kind);
        }
        for (class, max) in v.get("fu_limits").and_then(Json::as_obj).unwrap_or(&[]) {
            if crate::tech::OpClass::parse(class).is_none() {
                return Err(format!("directives: unknown fu class {class:?}"));
            }
            let max = max
                .as_u64()
                .ok_or_else(|| format!("directives: bad fu limit for {class:?}"))?;
            d.fu_limits.insert(class.clone(), max as u32);
        }
        if let Some(n) = v.get("netlist_opt") {
            // Absent key => the default (older serialized forms).
            d.netlist_opt =
                NetlistOptConfig::from_json(n).map_err(|e| format!("directives: {e}"))?;
        }
        match v.get("stream") {
            // Absent key => no stream shell (older serialized forms).
            None | Some(Json::Null) => {}
            Some(s) => {
                let depth = s
                    .get("fifo_depth")
                    .and_then(Json::as_u64)
                    .ok_or("directives: stream needs a numeric fifo_depth")?;
                if depth == 0 {
                    return Err("directives: stream fifo_depth must be >= 1".into());
                }
                d.stream = Some(StreamInterface {
                    fifo_depth: depth as u32,
                    fall_through: s
                        .get("fall_through")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                });
            }
        }
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::OpClass;

    #[test]
    fn defaults_match_tool_defaults() {
        let d = Directives::new(10.0);
        assert_eq!(d.merge_policy, MergePolicy::AllowHazards);
        assert_eq!(d.loop_directive("anything").unroll, Unroll::None);
        assert_eq!(d.array_mapping("x"), ArrayMapping::Registers);
        assert_eq!(d.interface_kind("data"), InterfaceKind::RegisterHandshake);
        assert_eq!(d.fu_limit(OpClass::Mul), None);
    }

    #[test]
    fn unroll_factor_semantics() {
        assert_eq!(Unroll::None.factor(16), 1);
        assert_eq!(Unroll::Factor(2).factor(16), 2);
        assert_eq!(Unroll::Factor(32).factor(16), 16); // clamped to trip
        assert_eq!(Unroll::Full.factor(16), 16);
        assert_eq!(Unroll::Factor(0).factor(16), 1); // degenerate
    }

    #[test]
    fn grid_point_defaults_leave_no_trace() {
        // A grid point at the defaults must canonicalize exactly like a
        // directive set that never mentioned the loops — otherwise the
        // explorer's memo cache would miss on U1/unpipelined aliases.
        let plain = Directives::new(10.0);
        let gridded = Directives::new(10.0)
            .grid_point(&[("ffe", 1), ("dfe", 1)], &[("ffe", None), ("dfe", None)]);
        assert_eq!(plain, gridded);
        let d = Directives::new(10.0).grid_point(&[("ffe", 4), ("dfe", 1)], &[("dfe", Some(2))]);
        assert_eq!(d.loop_directive("ffe").unroll, Unroll::Factor(4));
        assert_eq!(d.loop_directive("ffe").pipeline_ii, None);
        assert_eq!(d.loop_directive("dfe").unroll, Unroll::None);
        assert_eq!(d.loop_directive("dfe").pipeline_ii, Some(2));
    }

    #[test]
    fn stream_directive_round_trips_and_defaults_off() {
        let plain = Directives::new(10.0);
        assert_eq!(plain.stream, None);
        // Absent key in older serialized forms => None.
        let back = Directives::from_json(&plain.to_json()).unwrap();
        assert_eq!(back.stream, None);

        let d = Directives::new(10.0).stream_interface(4, true);
        assert_eq!(
            d.stream,
            Some(StreamInterface {
                fifo_depth: 4,
                fall_through: true
            })
        );
        let back = Directives::from_json(&d.to_json()).unwrap();
        assert_eq!(back, d);

        // Depth is clamped to >= 1 by the builder and rejected at 0 in JSON.
        assert_eq!(
            Directives::new(10.0).stream_interface(0, false).stream,
            Some(StreamInterface {
                fifo_depth: 1,
                fall_through: false
            })
        );
        let mut bad = d.to_json();
        if let Json::Obj(pairs) = &mut bad {
            for (k, v) in pairs.iter_mut() {
                if k == "stream" {
                    *v = Json::obj(vec![("fifo_depth", Json::count(0))]);
                }
            }
        }
        assert!(Directives::from_json(&bad).is_err());
    }

    #[test]
    fn builder_accumulates() {
        let d = Directives::new(10.0)
            .no_merging()
            .unroll("dfe", Unroll::Factor(2))
            .pipeline("ffe", 1)
            .map_array(
                "x",
                ArrayMapping::Memory {
                    read_ports: 1,
                    write_ports: 1,
                },
            )
            .interface("data", InterfaceKind::Wire)
            .limit_fu(OpClass::Mul, 4);
        assert_eq!(d.merge_policy, MergePolicy::Off);
        assert_eq!(d.loop_directive("dfe").unroll, Unroll::Factor(2));
        assert_eq!(d.loop_directive("ffe").pipeline_ii, Some(1));
        assert!(matches!(d.array_mapping("x"), ArrayMapping::Memory { .. }));
        assert_eq!(d.interface_kind("data"), InterfaceKind::Wire);
        assert_eq!(d.fu_limit(OpClass::Mul), Some(4));
    }
}
