//! The proof cache's key, `fsmd_key`, is the only machine identity: it
//! splits machines exactly where a structural comparison of every field
//! does, and never on the clock.
//!
//! The corpus is the four Table-1 decoders and two small kernels at every
//! netlist optimization level, each at two clocks so that clock twins
//! occur. Single-field mutations of one machine each change the key; a
//! changed clock alone does not. The sweep prover replays verdicts under
//! the key, so directive sets that synthesize one machine share a proof.

use fixpt::{Fixed, Format};
use hls_core::dfg::{build_dfg, NodeKind};
use hls_core::{
    synthesize, Directives, Lowered, MergePolicy, OptLevel, Segment, TechLibrary, Unroll,
};
use hls_ir::{parse_function, Expr, Function, Stmt, Ty};
use hls_verify::{fsmd_key, verify_equiv, ExploreProver, ProverStats};
use qam_decoder::{table1_architectures, table1_library, QAM_DECODER_SOURCE};
use rtl::{Control, Fsmd};

/// Two loops around an accumulator.
const SRC: &str = r#"
    void diff(sc_fixed<6,3> x[3], sc_fixed<12,6> *out) {
        sc_fixed<12,6> acc = 0;
        up: for (int i = 0; i < 3; i++) { acc += x[i] * 2; }
        dn: for (int j = 0; j < 3; j++) { acc += x[j] - x[0] + x[0]; }
        *out = acc;
    }
"#;

/// A kernel with statics, a branch, a shift and a cast, so the key sees
/// every statement and most expression kinds.
const BRANCHY: &str = r#"
    void kernel(sc_fixed<8,4> x[4], sc_fixed<12,6> *out) {
        static sc_fixed<8,4> taps[4];
        sc_fixed<12,6> acc = 0;
        shift: for (int i = 3; i > 0; i--) {
            taps[i] = taps[i - 1];
        }
        taps[0] = x[0];
        mac: for (int k = 0; k < 4; k++) {
            if (taps[k] > 0) {
                acc += taps[k] * 2;
            } else {
                acc -= (sc_fixed<8,4>)(taps[k] >> 1);
            }
        }
        *out = acc - x[0] + x[0];
    }
"#;

/// An 8-tap sum: one loop with no neighbour to merge with, which a unit
/// unroll leaves as it is.
const SUM: &str = "void sum(sc_fixed<10,2> x[8], sc_fixed<16,8> *out) { \
    sc_fixed<16,8> acc = 0; \
    sum_loop: for (int k = 0; k < 8; k++) { acc += x[k]; } \
    *out = acc; }";

fn machine(func: &Function, d: &Directives, lib: &TechLibrary) -> Fsmd {
    Fsmd::from_synthesis(&synthesize(func, d, lib).expect("synthesizes"))
}

/// The reference identity the key is held to: equal name, ports,
/// control, schedules and lowered design, and every constant equal in raw
/// bits and format. `Fixed`'s `==` compares values, yet a shift or an
/// operation's result format reads a constant's format, so `==` alone is
/// too coarse. The clock is not compared.
fn same_machine(a: &Fsmd, b: &Fsmd) -> bool {
    a.name == b.name
        && a.ports == b.ports
        && a.control == b.control
        && a.schedules == b.schedules
        && a.lowered == b.lowered
        && constants(a) == constants(b)
}

/// Every constant of `m`'s staged function, statements in pre-order,
/// then of each segment graph in node order, as raw bits and format.
fn constants(m: &Fsmd) -> Vec<(i128, Format)> {
    let mut bits = Vec::new();
    for s in &m.lowered.func.body {
        s.visit(&mut |s| {
            let exprs = match s {
                Stmt::Assign { value, .. } => vec![value],
                Stmt::Store { index, value, .. } => vec![index, value],
                Stmt::If { cond, .. } => vec![cond],
                Stmt::For(_) => Vec::new(),
            };
            for e in exprs {
                e.visit(&mut |e| {
                    if let Expr::Const(c) = e {
                        bits.push((c.raw(), c.format()));
                    }
                });
            }
        });
    }
    for seg in &m.lowered.segments {
        for n in seg.dfg().nodes() {
            if let NodeKind::Const(c) = n.kind {
                bits.push((c.raw(), c.format()));
            }
        }
    }
    bits
}

#[test]
fn the_key_splits_exactly_where_same_machine_does() {
    let decoder = parse_function(QAM_DECODER_SOURCE).unwrap();
    let kernels = [
        parse_function(SRC).unwrap(),
        parse_function(BRANCHY).unwrap(),
    ];
    let lib = table1_library();
    let mut machines = Vec::new();
    for level in [OptLevel::Full, OptLevel::Basic, OptLevel::Off] {
        for clock in [10.0, 12.5] {
            for arch in table1_architectures() {
                let mut d = arch.directives.netlist_opt_level(level);
                d.clock_period_ns = clock;
                machines.push(machine(&decoder, &d, &lib));
            }
            for func in &kernels {
                let d = Directives::new(clock).netlist_opt_level(level);
                machines.push(machine(func, &d, &lib));
            }
        }
    }
    let keys: Vec<String> = machines.iter().map(fsmd_key).collect();
    let (mut twins, mut distinct) = (0, 0);
    for (i, a) in machines.iter().enumerate() {
        for (j, b) in machines.iter().enumerate().skip(i + 1) {
            let same = same_machine(a, b);
            assert_eq!(
                keys[i] == keys[j],
                same,
                "machines {i} ({} at {} ns) and {j} ({} at {} ns)",
                a.name,
                a.clock_ns,
                b.name,
                b.clock_ns
            );
            if same && a.clock_ns != b.clock_ns {
                twins += 1;
            } else if !same {
                distinct += 1;
            }
        }
    }
    assert!(twins > 0, "the corpus must hold clock twins");
    assert!(distinct > 0, "the corpus must hold distinct machines");
}

/// `base` with its lowered design edited by `edit`.
fn with_lowered(base: &Fsmd, edit: impl FnOnce(&mut Lowered)) -> Fsmd {
    let mut m = base.clone();
    edit(&mut m.lowered);
    m
}

/// `base` with the lowered design's first segment replaced by the graph
/// of `stmts`.
fn with_first_segment(base: &Fsmd, stmts: &[Stmt]) -> Fsmd {
    with_lowered(base, |low| {
        low.segments[0] = Segment::Straight {
            dfg: build_dfg(&low.func, stmts),
        }
    })
}

/// Asserts that `a` and `b` differ in exactly one node of their first
/// segment, and there only in the node's kind.
fn assert_one_node_kind_differs(a: &Fsmd, b: &Fsmd) {
    let na = a.lowered.segments[0].dfg().nodes();
    let nb = b.lowered.segments[0].dfg().nodes();
    assert_eq!(na.len(), nb.len());
    let differing: Vec<usize> = (0..na.len()).filter(|&i| na[i] != nb[i]).collect();
    assert_eq!(differing.len(), 1, "{differing:?}");
    let i = differing[0];
    assert_ne!(na[i].kind, nb[i].kind);
    assert_eq!((&na[i].preds, na[i].format), (&nb[i].preds, nb[i].format));
}

#[test]
fn every_single_field_mutation_changes_the_key_and_the_clock_does_not() {
    let lib = TechLibrary::asic_100mhz();
    let base = machine(&parse_function(SRC).unwrap(), &Directives::new(10.0), &lib);
    let func = &base.lowered.func;
    let (acc, _) = func
        .iter_vars()
        .find(|(_, v)| v.name == "acc")
        .expect("the kernel has an accumulator");
    let fmt = func.var(acc).ty.format().expect("fixed-point accumulator");
    let konst = |raw| Expr::Const(Fixed::from_raw(raw, fmt).unwrap());
    let assign = |value| [Stmt::Assign { var: acc, value }];
    let add3 = with_first_segment(&base, &assign(Expr::add(Expr::var(acc), konst(3))));
    let add5 = with_first_segment(&base, &assign(Expr::add(Expr::var(acc), konst(5))));
    let sub3 = with_first_segment(&base, &assign(Expr::sub(Expr::var(acc), konst(3))));
    assert_one_node_kind_differs(&add3, &add5);
    assert_one_node_kind_differs(&add3, &sub3);
    let mut pairs = vec![
        ("a constant's raw bits", add3.clone(), add5),
        ("a node's operator", add3, sub3),
    ];
    let wider = Ty::Fixed(Format::signed(fmt.width() + 1, fmt.int_bits()));
    pairs.push((
        "a variable's format",
        base.clone(),
        with_lowered(&base, |low| low.func.vars[acc.index()].ty = wider),
    ));
    pairs.push((
        "a port's width",
        base.clone(),
        with_lowered(&base, |low| low.ports[0].width += 1),
    ));
    pairs.push((
        "a loop's trip count",
        base.clone(),
        with_lowered(&base, |low| {
            let trip = low
                .segments
                .iter_mut()
                .find_map(|s| match s {
                    Segment::Loop { trip, .. } => Some(trip),
                    Segment::Straight { .. } => None,
                })
                .expect("the kernel keeps a loop");
            *trip += 1;
        }),
    ));
    pairs.push((
        "handshake",
        base.clone(),
        with_lowered(&base, |low| low.handshake = !low.handshake),
    ));
    let mut m = base.clone();
    m.name.push('2');
    pairs.push(("the name", base.clone(), m));
    let mut m = base.clone();
    let bound = m
        .control
        .iter_mut()
        .find_map(|c| match c {
            Control::Loop { bound, .. } => Some(bound),
            Control::Straight { .. } => None,
        })
        .expect("the kernel keeps a loop");
    *bound += 1;
    pairs.push(("a loop controller's bound", base.clone(), m));
    let mut m = base.clone();
    m.schedules[0].node_cycle[0] += 1;
    pairs.push(("a node's schedule cycle", base.clone(), m));
    for (what, original, mutant) in &pairs {
        assert_ne!(
            fsmd_key(original),
            fsmd_key(mutant),
            "mutating {what} must change the key"
        );
    }

    // Constants of equal value compare `==` whatever their formats
    // (`Fixed` compares values), yet a shift reads its operand's format.
    // The key hashes a constant's representation, so it splits these.
    let (narrow, widened) = constant_format_twins(&base);
    assert_ne!(
        fsmd_key(&narrow),
        fsmd_key(&widened),
        "a constant's format must change the key"
    );

    let mut twin = base.clone();
    twin.clock_ns = 12.5;
    assert_eq!(
        fsmd_key(&base),
        fsmd_key(&twin),
        "the clock must not change the key"
    );
}

/// Two copies of `base` whose first statement assigns the accumulator
/// the constant 2, once in the accumulator's format and once widened:
/// equal values, different formats.
fn constant_format_twins(base: &Fsmd) -> (Fsmd, Fsmd) {
    let func = &base.lowered.func;
    let (acc, _) = func
        .iter_vars()
        .find(|(_, v)| v.name == "acc")
        .expect("the kernel has an accumulator");
    let fmt = func.var(acc).ty.format().expect("fixed-point accumulator");
    let two = Fixed::from_raw(2, fmt).unwrap();
    let wide = two.cast(Format::signed(fmt.width() + 2, fmt.int_bits() + 2));
    assert_eq!(two, wide);
    let first = |c: Fixed| {
        with_lowered(base, |low| {
            low.func.body[0] = Stmt::Assign {
                var: acc,
                value: Expr::Const(c),
            }
        })
    };
    let (narrow, widened) = (first(two), first(wide));
    assert!(narrow.lowered == widened.lowered, "only the format differs");
    (narrow, widened)
}

#[test]
fn a_constant_format_splits_the_sweep_provers_memo() {
    // The sweep prover shares an IR context per function and replays a
    // verdict per machine. Two machines whose only difference is a
    // constant's format must get a context and a proof each.
    let lib = TechLibrary::asic_100mhz();
    let d = Directives::new(10.0);
    let base = machine(&parse_function(SRC).unwrap(), &d, &lib);
    let (narrow, widened) = constant_format_twins(&base);
    let prover = ExploreProver::new();
    prover.verify(&narrow);
    prover.verify(&widened);
    assert_eq!(
        prover.stats(),
        ProverStats {
            contexts: 2,
            proofs: 2,
            memo_hits: 0,
        }
    );
}

#[test]
fn one_machine_under_three_directive_sets_is_proved_once() {
    // No merge, merging allowed and an explicit unit unroll are three
    // transform signatures, but the single loop neither merges nor
    // unrolls: all three synthesize one machine, and the sweep prover
    // builds one context and runs one proof for it.
    let func = parse_function(SUM).unwrap();
    let lib = TechLibrary::asic_100mhz();
    let base = Directives::new(10.0);
    let machines: Vec<Fsmd> = [
        base.clone().merge_policy(MergePolicy::Off),
        base.clone().merge_policy(MergePolicy::AllowHazards),
        base.unroll("sum_loop", Unroll::Factor(1)),
    ]
    .iter()
    .map(|d| machine(&func, d, &lib))
    .collect();
    let key = fsmd_key(&machines[0]);
    for m in &machines {
        assert_eq!(fsmd_key(m), key, "one machine, one key");
    }
    let prover = ExploreProver::new();
    for m in &machines {
        let report = prover.verify(m);
        assert!(report.passed(), "{}", report.describe());
        assert_eq!(report.describe(), verify_equiv(m).describe());
    }
    assert_eq!(
        prover.stats(),
        ProverStats {
            contexts: 1,
            proofs: 1,
            memo_hits: 2,
        }
    );
}
