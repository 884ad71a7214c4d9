//! Executable tapes: compiled evaluation schedules.
//!
//! A [`Tape`] is the bytecode the "code generator" emits — the runnable
//! artifact corresponding to the CUDA C the paper's SymPyGR pipeline
//! produces. The solver's generated-RHS backends run it as the `A`
//! component of the RHS. A GPU runs the generated code one thread per
//! grid point, so a warp issues each instruction once for 32 points;
//! [`Tape::eval_lanes`] does the same on the host, decoding each
//! instruction once for a batch of points held in SoA lanes (the solver
//! batches one 49-point k-plane of the 7³ block), and [`Tape::eval_into`]
//! is its one-lane instance. The three scheduling strategies produce
//! tapes with identical arithmetic but different temporary-slot
//! footprints, which is what Fig. 11 / Table II measure.
//!
//! Slot allocation reuses freed slots, so the tape's `n_slots` equals the
//! schedule's peak live count plus the operand window — the working-set
//! size that drives cache behaviour during interpretation.

use crate::graph::{ExprGraph, NodeId, Op};
use crate::regalloc::{simulate_spills, SpillStats};
use crate::schedule::Schedule;
use std::collections::HashMap;

/// One tape instruction. `dst`/`a`/`b` are temporary-slot indices;
/// `Input` reads the flat input array, `Output` writes the output array.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TapeInstr {
    /// `slots[dst] = constants[c]`
    Const {
        dst: u16,
        c: u16,
    },
    /// `slots[dst] = inputs[i]`
    Input {
        dst: u16,
        i: u16,
    },
    Add {
        dst: u16,
        a: u16,
        b: u16,
    },
    Sub {
        dst: u16,
        a: u16,
        b: u16,
    },
    Mul {
        dst: u16,
        a: u16,
        b: u16,
    },
    Div {
        dst: u16,
        a: u16,
        b: u16,
    },
    Neg {
        dst: u16,
        a: u16,
    },
    Powi {
        dst: u16,
        a: u16,
        n: i16,
    },
    /// `outputs[o] = slots[a]`
    Output {
        o: u16,
        a: u16,
    },
}

/// A compiled, executable evaluation tape.
pub struct Tape {
    pub instrs: Vec<TapeInstr>,
    pub constants: Vec<f64>,
    /// Temporary slots (lane rows, for [`Tape::eval_lanes`]) an
    /// evaluation needs.
    pub n_slots: usize,
    pub n_inputs: usize,
    pub n_outputs: usize,
    /// Flop count per evaluation.
    pub flops: u64,
    /// Spill statistics at the 56-register budget used by the paper
    /// (recorded at compile time for the device counters).
    pub spill_stats: SpillStats,
    pub strategy_name: &'static str,
}

impl Tape {
    /// Compile a schedule into a tape. `registers` sets the spill-model
    /// budget recorded in [`Tape::spill_stats`] (the paper uses 56).
    pub fn compile(g: &ExprGraph, schedule: &Schedule, registers: usize) -> Tape {
        let spill_stats = simulate_spills(g, schedule, registers);
        let mut instrs: Vec<TapeInstr> = Vec::with_capacity(schedule.order.len() * 2);
        let mut constants: Vec<f64> = Vec::new();
        let mut const_idx: HashMap<u64, u16> = HashMap::new();

        // Remaining-use counts to recycle slots.
        let mut remaining: HashMap<NodeId, u32> = HashMap::new();
        for &n in &schedule.order {
            for c in g.op(n).operands() {
                *remaining.entry(c).or_insert(0) += 1;
            }
        }
        let out_positions: HashMap<NodeId, Vec<u16>> = {
            let mut m: HashMap<NodeId, Vec<u16>> = HashMap::new();
            for (i, &o) in schedule.outputs.iter().enumerate() {
                m.entry(o).or_default().push(field(i, "output position"));
            }
            m
        };

        let mut slot_of: HashMap<NodeId, u16> = HashMap::new();
        let mut free: Vec<u16> = Vec::new();
        let mut n_slots: u16 = 0;
        let mut flops: u64 = 0;

        let alloc = |free: &mut Vec<u16>, n_slots: &mut u16| -> u16 {
            free.pop().unwrap_or_else(|| {
                let s = *n_slots;
                *n_slots = n_slots.checked_add(1).unwrap_or_else(|| {
                    panic!("tape: needs more than {} temporary slots", u16::MAX)
                });
                s
            })
        };

        // Materialize an operand into a slot (leaves load on demand).
        macro_rules! operand_slot {
            ($id:expr) => {{
                let id: NodeId = $id;
                match g.op(id) {
                    Op::Const(bits) => {
                        let c = *const_idx.entry(bits).or_insert_with(|| {
                            constants.push(f64::from_bits(bits));
                            field(constants.len() - 1, "constant index")
                        });
                        let dst = alloc(&mut free, &mut n_slots);
                        instrs.push(TapeInstr::Const { dst, c });
                        (dst, true)
                    }
                    Op::Sym(i) => {
                        let dst = alloc(&mut free, &mut n_slots);
                        instrs.push(TapeInstr::Input { dst, i: field(i as usize, "input index") });
                        (dst, true)
                    }
                    _ => (*slot_of.get(&id).expect("operand scheduled"), false),
                }
            }};
        }

        for &n in &schedule.order {
            let op = g.op(n);
            let mut temp_slots: Vec<u16> = Vec::new();
            let (sa, sb) = match op {
                Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) => {
                    let (sa, ta) = operand_slot!(a);
                    if ta {
                        temp_slots.push(sa);
                    }
                    let (sb, tb) = operand_slot!(b);
                    if tb {
                        temp_slots.push(sb);
                    }
                    (sa, Some(sb))
                }
                Op::Neg(a) | Op::Pow(a, _) => {
                    let (sa, ta) = operand_slot!(a);
                    if ta {
                        temp_slots.push(sa);
                    }
                    (sa, None)
                }
                Op::Const(_) | Op::Sym(_) => unreachable!("leaves are not scheduled"),
            };
            // Release interior operand slots whose last use this is.
            for c in op.operands() {
                if g.op(c).is_leaf() {
                    continue;
                }
                let r = remaining.get_mut(&c).unwrap();
                *r -= 1;
                if *r == 0 {
                    if let Some(s) = slot_of.remove(&c) {
                        free.push(s);
                    }
                }
            }
            // Release one-shot leaf slots.
            free.extend(temp_slots);
            let dst = alloc(&mut free, &mut n_slots);
            flops += op.flops();
            instrs.push(match op {
                Op::Add(..) => TapeInstr::Add { dst, a: sa, b: sb.unwrap() },
                Op::Sub(..) => TapeInstr::Sub { dst, a: sa, b: sb.unwrap() },
                Op::Mul(..) => TapeInstr::Mul { dst, a: sa, b: sb.unwrap() },
                Op::Div(..) => TapeInstr::Div { dst, a: sa, b: sb.unwrap() },
                Op::Neg(_) => TapeInstr::Neg { dst, a: sa },
                Op::Pow(_, k) => TapeInstr::Powi {
                    dst,
                    a: sa,
                    n: i16::try_from(k).unwrap_or_else(|_| {
                        panic!("tape: pow exponent {k} outside the i16 range of Powi")
                    }),
                },
                _ => unreachable!(),
            });
            // Emit outputs immediately (store-to-global in Algorithm 3).
            if let Some(outs) = out_positions.get(&n) {
                for &o in outs {
                    instrs.push(TapeInstr::Output { o, a: dst });
                }
            }
            if remaining.get(&n).copied().unwrap_or(0) > 0 {
                slot_of.insert(n, dst);
            } else {
                free.push(dst);
            }
        }
        // Outputs that are pure leaves (degenerate but legal).
        for (i, &o) in schedule.outputs.iter().enumerate() {
            match g.op(o) {
                Op::Const(bits) => {
                    let c = *const_idx.entry(bits).or_insert_with(|| {
                        constants.push(f64::from_bits(bits));
                        field(constants.len() - 1, "constant index")
                    });
                    let dst = alloc(&mut free, &mut n_slots);
                    instrs.push(TapeInstr::Const { dst, c });
                    instrs.push(TapeInstr::Output { o: field(i, "output position"), a: dst });
                    free.push(dst);
                }
                Op::Sym(s) => {
                    let dst = alloc(&mut free, &mut n_slots);
                    instrs.push(TapeInstr::Input { dst, i: field(s as usize, "input index") });
                    instrs.push(TapeInstr::Output { o: field(i, "output position"), a: dst });
                    free.push(dst);
                }
                _ => {}
            }
        }

        let n_inputs = g
            .nodes()
            .iter()
            .filter_map(|op| match op {
                Op::Sym(i) => Some(*i as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        Tape {
            instrs,
            constants,
            n_slots: n_slots as usize,
            n_inputs,
            n_outputs: schedule.outputs.len(),
            flops,
            spill_stats,
            strategy_name: schedule.strategy.name(),
        }
    }

    /// Evaluate the tape for `L` points at once, the interpreter's
    /// counterpart of a warp running the generated code: each instruction
    /// is decoded once and applied to all `L` lanes in one fixed-length
    /// loop. Lane `l` reads input `i` from `rows[i][start + l]` and writes
    /// output `o` to `outputs[o][start + l]`; `slots` needs `n_slots`
    /// entries. Every lane runs the same operations in the same order as
    /// [`Tape::eval_into`] on that point's inputs, so the results are
    /// bitwise equal.
    pub fn eval_lanes<const L: usize>(
        &self,
        rows: &[&[f64]],
        start: usize,
        outputs: &mut [&mut [f64]],
        slots: &mut [[f64; L]],
    ) {
        debug_assert!(rows.len() >= self.n_inputs);
        debug_assert!(outputs.len() >= self.n_outputs);
        self.run(
            |i| rows[i][start..start + L].try_into().expect("input row covers the batch"),
            |o, v| outputs[o][start..start + L].copy_from_slice(v),
            slots,
        );
    }

    /// Evaluate the tape for one point: the one-lane instance of
    /// [`Tape::eval_lanes`]. `slots` must have `n_slots` capacity and is
    /// reused across calls (the hot-loop workhorse buffer).
    pub fn eval_into(&self, inputs: &[f64], outputs: &mut [f64], slots: &mut [f64]) {
        debug_assert!(outputs.len() >= self.n_outputs);
        let (slots, _) = slots.as_chunks_mut::<1>();
        self.run(|i| std::array::from_ref(&inputs[i]), |o, v| outputs[o] = v[0], slots);
    }

    /// The interpreter loop shared by every lane count.
    #[inline(always)]
    fn run<'a, const L: usize>(
        &self,
        input: impl Fn(usize) -> &'a [f64; L],
        mut output: impl FnMut(usize, &[f64; L]),
        slots: &mut [[f64; L]],
    ) {
        debug_assert!(slots.len() >= self.n_slots);
        for ins in &self.instrs {
            match *ins {
                TapeInstr::Const { dst, c } => {
                    slots[dst as usize] = [self.constants[c as usize]; L]
                }
                TapeInstr::Input { dst, i } => slots[dst as usize] = *input(i as usize),
                TapeInstr::Add { dst, a, b } => binary(slots, dst, a, b, |x, y| x + y),
                TapeInstr::Sub { dst, a, b } => binary(slots, dst, a, b, |x, y| x - y),
                TapeInstr::Mul { dst, a, b } => binary(slots, dst, a, b, |x, y| x * y),
                TapeInstr::Div { dst, a, b } => binary(slots, dst, a, b, |x, y| x / y),
                TapeInstr::Neg { dst, a } => unary(slots, dst, a, |x| -x),
                TapeInstr::Powi { dst, a, n } => unary(slots, dst, a, |x| x.powi(n as i32)),
                TapeInstr::Output { o, a } => output(o as usize, &slots[a as usize]),
            }
        }
    }

    /// Convenience single-point evaluation with fresh buffers.
    pub fn eval(&self, inputs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_outputs];
        let mut slots = vec![0.0; self.n_slots];
        self.eval_into(inputs, &mut out, &mut slots);
        out
    }
}

/// Narrow an index into a `u16` instruction field, naming the limit
/// instead of truncating.
fn field(v: usize, what: &str) -> u16 {
    u16::try_from(v)
        .unwrap_or_else(|_| panic!("tape: {what} {v} exceeds the u16 field limit {}", u16::MAX))
}

/// `slots[dst] = f(slots[a], slots[b])` lane by lane. `dst` may alias an
/// operand, so the lanes are computed before the store.
#[inline(always)]
fn binary<const L: usize>(
    slots: &mut [[f64; L]],
    dst: u16,
    a: u16,
    b: u16,
    f: impl Fn(f64, f64) -> f64,
) {
    let (x, y) = (&slots[a as usize], &slots[b as usize]);
    let mut r = [0.0; L];
    for ((r, &x), &y) in r.iter_mut().zip(x).zip(y) {
        *r = f(x, y);
    }
    slots[dst as usize] = r;
}

/// `slots[dst] = f(slots[a])` lane by lane.
#[inline(always)]
fn unary<const L: usize>(slots: &mut [[f64; L]], dst: u16, a: u16, f: impl Fn(f64) -> f64) {
    let x = &slots[a as usize];
    let mut r = [0.0; L];
    for (r, &x) in r.iter_mut().zip(x) {
        *r = f(x);
    }
    slots[dst as usize] = r;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bssn::{build_bssn_rhs, BssnParams};
    use crate::schedule::{schedule, ScheduleStrategy};
    use crate::symbols::NUM_INPUTS;

    /// The one-point interpreter loop [`Tape::eval_lanes`] replaced: the
    /// bitwise reference for every lane count.
    fn eval_scalar(t: &Tape, inputs: &[f64], outputs: &mut [f64]) {
        let mut slots = vec![0.0; t.n_slots];
        for ins in &t.instrs {
            match *ins {
                TapeInstr::Const { dst, c } => slots[dst as usize] = t.constants[c as usize],
                TapeInstr::Input { dst, i } => slots[dst as usize] = inputs[i as usize],
                TapeInstr::Add { dst, a, b } => {
                    slots[dst as usize] = slots[a as usize] + slots[b as usize]
                }
                TapeInstr::Sub { dst, a, b } => {
                    slots[dst as usize] = slots[a as usize] - slots[b as usize]
                }
                TapeInstr::Mul { dst, a, b } => {
                    slots[dst as usize] = slots[a as usize] * slots[b as usize]
                }
                TapeInstr::Div { dst, a, b } => {
                    slots[dst as usize] = slots[a as usize] / slots[b as usize]
                }
                TapeInstr::Neg { dst, a } => slots[dst as usize] = -slots[a as usize],
                TapeInstr::Powi { dst, a, n } => {
                    slots[dst as usize] = slots[a as usize].powi(n as i32)
                }
                TapeInstr::Output { o, a } => outputs[o as usize] = slots[a as usize],
            }
        }
    }

    /// Bitwise equality, except that any NaN matches any NaN: Rust leaves
    /// the payload of an arithmetic NaN unspecified (which operand's
    /// payload propagates may differ between scalar and vector code).
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Evaluate `t` over `L` lanes of `rows` (input-major, one row per
    /// input) and check every lane bitwise against [`eval_scalar`] and
    /// against [`Tape::eval_into`].
    pub(super) fn check_lanes<const L: usize>(t: &Tape, rows: &[Vec<f64>], start: usize) {
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut out = vec![vec![f64::NAN; start + L]; t.n_outputs];
        let mut views: Vec<&mut [f64]> = out.iter_mut().map(|r| r.as_mut_slice()).collect();
        let mut slots = vec![[0.0; L]; t.n_slots];
        t.eval_lanes::<L>(&refs, start, &mut views, &mut slots);
        let (mut expect, mut one) = (vec![0.0; t.n_outputs], vec![0.0; t.n_outputs]);
        let mut one_slots = vec![0.0; t.n_slots];
        for l in 0..L {
            let inputs: Vec<f64> = rows.iter().map(|r| r[start + l]).collect();
            eval_scalar(t, &inputs, &mut expect);
            t.eval_into(&inputs, &mut one, &mut one_slots);
            for o in 0..t.n_outputs {
                let got = out[o][start + l];
                assert!(
                    same_bits(got, expect[o]) && same_bits(one[o], expect[o]),
                    "{} output {o} lane {l}: lanes {got:e}, one lane {:e}, oracle {:e}",
                    t.strategy_name,
                    one[o],
                    expect[o]
                );
            }
        }
    }

    #[test]
    fn tape_matches_graph_eval_on_toy() {
        let mut g = ExprGraph::new();
        let x = g.sym(0);
        let y = g.sym(1);
        let a = g.add(x, y);
        let b = g.mul(a, a);
        let c = g.div(b, x);
        let d = g.pow(c, -2);
        let o = g.sub(d, y);
        for s in ScheduleStrategy::all() {
            let sch = schedule(&g, &[o, b], s);
            let tape = Tape::compile(&g, &sch, 56);
            let inputs = [2.0f64, 3.0];
            let expect = g.eval(&[o, b], &inputs);
            let got = tape.eval(&inputs);
            assert_eq!(got.len(), 2);
            for (a, b) in got.iter().zip(expect.iter()) {
                assert!((a - b).abs() < 1e-14, "{s:?}: {got:?} vs {expect:?}");
            }
        }
    }

    #[test]
    fn bssn_tapes_agree_across_strategies() {
        let rhs = build_bssn_rhs(BssnParams::default());
        // Random-ish but well-conditioned inputs: flat space plus noise.
        let mut inputs = vec![0.0f64; NUM_INPUTS];
        let mut seed = 0x12345678u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * 0.01
        };
        for v in inputs.iter_mut() {
            *v = rng();
        }
        inputs[crate::symbols::input_value(crate::symbols::var::ALPHA)] = 1.0 + rng();
        inputs[crate::symbols::input_value(crate::symbols::var::CHI)] = 1.0 + rng();
        inputs[crate::symbols::input_value(crate::symbols::var::gt(0, 0))] = 1.0 + rng();
        inputs[crate::symbols::input_value(crate::symbols::var::gt(1, 1))] = 1.0 + rng();
        inputs[crate::symbols::input_value(crate::symbols::var::gt(2, 2))] = 1.0 + rng();

        let expect = rhs.graph.eval(&rhs.outputs, &inputs);
        for s in ScheduleStrategy::all() {
            let sch = schedule(&rhs.graph, &rhs.outputs, s);
            let tape = Tape::compile(&rhs.graph, &sch, 56);
            let got = tape.eval(&inputs);
            for (i, (a, b)) in got.iter().zip(expect.iter()).enumerate() {
                assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()), "{s:?} output {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn bssn_tapes_run_bitwise_over_lanes() {
        let rhs = build_bssn_rhs(BssnParams::default());
        // 49 points near flat space, one input row each.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * 0.01
        };
        let mut rows: Vec<Vec<f64>> =
            (0..NUM_INPUTS).map(|_| (0..49).map(|_| rng()).collect()).collect();
        use crate::symbols::{input_value, var};
        for v in [var::ALPHA, var::CHI, var::gt(0, 0), var::gt(1, 1), var::gt(2, 2)] {
            rows[input_value(v)].iter_mut().for_each(|x| *x += 1.0);
        }
        for s in ScheduleStrategy::all() {
            let sch = schedule(&rhs.graph, &rhs.outputs, s);
            let tape = Tape::compile(&rhs.graph, &sch, 56);
            check_lanes::<49>(&tape, &rows, 0);
        }
    }

    #[test]
    #[should_panic(expected = "pow exponent 40000")]
    fn oversized_pow_exponent_is_rejected() {
        let mut g = ExprGraph::new();
        let x = g.sym(0);
        let p = g.pow(x, 40_000);
        let sch = schedule(&g, &[p], ScheduleStrategy::CseTopo);
        Tape::compile(&g, &sch, 56);
    }

    #[test]
    fn slot_counts_reflect_live_ranges() {
        let rhs = build_bssn_rhs(BssnParams::default());
        let slots = |s: ScheduleStrategy| {
            let sch = schedule(&rhs.graph, &rhs.outputs, s);
            Tape::compile(&rhs.graph, &sch, 56).n_slots
        };
        let cse = slots(ScheduleStrategy::CseTopo);
        let br = slots(ScheduleStrategy::BinaryReduce);
        let st = slots(ScheduleStrategy::StagedCse);
        assert!(br < cse, "binary-reduce slots {br} vs CSE {cse}");
        assert!(st < cse, "staged slots {st} vs CSE {cse}");
    }

    #[test]
    fn tape_flops_match_graph_flops() {
        let rhs = build_bssn_rhs(BssnParams::default());
        let sch = schedule(&rhs.graph, &rhs.outputs, ScheduleStrategy::StagedCse);
        let tape = Tape::compile(&rhs.graph, &sch, 56);
        assert_eq!(tape.flops, rhs.graph.flop_count(&rhs.outputs));
        // Paper's O_A scale: thousands of ops for the A component.
        assert!(tape.flops > 1_000, "flops = {}", tape.flops);
    }

    #[test]
    fn eval_into_reuses_buffers() {
        let rhs = build_bssn_rhs(BssnParams::default());
        let sch = schedule(&rhs.graph, &rhs.outputs, ScheduleStrategy::BinaryReduce);
        let tape = Tape::compile(&rhs.graph, &sch, 56);
        let mut slots = vec![0.0; tape.n_slots];
        let mut out = vec![0.0; tape.n_outputs];
        let mut inputs = vec![0.0; NUM_INPUTS];
        inputs[0] = 1.0; // alpha
        inputs[7] = 1.0; // chi
        inputs[9] = 1.0;
        inputs[12] = 1.0;
        inputs[14] = 1.0; // gt diag
        tape.eval_into(&inputs, &mut out, &mut slots);
        let first = out.clone();
        tape.eval_into(&inputs, &mut out, &mut slots);
        assert_eq!(first, out, "stale slot state must not leak between evals");
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::check_lanes;
    use super::*;
    use crate::schedule::{schedule, ScheduleStrategy};
    use proptest::prelude::*;

    /// Build a random DAG over 4 inputs from a sequence of op codes
    /// (0–5 without division or negative powers, 0–9 with them); every
    /// new node picks operands among the existing nodes.
    fn build_random(ops: &[(u8, u8, u8)], g: &mut ExprGraph) -> Vec<NodeId> {
        let mut pool: Vec<NodeId> = (0..4).map(|i| g.sym(i)).collect();
        pool.push(g.constant(1.5));
        pool.push(g.constant(-0.75));
        for &(op, a, b) in ops {
            let x = pool[a as usize % pool.len()];
            let y = pool[b as usize % pool.len()];
            let n = match op {
                0 => g.add(x, y),
                1 => g.sub(x, y),
                2 => g.mul(x, y),
                3 => g.neg(x),
                4 => g.pow(x, 2),
                6 => g.div(x, y),
                7 => g.pow(x, -1),
                8 => g.pow(x, -2),
                9 => g.pow(x, 3),
                _ => g.add(x, y),
            };
            pool.push(n);
        }
        // Up to 3 roots from the tail of the pool.
        pool.iter().rev().take(3).copied().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn all_strategies_and_tapes_agree_on_random_dags(
            ops in prop::collection::vec((0u8..6, 0u8..64, 0u8..64), 1..40),
            inputs in prop::array::uniform4(-2.0f64..2.0),
        ) {
            let mut g = ExprGraph::new();
            let roots = build_random(&ops, &mut g);
            // Skip degenerate all-leaf root sets.
            let interior_roots: Vec<NodeId> =
                roots.iter().copied().filter(|r| !g.op(*r).is_leaf()).collect();
            prop_assume!(!interior_roots.is_empty());
            let expect = g.eval(&interior_roots, &inputs);
            for strat in ScheduleStrategy::all() {
                let sch = schedule(&g, &interior_roots, strat);
                // Schedule sanity: peak live within node count.
                prop_assert!(sch.max_live(&g) <= sch.order.len());
                let tape = Tape::compile(&g, &sch, 8);
                let got = tape.eval(&inputs);
                for (a, b) in got.iter().zip(expect.iter()) {
                    if b.is_finite() {
                        prop_assert!(
                            (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
                            "{strat:?}: {a} vs {b}"
                        );
                    }
                }
                // Spill model must be well-defined even at a tiny budget.
                let s = crate::regalloc::simulate_spills(&g, &sch, 2);
                prop_assert!(s.spill_load_bytes >= s.spill_store_bytes || s.spill_store_bytes == 0 || s.spill_load_bytes > 0);
            }
        }
    }

    /// Lane values: ordinary magnitudes, with one in eight a signed zero.
    fn lane_value() -> impl Strategy<Value = f64> {
        (0u8..8, -2.0f64..2.0).prop_map(|(pick, x)| match pick {
            0 => 0.0,
            1 => -0.0,
            _ => x,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn lanes_match_the_scalar_oracle_bitwise(
            ops in prop::collection::vec((0u8..10, 0u8..64, 0u8..64), 1..40),
            values in prop::collection::vec(lane_value(), 4 * 98),
            start in (0usize..2).prop_map(|b| 49 * b),
            bad in (0usize..4, 0usize..98, 0usize..3),
        ) {
            let mut g = ExprGraph::new();
            let roots = build_random(&ops, &mut g);
            let interior_roots: Vec<NodeId> =
                roots.iter().copied().filter(|r| !g.op(*r).is_leaf()).collect();
            prop_assume!(!interior_roots.is_empty());
            // Four input rows of 98 points; one point holds a non-finite
            // value. Each lane is checked against its own scalar
            // evaluation, so a NaN or inf spilling into a neighbour lane
            // would fail the check.
            let mut rows: Vec<Vec<f64>> = values.chunks(98).map(|c| c.to_vec()).collect();
            rows[bad.0][bad.1] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][bad.2];
            for strat in ScheduleStrategy::all() {
                let tape = Tape::compile(&g, &schedule(&g, &interior_roots, strat), 8);
                check_lanes::<49>(&tape, &rows, start);
            }
        }
    }
}
