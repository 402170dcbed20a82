//! Compilation of additive programs into multisets of normal programs
//! (Fig. 3 of the paper).
//!
//! `Compile(P(θ))` turns one additive program into the collection of normal
//! `q-while(T)` programs that the differentiation procedure actually runs.
//! The `case` rule uses the *fill-and-break* procedure (Fig. 3b): arm
//! multisets are padded to equal length with `abort` and broken into one
//! `case` program per column.
//!
//! The structural invariant stated under Fig. 3 — every compiled multiset is
//! either exactly `{|abort|}` or contains no essentially-aborting program —
//! is maintained by construction and re-checked in tests.

use crate::ast::Stmt;

thread_local! {
    static COMPILE_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many times [`compile`] has been entered **on this thread**, its
/// recursive calls included: the probe behind the compile-once contract
/// of callers that keep a compiled multiset (a test thread's delta across
/// a region counts what that region compiled, race-free under the
/// parallel test harness).
pub fn compile_invocations() -> usize {
    COMPILE_CALLS.with(std::cell::Cell::get)
}

/// Compiles an additive program into its multiset of normal programs.
///
/// For a normal input the result is the singleton `{|P|}` (or `{|abort|}`
/// when `P` essentially aborts, mirroring the abort-absorption in the
/// sequence rule).
///
/// # Examples
///
/// ```
/// use qdp_lang::{compile, parse_program};
///
/// let p = parse_program("q1 *= RX(t) + q1 *= RY(t)")?;
/// let compiled = compile::compile(&p);
/// assert_eq!(compiled.len(), 2);
/// assert!(compiled.iter().all(|q| q.is_normal()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile(stmt: &Stmt) -> Vec<Stmt> {
    COMPILE_CALLS.with(|c| c.set(c.get() + 1));
    if stmt.is_normal() {
        return if stmt.essentially_aborts() {
            vec![abort_like(stmt)]
        } else {
            vec![stmt.clone()]
        };
    }
    match stmt {
        Stmt::Sum(a, b) => {
            let ca = compile(a);
            let cb = compile(b);
            match (is_abort_multiset(&ca), is_abort_multiset(&cb)) {
                (false, false) => {
                    let mut out = ca;
                    out.extend(cb);
                    out
                }
                (false, true) => ca,
                (true, false) => cb,
                (true, true) => vec![abort_like(stmt)],
            }
        }
        Stmt::Seq(a, b) => {
            let ca = compile(a);
            let cb = compile(b);
            if is_abort_multiset(&ca) || is_abort_multiset(&cb) {
                return vec![abort_like(stmt)];
            }
            let mut out = Vec::with_capacity(ca.len() * cb.len());
            for qa in &ca {
                for qb in &cb {
                    out.push(Stmt::Seq(Box::new(qa.clone()), Box::new(qb.clone())));
                }
            }
            out
        }
        Stmt::Case { qs, arms } => fill_and_break(stmt, qs, arms),
        Stmt::While { .. } => {
            // Additive loop bodies: expand the macro of Eq. 3.1 and reuse the
            // case/seq rules, exactly as Fig. 3 prescribes.
            compile(&stmt.unfold_while_once())
        }
        // Atomic statements are normal and handled by the fast path above.
        _ => unreachable!("atomic statements are normal"),
    }
}

/// The number of non-(essentially-)aborting programs `|#P(θ)|` of
/// Definition 4.3.
pub fn non_aborting_count(stmt: &Stmt) -> usize {
    let compiled = compile(stmt);
    compiled
        .iter()
        .filter(|p| !p.essentially_aborts())
        .count()
}

/// Checks the Fig. 3 invariant on a compiled multiset: either `{|abort|}`
/// or free of essentially-aborting programs.
pub fn invariant_holds(compiled: &[Stmt]) -> bool {
    is_abort_multiset(compiled) || compiled.iter().all(|p| !p.essentially_aborts())
}

fn abort_like(stmt: &Stmt) -> Stmt {
    Stmt::abort(stmt.qvar())
}

fn is_abort_multiset(ms: &[Stmt]) -> bool {
    ms.len() == 1 && ms[0].essentially_aborts()
}

/// The fill-and-break procedure `FB(case)` (Fig. 3b).
fn fill_and_break(whole: &Stmt, qs: &[crate::ast::Var], arms: &[Stmt]) -> Vec<Stmt> {
    // Step 1: per-arm multisets of non-essentially-aborting programs.
    let arm_sets: Vec<Vec<Stmt>> = arms
        .iter()
        .map(|arm| {
            let c = compile(arm);
            if is_abort_multiset(&c) {
                Vec::new()
            } else {
                c
            }
        })
        .collect();

    // Step 2: all empty → {|abort|}.
    let width = arm_sets.iter().map(Vec::len).max().unwrap_or(0);
    if width == 0 {
        return vec![abort_like(whole)];
    }

    // Step 3: pad with abort and break into columns.
    let pad = abort_like(whole);
    (0..width)
        .map(|j| Stmt::Case {
            qs: qs.to_vec(),
            arms: arm_sets
                .iter()
                .map(|set| set.get(j).cloned().unwrap_or_else(|| pad.clone()))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Params, Var};
    use crate::op_sem::{multisets_approx_eq, trace_multiset};
    use crate::parser::parse_program;
    use crate::register::Register;
    use qdp_sim::DensityMatrix;

    fn compiled(src: &str) -> Vec<Stmt> {
        compile(&parse_program(src).unwrap())
    }

    #[test]
    fn normal_programs_compile_to_themselves() {
        let p = parse_program("q1 *= RX(t); q1 *= RY(t)").unwrap();
        assert_eq!(compile(&p), vec![p]);
    }

    #[test]
    fn essentially_aborting_programs_collapse() {
        let out = compiled("q1 *= RX(t); abort[q1]");
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Stmt::Abort { .. }));
    }

    #[test]
    fn sum_concatenates_components() {
        let out = compiled("q1 *= RX(t) + q1 *= RY(t) + q1 *= RZ(t)");
        assert_eq!(out.len(), 3);
        assert!(invariant_holds(&out));
    }

    #[test]
    fn sum_absorbs_aborting_components() {
        let out = compiled("q1 *= RX(t) + abort[q1]");
        assert_eq!(out.len(), 1);
        assert!(!out[0].essentially_aborts());
        let out = compiled("abort[q1] + abort[q1]");
        assert_eq!(out.len(), 1);
        assert!(out[0].essentially_aborts());
    }

    #[test]
    fn sequence_distributes_over_sums() {
        // (A + B); (C + D) → 4 programs.
        let out = compiled("(q1 *= RX(t) + q1 *= RY(t)); (q1 *= RZ(t) + q1 *= H)");
        assert_eq!(out.len(), 4);
        assert!(invariant_holds(&out));
    }

    #[test]
    fn generic_case_example_4_1_shape() {
        // Example 4.1: case with a 2-element sum in arm 0 and a plain arm 1
        // compiles to two case programs, the second padded with abort.
        let out = compiled(
            "case M[q1] = 0 -> (q1 *= RX(a) + q1 *= RY(a)), 1 -> q1 *= RZ(a) end",
        );
        assert_eq!(out.len(), 2);
        let Stmt::Case { arms: arms0, .. } = &out[0] else { panic!() };
        let Stmt::Case { arms: arms1, .. } = &out[1] else { panic!() };
        assert!(!arms0[0].essentially_aborts());
        assert!(!arms0[1].essentially_aborts());
        assert!(!arms1[0].essentially_aborts());
        assert!(arms1[1].essentially_aborts(), "padded arm must abort");
        // The padded case program as a whole does not essentially abort.
        assert!(invariant_holds(&out));
    }

    #[test]
    fn proposition_4_2_traces_agree() {
        let sources = [
            "q1 *= H; (q1 *= RX(a) + q1 *= RY(a))",
            "case M[q1] = 0 -> (q1 *= RX(a) + q1 *= RY(a)), 1 -> q1 *= RZ(a) end",
            "(skip[q1] + abort[q1]); q1 *= RZ(a)",
            "q1 *= H; case M[q1] = 0 -> abort[q1] + skip[q1], 1 -> q1 *= X end",
            "while[2] M[q1] = 1 do q1 *= RX(a) + q1 *= RY(a) done",
        ];
        for src in sources {
            let p = parse_program(src).unwrap();
            let reg = Register::from_program(&p);
            let params = Params::from_pairs([("a", 0.9)]);
            let mut rho = DensityMatrix::pure_zero(reg.len());
            rho.apply_unitary(&qdp_linalg::Matrix::hadamard(), &[0]);

            let lhs: Vec<DensityMatrix> = trace_multiset(&p, &reg, &params, &rho)
                .into_iter()
                .filter(|r| r.trace() > 1e-12)
                .collect();
            let rhs: Vec<DensityMatrix> = compile(&p)
                .iter()
                .flat_map(|q| trace_multiset(q, &reg, &params, &rho))
                .filter(|r| r.trace() > 1e-12)
                .collect();
            assert!(
                multisets_approx_eq(&lhs, &rhs, 1e-10),
                "Proposition 4.2 failed for {src}: {} vs {} traces",
                lhs.len(),
                rhs.len()
            );
        }
    }

    #[test]
    fn compiled_programs_are_normal() {
        let out = compiled(
            "case M[q1] = 0 -> (q1 *= RX(a) + q1 *= RY(a)); q2 *= H, 1 -> skip[q2] end",
        );
        assert!(out.iter().all(Stmt::is_normal));
    }

    #[test]
    fn non_aborting_count_matches_def_4_3() {
        let p = parse_program("q1 *= RX(a) + q1 *= RY(a) + abort[q1]").unwrap();
        assert_eq!(non_aborting_count(&p), 2);
        let p = parse_program("abort[q1]").unwrap();
        assert_eq!(non_aborting_count(&p), 0);
    }

    #[test]
    fn exponential_example_from_section_4() {
        // (Q1+R1);(Q2+R2);(Q3+R3) → 8 programs: |#P| can grow exponentially
        // for general additive programs (the paper's remark after Def. 4.3).
        let out = compiled(
            "(q1 *= X + q1 *= Y); (q1 *= X + q1 *= Y); (q1 *= X + q1 *= Y)",
        );
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn additive_while_body_unfolds() {
        let out = compiled("while[2] M[q1] = 1 do q1 *= RX(a) + q1 *= RY(a) done");
        assert!(out.len() >= 2, "expected several unfolded programs");
        assert!(out.iter().all(Stmt::is_normal));
        assert!(invariant_holds(&out));
        let _ = Var::new("unused");
    }
}
