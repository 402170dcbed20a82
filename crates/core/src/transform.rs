//! The code-transformation rules `∂/∂θj(·)` (Fig. 4 of the paper).
//!
//! Differentiation is *syntactic*: it maps a program `S(θ)` over variables
//! `v` to an **additive** program `∂/∂θj(S(θ))` over `v ∪ {A}`, where `A` is
//! a fresh one-qubit ancilla. The rules:
//!
//! ```text
//! (Trivial)    ∂(abort) = ∂(skip) = ∂(q:=|0⟩) = abort[v∪{A}]
//! (Trivial-U)  ∂(U(θ))  = abort[v∪{A}]                 if θj ∉ θ(U)
//! (1-qb)       ∂(q *= Rσ(θ))      = A,q *= R′σ(θ)
//! (2-qb)       ∂(q1,q2 *= Rσ⊗σ(θ)) = A,q1,q2 *= R′σ⊗σ(θ)
//! (Sequence)   ∂(S1;S2) = (S1; ∂S2) + (∂S1; S2)
//! (Case)       ∂(case … m→Sm end) = case … m→∂Sm end
//! (While)      via (Case) + (Sequence) on the macro unfolding (Eq. 3.1)
//! (S-C)        ∂(S1+S2) = ∂S1 + ∂S2
//! ```
//!
//! The gadget `R′σ(θ) ≡ A *= H; A,q *= C_Rσ(θ); A *= H` (Definition 6.1)
//! replaces the two-circuit phase-shift rule with a *single* circuit using
//! one control ancilla — the paper's key construction.
//!
//! The engine never builds the additive program. [`derivative_programs`]
//! goes from `S(θ)` straight to `compile(∂/∂θj(S(θ)))` minus its aborting
//! programs (Fig. 3) in one pass, so transformation and compilation are one
//! step whose cost tracks the `≤ OC_j` programs it returns. [`transform`]
//! followed by [`qdp_lang::compile::compile`] is that pass's oracle; it also
//! backs the logic of Fig. 5 ([`crate::logic`]) and `qdpc transform`.

use qdp_lang::ast::{Gate, Stmt, Var};
use qdp_lang::compile;
use std::fmt;

/// Error raised by the code transformation.
///
/// Every parameterized gate of the language (`Rσ`, `Rσ⊗σ`, and their
/// iterated controlled forms) has a differentiation rule, so the only
/// failure mode is an ancilla-name collision.
#[derive(Clone, Debug, PartialEq)]
pub enum TransformError {
    /// The requested ancilla name collides with a program variable.
    AncillaCollision {
        /// The colliding name.
        ancilla: Var,
    },
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::AncillaCollision { ancilla } => {
                write!(f, "ancilla variable '{ancilla}' collides with a program variable")
            }
        }
    }
}

impl std::error::Error for TransformError {}

/// Chooses a fresh ancilla name `A_j` (for parameter `j`) avoiding the
/// program's variables — the `Aj,v` of Section 5.1.
pub fn fresh_ancilla(program: &Stmt, param: &str) -> Var {
    let vars = program.qvar();
    let mut candidate = format!("A_{param}");
    while vars.contains(&Var::new(candidate.as_str())) {
        candidate.push('\'');
    }
    Var::new(candidate)
}

/// Applies the Fig. 4 rules, producing the additive program
/// `∂/∂θ_param(stmt)` over `qvar(stmt) ∪ {ancilla}`.
///
/// # Errors
///
/// Returns [`TransformError`] when the ancilla collides with a program
/// variable or a controlled gate depends on `param`.
///
/// # Examples
///
/// ```
/// use qdp_ad::transform::{fresh_ancilla, transform};
/// use qdp_lang::parse_program;
///
/// let p = parse_program("q1 *= RX(t); q1 *= RY(t)")?;
/// let a = fresh_ancilla(&p, "t");
/// let d = transform(&p, "t", &a)?;
/// assert!(!d.is_normal()); // the Sequence rule introduced an additive choice
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn transform(stmt: &Stmt, param: &str, ancilla: &Var) -> Result<Stmt, TransformError> {
    if stmt.qvar().contains(ancilla) {
        return Err(TransformError::AncillaCollision {
            ancilla: ancilla.clone(),
        });
    }
    transform_inner(stmt, param, ancilla)
}

fn transform_inner(stmt: &Stmt, param: &str, ancilla: &Var) -> Result<Stmt, TransformError> {
    match stmt {
        // (Trivial): parameter-independent statements differentiate to abort.
        Stmt::Abort { .. } | Stmt::Skip { .. } | Stmt::Init { .. } => Ok(abort_ext(stmt, ancilla)),

        Stmt::Unitary { gate, qs } => match gate {
            // (Trivial-Unitary): the gate "trivially uses θj".
            _ if !gate.uses_param(param) => Ok(abort_ext(stmt, ancilla)),
            // (1-qb Rotation): R′σ(θ) gadget.
            Gate::Rot { axis, angle } => Ok(rprime(
                Gate::CRot {
                    controls: 1,
                    axis: *axis,
                    angle: angle.clone(),
                },
                ancilla,
                qs,
            )),
            // (2-qb Coupling): R′σ⊗σ(θ) gadget.
            Gate::Coupling { axis, angle } => Ok(rprime(
                Gate::CCoupling {
                    controls: 1,
                    axis: *axis,
                    angle: angle.clone(),
                },
                ancilla,
                qs,
            )),
            // Iterated rules (higher-order differentiation): the identity
            // d/dθ C_R(θ) = ½·C_R(θ+π) holds block-wise, so the Def. 6.1
            // gadget applies to the controlled gates themselves with one
            // more control. This is what footnote 7 of the paper sets up.
            Gate::CRot {
                controls,
                axis,
                angle,
            } => Ok(rprime(
                Gate::CRot {
                    controls: controls + 1,
                    axis: *axis,
                    angle: angle.clone(),
                },
                ancilla,
                qs,
            )),
            Gate::CCoupling {
                controls,
                axis,
                angle,
            } => Ok(rprime(
                Gate::CCoupling {
                    controls: controls + 1,
                    axis: *axis,
                    angle: angle.clone(),
                },
                ancilla,
                qs,
            )),
            // Fixed gates carry no angle and are caught by the guard above.
            Gate::H | Gate::X | Gate::Y | Gate::Z | Gate::Cnot => {
                unreachable!("fixed gates never use a parameter")
            }
        },

        // (Sequence): ∂(S1;S2) = (S1; ∂S2) + (∂S1; S2).
        Stmt::Seq(s1, s2) => {
            let d1 = transform_inner(s1, param, ancilla)?;
            let d2 = transform_inner(s2, param, ancilla)?;
            Ok(Stmt::Sum(
                Box::new(Stmt::Seq(s1.clone(), Box::new(d2))),
                Box::new(Stmt::Seq(Box::new(d1), s2.clone())),
            ))
        }

        // (Case): differentiate each arm under the same measurement.
        Stmt::Case { qs, arms } => Ok(Stmt::Case {
            qs: qs.clone(),
            arms: arms
                .iter()
                .map(|arm| transform_inner(arm, param, ancilla))
                .collect::<Result<_, _>>()?,
        }),

        // (While): a macro over case/seq (Eq. 3.1); transform the unfolding.
        Stmt::While { .. } => transform_inner(&stmt.unfold_while_once(), param, ancilla),

        // (S-C): ∂(S1+S2) = ∂S1 + ∂S2.
        Stmt::Sum(s1, s2) => Ok(Stmt::Sum(
            Box::new(transform_inner(s1, param, ancilla)?),
            Box::new(transform_inner(s2, param, ancilla)?),
        )),
    }
}

/// The non-aborting derivative programs of `stmt` with respect to `param`,
/// built in one pass: exactly `compile(transform(stmt, param, ancilla))`
/// minus its essentially-aborting programs, the same programs in the same
/// order, without ever building the additive program.
///
/// Fig. 4's Sequence rule copies the rest of the program into every summand,
/// so the additive program of an `n`-statement sequence has `Θ(n²)`
/// statements, nearly all of which compile to `{|abort|}`. This pass follows
/// Fig. 3 rule by rule but only builds the summands that survive, so its
/// cost tracks its output: at most `OC_j(stmt)` programs (Proposition 7.2).
/// [`transform`] followed by [`qdp_lang::compile::compile`] is its oracle.
///
/// # Errors
///
/// Returns [`TransformError`] when the ancilla collides with a program
/// variable.
///
/// # Examples
///
/// ```
/// use qdp_ad::transform::{derivative_programs, fresh_ancilla, transform};
/// use qdp_lang::{compile, parse_program};
///
/// let p = parse_program("q1 *= RX(t); q1 *= H; q1 *= RY(t)")?;
/// let a = fresh_ancilla(&p, "t");
/// let programs = derivative_programs(&p, "t", &a)?;
/// let oracle: Vec<_> = compile::compile(&transform(&p, "t", &a)?)
///     .into_iter()
///     .filter(|q| !q.essentially_aborts())
///     .collect();
/// assert_eq!(programs, oracle);
/// assert_eq!(programs.len(), 2); // one per occurrence of t
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn derivative_programs(
    stmt: &Stmt,
    param: &str,
    ancilla: &Var,
) -> Result<Vec<Stmt>, TransformError> {
    if stmt.qvar().contains(ancilla) {
        return Err(TransformError::AncillaCollision {
            ancilla: ancilla.clone(),
        });
    }
    derivative_programs_inner(stmt, param, ancilla)
}

/// `compile(transform_inner(stmt))` minus aborts, by structural recursion.
fn derivative_programs_inner(
    stmt: &Stmt,
    param: &str,
    ancilla: &Var,
) -> Result<Vec<Stmt>, TransformError> {
    Ok(match stmt {
        // (Trivial), (Trivial-U): `abort` compiles to `{|abort|}`.
        Stmt::Abort { .. } | Stmt::Skip { .. } | Stmt::Init { .. } => Vec::new(),
        Stmt::Unitary { gate, .. } if !gate.uses_param(param) => Vec::new(),
        // Rotation rules: the gadget is normal and never aborts.
        Stmt::Unitary { .. } => vec![transform_inner(stmt, param, ancilla)?],

        // (Sequence), then Fig. 3's Sum and Seq rules: the products
        // `live(S1) × D(S2)` and `D(S1) × live(S2)`, where `D` is this
        // function. `live` is only computed when the other factor is
        // non-empty; otherwise the summand compiles to abort.
        Stmt::Seq(s1, s2) => {
            let d1 = derivative_programs_inner(s1, param, ancilla)?;
            let d2 = derivative_programs_inner(s2, param, ancilla)?;
            let mut out = if d2.is_empty() {
                Vec::new()
            } else {
                seq_product(live(s1), d2)
            };
            if !d1.is_empty() {
                out.extend(seq_product(d1, live(s2)));
            }
            out
        }

        // (Case) with every arm transforming to a normal program: the
        // transformed case is normal itself, and Fig. 3 keeps it whole (its
        // arms padded with their own `abort_ext`) instead of breaking it.
        Stmt::Case { arms, .. } if arms.iter().all(transforms_to_normal) => {
            let whole = transform_inner(stmt, param, ancilla)?;
            if whole.essentially_aborts() {
                Vec::new()
            } else {
                vec![whole]
            }
        }

        // (Case) otherwise: fill-and-break (Fig. 3b) over the arms'
        // derivative programs, padded with `abort[v ∪ {A}]`.
        Stmt::Case { qs, arms } => {
            let mut columns = arms
                .iter()
                .map(|arm| derivative_programs_inner(arm, param, ancilla).map(Vec::into_iter))
                .collect::<Result<Vec<_>, _>>()?;
            let width = columns
                .iter()
                .map(ExactSizeIterator::len)
                .max()
                .unwrap_or(0);
            let pad = abort_ext(stmt, ancilla);
            (0..width)
                .map(|_| Stmt::Case {
                    qs: qs.clone(),
                    arms: columns
                        .iter_mut()
                        .map(|column| column.next().unwrap_or_else(|| pad.clone()))
                        .collect(),
                })
                .collect()
        }

        // (While): the unfolding, as in `transform`.
        Stmt::While { .. } => derivative_programs_inner(&stmt.unfold_while_once(), param, ancilla)?,

        // (S-C), then Fig. 3's Sum rule.
        Stmt::Sum(s1, s2) => {
            let mut out = derivative_programs_inner(s1, param, ancilla)?;
            out.extend(derivative_programs_inner(s2, param, ancilla)?);
            out
        }
    })
}

/// `compile(stmt)` minus its essentially-aborting programs: the untouched
/// factor of a Sequence-rule summand.
fn live(stmt: &Stmt) -> Vec<Stmt> {
    let mut programs = compile::compile(stmt);
    programs.retain(|p| !p.essentially_aborts());
    programs
}

/// `[a; b | a ∈ left, b ∈ right]` in Fig. 3's (left-major) order. The last
/// row moves `right`'s programs instead of cloning them.
fn seq_product(mut left: Vec<Stmt>, right: Vec<Stmt>) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(left.len() * right.len());
    let Some(last) = left.pop() else {
        return out;
    };
    for a in left {
        out.extend(
            right
                .iter()
                .map(|b| Stmt::Seq(Box::new(a.clone()), Box::new(b.clone()))),
        );
    }
    out.extend(
        right
            .into_iter()
            .map(|b| Stmt::Seq(Box::new(last.clone()), Box::new(b))),
    );
    out
}

/// Whether `transform_inner(stmt)` is a normal program: exactly when `stmt`
/// contains no `;`, `while` or `+`.
fn transforms_to_normal(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Seq(..) | Stmt::While { .. } | Stmt::Sum(..) => false,
        Stmt::Case { arms, .. } => arms.iter().all(transforms_to_normal),
        Stmt::Abort { .. } | Stmt::Skip { .. } | Stmt::Init { .. } | Stmt::Unitary { .. } => true,
    }
}

/// `abort[v ∪ {A}]` for the (Trivial) rules.
fn abort_ext(stmt: &Stmt, ancilla: &Var) -> Stmt {
    let mut vars = stmt.qvar();
    vars.insert(ancilla.clone());
    Stmt::abort(vars)
}

/// The gadget `R′(θ)[A, q̄] ≡ A *= H; A,q̄ *= C_R(θ); A *= H`
/// (Definition 6.1).
fn rprime(controlled: Gate, ancilla: &Var, qs: &[Var]) -> Stmt {
    let mut operands = Vec::with_capacity(qs.len() + 1);
    operands.push(ancilla.clone());
    operands.extend(qs.iter().cloned());
    Stmt::seq([
        Stmt::unitary(Gate::H, [ancilla.clone()]),
        Stmt::Unitary {
            gate: controlled,
            qs: operands,
        },
        Stmt::unitary(Gate::H, [ancilla.clone()]),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_lang::parse_program;
    use qdp_linalg::Pauli;

    fn t(src: &str, param: &str) -> Stmt {
        let p = parse_program(src).unwrap();
        let a = fresh_ancilla(&p, param);
        transform(&p, param, &a).unwrap()
    }

    #[test]
    fn trivial_statements_become_abort() {
        for src in ["abort[q1]", "skip[q1]", "q1 := |0>"] {
            let d = t(src, "theta");
            let Stmt::Abort { qs } = d else { panic!("{src}") };
            assert!(qs.contains(&Var::new("A_theta")), "{src}");
            assert!(qs.contains(&Var::new("q1")), "{src}");
        }
    }

    #[test]
    fn unrelated_parameters_trivialize() {
        // RX(t1) differentiated w.r.t. t2 → abort (Trivial-Unitary).
        let d = t("q1 *= RX(t1)", "t2");
        assert!(matches!(d, Stmt::Abort { .. }));
    }

    #[test]
    fn rotation_becomes_rprime_gadget() {
        let d = t("q1 *= RY(t)", "t");
        // H[A]; CRY(t)[A,q1]; H[A]
        let Stmt::Seq(h1, rest) = d else { panic!() };
        assert!(matches!(*h1, Stmt::Unitary { gate: Gate::H, .. }));
        let Stmt::Seq(cr, h2) = *rest else { panic!() };
        let Stmt::Unitary { gate: Gate::CRot { axis, .. }, qs } = *cr else {
            panic!()
        };
        assert_eq!(axis, Pauli::Y);
        assert_eq!(qs, vec![Var::new("A_t"), Var::new("q1")]);
        assert!(matches!(*h2, Stmt::Unitary { gate: Gate::H, .. }));
    }

    #[test]
    fn coupling_becomes_controlled_coupling() {
        let d = t("q1, q2 *= RZZ(t)", "t");
        let Stmt::Seq(_, rest) = d else { panic!() };
        let Stmt::Seq(cr, _) = *rest else { panic!() };
        let Stmt::Unitary { gate: Gate::CCoupling { .. }, qs } = *cr else {
            panic!()
        };
        assert_eq!(qs.len(), 3);
        assert_eq!(qs[0], Var::new("A_t"));
    }

    #[test]
    fn sequence_rule_produces_sum_of_two() {
        let d = t("q1 *= RX(t); q1 *= RY(t)", "t");
        let Stmt::Sum(left, right) = d else { panic!() };
        // left = S1; ∂S2 — starts with the untouched RX.
        let Stmt::Seq(s1, _) = *left else { panic!() };
        assert!(matches!(
            *s1,
            Stmt::Unitary { gate: Gate::Rot { axis: Pauli::X, .. }, .. }
        ));
        // right = ∂S1; S2 — ends with the untouched RY.
        let Stmt::Seq(_, s2) = *right else { panic!() };
        assert!(matches!(
            *s2,
            Stmt::Unitary { gate: Gate::Rot { axis: Pauli::Y, .. }, .. }
        ));
    }

    #[test]
    fn case_rule_differentiates_each_arm() {
        let d = t(
            "case M[q1] = 0 -> q1 *= RX(t), 1 -> q1 *= RZ(t) end",
            "t",
        );
        let Stmt::Case { arms, .. } = d else { panic!() };
        assert_eq!(arms.len(), 2);
        for arm in &arms {
            // Each arm is an R′ gadget sequence.
            assert!(matches!(arm, Stmt::Seq(..)));
        }
    }

    #[test]
    fn while_transforms_via_unfolding() {
        let d = t("while[2] M[q1] = 1 do q1 *= RX(t) done", "t");
        // Unfolded form: case with ∂skip (abort) in arm 0.
        let Stmt::Case { arms, .. } = d else { panic!() };
        assert!(matches!(arms[0], Stmt::Abort { .. }));
        assert!(matches!(arms[1], Stmt::Sum(..)));
    }

    #[test]
    fn sum_rule_distributes() {
        let d = t("q1 *= RX(t) + q1 *= RY(t)", "t");
        let Stmt::Sum(a, b) = d else { panic!() };
        assert!(matches!(*a, Stmt::Seq(..)));
        assert!(matches!(*b, Stmt::Seq(..)));
    }

    #[test]
    fn ancilla_collision_detected() {
        let p = parse_program("A_t *= RX(t)").unwrap();
        let err = transform(&p, "t", &Var::new("A_t")).unwrap_err();
        assert!(matches!(err, TransformError::AncillaCollision { .. }));
        // fresh_ancilla avoids the collision automatically.
        let a = fresh_ancilla(&p, "t");
        assert_eq!(a, Var::new("A_t'"));
        assert!(transform(&p, "t", &a).is_ok());
    }

    #[test]
    fn controlled_gates_differentiate_with_one_more_control() {
        // The iterated rule: ∂(C_RX) uses a CC_RX gadget.
        let p = parse_program("a, q1 *= CRX(t)").unwrap();
        let anc = fresh_ancilla(&p, "t");
        let d = transform(&p, "t", &anc).unwrap();
        let Stmt::Seq(_, rest) = d else { panic!() };
        let Stmt::Seq(cr, _) = *rest else { panic!() };
        let Stmt::Unitary { gate, qs } = *cr else { panic!() };
        assert_eq!(gate.mnemonic(), "CCRX");
        assert_eq!(qs.len(), 3);
        assert_eq!(qs[0], anc, "new ancilla is the outermost control");
    }

    #[test]
    fn transform_preserves_parameters_of_other_names() {
        let d = t("q1 *= RX(s); q1 *= RY(t)", "t");
        // s still appears (in the S1;∂S2 component) — the untouched factor.
        assert!(d.parameters().contains("s"));
        assert!(d.parameters().contains("t"));
    }

    #[test]
    fn angle_offsets_survive_transformation() {
        let d = t("q1 *= RX(t + pi/2)", "t");
        let Stmt::Seq(_, rest) = d else { panic!() };
        let Stmt::Seq(cr, _) = *rest else { panic!() };
        let Stmt::Unitary { gate, .. } = *cr else { panic!() };
        let angle = gate.angle().unwrap();
        assert_eq!(angle.param.as_deref(), Some("t"));
        assert!((angle.offset - std::f64::consts::PI / 2.0).abs() < 1e-12);
    }
}
