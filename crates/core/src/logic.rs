//! The differentiation logic (Fig. 5 of the paper).
//!
//! The judgement `S′(θ) | S(θ)` states that `S′` computes the differential
//! semantics of `S` (Definition 5.3). This module represents proofs of the
//! judgement as explicit [`Derivation`] trees, provides [`derive`](fn@derive) to build
//! the canonical proof for the Fig. 4 code transformation, and [`check`] to
//! validate an arbitrary derivation rule by rule.
//!
//! Theorem 6.2 (soundness) says a derivable judgement really does compute
//! the derivative; the numerical side of that claim is exercised by the
//! property tests in `tests/soundness.rs` at the workspace root, while this
//! module guarantees the *syntactic* side — each rule instance is exactly an
//! instance of Fig. 5.

use crate::transform::{transform, TransformError};
use qdp_lang::ast::{Gate, Stmt, Var};
use std::fmt;

/// The inference rules of Fig. 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// `∂(abort)|abort`
    Abort,
    /// `∂(skip)|skip`
    Skip,
    /// `∂(q:=|0⟩)|(q:=|0⟩)`
    Initialization,
    /// `∂(U(θ))|U(θ)` when `θj ∉ θ(U)`
    TrivialUnitary,
    /// `∂(Rσ(θ))|Rσ(θ)` and the two-qubit coupling variant
    RotCouple,
    /// Sequential composition
    Sequence,
    /// Case / measurement branching
    Case,
    /// Bounded while (macro over Case + Sequence)
    WhileT,
    /// Additive choice
    SumComponent,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Rule::Abort => "Abort",
            Rule::Skip => "Skip",
            Rule::Initialization => "Initialization",
            Rule::TrivialUnitary => "Trivial-Unitary",
            Rule::RotCouple => "Rot-Couple",
            Rule::Sequence => "Sequence",
            Rule::Case => "Case",
            Rule::WhileT => "While(T)",
            Rule::SumComponent => "Sum Component",
        };
        write!(f, "{name}")
    }
}

/// The judgement `derivative | original` for a fixed parameter and ancilla.
#[derive(Clone, Debug, PartialEq)]
pub struct Judgement {
    /// The candidate derivative program `S′(θ)` (over `v ∪ {A}`).
    pub derivative: Stmt,
    /// The original program `S(θ)`.
    pub original: Stmt,
}

impl fmt::Display for Judgement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "∂(S′) | S  where S = {:.40?}", self.original)
    }
}

/// A derivation tree in the logic of Fig. 5.
#[derive(Clone, Debug, PartialEq)]
pub struct Derivation {
    /// The rule applied at the root.
    pub rule: Rule,
    /// The derived judgement.
    pub conclusion: Judgement,
    /// Sub-derivations, in rule order.
    pub premises: Vec<Derivation>,
}

impl Derivation {
    /// Total number of rule applications in the tree.
    pub fn size(&self) -> usize {
        1 + self.premises.iter().map(Derivation::size).sum::<usize>()
    }

    /// Height of the tree.
    pub fn height(&self) -> usize {
        1 + self
            .premises
            .iter()
            .map(Derivation::height)
            .max()
            .unwrap_or(0)
    }

    /// Renders the proof tree as indented text, one judgement per line:
    ///
    /// ```text
    /// [Sequence] ∂(S′)|S  where S ≈ q1 *= RX(t); q1 *= RY(t)
    ///   [Rot-Couple] … where S ≈ q1 *= RX(t)
    ///   [Rot-Couple] … where S ≈ q1 *= RY(t)
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, level: usize) {
        for _ in 0..level {
            out.push_str("  ");
        }
        let subject = summarize(&self.conclusion.original);
        out.push_str(&format!("[{}] ∂(S)|S  where S ≈ {subject}\n", self.rule));
        for premise in &self.premises {
            premise.render_into(out, level + 1);
        }
    }
}

/// One-line summary of a statement for proof-tree rendering.
fn summarize(stmt: &Stmt) -> String {
    let src = qdp_lang::pretty::to_source(stmt);
    let flat = src.split_whitespace().collect::<Vec<_>>().join(" ");
    if flat.chars().count() > 48 {
        let prefix: String = flat.chars().take(47).collect();
        format!("{prefix}…")
    } else {
        flat
    }
}

/// An ill-formed derivation.
#[derive(Clone, Debug, PartialEq)]
pub struct LogicError {
    /// Which rule failed to apply.
    pub rule: Rule,
    /// Why it failed.
    pub message: String,
}

impl fmt::Display for LogicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid use of rule {}: {}", self.rule, self.message)
    }
}

impl std::error::Error for LogicError {}

/// Builds the canonical derivation of `∂/∂θ_param(stmt) | stmt` — the proof
/// tree that justifies the Fig. 4 code transformation.
///
/// # Errors
///
/// Propagates [`TransformError`] (wrapped in a [`LogicError`]) when the
/// program contains gates outside the rule set.
pub fn derive(stmt: &Stmt, param: &str, ancilla: &Var) -> Result<Derivation, LogicError> {
    let derivative = transform(stmt, param, ancilla).map_err(|e: TransformError| LogicError {
        rule: Rule::RotCouple,
        message: e.to_string(),
    })?;
    let conclusion = Judgement {
        derivative,
        original: stmt.clone(),
    };
    let premises: Vec<Derivation> = match stmt {
        Stmt::Abort { .. } | Stmt::Skip { .. } | Stmt::Init { .. } | Stmt::Unitary { .. } => {
            vec![]
        }
        Stmt::Seq(a, b) | Stmt::Sum(a, b) => vec![
            derive(a, param, ancilla)?,
            derive(b, param, ancilla)?,
        ],
        Stmt::Case { arms, .. } => arms
            .iter()
            .map(|arm| derive(arm, param, ancilla))
            .collect::<Result<_, _>>()?,
        Stmt::While { body, .. } => vec![derive(body, param, ancilla)?],
    };
    let rule = rule_for(stmt, param);
    Ok(Derivation {
        rule,
        conclusion,
        premises,
    })
}

fn rule_for(stmt: &Stmt, param: &str) -> Rule {
    match stmt {
        Stmt::Abort { .. } => Rule::Abort,
        Stmt::Skip { .. } => Rule::Skip,
        Stmt::Init { .. } => Rule::Initialization,
        Stmt::Unitary { gate, .. } => {
            if gate.uses_param(param) {
                Rule::RotCouple
            } else {
                Rule::TrivialUnitary
            }
        }
        Stmt::Seq(..) => Rule::Sequence,
        Stmt::Case { .. } => Rule::Case,
        Stmt::While { .. } => Rule::WhileT,
        Stmt::Sum(..) => Rule::SumComponent,
    }
}

/// Checks a derivation tree rule by rule: every node must be a legal
/// instance of its Fig. 5 rule, with the conclusion's derivative built from
/// the premises' derivatives exactly as the code transformation prescribes.
///
/// # Errors
///
/// Returns a [`LogicError`] naming the first offending rule application.
pub fn check(d: &Derivation, param: &str, ancilla: &Var) -> Result<(), LogicError> {
    let original = &d.conclusion.original;

    // The rule must match the statement form.
    let expected_rule = rule_for(original, param);
    if d.rule != expected_rule {
        return Err(LogicError {
            rule: d.rule,
            message: format!(
                "rule {} does not apply to this statement (expected {expected_rule})",
                d.rule
            ),
        });
    }

    // Premises must target the right sub-programs.
    let expected_subjects: Vec<&Stmt> = match original {
        Stmt::Abort { .. } | Stmt::Skip { .. } | Stmt::Init { .. } | Stmt::Unitary { .. } => {
            vec![]
        }
        Stmt::Seq(a, b) | Stmt::Sum(a, b) => vec![a, b],
        Stmt::Case { arms, .. } => arms.iter().collect(),
        Stmt::While { body, .. } => vec![body],
    };
    if expected_subjects.len() != d.premises.len() {
        return Err(LogicError {
            rule: d.rule,
            message: format!(
                "rule {} needs {} premise(s), found {}",
                d.rule,
                expected_subjects.len(),
                d.premises.len()
            ),
        });
    }
    for (premise, subject) in d.premises.iter().zip(&expected_subjects) {
        if &&premise.conclusion.original != subject {
            return Err(LogicError {
                rule: d.rule,
                message: "premise proves a judgement about the wrong sub-program".into(),
            });
        }
        check(premise, param, ancilla)?;
    }

    // The conclusion's derivative must be assembled from the premises'
    // derivatives per the corresponding Fig. 4 transformation.
    let expected_derivative = assemble(original, d, param, ancilla)?;
    if d.conclusion.derivative != expected_derivative {
        return Err(LogicError {
            rule: d.rule,
            message: "conclusion derivative is not the one prescribed by the rule".into(),
        });
    }
    Ok(())
}

/// Reassembles the conclusion derivative from premise derivatives.
fn assemble(
    original: &Stmt,
    d: &Derivation,
    param: &str,
    ancilla: &Var,
) -> Result<Stmt, LogicError> {
    Ok(match original {
        Stmt::Abort { .. } | Stmt::Skip { .. } | Stmt::Init { .. } => {
            abort_ext(original, ancilla)
        }
        Stmt::Unitary { gate, .. } => {
            if gate.uses_param(param) {
                match gate {
                    // Rσ / Rσ⊗σ (Fig. 5) and their iterated controlled forms
                    // (the higher-order extension; see transform.rs).
                    Gate::Rot { .. }
                    | Gate::Coupling { .. }
                    | Gate::CRot { .. }
                    | Gate::CCoupling { .. } => {
                        transform(original, param, ancilla).map_err(|e| LogicError {
                            rule: Rule::RotCouple,
                            message: e.to_string(),
                        })?
                    }
                    Gate::H | Gate::X | Gate::Y | Gate::Z | Gate::Cnot => {
                        unreachable!("fixed gates never use a parameter")
                    }
                }
            } else {
                abort_ext(original, ancilla)
            }
        }
        Stmt::Seq(a, b) => {
            let da = d.premises[0].conclusion.derivative.clone();
            let db = d.premises[1].conclusion.derivative.clone();
            Stmt::Sum(
                Box::new(Stmt::Seq(a.clone(), Box::new(db))),
                Box::new(Stmt::Seq(Box::new(da), b.clone())),
            )
        }
        Stmt::Sum(..) => {
            let da = d.premises[0].conclusion.derivative.clone();
            let db = d.premises[1].conclusion.derivative.clone();
            Stmt::Sum(Box::new(da), Box::new(db))
        }
        Stmt::Case { qs, .. } => Stmt::Case {
            qs: qs.clone(),
            arms: d
                .premises
                .iter()
                .map(|p| p.conclusion.derivative.clone())
                .collect(),
        },
        Stmt::While { .. } => {
            // While(T) is a macro: its derivative is the transformation of
            // the one-step unfolding (successive Case + Sequence uses).
            transform(&original.unfold_while_once(), param, ancilla).map_err(|e| LogicError {
                rule: Rule::WhileT,
                message: e.to_string(),
            })?
        }
    })
}

fn abort_ext(stmt: &Stmt, ancilla: &Var) -> Stmt {
    let mut vars = stmt.qvar();
    vars.insert(ancilla.clone());
    Stmt::abort(vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_lang::parse_program;

    fn derive_src(src: &str, param: &str) -> (Derivation, Var) {
        let p = parse_program(src).unwrap();
        let a = crate::transform::fresh_ancilla(&p, param);
        (derive(&p, param, &a).unwrap(), a)
    }

    #[test]
    fn canonical_derivations_check() {
        for src in [
            "abort[q1]",
            "skip[q1]",
            "q1 := |0>",
            "q1 *= H",
            "q1 *= RX(t)",
            "q1, q2 *= RYY(t)",
            "q1 *= RX(t); q1 *= RY(t)",
            "case M[q1] = 0 -> q1 *= RX(t); q1 *= RY(t), 1 -> q1 *= RZ(t) end",
            "while[2] M[q1] = 1 do q1 *= RX(t) done",
            "q1 *= RX(t) + q1 *= RY(t)",
        ] {
            let (d, a) = derive_src(src, "t");
            check(&d, "t", &a).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }

    #[test]
    fn rules_match_statement_forms() {
        let cases = [
            ("abort[q1]", Rule::Abort),
            ("skip[q1]", Rule::Skip),
            ("q1 := |0>", Rule::Initialization),
            ("q1 *= H", Rule::TrivialUnitary),
            ("q1 *= RX(s)", Rule::TrivialUnitary), // wrong parameter → trivial
            ("q1 *= RX(t)", Rule::RotCouple),
            ("q1 *= RX(t); q1 *= RY(t)", Rule::Sequence),
            ("case M[q1] = 0 -> skip[q1], 1 -> skip[q1] end", Rule::Case),
            ("while[2] M[q1] = 1 do skip[q1] done", Rule::WhileT),
            ("skip[q1] + skip[q1]", Rule::SumComponent),
        ];
        for (src, rule) in cases {
            let (d, _) = derive_src(src, "t");
            assert_eq!(d.rule, rule, "{src}");
        }
    }

    #[test]
    fn derivation_judgement_matches_transformation() {
        let p = parse_program("q1 *= RX(t); q1 *= RY(t)").unwrap();
        let a = crate::transform::fresh_ancilla(&p, "t");
        let d = derive(&p, "t", &a).unwrap();
        let expected = transform(&p, "t", &a).unwrap();
        assert_eq!(d.conclusion.derivative, expected);
        assert_eq!(d.conclusion.original, p);
    }

    #[test]
    fn tampered_derivative_is_rejected() {
        let (mut d, a) = derive_src("q1 *= RX(t); q1 *= RY(t)", "t");
        // Swap the sum components: (∂S1;S2) + (S1;∂S2) instead of the
        // prescribed (S1;∂S2) + (∂S1;S2). Semantically equal, but not the
        // canonical rule instance.
        let Stmt::Sum(x, y) = d.conclusion.derivative.clone() else {
            panic!()
        };
        d.conclusion.derivative = Stmt::Sum(y, x);
        let err = check(&d, "t", &a).unwrap_err();
        assert!(err.message.contains("not the one prescribed"));
    }

    #[test]
    fn tampered_premise_subject_is_rejected() {
        let (mut d, a) = derive_src("q1 *= RX(t); q1 *= RY(t)", "t");
        d.premises.swap(0, 1);
        let err = check(&d, "t", &a).unwrap_err();
        assert!(err.message.contains("wrong sub-program"));
    }

    #[test]
    fn missing_premises_are_rejected() {
        let (mut d, a) = derive_src("q1 *= RX(t); q1 *= RY(t)", "t");
        d.premises.pop();
        let err = check(&d, "t", &a).unwrap_err();
        assert!(err.message.contains("premise"));
    }

    #[test]
    fn wrong_rule_label_is_rejected() {
        let (mut d, a) = derive_src("q1 *= RX(t)", "t");
        d.rule = Rule::Skip;
        let err = check(&d, "t", &a).unwrap_err();
        assert!(err.message.contains("does not apply"));
    }

    #[test]
    fn tree_measures() {
        let (d, _) = derive_src(
            "case M[q1] = 0 -> q1 *= RX(t); q1 *= RY(t), 1 -> q1 *= RZ(t) end",
            "t",
        );
        // Case → [Seq → [RX, RY], RZ]: 5 nodes, height 3.
        assert_eq!(d.size(), 5);
        assert_eq!(d.height(), 3);
    }

    #[test]
    fn render_shows_one_line_per_rule() {
        let (d, _) = derive_src("q1 *= RX(t); q1 *= RY(t)", "t");
        let text = d.render();
        assert_eq!(text.lines().count(), d.size());
        assert!(text.starts_with("[Sequence]"));
        assert!(text.contains("  [Rot-Couple]"));
    }

    #[test]
    fn while_premise_is_the_loop_body() {
        let (d, a) = derive_src("while[3] M[q1] = 1 do q1 *= RX(t) done", "t");
        assert_eq!(d.rule, Rule::WhileT);
        assert_eq!(d.premises.len(), 1);
        assert!(matches!(
            d.premises[0].conclusion.original,
            Stmt::Unitary { .. }
        ));
        check(&d, "t", &a).unwrap();
    }
}
