//! # qdp-lang
//!
//! The parameterized quantum bounded `while`-language of *On the Principles
//! of Differentiable Quantum Programming Languages* (PLDI 2020), together
//! with its additive extension, semantics, and compilation:
//!
//! * [`ast`] — syntax of `q-while(T)` and `add-q-while(T)` programs
//!   (Sections 3.1, 4.1),
//! * [`parser`] / [`lexer`] / [`pretty`] — a concrete syntax that
//!   round-trips, so the paper's `#lines` metric is measurable,
//! * [`wf`] — well-formedness checking,
//! * [`denot`] — denotational semantics `[[P]]ρ` (Fig. 1b) plus a branching
//!   pure-state engine,
//! * [`op_sem`] — operational-trace multisets (Fig. 1a, Fig. 2,
//!   Definition 4.1),
//! * [`compile`] — the compilation rules with fill-and-break (Fig. 3) and
//!   the non-aborting count `|#P|` (Definition 4.3),
//! * [`register`] — variable-to-qubit mapping.
//!
//! # Examples
//!
//! ```
//! use qdp_lang::{compile, parse_program};
//!
//! // Example 4.1 of the paper: an additive choice inside a case arm
//! // compiles to two normal programs via fill-and-break.
//! let p = parse_program(
//!     "case M[q1] = 0 -> (q1 *= RX(a) + q1 *= RY(a)), 1 -> q1 *= RZ(a) end",
//! )?;
//! assert_eq!(compile::compile(&p).len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod ast;
pub mod compile;
pub mod denot;
pub mod intern;
pub mod lexer;
pub mod metrics;
pub mod op_sem;
pub mod opt;
pub mod parser;
pub mod pretty;
pub mod register;
pub mod superop;
pub mod wf;

pub use ast::{Angle, Gate, Params, Stmt, Var};
pub use intern::{multiset_fingerprint, program_fingerprint, StructuralHasher};
pub use parser::parse_program;
pub use register::Register;
