//! # qdp-ad
//!
//! The core contribution of *On the Principles of Differentiable Quantum
//! Programming Languages* (PLDI 2020), reproduced in Rust:
//!
//! * [`transform`](mod@transform) — the code-transformation rules `∂/∂θj(·)` of Fig. 4 with
//!   the single-circuit `R′σ` gadgets (Definition 6.1), and the one-pass
//!   builder of their compiled, non-aborting derivative programs,
//! * [`semantics`] — observable semantics, semantics with ancilla, and
//!   differential semantics (Definitions 5.1–5.3),
//! * [`logic`] — the differentiation logic `S′(θ)|S(θ)` of Fig. 5 as
//!   derivation trees with a proof checker (Theorem 6.2),
//! * [`exec`] — the differentiate → evaluate pipeline and a cached
//!   [`GradientEngine`],
//! * [`resource`] — occurrence counts and `|#∂/∂θj(P)|` (Definitions 7.1 and
//!   4.3, Proposition 7.2),
//! * [`estimator`] — shot-based estimation with the `O(m²/δ²)` Chernoff
//!   budget (Section 7).
//!
//! # Examples
//!
//! Differentiate a program with a quantum `case` — the construct the
//! phase-shift rule cannot handle — and evaluate the derivative exactly:
//!
//! ```
//! use qdp_ad::differentiate;
//! use qdp_lang::ast::Params;
//! use qdp_lang::parse_program;
//! use qdp_sim::{DensityMatrix, Observable};
//!
//! let p = parse_program(
//!     "q1 *= RX(t); case M[q1] = 0 -> q2 *= RY(t), 1 -> q2 *= RZ(t) end",
//! )?;
//! let diff = differentiate(&p, "t")?;
//! let d = diff.derivative(
//!     &Params::from_pairs([("t", 0.3)]),
//!     &Observable::pauli_z(2, 1),
//!     &DensityMatrix::pure_zero(2),
//! );
//! assert!(d.is_finite());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Production code routes failures through typed errors or messageful
// panics; bare unwrap/expect is confined to tests.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod estimator;
pub mod exec;
pub mod logic;
pub mod lowered;
pub mod resource;
pub mod semantics;
pub mod service;
pub mod transform;

pub use cache::{CacheCounters, CacheStats, CompiledSkeleton, ProgramCache};
pub use exec::{differentiate, DenseEvaluation, Differentiated, GradientEngine};
pub use lowered::{lower_invocations, LoweredProgram, LoweredSet};
pub use service::{
    GradientService, OverloadPolicy, ProgramHandle, Request, RequestOptions, Response,
    ServiceConfig,
};
pub use logic::{check, derive, Derivation, Judgement, Rule};
pub use resource::{analyze, gradient_shot_budget, occurrence_count, ResourceReport};
pub use transform::{fresh_ancilla, transform, TransformError};
