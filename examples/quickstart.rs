//! Quickstart: differentiate a quantum program and check the result.
//!
//! Run with: `cargo run --example quickstart`

use qdpl::ad::{differentiate, semantics, transform};
use qdpl::lang::ast::Params;
use qdpl::lang::{parse_program, pretty, Register};
use qdpl::sim::{DensityMatrix, Observable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Write a parameterized quantum program (Section 3 of the paper).
    let src = "q1 *= RX(t); q1 *= RY(t)";
    let program = parse_program(src)?;
    println!("program P(t):\n{}\n", pretty::to_source(&program));

    // 2. Differentiate it with respect to `t`. The engine builds the
    //    compiled multiset in one pass; the paper's route to it is the
    //    Fig. 4 code transformation, then Fig. 3 compilation.
    let diff = differentiate(&program, "t")?;
    println!(
        "additive derivative ∂/∂t(P):\n{}\n",
        pretty::to_source(&transform(&program, diff.param(), diff.ancilla())?)
    );
    println!("compiles to {} normal programs:", diff.compiled().len());
    for (i, p) in diff.compiled().iter().enumerate() {
        println!("--- P'_{i} ---\n{}", pretty::to_source(p));
    }

    // 3. Evaluate the derivative of the observable semantics (Def. 5.3) and
    //    confirm against a finite difference.
    let params = Params::from_pairs([("t", 0.7)]);
    let obs = Observable::pauli_z(1, 0);
    let rho = DensityMatrix::pure_zero(1);
    let analytic = diff.derivative(&params, &obs, &rho);
    let reg = Register::from_program(&program);
    let numeric =
        semantics::numeric_derivative(&program, &reg, &params, "t", &obs, &rho, 1e-5);
    println!("\nd/dt tr(Z·[[P(t)]]ρ) at t=0.7:");
    println!("  code transformation: {analytic:.9}");
    println!("  finite difference:   {numeric:.9}");
    assert!((analytic - numeric).abs() < 1e-7);
    println!("  agreement within 1e-7 ✓");
    Ok(())
}
