//! Emits `BENCH_sim.json` — the simulator's same-run regression gate.
//!
//! Every section times two paths that compute the same thing, in the same
//! process and interleaved block by block ([`paired_ns`]): a production
//! path against the retained baseline or oracle it replaced, or a SIMD
//! tier against the scalar cap. A guard fails the run when a production
//! path loses its margin over its own baseline on this host; no guard
//! compares against a timing measured elsewhere. The cross-commit trend
//! lives in the git history of `BENCH_sim.json`.
//!
//! Every section runs twice, at one thread and at `qdp_par::max_threads()`,
//! and both passes are recorded and guarded. The record opens with a
//! `host` block (cores, thread count, SIMD tier, CPU model). In the
//! `at_max_threads` pass each section also records, per guard timed by
//! [`paired_ns`], the share of the host's CPU time stolen by the
//! hypervisor while that guard was measured (`steal_share`, read from
//! `/proc/stat`; `null` where it cannot be read), so a low ratio can be
//! told apart from a crowded host. It changes no verdict.
//!
//! Each floor is about ¾ of the lowest value its ratio took over 30 runs
//! on a 2-vCPU AVX-512 Xeon; the comment beside it gives the spread at one
//! thread / at two threads. Interleaving removes most of the host's drift
//! but not all of it: on this host the ratios still spread by up to 2×.
//!
//! Run with `scripts/bench_sim.sh [output-path]` or
//! `cargo run --release -p qdp-bench --bin bench_sim -- [output-path]`;
//! the output path defaults to `BENCH_sim.json`. The record is written
//! before the guards are checked, so a failing run still leaves it.

use qdp_ad::estimator::{
    estimate_derivative, estimate_derivative_batched, PreparedDerivativeEstimator,
};
use qdp_ad::transform::{fresh_ancilla, transform};
use qdp_ad::{
    CompiledSkeleton, GradientEngine, GradientService, LoweredSet, OverloadPolicy, RequestOptions,
    ServiceConfig,
};
use qdp_lang::ast::{Params, Stmt};
use qdp_lang::{compile, denot, parse_program, Register};
use qdp_linalg::{Matrix, Pauli, C64};
use qdp_sim::kernels::{
    apply_matrix_planes, apply_matrix_reference, qubit_bit, set_reference_kernels,
};
use qdp_sim::simd::{self, SimdTier};
use qdp_sim::{
    BatchedStates, DensityMatrix, Measurement, Observable, ShotEngine, ShotSampler, StateVector,
};
use qdp_vqc::baseline::PhaseShift;
use qdp_vqc::circuits::{p1, p2};
use qdp_vqc::hamiltonian::hardware_efficient_ansatz;
use qdp_vqc::loss::{Loss, SquaredLoss};
use qdp_vqc::task;
use qdp_vqc::train::Trainer;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// The record
// ---------------------------------------------------------------------------

/// One value of the record, which is a tree of named fields.
#[derive(Clone, Debug)]
enum Value {
    /// A measurement; non-finite numbers are written as `null`.
    Num(f64),
    /// A count.
    Int(usize),
    /// A label.
    Str(String),
    /// A nested object, keys in insertion order.
    Obj(Fields),
}

/// An object's fields, in the order they are written.
type Fields = Vec<(String, Value)>;

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Fields> for Value {
    fn from(fields: Fields) -> Self {
        Value::Obj(fields)
    }
}

/// `fields!["key" => value, ...]`: an object's fields, each value converted
/// with `Value::from`.
macro_rules! fields {
    ($($key:expr => $value:expr),* $(,)?) => {
        vec![$(($key.to_string(), Value::from($value))),*]
    };
}

/// A time in nanoseconds, kept to 0.1 ns.
fn ns(t: f64) -> Value {
    Value::Num((t * 10.0).round() / 10.0)
}

/// A ratio, kept to two decimals.
fn ratio(r: f64) -> Value {
    Value::Num((r * 100.0).round() / 100.0)
}

/// A share, kept to three decimals.
fn share(r: f64) -> Value {
    Value::Num((r * 1000.0).round() / 1000.0)
}

/// Renders `fields` as a JSON object, two-space indented, one field per line.
fn render(fields: &[(String, Value)]) -> String {
    let mut out = String::new();
    write_object(&mut out, fields, 0);
    out.push('\n');
    out
}

fn write_object(out: &mut String, fields: &[(String, Value)], depth: usize) {
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        write_string(out, key);
        out.push_str(": ");
        match value {
            Value::Num(x) if x.is_finite() => write!(out, "{x}").expect("write to String"),
            Value::Num(_) => out.push_str("null"),
            Value::Int(n) => write!(out, "{n}").expect("write to String"),
            Value::Str(s) => write_string(out, s),
            Value::Obj(inner) => write_object(out, inner, depth + 1),
        }
    }
    if !fields.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push('}');
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => write!(out, "\\u{:04x}", u32::from(c)).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The machine the record was taken on.
fn host_block() -> Fields {
    fields![
        "cores" => std::thread::available_parallelism().map_or(1, |n| n.get()),
        "max_threads" => qdp_par::max_threads(),
        "simd_tier" => format!("{:?}", simd::active_tier()),
        "cpu_model" => cpu_model(),
    ]
}

/// The first `model name` in `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The whole record: the host block, then each pass's sections.
fn record(host: Fields, at_1_thread: Fields, at_max_threads: Fields) -> Fields {
    fields![
        "bench" => "sim",
        "host" => host,
        "at_1_thread" => at_1_thread,
        "at_max_threads" => at_max_threads,
    ]
}

// ---------------------------------------------------------------------------
// Timing and guards
// ---------------------------------------------------------------------------

/// Mean wall time per call of `iters` back-to-back calls of `f(side)`.
fn block_ns(f: &mut impl FnMut(bool), side: bool, iters: u64) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f(side);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// The `steal` and total jiffies of the `cpu` line of `/proc/stat` (all
/// CPUs), or `None` when the file cannot be read or parsed.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal
    let cols: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|c| c.parse().ok())
        .collect::<Option<_>>()?;
    (cols.len() == 8).then(|| (cols[7], cols.iter().sum()))
}

/// The share of CPU time stolen between two [`cpu_jiffies`] readings; NaN
/// (written as `null`) when either is missing or no time passed.
fn steal_share(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> f64 {
    match (start, end) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => f64::NAN,
    }
}

thread_local! {
    /// The [`cpu_jiffies`] reading taken as the first [`paired_ns`] since
    /// the last guard began; the next guard takes it.
    static STEAL_MARK: Cell<Option<Option<(u64, u64)>>> = const { Cell::new(None) };
}

/// Median wall time in nanoseconds of the two sides of `f` — `f(true)`
/// and `f(false)` — alternated block by block, so the host's slow and fast
/// spells (each far longer than a block) land on both sides alike. Each
/// side repeats within a block for at least ~2 ms. The rounds stop at 41,
/// or at 11 once 1.5 s have passed. Returns `(true_ns, false_ns)`.
fn paired_ns(mut f: impl FnMut(bool)) -> (f64, f64) {
    STEAL_MARK.with(|mark| {
        if mark.get().is_none() {
            mark.set(Some(cpu_jiffies()));
        }
    });
    let iters = [calibrate(&mut f, true, 2e6), calibrate(&mut f, false, 2e6)];
    let start = Instant::now();
    let (mut first, mut second) = (Vec::new(), Vec::new());
    for round in 0..41 {
        if round >= 11 && start.elapsed() > Duration::from_millis(1500) {
            break;
        }
        first.push(block_ns(&mut f, true, iters[0]));
        second.push(block_ns(&mut f, false, iters[1]));
    }
    (median(first), median(second))
}

/// Median wall time in nanoseconds of `f` over five samples of at least
/// ~20 ms each — for paths too slow to interleave.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut g = |_: bool| f();
    let iters = calibrate(&mut g, true, 2e7);
    median((0..5).map(|_| block_ns(&mut g, true, iters)).collect())
}

/// The power-of-two repeat count at which a block of `f(side)` takes at
/// least `min_ns`.
fn calibrate(f: &mut impl FnMut(bool), side: bool, min_ns: f64) -> u64 {
    let mut iters = 1u64;
    while block_ns(f, side, iters) * (iters as f64) < min_ns && iters < 1 << 24 {
        iters *= 2;
    }
    iters
}

/// Panics unless `got` is within `tol` of `want` on every parameter.
fn assert_close(what: &str, got: &BTreeMap<String, f64>, want: &BTreeMap<String, f64>, tol: f64) {
    for (name, v) in got {
        let w = want[name];
        assert!((v - w).abs() < tol, "{what} diverged on {name}: {v} vs {w}");
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The guards checked so far, the ones that failed, and the pass running.
#[derive(Default)]
struct Guards {
    pass: &'static str,
    checked: usize,
    failed: Vec<String>,
    /// Whether this pass records each paired guard's steal share.
    record_steal: bool,
    /// The current section's steal shares, by guard.
    steal: Fields,
}

impl Guards {
    /// Requires `speedup` (baseline time over production time) ≥ `floor`.
    /// A guard timed by [`paired_ns`] also records its steal share when
    /// the pass asks for it.
    fn at_least(&mut self, what: &str, speedup: f64, floor: f64) {
        if let Some(start) = STEAL_MARK.with(Cell::take) {
            if self.record_steal {
                self.steal
                    .push((what.to_string(), share(steal_share(start, cpu_jiffies()))));
            }
        }
        self.checked += 1;
        if speedup.is_nan() || speedup < floor {
            let pass = self.pass;
            self.failed
                .push(format!("{pass}: {what} {speedup:.2}x < floor {floor}x"));
        }
    }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// A paper circuit, its engine, and the benchmark's parameter point
/// `θ_i = 0.2 + 0.31 i`.
struct Circuit {
    program: Stmt,
    engine: GradientEngine,
    values: BTreeMap<String, f64>,
    params: Params,
}

impl Circuit {
    fn new(program: Stmt) -> Self {
        let engine = GradientEngine::new(&program).expect("differentiable");
        let values: BTreeMap<String, f64> = program
            .parameters()
            .into_iter()
            .enumerate()
            .map(|(i, name)| (name, 0.2 + 0.31 * i as f64))
            .collect();
        let params = Params::from_pairs(values.iter().map(|(k, &v)| (k.clone(), v)));
        Circuit {
            program,
            engine,
            values,
            params,
        }
    }
}

/// The per-row "before" gradient executor: what single-input gradients
/// ran before they became rows of a batched sweep, kept as the baseline of
/// the per-row sections. Per call it interns every parameter's lowered
/// derivative multiset, then runs it on one input program by program,
/// parameters fanned out across `qdp_par`. Each multiset's slot remap into
/// the canonical parameter order is resolved once.
struct PerRowGradient<'e> {
    engine: &'e GradientEngine,
    remaps: Vec<(String, Vec<usize>)>,
}

impl<'e> PerRowGradient<'e> {
    fn new(engine: &'e GradientEngine) -> Self {
        let names: Vec<&str> = engine.parameters().collect();
        let remaps = names
            .iter()
            .map(|&name| {
                let skeleton = engine.differentiated(name).expect("known parameter").skeleton();
                let remap = skeleton
                    .lowered()
                    .param_names()
                    .iter()
                    .map(|p| names.iter().position(|c| c == p).expect("a program parameter"))
                    .collect();
                (name.to_string(), remap)
            })
            .collect();
        PerRowGradient { engine, remaps }
    }

    /// The gradient on `psi`: each multiset's programs by per-row branch
    /// enumeration (`LoweredProgram::expectation_pure` on `|0⟩⊗ψ`), summed
    /// in multiset order.
    fn gradient(&self, params: &Params, obs: &Observable, psi: &StateVector) -> BTreeMap<String, f64> {
        let ext_obs = obs.with_ancilla_z();
        let ext_psi = StateVector::zero_state(1).tensor(psi);
        let canonical: Vec<f64> = self
            .engine
            .parameters()
            .map(|name| params.get(name).expect("parameter has a value"))
            .collect();
        let entries: Vec<(&String, &Vec<usize>, Arc<CompiledSkeleton>)> = self
            .remaps
            .iter()
            .map(|(name, remap)| {
                let diff = self.engine.differentiated(name).expect("known parameter");
                (name, remap, diff.skeleton())
            })
            .collect();
        qdp_par::par_map(&entries, |(name, remap, skeleton)| {
            let values: Vec<f64> = remap.iter().map(|&i| canonical[i]).collect();
            let programs = skeleton.lowered().programs();
            let terms = qdp_par::par_map(programs, |p| p.expectation_pure(&values, &ext_psi, &ext_obs));
            ((*name).clone(), terms.into_iter().sum())
        })
        .into_iter()
        .collect()
    }
}

/// What the sections share: `P1` and `P2`, the read-out observable, one
/// input state, and the 16-sample classification dataset.
struct Fixture {
    p1: Circuit,
    p2: Circuit,
    obs: Observable,
    psi: StateVector,
    data: Vec<(StateVector, f64)>,
}

impl Fixture {
    fn new() -> Self {
        Fixture {
            p1: Circuit::new(p1()),
            p2: Circuit::new(p2()),
            obs: task::readout_observable(),
            psi: StateVector::from_bits(&[true, false, true, false]),
            data: task::dataset()
                .into_iter()
                .map(|s| (s.input_state(), s.target()))
                .collect(),
        }
    }

    fn inputs(&self) -> Vec<StateVector> {
        self.data.iter().map(|(psi, _)| psi.clone()).collect()
    }
}

/// A random normalized `n`-qubit state, deterministic in `seed`.
fn random_state(n: usize, seed: u64) -> StateVector {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    let amps: Vec<C64> = (0..1usize << n).map(|_| C64::new(next(), next())).collect();
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    let amps = amps.into_iter().map(|a| C64::new(a.re / norm, a.im / norm));
    StateVector::from_amplitudes(n, amps.collect())
}

/// Qubits per row of the seam batch.
const SEAM_QUBITS: usize = 10;

/// The rows of the L2-resident seam batch: 16 rows × 10 qubits, two
/// 128 KiB planes.
fn seam_states() -> Vec<StateVector> {
    (1..=16).map(|s| random_state(SEAM_QUBITS, s)).collect()
}

// ---------------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------------

/// A section: runs its workloads, checks its guards, returns its fields.
type Section = fn(&Fixture, &mut Guards) -> Fields;

/// Every section, in record order.
const SECTIONS: [(&str, Section); 15] = [
    ("gate_apply", gate_apply),
    ("simd", simd_tiers),
    ("gate_apply_10q_density", gate_apply_10q_density),
    ("gradient_p1_24_params", gradient_p1),
    ("full_gradient", full_gradient),
    ("semantics_engines", semantics_engines),
    ("gradient_batch_16x", gradient_batch),
    ("estimator_shots", estimator_shots),
    ("gradient_branching_batch", gradient_branching_batch),
    ("adjoint", adjoint),
    ("measurement_sweep", measurement_sweep),
    ("block_measurement", block_measurement),
    ("compile_cache", compile_cache),
    ("service_overload", service_overload),
    ("differentiate", differentiate),
];

/// The seam batch: one gate per kernel dispatch class — H (dense real),
/// RX (dense complex), RZ (diagonal), CNOT (block-diagonal controlled) —
/// on the 16×10q batch, production kernels against the reference scan
/// (`set_reference_kernels`) on the same batch.
fn gate_apply(_: &Fixture, g: &mut Guards) -> Fields {
    let mut batch = BatchedStates::from_states(&seam_states());
    let (h, rx, rz, cnot) = (
        Matrix::hadamard(),
        Matrix::rotation_x(0.7),
        Matrix::rotation_z(0.7),
        Matrix::cnot(),
    );
    let (fast_ns, reference_ns) = paired_ns(|fast| {
        set_reference_kernels(!fast);
        batch.apply_gate(&h, &[4]);
        batch.apply_gate(&rx, &[5]);
        batch.apply_gate(&rz, &[6]);
        batch.apply_gate(&cnot, &[3, 7]);
    });
    set_reference_kernels(false);
    let speedup = reference_ns / fast_ns;
    // 30 runs, 1 / 2 threads: 14.0–19.2 / 13.1–19.7.
    g.at_least("seam vs reference kernels", speedup, 9.0);
    fields![
        "workload" => "16x10q batched seam, L2-resident: H, RX, RZ, CNOT (one gate per dispatch class)",
        "seam_ns" => ns(fast_ns),
        "seam_reference_ns" => ns(reference_ns),
        "speedup" => ratio(speedup),
    ]
}

/// The explicit SIMD kernels against the scalar plane kernels, by capping
/// the tier (`simd::set_tier_cap`) inside the timed closure. First on the
/// seam batch — dense RX on a contiguous run, RX, H, RZ and CNOT on the
/// `mask = 1` deinterleave orbit (row qubit 9), a dense two-qubit RXX on
/// chunked runs — then every SIMD tier of this host on a 14-qubit pure
/// state. Guards apply on the seam only, when a vector tier is active;
/// their floors come from an AVX-512 host and hold for AVX2 on the 14-qubit
/// cases there.
fn simd_tiers(_: &Fixture, g: &mut Guards) -> Fields {
    let active = simd::active_tier();
    let cap = simd::tier_cap();
    let (h, rx, rz, cnot) = (
        Matrix::hadamard(),
        Matrix::rotation_x(0.7),
        Matrix::rotation_z(0.7),
        Matrix::cnot(),
    );
    let rxx = Matrix::coupling_rotation(Pauli::X, 0.7);
    let vs_scalar = |tier: SimdTier, apply: &mut dyn FnMut()| {
        let (vector_ns, scalar_ns) = paired_ns(|vector| {
            simd::set_tier_cap(if vector { tier } else { SimdTier::Scalar });
            apply();
        });
        simd::set_tier_cap(cap);
        (vector_ns, scalar_ns / vector_ns)
    };

    let mut fields = fields!["active_tier" => format!("{active:?}")];
    let mut batch = BatchedStates::from_states(&seam_states());
    // (case, gate, targets, floor); each comment gives the case's spread
    // over 30 runs at 1 / 2 threads with AVX-512 active.
    let seam_cases: [(&str, &Matrix, &[usize], f64); 6] = [
        // 0.99–1.56 / 1.13–1.54: the autovectorized scalar loop is
        // already close on contiguous runs, so this floor only catches a
        // vector path far slower than scalar.
        ("rx", &rx, &[5], 0.75),
        // 4.28–7.69 / 4.15–7.54.
        ("rx_mask1", &rx, &[9], 3.0),
        // 1.84–4.22 / 1.91–4.03.
        ("h_mask1", &h, &[9], 1.3),
        // 2.41–5.01 / 2.46–4.97.
        ("rz_mask1", &rz, &[9], 1.8),
        // 4.32–7.57 / 4.93–7.02.
        ("cnot_mask1", &cnot, &[3, 9], 3.0),
        // 1.80–3.04 / 1.78–3.01.
        ("rxx", &rxx, &[3, 7], 1.3),
    ];
    for (case, gate, targets, floor) in seam_cases {
        let (t_ns, speedup) = vs_scalar(active, &mut || batch.apply_gate(gate, targets));
        if active != SimdTier::Scalar {
            g.at_least(&format!("SIMD seam {case} vs scalar"), speedup, floor);
        }
        fields.push((format!("seam_{case}_ns"), ns(t_ns)));
        fields.push((format!("seam_{case}_speedup"), ratio(speedup)));
    }

    let n = 14;
    let mut amps = vec![C64::ZERO; 1 << n];
    amps[0] = C64::new(0.6, 0.8);
    let mut psi = StateVector::from_amplitudes(n, amps);
    let pure_cases: [(&str, &Matrix, &[usize]); 6] = [
        ("rx_interior", &rx, &[5]),
        ("rx_mask1", &rx, &[n - 1]),
        ("h_mask1", &h, &[n - 1]),
        ("rz_mask1", &rz, &[n - 1]),
        ("cnot_mask1", &cnot, &[3, n - 1]),
        ("rxx_runs", &rxx, &[3, 7]),
    ];
    for tier in [SimdTier::Avx2, SimdTier::Avx512] {
        if tier > active {
            continue;
        }
        let mut per_case = Fields::new();
        for (case, gate, targets) in pure_cases {
            let (t_ns, speedup) = vs_scalar(tier, &mut || psi.apply_gate(gate, targets));
            per_case.push((format!("{case}_ns"), ns(t_ns)));
            per_case.push((format!("{case}_speedup"), ratio(speedup)));
        }
        fields.push((format!("tier_{tier:?}_14q_pure"), Value::Obj(per_case)));
    }
    fields
}

/// H on row qubit 4 of a 10-qubit density matrix (2²⁰ amplitudes, DRAM
/// bound): the split-plane kernel against the reference scan.
fn gate_apply_10q_density(_: &Fixture, g: &mut Guards) -> Fields {
    let n = 10;
    let h = Matrix::hadamard();
    let mut rho = DensityMatrix::pure_zero(n);
    for q in 0..n {
        rho.apply_unitary(&h, &[q]);
    }
    let (re, im) = rho.planes();
    let (mut re, mut im) = (re.to_vec(), im.to_vec());
    let mut amps = rho.to_matrix().as_slice().to_vec();
    let (fast_ns, reference_ns) = paired_ns(|fast| {
        if fast {
            apply_matrix_planes(&mut re, &mut im, 2 * n, &h, &[4]);
        } else {
            apply_matrix_reference(&mut amps, 2 * n, &h, &[4]);
        }
    });
    let speedup = reference_ns / fast_ns;
    // 30 runs, 1 / 2 threads: 4.07–8.05 / 6.51–17.8 (only the fast
    // kernel forks).
    g.at_least("10q density H vs reference", speedup, 3.0);
    fields![
        "gate" => "H on row qubit 4",
        "fast_ns" => ns(fast_ns),
        "reference_ns" => ns(reference_ns),
        "speedup" => ratio(speedup),
    ]
}

/// The full 24-parameter gradient of `P1`, production kernels against
/// the reference scan end to end.
fn gradient_p1(fx: &Fixture, g: &mut Guards) -> Fields {
    let (fast_ns, reference_ns) = paired_ns(|fast| {
        set_reference_kernels(!fast);
        black_box(fx.p1.engine.gradient_pure(&fx.p1.params, &fx.obs, &fx.psi));
    });
    set_reference_kernels(false);
    let speedup = reference_ns / fast_ns;
    // 30 runs, 1 / 2 threads: 1.72–1.94 / 1.35–1.74; 3 runs since
    // `gradient_pure` was a row of the shared prefix-trie sweep
    // (since retired): 1.75–2.06 / 1.95–2.06; 10 runs since it is a row
    // of the adjoint sweep: 1.57–1.83 / 1.50–1.81.
    g.at_least("P1 gradient vs reference kernels", speedup, 1.0);
    fields![
        "workload" => "GradientEngine::gradient_pure on P1",
        "fast_ns" => ns(fast_ns),
        "reference_ns" => ns(reference_ns),
        "speedup" => ratio(speedup),
    ]
}

/// The paper's gradient comparison (§8, E3/E4) on the control-free `P1`:
/// the one-circuit gadget against the two-circuit phase-shift baseline.
/// The two gradients must agree; the ratio is recorded, not guarded.
fn full_gradient(fx: &Fixture, _: &mut Guards) -> Fields {
    let shift = PhaseShift::new(&fx.p1.program).expect("P1 is a circuit");
    let gadget = fx.p1.engine.gradient_pure(&fx.p1.params, &fx.obs, &fx.psi);
    let baseline = shift.gradient(&fx.p1.params, &fx.obs, &fx.psi);
    assert_close("phase-shift gradient", &baseline, &gadget, 1e-9);
    let (gadget_ns, shift_ns) = paired_ns(|gadget| {
        black_box(if gadget {
            fx.p1.engine.gradient_pure(&fx.p1.params, &fx.obs, &fx.psi)
        } else {
            shift.gradient(&fx.p1.params, &fx.obs, &fx.psi)
        });
    });
    fields![
        "workload" => "P1 gradient (24 params): gadget vs phase-shift baseline",
        "gadget_ns" => ns(gadget_ns),
        "phase_shift_ns" => ns(shift_ns),
        "phase_shift_over_gadget" => ratio(shift_ns / gadget_ns),
    ]
}

/// The paper's two semantics on one 6-qubit program with `case` and
/// `while`: the density-operator denotation against the branching
/// pure-state interpreter. Both must give the same expectation; the ratio
/// is recorded, not guarded.
fn semantics_engines(_: &Fixture, _: &mut Guards) -> Fields {
    let program = parse_program(
        "q1 *= H; q2 *= H;
         q1, q3 *= RXX(a); q2, q4 *= RYY(b);
         case M[q1] = 0 -> q3 *= RY(a); q4 *= RZ(b),
                      1 -> q3 := |0>; q3, q4 *= RZZ(a) end;
         while[2] M[q4] = 1 do q2 *= RX(b) done;
         q5 *= RZ(a); q6 *= RY(b)",
    )
    .expect("valid program");
    let reg = Register::from_program(&program);
    let params = Params::from_pairs([("a", 0.7), ("b", -0.4)]);
    let obs = Observable::pauli_z(reg.len(), 2);
    let psi = StateVector::zero_state(reg.len());
    let rho = DensityMatrix::from_pure(&psi);
    let density = || obs.expectation(&denot::denote(&program, &reg, &params, &rho));
    let pure = || denot::expectation_pure(&program, &reg, &params, &psi, &obs);
    assert!(
        (density() - pure()).abs() < 1e-9,
        "the two semantics diverged: {} vs {}",
        density(),
        pure()
    );
    let (pure_ns, density_ns) = paired_ns(|is_pure| {
        black_box(if is_pure { pure() } else { density() });
    });
    fields![
        "workload" => "6-qubit program with case and while: denot::denote vs denot::expectation_pure",
        "density_ns" => ns(density_ns),
        "pure_ns" => ns(pure_ns),
        "density_over_pure" => ratio(density_ns / pure_ns),
    ]
}

/// The full-batch training gradient of `P1` over the 16-sample dataset:
/// `Trainer::loss_gradient` on the batched engine against the serial
/// per-sample loop (one interpreted forward value and one
/// [`PerRowGradient`] per row, chain rule accumulated in row order).
fn gradient_batch(fx: &Fixture, g: &mut Guards) -> Fields {
    let (p1, obs, loss) = (&fx.p1, &fx.obs, SquaredLoss);
    let per_row = PerRowGradient::new(&p1.engine);
    let serial_loop = || -> BTreeMap<String, f64> {
        let mut grads: BTreeMap<String, f64> = p1.values.keys().map(|k| (k.clone(), 0.0)).collect();
        for (psi, label) in &fx.data {
            let value = denot::expectation_pure(&p1.program, p1.engine.register(), &p1.params, psi, obs);
            let outer = loss.grad(value, *label);
            if outer == 0.0 {
                continue;
            }
            for (name, g) in per_row.gradient(&p1.params, obs, psi) {
                *grads.get_mut(&name).expect("known parameter") += outer * g;
            }
        }
        grads
    };
    let mut trainer = Trainer::new(&p1.program, obs.clone(), fx.data.clone()).expect("P1 trains");
    trainer.set_params(&p1.values);
    let batched = || trainer.loss_gradient(&loss);
    assert_close("batched gradient", &batched(), &serial_loop(), 1e-12);
    let (batched_ns, serial_ns) = paired_ns(|is_batched| {
        black_box(if is_batched { batched() } else { serial_loop() });
    });
    let speedup = serial_ns / batched_ns;
    // 30 runs, 1 / 2 threads: 5.85–6.46 / 6.54–8.76; 10 runs since the
    // batched gradient is the adjoint sweep: 23.5–50.2 / 19.5–27.4.
    g.at_least("batched training gradient vs serial loop", speedup, 4.0);
    fields![
        "workload" => format!("Trainer::loss_gradient on P1, {}-sample batch", fx.data.len()),
        "batched_ns" => ns(batched_ns),
        "serial_loop_ns" => ns(serial_ns),
        "speedup" => ratio(speedup),
    ]
}

/// The shot-noise `P1` gradient (§7's execution model, 1024 trajectories
/// per parameter): batched `ShotEngine` sweeps (`gradient_pure_shots`)
/// against the serial per-shot AST loop (`estimate_derivative`).
fn estimator_shots(fx: &Fixture, g: &mut Guards) -> Fields {
    let (shots, seed) = (1024, 42);
    let (p1, obs, psi) = (&fx.p1, &fx.obs, &fx.psi);
    let serial_loop = || -> BTreeMap<String, f64> {
        p1.engine
            .parameters()
            .enumerate()
            .map(|(j, name)| {
                let diff = p1.engine.differentiated(name).expect("known parameter");
                let mut sampler = ShotSampler::seeded(qdp_sim::derive_seed(seed, j as u64));
                let d = estimate_derivative(diff, &p1.params, obs, psi, shots, &mut sampler);
                (name.to_string(), d)
            })
            .collect()
    };
    let batched = || {
        p1.engine
            .gradient_pure_shots(&p1.params, obs, psi, shots, seed)
    };
    // Both estimates sit near the exact gradient (m = 1 per P1 parameter,
    // so the standard error is 1/√1024 ≈ 0.03).
    let exact = p1.engine.gradient_pure(&p1.params, obs, psi);
    assert_close("serial shot estimate", &serial_loop(), &exact, 0.2);
    assert_close("batched shot estimate", &batched(), &exact, 0.2);
    let (batched_ns, serial_ns) = paired_ns(|is_batched| {
        black_box(if is_batched { batched() } else { serial_loop() });
    });
    let speedup = serial_ns / batched_ns;
    // 30 runs, 1 / 2 threads: 53.8–71.5 / 50.7–96.3; 10 runs since shots
    // enter the sweep as classes: 125–161 / 124–162; 11 runs since the
    // set-up is once per call: 158–174 / 142–167.
    g.at_least("shots: batched vs serial per-shot loop", speedup, 35.0);

    // The shot-noise P2 epoch shape: one `gradient_pure_shots_batch` over
    // the 16 task rows (a sampled sweep per parameter and program over
    // every row's shots) against the same estimates taken one `estimate`
    // call per row and parameter. The batch sets every parameter up from
    // one valuation lookup and one read-out per call; the per-call side
    // builds one `PreparedDerivativeEstimator` per parameter per call.
    let (p2, epoch_shots) = (&fx.p2, 64);
    let inputs = fx.inputs();
    let seeds: Vec<u64> = (0..inputs.len() as u64)
        .map(|r| qdp_sim::derive_seed(seed, r))
        .collect();
    let epoch_batch = || {
        p2.engine
            .gradient_pure_shots_batch(&p2.params, obs, &inputs, epoch_shots, &seeds)
    };
    let epoch_per_call = || -> Vec<BTreeMap<String, f64>> {
        let estimators: Vec<(&str, PreparedDerivativeEstimator)> = p2
            .engine
            .parameters()
            .map(|name| {
                let diff = p2.engine.differentiated(name).expect("known parameter");
                (name, PreparedDerivativeEstimator::new(diff, &p2.params, obs))
            })
            .collect();
        inputs
            .iter()
            .zip(&seeds)
            .map(|(psi, &row_seed)| {
                estimators
                    .iter()
                    .enumerate()
                    .map(|(j, (name, est))| {
                        let stream = qdp_sim::derive_seed(row_seed, j as u64);
                        (name.to_string(), est.estimate(psi, epoch_shots, stream))
                    })
                    .collect()
            })
            .collect()
    };
    let bits = |rows: Vec<BTreeMap<String, f64>>| -> Vec<Vec<u64>> {
        rows.iter()
            .map(|row| row.values().map(|v| v.to_bits()).collect())
            .collect()
    };
    assert_eq!(
        bits(epoch_batch()),
        bits(epoch_per_call()),
        "P2 epoch shot gradient: batch and per-call bits differ"
    );
    let (epoch_batch_ns, epoch_per_call_ns) = paired_ns(|is_batch| {
        black_box(if is_batch { epoch_batch() } else { epoch_per_call() });
    });
    let epoch_speedup = epoch_per_call_ns / epoch_batch_ns;
    // 10 runs, 1 / 2 threads: 1.42–1.53 / 1.44–1.53; 11 runs since the
    // set-up is once per call (AMD EPYC, AVX-512): 1.53–1.65 / 2.16–2.64.
    g.at_least("shots: P2 epoch batch vs per-call estimates", epoch_speedup, 1.05);
    // Recorded only: the warm set-up the per-call side pays per epoch;
    // 11 runs, 1 / 2 threads: 111–124 / 108–125 µs.
    let prepare_ns = time_ns(|| {
        for name in p2.engine.parameters() {
            let diff = p2.engine.differentiated(name).expect("known parameter");
            black_box(PreparedDerivativeEstimator::new(diff, &p2.params, obs));
        }
    });
    fields![
        "workload" => format!("shot-noise P1 gradient, {shots} shots x {} params", p1.values.len()),
        "batched_ns" => ns(batched_ns),
        "serial_loop_ns" => ns(serial_ns),
        "speedup" => ratio(speedup),
        "p2_epoch_workload" => format!(
            "shot-noise P2 gradient, {} rows x {} params x {epoch_shots} shots",
            inputs.len(),
            p2.values.len()
        ),
        "p2_epoch_batch_ns" => ns(epoch_batch_ns),
        "p2_epoch_per_call_ns" => ns(epoch_per_call_ns),
        "p2_epoch_speedup" => ratio(epoch_speedup),
        "p2_prepare_36_estimators_ns" => ns(prepare_ns),
    ]
}

/// The 36-parameter gradient of the measurement-controlled `P2` over the
/// 16-sample dataset: the batched adjoint sweep (which forks the whole
/// block at each measurement, branch-weighted) against per-row branch
/// enumeration of the derivative programs (a [`PerRowGradient`] per
/// sample).
fn gradient_branching_batch(fx: &Fixture, g: &mut Guards) -> Fields {
    let (p2, obs) = (&fx.p2, &fx.obs);
    let inputs = fx.inputs();
    let batch = BatchedStates::from_states(&inputs);
    let executor = PerRowGradient::new(&p2.engine);
    let per_row = || -> Vec<BTreeMap<String, f64>> {
        inputs
            .iter()
            .map(|psi| executor.gradient(&p2.params, obs, psi))
            .collect()
    };
    let batched = || p2.engine.gradient_pure_batch(&p2.params, obs, &batch);
    for (row, serial) in batched().iter().zip(per_row()) {
        assert_close("branch-weighted gradient", row, &serial, 1e-12);
    }
    let (batched_ns, per_row_ns) = paired_ns(|is_batched| {
        black_box(if is_batched { batched() } else { per_row() });
    });
    let speedup = per_row_ns / batched_ns;
    // 30 runs, 1 / 2 threads: 4.28–4.94 / 4.44–5.76; 10 runs since the
    // batched gradient is the adjoint sweep: 33.7–38.7 / 25.1–37.4.
    g.at_least("P2 branch-weighted batch vs per-row", speedup, 3.0);
    fields![
        "workload" => format!(
            "branch-weighted P2 gradient, {}-sample batch x {} params",
            inputs.len(),
            p2.values.len()
        ),
        "batched_ns" => ns(batched_ns),
        "per_row_ns" => ns(per_row_ns),
        "speedup" => ratio(speedup),
    ]
}

/// The exact batched gradient by the adjoint method: `gradient_pure_batch`
/// runs the forward program forward and backward once per branch on the
/// input's own amplitudes, against its named oracle (each parameter's
/// derivative multiset swept program by program on the ancilla-extended
/// batch by `LoweredSet::expectation_batch`, the parameters fanned out
/// across `qdp_par`).
/// On `P2` over the 16-sample dataset, on `hardware_efficient_ansatz(6,
/// 2)` over 16 random 6-qubit states, and on one random row of
/// `hardware_efficient_ansatz(10, 1)`. Every comparison agrees within
/// 1e-12.
fn adjoint(fx: &Fixture, g: &mut Guards) -> Fields {
    let hea = Circuit::new(hardware_efficient_ansatz(6, 2));
    let hea_inputs: Vec<StateVector> = (1..=16).map(|s| random_state(6, s)).collect();
    let hea_obs = Observable::pauli_z(6, 0);
    let wide = Circuit::new(hardware_efficient_ansatz(10, 1));
    let wide_obs = Observable::pauli_z(10, 0);
    let ops = |lowered: &LoweredSet| -> usize { lowered.programs().iter().map(|p| p.op_weight()).sum() };
    let mut out = Fields::new();
    for (label, circuit, obs, inputs, floor) in [
        // 10 runs, 1 / 2 threads, against per-parameter prefix tries:
        // 6.54–7.31 / 3.69–7.24; 10 runs against the multisets swept per
        // program: 5.45–6.19 / 3.41–5.45. At two threads the multisets
        // fan their parameters out; the adjoint runs on one.
        ("p2", &fx.p2, &fx.obs, fx.inputs(), 2.7),
        // Tries: 12.1–13.4 / 6.33–13.9; per program: 10.7–12.5 /
        // 5.84–8.32.
        ("hea_6_2", &hea, &hea_obs, hea_inputs, 4.7),
        // Tries: 14.6–18.4 / 7.74–17.3; per program: 12.6–14.0 /
        // 6.65–11.4.
        (
            "hea_10_1_one_row",
            &wide,
            &wide_obs,
            vec![random_state(10, 1)],
            5.8,
        ),
    ] {
        let batch = BatchedStates::from_states(&inputs);
        let (ext_batch, ext_obs) = (batch.prepend_zero_ancilla(), obs.with_ancilla_z());
        let names: Vec<&str> = circuit.engine.parameters().collect();
        let adjoint = || {
            circuit
                .engine
                .gradient_pure_batch(&circuit.params, obs, &batch)
        };
        let multisets = || {
            qdp_par::par_map(&names, |name| {
                let skeleton = circuit
                    .engine
                    .differentiated(name)
                    .expect("known parameter")
                    .skeleton();
                let lowered = skeleton.lowered();
                lowered.expectation_batch(&lowered.slot_values(&circuit.params), &ext_batch, &ext_obs)
            })
        };
        let rows = adjoint();
        for (j, column) in multisets().iter().enumerate() {
            for (row, want) in rows.iter().zip(column) {
                let got = row[names[j]];
                assert!(
                    (got - want).abs() < 1e-12,
                    "{label}: adjoint {got} vs multiset {want} for {}",
                    names[j]
                );
            }
        }
        let (adjoint_ns, multisets_ns) = paired_ns(|is_adjoint| {
            if is_adjoint {
                black_box(adjoint());
            } else {
                black_box(multisets());
            }
        });
        let speedup = multisets_ns / adjoint_ns;
        g.at_least(
            &format!("{label} adjoint vs per-parameter multisets"),
            speedup,
            floor,
        );
        let multiset_ops: usize = names
            .iter()
            .map(|name| {
                ops(circuit
                    .engine
                    .differentiated(name)
                    .expect("known parameter")
                    .skeleton()
                    .lowered())
            })
            .sum();
        let fields = fields![
            "workload" => format!(
                "exact gradient, {}-row batch x {} params: one adjoint sweep ({} forward ops, {} qubits) vs each parameter's multiset swept per program ({} ops, {} qubits)",
                inputs.len(),
                names.len(),
                ops(circuit.engine.forward_skeleton().lowered()),
                circuit.engine.register().len(),
                multiset_ops,
                circuit.engine.register().len() + 1
            ),
            "adjoint_ns" => ns(adjoint_ns),
            "multisets_ns" => ns(multisets_ns),
            "speedup" => ratio(speedup),
        ];
        out.push((label.to_string(), Value::Obj(fields)));
    }
    out
}

/// Every `P2` derivative multiset (each program branches at the
/// measurement its gadget controls) evaluated exactly over the 16-sample
/// dataset: block sweeps (`ShotEngine::expectation_sweep`, one probability
/// sweep and one collapse pass per group per fork) against the per-row
/// oracle (`ResolvedProgram::expectation_pure`). Also one multiset at a
/// 1024-shot budget, batched sweeps against the serial per-shot loop
/// (recorded, not guarded).
fn measurement_sweep(fx: &Fixture, g: &mut Guards) -> Fields {
    let (p2, obs) = (&fx.p2, &fx.obs);
    let diffs: Vec<_> = p2
        .engine
        .parameters()
        .map(|name| p2.engine.differentiated(name).expect("known parameter"))
        .collect();
    let skeletons: Vec<_> = diffs.iter().map(|d| d.skeleton()).collect();
    let mut resolved = Vec::new();
    for skeleton in &skeletons {
        let lowered = skeleton.lowered();
        let slots = lowered.slot_values(&p2.params);
        resolved.extend(lowered.programs().iter().map(|p| p.resolve(&slots)));
    }
    let engines: Vec<ShotEngine> = resolved
        .iter()
        .map(|p| ShotEngine::new(p.to_trajectory()))
        .collect();
    let ext_obs = obs.with_ancilla_z();
    let ext_inputs: Vec<StateVector> = fx
        .inputs()
        .iter()
        .map(|psi| StateVector::zero_state(1).tensor(psi))
        .collect();
    let ext_batch = BatchedStates::from_states(&ext_inputs);
    let block = || -> f64 {
        engines
            .iter()
            .flat_map(|e| {
                e.expectation_sweep(ext_batch.clone(), &ext_obs)
                    .expect("unmonitored exact sweep")
            })
            .sum()
    };
    let per_row = || -> f64 {
        resolved
            .iter()
            .flat_map(|p| {
                ext_inputs
                    .iter()
                    .map(|psi| p.expectation_pure(psi, &ext_obs))
            })
            .sum()
    };
    assert!(
        (block() - per_row()).abs() < 1e-9,
        "block measurement sweep diverged: {} vs {}",
        block(),
        per_row()
    );
    let (block_ns, per_row_ns) = paired_ns(|is_block| {
        black_box(if is_block { block() } else { per_row() });
    });
    let speedup = per_row_ns / block_ns;
    // 30 runs, 1 / 2 threads: 2.05–2.86 / 2.05–2.81.
    g.at_least("P2 block measurement sweeps vs per-row path", speedup, 1.5);

    let shots = 1024;
    let (diff, psi) = (diffs[0], &fx.data[0].0);
    let (sampled_block_ns, sampled_serial_ns) = paired_ns(|is_block| {
        black_box(if is_block {
            estimate_derivative_batched(diff, &p2.params, obs, psi, shots, 9)
        } else {
            let mut sampler = ShotSampler::seeded(9);
            estimate_derivative(diff, &p2.params, obs, psi, shots, &mut sampler)
        });
    });
    fields![
        "workload" => format!(
            "P2 branching gradient multisets ({} params, {}-row exact sweeps) + {shots}-shot estimate, block vs per-row measurement",
            diffs.len(),
            ext_inputs.len()
        ),
        "exact_block_ns" => ns(block_ns),
        "exact_per_row_ns" => ns(per_row_ns),
        "speedup" => ratio(speedup),
        "sampled_block_ns" => ns(sampled_block_ns),
        "sampled_serial_ns" => ns(sampled_serial_ns),
        "sampled_speedup" => ratio(sampled_serial_ns / sampled_block_ns),
    ]
}

/// `qdp_sim::kernels::local_index`: the outcome of full index `i` under
/// the target `masks`, `masks[0]` most significant.
fn local_index(full_index: usize, masks: &[usize]) -> usize {
    let k = masks.len();
    let mut local = 0usize;
    for (j, &mask) in masks.iter().enumerate() {
        if full_index & mask != 0 {
            local |= 1 << (k - 1 - j);
        }
    }
    local
}

/// The full-index masks of a ≤ 2-target computational measurement.
fn outcome_masks(n_qubits: usize, targets: &[usize]) -> ([usize; 2], usize) {
    let k = targets.len();
    assert!(k <= 2, "the per-row AoS baseline covers ≤ 2 targets");
    let mut masks = [0usize; 2];
    for (j, &t) in targets.iter().enumerate() {
        masks[j] = 1usize << qubit_bit(n_qubits, t);
    }
    (masks, k)
}

/// Per-row AoS baseline of [`block_measurement`]: the computational branch
/// probabilities of one interleaved row — one bucket per outcome, lane
/// `i % 4` partials, combined `(p0 + p1) + (p2 + p3)` — the per-row walk
/// the guard's floor was measured against. Kept out of line, as a library
/// call is, so the target count stays a run-time value.
#[inline(never)]
fn aos_row_probabilities(
    n_qubits: usize,
    targets: &[usize],
    amps: &[C64],
    probs: &mut Vec<f64>,
) {
    assert_eq!(amps.len(), 1usize << n_qubits, "amplitude slice length mismatch");
    let (masks, k) = outcome_masks(n_qubits, targets);
    probs.clear();
    probs.resize(1 << k, 0.0);
    let mut acc = [[0.0f64; 4]; 4];
    for (i, a) in amps.iter().enumerate() {
        acc[local_index(i, &masks[..k])][i % 4] += a.norm_sqr();
    }
    for (m, p) in probs.iter_mut().enumerate() {
        *p = (acc[m][0] + acc[m][1]) + (acc[m][2] + acc[m][3]);
    }
}

/// Per-row AoS baseline of [`block_measurement`]: one interleaved row's
/// computational collapse onto `outcome`, appended to `out` — members
/// copied, non-members multiplied component-wise by `0.0`. Kept out of
/// line like [`aos_row_probabilities`].
#[inline(never)]
fn aos_row_collapse(
    n_qubits: usize,
    targets: &[usize],
    amps: &[C64],
    outcome: usize,
    out: &mut Vec<C64>,
) {
    assert_eq!(amps.len(), 1usize << n_qubits, "amplitude slice length mismatch");
    let (masks, k) = outcome_masks(n_qubits, targets);
    out.reserve(amps.len());
    for (i, a) in amps.iter().enumerate() {
        out.push(if local_index(i, &masks[..k]) == outcome {
            *a
        } else {
            C64::new(a.re * 0.0, a.im * 0.0)
        });
    }
}

/// The block measurement kernels on the seam batch — the outcome
/// probabilities of qubit 4 in every row (`branch_probabilities_block`)
/// and the collapse of every row onto outcome 0 (`collapse_block_into`) —
/// against the per-row AoS baselines [`aos_row_probabilities`] and
/// [`aos_row_collapse`] on the same 16 rows.
fn block_measurement(_: &Fixture, g: &mut Guards) -> Fields {
    let states = seam_states();
    let batch = BatchedStates::from_states(&states);
    let rows: Vec<Vec<C64>> = states.iter().map(StateVector::amplitudes).collect();
    let selected: Vec<usize> = (0..rows.len()).collect();
    let meas = Measurement::computational(vec![4]);
    let targets = meas.targets();
    let (mut table, mut out_re, mut out_im) = (Vec::new(), Vec::new(), Vec::new());
    let (mut probs, mut out) = (Vec::new(), Vec::new());
    // The baseline computes the block kernels' bits, row by row.
    let (re, im) = batch.planes();
    meas.branch_probabilities_block(SEAM_QUBITS, re, im, &mut table);
    meas.collapse_block_into(SEAM_QUBITS, re, im, &selected, 0, &mut out_re, &mut out_im);
    for (r, row) in rows.iter().enumerate() {
        aos_row_probabilities(SEAM_QUBITS, targets, row, &mut probs);
        let want: Vec<u64> = table[2 * r..2 * r + 2].iter().map(|p| p.to_bits()).collect();
        assert_eq!(probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(), want, "row {r}");
        aos_row_collapse(SEAM_QUBITS, targets, row, 0, &mut out);
    }
    let block_amps = qdp_sim::kernels::planes_to_aos(&out_re, &out_im);
    let amp_bits = |a: &C64| (a.re.to_bits(), a.im.to_bits());
    assert!(out.iter().map(amp_bits).eq(block_amps.iter().map(amp_bits)), "collapse baseline");
    let (block_ns, per_row_ns) = paired_ns(|is_block| {
        if is_block {
            let (re, im) = batch.planes();
            meas.branch_probabilities_block(SEAM_QUBITS, re, im, &mut table);
            out_re.clear();
            out_im.clear();
            meas.collapse_block_into(SEAM_QUBITS, re, im, &selected, 0, &mut out_re, &mut out_im);
            black_box((&table, &out_re, &out_im));
        } else {
            out.clear();
            for row in &rows {
                aos_row_probabilities(SEAM_QUBITS, targets, row, &mut probs);
                aos_row_collapse(SEAM_QUBITS, targets, row, 0, &mut out);
            }
            black_box((&probs, &out));
        }
    });
    let speedup = per_row_ns / block_ns;
    // 30 runs, 1 / 2 threads: 5.96–8.62 / 6.14–9.62.
    g.at_least("block measurement kernels vs per-row oracle", speedup, 4.0);
    fields![
        "workload" => "16x10q batch: probabilities of qubit 4 + collapse onto outcome 0, block kernels vs per-row AoS oracle",
        "block_ns" => ns(block_ns),
        "per_row_ns" => ns(per_row_ns),
        "speedup" => ratio(speedup),
    ]
}

/// The 36-parameter `P2` gradient on one input: the interned warm path
/// against a cold call that first lowers all 36 derivative multisets
/// afresh (`LoweredSet::lower`) and then evaluates, as every call did
/// before compiled programs were cached. Also the `±π/2` shift rule on the
/// single forward skeleton against the warm gadget path (recorded).
fn compile_cache(fx: &Fixture, g: &mut Guards) -> Fields {
    let (p2, obs, psi) = (&fx.p2, &fx.obs, &fx.data[0].0);
    let (warm_ns, cold_ns) = paired_ns(|warm| {
        if !warm {
            for name in p2.engine.parameters() {
                let diff = p2.engine.differentiated(name).expect("known parameter");
                black_box(LoweredSet::lower(diff.compiled(), diff.ext_register()));
            }
        }
        black_box(p2.engine.gradient_pure(&p2.params, obs, psi));
    });
    let (shift_ns, gadget_ns) = paired_ns(|shift| {
        black_box(if shift {
            p2.engine.gradient_pure_shift(&p2.params, obs, psi)
        } else {
            p2.engine.gradient_pure(&p2.params, obs, psi)
        });
    });
    let speedup = cold_ns / warm_ns;
    // 30 runs, 1 / 2 threads: 1.84–2.15 / 1.85–2.60; 3 runs since the
    // warm path was a row of the shared prefix-trie sweep (since
    // retired; it is now a row of the adjoint sweep): 4.34–4.56 /
    // 4.09–4.62.
    g.at_least("warm P2 gradient vs cold lowering", speedup, 1.3);
    fields![
        "workload" => "36-param P2 gradient, 1 input: lower all 36 multisets then evaluate vs interned warm path vs single-skeleton shift rule",
        "gradient_cold_ns" => ns(cold_ns),
        "gradient_warm_ns" => ns(warm_ns),
        "warm_speedup_vs_cold" => ratio(speedup),
        "gradient_shift_ns" => ns(shift_ns),
        "shift_speedup_vs_warm" => ratio(gadget_ns / shift_ns),
    ]
}

/// Pins the compile-once path: the `P2` shift-rule gradient lowers exactly
/// one program skeleton. Must run before anything else touches `P2`'s
/// forward program, so the thread-local lowering count is exact.
fn check_shift_rule_lowers_one_skeleton(fx: &Fixture) {
    let (p2, obs, psi) = (&fx.p2, &fx.obs, &fx.data[0].0);
    let before = qdp_ad::lower_invocations();
    let shift = p2.engine.gradient_pure_shift(&p2.params, obs, psi);
    assert_eq!(
        qdp_ad::lower_invocations() - before,
        1,
        "the 36-param shift gradient must lower exactly one program skeleton"
    );
    let gadget = p2.engine.gradient_pure(&p2.params, obs, psi);
    assert_close("shift-rule gradient", &shift, &gadget, 1e-8);
}

/// `GradientService` under saturation. Queue fill: 32 clients race into a
/// tenant whose queue holds 8 and whose batch threshold nothing reaches,
/// so exactly 8 enqueue and 24 are shed with a typed `Overloaded` whatever
/// the arrival order; a flush then serves the 8. Live: 4 clients each
/// stream 64 requests through a `min_batch = 1` service, recording a
/// p50/p99 request-latency proxy. The counts are asserted exactly.
fn service_overload(fx: &Fixture, _: &mut Guards) -> Fields {
    let (clients, bound) = (32, 8);
    let fill = Arc::new(GradientService::with_config(ServiceConfig {
        min_batch: clients * 2,
        max_pending: Some(bound),
        overload: OverloadPolicy::RejectNewest,
    }));
    let handle = fill.register(&fx.p1.program).expect("P1 registers");
    let workers: Vec<_> = (0..clients)
        .map(|i| {
            let (service, handle) = (Arc::clone(&fill), handle.clone());
            let (params, obs) = (fx.p1.params.clone(), fx.obs.clone());
            let psi = StateVector::from_bits(&[i % 2 == 0, false, true, false]);
            std::thread::spawn(move || {
                service
                    .expectation_with(&handle, &params, &obs, &psi, &RequestOptions::new())
                    .is_ok()
            })
        })
        .collect();
    // Every submit resolves at once into "queued" or "shed"; flush only
    // once all 32 are accounted for, so no straggler enqueues after the
    // flush and waits below the threshold forever.
    while fill.shed(&handle) + fill.pending_depth(&handle) < clients {
        std::thread::sleep(Duration::from_millis(1));
    }
    fill.flush(&handle);
    let ok = workers
        .into_iter()
        .map(|w| w.join().expect("fill client"))
        .filter(|&ok| ok)
        .count();
    let (shed, served) = (fill.shed(&handle), fill.served(&handle));
    assert_eq!(shed + served, clients, "every client is served or shed");
    assert_eq!(shed, clients - bound, "only the overflow is shed");
    assert_eq!(ok, bound, "exactly the enqueued clients are served");

    let (threads, per_thread) = (4, 64);
    let live = Arc::new(GradientService::new());
    let handle = live.register(&fx.p1.program).expect("P1 registers");
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let (service, handle) = (Arc::clone(&live), handle.clone());
            let (params, obs) = (fx.p1.params.clone(), fx.obs.clone());
            let psi = StateVector::from_bits(&[t % 2 == 0, t % 2 == 1, true, false]);
            let opts = RequestOptions::new();
            std::thread::spawn(move || {
                let request = || service.expectation_with(&handle, &params, &obs, &psi, &opts);
                (0..per_thread)
                    .map(|_| {
                        let t0 = Instant::now();
                        black_box(request().expect("live request serves"));
                        t0.elapsed().as_nanos() as f64
                    })
                    .collect::<Vec<f64>>()
            })
        })
        .collect();
    let mut latencies: Vec<f64> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("live client"))
        .collect();
    latencies.sort_by(f64::total_cmp);
    let total = latencies.len();
    fields![
        "workload" => format!(
            "{clients} clients vs a max_pending={bound} tenant (typed shedding), then {threads}x{per_thread} live requests at min_batch=1 (latency proxy)"
        ),
        "queue_fill_clients" => clients,
        "max_pending" => bound,
        "shed" => shed,
        "served" => served,
        "live_requests" => total,
        "live_p50_ns" => ns(latencies[total / 2]),
        "live_p99_ns" => ns(latencies[total * 99 / 100]),
    ]
}

/// The Fig. 4 + Fig. 3 oracle of `GradientEngine::new`: per parameter, the
/// additive program `transform` builds, compiled, minus aborting programs.
fn oracle_multisets(program: &Stmt) -> Vec<Vec<Stmt>> {
    program
        .parameters()
        .iter()
        .map(|param| {
            let ancilla = fresh_ancilla(program, param);
            let additive = transform(program, param, &ancilla).expect("fresh ancilla");
            let mut compiled = compile::compile(&additive);
            compiled.retain(|p| !p.essentially_aborts());
            compiled
        })
        .collect()
}

/// Cold `GradientEngine::new` on `program` against [`oracle_multisets`]:
/// checks the two agree, then returns `(engine_ns, oracle_ns)`. Timed
/// back to back: the oracle takes about a second per call on the 14-qubit
/// ansatz, too slow to interleave.
fn differentiate_ns(program: &Stmt) -> (f64, f64) {
    let engine = GradientEngine::new(program).expect("differentiable");
    let one_pass: Vec<Vec<Stmt>> = engine
        .parameters()
        .filter_map(|p| engine.differentiated(p))
        .map(|d| d.compiled().to_vec())
        .collect();
    assert!(
        one_pass == oracle_multisets(program),
        "the one-pass derivative multisets must equal compile(transform(P))"
    );
    let engine_ns = time_ns(|| {
        black_box(GradientEngine::new(program).expect("differentiable"));
    });
    let oracle_ns = time_ns(|| {
        black_box(oracle_multisets(program));
    });
    (engine_ns, oracle_ns)
}

/// Cold `GradientEngine::new` (every parameter's derivative multiset in
/// one pass, `transform::derivative_programs`) on the 14-qubit
/// hardware-efficient ansatz and on `P2`, against the route it replaces:
/// Fig. 4 `transform`, then Fig. 3 `compile`. The guard is on the ansatz,
/// where the oracle's quadratic sum dominates.
fn differentiate(fx: &Fixture, g: &mut Guards) -> Fields {
    let hea14 = qdp_vqc::hamiltonian::hardware_efficient_ansatz(14, 2);
    let (hea14_ns, hea14_oracle_ns) = differentiate_ns(&hea14);
    let (p2_ns, p2_oracle_ns) = differentiate_ns(&fx.p2.program);
    let hea14_speedup = hea14_oracle_ns / hea14_ns;
    // 30 runs, 1 / 2 threads: 97–206 / 93–168 (timed back to back).
    g.at_least("HEA(14,2) one-pass vs Fig. 4 + Fig. 3", hea14_speedup, 60.0);
    fields![
        "workload" => "cold GradientEngine::new (one-pass derivative_programs per parameter) vs the Fig. 4 transform + Fig. 3 compile oracle",
        "hea14_params" => hea14.parameters().len(),
        "hea14_engine_new_ns" => ns(hea14_ns),
        "hea14_oracle_ns" => ns(hea14_oracle_ns),
        "hea14_speedup" => ratio(hea14_speedup),
        "p2_engine_new_ns" => ns(p2_ns),
        "p2_oracle_ns" => ns(p2_oracle_ns),
        "p2_speedup" => ratio(p2_oracle_ns / p2_ns),
    ]
}

/// Runs every section at `threads` threads, labelling its guards `pass`.
fn run_pass(fx: &Fixture, pass: &'static str, threads: usize, g: &mut Guards) -> Fields {
    g.pass = pass;
    g.record_steal = pass == "at_max_threads";
    qdp_par::set_max_threads(threads);
    let mut fields = fields!["threads" => threads];
    for (name, section) in SECTIONS {
        STEAL_MARK.with(|mark| mark.set(None));
        let mut section_fields = section(fx, g);
        if !g.steal.is_empty() {
            section_fields.push((
                "steal_share".to_string(),
                Value::Obj(std::mem::take(&mut g.steal)),
            ));
        }
        fields.push((name.to_string(), Value::Obj(section_fields)));
    }
    qdp_par::set_max_threads(0);
    fields
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    let fx = Fixture::new();
    check_shift_rule_lowers_one_skeleton(&fx);

    let host = host_block();
    let mut g = Guards::default();
    let one = run_pass(&fx, "at_1_thread", 1, &mut g);
    let all = run_pass(&fx, "at_max_threads", qdp_par::max_threads(), &mut g);
    let json = render(&record(host, one, all));
    std::fs::write(&out_path, &json).expect("write benchmark record");
    print!("{json}");
    eprintln!("wrote {out_path}");

    for failure in &g.failed {
        eprintln!("guard failed: {failure}");
    }
    if !g.failed.is_empty() {
        eprintln!("{} of {} guards failed", g.failed.len(), g.checked);
        std::process::exit(1);
    }
    eprintln!("all {} guards passed", g.checked);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_nests_objects_and_places_commas() {
        let fields = fields![
            "a" => 1usize,
            "b" => fields!["c" => ns(2.25), "d" => Value::Num(f64::NAN)],
            "e" => Fields::new(),
            "f" => ratio(1.0 / 3.0),
        ];
        assert_eq!(
            render(&fields),
            "{\n  \"a\": 1,\n  \"b\": {\n    \"c\": 2.3,\n    \"d\": null\n  },\n  \"e\": {},\n  \"f\": 0.33\n}\n"
        );
    }

    #[test]
    fn render_escapes_quotes_and_backslashes() {
        let fields = fields!["workload" => "say \"hi\" \\ bye\n"];
        assert_eq!(
            render(&fields),
            "{\n  \"workload\": \"say \\\"hi\\\" \\\\ bye\\n\"\n}\n"
        );
    }

    #[test]
    fn steal_share_is_the_stolen_fraction_or_null() {
        assert_eq!(steal_share(Some((10, 1000)), Some((30, 1200))), 0.1);
        assert!(steal_share(None, Some((30, 1200))).is_nan());
        assert!(steal_share(Some((10, 1000)), None).is_nan());
        assert!(steal_share(Some((10, 1000)), Some((10, 1000))).is_nan());
        let record: Fields = fields!["steal_share" => fields!["g" => share(f64::NAN)]];
        let json = render(&record);
        assert!(json.contains("\"g\": null"), "{json}");
    }

    #[test]
    fn record_has_one_host_block_and_both_thread_counts() {
        let pass = |threads: usize| fields!["threads" => threads, "gate_apply" => fields!["speedup" => ratio(1.5)]];
        let json = render(&record(host_block(), pass(1), pass(qdp_par::max_threads())));
        for key in ["\"host\": {", "\"at_1_thread\": {", "\"at_max_threads\": {"] {
            assert_eq!(json.matches(key).count(), 1, "{key} in {json}");
        }
        for key in [
            "\"cores\"",
            "\"max_threads\"",
            "\"simd_tier\"",
            "\"cpu_model\"",
        ] {
            assert_eq!(json.matches(key).count(), 1, "{key} in {json}");
        }
        assert_eq!(json.matches("\"threads\": ").count(), 2);
        assert_eq!(json.matches("\"gate_apply\": {").count(), 2);
    }
}
