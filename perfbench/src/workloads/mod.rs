//! The workloads and the helpers they share: set-up timing, cache reset,
//! the decomposed compile pipeline, and the per-layer probes.

pub mod compile;
pub mod serve;
pub mod train;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub use perfbench::host::process_cpu_s;
use perfbench::json::Value;
use perfbench::schedule::SplitMix64;
use perfbench::stats::{self, Parts};
use perfbench::trace::{OpBreakdown, Recorder, Span};
use qdp_ad::{fresh_ancilla, transform, GradientEngine, GradientService, LoweredSet, ProgramCache};
use qdp_lang::ast::Params;
use qdp_lang::{Register, Stmt, Var};
use qdp_linalg::{Matrix, C64};
use qdp_sim::{BatchedStates, Measurement, Observable, StateVector};

/// Command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
}

impl Args {
    /// The measurement window as a duration.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops and oracle checks attempted.
    pub attempted: u64,
    /// Ops or checks that failed or gave a wrong answer.
    pub failed: u64,
    /// Metric values by catalog name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra detail for the record line (sample counts, oracle results).
    pub detail: Vec<(String, Value)>,
    /// Spans of the traced run, written out at the end.
    pub spans: Vec<Span>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a record detail.
    pub fn note(&mut self, key: &str, value: impl Into<Value>) {
        self.detail.push((key.to_string(), value.into()));
    }

    /// Records one oracle check.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.note(&format!("oracle.{name}"), ok);
    }

    /// Fills the wall-clock op figures from per-op latencies (seconds):
    /// percentiles, throughput, and the tail rule's figure with its
    /// sample count.
    pub fn set_wall_metrics(&mut self, op_s: &[f64], ops_per_s: f64) {
        let ms: Vec<f64> = op_s.iter().map(|s| s * 1e3).collect();
        self.set("wall.op_ms_p50", stats::percentile(&ms, 50.0));
        self.set("wall.op_ms_p90", stats::percentile(&ms, 90.0));
        self.set("wall.op_ms_p99", stats::percentile(&ms, 99.0));
        self.set("wall.ops_per_s", ops_per_s);
        let tail = stats::tail(&ms);
        self.note("wall.op_samples", tail.samples);
        self.note("wall.op_tail_percentile", tail.percentile.unwrap_or(0.0));
        self.note("wall.op_tail_ms", tail.value);
    }

    /// Sets `cpu_ms_per_op` from the process CPU time (s) spent on `ops`
    /// ops.
    pub fn set_cpu_per_op(&mut self, cpu_s: f64, ops: usize) {
        self.set("cpu_ms_per_op", cpu_s * 1e3 / ops.max(1) as f64);
    }

    /// Sets `cpu_ms_per_op` from CPU-time parts (s) that make up
    /// `ops_per_repetition` ops: the sum of the parts' least samples per op.
    pub fn set_cpu_parts(&mut self, parts: &Parts, ops_per_repetition: usize) {
        self.set(
            "cpu_ms_per_op",
            parts.sum_of_mins() * 1e3 / ops_per_repetition.max(1) as f64,
        );
        self.note("cpu_parts", parts.len());
        self.note("cpu_repetitions", parts.repetitions());
    }

    /// Fills the attribution metrics from per-op breakdowns. Ops are
    /// grouped `group` at a time into the workload's op unit (a compile
    /// pass holds one traced op per instance; elsewhere `group` is 1), and
    /// every figure is a mean per unit, so that
    /// `trace.layers_ms + unattributed_ms = trace.op_ms`. The ops were
    /// counted as attempted where they ran; a breakdown that does not add
    /// up shows in `trace.inconsistent_ops`.
    pub fn set_attribution(&mut self, ops: &[OpBreakdown], group: usize, untraced_p50_ms: f64) {
        let units = (ops.len() / group).max(1) as f64;
        let total: i64 = ops.iter().map(|o| o.total_ns).sum();
        let unattributed: i64 = ops.iter().map(|o| o.unattributed_ns).sum();
        let layers: i64 = ops.iter().map(|o| o.layers.values().sum::<i64>()).sum();
        let inconsistent = ops.iter().filter(|o| !o.consistent()).count();
        self.set("trace.op_ms", total as f64 / units / 1e6);
        self.set("trace.layers_ms", layers as f64 / units / 1e6);
        self.set("unattributed_ms", unattributed as f64 / units / 1e6);
        self.set("trace.inconsistent_ops", inconsistent as f64);
        let traced: Vec<f64> = ops
            .chunks(group)
            .map(|unit| unit.iter().map(|o| o.total_ns).sum::<i64>() as f64 / 1e6)
            .collect();
        let traced_p50 = stats::median(&traced);
        if untraced_p50_ms > 0.0 {
            self.set(
                "trace.overhead",
                (traced_p50 - untraced_p50_ms) / untraced_p50_ms,
            );
        }
        self.note("trace.ops", ops.len());
        self.note("trace.traced_op_ms_p50", traced_p50);
        self.note("trace.untraced_op_ms_p50", untraced_p50_ms);
    }
}

/// Mean self time per op unit (`group` ops, as in
/// [`Report::set_attribution`]), in ms, of the spans of `layer`.
pub fn layer_ms(ops: &[OpBreakdown], group: usize, layer: &str) -> f64 {
    let n = (ops.len() / group).max(1) as f64;
    let sum: i64 = ops.iter().filter_map(|o| o.layers.get(layer)).sum();
    sum as f64 / n / 1e6
}

/// Runs `f` and appends its process CPU time (s) to `samples`.
pub fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let c0 = process_cpu_s();
    let out = f();
    samples.push(process_cpu_s() - c0);
    out
}

/// Reports `setup_s`: the median CPU time of the run's cold set-ups.
pub fn set_setup(report: &mut Report, samples: &[f64]) {
    report.set("setup_s", stats::median(samples));
    report.note("setup_samples", samples.len());
}

/// Empties the process-wide program cache, so the next set-up compiles
/// cold, and restores its configured bound.
pub fn clear_global_cache() {
    let cache = ProgramCache::global();
    let capacity = cache.counters().capacity;
    cache.set_capacity(Some(0));
    cache.set_capacity(capacity);
}

/// Global cache counter deltas between two snapshots, as metrics.
pub fn set_cache_deltas(
    report: &mut Report,
    before: qdp_ad::CacheCounters,
    after: qdp_ad::CacheCounters,
) {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    report.set("cache.hits", hits as f64);
    report.set("cache.misses", misses as f64);
    report.set(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    if hits + misses > 0 {
        report.set("cache.hit_ratio", hits as f64 / (hits + misses) as f64);
    }
}

/// One parameter's compiled derivative multiset with its extended register.
pub struct Multiset {
    pub param: String,
    pub compiled: Vec<Stmt>,
    pub register: Register,
}

/// Runs the public steps `qdp_ad::differentiate` runs — fresh ancilla,
/// `transform`, `compile` minus aborting programs — for each parameter,
/// then interns each multiset into `cache`, each step inside its own span.
pub fn decomposed_compile(
    rec: &mut Recorder,
    program: &Stmt,
    params: &[String],
    cache: &ProgramCache,
) -> Vec<Multiset> {
    let base = Register::from_program(program);
    params
        .iter()
        .map(|param| {
            let (ancilla, additive) = rec.span("transform", "qdp_ad.transform", || {
                let mut ancilla = fresh_ancilla(program, param);
                while base.contains(&ancilla) {
                    ancilla = Var::new(format!("{}'", ancilla.name()));
                }
                let additive =
                    transform(program, param, &ancilla).expect("instances are differentiable");
                (ancilla, additive)
            });
            let compiled: Vec<Stmt> = rec.span("compile", "qdp_lang.compile", || {
                qdp_lang::compile::compile(&additive)
                    .into_iter()
                    .filter(|p| !p.essentially_aborts())
                    .collect()
            });
            let register = base.with_ancilla_front(ancilla);
            rec.span("cache.intern", "qdp_ad.cache", || {
                cache.intern(&compiled, &register)
            });
            Multiset {
                param: param.clone(),
                compiled,
                register,
            }
        })
        .collect()
}

/// Whether decomposed multisets equal the engine's, parameter by parameter.
pub fn same_multisets(engine: &GradientEngine, sets: &[Multiset]) -> bool {
    sets.len() == engine.parameters().count()
        && sets.iter().all(|s| {
            engine.differentiated(&s.param).is_some_and(|d| {
                d.compiled() == s.compiled.as_slice() && *d.ext_register() == s.register
            })
        })
}

/// Lowers each multiset inside a `lower` span of its own probe op and
/// returns the total lowering time in ms and the total op weight.
pub fn lower_probe(rec: &mut Recorder, sets: &[Multiset]) -> (f64, u64) {
    let t0 = Instant::now();
    let mut weight = 0;
    rec.open("lower_probe", "op");
    for s in sets {
        let lowered = rec.span("lower", "qdp_ad.lowered", || {
            LoweredSet::lower(&s.compiled, &s.register)
        });
        weight += perfbench::counts::op_weight(&lowered);
    }
    rec.close();
    (t0.elapsed().as_secs_f64() * 1e3, weight)
}

/// Median time per call of `f`, in ns: the iteration count is calibrated
/// so each of five timed blocks lasts at least `block`.
pub fn time_per_call(block: Duration, mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t0.elapsed() >= block || iters >= 1 << 22 {
            break;
        }
        iters *= 2;
    }
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&samples)
}

/// Op time at the default thread count over op time at one thread, from
/// alternating blocks of `reps` ops (median per-op time of each side).
pub fn thread_ratio(reps: usize, mut op: impl FnMut()) -> f64 {
    let mut default_s = Vec::new();
    let mut single_s = Vec::new();
    for _ in 0..3 {
        for (threads, out) in [(0, &mut default_s), (1, &mut single_s)] {
            qdp_par::set_max_threads(threads);
            for _ in 0..reps {
                let t0 = Instant::now();
                op();
                out.push(t0.elapsed().as_secs_f64());
            }
        }
    }
    qdp_par::set_max_threads(0);
    stats::median(&default_s) / stats::median(&single_s)
}

/// A normalised random `n`-qubit state.
pub fn random_state(rng: &mut SplitMix64, n: usize) -> StateVector {
    let amps: Vec<C64> = (0..1usize << n)
        .map(|_| C64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
        .collect();
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    StateVector::from_amplitudes(
        n,
        amps.into_iter()
            .map(|a| C64::new(a.re / norm, a.im / norm))
            .collect(),
    )
}

/// A random computational basis state on `n` qubits.
pub fn random_basis_state(rng: &mut SplitMix64, n: usize) -> StateVector {
    let bits: Vec<bool> = (0..n).map(|_| rng.next_u64() & 1 == 1).collect();
    StateVector::from_bits(&bits)
}

/// A valuation of `names` drawn uniformly from `[0, 2π)`.
pub fn random_params<'a>(rng: &mut SplitMix64, names: impl Iterator<Item = &'a str>) -> Params {
    Params::from_pairs(
        names
            .map(|n| (n.to_string(), rng.next_f64() * std::f64::consts::TAU))
            .collect::<Vec<_>>(),
    )
}

/// The layer probes every traced run takes: an empty `par_map` fork, one
/// gate per kernel dispatch class at the workload's batch shape, the block
/// measurement kernels at the `train_p2` shape, a shot-sampling probe, and
/// a warm cache intern.
pub fn layer_probes(
    report: &mut Report,
    seed: u64,
    rows: usize,
    n_qubits: usize,
    p2: &GradientEngine,
) {
    let block = Duration::from_millis(2);
    let items = [0u8; 2];
    report.set(
        "par.fork_us",
        time_per_call(block, || {
            std::hint::black_box(qdp_par::par_map(&items, |x| *x));
        }) / 1e3,
    );

    let mut rng = SplitMix64::new(seed ^ 0x5eed);
    let states: Vec<StateVector> = (0..rows)
        .map(|_| random_state(&mut rng, n_qubits))
        .collect();
    let mut batch = BatchedStates::from_states(&states);
    let amps = (rows << n_qubits) as f64;
    let rx = Matrix::rotation_x(0.7);
    let rz = Matrix::rotation_z(0.7);
    let cnot = Matrix::cnot();
    let last = n_qubits - 1;
    report.set(
        "kernels.ns_per_amp.dense",
        time_per_call(block, || batch.apply_gate(&rx, &[1])) / amps,
    );
    report.set(
        "kernels.ns_per_amp.diag",
        time_per_call(block, || batch.apply_gate(&rz, &[last])) / amps,
    );
    report.set(
        "kernels.ns_per_amp.ctrl",
        time_per_call(block, || batch.apply_gate(&cnot, &[0, last])) / amps,
    );

    // Block measurement at the train_p2 shape: 16 rows of the
    // ancilla-extended 5-qubit register, measuring q1 (index 1).
    let rows16: Vec<StateVector> = (0..16).map(|_| random_state(&mut rng, 5)).collect();
    let block16 = BatchedStates::from_states(&rows16);
    let meas = Measurement::computational(vec![1]);
    let mut table = Vec::new();
    report.set(
        "measurement.probs_us",
        time_per_call(block, || {
            let (re, im) = block16.planes();
            meas.branch_probabilities_block(5, re, im, &mut table);
            std::hint::black_box(&table);
        }) / 1e3,
    );
    let selected: Vec<usize> = (0..16).collect();
    let (mut out_re, mut out_im) = (Vec::new(), Vec::new());
    report.set(
        "measurement.collapse_us",
        time_per_call(block, || {
            out_re.clear();
            out_im.clear();
            let (re, im) = block16.planes();
            meas.collapse_block_into(5, re, im, &selected, 0, &mut out_re, &mut out_im);
            std::hint::black_box((&out_re, &out_im));
        }) / 1e3,
    );

    // Shot sampling: the train_p2_shots forward shape (16 rows × 256 shots).
    let params = random_params(&mut rng, p2.parameters());
    let obs = qdp_vqc::task::readout_observable();
    let inputs: Vec<StateVector> = qdp_vqc::task::dataset()
        .iter()
        .map(|s| s.input_state())
        .collect();
    let seeds: Vec<u64> = (0..inputs.len() as u64).collect();
    let shots = 256;
    let ns = time_per_call(Duration::from_millis(20), || {
        std::hint::black_box(p2.value_pure_shots_batch(&params, &obs, &inputs, shots, &seeds));
    });
    report.set(
        "shots.ns_per_trajectory",
        ns / (inputs.len() * shots) as f64,
    );

    // A warm intern of the P2 forward program into the global cache.
    let program = [p2.program().clone()];
    let register = p2.register().clone();
    ProgramCache::global().intern(&program, &register);
    report.set(
        "cache.intern_us",
        time_per_call(block, || {
            std::hint::black_box(ProgramCache::global().intern(&program, &register));
        }) / 1e3,
    );
}

/// The service layer for workloads that do not serve: solo exact value
/// requests for `program` through a fresh [`GradientService`] against the
/// same call on the engine directly.
pub fn service_probe(report: &mut Report, seed: u64, program: &Stmt, obs: &Observable) {
    let service = GradientService::new();
    let handle = service.register(program).expect("probe program registers");
    let engine = service.engine(&handle);
    let mut rng = SplitMix64::new(seed ^ 0x5e7);
    let params = random_params(&mut rng, engine.parameters());
    let psi = random_basis_state(&mut rng, engine.register().len());
    let solo_batch = BatchedStates::gather(&[&psi]);
    let mut round_trip = Vec::new();
    let mut solo = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        std::hint::black_box(service.expectation(&handle, &params, obs, &psi));
        round_trip.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        std::hint::black_box(engine.value_pure_batch(&params, obs, &solo_batch));
        solo.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let solo_p50 = stats::median(&solo);
    report.set(
        "service.overhead_us",
        (stats::median(&round_trip) - solo_p50) * 1e3,
    );
    report.set(
        "service.wait_ms_p99",
        stats::percentile(&round_trip, 99.0) - solo_p50,
    );
    let sweeps = service.sweeps(&handle).max(1);
    report.set(
        "service.requests_per_sweep",
        service.served(&handle) as f64 / sweeps as f64,
    );
}
