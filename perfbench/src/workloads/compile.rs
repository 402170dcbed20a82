//! `compile_paper`: closed-loop cold compile passes over the paper's
//! Table 2/3 instances — Section 8.2's experiment on the cost of the code
//! transformation.
//!
//! One op is one cold pass over all 24 instances, in a seeded order. Small
//! and medium rows build a `GradientEngine` (every parameter) and intern
//! each derivative multiset into a fresh `ProgramCache`; large rows
//! differentiate `θ` only, as the `table2`/`table3` binaries do. The loop
//! runs whole passes until the window has closed, so every run measures
//! the same instance mix.

use std::time::Instant;

use perfbench::schedule::SplitMix64;
use perfbench::stats::{self, Parts};
use perfbench::trace::{breakdown, Recorder};
use qdp_ad::{differentiate, GradientEngine, ProgramCache};
use qdp_lang::Stmt;
use qdp_vqc::families::{paper_instances, InstanceConfig, THETA};
use qdp_vqc::{circuits, task};

use super::{
    decomposed_compile, layer_ms, layer_probes, lower_probe, process_cpu_s, same_multisets,
    service_probe, set_setup, thread_ratio, timed, Args, Report,
};

fn is_large(c: &InstanceConfig) -> bool {
    c.name.contains("L,")
}

/// One paper instance, with what the oracle expects of it.
struct Instance {
    config: InstanceConfig,
    program: Stmt,
    /// `|#∂/∂θ|` as `qdp_bench::measure` reports it.
    expected_theta: usize,
}

/// The set-up: builds every instance program, in a seeded order, and the
/// oracle's expected `|#∂/∂θ|` from `qdp_bench::measure` (which
/// differentiates `θ`).
fn setup(seed: u64) -> Vec<Instance> {
    let mut configs = paper_instances();
    let mut rng = SplitMix64::new(seed);
    for i in (1..configs.len()).rev() {
        configs.swap(i, rng.below(i + 1));
    }
    configs
        .into_iter()
        .map(|config| Instance {
            program: config.build(),
            expected_theta: qdp_bench::measure(&config).derivative_programs,
            config,
        })
        .collect()
}

/// What one cold instance compile produced.
struct Compiled {
    /// Derivative programs compiled (all parameters, or `θ` on L rows).
    programs: usize,
    /// `|#∂/∂θ|` — the paper's column.
    theta_programs: usize,
    cache: qdp_ad::CacheCounters,
}

/// The parameters a pass differentiates: `θ` on L rows, else all.
fn params(inst: &Instance) -> Vec<String> {
    if is_large(&inst.config) {
        vec![THETA.to_string()]
    } else {
        inst.program.parameters().into_iter().collect()
    }
}

/// The undecomposed op: one cold instance compile.
fn compile_instance(inst: &Instance) -> Compiled {
    let cache = ProgramCache::new();
    if is_large(&inst.config) {
        let d = differentiate(&inst.program, THETA).expect("instances are differentiable");
        cache.intern(d.compiled(), d.ext_register());
        let n = d.compiled().len();
        Compiled {
            programs: n,
            theta_programs: n,
            cache: cache.counters(),
        }
    } else {
        let engine = GradientEngine::new(&inst.program).expect("instances are differentiable");
        for name in engine.parameters() {
            let d = engine.differentiated(name).expect("known parameter");
            cache.intern(d.compiled(), d.ext_register());
        }
        Compiled {
            programs: engine.total_programs(),
            theta_programs: engine
                .differentiated(THETA)
                .map_or(0, |d| d.compiled().len()),
            cache: cache.counters(),
        }
    }
}

/// Runs `compile_paper`.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    // A cold set-up before every pass spreads the set-up samples over the
    // run; each instance compile is one part of a pass.
    let mut setup_samples = Vec::new();
    let instances = timed(&mut setup_samples, || setup(args.seed));
    let mut cpu_parts = Parts::default();
    let mut pass_s = Vec::new();
    let mut pass_totals = Vec::new();
    let mut theta = vec![0usize; instances.len()];
    let mut theta_stable = true;
    let (mut hits, mut misses, mut evictions) = (0usize, 0usize, 0usize);
    let end = Instant::now() + args.window().mul_f64(if args.trace { 0.3 } else { 1.0 });
    while pass_s.is_empty() || Instant::now() < end {
        let first = pass_s.is_empty();
        if !first {
            timed(&mut setup_samples, || setup(args.seed));
        }
        let mut total = 0;
        let t0 = Instant::now();
        for (i, inst) in instances.iter().enumerate() {
            let c0 = process_cpu_s();
            let out = compile_instance(inst);
            cpu_parts.push(i, process_cpu_s() - c0);
            total += out.programs;
            if !first && theta[i] != out.theta_programs {
                theta_stable = false;
            }
            theta[i] = out.theta_programs;
            hits += out.cache.hits;
            misses += out.cache.misses;
            evictions += out.cache.evictions;
        }
        pass_s.push(t0.elapsed().as_secs_f64());
        pass_totals.push(total);
    }
    set_setup(&mut report, &setup_samples);
    report.attempted += (pass_s.len() * instances.len()) as u64;
    report.note("programs_per_pass", pass_totals[0]);
    report.set_cpu_parts(&cpu_parts, 1);
    report.set_wall_metrics(&pass_s, pass_s.len() as f64 / pass_s.iter().sum::<f64>());

    // Oracles: every pass compiles the same program total, and each
    // instance's |#∂/∂θ| equals the table binaries' `measure`.
    report.check(
        "passes_agree_on_program_total",
        theta_stable && pass_totals.iter().all(|&t| t == pass_totals[0]),
    );
    report.check(
        "theta_programs_match_measure",
        instances
            .iter()
            .zip(&theta)
            .all(|(inst, &n)| inst.expected_theta == n),
    );

    if !args.trace {
        report.set("peak_rss_mb", perfbench::host::peak_rss_mb());
        return report;
    }

    // Traced: one pass with each instance compile decomposed into
    // transform / compile / intern spans (one traced op per instance) and
    // checked against the undecomposed engine; the lowering inside the
    // intern is timed by a separate lower probe. Figures are per pass.
    report.set("cache.hits", hits as f64);
    report.set("cache.misses", misses as f64);
    report.set("cache.evictions", evictions as f64);
    report.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let untraced_p50_ms = stats::median(&pass_s) * 1e3;
    let mut rec = Recorder::new(Instant::now());
    let mut mismatches = 0u64;
    let mut lower_ms = 0.0;
    let mut lowered_ops = 0u64;
    let mut programs = 0usize;
    for inst in &instances {
        let (c, p) = (&inst.config, &inst.program);
        rec.open("instance", "op");
        let sets = decomposed_compile(&mut rec, p, &params(inst), &ProgramCache::new());
        rec.close();
        programs += sets.iter().map(|s| s.compiled.len()).sum::<usize>();
        let ok = if is_large(c) {
            let d = differentiate(p, THETA).expect("instances are differentiable");
            sets.len() == 1
                && d.compiled() == sets[0].compiled.as_slice()
                && *d.ext_register() == sets[0].register
        } else {
            same_multisets(
                &GradientEngine::new(p).expect("instances are differentiable"),
                &sets,
            )
        };
        if !ok {
            mismatches += 1;
        }
        let (ms, w) = lower_probe(&mut rec, &sets);
        lower_ms += ms;
        lowered_ops += w;
    }
    let spans = rec.take();
    let ops: Vec<_> = breakdown(&spans)
        .into_iter()
        .filter(|o| o.name == "instance")
        .collect();
    report.spans.extend(spans);
    report.attempted += instances.len() as u64;
    report.failed += mismatches;
    report.note("decomposition_mismatches", mismatches);
    let group = instances.len();
    report.set_attribution(&ops, group, untraced_p50_ms);
    report.set("transform.ms", layer_ms(&ops, group, "qdp_ad.transform"));
    report.set("compile.ms", layer_ms(&ops, group, "qdp_lang.compile"));
    report.set("lower.ms", lower_ms);
    report.set("lowered.ops", lowered_ops as f64);
    report.set("compile.programs", programs as f64);

    // The thread ratio over the small rows (compilation is serial, so
    // it should sit near 1).
    let small: Vec<&Instance> = instances
        .iter()
        .filter(|inst| inst.config.name.contains("S,"))
        .collect();
    report.set(
        "par.thread_ratio",
        thread_ratio(3, || {
            for inst in &small {
                std::hint::black_box(compile_instance(inst).programs);
            }
        }),
    );
    let p2 = GradientEngine::new(&circuits::p2()).expect("P2 is differentiable");
    layer_probes(&mut report, args.seed, 16, 5, &p2);
    service_probe(
        &mut report,
        args.seed,
        &circuits::p2(),
        &task::readout_observable(),
    );
    report.set(
        "fail_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report
}
