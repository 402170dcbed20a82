//! `serve_mixed`: an open loop of seeded Poisson arrivals into one
//! `GradientService` holding 15 tenants. Two generator threads take
//! alternate scheduled arrivals; each request's latency is timed from its
//! **scheduled** send time, so a stall also charges the requests queued
//! behind it.
//!
//! The mix adds no weights of its own: requests are spread uniformly over
//! the tenants, then uniformly over the kinds each tenant takes, in
//! shuffled blocks so that every run holds the same shares.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use perfbench::counts;
use perfbench::schedule::{poisson_schedule, SplitMix64};
use perfbench::stats;
use perfbench::trace::{breakdown, OpBreakdown, Recorder, Span};
use qdp_ad::{
    GradientEngine, GradientService, OverloadPolicy, ProgramCache, ProgramHandle, RequestOptions,
    ServiceConfig,
};
use qdp_lang::ast::Params;
use qdp_lang::Stmt;
use qdp_sim::{BatchedStates, Observable, QdpError, StateVector};
use qdp_vqc::families::paper_instances;
use qdp_vqc::hamiltonian::hardware_efficient_ansatz;
use qdp_vqc::{circuits, task};

use super::{
    clear_global_cache, decomposed_compile, layer_ms, layer_probes, lower_probe, process_cpu_s,
    random_basis_state, random_params, set_cache_deltas, set_setup, thread_ratio, timed, Args,
    Report,
};

/// Offered rate, requests per second: a light load (the record's
/// `mean_solo_ms` × rate is the share of one core the answers need), so
/// requests rarely queue and each op shows the per-call cost.
pub const RATE_RPS: f64 = 100.0;
/// Shots per parameter of a shot-gradient request.
const SHOTS: usize = 64;
/// Per-tenant queue bound (requests past it are shed).
const MAX_PENDING: usize = 64;
/// Queue-wait deadline of every request.
const DEADLINE: Duration = Duration::from_secs(2);
/// Valuations and inputs in each tenant's pool.
const POOL: usize = 4;
/// Cold set-ups timed per run.
const SETUPS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Kind {
    Value,
    Gradient,
    Shift,
    Shots,
}

/// One registered program with its request pools.
struct Tenant {
    name: String,
    handle: ProgramHandle,
    engine: Arc<GradientEngine>,
    obs: Observable,
    inputs: Vec<StateVector>,
    valuations: Vec<Params>,
    /// The request kinds this tenant takes: every kind, less the shift
    /// gradient where the program is not eligible; forward values only on
    /// the 14-qubit ansatz.
    kinds: Vec<Kind>,
}

impl Tenant {
    fn gradients(&self) -> bool {
        self.kinds.len() > 1
    }
}

/// One scheduled request.
#[derive(Clone, Copy, Debug)]
struct Req {
    at_s: f64,
    tenant: usize,
    kind: Kind,
    valuation: usize,
    input: usize,
    seed: u64,
}

#[derive(Clone, Debug)]
enum Answer {
    Value(f64),
    Gradient(BTreeMap<String, f64>),
}

impl Answer {
    fn same_bits(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Value(a), Answer::Value(b)) => a.to_bits() == b.to_bits(),
            (Answer::Gradient(a), Answer::Gradient(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
            }
            _ => false,
        }
    }
}

/// One completed request.
struct Done {
    req: Req,
    scheduled: Instant,
    sent: Instant,
    done: Instant,
    result: Result<Answer, QdpError>,
}

/// The programs of the mix: `P1`, `P2`, the 12 small paper instances
/// (which use `case` and bounded `while`), and a 14-qubit
/// hardware-efficient ansatz with a `Z` read-out.
/// The 14-qubit tenant serves values only: a 64-shot gradient over its
/// 70 parameters takes about 19 s.
fn programs() -> Vec<(String, Stmt, Observable, bool)> {
    let mut out = vec![
        (
            "P1".to_string(),
            circuits::p1(),
            task::readout_observable(),
            true,
        ),
        (
            "P2".to_string(),
            circuits::p2(),
            task::readout_observable(),
            true,
        ),
    ];
    for c in paper_instances()
        .into_iter()
        .filter(|c| c.name.contains("S,"))
    {
        let p = c.build();
        let n = p.qvar().len();
        out.push((c.name.clone(), p, Observable::pauli_z(n, 0), true));
    }
    out.push((
        "HEA14".to_string(),
        hardware_efficient_ansatz(14, 2),
        Observable::pauli_z(14, 0),
        false,
    ));
    out
}

/// One cold set-up: a fresh service with every tenant registered and
/// every skeleton its requests touch interned into the emptied cache.
fn setup(seed: u64) -> (GradientService, Vec<Tenant>) {
    clear_global_cache();
    let service = GradientService::with_config(ServiceConfig {
        min_batch: 1,
        max_pending: Some(MAX_PENDING),
        overload: OverloadPolicy::RejectNewest,
    });
    let mut rng = SplitMix64::new(seed);
    let tenants = programs()
        .into_iter()
        .map(|(name, program, obs, gradients)| {
            let handle = service
                .register(&program)
                .expect("mix programs are differentiable");
            let engine = service.engine(&handle);
            engine.forward_skeleton();
            if gradients {
                for p in engine.parameters() {
                    engine
                        .differentiated(p)
                        .expect("known parameter")
                        .skeleton();
                }
            }
            let n = engine.register().len();
            let inputs = (0..POOL).map(|_| random_basis_state(&mut rng, n)).collect();
            let valuations = (0..POOL)
                .map(|_| random_params(&mut rng, engine.parameters()))
                .collect();
            let kinds = if !gradients {
                vec![Kind::Value]
            } else if engine.shift_rule_eligible() {
                vec![Kind::Value, Kind::Gradient, Kind::Shift, Kind::Shots]
            } else {
                vec![Kind::Value, Kind::Gradient, Kind::Shots]
            };
            Tenant {
                name,
                handle,
                engine,
                obs,
                inputs,
                valuations,
                kinds,
            }
        })
        .collect();
    (service, tenants)
}

/// Requests per tenant in one block of the mix: a multiple of every
/// tenant's kind count (1, 3 or 4), so a block holds each tenant's kinds
/// in equal shares.
const BLOCK_PER_TENANT: usize = 12;

/// One block of the mix, shuffled: every tenant `BLOCK_PER_TENANT` times,
/// its kinds in equal shares.
fn mix_block(rng: &mut SplitMix64, tenants: &[Tenant]) -> Vec<(usize, Kind)> {
    let mut block: Vec<(usize, Kind)> = tenants
        .iter()
        .enumerate()
        .flat_map(|(t, tenant)| {
            debug_assert_eq!(BLOCK_PER_TENANT % tenant.kinds.len(), 0);
            (0..BLOCK_PER_TENANT).map(move |r| (t, tenant.kinds[r % tenant.kinds.len()]))
        })
        .collect();
    for i in (1..block.len()).rev() {
        block.swap(i, rng.below(i + 1));
    }
    block
}

/// The seeded request stream: Poisson send times, each with the next
/// (tenant, kind) of a run of shuffled mix blocks — uniform over tenants,
/// then over the tenant's kinds, with every run holding the same shares —
/// and pool indices.
fn requests(seed: u64, seconds: f64, tenants: &[Tenant]) -> Vec<Req> {
    let mut rng = SplitMix64::new(seed ^ 0xa11);
    let mut mix = Vec::new();
    poisson_schedule(seed, RATE_RPS, seconds)
        .into_iter()
        .map(|at_s| {
            if mix.is_empty() {
                mix = mix_block(&mut rng, tenants);
            }
            let (tenant, kind) = mix.pop().expect("a fresh block is not empty");
            Req {
                at_s,
                tenant,
                kind,
                valuation: rng.below(POOL),
                input: rng.below(POOL),
                seed: rng.next_u64(),
            }
        })
        .collect()
}

fn submit(service: &GradientService, t: &Tenant, r: &Req) -> Result<Answer, QdpError> {
    let params = &t.valuations[r.valuation];
    let psi = &t.inputs[r.input];
    let opts = RequestOptions::new().with_deadline(DEADLINE);
    match r.kind {
        Kind::Value => service
            .expectation_with(&t.handle, params, &t.obs, psi, &opts)
            .map(Answer::Value),
        Kind::Gradient => service
            .gradient_with(&t.handle, params, &t.obs, psi, &opts)
            .map(Answer::Gradient),
        Kind::Shift => service
            .gradient_shift_with(&t.handle, params, &t.obs, psi, &opts)
            .map(Answer::Gradient),
        Kind::Shots => service
            .gradient_shots_with(&t.handle, params, &t.obs, psi, SHOTS, r.seed, &opts)
            .map(Answer::Gradient),
    }
}

/// The same request as a solo engine call: what the service's answer must
/// equal bit for bit.
fn solo(t: &Tenant, r: &Req) -> Answer {
    let params = &t.valuations[r.valuation];
    let psi = &t.inputs[r.input];
    let one = || BatchedStates::gather(&[psi]);
    match r.kind {
        Kind::Value => Answer::Value(t.engine.value_pure_batch(params, &t.obs, &one())[0]),
        Kind::Gradient => Answer::Gradient(
            t.engine
                .gradient_pure_batch(params, &t.obs, &one())
                .remove(0),
        ),
        Kind::Shift => Answer::Gradient(
            t.engine
                .gradient_pure_shift_batch(params, &t.obs, &one())
                .remove(0),
        ),
        Kind::Shots => Answer::Gradient(
            t.engine
                .gradient_pure_shots(params, &t.obs, psi, SHOTS, r.seed),
        ),
    }
}

/// Runs the open loop: two generator threads, thread `g` sending arrivals
/// `g, g + 2, …` at their scheduled times. With `epoch` set, each thread
/// records per-request spans (`loadgen.late`, then `service.call`).
fn open_loop(
    service: &GradientService,
    tenants: &[Tenant],
    reqs: &[Req],
    epoch: Option<Instant>,
) -> (Instant, Vec<Done>, Vec<Vec<Span>>) {
    let start = Instant::now() + Duration::from_millis(5);
    let mut done = Vec::with_capacity(reqs.len());
    let mut spans = Vec::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|g| {
                s.spawn(move || {
                    let mut rec = epoch.map(Recorder::new);
                    let mut out = Vec::new();
                    for r in reqs.iter().skip(g).step_by(2) {
                        // Sleeping (not spinning) keeps the generator's own
                        // CPU time out of `cpu_ms_per_op`; timer slack shows
                        // up as `loadgen.late_ms_p99`.
                        let scheduled = start + Duration::from_secs_f64(r.at_s);
                        let now = Instant::now();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        let sent = Instant::now();
                        let result = submit(service, &tenants[r.tenant], r);
                        let finished = Instant::now();
                        if let Some(rec) = rec.as_mut() {
                            rec.open_at("request", "op", rec.ns_at(scheduled));
                            rec.open_at("loadgen.late", "loadgen", rec.ns_at(scheduled));
                            rec.close_at(rec.ns_at(sent));
                            rec.open_at("service.call", "qdp_ad.service", rec.ns_at(sent));
                            rec.close_at(rec.ns_at(finished));
                            rec.close_at(rec.ns_at(finished));
                        }
                        out.push(Done {
                            req: *r,
                            scheduled,
                            sent,
                            done: finished,
                            result,
                        });
                    }
                    (out, rec.map(|mut r| r.take()).unwrap_or_default())
                })
            })
            .collect();
        for w in workers {
            let (d, sp) = w.join().expect("generator thread");
            done.extend(d);
            spans.push(sp);
        }
    });
    done.sort_by(|a, b| a.req.at_s.total_cmp(&b.req.at_s));
    (start, done, spans)
}

/// Service counters summed over tenants: (served, sweeps, shed, expired,
/// leader failures).
fn counters(service: &GradientService, tenants: &[Tenant]) -> [usize; 5] {
    tenants.iter().fold([0; 5], |acc, t| {
        let h = &t.handle;
        [
            acc[0] + service.served(h),
            acc[1] + service.sweeps(h),
            acc[2] + service.shed(h),
            acc[3] + service.expired(h),
            acc[4] + service.leader_failures(h),
        ]
    })
}

/// What one window of the open loop measured, and its oracle verdicts.
struct Window {
    /// Latency from scheduled send to answer, ms (failed requests count
    /// as the whole window).
    latency_ms: Vec<f64>,
    /// Round trip from actual send to answer, ms.
    round_trip_ms: Vec<f64>,
    /// How late each request was sent, ms.
    late_ms: Vec<f64>,
    /// Solo engine time of each request, ms (`None` for failed ones).
    solo_ms: Vec<Option<f64>>,
    kinds: Vec<Kind>,
    tenants: Vec<usize>,
    ok: usize,
    shed: usize,
    expired: usize,
    failed: usize,
    mismatches: usize,
    counters_agree: bool,
    ops_per_s: f64,
    /// Process CPU time of the window (all threads), s.
    cpu_s: f64,
    spans: Vec<Vec<Span>>,
    delta: [usize; 5],
}

/// Runs one window and checks every answer against a solo engine call
/// computed after the window closes.
fn window(
    service: &GradientService,
    tenants: &[Tenant],
    reqs: &[Req],
    seconds: f64,
    epoch: Option<Instant>,
) -> Window {
    let before = counters(service, tenants);
    let c0 = process_cpu_s();
    let (start, done, spans) = open_loop(service, tenants, reqs, epoch);
    let cpu_s = process_cpu_s() - c0;
    let after = counters(service, tenants);
    let delta = [0, 1, 2, 3, 4].map(|i| after[i] - before[i]);
    let mut w = Window {
        latency_ms: Vec::new(),
        round_trip_ms: Vec::new(),
        late_ms: Vec::new(),
        solo_ms: Vec::new(),
        kinds: Vec::new(),
        tenants: Vec::new(),
        ok: 0,
        shed: 0,
        expired: 0,
        failed: 0,
        mismatches: 0,
        counters_agree: false,
        ops_per_s: 0.0,
        cpu_s,
        spans,
        delta,
    };
    // Keyed by (tenant, kind, valuation, input, shot seed): the answer and
    // its solo time in ms.
    let mut solo_cache: HashMap<_, (Answer, f64)> = HashMap::new();
    let mut last_done = start;
    for d in &done {
        let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
        w.late_ms.push(ms(d.scheduled, d.sent));
        w.round_trip_ms.push(ms(d.sent, d.done));
        w.kinds.push(d.req.kind);
        w.tenants.push(d.req.tenant);
        last_done = last_done.max(d.done);
        match &d.result {
            Ok(answer) => {
                w.ok += 1;
                w.latency_ms.push(ms(d.scheduled, d.done));
                let r = d.req;
                let seed = if r.kind == Kind::Shots { r.seed } else { 0 };
                let (expected, solo_ms) = solo_cache
                    .entry((r.tenant, r.kind, r.valuation, r.input, seed))
                    .or_insert_with(|| {
                        let t0 = Instant::now();
                        let a = solo(&tenants[r.tenant], &r);
                        (a, t0.elapsed().as_secs_f64() * 1e3)
                    });
                w.solo_ms.push(Some(*solo_ms));
                if !answer.same_bits(expected) {
                    w.mismatches += 1;
                }
            }
            Err(e) => {
                w.latency_ms.push(seconds * 1e3);
                w.solo_ms.push(None);
                match e {
                    QdpError::Overloaded { .. } => w.shed += 1,
                    QdpError::DeadlineExceeded { .. } => w.expired += 1,
                    _ => w.failed += 1,
                }
            }
        }
    }
    w.counters_agree = done.len() == w.ok + w.shed + w.expired + w.failed
        && delta[0] == w.ok
        && delta[2] == w.shed
        && delta[3] == w.expired;
    w.ops_per_s = w.ok as f64
        / last_done
            .saturating_duration_since(start)
            .as_secs_f64()
            .max(1e-9);
    w
}

/// Runs `serve_mixed`.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    report.note("offered_rps", RATE_RPS);
    if args.trace {
        traced(args, &mut report);
    } else {
        let mut samples = Vec::new();
        for _ in 1..SETUPS {
            timed(&mut samples, || setup(args.seed));
        }
        let (service, tenants) = timed(&mut samples, || setup(args.seed));
        set_setup(&mut report, &samples);
        let reqs = requests(args.seed, args.seconds, &tenants);
        let w = window(&service, &tenants, &reqs, args.seconds, None);
        report.set("peak_rss_mb", perfbench::host::peak_rss_mb());
        check(&mut report, &w, "");
        set_window_metrics(&mut report, &w);
        report.note("mean_solo_ms", mean(w.solo_ms.iter().flatten().copied()));
    }
    report
}

/// The CPU cost per request and the wall-clock latency figures of a window.
fn set_window_metrics(report: &mut Report, w: &Window) {
    report.set_cpu_per_op(w.cpu_s, w.latency_ms.len());
    let latency_s: Vec<f64> = w.latency_ms.iter().map(|ms| ms / 1e3).collect();
    report.set_wall_metrics(&latency_s, w.ops_per_s);
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The serving oracles: every request accounted for (sent = ok + shed +
/// expired + failed, agreeing with the service's own counters), every Ok
/// answer bitwise equal to its solo engine call, and nothing refused.
/// `label` names the window in the record.
fn check(report: &mut Report, w: &Window, label: &str) {
    report.attempted += w.latency_ms.len() as u64;
    report.failed += (w.shed + w.expired + w.failed + w.mismatches) as u64;
    report.check(
        &format!("{label}requests_reconcile_with_counters"),
        w.counters_agree,
    );
    report.check(
        &format!("{label}answers_match_solo_bitwise"),
        w.mismatches == 0,
    );
    report.note(&format!("{label}sent"), w.latency_ms.len());
    report.note(&format!("{label}ok"), w.ok);
}

/// The traced run: a traced decomposed set-up compile, an untraced window
/// (overhead baseline), a traced window, then solo replays that split the
/// service round trip into engine time and service overhead.
fn traced(args: &Args, report: &mut Report) {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    let (service, tenants) = setup(args.seed);
    rec.open("setup_compile", "op");
    let mut sets = Vec::new();
    for t in tenants.iter().filter(|t| t.gradients()) {
        let names: Vec<String> = t.engine.parameters().map(str::to_string).collect();
        sets.extend(decomposed_compile(
            &mut rec,
            t.engine.program(),
            &names,
            &ProgramCache::new(),
        ));
    }
    rec.close();
    let setup_ops = breakdown(rec.spans());
    report.set("transform.ms", layer_ms(&setup_ops, 1, "qdp_ad.transform"));
    report.set("compile.ms", layer_ms(&setup_ops, 1, "qdp_lang.compile"));
    report.set(
        "compile.programs",
        tenants
            .iter()
            .map(|t| t.engine.total_programs())
            .sum::<usize>() as f64,
    );
    let (lower_ms, _) = lower_probe(&mut rec, &sets);
    report.set("lower.ms", lower_ms);
    report.spans.extend(rec.take());

    // Untraced baseline window, then the traced window, from separate
    // seeded schedules.
    let base_s = args.seconds * 0.4;
    let base_reqs = requests(args.seed ^ 0xba5e, base_s, &tenants);
    let base = window(&service, &tenants, &base_reqs, base_s, None);
    check(report, &base, "baseline.");
    set_window_metrics(report, &base);
    let traced_s = args.seconds * 0.6;
    let reqs = requests(args.seed, traced_s, &tenants);
    let before = ProgramCache::global().counters();
    let w = window(&service, &tenants, &reqs, traced_s, Some(epoch));
    set_cache_deltas(report, before, ProgramCache::global().counters());
    check(report, &w, "traced.");

    let mut ops: Vec<OpBreakdown> = Vec::new();
    for spans in &w.spans {
        ops.extend(breakdown(spans));
        report.spans.extend(spans.iter().cloned());
    }
    report.set_attribution(&ops, 1, stats::median(&base.latency_ms));

    report.set("loadgen.late_ms_p99", stats::percentile(&w.late_ms, 99.0));
    report.set("loadgen.sent", w.latency_ms.len() as f64);
    report.set("loadgen.ok", w.ok as f64);
    report.set("loadgen.failed", (w.latency_ms.len() - w.ok) as f64);
    let [served, sweeps, shed, expired, leader_failures] = w.delta;
    report.set(
        "service.requests_per_sweep",
        served as f64 / sweeps.max(1) as f64,
    );
    report.set("service.shed", shed as f64);
    report.set("service.expired", expired as f64);
    report.set("service.leader_failures", leader_failures as f64);
    let solo_ms: Vec<f64> = w.solo_ms.iter().flatten().copied().collect();
    let rt: Vec<f64> = w
        .round_trip_ms
        .iter()
        .zip(&w.solo_ms)
        .filter(|(_, s)| s.is_some())
        .map(|(r, _)| *r)
        .collect();
    report.set(
        "service.overhead_us",
        (stats::median(&rt) - stats::median(&solo_ms)) * 1e3,
    );
    let wait: Vec<f64> = w
        .latency_ms
        .iter()
        .zip(&w.solo_ms)
        .filter_map(|(l, s)| s.map(|s| l - s))
        .collect();
    report.set("service.wait_ms_p99", stats::percentile(&wait, 99.0));
    let by_kind = |k: Kind| {
        mean(
            w.kinds
                .iter()
                .zip(&w.solo_ms)
                .filter(|(kk, _)| **kk == k)
                .filter_map(|(_, s)| *s),
        )
    };
    report.set("exec.value_ms", by_kind(Kind::Value));
    report.set("exec.gradient_ms", by_kind(Kind::Gradient));

    // Per-parameter split of a solo P2 gradient: one derivative sweep per
    // parameter on a one-row batch.
    let p2 = tenants.iter().find(|t| t.name == "P2").expect("P2 tenant");
    let one = BatchedStates::gather(&[&p2.inputs[0]]);
    let mut max_ms = Vec::new();
    let mut sum_ms = Vec::new();
    for _ in 0..20 {
        let per: Vec<f64> = p2
            .engine
            .parameters()
            .map(|name| {
                let diff = p2.engine.differentiated(name).expect("known parameter");
                let t0 = Instant::now();
                std::hint::black_box(diff.derivative_pure_batch(&p2.valuations[0], &p2.obs, &one));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        max_ms.push(per.iter().copied().fold(0.0, f64::max));
        sum_ms.push(per.iter().sum());
    }
    report.set("exec.param_ms_max", stats::median(&max_ms));
    report.set("exec.param_ms_sum", stats::median(&sum_ms));

    // Computed work per request from the lowered op weights.
    let work: Vec<(u64, u64, u64)> = tenants.iter().map(tenant_work).collect();
    let (mut lowered, mut amps, mut traj) = (0.0, 0.0, 0.0);
    for (&k, &ti) in w.kinds.iter().zip(&w.tenants) {
        let t = &tenants[ti];
        let (fwd_w, grad_w, grad_amps_per_shot) = work[ti];
        let n = t.engine.register().len();
        let p = t.engine.parameters().count() as u64;
        let (l, a, s) = match k {
            Kind::Value => (fwd_w, counts::amp_updates(fwd_w, 1, n), 0),
            Kind::Gradient => (grad_w, counts::amp_updates(grad_w, 1, n + 1), 0),
            Kind::Shift => (2 * p * fwd_w, counts::amp_updates(2 * p * fwd_w, 1, n), 0),
            Kind::Shots => (grad_w, grad_amps_per_shot * SHOTS as u64, p * SHOTS as u64),
        };
        lowered += l as f64;
        amps += a as f64;
        traj += s as f64;
    }
    let n = w.kinds.len().max(1) as f64;
    report.set("lowered.ops", lowered / n);
    report.set("kernels.amp_updates", amps / n);
    report.set(
        "kernels.bytes_computed",
        amps / n * counts::BYTES_PER_AMP_UPDATE as f64,
    );
    report.set("shots.trajectories", traj / n);

    // Thread ratio over the first solo requests of the schedule.
    let sample: Vec<&Req> = reqs.iter().take(100).collect();
    report.set(
        "par.thread_ratio",
        thread_ratio(1, || {
            for r in &sample {
                std::hint::black_box(solo(&tenants[r.tenant], r));
            }
        }),
    );
    layer_probes(report, args.seed, 1, 14, &p2.engine);
    report.set(
        "fail_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
}

/// Per tenant: forward op weight, total gradient op weight, and the
/// computed amplitude updates of one shot across all parameters (each
/// shot runs one program of a parameter's multiset).
fn tenant_work(t: &Tenant) -> (u64, u64, u64) {
    let fwd_w = counts::op_weight(t.engine.forward_skeleton().lowered());
    if !t.gradients() {
        return (fwd_w, 0, 0);
    }
    let n = t.engine.register().len();
    let mut grad_w = 0;
    let mut per_shot = 0;
    for name in t.engine.parameters() {
        let skeleton = t
            .engine
            .differentiated(name)
            .expect("known parameter")
            .skeleton();
        let w = counts::op_weight(skeleton.lowered());
        grad_w += w;
        let m = skeleton.lowered().programs().len().max(1) as u64;
        per_shot += counts::amp_updates(w, 1, n + 1) / m;
    }
    (fwd_w, grad_w, per_shot)
}
