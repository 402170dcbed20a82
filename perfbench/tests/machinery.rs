//! Self-tests of the benchmark's own machinery: the percentile rule, the
//! least-sample-per-part rule, the seeded arrival schedule, span self-time
//! arithmetic, computed kernel work counts, the JSON writer and reader, and
//! the catalog read from `BENCHMARK.json`.
//!
//! Run with `cargo test --offline --manifest-path perfbench/Cargo.toml`.

use std::time::Instant;

use perfbench::catalog::{Catalog, BY_HAND, PREDICTIONS};
use perfbench::counts::{amp_updates, bytes_computed, op_weight};
use perfbench::json::Value;
use perfbench::schedule::poisson_schedule;
use perfbench::stats::{median, percentile, tail, Parts};
use perfbench::trace::{breakdown, Recorder};
use qdp_ad::LoweredSet;
use qdp_lang::{Register, Stmt, Var};
use qdp_linalg::Pauli;

fn ramp(n: usize) -> Vec<f64> {
    // Shuffled so the functions must sort for themselves.
    let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    v.reverse();
    v
}

#[test]
fn nearest_rank_percentiles() {
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 100.0), 3.0);
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 1.0), 1.0);
    assert_eq!(median(&ramp(100)), 50.0);
    assert_eq!(percentile(&ramp(100), 90.0), 90.0);
    assert_eq!(percentile(&[], 50.0), 0.0);
}

#[test]
fn tail_rule_reports_highest_percentile_with_ten_beyond() {
    // 9 samples: even the median has only 4 beyond it.
    let t = tail(&ramp(9));
    assert_eq!((t.percentile, t.value, t.samples), (None, 0.0, 9));
    // 20 samples: the median has 10 beyond, p90 only 2.
    let t = tail(&ramp(20));
    assert_eq!((t.percentile, t.value, t.samples), (Some(50.0), 10.0, 20));
    // 100 samples: p90 has exactly 10 beyond, p99 only 1.
    let t = tail(&ramp(100));
    assert_eq!((t.percentile, t.value), (Some(90.0), 90.0));
    // 1000 samples: p99 has 10 beyond, p99.9 only 1.
    let t = tail(&ramp(1000));
    assert_eq!(
        (t.percentile, t.value, t.samples),
        (Some(99.0), 990.0, 1000)
    );
}

#[test]
fn parts_sum_each_parts_least_sample() {
    let mut parts = Parts::default();
    assert_eq!(
        (parts.len(), parts.repetitions(), parts.sum_of_mins()),
        (0, 0, 0.0)
    );
    // Two repetitions of a three-part job; part 2 also ran a third time.
    for (i, x) in [
        (0, 5.0),
        (1, 2.0),
        (2, 9.0),
        (0, 4.0),
        (1, 3.0),
        (2, 7.0),
        (2, 8.0),
    ] {
        parts.push(i, x);
    }
    assert_eq!(parts.len(), 3);
    assert_eq!(parts.repetitions(), 2);
    assert_eq!(parts.sum_of_mins(), 4.0 + 2.0 + 7.0);
    // A part first seen past the end grows the table; the gap has no
    // samples and adds nothing.
    parts.push(4, 1.0);
    assert_eq!((parts.len(), parts.repetitions()), (5, 0));
    assert_eq!(parts.sum_of_mins(), 14.0);
}

#[test]
fn poisson_schedule_is_reproducible_and_well_formed() {
    let a = poisson_schedule(7, 200.0, 10.0);
    let b = poisson_schedule(7, 200.0, 10.0);
    let c = poisson_schedule(8, 200.0, 10.0);
    assert_eq!(a, b, "the same seed gives the same schedule");
    assert_ne!(a, c, "another seed gives another schedule");
    // The count is fixed by rate × window, whatever the seed.
    assert_eq!(a.len(), 2000);
    assert_eq!(c.len(), 2000);
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "send times ascend");
    assert!(
        a.iter().all(|&t| (0.0..10.0).contains(&t)),
        "send times lie in the window"
    );
    // Exponential gaps: the mean gap is 1/rate and the gaps vary (a
    // coefficient of variation near 1, unlike a fixed-interval schedule).
    let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
    assert!((mean - 1.0 / 200.0).abs() < 0.1 / 200.0, "mean gap {mean}");
    let cv = var.sqrt() / mean;
    assert!((0.85..1.15).contains(&cv), "coefficient of variation {cv}");
}

#[test]
fn span_self_times_add_up_to_the_op_total() {
    let mut rec = Recorder::new(Instant::now());
    // Op 1: root [0, 100] with A [10, 40] ⊃ B [15, 25], and C [50, 90].
    rec.open_at("op1", "op", 0);
    rec.open_at("A", "x", 10);
    rec.open_at("B", "y", 15);
    rec.close_at(25);
    rec.close_at(40);
    rec.open_at("C", "y", 50);
    rec.close_at(90);
    rec.close_at(100);
    // Op 2: root [200, 260] with one child D [200, 260].
    rec.open_at("op2", "op", 200);
    rec.open_at("D", "x", 200);
    rec.close_at(260);
    rec.close_at(260);

    let spans = rec.spans();
    assert_eq!(spans.len(), 6);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans[4].op, 2);

    let ops = breakdown(spans);
    assert_eq!(ops.len(), 2);
    let op1 = &ops[0];
    assert_eq!(op1.name, "op1");
    assert_eq!(op1.total_ns, 100);
    assert_eq!(op1.unattributed_ns, 30); // 100 − 30 (A) − 40 (C)
    assert_eq!(op1.layers["x"], 20); // A's 30 minus B's 10
    assert_eq!(op1.layers["y"], 50); // B's 10 plus C's 40
    assert_eq!(op1.by_name["C"], vec![40]);
    assert!(op1.consistent());
    let op2 = &ops[1];
    assert_eq!(
        (op2.total_ns, op2.unattributed_ns, op2.layers["x"]),
        (60, 0, 60)
    );
    assert!(op2.consistent());
}

#[test]
fn overlapping_children_are_flagged() {
    let mut rec = Recorder::new(Instant::now());
    rec.open_at("op", "op", 0);
    rec.open_at("A", "x", 0);
    rec.close_at(80);
    rec.open_at("B", "x", 50);
    rec.close_at(100);
    rec.close_at(100);
    let ops = breakdown(rec.spans());
    // The children claim 130 ns of a 100 ns op: the root's own time goes
    // negative, so the breakdown cannot be trusted.
    assert_eq!(ops[0].unattributed_ns, -30);
    assert!(!ops[0].consistent());
}

#[test]
fn computed_counts_on_a_hand_checked_program() {
    let q1 = Var::new("q1");
    let q2 = Var::new("q2");
    // RY(a) q1; RX(b) q2; case M[q1] = 0 → RZ(c) q2, 1 → RY(d) q2 end
    let program = Stmt::seq([
        Stmt::rot(Pauli::Y, "a", q1.clone()),
        Stmt::rot(Pauli::X, "b", q2.clone()),
        Stmt::Case {
            qs: vec![q1],
            arms: vec![
                Stmt::rot(Pauli::Z, "c", q2.clone()),
                Stmt::rot(Pauli::Y, "d", q2),
            ],
        },
    ]);
    let register = Register::from_program(&program);
    assert_eq!(register.len(), 2);
    let lowered = LoweredSet::lower(std::slice::from_ref(&program), &register);
    // Two rotations, one case, one rotation in each arm.
    assert_eq!(op_weight(&lowered), 5);
    // 5 ops × 3 rows × 2² amplitudes, 32 bytes each.
    assert_eq!(amp_updates(5, 3, 2), 60);
    assert_eq!(bytes_computed(60), 1920);
    // Two copies of the program in one multiset weigh twice as much.
    let twice = LoweredSet::lower(&[program.clone(), program], &register);
    assert_eq!(op_weight(&twice), 10);
}

#[test]
fn json_writer_escapes_and_keeps_every_digit() {
    let v = Value::obj()
        .with("s", "a\"b\\c\n")
        .with("x", 0.1 + 0.2)
        .with("n", 3usize)
        .with("bad", f64::NAN)
        .with("l", Value::List(vec![true.into(), 1.5.into()]));
    assert_eq!(
        v.render(),
        r#"{"s": "a\"b\\c\u000a", "x": 0.30000000000000004, "n": 3, "bad": null, "l": [true, 1.5]}"#
    );
}

#[test]
fn json_reader_round_trips_the_writer() {
    let v = Value::obj()
        .with("s", "a\"b\\c\n\u{e9}")
        .with("x", 0.1 + 0.2)
        .with(
            "l",
            Value::List(vec![true.into(), Value::Null, (-1.5e-3).into()]),
        )
        .with("o", Value::obj());
    let back = Value::parse(&v.render()).expect("the writer's output parses");
    assert_eq!(
        back.get("s").and_then(Value::as_str),
        Some("a\"b\\c\n\u{e9}")
    );
    assert_eq!(back.get("x"), Some(&Value::Num(0.1 + 0.2)));
    assert_eq!(
        back.get("l").and_then(Value::as_list),
        Some(&[Value::Bool(true), Value::Null, Value::Num(-1.5e-3)][..])
    );
    assert_eq!(back.get("o"), Some(&Value::obj()));
    assert!(Value::parse(r#"{"a": 1,}"#).is_err());
    assert!(Value::parse("[1] x").is_err());
}

#[test]
fn builtin_catalog_reads_benchmark_json() {
    let c = Catalog::builtin();
    assert!(c.workloads.len() >= 2);
    assert!(c.run_seconds >= 1.0);
    assert!(c
        .end_to_end
        .contains(&("setup_s".to_string(), "s".to_string())));
    assert!(!c.per_layer.is_empty());
    // Every workload a prediction names is one the binary runs.
    for p in PREDICTIONS {
        for w in p.on {
            assert!(
                c.workloads.iter().any(|n| n == w) || BY_HAND.contains(w),
                "unknown workload {w}"
            );
        }
    }
    assert!(Catalog::parse(r#"{"workloads": []}"#).is_err());
}
