//! Integration tests pinning every numeric value the paper reports for its
//! running examples (README's "Reproducing the paper's artifacts" table
//! indexes them by figure).

use repwf_core::cycle_time::max_cycle_time;
use repwf_core::fixtures::{example_a, example_b, example_b_times, example_b_with, example_c};
use repwf_core::model::CommModel;
use repwf_core::overlap_poly::pattern_info;
use repwf_core::paths::{instance_num_paths, paths};
use repwf_core::period::{compute_period, Method};

#[test]
fn table1_paths_of_example_a() {
    let a = example_a();
    assert_eq!(instance_num_paths(&a), Some(6));
    let expected: [&[usize]; 8] = [
        &[0, 1, 3, 6],
        &[0, 2, 4, 6],
        &[0, 1, 5, 6],
        &[0, 2, 3, 6],
        &[0, 1, 4, 6],
        &[0, 2, 5, 6],
        &[0, 1, 3, 6],
        &[0, 2, 4, 6],
    ];
    for (j, path) in paths(&a, 8).enumerate() {
        assert_eq!(path.as_slice(), expected[j], "path of data set {j}");
    }
}

#[test]
fn example_a_overlap_period_189_with_critical_resource() {
    let a = example_a();
    for method in [Method::Polynomial, Method::FullTpn] {
        let r = compute_period(&a, CommModel::Overlap, method).unwrap();
        assert!((r.period - 189.0).abs() < 1e-6, "{method}: got {}", r.period);
    }
    let r = compute_period(&a, CommModel::Overlap, Method::Auto).unwrap();
    assert!(r.has_critical_resource(1e-9), "P0's out-port is critical");
}

#[test]
fn example_a_strict_no_critical_resource() {
    let a = example_a();
    let (mct, who) = max_cycle_time(&a, CommModel::Strict);
    assert!((mct - 1295.0 / 6.0).abs() < 1e-9, "M_ct = 215.83, got {mct}");
    assert_eq!(who.proc, 2, "P2 is the strict critical resource");
    let r = compute_period(&a, CommModel::Strict, Method::FullTpn).unwrap();
    assert!((r.period - 1384.0 / 6.0).abs() < 1e-9, "period = 230.67, got {}", r.period);
    assert!(!r.has_critical_resource(1e-9));
}

#[test]
fn example_b_overlap_gap() {
    let b = example_b();
    let r = compute_period(&b, CommModel::Overlap, Method::Auto).unwrap();
    assert!((r.mct - 3100.0 / 12.0).abs() < 1e-9, "M_ct = 258.33, got {}", r.mct);
    assert!((r.period - 3500.0 / 12.0).abs() < 1e-9, "period = 291.67, got {}", r.period);
    assert!(!r.has_critical_resource(1e-9));
    let (_, who) = max_cycle_time(&b, CommModel::Overlap);
    assert_eq!(who.proc, 2, "out-port of P2");
}

#[test]
fn example_b_reconstruction_finds_68_matrices() {
    // Every {100, 1000} transfer matrix whose overlap M_ct is 3100/12 at
    // P2's out-port and whose period is 3500/12.
    let mut found = Vec::new();
    for mask in 0u32..(1 << 12) {
        let mut times = [[0.0f64; 4]; 3];
        for k in 0..12 {
            times[k / 4][k % 4] = if mask & (1 << k) != 0 { 1000.0 } else { 100.0 };
        }
        let inst = example_b_with(&times);
        let (mct, who) = max_cycle_time(&inst, CommModel::Overlap);
        if who.proc != 2 || (mct - 3100.0 / 12.0).abs() > 1e-6 {
            continue;
        }
        let r = compute_period(&inst, CommModel::Overlap, Method::Polynomial).unwrap();
        if (r.period - 3500.0 / 12.0).abs() <= 1e-6 {
            found.push(times);
        }
    }
    assert_eq!(found.len(), 68);
    assert!(found.contains(&example_b_times()));
}

#[test]
fn example_c_decomposition_constants() {
    let c = example_c();
    let replicas = c.mapping.replica_counts();
    assert_eq!(replicas, vec![5, 21, 27, 11]);
    let info = pattern_info(&replicas, 1);
    assert_eq!((info.g, info.u, info.v), (3, 7, 9));
    assert_eq!(info.c, Some(55));
    assert_eq!(info.m, Some(10395));
}

#[test]
fn example_c_polynomial_equals_full_tpn() {
    // The whole point of Theorem 1: same number, tiny fraction of the work.
    let c = example_c();
    let poly = compute_period(&c, CommModel::Overlap, Method::Polynomial).unwrap();
    let full = compute_period(&c, CommModel::Overlap, Method::FullTpn).unwrap();
    assert!(
        (poly.period - full.period).abs() < 1e-9 * full.period,
        "{} vs {}",
        poly.period,
        full.period
    );
}

#[test]
fn strict_dominates_overlap_on_fixtures() {
    for inst in [example_a(), example_b()] {
        let ov = compute_period(&inst, CommModel::Overlap, Method::FullTpn).unwrap();
        let st = compute_period(&inst, CommModel::Strict, Method::FullTpn).unwrap();
        assert!(st.period >= ov.period - 1e-9);
        assert!(st.mct >= ov.mct - 1e-9);
    }
}
