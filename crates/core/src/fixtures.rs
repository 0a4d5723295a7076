//! The paper's running examples.
//!
//! * **Example A** (Fig. 2): 4 stages on 7 processors, `S1` replicated ×2 and
//!   `S2` ×3. Published values: overlap period `P̂ = 189` (critical resource:
//!   `P0`'s out-port); strict `M_ct = 215.8` (at `P2`) and `P̂ = 230.7` with
//!   *no* critical resource.
//! * **Example B** (Fig. 6): 2 stages, `S0` ×3 and `S1` ×4, transfer times
//!   in {100, 1000}. Published values (overlap): `M_ct = 258.3` (out-port of
//!   `P2`), `P̂ = 291.7` — no critical resource.
//! * **Example C** (Fig. 11): 4 stages replicated (5, 21, 27, 11)-fold,
//!   used for the pattern decomposition `(g, u, v, c) = (3, 7, 9, 55)` on
//!   the `F_1` column with `m = 10395`.
//!
//! The source PDF's figure labels are partly unreadable; the 18 numeric
//! labels of Example A and the {100, 1000} structure of Example B were
//! recovered by constrained search against the published values.
//!
//! * **Example A.** Figure 2's 18 labels survive as text: {147, 22, 104,
//!   146, 23, 73, 128, 73, 77, 68, 13, 57, 157, 67, 126, 165, 186, 192}.
//!   The overlap period 189 with `P0`'s out-port critical forces `P0`'s two
//!   links to sum to 378, which only {186, 192} fits. The other 16 labels
//!   were assigned to the 16 slots (7 computation times, 6 `S1→S2` links,
//!   3 `S2→S3` links), pruned by the strict `M_ct = 1295/6` at `P2` (the
//!   paper's 215.8) strictly below the strict period 230.7, and the
//!   survivors validated with the full engine. [`example_a`] is one of
//!   them; `tests/paper_values.rs` pins every published value it
//!   reproduces.
//! * **Example B.** Of the `2^12` {100, 1000} transfer matrices, 68 give
//!   the published overlap `M_ct = 3100/12` at `P2`'s out-port and period
//!   `3500/12`; `tests/paper_values.rs` enumerates them all.

use crate::model::{Instance, Mapping, Pipeline, Platform};

/// Builds Example A. Processors: `P0` runs `S0`, `{P1, P2}` run `S1`,
/// `{P3, P4, P5}` run `S2`, `P6` runs `S3`. All speeds are 1 and bandwidths
/// are the reciprocal of the intended transfer time, so the figure's labels
/// *are* the times.
pub fn example_a() -> Instance {
    // Stage works (speeds are 1, so works are the computation times).
    let w = [22.0, 0.0, 0.0, 67.0]; // S1/S2 works set via per-proc speeds below
                                    // Per-processor computation times for the replicated stages
                                    // (recovered assignment; reproduces every published value exactly).
    let comp_p1 = 165.0;
    let comp_p2 = 147.0;
    let comp_p3 = 157.0;
    let comp_p4 = 57.0;
    let comp_p5 = 13.0;
    // Transfer times (recovered assignment).
    let t01 = 192.0; // P0 → P1
    let t02 = 186.0; // P0 → P2
    let t_p1 = [126.0, 23.0, 68.0]; // P1 → P3, P4, P5
    let t_p2 = [146.0, 73.0, 77.0]; // P2 → P3, P4, P5
    let t_out = [128.0, 73.0, 104.0]; // P3, P4, P5 → P6

    // Works: pick w1, w2 = 1 and encode per-proc times through speeds.
    let pipeline = Pipeline::new(vec![w[0], 1.0, 1.0, w[3]], vec![1.0, 1.0, 1.0]).unwrap();
    let mut platform = Platform::uniform(7, 1.0, 1.0);
    platform.set_speed(1, 1.0 / comp_p1);
    platform.set_speed(2, 1.0 / comp_p2);
    platform.set_speed(3, 1.0 / comp_p3);
    platform.set_speed(4, 1.0 / comp_p4);
    platform.set_speed(5, 1.0 / comp_p5);
    platform.set_bandwidth(0, 1, 1.0 / t01);
    platform.set_bandwidth(0, 2, 1.0 / t02);
    for (k, &t) in t_p1.iter().enumerate() {
        platform.set_bandwidth(1, 3 + k, 1.0 / t);
    }
    for (k, &t) in t_p2.iter().enumerate() {
        platform.set_bandwidth(2, 3 + k, 1.0 / t);
    }
    for (k, &t) in t_out.iter().enumerate() {
        platform.set_bandwidth(3 + k, 6, 1.0 / t);
    }
    let mapping = Mapping::new(vec![vec![0], vec![1, 2], vec![3, 4, 5], vec![6]]).unwrap();
    Instance::new(pipeline, platform, mapping).unwrap()
}

/// Builds Example B: `S0` on `{P0, P1, P2}`, `S1` on `{P3, P4, P5, P6}`,
/// computation times 100 everywhere, transfer times in {100, 1000}
/// (recovered assignment: `P2` sends three 1000s and one 100, which makes
/// its out-port the critical resource at `M_ct = 3100/12 = 258.33` while
/// the actual period is `3500/12 = 291.67`).
pub fn example_b() -> Instance {
    example_b_with(&example_b_times())
}

/// Example B's pipeline, mapping and computation times with the transfer
/// times `times[s][r]` from sender `P<s>` to receiver `P<3+r>`.
pub fn example_b_with(times: &[[f64; 4]; 3]) -> Instance {
    let pipeline = Pipeline::new(vec![300.0, 400.0], vec![1.0]).unwrap();
    let mut platform = Platform::uniform(7, 1.0, 1.0);
    // comp time 100 per data set handled: S0 work 300 / speed 3? Simpler:
    // set speeds so w/Π = 100: Π = 300/100 = 3 for S0 procs, 400/100 = 4.
    for u in 0..3 {
        platform.set_speed(u, 3.0);
    }
    for u in 3..7 {
        platform.set_speed(u, 4.0);
    }
    for (s, row) in times.iter().enumerate() {
        for (r, &t) in row.iter().enumerate() {
            platform.set_bandwidth(s, 3 + r, 1.0 / t);
        }
    }
    let mapping = Mapping::new(vec![vec![0, 1, 2], vec![3, 4, 5, 6]]).unwrap();
    Instance::new(pipeline, platform, mapping).unwrap()
}

/// The recovered transfer-time matrix of Example B (senders × receivers).
pub fn example_b_times() -> [[f64; 4]; 3] {
    // Exhaustive search over all {100,1000} matrices (pinned by
    // `example_b_reconstruction_finds_68_matrices` in tests/paper_values.rs)
    // yields 68 matrices reproducing the published (M_ct, period); this one
    // also matches Figure 10's count of seven 1000-labels and five
    // 100-labels.
    [
        [1000.0, 100.0, 100.0, 1000.0],
        [100.0, 100.0, 1000.0, 1000.0],
        [1000.0, 1000.0, 1000.0, 100.0],
    ]
}

/// Builds Example C: stages replicated (5, 21, 27, 11)-fold on 64
/// processors. The paper uses it only for the decomposition structure, so
/// times are deterministic pseudo-random values in [5, 15].
pub fn example_c() -> Instance {
    let replicas = [5usize, 21, 27, 11];
    let p: usize = replicas.iter().sum();
    let pipeline = Pipeline::new(vec![10.0; 4], vec![10.0; 3]).unwrap();
    let mut platform = Platform::uniform(p, 1.0, 1.0);
    // Deterministic splitmix-style jitter for heterogeneity.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        5.0 + 10.0 * (z >> 11) as f64 / (1u64 << 53) as f64
    };
    for u in 0..p {
        platform.set_speed(u, 10.0 / next()); // comp time in [5, 15]
    }
    for u in 0..p {
        for v in 0..p {
            platform.set_bandwidth(u, v, 10.0 / next()); // comm time in [5, 15]
        }
    }
    let mut start = 0;
    let assignment: Vec<Vec<usize>> = replicas
        .iter()
        .map(|&m| {
            let procs: Vec<usize> = (start..start + m).collect();
            start += m;
            procs
        })
        .collect();
    Instance::new(pipeline, platform, Mapping::new(assignment).unwrap()).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CommModel;
    use crate::paths::instance_num_paths;

    #[test]
    fn example_a_shape() {
        let a = example_a();
        assert_eq!(a.num_stages(), 4);
        assert_eq!(a.mapping.replica_counts(), vec![1, 2, 3, 1]);
        assert_eq!(instance_num_paths(&a), Some(6));
    }

    #[test]
    fn example_a_overlap_period_is_189() {
        let a = example_a();
        let r = crate::period::compute_period(&a, CommModel::Overlap, crate::period::Method::Auto)
            .unwrap();
        assert!((r.period - 189.0).abs() < 1e-9, "got {}", r.period);
        // The critical resource is P0's out-port: (186 + 192) / 2.
        assert!((r.mct - 189.0).abs() < 1e-9);
    }

    #[test]
    fn example_a_uses_exactly_the_figure_labels() {
        // The 18 numeric labels of Fig. 2, with 73 appearing twice.
        let a = example_a();
        let mut times = vec![
            a.comp_time(0, 0),
            a.comp_time(1, 1),
            a.comp_time(1, 2),
            a.comp_time(2, 3),
            a.comp_time(2, 4),
            a.comp_time(2, 5),
            a.comp_time(3, 6),
            a.comm_time(0, 0, 1),
            a.comm_time(0, 0, 2),
        ];
        for r in 3..6 {
            times.push(a.comm_time(1, 1, r));
            times.push(a.comm_time(1, 2, r));
            times.push(a.comm_time(2, r, 6));
        }
        let mut got: Vec<i64> = times.iter().map(|t| t.round() as i64).collect();
        got.sort_unstable();
        let mut expected =
            vec![147, 22, 104, 146, 23, 73, 128, 73, 77, 68, 13, 57, 157, 67, 126, 165, 186, 192];
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn example_a_strict_values() {
        // Published: M_ct = 215.8 at P2, period 230.7, no critical resource.
        let a = example_a();
        let (mct, who) = crate::cycle_time::max_cycle_time(&a, CommModel::Strict);
        assert!((mct - 1295.0 / 6.0).abs() < 1e-9, "mct {mct}");
        assert_eq!(who.proc, 2);
        let r =
            crate::period::compute_period(&a, CommModel::Strict, crate::period::Method::FullTpn)
                .unwrap();
        assert!((r.period - 1384.0 / 6.0).abs() < 1e-9, "period {}", r.period);
        assert!(!r.has_critical_resource(1e-9));
    }

    #[test]
    fn example_b_shape_and_mct() {
        let b = example_b();
        assert_eq!(instance_num_paths(&b), Some(12));
        let (mct, who) = crate::cycle_time::max_cycle_time(&b, CommModel::Overlap);
        assert!((mct - 3100.0 / 12.0).abs() < 1e-9, "mct {mct}");
        assert_eq!(who.proc, 2);
    }

    #[test]
    fn example_b_overlap_period_exceeds_mct() {
        // Published: period 291.7 = 3500/12 with M_ct = 258.3 = 3100/12 —
        // every resource idles during each period.
        let b = example_b();
        let r = crate::period::compute_period(&b, CommModel::Overlap, crate::period::Method::Auto)
            .unwrap();
        assert!((r.period - 3500.0 / 12.0).abs() < 1e-9, "period {}", r.period);
        assert!((r.mct - 3100.0 / 12.0).abs() < 1e-9);
        assert!(!r.has_critical_resource(1e-9));
    }

    #[test]
    fn example_c_shape() {
        let c = example_c();
        assert_eq!(c.mapping.replica_counts(), vec![5, 21, 27, 11]);
        assert_eq!(instance_num_paths(&c), Some(10395));
    }
}
