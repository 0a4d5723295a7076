//! Recovers the Example A (Fig. 2) label assignment by constrained search.
//!
//! The source PDF's Figure 2 is unreadable as text, but its 18 numeric
//! labels survive: {147, 22, 104, 146, 23, 73, 128, 73, 77, 68, 13, 57,
//! 157, 67, 126, 165, 186, 192}. The paper states:
//!
//! * overlap one-port: period 189, critical resource = out-port of `P0`
//!   (⇒ the two `P0` links sum to 378: only {186, 192} fits);
//! * strict one-port: `M_ct = 215.8` (at `P2`, forced to `1295/6`) strictly
//!   below the period `≈ 230.7`.
//!
//! The program enumerates assignments of the remaining 16 labels to the 16
//! slots (7 computation times, 6 `S1→S2` links, 3 `S2→S3` links), prunes
//! with the published cycle-time constraints, validates the survivors with
//! the full engine, and prints every assignment reproducing all values.

use repwf_core::cycle_time::max_cycle_time;
use repwf_core::model::{CommModel, Instance, Mapping, Pipeline, Platform};
use repwf_core::period::{compute_period, Method};

const MCT_STRICT: f64 = 1295.0 / 6.0; // 215.8333 (rounds to the paper's 215.8)
const P_STRICT: f64 = 230.7; // paper value, 1 decimal
const P_OVERLAP: f64 = 189.0;

#[allow(clippy::too_many_arguments)]
fn build(
    w0: f64,
    w1: [f64; 2],
    w2: [f64; 3],
    w3: f64,
    t0: [f64; 2],
    t1: [f64; 3], // P1 -> P3,P4,P5
    t2: [f64; 3], // P2 -> P3,P4,P5
    t_out: [f64; 3],
) -> Instance {
    let pipeline = Pipeline::new(vec![w0, 1.0, 1.0, w3], vec![1.0, 1.0, 1.0]).unwrap();
    let mut platform = Platform::uniform(7, 1.0, 1.0);
    platform.set_speed(1, 1.0 / w1[0]);
    platform.set_speed(2, 1.0 / w1[1]);
    for (k, &w) in w2.iter().enumerate() {
        platform.set_speed(3 + k, 1.0 / w);
    }
    platform.set_bandwidth(0, 1, 1.0 / t0[0]);
    platform.set_bandwidth(0, 2, 1.0 / t0[1]);
    for k in 0..3 {
        platform.set_bandwidth(1, 3 + k, 1.0 / t1[k]);
        platform.set_bandwidth(2, 3 + k, 1.0 / t2[k]);
        platform.set_bandwidth(3 + k, 6, 1.0 / t_out[k]);
    }
    let mapping = Mapping::new(vec![vec![0], vec![1, 2], vec![3, 4, 5], vec![6]]).unwrap();
    Instance::new(pipeline, platform, mapping).unwrap()
}

fn main() {
    // The 16 labels once {186, 192} are reserved for P0's links.
    let vals: [f64; 16] = [
        147.0, 22.0, 104.0, 146.0, 23.0, 73.0, 128.0, 73.0, 77.0, 68.0, 13.0, 57.0, 157.0, 67.0,
        126.0, 165.0,
    ];
    let n = vals.len();
    let mut found = 0usize;
    let mut engine_calls = 0usize;
    let mut seen: Vec<String> = Vec::new();

    // Slot order for the permutation search:
    // 0: w0   1: w1(P1)  2: w1(P2)  3..6: w2(P3,P4,P5)  6: w3
    // 7..10: t1  10..13: t2  13..16: t_out
    // We enumerate as nested choices with pruning after each group.
    let idxs: Vec<usize> = (0..n).collect();
    for &t02_first in &[true, false] {
        let (t01, t02) = if t02_first { (192.0, 186.0) } else { (186.0, 192.0) };
        // strict cycle-time of P0 = w0 + (t01+t02)/2 ≤ MCT_STRICT
        for &i_w0 in &idxs {
            let w0 = vals[i_w0];
            if w0 + 189.0 > MCT_STRICT + 1e-9 {
                continue;
            }
            for &i_w1p2 in &idxs {
                if i_w1p2 == i_w0 {
                    continue;
                }
                let w1p2 = vals[i_w1p2];
                // P2 is the strict critical resource: 3·t02 + 3·w1p2 + Σt2 = 1295.
                let need_t2: f64 = 1295.0 - 3.0 * t02 - 3.0 * w1p2;
                if need_t2 <= 0.0 {
                    continue;
                }
                // choose ordered t2 triple with the required sum
                for a in 0..n {
                    for b in 0..n {
                        for c in 0..n {
                            if a == b || b == c || a == c {
                                continue;
                            }
                            if [a, b, c].contains(&i_w0) || [a, b, c].contains(&i_w1p2) {
                                continue;
                            }
                            let t2 = [vals[a], vals[b], vals[c]];
                            if (t2[0] + t2[1] + t2[2] - need_t2).abs() > 1e-6 {
                                continue;
                            }
                            let used = [i_w0, i_w1p2, a, b, c];
                            let rest: Vec<usize> =
                                idxs.iter().copied().filter(|k| !used.contains(k)).collect();
                            // remaining 11 values fill w1p1, w2×3, w3, t1×3, t_out×3
                            search_rest(
                                &vals,
                                &rest,
                                w0,
                                w1p2,
                                [t01, t02],
                                t2,
                                &mut found,
                                &mut engine_calls,
                                &mut seen,
                            );
                        }
                    }
                }
            }
        }
    }
    println!(
        "{found} assignments found ({engine_calls} engine validations{})",
        if found >= 16 { "; stopped after 16 witnesses" } else { "" }
    );
}

#[allow(clippy::too_many_arguments)]
fn search_rest(
    vals: &[f64; 16],
    rest: &[usize],
    w0: f64,
    w1p2: f64,
    t0: [f64; 2],
    t2: [f64; 3],
    found: &mut usize,
    engine_calls: &mut usize,
    seen: &mut Vec<String>,
) {
    // The solution family is highly degenerate (receiver relabelings); a
    // handful of witnesses is enough, and the full sweep takes ~30 min.
    if *found >= 16 {
        return;
    }
    let r = rest.len(); // 11
                        // pick w1p1
    for x in 0..r {
        let w1p1 = vals[rest[x]];
        // strict P1 cycle ≤ MCT: 3·t01 + 3·w1p1 + Σt1 ≤ 1295 checked later;
        // quick bound with minimal Σt1 ≥ sum of 3 smallest remaining.
        // pick w3
        for y in 0..r {
            if y == x {
                continue;
            }
            let w3 = vals[rest[y]];
            if w3 > P_OVERLAP + 1e-9 {
                continue; // overlap: w3 must not exceed the period
            }
            // pick ordered w2 triple
            let rem1: Vec<usize> = (0..r).filter(|&k| k != x && k != y).map(|k| rest[k]).collect();
            for p in 0..rem1.len() {
                for q in 0..rem1.len() {
                    for s in 0..rem1.len() {
                        if p == q || q == s || p == s {
                            continue;
                        }
                        let w2 = [vals[rem1[p]], vals[rem1[q]], vals[rem1[s]]];
                        if w2.iter().any(|&w| w / 3.0 > P_OVERLAP) {
                            continue;
                        }
                        let rem2: Vec<usize> = (0..rem1.len())
                            .filter(|&k| k != p && k != q && k != s)
                            .map(|k| rem1[k])
                            .collect();
                        // rem2 has 6 values: ordered t1 triple + ordered t_out triple
                        for i1 in 0..6 {
                            for i2 in 0..6 {
                                for i3 in 0..6 {
                                    if i1 == i2 || i2 == i3 || i1 == i3 {
                                        continue;
                                    }
                                    let t1 = [vals[rem2[i1]], vals[rem2[i2]], vals[rem2[i3]]];
                                    // strict P1 constraint
                                    if 3.0 * t0[0] + 3.0 * w1p1 + t1.iter().sum::<f64>()
                                        > 1295.0 + 1e-6
                                    {
                                        continue;
                                    }
                                    let tout_idx: Vec<usize> = (0..6)
                                        .filter(|&k| k != i1 && k != i2 && k != i3)
                                        .map(|k| rem2[k])
                                        .collect();
                                    let touts =
                                        [vals[tout_idx[0]], vals[tout_idx[1]], vals[tout_idx[2]]];
                                    // strict P6: Σtout/3 + w3 ≤ MCT (it receives
                                    // 6 files per 6 data sets, two per link pair):
                                    // Cin = Σtout·(2/6) = Σ/3.
                                    if touts.iter().sum::<f64>() / 3.0 + w3 > MCT_STRICT + 1e-6 {
                                        continue;
                                    }
                                    for t_out in perms3(touts) {
                                        // strict P3/P4/P5 cycle-times
                                        let mut ok = true;
                                        for k in 0..3 {
                                            let cin = (t1[k] + t2[k]) / 6.0;
                                            let cexec = cin + w2[k] / 3.0 + t_out[k] / 3.0;
                                            if cexec > MCT_STRICT + 1e-6 {
                                                ok = false;
                                                break;
                                            }
                                        }
                                        if !ok {
                                            continue;
                                        }
                                        let inst =
                                            build(w0, [w1p1, w1p2], w2, w3, t0, t1, t2, t_out);
                                        *engine_calls += 1;
                                        let (mct, who) = max_cycle_time(&inst, CommModel::Strict);
                                        if who.proc != 2 || (mct - MCT_STRICT).abs() > 1e-6 {
                                            continue;
                                        }
                                        let ov = compute_period(
                                            &inst,
                                            CommModel::Overlap,
                                            Method::Polynomial,
                                        )
                                        .unwrap();
                                        if (ov.period - P_OVERLAP).abs() > 0.05
                                            || (ov.mct - P_OVERLAP).abs() > 0.05
                                        {
                                            continue;
                                        }
                                        let st = compute_period(
                                            &inst,
                                            CommModel::Strict,
                                            Method::FullTpn,
                                        )
                                        .unwrap();
                                        if (st.period - P_STRICT).abs() > 0.0501 {
                                            continue;
                                        }
                                        let key = format!(
                                            "w0={w0} w1=({w1p1},{w1p2}) w2={w2:?} w3={w3} \
                                             t0={t0:?} t1={t1:?} t2={t2:?} out={t_out:?}"
                                        );
                                        if !seen.contains(&key) {
                                            seen.push(key.clone());
                                            *found += 1;
                                            println!(
                                                "SOLUTION {found}: {key} strictP={:.4}",
                                                st.period
                                            );
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

fn perms3(v: [f64; 3]) -> Vec<[f64; 3]> {
    let idx = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    idx.iter().map(|p| [v[p[0]], v[p[1]], v[p[2]]]).collect()
}
