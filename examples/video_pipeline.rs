//! A realistic streaming scenario: a video transcoding farm, as a
//! fork/join series-parallel workflow.
//!
//! The paper motivates replicated workflows with streaming applications
//! such as video encoding/decoding. This example models a 6-stage
//! transcoding workflow on a 12-machine heterogeneous cluster: the demuxer
//! forks the container into a video branch (decode → filter → encode) and
//! an audio branch (transcode), and the muxer joins the two elementary
//! streams back together:
//!
//! ```text
//!          ┌─ decode ── filter ── encode ─┐
//!   demux ─┤                              ├─ mux
//!          └───────── audio ──────────────┘
//! ```
//!
//! The expensive decode and encode stages are replicated, and the example
//! studies how the throughput responds:
//!
//! 1. the period under both communication models, solved through a reused
//!    [`PeriodEngine`] (one engine, many instances),
//! 2. the per-resource cycle-time decomposition (where the time goes),
//! 3. a what-if sweep over the number of encoder replicas, showing the
//!    round-robin effect: beyond the bandwidth bottleneck, more replicas
//!    stop helping.
//!
//! Run with: `cargo run --release -p repwf-bench --example video_pipeline`

use repwf_core::cycle_time::cycle_times;
use repwf_core::engine::PeriodEngine;
use repwf_core::model::{CommModel, Instance, Mapping, Pipeline, Platform};
use repwf_core::period::Method;

fn platform() -> Platform {
    // 12 machines: 4 fast (3 GFLOP-ish), 8 slower; 1 Gb/s-ish links, with a
    // slower cross-rack group.
    let mut p = Platform::uniform(12, 1.5, 120.0);
    for u in 0..4 {
        p.set_speed(u, 3.0);
    }
    for u in 0..12 {
        for v in 6..12 {
            if u < 6 {
                p.set_bandwidth(u, v, 60.0); // cross-rack
                p.set_bandwidth(v, u, 60.0);
            }
        }
    }
    p
}

fn workflow() -> Pipeline {
    // Stages: 0 demux, 1 decode, 2 filter, 3 encode, 4 audio, 5 mux.
    // Works (GFLOP per frame batch) and file sizes (MB per batch). The
    // filter hands *raw* frames to the encoders — the big transfer; the
    // audio branch is cheap and small.
    Pipeline::from_edges(
        vec![30.0, 420.0, 90.0, 660.0, 45.0, 24.0],
        vec![
            (0, 1, 50.0),   // video elementary stream
            (0, 4, 8.0),    // audio elementary stream
            (1, 2, 180.0),  // decoded frames
            (2, 3, 9000.0), // raw filtered frames
            (3, 5, 40.0),   // encoded video
            (4, 5, 6.0),    // encoded audio
        ],
    )
    .expect("valid fork/join workflow")
}

fn mapping(encoders: usize) -> Mapping {
    // P0: demux, P1+P2: decode, P3: filter, P4..: encode, P10: audio,
    // P11: mux.
    assert!((1..=6).contains(&encoders));
    let enc: Vec<usize> = (4..4 + encoders).collect();
    Mapping::new(vec![vec![0], vec![1, 2], vec![3], enc, vec![10], vec![11]])
        .expect("valid mapping")
}

fn main() {
    let (wf, farm) = (workflow(), platform());
    // One engine for the whole example: every solve below reuses its
    // buffers (and, where shapes repeat, its patched TPN).
    let mut engine = PeriodEngine::new();

    println!("video transcoding farm: fork/join, 6 stages, decode x2, encode x3\n");
    for model in [CommModel::Overlap, CommModel::Strict] {
        let r =
            engine.compute_mapping(&wf, &farm, &mapping(3), model, Method::Auto).expect("analysis");
        println!(
            "{model:<22} period {:>8.3}  throughput {:>7.4}  M_ct {:>8.3}  critical: {}",
            r.period,
            r.throughput(),
            r.mct,
            r.critical
        );
    }

    println!("\nper-resource cycle times (overlap normalization, per data set):");
    println!(
        "{:<6} {:<7} {:>10} {:>10} {:>10} {:>10}",
        "proc", "stage", "C_in", "C_comp", "C_out", "C_exec"
    );
    let inst = Instance::new(wf.clone(), farm.clone(), mapping(3)).expect("valid instance");
    for ct in cycle_times(&inst) {
        println!(
            "P{:<5} S{:<6} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            ct.proc,
            ct.stage,
            ct.c_in,
            ct.c_comp,
            ct.c_out,
            ct.exec(CommModel::Overlap)
        );
    }

    println!("\nencoder-replica sweep (overlap model):");
    println!("{:>9} {:>10} {:>12} {:>8}", "encoders", "period", "throughput", "m");
    for k in 1..=6 {
        let r = engine
            .compute_mapping(&wf, &farm, &mapping(k), CommModel::Overlap, Method::Auto)
            .expect("analysis");
        println!("{k:>9} {:>10.3} {:>12.4} {:>8}", r.period, r.throughput(), r.num_paths);
    }
    println!("\nthe audio branch rides along for free — the video branch owns the critical");
    println!("resource throughout. The gain stops tracking 1/k once the filter's one-port");
    println!("output saturates on raw-frame transfers — and *worsens* when extra replicas");
    println!("sit across the slow rack link: under round-robin, a replica you cannot feed");
    println!("is a liability.");
}
