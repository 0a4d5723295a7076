//! End-to-end tests of the `repwf` binary: paper-fixture agreement and
//! thread-count determinism (the PR's acceptance criteria).

use std::process::Command;

fn repwf(args: &[&str]) -> (String, String, bool) {
    let (stdout, stderr, code) = repwf_env(args, &[]);
    (stdout, stderr, code == Some(0))
}

/// Runs the binary with extra environment variables, returning the exit
/// code (the chaos tests assert on the dedicated kill code).
fn repwf_env(args: &[&str], env: &[(&str, &str)]) -> (String, String, Option<i32>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repwf"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn repwf");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        out.status.code(),
    )
}

/// Extracts the first `"key": <number>` field of a JSON dump.
fn json_num(doc: &str, key: &str) -> f64 {
    let tag = format!("\"{key}\": ");
    let at = doc.find(&tag).unwrap_or_else(|| panic!("no {key} in:\n{doc}"));
    let rest = &doc[at + tag.len()..];
    let end = rest.find([',', '\n', '}']).expect("number terminator");
    rest[..end].trim().parse().unwrap_or_else(|e| panic!("bad number for {key}: {e}"))
}

#[test]
fn period_matches_paper_example_a() {
    // Overlap one-port: period 189, critical resource = out-port of P0.
    let (doc, _, ok) = repwf(&["period", "--example", "a", "--model", "overlap", "--json"]);
    assert!(ok);
    assert!((json_num(&doc, "period") - 189.0).abs() < 1e-6, "{doc}");
    assert!(doc.contains("\"has_critical_resource\": true"), "{doc}");

    // Strict one-port: M_ct = 1295/6 ≈ 215.83 strictly below P̂ ≈ 230.7.
    let (doc, _, ok) = repwf(&["period", "--example", "a", "--model", "strict", "--json"]);
    assert!(ok);
    assert!((json_num(&doc, "mct") - 1295.0 / 6.0).abs() < 1e-6, "{doc}");
    assert!((json_num(&doc, "period") - 230.7).abs() < 0.06, "{doc}");
    assert!(doc.contains("\"has_critical_resource\": false"), "{doc}");
}

#[test]
fn simulate_agrees_with_analysis_on_example_a() {
    let (doc, _, ok) = repwf(&["simulate", "--example", "a", "--model", "overlap", "--json"]);
    assert!(ok);
    assert!((json_num(&doc, "period") - 189.0).abs() < 1e-3, "{doc}");
}

#[test]
fn non_finite_campaign_ranges_exit_2_with_a_diagnosis() {
    for (flag, raw) in
        [("--comp", "nan"), ("--comm", "inf"), ("--comm", "1..inf"), ("--comp", "nan..2")]
    {
        let (_, err, code) =
            repwf_env(&["campaign", "--count", "3", "--threads", "1", flag, raw], &[]);
        assert_eq!(code, Some(2), "{flag} {raw}: {err}");
        assert!(err.starts_with("repwf campaign: range"), "{flag} {raw}: {err}");
        assert!(err.contains(&format!("{raw:?}")) && err.contains("finite"), "{flag} {raw}: {err}");
    }
}

#[test]
fn campaign_json_is_identical_at_any_thread_count() {
    let base = [
        "campaign", "--stages", "2", "--procs", "6", "--comm", "5..10", "--count", "16", "--seed",
        "77", "--model", "strict", "--json",
    ];
    let (one, _, ok1) = repwf(&[&base[..], &["--threads", "1"]].concat());
    assert!(ok1);
    let many = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let many = many.to_string();
    let (n, _, okn) = repwf(&[&base[..], &["--threads", &many]].concat());
    assert!(okn);
    assert_eq!(one, n, "campaign output must not depend on --threads");
    assert!(one.contains("\"outcomes\""));
}

#[test]
fn map_certify_json_is_identical_at_any_thread_count() {
    // The exact search must be deterministic: `--certify` output —
    // heuristic, exact optimum, search counters, gap — is byte-identical
    // at worker counts {1, 2, 4}.
    let base = ["map", "--example", "a", "--model", "overlap", "--certify", "--json"];
    let (one, _, ok1) = repwf(&[&base[..], &["--threads", "1"]].concat());
    assert!(ok1);
    for threads in ["2", "4"] {
        let (n, _, okn) = repwf(&[&base[..], &["--threads", threads]].concat());
        assert!(okn);
        assert_eq!(one, n, "map --certify output must not depend on --threads");
    }
    assert_eq!(json_num(&one, "gap"), 0.0, "Example A certifies at gap 0");
    assert_eq!(json_num(&one, "period"), 67.0, "free optimization beats the paper mapping");
    assert!(one.contains("\"feasible\": true"));
}

#[test]
fn map_exact_refuses_over_cap_candidates() {
    // Exactness discipline at the CLI surface: a tiny --cap forces a
    // strict-model candidate over the TPN limit, and `map --exact` must
    // fail loudly rather than certify a simulator estimate.
    let (_, err, ok) =
        repwf(&["map", "--example", "a", "--model", "strict", "--exact", "--cap", "2"]);
    assert!(!ok);
    assert!(err.contains("refusing the simulator fallback"), "stderr was: {err}");
}

#[test]
fn sharded_campaign_merges_byte_identical_to_unsharded() {
    // The merge invariant: `repwf merge` of an N-shard campaign
    // is byte-identical to the unsharded `repwf campaign --json` output,
    // for N in {1, 3} and threads in {1, 2}.
    let dir = std::env::temp_dir().join(format!("repwf-shard-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = [
        "campaign", "--stages", "2", "--procs", "6", "--comm", "5..10", "--count", "17", "--seed",
        "41", "--model", "strict",
    ];
    for threads in ["1", "2"] {
        let (reference, _, ok) = repwf(&[&base[..], &["--threads", threads, "--json"]].concat());
        assert!(ok);
        for num_shards in [1usize, 3] {
            let shard_paths: Vec<String> = (0..num_shards)
                .map(|i| {
                    dir.join(format!("t{threads}-n{num_shards}-s{i}.ndjson"))
                        .to_str()
                        .unwrap()
                        .to_string()
                })
                .collect();
            for (i, path) in shard_paths.iter().enumerate() {
                let shard_arg = format!("{i}/{num_shards}");
                let (_, err, ok) = repwf(
                    &[&base[..], &["--threads", threads, "--shard", &shard_arg, "--out", path]]
                        .concat(),
                );
                assert!(ok, "shard {shard_arg}: {err}");
            }
            let mut merge_args = vec!["merge"];
            merge_args.extend(shard_paths.iter().map(String::as_str));
            merge_args.push("--json");
            let (merged, err, ok) = repwf(&merge_args);
            assert!(ok, "{err}");
            assert_eq!(
                merged, reference,
                "threads={threads} shards={num_shards}: merged JSON must be byte-identical"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_shard_resumes_to_the_same_bytes() {
    let dir = std::env::temp_dir().join(format!("repwf-resume-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let shard = dir.join("s0.ndjson");
    let shard_s = shard.to_str().unwrap();
    let args = [
        "campaign", "--stages", "2", "--procs", "6", "--count", "12", "--seed", "5", "--model",
        "strict", "--shard", "0/2", "--out", shard_s,
    ];
    let (_, err, ok) = repwf(&args);
    assert!(ok, "{err}");
    let complete = std::fs::read(&shard).unwrap();

    // Simulate a kill mid-record: drop the last 180 bytes (tears the
    // footer AND the last record, so the resume must recompute at least
    // one experiment), then re-run the identical command.
    std::fs::write(&shard, &complete[..complete.len() - 180]).unwrap();
    let (out, err, ok) = repwf(&[&args[..], &["--json"]].concat());
    assert!(ok, "{err}");
    assert_eq!(std::fs::read(&shard).unwrap(), complete, "resume must converge to same bytes");
    assert!(out.contains("\"resumed\": "), "{out}");
    assert!(!out.contains("\"ran\": 0"), "cut must force recomputation:\n{out}");

    // A third run is a validated no-op.
    let (out, err, ok) = repwf(&[&args[..], &["--json"]].concat());
    assert!(ok, "{err}");
    assert!(out.contains("\"ran\": 0"), "{out}");
    assert_eq!(std::fs::read(&shard).unwrap(), complete);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_diagnoses_inconsistent_shard_sets() {
    let dir = std::env::temp_dir().join(format!("repwf-merge-err-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let campaign = |seed: &str, shard: &str, out: &str| {
        let (_, err, ok) = repwf(&[
            "campaign", "--stages", "2", "--procs", "6", "--count", "10", "--seed", seed,
            "--shard", shard, "--out", out,
        ]);
        assert!(ok, "{err}");
    };
    let (s0, s1) = (path("s0.ndjson"), path("s1.ndjson"));
    campaign("3", "0/2", &s0);
    campaign("3", "1/2", &s1);

    // Mismatched manifest: same layout, different campaign seed.
    let foreign = path("foreign.ndjson");
    campaign("4", "1/2", &foreign);
    let (_, err, ok) = repwf(&["merge", &s0, &foreign, "--json"]);
    assert!(!ok, "mismatched manifests must exit non-zero");
    assert!(err.contains("manifest mismatch") && err.contains("seed_base: 3 vs 4"), "{err}");

    // Missing and duplicate shards.
    let (_, err, ok) = repwf(&["merge", &s0, "--json"]);
    assert!(!ok);
    assert!(err.contains("missing shard(s) 1"), "{err}");
    let (_, err, ok) = repwf(&["merge", &s0, &s1, &s1, "--json"]);
    assert!(!ok);
    assert!(err.contains("duplicate shard 1"), "{err}");

    // Resuming under different parameters must refuse, not overwrite.
    let (_, err, ok) = repwf(&[
        "campaign", "--stages", "2", "--procs", "6", "--count", "10", "--seed", "9", "--shard",
        "0/2", "--out", &s0,
    ]);
    assert!(!ok, "foreign resume must exit non-zero");
    assert!(err.contains("manifest mismatch"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `bench --check F` whose `--out` (or its default) is also `F` would
/// overwrite the baseline and then check the run against itself: it must
/// exit 2 before any kernel runs and leave `F` untouched.
#[test]
fn bench_refuses_to_check_against_its_own_output() {
    let dir = std::env::temp_dir().join(format!("repwf-bench-same-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("BENCH_period.json");
    std::fs::write(&baseline, "{\"schema\": \"repwf-bench/v1\"}\n").unwrap();
    let abs = baseline.to_str().unwrap().to_string();
    let cases: [&[&str]; 4] = [
        &["--check", "BENCH_period.json"],
        &["--check", "./BENCH_period.json"],
        &["--out", "./BENCH_period.json", "--check", "BENCH_period.json"],
        &["--out", &abs, "--check", "./BENCH_period.json"],
    ];
    for extra in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repwf"))
            .args(["bench", "--quick", "--threads", "1"])
            .args(extra)
            .current_dir(&dir)
            .output()
            .expect("spawn repwf");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {err}");
        assert!(err.contains("same file"), "{extra:?}: {err}");
        assert!(err.contains("--out BENCH_new.json"), "{extra:?}: {err}");
        assert_eq!(
            std::fs::read_to_string(&baseline).unwrap(),
            "{\"schema\": \"repwf-bench/v1\"}\n",
            "{extra:?}: the baseline was overwritten"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `campaign.json` whose pinned unit count the writer could not have
/// produced makes `dist status` and `campaign --supervise` exit 2 at once
/// (a count of `u64::MAX` used to be enumerated unit by unit).
#[test]
fn out_of_range_pinned_unit_count_exits_2_at_once() {
    let dir = std::env::temp_dir().join(format!("repwf-units-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    let base = ["campaign", "--count", "6", "--seed", "3", "--threads", "1"];
    let sup = ["--supervise", "--dir", dir_s, "--units", "2"];
    let (_, err, ok) = repwf(&[&base[..], &sup[..]].concat());
    assert!(ok, "{err}");
    let pin = dir.join("campaign.json");
    let text = std::fs::read_to_string(&pin).unwrap();
    assert!(text.contains("\"units\":2"), "{text}");
    std::fs::write(&pin, text.replace("\"units\":2", "\"units\":18446744073709551615")).unwrap();
    for args in [&["dist", "status", "--dir", dir_s][..], &[&base[..], &sup[..]].concat()] {
        let started = std::time::Instant::now();
        let (_, err, code) = repwf_env(args, &[]);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(err.contains("campaign.json"), "{err}");
        assert!(err.contains("is outside 1..=6"), "{err}");
        assert!(started.elapsed().as_secs() < 5, "{args:?} took {:?}", started.elapsed());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `campaign --json --metrics`: the document on stdout has no metrics
/// object (it must stay byte-identical to a plain `--json` run and to
/// `merge`), and the counter table goes to stderr.
#[test]
fn campaign_json_metrics_go_to_stderr_not_into_the_document() {
    let args = ["campaign", "--count", "8", "--seed", "5", "--threads", "1", "--json"];
    let (plain, err, ok) = repwf(&args);
    assert!(ok, "{err}");
    let (out, err, ok) = repwf(&[&args[..], &["--metrics"]].concat());
    assert!(ok, "{err}");
    assert!(!out.contains("\"metrics\""), "metrics key on stdout:\n{out}");
    assert_eq!(out, plain, "--metrics changed the JSON document");
    assert!(err.contains("metrics:"), "no metrics table on stderr:\n{err}");
    assert!(err.contains("batched_lanes"), "{err}");
}

#[test]
fn bench_emits_parseable_report_and_check_passes_against_self() {
    let dir = std::env::temp_dir().join(format!("repwf-bench-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("BENCH_period.json");
    let out_s = out.to_str().unwrap();

    // `--threads` must be plumbed into the campaign kernel AND recorded in
    // the report, so a multi-core box can record a real
    // `campaign_parallel_speedup` baseline that `--check` can compare
    // settings against.
    let (_, err, ok) = repwf(&["bench", "--quick", "--threads", "2", "--out", out_s]);
    assert!(ok, "{err}");
    let doc = std::fs::read_to_string(&out).expect("report written");
    assert!(doc.contains("\"schema\": \"repwf-bench/v1\""), "{doc}");
    assert!(doc.contains("\"threads\": 2"), "--threads not recorded:\n{doc}");
    assert!(doc.contains("\"cores\": "), "core count not recorded:\n{doc}");
    for name in [
        "period_full_tpn_cold",
        "period_full_tpn_engine",
        "period_full_tpn_warm",
        "tpn_build_chain",
        "tpn_build_dag",
        "dag_build_parity",
        "campaign_oracle_1t",
        "campaign_strict_1t",
        "campaign_strict_nt",
        "anneal_strict",
        "neighbor_eval_cold",
        "neighbor_eval_incremental",
        "solve_patched",
        "solve_rebuild",
        "campaign_shard_merge",
        "engine_reuse_speedup",
        "warm_start_speedup",
        "campaign_parallel_speedup",
        "campaign_batched_speedup",
        "neighbor_eval_speedup",
        "patched_solve_speedup",
        "shard_merge_efficiency",
    ] {
        assert!(doc.contains(name), "missing {name} in:\n{doc}");
    }

    // A fresh run checked against the report we just wrote must pass (the
    // machine did not change under us; tolerance absorbs the noise).
    let out2 = dir.join("BENCH_again.json");
    let (_, err, ok) = repwf(&[
        "bench",
        "--quick",
        "--out",
        out2.to_str().unwrap(),
        "--check",
        out_s,
        "--tolerance",
        "0.9",
    ]);
    assert!(ok, "{err}");
    assert!(err.contains("check against"), "{err}");

    // A doctored baseline with an unreachable index must fail the check.
    let doctored = doc.replace(
        "\"name\": \"warm_start_speedup\",",
        "\"name\": \"warm_start_speedup\", \"ignored\": 1,",
    );
    let inflated = dir.join("BENCH_inflated.json");
    // Rewrite the warm_start_speedup value to an absurd 10000x.
    let mut lines: Vec<String> = doctored.lines().map(String::from).collect();
    for i in 0..lines.len() {
        if lines[i].contains("warm_start_speedup") {
            lines[i + 1] = "      \"value\": 10000.0".to_string();
        }
    }
    std::fs::write(&inflated, lines.join("\n")).unwrap();
    let (_, err, ok) = repwf(&[
        "bench",
        "--quick",
        "--out",
        out2.to_str().unwrap(),
        "--check",
        inflated.to_str().unwrap(),
    ]);
    assert!(!ok, "doctored baseline must fail the check");
    assert!(err.contains("regression"), "{err}");
    // The failure message must name each regressed index WITH its
    // baseline and current values — a failing gate is diagnosable from
    // the message alone.
    assert!(err.contains("warm_start_speedup: current "), "{err}");
    assert!(err.contains("vs baseline 10000.000x"), "{err}");

    // Thread-scaling indices are skipped (with a notice) when the
    // baseline's threads/cores differ from the current run: an absurd
    // baseline `campaign_parallel_speedup` must NOT fail a run with a
    // different --threads value — the comparison would be
    // apples-to-oranges — but every other index is still gated.
    let mut lines: Vec<String> = doc.lines().map(String::from).collect();
    for i in 0..lines.len() {
        if lines[i].contains("campaign_parallel_speedup") {
            lines[i + 1] = "      \"value\": 10000.0".to_string();
        }
    }
    let scaled = dir.join("BENCH_scaled.json");
    std::fs::write(&scaled, lines.join("\n")).unwrap();
    let (_, err, ok) = repwf(&[
        "bench",
        "--quick",
        "--threads",
        "1",
        "--out",
        out2.to_str().unwrap(),
        "--check",
        scaled.to_str().unwrap(),
        "--tolerance",
        "0.9",
    ]);
    assert!(ok, "thread-scaling index must be skipped across thread counts: {err}");
    // The skip notice must name EVERY skipped index and say why — which
    // settings diverged and how to regenerate a comparable baseline.
    for name in ["campaign_parallel_speedup", "shard_merge_efficiency"] {
        let notice = err
            .lines()
            .find(|l| l.contains(&format!("skipping thread-scaling index {name}")))
            .unwrap_or_else(|| panic!("no skip notice for {name} in stderr:\n{err}"));
        assert!(notice.contains("threads=2"), "{notice}");
        assert!(notice.contains("threads=1"), "{notice}");
        assert!(notice.contains("--threads 1"), "regeneration hint missing: {notice}");
    }
    // The batched-campaign index is NOT thread-scaling: it must be gated
    // (not skipped) even across --threads settings.
    assert!(!err.contains("skipping thread-scaling index campaign_batched_speedup"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervised_campaign_with_injected_kill_matches_the_plain_run() {
    let dir = std::env::temp_dir().join(format!("repwf-supervise-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = [
        "campaign", "--stages", "2", "--procs", "6", "--comm", "5..10", "--count", "17", "--seed",
        "23", "--model", "strict",
    ];
    let (reference, _, ok) = repwf(&[&base[..], &["--json"]].concat());
    assert!(ok);

    // Two elastic workers in one process; one gets a deterministic kill
    // (torn final line included) on its first claim. The campaign must
    // still complete and the merged output must be byte-identical.
    let camp = dir.join("camp");
    let camp_s = camp.to_str().unwrap();
    let sup = [
        "--supervise",
        "--dir",
        camp_s,
        "--workers",
        "2",
        "--units",
        "3",
        "--flush-every",
        "2",
        "--json",
    ];
    let (merged, err, code) =
        repwf_env(&[&base[..], &sup[..]].concat(), &[("REPWF_FAULT", "kill-after=2,torn=7")]);
    assert_eq!(code, Some(0), "{err}");
    assert_eq!(merged, reference, "supervised merge must be byte-identical");
    assert!(err.contains("faulted: injected kill after 2 records"), "{err}");
    assert!(err.contains("attempt 2 (takeover)"), "{err}");

    // dist status on the finished directory: complete, no leases.
    let (out, err, ok) = repwf(&["dist", "status", "--dir", camp_s]);
    assert!(ok, "{err}");
    assert!(out.contains("status: COMPLETE"), "{out}");
    let (out, _, ok) = repwf(&["dist", "status", "--dir", camp_s, "--json"]);
    assert!(ok);
    assert!(out.contains("\"complete\": true"), "{out}");

    // Supervising the finished directory again is a cheap no-op with the
    // same byte-identical output.
    let (again, err, ok) = repwf(&[&base[..], &sup[..]].concat());
    assert!(ok, "{err}");
    assert_eq!(again, reference);

    // A worker launched with divergent flags is refused by the pin.
    let (_, err, ok) = repwf(&[
        "campaign",
        "--stages",
        "2",
        "--procs",
        "6",
        "--comm",
        "5..10",
        "--count",
        "18",
        "--seed",
        "23",
        "--model",
        "strict",
        "--supervise",
        "--dir",
        camp_s,
    ]);
    assert!(!ok);
    assert!(err.contains("manifest mismatch") && err.contains("count: 17 vs 18"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_process_exit_kill_leaves_a_resumable_shard() {
    let dir = std::env::temp_dir().join(format!("repwf-chaos-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let shard = dir.join("s0.ndjson");
    let shard_s = shard.to_str().unwrap();
    let args = [
        "campaign",
        "--stages",
        "2",
        "--procs",
        "6",
        "--count",
        "11",
        "--seed",
        "7",
        "--model",
        "strict",
        "--shard",
        "0/1",
        "--out",
        shard_s,
        "--flush-every",
        "3",
    ];
    // The worker process dies with the dedicated kill exit code, mid-file.
    let (_, _, code) = repwf_env(&args, &[("REPWF_FAULT", "kill-after=5,torn=11,exit")]);
    assert_eq!(code, Some(86), "injected exit must use the dedicated code");
    let torn = std::fs::read_to_string(&shard).unwrap();
    assert!(!torn.contains("\"kind\":\"footer\""), "killed shard must have no footer");

    // Re-running the identical command (no fault) resumes the checkpoint
    // and converges; a from-scratch run of the same shard proves the
    // bytes identical.
    let (_, err, ok) = repwf(&args);
    assert!(ok, "{err}");
    let resumed = std::fs::read(&shard).unwrap();
    let fresh = dir.join("fresh.ndjson");
    let fresh_args: Vec<&str> =
        args.iter().map(|a| if *a == shard_s { fresh.to_str().unwrap() } else { *a }).collect();
    let (_, err, ok) = repwf(&fresh_args);
    assert!(ok, "{err}");
    assert_eq!(resumed, std::fs::read(&fresh).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn range_shards_fill_gaps_and_allow_partial_reports_them() {
    let dir = std::env::temp_dir().join(format!("repwf-range-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = [
        "campaign", "--stages", "2", "--procs", "6", "--comm", "5..10", "--count", "12", "--seed",
        "9", "--model", "strict",
    ];
    let (reference, _, ok) = repwf(&[&base[..], &["--json"]].concat());
    assert!(ok);
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (lo, hi, fill) = (path("r0-5.ndjson"), path("r8-4.ndjson"), path("r5-3.ndjson"));
    for (range, out) in [("0+5", &lo), ("8+4", &hi)] {
        let (_, err, ok) = repwf(&[&base[..], &["--range", range, "--out", out]].concat());
        assert!(ok, "{err}");
    }

    // The exact merge refuses the gap, naming the seeds and the command.
    let (_, err, ok) = repwf(&["merge", &lo, &hi, "--json"]);
    assert!(!ok);
    assert!(err.contains("seeds 14..17 uncovered"), "{err}");
    assert!(err.contains("--range 5+3"), "{err}");

    // --allow-partial merges what exists and marks the document partial.
    let (out, err, ok) = repwf(&["merge", &lo, &hi, "--json", "--allow-partial"]);
    assert!(ok, "{err}");
    assert!(out.contains("\"partial\": true"), "{out}");
    assert!(out.contains("\"seed_start\": 14"), "{out}");
    assert!(err.contains("seeds 14..17 missing"), "{err}");

    // Running the suggested command closes the gap; the exact merge is
    // byte-identical to the unsharded run (--allow-partial included:
    // without gaps it prints the plain document).
    let (_, err, ok) = repwf(&[&base[..], &["--range", "5+3", "--out", &fill]].concat());
    assert!(ok, "{err}");
    for extra in [&["--json"][..], &["--json", "--allow-partial"][..]] {
        let merge_args = [&["merge", &lo, &fill, &hi][..], extra].concat();
        let (merged, err, ok) = repwf(&merge_args);
        assert!(ok, "{err}");
        assert_eq!(merged, reference, "extra={extra:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Repo-relative path of the committed fork/join fixture.
fn forkjoin_fixture() -> String {
    format!("{}/../../ci/forkjoin.json", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn period_on_workflow_json_matches_the_pinned_document() {
    let fixture = forkjoin_fixture();
    let (doc, err, ok) = repwf(&["period", "--workflow", &fixture, "--model", "overlap", "--json"]);
    assert!(ok, "{err}");
    let expected = std::fs::read_to_string(format!(
        "{}/../../ci/forkjoin-period-expected.json",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("pinned document");
    assert_eq!(doc, expected, "period --workflow drifted from ci/forkjoin-period-expected.json");

    // The strict model solves the same DAG through the full TPN.
    let (doc, err, ok) = repwf(&["period", "--workflow", &fixture, "--model", "strict", "--json"]);
    assert!(ok, "{err}");
    assert!((json_num(&doc, "period") - 6.5).abs() < 1e-9, "{doc}");
    assert!(doc.contains("\"method\": \"full-tpn\""), "{doc}");
}

#[test]
fn map_exact_on_workflow_json_is_identical_at_any_thread_count() {
    let fixture = forkjoin_fixture();
    let base = ["map", "--workflow", &fixture, "--model", "overlap", "--exact", "--json"];
    let (one, err, ok) = repwf(&[&base[..], &["--threads", "1"]].concat());
    assert!(ok, "{err}");
    let (two, err, ok) = repwf(&[&base[..], &["--threads", "2"]].concat());
    assert!(ok, "{err}");
    assert_eq!(one, two, "exact search on a DAG must not depend on --threads");
    assert!(one.contains("\"feasible\": true"), "{one}");
    assert!(json_num(&one, "period") <= 4.0, "free optimization beats the fixture mapping");
}

#[test]
fn exact_search_on_example_c_is_refused_up_front() {
    // 4 stages on 64 processors: about 1.3e94 leaves, beyond u128.
    for mode in ["--exact", "--certify"] {
        let (out, err, code) = repwf_env(&["map", "--example", "c", mode], &[]);
        assert_eq!(code, Some(2), "{mode}: stdout {out}");
        assert!(out.is_empty(), "{mode}: {out}");
        assert!(err.contains("4 stages on 64 processors"), "{mode}: {err}");
        assert!(err.contains("u128"), "{mode}: {err}");
    }
}

#[test]
fn deeply_nested_workflow_json_fails_with_a_diagnosis() {
    let dir = std::env::temp_dir().join(format!("repwf-deep-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let (out, err, code) = repwf_env(&["period", "--workflow", path.to_str().unwrap()], &[]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(matches!(code, Some(c) if c != 0), "exit {code:?}, stdout {out}");
    assert!(err.contains("nesting deeper than"), "{err}");
    assert!(!err.contains("overflow"), "{err}");
}

#[test]
fn huge_processor_count_fails_with_a_diagnosis() {
    // 20 000 processors would need a 3.2 GB bandwidth matrix: both input
    // formats must refuse before allocating it.
    let dir = std::env::temp_dir().join(format!("repwf-huge-p-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let text = dir.join("huge.txt");
    let speeds = vec!["1"; 20_000].join(" ");
    std::fs::write(&text, format!("workflow v1\nstages 1\nspeeds {speeds}\nmap 0 0\n")).unwrap();
    let json = dir.join("huge.json");
    let speeds = vec!["1"; 20_000].join(", ");
    std::fs::write(
        &json,
        format!("{{\"works\": [1], \"files\": [], \"speeds\": [{speeds}], \"mapping\": [[0]]}}"),
    )
    .unwrap();
    for (flag, path) in [("--file", &text), ("--workflow", &json)] {
        let (out, err, code) = repwf_env(&["period", flag, path.to_str().unwrap()], &[]);
        assert!(matches!(code, Some(c) if c != 0), "{flag}: exit {code:?}, stdout {out}");
        assert!(
            err.contains("20000 processors exceed the supported maximum of 4096"),
            "{flag}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overflowing_operation_times_fail_with_a_diagnosis() {
    // Valid sizes, speeds and bandwidths whose quotients overflow: the
    // readers reject the instance (exit 2) instead of a solver panicking.
    let dir = std::env::temp_dir().join(format!("repwf-overflow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bandwidth = dir.join("bandwidth.txt");
    std::fs::write(
        &bandwidth,
        "workflow v1\nstages 22 67\nfiles 1\nspeeds 1 1 1\nbandwidth 0 1 5e-324\nmap 0 0\nmap 1 1\n",
    )
    .unwrap();
    let speed = dir.join("speed.txt");
    std::fs::write(
        &speed,
        "workflow v1\nstages 22 67\nfiles 1\nspeeds 1 5e-324 1\nmap 0 0\nmap 1 1\n",
    )
    .unwrap();
    let cases = [
        (&bandwidth, "edge 0 over link 0->1: transfer time size/bandwidth overflows"),
        (&speed, "stage 1 on processor 1: computation time work/speed overflows"),
    ];
    for (path, diagnosis) in cases {
        for cmd in ["period", "map"] {
            for model in ["overlap", "strict"] {
                let args = [cmd, "--file", path.to_str().unwrap(), "--model", model];
                let (out, err, code) = repwf_env(&args, &[]);
                assert_eq!(code, Some(2), "{args:?}: stdout {out}, stderr {err}");
                assert!(err.contains(diagnosis), "{args:?}: {err}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dot_renders_the_workflow_dag_for_chains_and_forks() {
    // A chain (Example A) renders as a path: consecutive edges only.
    let (dot, err, ok) = repwf(&["dot", "workflow", "--example", "a"]);
    assert!(ok, "{err}");
    assert!(dot.starts_with("digraph workflow {"), "{dot}");
    assert!(dot.contains("S0 -> S1"), "{dot}");
    assert!(!dot.contains("S0 -> S2"), "a chain must not branch:\n{dot}");

    // The fork/join fixture renders both branch edges and the replica
    // annotations of the replicated stages.
    let fixture = forkjoin_fixture();
    let (dot, err, ok) = repwf(&["dot", "workflow", "--workflow", &fixture]);
    assert!(ok, "{err}");
    for edge in ["S0 -> S1", "S0 -> S2", "S1 -> S3", "S2 -> S3"] {
        assert!(dot.contains(edge), "missing {edge} in:\n{dot}");
    }
    assert!(dot.contains("×2 on P1,P2"), "replica annotation missing:\n{dot}");
    assert!(dot.contains("δ=3"), "file-size label missing:\n{dot}");
}

#[test]
fn period_refuses_an_unknown_method() {
    let (out, err, code) =
        repwf_env(&["period", "--example", "a", "--method", "tpn-simulation"], &[]);
    assert_eq!(code, Some(2), "{err}");
    assert!(out.is_empty(), "{out}");
    assert!(
        err.contains("unknown method \"tpn-simulation\" (expected auto, polynomial or full-tpn)"),
        "{err}"
    );
}

#[test]
fn unknown_command_fails_with_usage() {
    let (_, err, ok) = repwf(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"), "{err}");
}

#[test]
fn traced_campaign_json_is_byte_identical_to_untraced() {
    // The telemetry invariant the obs layer is built around: `--trace`
    // observes, never perturbs. Campaign output bytes are identical with
    // tracing on and off, at thread counts 1, 2 and 4.
    let dir = std::env::temp_dir().join(format!("repwf-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = [
        "campaign", "--stages", "2", "--procs", "6", "--comm", "5..10", "--count", "24", "--seed",
        "91", "--model", "strict", "--json",
    ];
    let (reference, _, ok) = repwf(&[&base[..], &["--threads", "1"]].concat());
    assert!(ok);
    for threads in ["1", "2", "4"] {
        let trace = dir.join(format!("t{threads}.ndjson"));
        let trace_s = trace.to_str().unwrap();
        let (traced, err, ok) =
            repwf(&[&base[..], &["--threads", threads, "--trace", trace_s]].concat());
        assert!(ok, "{err}");
        assert_eq!(
            reference, traced,
            "--trace changed campaign output bytes at --threads {threads}"
        );

        // The trace file itself validates end to end (schema, record
        // count, checksum footer) and accounts for the command's wall
        // time through the top-level span.
        let (report, err, ok) =
            repwf(&["trace", "report", trace_s, "--min-coverage", "0.5", "--json"]);
        assert!(ok, "{err}");
        assert!(report.contains("\"command\": \"campaign\""), "{report}");
        assert!(json_num(&report, "records") >= 1.0, "{report}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn traced_table2_json_is_byte_identical_to_untraced() {
    let dir = std::env::temp_dir().join(format!("repwf-table2-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = ["table2", "--scale", "0.05", "--threads", "2", "--json"];
    let (reference, _, ok) = repwf(&base);
    assert!(ok);
    let trace = dir.join("t.ndjson");
    let trace_s = trace.to_str().unwrap();
    let (traced, err, ok) = repwf(&[&base[..], &["--trace", trace_s, "--metrics"]].concat());
    assert!(ok, "{err}");
    assert_eq!(reference, traced, "--trace/--metrics changed the table2 document");
    assert!(err.contains("metrics:") && err.contains("howard_iters_"), "{err}");
    let (report, err, ok) = repwf(&["trace", "report", trace_s, "--min-coverage", "0.5", "--json"]);
    assert!(ok, "{err}");
    assert!(report.contains("\"command\": \"table2\""), "{report}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn campaign_progress_stays_off_a_captured_stderr() {
    // Progress lines go to a terminal only: a 20 000-draw campaign whose
    // stderr is a pipe writes no per-outcome lines there.
    let (out, err, ok) = repwf(&["campaign", "--count", "20000", "--threads", "2", "--json"]);
    assert!(ok, "{err}");
    assert!(out.contains("\"count\": 20000"), "{}", &out[..out.len().min(400)]);
    assert!(err.len() < 4096, "{} bytes on stderr", err.len());
}

#[test]
fn trace_report_rejects_a_truncated_trace() {
    let dir = std::env::temp_dir().join(format!("repwf-trace-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.ndjson");
    let trace_s = trace.to_str().unwrap();
    let (_, err, ok) =
        repwf(&["period", "--example", "a", "--model", "strict", "--json", "--trace", trace_s]);
    assert!(ok, "{err}");

    // Drop the footer: the report must refuse the file.
    let text = std::fs::read_to_string(&trace).unwrap();
    let truncated: String =
        text.lines().take(text.lines().count() - 1).map(|l| format!("{l}\n")).collect();
    std::fs::write(&trace, truncated).unwrap();
    let (_, err, ok) = repwf(&["trace", "report", trace_s]);
    assert!(!ok);
    assert!(err.contains("footer"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn campaign_metrics_flag_reports_structural_counters() {
    // `--metrics` (unlike `--trace`) is allowed to add output: the human
    // summary gains a counter table fed by the sharded registry.
    let (doc, err, ok) = repwf(&[
        "campaign",
        "--stages",
        "2",
        "--procs",
        "6",
        "--count",
        "12",
        "--seed",
        "7",
        "--model",
        "strict",
        "--metrics",
    ]);
    assert!(ok, "{err}");
    assert!(doc.contains("metrics:"), "{doc}");
    assert!(doc.contains("csr_builds"), "{doc}");
    assert!(doc.contains("span"), "{doc}");
}

#[test]
fn campaign_metrics_count_every_batched_tpn_build() {
    // The default strict campaign draws 6 shapes; each is built once as a
    // TPN, condensed once, and every build shows up in the counters and as
    // a `tpn_build` span.
    let (doc, err, ok) = repwf(&["campaign", "--count", "200", "--threads", "1", "--metrics"]);
    assert!(ok, "{err}");
    // The number after the leading words `key` of a metrics line.
    let count = |key: &[&str]| -> u64 {
        doc.lines()
            .find_map(|l| {
                let words: Vec<&str> = l.split_whitespace().collect();
                words.strip_prefix(key)?.first()?.parse().ok()
            })
            .unwrap_or_else(|| panic!("no `{}` line in:\n{doc}", key.join(" ")))
    };
    assert_eq!(count(&["tpn_builds"]), 6, "{doc}");
    assert_eq!(count(&["csr_builds"]), 6, "{doc}");
    assert_eq!(count(&["shape_groups"]), 6, "{doc}");
    assert_eq!(count(&["span", "tpn_build"]), 6, "{doc}");
}

#[test]
fn campaign_json_prints_no_predicted_solve_counters() {
    // CSR builds, Tarjan runs and patched solves are measured only under
    // `--metrics`/`--trace`; the document carries no replayed prediction
    // of them (a replay printed 16 CSR builds where the run made 8).
    let (doc, err, ok) = repwf(&[
        "campaign", "--stages", "2", "--procs", "6", "--count", "12", "--seed", "7", "--model",
        "strict", "--json",
    ]);
    assert!(ok, "{err}");
    for key in ["patched_solves", "csr_builds", "tarjan_runs"] {
        assert!(!doc.contains(&format!("\"{key}\"")), "{key} in:\n{doc}");
    }
    let (text, err, ok) = repwf(&[
        "campaign", "--stages", "2", "--procs", "6", "--count", "12", "--seed", "7", "--model",
        "strict",
    ]);
    assert!(ok, "{err}");
    assert!(!text.contains("structural solves"), "{text}");
}
