//! Shard determinism properties (the PR's acceptance criteria):
//!
//! * for random `(count, num_shards, threads)`, the merged campaign JSON
//!   is **byte-identical** to the unsharded run, under both communication
//!   models;
//! * resuming after an arbitrary NDJSON truncation reproduces the same
//!   shard bytes (and hence the same merged JSON);
//! * inconsistent shard sets are diagnosed, never silently merged;
//! * the record encoder writes the historical bytes and round-trips every
//!   f64 bit pattern and path count exactly;
//! * the shard and trace readers turn hostile bytes into typed errors and
//!   never accept a file whose checksum disagrees with its bytes.

use proptest::prelude::*;
use repwf_core::model::CommModel;
use repwf_dist::report::campaign_doc;
use repwf_dist::shard::{outcome_line, Checksum};
use repwf_dist::{merge_paths, read_shard, run_shard, CampaignSpec, DistError, ShardManifest};
use repwf_gen::campaign::{
    engine_for_cap, run_one_with, CampaignResult, ExperimentOutcome, Resolution,
};
use repwf_gen::{GenConfig, Range};
use repwf_obs::ndjson;
use repwf_obs::report::read_trace;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per case (cleaned by the caller's best
/// effort; unique names keep concurrent test binaries apart).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "repwf-dist-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn spec(model: CommModel, count: usize, seed_base: u64) -> CampaignSpec {
    CampaignSpec {
        cfg: GenConfig {
            stages: 2,
            procs: 7,
            comp: Range::constant(1.0),
            comm: Range::new(5.0, 10.0),
        },
        model,
        count,
        seed_base,
        cap: 200_000,
    }
}

/// The unsharded reference: the serial per-instance oracle, `run_one_with`
/// seed by seed on one engine.
fn oracle(spec: &CampaignSpec) -> CampaignResult {
    let mut engine = engine_for_cap(spec.cap);
    CampaignResult {
        outcomes: (0..spec.count)
            .map(|k| run_one_with(&spec.cfg, spec.model, spec.seed_base + k as u64, &mut engine))
            .collect(),
    }
}

/// Runs every shard to a file, merges, and returns the merged document
/// plus the shard file paths.
fn shard_and_merge(
    spec: &CampaignSpec,
    num_shards: usize,
    threads: usize,
    dir: &std::path::Path,
) -> (String, Vec<PathBuf>) {
    let paths: Vec<PathBuf> = (0..num_shards).map(|i| dir.join(format!("s{i}.ndjson"))).collect();
    for (i, path) in paths.iter().enumerate() {
        let summary = run_shard(spec, i, num_shards, threads, path, None).expect("shard runs");
        assert_eq!(summary.resumed, 0);
        assert_eq!(summary.ran, summary.manifest.plan.shard_count());
    }
    let merged = merge_paths(&paths).expect("complete shard set merges");
    assert_eq!(merged.num_shards, num_shards);
    assert_eq!(merged.accum.done, spec.count);
    let doc = campaign_doc(&merged.spec, &merged.result).to_string_pretty();
    (doc, paths)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn merged_json_is_byte_identical_to_the_unsharded_run(
        count in 0usize..28,
        num_shards in 1usize..5,
        threads in 1usize..4,
        seed_base in 1u64..5000,
    ) {
        for model in [CommModel::Overlap, CommModel::Strict] {
            let spec = spec(model, count, seed_base);
            let reference = campaign_doc(&spec, &oracle(&spec)).to_string_pretty();

            let dir = scratch_dir("merge");
            let (merged, _) = shard_and_merge(&spec, num_shards, threads, &dir);
            prop_assert!(
                merged == reference,
                "merged JSON diverges: count={} shards={} threads={} model={:?}",
                count, num_shards, threads, model
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resume_after_truncation_reproduces_the_same_bytes(
        count in 1usize..24,
        num_shards in 1usize..4,
        threads in 1usize..3,
        cut in 0.0f64..1.0,
    ) {
        let spec = spec(CommModel::Strict, count, 77);
        let dir = scratch_dir("resume");
        let (reference_doc, paths) = shard_and_merge(&spec, num_shards, threads, &dir);
        // Kill the *largest* shard mid-write: truncate its NDJSON at an
        // arbitrary byte past the manifest line (often mid-record).
        let victim = &paths[0];
        let original = std::fs::read(victim).unwrap();
        let manifest_len = original.iter().position(|&b| b == b'\n').unwrap() + 1;
        let cut_at = manifest_len
            + ((original.len() - manifest_len) as f64 * cut) as usize;
        std::fs::write(victim, &original[..cut_at]).unwrap();

        let summary = run_shard(&spec, 0, num_shards, threads, victim, None)
            .expect("resume succeeds");
        prop_assert_eq!(summary.resumed + summary.ran, summary.manifest.plan.shard_count());
        let resumed = std::fs::read(victim).unwrap();
        prop_assert!(
            resumed == original,
            "resume from byte {} of {} must converge to the same file",
            cut_at, original.len()
        );
        let merged = merge_paths(&paths).expect("merges after resume");
        prop_assert_eq!(
            campaign_doc(&merged.spec, &merged.result).to_string_pretty(),
            reference_doc
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn complete_shard_reruns_are_validated_noops() {
    let spec = spec(CommModel::Strict, 9, 400);
    let dir = scratch_dir("noop");
    let path = dir.join("s0.ndjson");
    run_shard(&spec, 0, 2, 2, &path, None).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let again = run_shard(&spec, 0, 2, 1, &path, None).unwrap();
    assert_eq!(again.ran, 0, "complete shard must not recompute");
    assert_eq!(again.resumed, again.manifest.plan.shard_count());
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_during_the_manifest_write_restarts_fresh_but_foreign_garbage_does_not() {
    let dir = scratch_dir("torn-manifest");
    let spec = spec(CommModel::Strict, 6, 12);
    let path = dir.join("s0.ndjson");
    run_shard(&spec, 0, 1, 1, &path, None).unwrap();
    let complete = std::fs::read(&path).unwrap();
    let manifest_len = complete.iter().position(|&b| b == b'\n').unwrap() + 1;

    // A kill mid-manifest leaves a newline-less prefix of our own
    // manifest line: restartable from scratch, converging bytewise.
    for cut in [1, manifest_len / 2, manifest_len - 1] {
        std::fs::write(&path, &complete[..cut]).unwrap();
        let summary = run_shard(&spec, 0, 1, 2, &path, None).unwrap();
        assert_eq!((summary.resumed, summary.ran), (0, 6), "cut={cut}");
        assert_eq!(std::fs::read(&path).unwrap(), complete, "cut={cut}");
    }

    // A newline-less first line that is NOT our manifest prefix is a
    // foreign file: refuse, never overwrite.
    std::fs::write(&path, b"{\"kind\":\"something else entirely").unwrap();
    let err = run_shard(&spec, 0, 1, 1, &path, None).unwrap_err();
    assert!(matches!(err, DistError::Corrupt { .. }), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_manifests_are_refused_on_resume_and_merge() {
    let dir = scratch_dir("mismatch");
    let strict = spec(CommModel::Strict, 10, 5);
    let overlap = CampaignSpec { model: CommModel::Overlap, ..strict };
    let s0 = dir.join("s0.ndjson");
    let s1 = dir.join("s1.ndjson");
    run_shard(&strict, 0, 2, 1, &s0, None).unwrap();

    // Resuming the same file under a different campaign must refuse.
    let err = run_shard(&overlap, 0, 2, 1, &s0, None).unwrap_err();
    assert!(matches!(err, DistError::ManifestMismatch { .. }), "{err}");
    assert!(err.to_string().contains("model"), "{err}");
    // ... and under a different shard identity too.
    let err = run_shard(&strict, 1, 2, 1, &s0, None).unwrap_err();
    assert!(matches!(err, DistError::ManifestMismatch { .. }), "{err}");

    // Merging shards of different campaigns must name the field.
    run_shard(&overlap, 1, 2, 1, &s1, None).unwrap();
    let err = merge_paths(&[&s0, &s1]).unwrap_err();
    assert!(matches!(err, DistError::ManifestMismatch { .. }), "{err}");
    assert!(err.to_string().contains("model: strict vs overlap"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_duplicate_and_incomplete_shards_are_diagnosed() {
    let dir = scratch_dir("shardset");
    let spec = spec(CommModel::Strict, 12, 9);
    let paths: Vec<PathBuf> = (0..3).map(|i| dir.join(format!("s{i}.ndjson"))).collect();
    for (i, path) in paths.iter().enumerate() {
        run_shard(&spec, i, 3, 1, path, None).unwrap();
    }

    let err = merge_paths(&paths[..2]).unwrap_err();
    assert!(matches!(err, DistError::ShardSet(_)), "{err}");
    assert!(err.to_string().contains("missing shard(s) 2"), "{err}");

    let err = merge_paths(&[&paths[0], &paths[1], &paths[1]]).unwrap_err();
    assert!(matches!(err, DistError::ShardSet(_)), "{err}");
    assert!(err.to_string().contains("duplicate shard 1"), "{err}");

    // An unfinished shard (manifest + some records, no footer) must point
    // at the resume command, not merge partial data.
    let text = std::fs::read_to_string(&paths[2]).unwrap();
    let keep: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
    std::fs::write(&paths[2], keep).unwrap();
    let err = merge_paths(&paths).unwrap_err();
    assert!(matches!(err, DistError::ShardSet(_)), "{err}");
    assert!(err.to_string().contains("incomplete"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interior_corruption_is_refused_not_resumed() {
    let dir = scratch_dir("corrupt");
    let spec = spec(CommModel::Strict, 8, 31);
    let path = dir.join("s0.ndjson");
    run_shard(&spec, 0, 1, 1, &path, None).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();

    // Flip a digit of an interior record's seed: contiguity check fires.
    let lines: Vec<&str> = text.lines().collect();
    let doctored_record = lines[2].replacen("\"seed\":32", "\"seed\":33", 1);
    assert_ne!(doctored_record, lines[2], "doctoring must hit");
    let mut doctored = lines.to_vec();
    doctored[2] = &doctored_record;
    let doctored: String = doctored.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(&path, &doctored).unwrap();
    for err in
        [run_shard(&spec, 0, 1, 1, &path, None).unwrap_err(), merge_paths(&[&path]).unwrap_err()]
    {
        assert!(matches!(err, DistError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("seed 33, expected 32"), "{err}");
    }

    // A tampered record under an unchanged footer: checksum mismatch.
    let tampered = text.replacen("\"resolution\":\"exact\"", "\"resolution\":\"simulated\"", 1);
    assert_ne!(tampered, text);
    std::fs::write(&path, &tampered).unwrap();
    let err = merge_paths(&[&path]).unwrap_err();
    assert!(matches!(err, DistError::Corrupt { .. }), "{err}");
    assert!(err.to_string().contains("checksum"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The flat-record codec: encoder bytes and bit-exact round trips.
// ---------------------------------------------------------------------------

/// The historical `format!` spelling of an outcome line: the encoder must
/// reproduce these bytes exactly, or old and new shard files diverge.
fn reference_outcome_line(o: &ExperimentOutcome) -> String {
    format!(
        "{{\"kind\":\"outcome\",\"seed\":{},\"num_paths\":{},\"mct_bits\":{},\
         \"period_bits\":{},\"resolution\":\"{}\"}}\n",
        o.seed,
        o.num_paths,
        o.mct.to_bits(),
        o.period.to_bits(),
        match o.resolution {
            Resolution::Exact => "exact",
            Resolution::Simulated => "simulated",
        },
    )
}

/// Interesting f64 bit patterns: NaNs (quiet, signalling, negative,
/// payload-carrying), both infinities, both zeros, subnormals and extremes.
const SPECIAL_BITS: [u64; 12] = [
    0x7ff8_0000_0000_0000,
    0x7ff0_0000_0000_0001,
    0xfff8_0000_0000_dead,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0,
    0x8000_0000_0000_0000,
    1,
    0x000f_ffff_ffff_ffff,
    0x8000_0000_0000_0001,
    0x7fef_ffff_ffff_ffff,
    u64::MAX,
];

fn pick_bits(choice: u64, random: u64) -> u64 {
    match SPECIAL_BITS.get(choice as usize) {
        Some(&bits) => bits,
        None => random,
    }
}

fn pick_paths(choice: u64, hi: u64, lo: u64) -> u128 {
    match choice {
        0 => 0,
        1 => 1,
        2 => u128::from(u64::MAX),
        3 => u128::from(u64::MAX) + 1,
        4 => u128::MAX,
        5 => (u128::from(hi) << 64) | u128::from(lo),
        _ => u128::from(lo % 100_000),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn outcome_encoding_matches_the_reference_and_round_trips_bit_for_bit(
        n in 1usize..24,
        seed_base in 0u64..(u64::MAX / 2),
        picks in proptest::collection::vec((0u64..16, 0u64..16, 0u64..8, 0u64..2), 24..25),
        randoms in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 24..25),
    ) {
        let outcomes: Vec<ExperimentOutcome> = (0..n)
            .map(|k| {
                let (mct_pick, period_pick, paths_pick, res) = picks[k];
                let (a, b, c) = randoms[k];
                ExperimentOutcome {
                    seed: seed_base + k as u64,
                    mct: f64::from_bits(pick_bits(mct_pick, a)),
                    period: f64::from_bits(pick_bits(period_pick, b)),
                    resolution: if res == 0 { Resolution::Exact } else { Resolution::Simulated },
                    num_paths: pick_paths(paths_pick, a ^ c, c),
                }
            })
            .collect();
        let campaign = CampaignSpec { count: n, seed_base, ..spec(CommModel::Strict, n, 0) };
        let manifest = ShardManifest::new(campaign, 0, 1).unwrap();
        let mut text = format!("{}\n", manifest.to_line());
        let mut sum = Checksum::new();
        for o in &outcomes {
            let line = outcome_line(o);
            prop_assert_eq!(&line, &reference_outcome_line(o));
            sum.update(line.as_bytes());
            text.push_str(&line);
        }
        text.push_str(&format!(
            "{{\"kind\":\"footer\",\"records\":{n},\"checksum\":\"{}\"}}\n",
            sum.hex()
        ));
        let dir = scratch_dir("roundtrip");
        let path = dir.join("s0.ndjson");
        std::fs::write(&path, &text).unwrap();
        let (back_manifest, back) = read_shard(&path).expect("a well-formed shard reads back");
        prop_assert_eq!(back_manifest, manifest);
        prop_assert_eq!(back.len(), outcomes.len());
        for (got, want) in back.iter().zip(&outcomes) {
            prop_assert_eq!(got.seed, want.seed);
            prop_assert_eq!(got.num_paths, want.num_paths);
            prop_assert_eq!(got.mct.to_bits(), want.mct.to_bits());
            prop_assert_eq!(got.period.to_bits(), want.period.to_bits());
            prop_assert_eq!(got.resolution, want.resolution);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Hostile input: the shard scanner (through `read_shard` and `merge_paths`)
// and the trace reader see arbitrary bytes, truncations and byte flips.
// Every input must come back as `Ok` or a typed error, and no file whose
// footer checksum disagrees with its bytes may be accepted as complete.
// ---------------------------------------------------------------------------

/// How a hostile input is derived from a valid file.
#[derive(Clone, Copy, Debug)]
enum Damage {
    /// Replace the file with arbitrary bytes.
    Arbitrary,
    /// Keep only a prefix.
    Truncate,
    /// XOR one byte with a nonzero mask.
    Flip,
    /// Replace one line with arbitrary bytes.
    SpliceLine,
}

struct Damaged {
    bytes: Vec<u8>,
    damage: Damage,
    /// Byte position the damage starts at (the cut for a truncation).
    at: usize,
}

fn damage(valid: &[u8], mode: usize, frac: f64, mask: u8, junk: &[u8]) -> Damaged {
    let pos = ((valid.len() as f64 * frac) as usize).min(valid.len() - 1);
    match mode {
        0 => Damaged { bytes: junk.to_vec(), damage: Damage::Arbitrary, at: 0 },
        1 => Damaged { bytes: valid[..pos].to_vec(), damage: Damage::Truncate, at: pos },
        2 => {
            let mut bytes = valid.to_vec();
            bytes[pos] ^= mask;
            Damaged { bytes, damage: Damage::Flip, at: pos }
        }
        _ => {
            let start = valid[..pos].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            let end =
                valid[pos..].iter().position(|&b| b == b'\n').map_or(valid.len(), |i| pos + i);
            let mut bytes = valid[..start].to_vec();
            bytes.extend_from_slice(junk);
            bytes.extend_from_slice(&valid[end..]);
            Damaged { bytes, damage: Damage::SpliceLine, at: start }
        }
    }
}

/// Arbitrary bytes biased towards record syntax, so the scanners get past
/// their first byte often enough to exercise every branch.
fn junk_strategy() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"{}\":,0123456789\n\\ kindoutcmefrsa_bhpl\x00\xc3\xa9\xff";
    proptest::collection::vec((0usize..ALPHABET.len() + 8, 0u8..=255), 0..240).prop_map(|picks| {
        picks.into_iter().map(|(i, raw)| ALPHABET.get(i).copied().unwrap_or(raw)).collect()
    })
}

/// The FNV-1a checksum of every line strictly between the first line and
/// the footer, and the checksum the footer claims, if the text has that
/// shape. Independent of the reader under test.
fn body_and_claimed_checksums(text: &str) -> Option<(String, String)> {
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let (footer, body) = lines.split_last()?;
    let claimed = footer.split("\"checksum\":\"").nth(1)?.get(..16)?.to_string();
    let mut sum = Checksum::new();
    for line in body.get(1..)? {
        sum.update(line.as_bytes());
    }
    Some((sum.hex(), claimed))
}

/// Three complete shard files of one small campaign, written once.
fn valid_shards() -> &'static [Vec<u8>; 3] {
    static SHARDS: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
    SHARDS.get_or_init(|| {
        let spec = spec(CommModel::Strict, 15, 600);
        let dir = scratch_dir("hostile-src");
        let shards = std::array::from_fn(|i| {
            let path = dir.join(format!("s{i}.ndjson"));
            run_shard(&spec, i, 3, 1, &path, None).unwrap();
            std::fs::read(&path).unwrap()
        });
        let _ = std::fs::remove_dir_all(&dir);
        shards
    })
}

/// A complete trace file built with the codec: header, spans on two
/// threads, an event, a counter, a spanstat and the checksummed footer.
fn valid_trace() -> Vec<u8> {
    let mut text = String::new();
    let mut records = 0u64;
    let mut record = |text: &mut String, encode: &dyn Fn(&mut String)| {
        encode(text);
        records += 1;
    };
    record(&mut text, &|l| {
        ndjson::begin(l, "trace");
        ndjson::put_str(l, "format", "repwf-trace/v1");
        ndjson::put_str(l, "command", "campaign");
        ndjson::end(l);
    });
    for (name, tid, depth, start, dur) in
        [("experiment", 1, 0, 10, 40), ("solve", 1, 1, 12, 30), ("command", 0, 0, 0, 100)]
    {
        record(&mut text, &|l| {
            ndjson::begin(l, "span");
            ndjson::put_str(l, "name", name);
            ndjson::put_u64(l, "tid", tid);
            ndjson::put_u64(l, "depth", depth);
            ndjson::put_u64(l, "start_ns", start);
            ndjson::put_u64(l, "dur_ns", dur);
            ndjson::end(l);
        });
    }
    record(&mut text, &|l| {
        ndjson::begin(l, "event");
        ndjson::put_str(l, "name", "lease_claim");
        ndjson::put_u64(l, "tid", 0);
        ndjson::put_u64(l, "at_ns", 5);
        ndjson::put_u64(l, "unit", 3);
        ndjson::end(l);
    });
    record(&mut text, &|l| {
        ndjson::begin(l, "counter");
        ndjson::put_str(l, "name", "csr_builds");
        ndjson::put_u64(l, "value", 12);
        ndjson::end(l);
    });
    record(&mut text, &|l| {
        ndjson::begin(l, "spanstat");
        ndjson::put_str(l, "name", "solve");
        for key in ["count", "sum_ns", "min_ns", "max_ns"] {
            ndjson::put_u64(l, key, 30);
        }
        ndjson::end(l);
    });
    let mut sum = Checksum::new();
    sum.update(text.as_bytes());
    ndjson::begin(&mut text, "footer");
    ndjson::put_u64(&mut text, "records", records);
    ndjson::put_u64(&mut text, "total_ns", 120);
    ndjson::put_str(&mut text, "checksum", &sum.hex());
    ndjson::end(&mut text);
    text.into_bytes()
}

#[test]
fn the_undamaged_files_are_accepted() {
    let dir = scratch_dir("hostile-valid");
    let paths: Vec<PathBuf> = (0..3).map(|i| dir.join(format!("s{i}.ndjson"))).collect();
    for (path, bytes) in paths.iter().zip(valid_shards()) {
        std::fs::write(path, bytes).unwrap();
        read_shard(path).expect("valid shard");
    }
    assert_eq!(merge_paths(&paths).expect("valid set").accum.done, 15);
    let trace = dir.join("trace.ndjson");
    std::fs::write(&trace, valid_trace()).unwrap();
    let report = read_trace(&trace).expect("valid trace");
    assert_eq!((report.records, report.total_ns), (7, 120));
    assert!(report.phases.iter().any(|p| p.name == "solve" && p.sum_ns == 30));
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn shard_readers_return_typed_errors_on_hostile_bytes(
        victim in 0usize..3,
        mode in 0usize..4,
        frac in 0.0f64..1.0,
        mask in 1u8..=255,
        junk in junk_strategy(),
    ) {
        let valid = &valid_shards()[victim];
        let manifest_len = valid.iter().position(|&b| b == b'\n').unwrap() + 1;
        let d = damage(valid, mode, frac, mask, &junk);
        let dir = scratch_dir("hostile-shard");
        let paths: Vec<PathBuf> = (0..3).map(|i| dir.join(format!("s{i}.ndjson"))).collect();
        for (i, path) in paths.iter().enumerate() {
            let bytes = if i == victim { &d.bytes } else { &valid_shards()[i] };
            std::fs::write(path, bytes).unwrap();
        }
        let read = read_shard(&paths[victim]);
        let merged = merge_paths(&paths);
        if d.bytes != *valid {
            // The manifest is outside the checksum, so a flip there may
            // still describe a consistent shard; every byte after it is
            // bound by the checksum, the footer or the line structure.
            let bound = d.at >= manifest_len || matches!(d.damage, Damage::Truncate);
            if bound {
                prop_assert!(read.is_err(), "{:?} at {} accepted by read_shard", d.damage, d.at);
                prop_assert!(merged.is_err(), "{:?} at {} accepted by merge", d.damage, d.at);
            }
        }
        if read.is_ok() {
            let text = String::from_utf8(d.bytes.clone()).expect("accepted text is UTF-8");
            let (body, claimed) =
                body_and_claimed_checksums(&text).expect("an accepted shard has a footer");
            prop_assert!(body == claimed, "accepted a shard whose checksum disagrees");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_reader_returns_typed_errors_on_hostile_bytes(
        mode in 0usize..4,
        frac in 0.0f64..1.0,
        mask in 1u8..=255,
        junk in junk_strategy(),
    ) {
        let valid = valid_trace();
        let footer_start = valid[..valid.len() - 1].iter().rposition(|&b| b == b'\n').unwrap() + 1;
        let d = damage(&valid, mode, frac, mask, &junk);
        let dir = scratch_dir("hostile-trace");
        let path = dir.join("trace.ndjson");
        std::fs::write(&path, &d.bytes).unwrap();
        let report = read_trace(&path);
        // Every line before the footer is checksummed. In the footer,
        // `total_ns` is not, and a cut that only drops the final newline
        // leaves the same lines.
        let bound = match d.damage {
            Damage::Truncate => d.at < valid.len() - 1,
            Damage::Arbitrary => false,
            Damage::Flip | Damage::SpliceLine => d.at < footer_start,
        };
        if bound {
            prop_assert!(report.is_err(), "{:?} at {} accepted", d.damage, d.at);
        }
        if report.is_ok() {
            let text = String::from_utf8(d.bytes.clone()).expect("accepted text is UTF-8");
            let (_, claimed) =
                body_and_claimed_checksums(&text).expect("an accepted trace has a footer");
            let lines: Vec<&str> = text.split_inclusive('\n').collect();
            let mut sum = Checksum::new();
            for line in &lines[..lines.len() - 1] {
                sum.update(line.as_bytes());
            }
            prop_assert!(sum.hex() == claimed, "accepted a trace whose checksum disagrees");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Manifests with extreme but well-formed numbers: seeds at the top of
/// the u64 range, huge shard counts and campaign sizes. Each is refused
/// with a typed error, without overflowing or allocating by the count.
#[test]
fn extreme_manifest_numbers_are_typed_errors() {
    let dir = scratch_dir("extreme-manifest");
    let base = spec(CommModel::Strict, 4, 1);
    let footer = |records: usize, covered: bool| {
        let covered = if covered { format!("\"covered\":{records},") } else { String::new() };
        format!(
            "{{\"kind\":\"footer\",\"records\":{records},{covered}\"checksum\":\"{}\"}}\n",
            Checksum::new().hex()
        )
    };
    let doctor = |line: String, edits: &[(&str, String)]| {
        let mut line = line;
        for (key, value) in edits {
            let start = line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
            let end = start + line[start..].find([',', '}']).unwrap();
            line.replace_range(start..end, value);
        }
        line
    };
    let fraction = ShardManifest::new(base, 1, 2).unwrap().to_line();
    let range = ShardManifest::new_range(base, 0, 0).unwrap().to_line();
    let huge = (u64::MAX / 2).to_string();
    // (manifest, whether the lone file is a valid shard on its own)
    let cases = [
        // Seeds past the top of u64.
        (doctor(fraction.clone(), &[("seed_base", u64::MAX.to_string())]), false),
        (
            doctor(
                fraction.clone(),
                &[("seed_base", u64::MAX.to_string()), ("seed_start", "1".to_string())],
            ),
            false,
        ),
        // A claimed slice at the top of u64.
        (doctor(fraction.clone(), &[("seed_start", u64::MAX.to_string())]), false),
        // One empty shard of a shard set far larger than any merge could
        // be handed: readable alone, never mergeable.
        (
            doctor(
                fraction.clone(),
                &[
                    ("count", "0".to_string()),
                    ("shard_index", "0".to_string()),
                    ("num_shards", huge.clone()),
                    ("seed_start", "1".to_string()),
                    ("shard_count", "0".to_string()),
                ],
            ),
            true,
        ),
        // An empty range unit of an enormous campaign.
        (doctor(range.clone(), &[("count", huge.clone())]), true),
    ];
    for (k, (manifest, readable)) in cases.iter().enumerate() {
        for covered in [false, true] {
            let path = dir.join(format!("m{k}-{covered}.ndjson"));
            std::fs::write(&path, format!("{manifest}\n{}", footer(0, covered))).unwrap();
            if !readable {
                assert!(read_shard(&path).is_err(), "case {k}: {manifest}");
            }
            assert!(merge_paths(&[&path]).is_err(), "case {k}: {manifest}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
