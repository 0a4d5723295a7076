//! A plain-text instance format, so workflows can be described in files and
//! analyzed by the `repwf` CLI (`--file`) without writing Rust.
//!
//! ```text
//! # comment
//! workflow v1
//! stages   <w_0> <w_1> … <w_{n-1}>
//! files    <δ_0> … <δ_{n-2}>       # linear chain: file k goes S_k → S_{k+1}
//! edge <src> <dst> <δ>             # series-parallel DAG: repeated, instead of `files`
//! speeds   <Π_0> … <Π_{p-1}>
//! bandwidth <u> <v> <b>         # repeated; unset links default to `default`
//! default-bandwidth <b>
//! map <stage> <proc> [<proc>…]  # round-robin order; one line per stage
//! ```
//!
//! `files` and `edge` are mutually exclusive: chains use the compact
//! `files` line (serialization is byte-identical to the pre-DAG format),
//! general series-parallel workflows list one `edge` line per precedence
//! edge.
//!
//! Writing and re-reading an instance reproduces it exactly on the
//! processors/links the mapping uses (round-trip tested).

use crate::model::{Instance, Mapping, ModelError, Pipeline, Platform};
use std::fmt::Write as _;

/// Parse errors for the text format.
#[derive(Debug, Clone, PartialEq)]
pub enum TextError {
    /// Missing or wrong `workflow v1` header.
    BadHeader,
    /// Malformed line (1-based index).
    BadLine(usize),
    /// A required section is missing.
    Missing(&'static str),
    /// Model-level validation failed after parsing.
    Model(ModelError),
}

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TextError::BadHeader => write!(f, "expected `workflow v1` header"),
            TextError::BadLine(n) => write!(f, "malformed line {n}"),
            TextError::Missing(s) => write!(f, "missing section `{s}`"),
            TextError::Model(e) => write!(f, "invalid instance: {e}"),
        }
    }
}

impl std::error::Error for TextError {}

impl From<ModelError> for TextError {
    fn from(e: ModelError) -> Self {
        TextError::Model(e)
    }
}

/// Serializes an instance to the text format (lists every used link's
/// bandwidth explicitly; unused links are emitted only when they differ
/// from the default).
pub fn to_text(inst: &Instance) -> String {
    let mut out = String::from("workflow v1\n");
    let works: Vec<String> = inst.pipeline.works().iter().map(f64::to_string).collect();
    let _ = writeln!(out, "stages {}", works.join(" "));
    if inst.pipeline.is_linear() {
        let files: Vec<String> = inst.pipeline.file_sizes().iter().map(f64::to_string).collect();
        if !files.is_empty() {
            let _ = writeln!(out, "files {}", files.join(" "));
        }
    } else {
        for e in 0..inst.pipeline.num_edges() {
            let (src, dst) = inst.pipeline.edge(e);
            let _ = writeln!(out, "edge {src} {dst} {}", inst.pipeline.file(e));
        }
    }
    let p = inst.platform.num_procs();
    let speeds: Vec<String> = (0..p).map(|u| inst.platform.speed(u).to_string()).collect();
    let _ = writeln!(out, "speeds {}", speeds.join(" "));
    let _ = writeln!(out, "default-bandwidth 1");
    for u in 0..p {
        for v in 0..p {
            let b = inst.platform.bandwidth(u, v);
            if u != v && b != 1.0 {
                let _ = writeln!(out, "bandwidth {u} {v} {b}");
            }
        }
    }
    for (i, procs) in inst.mapping.assignment().iter().enumerate() {
        let list: Vec<String> = procs.iter().map(usize::to_string).collect();
        let _ = writeln!(out, "map {i} {}", list.join(" "));
    }
    out
}

/// Parses an instance from the text format.
pub fn from_text(text: &str) -> Result<Instance, TextError> {
    let mut works: Option<Vec<f64>> = None;
    let mut files: Vec<f64> = Vec::new();
    let mut edges: Vec<(crate::model::StageId, crate::model::StageId, f64)> = Vec::new();
    let mut speeds: Option<Vec<f64>> = None;
    let mut default_bw = 1.0f64;
    let mut links: Vec<(usize, usize, f64)> = Vec::new();
    let mut maps: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut header = false;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if !header {
            if line == "workflow v1" {
                header = true;
                continue;
            }
            return Err(TextError::BadHeader);
        }
        let mut it = line.split_whitespace();
        let key = it.next().ok_or(TextError::BadLine(lineno))?;
        let nums = |it: std::str::SplitWhitespace<'_>| -> Result<Vec<f64>, TextError> {
            it.map(|s| s.parse::<f64>().map_err(|_| TextError::BadLine(lineno))).collect()
        };
        match key {
            "stages" => works = Some(nums(it)?),
            "files" => files = nums(it)?,
            "edge" => {
                let src: usize =
                    it.next().and_then(|s| s.parse().ok()).ok_or(TextError::BadLine(lineno))?;
                let dst: usize =
                    it.next().and_then(|s| s.parse().ok()).ok_or(TextError::BadLine(lineno))?;
                let size: f64 =
                    it.next().and_then(|s| s.parse().ok()).ok_or(TextError::BadLine(lineno))?;
                edges.push((src, dst, size));
            }
            "speeds" => speeds = Some(nums(it)?),
            "default-bandwidth" => {
                default_bw =
                    it.next().and_then(|s| s.parse().ok()).ok_or(TextError::BadLine(lineno))?;
            }
            "bandwidth" => {
                let u: usize =
                    it.next().and_then(|s| s.parse().ok()).ok_or(TextError::BadLine(lineno))?;
                let v: usize =
                    it.next().and_then(|s| s.parse().ok()).ok_or(TextError::BadLine(lineno))?;
                let b: f64 =
                    it.next().and_then(|s| s.parse().ok()).ok_or(TextError::BadLine(lineno))?;
                links.push((u, v, b));
            }
            "map" => {
                let stage: usize =
                    it.next().and_then(|s| s.parse().ok()).ok_or(TextError::BadLine(lineno))?;
                let procs: Result<Vec<usize>, _> = it
                    .map(|s| s.parse::<usize>().map_err(|_| TextError::BadLine(lineno)))
                    .collect();
                maps.push((stage, procs?));
            }
            _ => return Err(TextError::BadLine(lineno)),
        }
    }
    if !header {
        return Err(TextError::BadHeader);
    }

    let works = works.ok_or(TextError::Missing("stages"))?;
    let speeds = speeds.ok_or(TextError::Missing("speeds"))?;
    if !edges.is_empty() && !files.is_empty() {
        return Err(TextError::Missing("either `files` or `edge` lines, not both"));
    }
    let pipeline = if edges.is_empty() {
        Pipeline::new(works, files)?
    } else {
        Pipeline::from_edges(works, edges)?
    };
    let p = speeds.len();
    Platform::check_num_procs(p)?;
    let mut platform = Platform::uniform(p, 1.0, default_bw);
    for (u, speed) in speeds.into_iter().enumerate() {
        platform.set_speed(u, speed);
    }
    for (u, v, b) in links {
        if u >= p || v >= p {
            return Err(TextError::Model(ModelError::UnknownProcessor(u.max(v))));
        }
        platform.set_bandwidth(u, v, b);
    }
    maps.sort_by_key(|&(stage, _)| stage);
    let mut assignment = Vec::with_capacity(maps.len());
    for (expect, (stage, procs)) in maps.into_iter().enumerate() {
        if stage != expect {
            return Err(TextError::Missing("map (one line per stage, in order)"));
        }
        assignment.push(procs);
    }
    let mapping = Mapping::new(assignment)?;
    Ok(Instance::new(pipeline, platform, mapping)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{example_a, example_b};
    use crate::model::{CommModel, MAX_PROCS};
    use crate::period::{compute_period, Method};

    #[test]
    fn round_trip_examples() {
        for inst in [example_a(), example_b()] {
            let text = to_text(&inst);
            let back = from_text(&text).unwrap();
            // Pipelines and mappings must match exactly.
            assert_eq!(inst.pipeline, back.pipeline);
            assert_eq!(inst.mapping, back.mapping);
            // Platform must match on every used time.
            for i in 0..inst.num_stages() {
                for &u in inst.mapping.procs(i) {
                    assert!((inst.comp_time(i, u) - back.comp_time(i, u)).abs() < 1e-12);
                }
            }
            for i in 0..inst.num_stages() - 1 {
                for &u in inst.mapping.procs(i) {
                    for &v in inst.mapping.procs(i + 1) {
                        assert!((inst.comm_time(i, u, v) - back.comm_time(i, u, v)).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn minimal_document() {
        let text = "workflow v1\nstages 5 10\nfiles 2\nspeeds 1 1 1\nmap 0 0\nmap 1 1 2\n";
        let inst = from_text(text).unwrap();
        assert_eq!(inst.num_stages(), 2);
        assert_eq!(inst.mapping.replica_counts(), vec![1, 2]);
        assert_eq!(inst.comp_time(1, 1), 10.0);
    }

    #[test]
    fn comments_ignored() {
        let text = "# top\nworkflow v1\nstages 1\n# mid\nspeeds 1\nmap 0 0\n";
        assert!(from_text(text).is_ok());
    }

    #[test]
    fn errors_reported() {
        assert_eq!(from_text("nope\n"), Err(TextError::BadHeader));
        assert_eq!(from_text("workflow v1\nstages x\n"), Err(TextError::BadLine(2)));
        assert_eq!(
            from_text("workflow v1\nspeeds 1\nmap 0 0\n"),
            Err(TextError::Missing("stages"))
        );
        // out-of-order map lines
        let text = "workflow v1\nstages 1 1\nfiles 1\nspeeds 1 1\nmap 1 1\nmap 0 0\n";
        assert!(from_text(text).is_ok(), "sorted internally");
        let text = "workflow v1\nstages 1 1\nfiles 1\nspeeds 1 1\nmap 0 0\nmap 2 1\n";
        assert!(matches!(from_text(text), Err(TextError::Missing(_))));
    }

    #[test]
    fn diamond_round_trip() {
        let pipeline = Pipeline::from_edges(
            vec![4.0, 6.0, 5.0, 3.0],
            vec![(0, 1, 2.0), (0, 2, 3.0), (1, 3, 1.0), (2, 3, 2.5)],
        )
        .unwrap();
        let platform = crate::model::Platform::uniform(5, 1.0, 1.0);
        let mapping = Mapping::new(vec![vec![0], vec![1, 2], vec![3], vec![4]]).unwrap();
        let inst = Instance::new(pipeline, platform, mapping).unwrap();
        let text = to_text(&inst);
        assert!(text.contains("edge 0 1 2"), "DAGs serialize as edge lines:\n{text}");
        assert!(!text.contains("\nfiles"), "no files line for a DAG");
        let back = from_text(&text).unwrap();
        assert_eq!(inst.pipeline, back.pipeline);
        assert_eq!(inst.mapping, back.mapping);
    }

    #[test]
    fn chain_serialization_unchanged_and_edge_files_exclusive() {
        // A chain still uses the compact `files` line.
        let text = to_text(&example_a());
        assert!(text.contains("\nfiles "));
        assert!(!text.contains("\nedge "));
        // Mixing `files` and `edge` is rejected.
        let bad = "workflow v1\nstages 1 1\nfiles 1\nedge 0 1 1\nspeeds 1 1\nmap 0 0\nmap 1 1\n";
        assert!(matches!(from_text(bad), Err(TextError::Missing(_))));
    }

    #[test]
    fn huge_processor_count_is_a_typed_error_not_an_allocation() {
        // 20 000 speeds would ask for a 3.2 GB bandwidth matrix.
        let speeds = vec!["1"; 20_000].join(" ");
        let text = format!("workflow v1\nstages 1\nspeeds {speeds}\nmap 0 0\n");
        assert_eq!(
            from_text(&text),
            Err(TextError::Model(ModelError::TooManyProcessors { procs: 20_000, max: MAX_PROCS }))
        );
        let speeds = vec!["1"; MAX_PROCS + 1].join(" ");
        let text = format!("workflow v1\nstages 1\nspeeds {speeds}\nmap 0 0\n");
        assert!(matches!(
            from_text(&text),
            Err(TextError::Model(ModelError::TooManyProcessors { procs, .. })) if procs == MAX_PROCS + 1
        ));
        assert_eq!(crate::model::Platform::check_num_procs(MAX_PROCS), Ok(()));
    }

    #[test]
    fn overflowing_times_in_example_a_are_typed_errors() {
        let text = to_text(&crate::fixtures::example_a());
        let edit = |prefix: &str, line: &str| -> String {
            text.lines()
                .map(|l| if l.starts_with(prefix) { line } else { l })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            from_text(&edit("bandwidth 2 4 ", "bandwidth 2 4 5e-324")),
            Err(TextError::Model(ModelError::TimeOverflow {
                stage: 1,
                edge: Some(1),
                from: 2,
                to: 4
            }))
        );
        assert_eq!(
            from_text(&edit("speeds ", "speeds 5e-324 1 1 1 1 1 1")),
            Err(TextError::Model(ModelError::TimeOverflow {
                stage: 0,
                edge: None,
                from: 0,
                to: 0
            }))
        );
    }

    #[test]
    fn model_errors_surface() {
        // processor reused across stages
        let text = "workflow v1\nstages 1 1\nfiles 1\nspeeds 1 1\nmap 0 0\nmap 1 0\n";
        assert!(matches!(from_text(text), Err(TextError::Model(ModelError::ProcessorReused(0)))));
    }

    /// Tokens that replace one space-separated token of a valid document
    /// ("" deletes it).
    const HOSTILE_TOKENS: [&str; 10] =
        ["NaN", "5e-324", "18446744073709551615", "-1", "inf", "0", "1e308", "x", "", "map"];
    /// Lines inserted into a valid document; `None` duplicates one of its
    /// `map` lines.
    const HOSTILE_LINES: [Option<&str>; 8] = [
        Some("edge 5 1 1"),
        None,
        Some("map 0"),
        Some("speeds"),
        Some("bandwidth 0 0 0"),
        Some("default-bandwidth 0"),
        Some("workflow v1"),
        Some("stages 18446744073709551615"),
    ];

    /// Damages `valid` by `mode`: 0 arbitrary bytes, 1 truncation, 2 a
    /// single-byte flip, 3 a token splice, 4 a line splice.
    fn damage(valid: &str, mode: usize, frac: f64, mask: u8, pick: usize, junk: &[u8]) -> String {
        let bytes = valid.as_bytes();
        let at = ((bytes.len() as f64 * frac) as usize).min(bytes.len() - 1);
        match mode {
            0 => String::from_utf8_lossy(junk).into_owned(),
            1 => String::from_utf8_lossy(&bytes[..at]).into_owned(),
            2 => {
                let mut flipped = bytes.to_vec();
                flipped[at] ^= mask;
                String::from_utf8_lossy(&flipped).into_owned()
            }
            3 => {
                let mut tokens: Vec<&str> = valid.split(' ').collect();
                let k = at % tokens.len();
                tokens[k] = HOSTILE_TOKENS[pick % HOSTILE_TOKENS.len()];
                tokens.join(" ")
            }
            _ => {
                let mut lines: Vec<&str> = valid.lines().collect();
                let dup = lines.iter().copied().find(|l| l.starts_with("map ")).unwrap();
                let line = HOSTILE_LINES[pick % HOSTILE_LINES.len()].unwrap_or(dup);
                lines.insert(at % (lines.len() + 1), line);
                lines.join("\n")
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        #[test]
        fn hostile_text_is_a_typed_error_or_a_solvable_instance(
            example in 0usize..2,
            mode in 0usize..5,
            frac in 0.0f64..1.0,
            (mask, pick) in (1u8..=255, 0usize..64),
            junk in proptest::collection::vec(0u8..=255, 0..96),
        ) {
            let valid = to_text(&if example == 0 { example_a() } else { example_b() });
            let text = damage(&valid, mode, frac, mask, pick, &junk);
            let run = std::panic::catch_unwind(|| {
                // Every `Ok` instance must solve or fail with a typed error.
                if let Ok(inst) = from_text(&text) {
                    for model in [CommModel::Overlap, CommModel::Strict] {
                        let _ = compute_period(&inst, model, Method::Auto);
                    }
                }
            });
            proptest::prop_assert!(run.is_ok(), "panicked on {text:?}");
        }
    }
}
