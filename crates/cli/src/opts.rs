//! Tiny dependency-free option parsing shared by the subcommands.

use repwf_core::fixtures::{example_a, example_b, example_c};
use repwf_core::model::{CommModel, Instance};
use repwf_core::period::Method;
use repwf_gen::Range;
use std::str::FromStr;

/// Parsed command-line tokens: `--name value` pairs, `--switch`es and
/// positional arguments, validated against the declared sets.
pub struct Opts {
    positional: Vec<String>,
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Opts {
    /// Parses `args`, accepting only the declared option names.
    pub fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Opts, String> {
        let mut out = Opts { positional: Vec::new(), pairs: Vec::new(), switches: Vec::new() };
        let mut k = 0;
        while k < args.len() {
            let token = args[k].as_str();
            if valued.contains(&token) {
                let value =
                    args.get(k + 1).ok_or_else(|| format!("option {token} needs a value"))?;
                out.pairs.push((token.to_string(), value.clone()));
                k += 2;
            } else if switches.contains(&token) {
                out.switches.push(token.to_string());
                k += 1;
            } else if token.starts_with('-') && token != "-" {
                return Err(format!("unknown option {token}"));
            } else {
                out.positional.push(token.to_string());
                k += 1;
            }
        }
        Ok(out)
    }

    /// Positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Last value given for `name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|n| n == name)
    }

    /// Parses the value of `name`, or returns `default` when absent.
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("invalid value for {name}: {raw:?}")),
        }
    }
}

/// Loads the instance selected by `--workflow` / `--file` / `--example`
/// (default: Example A).
pub fn load_instance(opts: &Opts) -> Result<Instance, String> {
    if let Some(path) = opts.get("--workflow") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return workflow_from_json(&text).map_err(|e| format!("cannot parse {path}: {e}"));
    }
    if let Some(path) = opts.get("--file") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return repwf_core::textfmt::from_text(&text)
            .map_err(|e| format!("cannot parse {path}: {e}"));
    }
    match opts.get("--example").unwrap_or("a") {
        "a" => Ok(example_a()),
        "b" => Ok(example_b()),
        "c" => Ok(example_c()),
        other => Err(format!("unknown example {other:?} (expected a, b or c)")),
    }
}

fn json_f64_array(v: &repwf_dist::json::JsonValue, key: &str) -> Result<Vec<f64>, String> {
    v.get(key)
        .and_then(|x| x.as_arr())
        .ok_or_else(|| format!("missing array \"{key}\""))?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| format!("\"{key}\" must contain numbers")))
        .collect()
}

/// Parses a JSON series-parallel workflow instance:
///
/// ```json
/// {
///   "works": [4, 6, 5, 3],
///   "edges": [[0, 1, 2.0], [0, 2, 3.0], [1, 3, 1.0], [2, 3, 2.0]],
///   "speeds": [1, 1, 1, 1, 1, 1],
///   "bandwidth": 1.0,
///   "mapping": [[0], [1, 2], [3, 4], [5]]
/// }
/// ```
///
/// `edges` lists `[src, dst, size]` triples; a linear chain may instead
/// give `"files": [...]` (one size per stage boundary). `bandwidth` is
/// the uniform link bandwidth; an optional `"bandwidths"` array of `p²`
/// row-major values overrides individual links.
pub fn workflow_from_json(text: &str) -> Result<Instance, String> {
    use repwf_core::model::{Mapping, Pipeline, Platform};
    let v = repwf_dist::json::parse(text).map_err(|e| e.to_string())?;
    let works = json_f64_array(&v, "works")?;
    let pipeline = if let Some(es) = v.get("edges") {
        let arr = es.as_arr().ok_or("\"edges\" must be an array")?;
        let mut edges = Vec::with_capacity(arr.len());
        for e in arr {
            let t =
                e.as_arr().filter(|t| t.len() == 3).ok_or("each edge must be [src, dst, size]")?;
            let src = t[0].as_u64().ok_or("edge src must be an integer")? as usize;
            let dst = t[1].as_u64().ok_or("edge dst must be an integer")? as usize;
            let size = t[2].as_f64().ok_or("edge size must be a number")?;
            edges.push((src, dst, size));
        }
        Pipeline::from_edges(works, edges).map_err(|e| e.to_string())?
    } else {
        let files = json_f64_array(&v, "files")
            .map_err(|_| "need \"edges\" (DAG) or \"files\" (chain)".to_string())?;
        Pipeline::new(works, files).map_err(|e| e.to_string())?
    };
    let speeds = json_f64_array(&v, "speeds")?;
    let p = speeds.len();
    Platform::check_num_procs(p).map_err(|e| e.to_string())?;
    let default_bw = v.get("bandwidth").and_then(|b| b.as_f64()).unwrap_or(1.0);
    let mut platform = Platform::uniform(p, 1.0, default_bw);
    for (u, s) in speeds.into_iter().enumerate() {
        platform.set_speed(u, s);
    }
    if v.get("bandwidths").is_some() {
        let flat = json_f64_array(&v, "bandwidths")?;
        if flat.len() != p * p {
            return Err(format!("\"bandwidths\" must have p² = {} entries", p * p));
        }
        for (k, b) in flat.into_iter().enumerate() {
            platform.set_bandwidth(k / p, k % p, b);
        }
    }
    let mapping_arr =
        v.get("mapping").and_then(|m| m.as_arr()).ok_or("missing array \"mapping\"")?;
    let mut assignment = Vec::with_capacity(mapping_arr.len());
    for procs in mapping_arr {
        let procs = procs.as_arr().ok_or("\"mapping\" must be an array of arrays")?;
        let row: Result<Vec<usize>, String> = procs
            .iter()
            .map(|x| {
                x.as_u64()
                    .map(|u| u as usize)
                    .ok_or_else(|| "\"mapping\" entries must be processor ids".to_string())
            })
            .collect();
        assignment.push(row?);
    }
    let mapping = Mapping::new(assignment).map_err(|e| e.to_string())?;
    Instance::new(pipeline, platform, mapping).map_err(|e| e.to_string())
}

/// Parses `--model` (default: overlap).
pub fn parse_model(opts: &Opts) -> Result<CommModel, String> {
    match opts.get("--model").unwrap_or("overlap") {
        "overlap" => Ok(CommModel::Overlap),
        "strict" => Ok(CommModel::Strict),
        other => Err(format!("unknown model {other:?} (expected overlap or strict)")),
    }
}

/// Human-readable short name of a model (the spelling shard manifests
/// and the campaign JSON document use).
pub fn model_name(model: CommModel) -> &'static str {
    repwf_dist::manifest::model_name(model)
}

/// Parses `--method` (default: auto).
pub fn parse_method(opts: &Opts) -> Result<Method, String> {
    match opts.get("--method").unwrap_or("auto") {
        "auto" => Ok(Method::Auto),
        "polynomial" => Ok(Method::Polynomial),
        "full-tpn" => Ok(Method::FullTpn),
        other => Err(format!("unknown method {other:?} (expected auto, polynomial or full-tpn)")),
    }
}

/// Parses a time range: `lo..hi` or a single constant `v`. Bounds must be
/// finite: `nan` and `inf` are usage errors, not times.
pub fn parse_range(raw: &str) -> Result<Range, String> {
    if let Some((lo, hi)) = raw.split_once("..") {
        let lo: f64 = lo.parse().map_err(|_| format!("invalid range bound {lo:?}"))?;
        let hi: f64 = hi.parse().map_err(|_| format!("invalid range bound {hi:?}"))?;
        if !(lo > 0.0 && hi >= lo && hi.is_finite()) {
            return Err(format!("range {raw:?} must satisfy 0 < lo <= hi, both finite"));
        }
        Ok(Range::new(lo, hi))
    } else {
        let v: f64 = raw.parse().map_err(|_| format!("invalid range {raw:?}"))?;
        if !(v > 0.0 && v.is_finite()) {
            return Err(format!("range constant {raw:?} must be positive and finite"));
        }
        Ok(Range::constant(v))
    }
}

/// `--threads` with the hardware default.
pub fn parse_threads(opts: &Opts) -> Result<usize, String> {
    let threads = opts.get_or("--threads", repwf_par::max_threads())?;
    if threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    Ok(threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repwf_core::model::MAX_PROCS;
    use repwf_core::period::compute_period;

    #[test]
    fn workflow_json_rejects_a_huge_processor_count_before_allocating() {
        let doc = |p: usize| {
            let speeds = vec!["1"; p].join(", ");
            format!("{{\"works\": [1], \"files\": [], \"speeds\": [{speeds}], \"mapping\": [[0]]}}")
        };
        let err = workflow_from_json(&doc(20_000)).unwrap_err();
        assert_eq!(err, "20000 processors exceed the supported maximum of 4096");
        assert!(workflow_from_json(&doc(MAX_PROCS + 1)).is_err());
        assert!(workflow_from_json(&doc(3)).is_ok());
    }

    #[test]
    fn workflow_json_rejects_overflowing_operation_times() {
        let doc = |speeds: &str, bandwidth: &str| {
            format!(
                "{{\"works\": [22, 67], \"files\": [1], \"speeds\": [{speeds}], \
                 \"bandwidth\": {bandwidth}, \"mapping\": [[0], [1]]}}"
            )
        };
        assert_eq!(
            workflow_from_json(&doc("5e-324, 1", "1")).unwrap_err(),
            "stage 0 on processor 0: computation time work/speed overflows"
        );
        assert_eq!(
            workflow_from_json(&doc("1, 1", "5e-324")).unwrap_err(),
            "edge 0 over link 0->1: transfer time size/bandwidth overflows"
        );
        assert!(workflow_from_json(&doc("1, 1", "1e-300")).is_ok());
    }

    /// The committed fork/join fixture every damaged document starts from.
    const FORKJOIN: &str = include_str!("../../../ci/forkjoin.json");
    /// Replacements for one numeric literal of the fixture ("" deletes it).
    const HOSTILE_NUMBERS: [&str; 10] =
        ["NaN", "5e-324", "18446744073709551615", "4097", "-1", "1e308", "0", "x", "", "[]"];
    /// Lines inserted between two lines of the fixture (the fixture has
    /// 6 processors, so `bandwidths` needs 36 entries).
    const HOSTILE_LINES: [&str; 9] = [
        "  \"bandwidths\": [1, 2, 3],",
        "  \"bandwidths\": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],",
        "  \"bandwidths\": [],",
        "  \"mapping\": [[18446744073709551615]],",
        "  \"edges\": [[3, 0, 1.0]],",
        "  \"files\": [1e308],",
        "  \"speeds\": [],",
        "  \"bandwidth\": 0,",
        "  \"works\": [NaN],",
    ];

    /// Damages the fixture by `mode`: 0 arbitrary bytes, 1 truncation, 2 a
    /// single-byte flip, 3 a numeric-literal splice, 4 a line splice.
    fn damage(mode: usize, frac: f64, mask: u8, pick: usize, junk: &[u8]) -> String {
        let bytes = FORKJOIN.as_bytes();
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
                let is_num = |b: u8| b.is_ascii_digit() || b == b'.';
                let starts: Vec<usize> = (0..bytes.len())
                    .filter(|&i| is_num(bytes[i]) && (i == 0 || !is_num(bytes[i - 1])))
                    .collect();
                let start = starts[at % starts.len()];
                let end = (start..bytes.len()).find(|&i| !is_num(bytes[i])).unwrap_or(bytes.len());
                let token = HOSTILE_NUMBERS[pick % HOSTILE_NUMBERS.len()];
                format!("{}{token}{}", &FORKJOIN[..start], &FORKJOIN[end..])
            }
            _ => {
                let mut lines: Vec<&str> = FORKJOIN.lines().collect();
                lines.insert(1 + at % lines.len(), HOSTILE_LINES[pick % HOSTILE_LINES.len()]);
                lines.join("\n")
            }
        }
    }

    #[test]
    fn forkjoin_fixture_loads() {
        assert!(workflow_from_json(FORKJOIN).is_ok());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        #[test]
        fn hostile_workflow_json_is_a_typed_error_or_a_solvable_instance(
            mode in 0usize..5,
            frac in 0.0f64..1.0,
            (mask, pick) in (1u8..=255, 0usize..64),
            junk in proptest::collection::vec(0u8..=255, 0..96),
        ) {
            let text = damage(mode, frac, mask, pick, &junk);
            let run = std::panic::catch_unwind(|| {
                let Ok(inst) = workflow_from_json(&text) else { return Ok(()) };
                for model in [CommModel::Overlap, CommModel::Strict] {
                    compute_period(&inst, model, Method::Auto)
                        .map_err(|e| format!("{model}: {e}"))?;
                }
                Ok::<(), String>(())
            });
            match run {
                Ok(solved) => proptest::prop_assert!(solved.is_ok(), "{solved:?} on {text:?}"),
                Err(_) => proptest::prop_assert!(false, "panicked on {text:?}"),
            }
        }
    }
}
