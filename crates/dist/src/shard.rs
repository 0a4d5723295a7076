//! The streaming NDJSON shard file: writer, checkpoint/resume, reader.
//!
//! # File format (`repwf-shard/v1`)
//!
//! One JSON object per line:
//!
//! ```text
//! {"kind":"manifest", ...}                          // header, see manifest.rs
//! {"kind":"outcome","seed":2043,"num_paths":60,
//!  "mct_bits":...,"period_bits":...,"resolution":"exact"}   // one per experiment
//! ...                                               // strictly in seed order
//! {"kind":"footer","records":33,"checksum":"94cd4b9672a1e3f0"}
//! ```
//!
//! Floating-point fields travel as **u64 bit patterns**, so a record
//! round-trips bit-for-bit (including infinities from degenerate
//! simulator-fallback draws, which plain JSON floats cannot carry). The
//! footer checksum is FNV-1a/64 over the outcome-line bytes (newlines
//! included), chained in order — cheap, streaming, and enough to catch
//! torn or hand-edited files at merge time.
//!
//! # Record grammar
//!
//! The manifest line is read once per file with the general
//! [`crate::json`] parser (see `manifest.rs`). Every other line is a *flat
//! record*, encoded and decoded by the codec that traces use too
//! ([`repwf_obs::ndjson`]):
//!
//! ```text
//! record := '{' field ( ',' field )* '}'
//! field  := '"' key '"' ':' ( digits | '"' escape-free string '"' )
//! ```
//!
//! Keys may come in any order and unknown keys are ignored. Whitespace,
//! escapes, nesting, signs and fractions are not part of the grammar, so
//! a record decodes in one pass over its bytes, with no JSON tree and no
//! allocation. Being stricter than JSON rejects nothing a valid file
//! holds: no writer has ever emitted those forms (the outcome layout is
//! the one above since the format began, and the footer's optional
//! `covered` field is flat too), and the footer checksum binds every
//! record's exact bytes, so a record spelled any other way fails the
//! checksum even where JSON would accept it. A last line that does not
//! decode is the checkpoint boundary (a torn tail) and is dropped; an
//! interior one is [`DistError::Corrupt`].
//!
//! Records are appended **in seed order** even though the campaign runs
//! shape-batched on the multi-threaded work-stealing executor (the
//! seed-ordered sink of [`repwf_gen::campaign::run_spec`]); a killed process
//! therefore leaves `manifest + k complete records`, which is exactly a
//! checkpoint. [`run_shard`] validates such a prefix — manifest match,
//! seed contiguity, record shape — drops a torn trailing line, and
//! resumes from the first missing seed. Because every outcome is a pure
//! function of its seed, the resumed file converges to the same bytes as
//! an uninterrupted run.

use crate::manifest::{CampaignSpec, ShardManifest};
use crate::DistError;
use repwf_gen::campaign::{run_spec, ExperimentOutcome, Resolution};
use repwf_gen::Topology;
use repwf_obs::ndjson::{self, Value};
use std::io::{Seek as _, Write as _};
use std::path::Path;

pub use repwf_obs::ndjson::Checksum;

/// Appends one outcome's NDJSON line (trailing newline included) to `out`.
pub(crate) fn push_outcome(out: &mut String, o: &ExperimentOutcome) {
    ndjson::begin(out, "outcome");
    ndjson::put_u64(out, "seed", o.seed);
    ndjson::put_u128(out, "num_paths", o.num_paths);
    ndjson::put_u64(out, "mct_bits", o.mct.to_bits());
    ndjson::put_u64(out, "period_bits", o.period.to_bits());
    ndjson::put_str(
        out,
        "resolution",
        match o.resolution {
            Resolution::Exact => "exact",
            Resolution::Simulated => "simulated",
        },
    );
    ndjson::end(out);
}

/// Serializes one outcome as its NDJSON line (trailing newline included).
pub fn outcome_line(o: &ExperimentOutcome) -> String {
    let mut line = String::with_capacity(160);
    push_outcome(&mut line, o);
    line
}

/// Renders the footer line. `short` marks a file deliberately closed
/// early — a supervisor claim unit whose tail was re-split away — via a
/// redundant `covered` field (equal to `records`): its presence tells the
/// scanner that `records < shard_count` is an intentional partial cover,
/// not a truncation. Classic full shards keep the historical byte layout.
fn footer_line(records: usize, short: bool, checksum: &Checksum) -> String {
    let mut line = String::new();
    ndjson::begin(&mut line, "footer");
    ndjson::put_u64(&mut line, "records", records as u64);
    if short {
        ndjson::put_u64(&mut line, "covered", records as u64);
    }
    ndjson::put_str(&mut line, "checksum", &checksum.hex());
    ndjson::end(&mut line);
    line
}

/// A classified non-manifest shard line.
enum Record<'a> {
    Outcome(ExperimentOutcome),
    Footer { records: usize, covered: Option<usize>, checksum: &'a str },
}

/// The fields of an outcome or footer line, first occurrence of each key.
#[derive(Default)]
struct RecordFields<'a> {
    kind: Option<Value<'a>>,
    seed: Option<Value<'a>>,
    num_paths: Option<Value<'a>>,
    mct_bits: Option<Value<'a>>,
    period_bits: Option<Value<'a>>,
    resolution: Option<Value<'a>>,
    records: Option<Value<'a>>,
    covered: Option<Value<'a>>,
    checksum: Option<Value<'a>>,
}

fn u128_field(value: Option<Value<'_>>, key: &str) -> Result<u128, String> {
    match value {
        Some(Value::Uint(n)) => Ok(n),
        _ => Err(format!("field {key:?} missing or not an integer")),
    }
}

fn u64_field(value: Option<Value<'_>>, key: &str) -> Result<u64, String> {
    u64::try_from(u128_field(value, key)?)
        .map_err(|_| format!("field {key:?} missing or not an integer"))
}

fn str_field(value: Option<Value<'_>>) -> Option<&str> {
    match value {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Decodes one outcome or footer line (without its newline) in a single
/// pass over its fields; no JSON tree is built.
fn parse_record(line: &str) -> Result<Record<'_>, String> {
    let mut f = RecordFields::default();
    for field in ndjson::fields(line) {
        let (key, value) = field.map_err(|e| format!("unparseable line: {e}"))?;
        let slot = match key {
            "kind" => &mut f.kind,
            "seed" => &mut f.seed,
            "num_paths" => &mut f.num_paths,
            "mct_bits" => &mut f.mct_bits,
            "period_bits" => &mut f.period_bits,
            "resolution" => &mut f.resolution,
            "records" => &mut f.records,
            "covered" => &mut f.covered,
            "checksum" => &mut f.checksum,
            _ => continue,
        };
        slot.get_or_insert(value);
    }
    match str_field(f.kind).ok_or("line has no \"kind\" field")? {
        "outcome" => Ok(Record::Outcome(ExperimentOutcome {
            seed: u64_field(f.seed, "seed")?,
            num_paths: u128_field(f.num_paths, "num_paths")?,
            mct: f64::from_bits(u64_field(f.mct_bits, "mct_bits")?),
            period: f64::from_bits(u64_field(f.period_bits, "period_bits")?),
            resolution: match str_field(f.resolution) {
                Some("exact") => Resolution::Exact,
                Some("simulated") => Resolution::Simulated,
                other => return Err(format!("unknown resolution {other:?}")),
            },
        })),
        "footer" => Ok(Record::Footer {
            records: u64_field(f.records, "records")? as usize,
            covered: match f.covered {
                None => None,
                Some(_) => Some(u64_field(f.covered, "covered")? as usize),
            },
            checksum: str_field(f.checksum).ok_or("footer has no \"checksum\"")?,
        }),
        other => Err(format!("unknown line kind {other:?}")),
    }
}

/// Validated scan of a shard file's bytes.
pub(crate) struct Scan {
    pub(crate) manifest: ShardManifest,
    pub(crate) outcomes: Vec<ExperimentOutcome>,
    /// Byte length of the valid prefix (manifest + complete records); a
    /// torn trailing line sits beyond this.
    pub(crate) valid_len: usize,
    /// Whether a valid footer closed the file. An **early-closed** file
    /// (footer with a `covered` field below the declared shard count — a
    /// supervisor unit whose tail was split away) counts as complete: it
    /// fully covers the seeds it claims.
    pub(crate) complete: bool,
}

/// Scans shard-file text: validates the manifest, every record's shape
/// and seed, and the footer. A **torn tail** — a final chunk without its
/// newline, or a final line that no longer parses — is tolerated and
/// excluded from `valid_len` (that is the checkpoint a killed writer
/// leaves); any interior violation, out-of-order seed, or checksum
/// mismatch is [`DistError::Corrupt`].
pub(crate) fn scan(text: &str, path: &str) -> Result<Scan, DistError> {
    let corrupt = |reason: String| DistError::Corrupt { path: path.to_string(), reason };
    let manifest = manifest_of(text, path)?;
    let expected = manifest.plan.shard_count();
    let mut chunks = text.split_inclusive('\n').peekable();
    let first = chunks.next().expect("manifest_of checked non-emptiness");

    let mut outcomes: Vec<ExperimentOutcome> = Vec::new();
    let mut checksum = Checksum::new();
    let mut valid_len = first.len();
    let mut complete = false;
    let mut line_no = 1usize;
    while let Some(chunk) = chunks.next() {
        line_no += 1;
        let is_last = chunks.peek().is_none();
        let torn = |reason: &str| -> Result<(), DistError> {
            if is_last {
                Ok(()) // checkpoint boundary: drop the torn tail
            } else {
                Err(corrupt(format!("line {line_no}: {reason}")))
            }
        };
        if !chunk.ends_with('\n') {
            torn("line is truncated")?;
            break;
        }
        let record = match parse_record(chunk.trim_end_matches('\n')) {
            Ok(r) => r,
            Err(reason) => {
                torn(&reason)?;
                break;
            }
        };
        match record {
            Record::Outcome(o) => {
                let expected_seed = manifest.plan.seed_start() + outcomes.len() as u64;
                if outcomes.len() == expected {
                    return Err(corrupt(format!(
                        "line {line_no}: more records than the shard's {expected} seeds"
                    )));
                }
                if o.seed != expected_seed {
                    return Err(corrupt(format!(
                        "line {line_no}: record has seed {}, expected {expected_seed} \
                         (records must be contiguous in seed order)",
                        o.seed
                    )));
                }
                checksum.update(chunk.as_bytes());
                valid_len += chunk.len();
                outcomes.push(o);
            }
            Record::Footer { records, covered, checksum: claimed } => {
                if !is_last {
                    return Err(corrupt(format!("line {line_no}: footer is not the last line")));
                }
                if records != outcomes.len() {
                    return Err(corrupt(format!(
                        "footer says {records} records, file has {} of the shard's {expected}",
                        outcomes.len()
                    )));
                }
                match covered {
                    // Classic footer: the file must hold the full shard.
                    None if records != expected => {
                        return Err(corrupt(format!(
                            "footer says {records} records, file has {} of the shard's \
                             {expected}",
                            outcomes.len()
                        )));
                    }
                    // Early close: `covered` is redundant with `records`
                    // by construction; a disagreement is tampering.
                    Some(c) if c != records => {
                        return Err(corrupt(format!(
                            "footer covers {c} seeds but holds {records} records"
                        )));
                    }
                    _ => {}
                }
                if claimed != checksum.hex() {
                    return Err(corrupt(format!(
                        "footer checksum {claimed} does not match recomputed {}",
                        checksum.hex()
                    )));
                }
                valid_len += chunk.len();
                complete = true;
            }
        }
    }
    Ok(Scan { manifest, outcomes, valid_len, complete })
}

/// Parses just the manifest line of shard-file text — the cheap
/// first-phase check the merger runs over every file *before* paying the
/// full record-by-record parse of any of them, so a mismatched or
/// duplicate shard is diagnosed fast regardless of shard sizes.
pub(crate) fn manifest_of(text: &str, path: &str) -> Result<ShardManifest, DistError> {
    let corrupt =
        |reason: &str| DistError::Corrupt { path: path.to_string(), reason: reason.to_string() };
    let first = text.split_inclusive('\n').next().ok_or_else(|| corrupt("file is empty"))?;
    if !first.ends_with('\n') {
        return Err(corrupt("manifest line is truncated"));
    }
    ShardManifest::parse_line(first.trim_end_matches('\n'), path)
}

/// Validates **complete** shard-file text (manifest, all records, valid
/// footer). An unfinished shard is an error naming the resume command —
/// the merger must never silently accept partial data.
pub(crate) fn read_complete(
    text: &str,
    name: &str,
) -> Result<(ShardManifest, Vec<ExperimentOutcome>), DistError> {
    let scan = scan(text, name)?;
    if !scan.complete {
        return Err(DistError::ShardSet(format!(
            "{name} is incomplete ({} of {} records, no valid footer) — re-run its \
             `repwf campaign --shard {}/{}` command to finish it",
            scan.outcomes.len(),
            scan.manifest.plan.shard_count(),
            scan.manifest.plan.shard_index,
            scan.manifest.plan.num_shards,
        )));
    }
    Ok((scan.manifest, scan.outcomes))
}

/// Reads a shard file's text: a filesystem failure is [`DistError::Io`],
/// bytes that are not UTF-8 are [`DistError::Corrupt`].
pub(crate) fn read_text(path: &Path, name: &str) -> Result<String, DistError> {
    let bytes =
        std::fs::read(path).map_err(|e| DistError::Io(format!("cannot read {name}: {e}")))?;
    String::from_utf8(bytes).map_err(|e| DistError::Corrupt {
        path: name.to_string(),
        reason: format!("not UTF-8 at byte {}", e.utf8_error().valid_up_to()),
    })
}

/// Reads a **complete** shard file from disk (see `read_complete`).
pub fn read_shard(path: &Path) -> Result<(ShardManifest, Vec<ExperimentOutcome>), DistError> {
    let name = path.display().to_string();
    read_complete(&read_text(path, &name)?, &name)
}

/// Buffered, checksummed writer of one shard (or supervisor range) file.
///
/// The writer keeps the durability discipline in one place:
///
/// * records are buffered and **flushed every `flush_every` records**
///   (checkpoint freshness: a SIGKILL discards at most `flush_every − 1`
///   buffered records, so resume restarts near where the worker died);
/// * the file is **fsynced before the footer** is appended (a shard that
///   reports success can never lose its body to a crash, and a footer
///   never lands before its records) and fsynced again after it;
/// * per-record byte offsets and checksum states are tracked, so the
///   writer can **truncate back to any record count** exactly (resume
///   after a torn tail, early close after a re-split) without rescanning.
pub(crate) struct ShardWriter {
    file: std::fs::File,
    name: String,
    /// Unflushed tail (records accepted but not yet written out).
    buf: String,
    flush_every: usize,
    /// `offsets[k]` = file byte length after `k` records (offsets[0] is
    /// the manifest line).
    offsets: Vec<u64>,
    /// FNV state after `k` records (raw bits, parallel to `offsets`).
    checksums: Vec<u64>,
    checksum: Checksum,
    /// Records accepted (flushed + buffered).
    written: usize,
    /// Records whose bytes have reached the file.
    flushed: usize,
}

impl ShardWriter {
    fn io(&self, e: std::io::Error) -> DistError {
        DistError::Io(format!("{}: {e}", self.name))
    }

    /// Wraps a file positioned at the end of a valid prefix: the manifest
    /// line plus `outcomes` complete records (the resume checkpoint, or
    /// an empty fresh file). Offsets and checksum states are rebuilt from
    /// the outcomes — every record line is a pure function of its
    /// outcome, so the reconstruction is exact.
    pub(crate) fn resume(
        file: std::fs::File,
        name: String,
        manifest_len: u64,
        outcomes: &[ExperimentOutcome],
        flush_every: usize,
    ) -> ShardWriter {
        let mut offsets = Vec::with_capacity(outcomes.len() + 1);
        let mut checksums = Vec::with_capacity(outcomes.len() + 1);
        let mut checksum = Checksum::new();
        let mut len = manifest_len;
        offsets.push(len);
        checksums.push(checksum.state());
        let mut line = String::new();
        for outcome in outcomes {
            line.clear();
            push_outcome(&mut line, outcome);
            checksum.update(line.as_bytes());
            len += line.len() as u64;
            offsets.push(len);
            checksums.push(checksum.state());
        }
        ShardWriter {
            file,
            name,
            buf: String::new(),
            flush_every: flush_every.max(1),
            offsets,
            checksums,
            checksum,
            written: outcomes.len(),
            flushed: outcomes.len(),
        }
    }

    /// Appends one record, encoded straight into the buffer, flushing at
    /// the cadence.
    pub(crate) fn append(&mut self, outcome: &ExperimentOutcome) -> Result<(), DistError> {
        let start = self.buf.len();
        push_outcome(&mut self.buf, outcome);
        let line = &self.buf.as_bytes()[start..];
        self.checksum.update(line);
        self.offsets.push(self.offsets[self.written] + line.len() as u64);
        self.checksums.push(self.checksum.state());
        self.written += 1;
        if self.written - self.flushed >= self.flush_every {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes the buffered tail out to the file.
    pub(crate) fn flush(&mut self) -> Result<(), DistError> {
        if !self.buf.is_empty() {
            self.file.write_all(self.buf.as_bytes()).map_err(|e| self.io(e))?;
            self.buf.clear();
        }
        self.flushed = self.written;
        Ok(())
    }

    /// Truncates back to exactly `keep` records (buffered records are
    /// dropped from memory; flushed records beyond `keep` are cut with
    /// `set_len` and the truncation is fsynced so a crash cannot resurrect
    /// them under a later footer).
    pub(crate) fn truncate_to(&mut self, keep: usize) -> Result<(), DistError> {
        assert!(keep <= self.written, "cannot truncate forward");
        if keep == self.written {
            return Ok(());
        }
        let keep_len = self.offsets[keep];
        if keep >= self.flushed {
            // The cut lands in the buffer: drop the buffered excess only.
            let flushed_len = self.offsets[self.flushed];
            self.buf.truncate((keep_len - flushed_len) as usize);
        } else {
            self.buf.clear();
            self.file.set_len(keep_len).map_err(|e| self.io(e))?;
            // set_len does not move the cursor: without the seek the next
            // write would land past EOF and zero-fill the cut, leaving a
            // footer stranded behind an unparseable NUL run.
            self.file.seek(std::io::SeekFrom::Start(keep_len)).map_err(|e| self.io(e))?;
            repwf_obs::counter_add(repwf_obs::CounterId::Fsyncs, 1);
            self.file.sync_data().map_err(|e| self.io(e))?;
            self.flushed = keep;
        }
        self.written = keep;
        self.offsets.truncate(keep + 1);
        self.checksums.truncate(keep + 1);
        self.checksum = Checksum::from_state(self.checksums[keep]);
        Ok(())
    }

    /// Flushes, **fsyncs the records**, appends the footer (`short` when
    /// the file deliberately covers fewer seeds than its manifest
    /// declares), and fsyncs again so completion is durable before any
    /// completion marker is written elsewhere.
    pub(crate) fn finish(&mut self, short: bool, checksum_xor: u64) -> Result<(), DistError> {
        self.flush()?;
        repwf_obs::counter_add(repwf_obs::CounterId::Fsyncs, 1);
        self.file.sync_data().map_err(|e| self.io(e))?;
        let footer_sum = Checksum::from_state(self.checksum.state() ^ checksum_xor);
        let line = footer_line(self.written, short, &footer_sum);
        self.file.write_all(line.as_bytes()).map_err(|e| self.io(e))?;
        repwf_obs::counter_add(repwf_obs::CounterId::Fsyncs, 1);
        self.file.sync_data().map_err(|e| self.io(e))?;
        Ok(())
    }

    /// Simulates a SIGKILL: the unflushed tail vanishes (never reaches
    /// the file) and, optionally, `torn` bytes of a half-written next
    /// line are left behind. Used by the deterministic fault injector.
    pub(crate) fn kill(mut self, torn: Option<&[u8]>) -> Result<usize, DistError> {
        self.buf.clear();
        if let Some(bytes) = torn {
            self.file.write_all(bytes).map_err(|e| self.io(e))?;
        }
        Ok(self.flushed)
    }
}

/// What [`run_shard`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRunSummary {
    /// The shard's manifest (plan slice included).
    pub manifest: ShardManifest,
    /// Records found valid on disk and kept (checkpoint).
    pub resumed: usize,
    /// Records newly computed and appended by this run.
    pub ran: usize,
}

/// Progress callback of [`run_shard`]: `(records_on_disk, shard_count)`.
pub type ShardProgress<'a> = &'a (dyn Fn(usize, usize) + Sync);

/// Options of [`run_shard_opts`] (and of the supervisor's range runner).
#[derive(Debug, Clone, Default)]
pub struct ShardRunOptions {
    /// Records per buffered flush (0 = the default cadence,
    /// [`DEFAULT_FLUSH_EVERY`]). A SIGKILL discards at most
    /// `flush_every − 1` records past the last flush, so smaller values
    /// trade write syscalls for checkpoint freshness.
    pub flush_every: usize,
    /// Deterministic fault injection (tests, chaos CI). `None` in
    /// production.
    pub fault: Option<crate::fault::FaultPlan>,
}

/// Default flush cadence of the shard writer, in records.
pub const DEFAULT_FLUSH_EVERY: usize = 64;

impl ShardRunOptions {
    pub(crate) fn cadence(&self) -> usize {
        if self.flush_every == 0 {
            DEFAULT_FLUSH_EVERY
        } else {
            self.flush_every
        }
    }
}

/// A validated checkpoint: what [`open_checkpoint`] found at the path.
pub(crate) struct Checkpoint {
    /// Records kept from disk (the resumed prefix, in seed order).
    pub(crate) outcomes: Vec<ExperimentOutcome>,
    /// Writer positioned right after the kept records. For a `complete`
    /// file the footer still sits beyond the writer's offsets — only
    /// touch the writer after `truncate_to` below the record count.
    pub(crate) writer: ShardWriter,
    /// Whether a valid footer closed the file.
    pub(crate) complete: bool,
}

/// Opens (or creates) a shard/range file for `manifest` and validates the
/// checkpoint: a missing file becomes a fresh manifest-only file, a torn
/// tail is truncated away (and the truncation fsynced), a foreign or
/// divergent manifest is refused. With `quarantine`, a corrupt file is
/// renamed to `<path>.quarantine-<k>` and restarted fresh instead of
/// failing — the supervisor's retry path for e.g. a corrupted footer —
/// while manifest mismatches still propagate (they are configuration
/// errors, not data loss).
pub(crate) fn open_checkpoint(
    manifest: &ShardManifest,
    path: &Path,
    flush_every: usize,
    quarantine: bool,
) -> Result<Checkpoint, DistError> {
    let name = path.display().to_string();
    let io = |e: std::io::Error| DistError::Io(format!("{name}: {e}"));

    // A file holding only a torn prefix of *this shard's own* manifest
    // line is a process killed during the very first write — restart it
    // fresh (there are zero records to lose); a torn first line that is
    // NOT our manifest prefix stays an error, so a foreign file is never
    // silently overwritten.
    let scanned = match std::fs::read_to_string(path) {
        Ok(text) if text.is_empty() => None,
        Ok(text)
            if !text.contains('\n') && format!("{}\n", manifest.to_line()).starts_with(&text) =>
        {
            None
        }
        Ok(text) => match scan(&text, &name) {
            Ok(scan) => Some(scan),
            Err(err @ DistError::Corrupt { .. }) if quarantine => {
                quarantine_file(path, &name, &err)?;
                None
            }
            Err(e) => return Err(e),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(io(e)),
    };
    match scanned {
        Some(scanned) => {
            if scanned.manifest.plan != manifest.plan {
                return Err(DistError::ManifestMismatch {
                    path: name,
                    reason: format!(
                        "file covers seeds {}..{} as shard {}/{}, this run owns {}..{} as \
                         shard {}/{}",
                        scanned.manifest.plan.seed_start(),
                        scanned.manifest.plan.seed_end(),
                        scanned.manifest.plan.shard_index,
                        scanned.manifest.plan.num_shards,
                        manifest.plan.seed_start(),
                        manifest.plan.seed_end(),
                        manifest.plan.shard_index,
                        manifest.plan.num_shards,
                    ),
                });
            }
            if let Some(diff) = scanned.manifest.campaign_mismatch(manifest) {
                return Err(DistError::ManifestMismatch {
                    path: name,
                    reason: format!("existing file vs this run: {diff}"),
                });
            }
            let file = std::fs::OpenOptions::new().write(true).open(path).map_err(io)?;
            let manifest_len = format!("{}\n", manifest.to_line()).len() as u64;
            if !scanned.complete {
                // Truncate the torn tail; fsync so the cut is durable
                // before new records land past it.
                file.set_len(scanned.valid_len as u64).map_err(io)?;
                repwf_obs::counter_add(repwf_obs::CounterId::Fsyncs, 1);
                file.sync_data().map_err(io)?;
            }
            let mut file = file;
            use std::io::Seek as _;
            file.seek(std::io::SeekFrom::End(0)).map_err(io)?;
            let writer =
                ShardWriter::resume(file, name, manifest_len, &scanned.outcomes, flush_every);
            Ok(Checkpoint { outcomes: scanned.outcomes, writer, complete: scanned.complete })
        }
        None => {
            let mut file = std::fs::File::create(path).map_err(io)?;
            // One write for line + newline: the only torn-manifest state a
            // kill can leave is a prefix of this exact line, which the
            // restart check above recognizes as ours.
            let line = format!("{}\n", manifest.to_line());
            file.write_all(line.as_bytes()).map_err(io)?;
            let writer = ShardWriter::resume(file, name, line.len() as u64, &[], flush_every);
            Ok(Checkpoint { outcomes: Vec::new(), writer, complete: false })
        }
    }
}

/// Renames a corrupt file out of the way (`<path>.quarantine-<k>`),
/// keeping the evidence while freeing the path for a fresh attempt.
fn quarantine_file(path: &Path, name: &str, err: &DistError) -> Result<(), DistError> {
    for k in 0..64 {
        let target = path.with_file_name(format!(
            "{}.quarantine-{k}",
            path.file_name().and_then(|n| n.to_str()).unwrap_or("shard"),
        ));
        if target.exists() {
            continue;
        }
        std::fs::rename(path, &target)
            .map_err(|e| DistError::Io(format!("quarantining {name}: {e}")))?;
        return Ok(());
    }
    Err(DistError::Io(format!("too many quarantined copies of {name} ({err})")))
}

/// Runs (or resumes) shard `shard_index` of `num_shards` of the campaign
/// described by `spec`, streaming records to `path` in seed order.
///
/// * No file at `path` → fresh run: manifest, records, footer.
/// * A partial file → **resume**: the prefix is validated against this
///   campaign's manifest (a foreign or divergent manifest is a
///   [`DistError::ManifestMismatch`], never overwritten), a torn
///   trailing line is truncated away, and the campaign continues from
///   the first missing seed. Already-valid records are *not* recomputed.
/// * A complete file → validated, then returned with `ran == 0`.
///
/// The resulting bytes are identical for any `threads` value and any
/// kill/resume history, because records are appended in seed order and
/// each is a pure function of `(spec, seed)`.
///
/// **Single writer per shard file.** Resume is kill-safe, but the file
/// is not locked against *concurrent* writers: two simultaneous runs of
/// the same shard command would interleave appends and corrupt the
/// checkpoint (the damage is diagnosed at the next resume or merge via
/// the seed-contiguity and checksum validation, never silently
/// accepted). Schedulers that auto-restart shards must wait for the
/// previous attempt to exit first. (An exclusive lock file would catch
/// this earlier, but a kill would then strand a stale lock and break
/// the re-run-to-resume contract, which is the more common path.)
pub fn run_shard(
    spec: &CampaignSpec,
    shard_index: usize,
    num_shards: usize,
    threads: usize,
    path: &Path,
    progress: Option<ShardProgress<'_>>,
) -> Result<ShardRunSummary, DistError> {
    run_shard_opts(
        spec,
        shard_index,
        num_shards,
        threads,
        path,
        progress,
        &ShardRunOptions::default(),
    )
}

/// [`run_shard`] with explicit [`ShardRunOptions`] (flush cadence, fault
/// injection).
pub fn run_shard_opts(
    spec: &CampaignSpec,
    shard_index: usize,
    num_shards: usize,
    threads: usize,
    path: &Path,
    progress: Option<ShardProgress<'_>>,
    opts: &ShardRunOptions,
) -> Result<ShardRunSummary, DistError> {
    let manifest = ShardManifest::new(*spec, shard_index, num_shards)?;
    run_manifest(&manifest, threads, path, progress, opts, false)
}

/// Runs (or resumes) the explicit slice `offset..offset+len` of the
/// campaign as a standalone **range** shard file — the `repwf campaign
/// --range OFF+LEN` command that merge diagnostics print next to each
/// coverage gap, and the manual way to fill in a degraded supervisor
/// unit. Same checkpoint/resume semantics as [`run_shard`].
pub fn run_range(
    spec: &CampaignSpec,
    offset: usize,
    len: usize,
    threads: usize,
    path: &Path,
    progress: Option<ShardProgress<'_>>,
    opts: &ShardRunOptions,
) -> Result<ShardRunSummary, DistError> {
    let manifest = ShardManifest::new_range(*spec, offset, len)?;
    run_manifest(&manifest, threads, path, progress, opts, false)
}

/// Shared run core for fraction shards and supervisor range units: open
/// (or create) the checkpoint for `manifest`, stream the missing seeds to
/// the file, close with a footer. `quarantine` relaxes corrupt-file
/// handling for the supervisor's retry path (see [`open_checkpoint`]).
pub(crate) fn run_manifest(
    manifest: &ShardManifest,
    threads: usize,
    path: &Path,
    progress: Option<ShardProgress<'_>>,
    opts: &ShardRunOptions,
    quarantine: bool,
) -> Result<ShardRunSummary, DistError> {
    let checkpoint = open_checkpoint(manifest, path, opts.cadence(), quarantine)?;
    let total = manifest.plan.shard_count();
    let resumed = checkpoint.outcomes.len();
    if checkpoint.complete {
        if let Some(cb) = progress {
            cb(resumed, total);
        }
        return Ok(ShardRunSummary { manifest: *manifest, resumed, ran: 0 });
    }
    let ran = stream_records(manifest, checkpoint.writer, resumed, threads, progress, opts)?;
    Ok(ShardRunSummary { manifest: *manifest, resumed, ran })
}

/// State the streaming sink mutates (under the runner's reorder lock).
struct SinkState {
    /// `None` once the writer was consumed by an injected kill.
    writer: Option<ShardWriter>,
    /// First I/O error (stops further writes, keeping the prefix valid).
    error: Option<DistError>,
    /// Records appended by this run (not counting the resumed prefix).
    ran: usize,
}

/// Streams seeds `resumed..total` of the manifest's slice into `writer`
/// in seed order, applies any injected faults, and closes the file with
/// a footer. Returns the number of records newly computed.
fn stream_records(
    manifest: &ShardManifest,
    writer: ShardWriter,
    resumed: usize,
    threads: usize,
    progress: Option<ShardProgress<'_>>,
    opts: &ShardRunOptions,
) -> Result<usize, DistError> {
    let total = manifest.plan.shard_count();
    let spec = CampaignSpec {
        count: total - resumed,
        seed_base: manifest.plan.seed_start() + resumed as u64,
        ..manifest.spec
    };
    if let Some(cb) = progress {
        cb(resumed, total);
    }
    let fault = opts.fault.clone().unwrap_or_default();

    // Stream the remaining seeds; the runner calls the sink in seed order
    // at any thread count. An I/O error (or injected kill) stops further
    // writes — the on-disk prefix stays a valid checkpoint — and is
    // reported after the run.
    let mut state = SinkState { writer: Some(writer), error: None, ran: 0 };
    run_spec(&spec, &Topology::chain(spec.cfg.stages), threads, |outcome| {
        if fault.slow_ms > 0 {
            // Straggler injection: a slow sink stalls throughput, not
            // correctness.
            std::thread::sleep(std::time::Duration::from_millis(fault.slow_ms));
        }
        let s = &mut state;
        if s.writer.is_none() || s.error.is_some() {
            return;
        }
        if fault.kill_after == Some(s.ran) {
            // The injected SIGKILL: the unflushed buffer vanishes and
            // (optionally) a torn prefix of this very record's line is
            // left behind — exactly the disk state a real kill leaves.
            let line = outcome_line(outcome);
            let torn_len = fault.torn.min(line.len().saturating_sub(1));
            let torn = (torn_len > 0).then(|| &line.as_bytes()[..torn_len]);
            let writer = s.writer.take().expect("writer present");
            let flushed = writer.kill(torn);
            if fault.process_exit {
                std::process::exit(crate::fault::KILL_EXIT_CODE);
            }
            s.error = Some(match flushed {
                Ok(flushed) => DistError::Fault(format!(
                    "injected kill after {} records ({flushed} flushed to disk)",
                    s.ran
                )),
                Err(e) => e,
            });
            return;
        }
        if let Err(e) = s.writer.as_mut().expect("checked above").append(outcome) {
            s.error = Some(e);
            return;
        }
        s.ran += 1;
        if let Some(cb) = progress {
            cb(resumed + s.ran, total);
        }
    });
    if let Some(e) = state.error {
        return Err(e);
    }
    let mut writer = state.writer.expect("no error, so the writer survived");
    debug_assert_eq!(resumed + state.ran, total);
    // This path always writes the full slice; early-closed (`short`)
    // footers come from the supervisor's re-split truncation, which calls
    // `ShardWriter::finish(true, _)` itself.
    writer.finish(false, if fault.corrupt_footer { FOOTER_CORRUPTION_XOR } else { 0 })?;
    Ok(state.ran)
}

/// The deterministic damage `FaultPlan::corrupt_footer` applies to the
/// footer checksum (any nonzero constant works; this one is greppable).
pub(crate) const FOOTER_CORRUPTION_XOR: u64 = 0x0bad_f00d_0bad_f00d;
