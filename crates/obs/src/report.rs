//! Trace file reader and summarizer backing `repwf trace report`.
//!
//! Records are flat single-line JSON objects whose values are either quoted
//! strings (no escapes — the writer only emits fixed identifiers) or u64
//! integers, read by the shared flat-record codec ([`crate::ndjson`]) that
//! the shard scanner of `repwf_dist` uses too. The reader validates the
//! header format tag, the footer record count, and the FNV-1a/64 checksum
//! before summarizing; a truncated or corrupted trace is an error, never a
//! silently partial report.

use crate::ndjson::{Checksum, Record};
use std::fs;
use std::path::Path;

/// Per-phase (per span name) totals with exact percentiles computed from the
/// raw span records.
#[derive(Clone, Debug)]
pub struct PhaseStat {
    pub name: String,
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

/// Per-thread busy time: the sum of that thread's depth-0 spans (top-level
/// work items — nested spans are already inside them).
#[derive(Clone, Debug)]
pub struct ThreadStat {
    pub tid: u64,
    pub busy_ns: u64,
    pub spans: u64,
}

#[derive(Clone, Debug)]
pub struct TraceReport {
    pub command: String,
    /// Checksummed record lines (header + spans + events + flush records).
    pub records: u64,
    /// Wall time from sink install to footer, in nanoseconds.
    pub total_ns: u64,
    pub phases: Vec<PhaseStat>,
    pub counters: Vec<(String, u64)>,
    /// Event name → occurrence count.
    pub events: Vec<(String, u64)>,
    pub threads: Vec<ThreadStat>,
    /// Fraction of `total_ns` covered by the main thread's top-level spans.
    pub coverage: f64,
    /// Max/mean busy-time ratio across worker threads (1.0 = perfectly even,
    /// also reported when there are no worker spans to compare).
    pub imbalance: f64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Read, validate (header tag, checksum, record count), and summarize a trace.
pub fn read_trace(path: &Path) -> Result<TraceReport, String> {
    let data = fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let text = String::from_utf8(data).map_err(|_| "trace is not valid UTF-8".to_string())?;
    let mut sum = Checksum::new();
    let mut lines = 0u64;
    let mut command = String::new();
    let mut footer: Option<Record> = None;
    // name → raw durations; collected per phase for exact percentiles.
    let mut durs: Vec<(String, Vec<u64>)> = Vec::new();
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut events: Vec<(String, u64)> = Vec::new();
    let mut threads: Vec<ThreadStat> = Vec::new();
    let mut main_tid = 0u64;

    for line in text.lines() {
        if footer.is_some() {
            return Err("records after the footer".to_string());
        }
        let rec = Record::parse(line).map_err(|e| format!("trace record {e}"))?;
        let kind = rec.str("kind").ok_or("record without \"kind\"")?;
        if lines == 0 {
            if kind != "trace" {
                return Err(format!("first record kind is \"{kind}\", expected \"trace\""));
            }
            match rec.str("format") {
                Some("repwf-trace/v1") => {}
                other => return Err(format!("unsupported trace format {other:?}")),
            }
            command = rec.str("command").unwrap_or("?").to_string();
        }
        if kind == "footer" {
            footer = Some(rec);
            continue;
        }
        sum.update(line.as_bytes());
        sum.update(b"\n");
        lines += 1;
        match kind {
            "trace" => {}
            "span" => {
                let name = rec.str("name").ok_or("span without name")?;
                let dur = rec.u64("dur_ns").ok_or("span without dur_ns")?;
                let tid = rec.u64("tid").ok_or("span without tid")?;
                let depth = rec.u64("depth").ok_or("span without depth")?;
                if name == "command" {
                    main_tid = tid;
                }
                match durs.iter_mut().find(|(n, _)| n == name) {
                    Some((_, v)) => v.push(dur),
                    None => durs.push((name.to_string(), vec![dur])),
                }
                if depth == 0 {
                    match threads.iter_mut().find(|t| t.tid == tid) {
                        Some(t) => {
                            t.busy_ns += dur;
                            t.spans += 1;
                        }
                        None => threads.push(ThreadStat { tid, busy_ns: dur, spans: 1 }),
                    }
                }
            }
            "event" => {
                let name = rec.str("name").ok_or("event without name")?;
                match events.iter_mut().find(|(n, _)| n == name) {
                    Some((_, c)) => *c += 1,
                    None => events.push((name.to_string(), 1)),
                }
            }
            "counter" => {
                let name = rec.str("name").ok_or("counter without name")?.to_string();
                let value = rec.u64("value").ok_or("counter without value")?;
                counters.push((name, value));
            }
            "spanstat" => {
                // Aggregate form of the per-span records; the summary below is
                // rebuilt from the raw spans, so these only need to parse.
                rec.str("name").ok_or("spanstat without name")?;
            }
            other => return Err(format!("unknown record kind \"{other}\"")),
        }
    }

    let footer = footer.ok_or("trace has no footer (truncated or still being written)")?;
    let want_records = footer.u64("records").ok_or("footer without records")?;
    if want_records != lines {
        return Err(format!("footer declares {want_records} records, found {lines}"));
    }
    let want_sum = footer.str("checksum").ok_or("footer without checksum")?;
    if want_sum != sum.hex() {
        return Err(format!("checksum mismatch: footer {want_sum}, computed {}", sum.hex()));
    }
    let total_ns = footer.u64("total_ns").ok_or("footer without total_ns")?;

    let mut phases: Vec<PhaseStat> = durs
        .into_iter()
        .map(|(name, mut v)| {
            v.sort_unstable();
            PhaseStat {
                name,
                count: v.len() as u64,
                sum_ns: v.iter().sum(),
                min_ns: *v.first().unwrap(),
                max_ns: *v.last().unwrap(),
                p50_ns: percentile(&v, 0.50),
                p95_ns: percentile(&v, 0.95),
                p99_ns: percentile(&v, 0.99),
            }
        })
        .collect();
    phases.sort_by_key(|p| std::cmp::Reverse(p.sum_ns));
    threads.sort_by_key(|t| t.tid);

    let main_busy: u64 = threads.iter().filter(|t| t.tid == main_tid).map(|t| t.busy_ns).sum();
    let coverage = if total_ns == 0 { 0.0 } else { main_busy as f64 / total_ns as f64 };
    let workers: Vec<u64> =
        threads.iter().filter(|t| t.tid != main_tid).map(|t| t.busy_ns).collect();
    let imbalance = if workers.is_empty() {
        1.0
    } else {
        let max = *workers.iter().max().unwrap() as f64;
        let mean = workers.iter().sum::<u64>() as f64 / workers.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    };

    Ok(TraceReport {
        command,
        records: lines,
        total_ns,
        phases,
        counters,
        events,
        threads,
        coverage,
        imbalance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_small_samples() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 51);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
    }
}
