//! NDJSON trace sink with an FNV-checksummed footer.
//!
//! File layout (format `repwf-trace/v1`, mirroring the `repwf-shard/v1`
//! conventions from `repwf_dist::shard`):
//!
//! ```text
//! {"kind":"trace","format":"repwf-trace/v1","command":"campaign"}
//! {"kind":"span","name":"tpn_build","tid":0,"depth":1,"start_ns":...,"dur_ns":...}
//! {"kind":"event","name":"lease_claim","tid":0,"at_ns":...,"unit":3,...}
//! {"kind":"counter","name":"csr_builds","value":12}
//! {"kind":"spanstat","name":"solve","count":80,"sum_ns":...,"min_ns":...,"max_ns":...}
//! {"kind":"footer","records":96,"total_ns":...,"checksum":"<fnv1a64 hex>"}
//! ```
//!
//! Every record is one line; all values are u64 (durations are integer
//! nanoseconds — any f64 a future record needs must be stored as its u64 bit
//! pattern, the same rule the shard format uses). Lines are spelled by the
//! shared flat-record codec ([`crate::ndjson`]): each record is encoded
//! field by field into one reused line buffer under the sink lock. The
//! checksum is FNV-1a/64 over every byte of every line before the footer,
//! newlines included, so `repwf trace report` can detect truncation and
//! corruption exactly like the shard scanner does. `records` counts the
//! checksummed lines.

use crate::ndjson::{self, Checksum};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

struct TraceSink {
    w: BufWriter<File>,
    sum: Checksum,
    records: u64,
    start_ns: u64,
    /// The line being encoded (reused; holds its trailing newline).
    line: String,
}

impl TraceSink {
    /// Encodes one record with `encode` and appends it as a checksummed line.
    fn write_record(&mut self, encode: impl FnOnce(&mut String)) -> io::Result<()> {
        self.line.clear();
        encode(&mut self.line);
        self.w.write_all(self.line.as_bytes())?;
        self.sum.update(self.line.as_bytes());
        self.records += 1;
        Ok(())
    }
}

static SINK: Mutex<Option<TraceSink>> = Mutex::new(None);

pub(crate) fn install(path: &Path, command: &str) -> io::Result<()> {
    let file = File::create(path)?;
    let mut sink = TraceSink {
        w: BufWriter::new(file),
        sum: Checksum::new(),
        records: 0,
        start_ns: crate::now_ns(),
        line: String::new(),
    };
    sink.write_record(|line| {
        ndjson::begin(line, "trace");
        ndjson::put_str(line, "format", "repwf-trace/v1");
        ndjson::put_str(line, "command", command);
        ndjson::end(line);
    })?;
    *SINK.lock().unwrap() = Some(sink);
    Ok(())
}

/// Append one record line if a sink is installed. Errors are swallowed here
/// (spans drop in hot paths that cannot return `io::Result`); `finish` flushes
/// with error propagation, so a dying disk still fails the command visibly.
fn append(encode: impl FnOnce(&mut String)) {
    if let Some(sink) = SINK.lock().unwrap().as_mut() {
        let _ = sink.write_record(encode);
    }
}

pub(crate) fn record_span(name: &str, tid: u64, depth: u32, start_ns: u64, dur_ns: u64) {
    append(|line| {
        ndjson::begin(line, "span");
        ndjson::put_str(line, "name", name);
        ndjson::put_u64(line, "tid", tid);
        ndjson::put_u64(line, "depth", u64::from(depth));
        ndjson::put_u64(line, "start_ns", start_ns);
        ndjson::put_u64(line, "dur_ns", dur_ns);
        ndjson::end(line);
    });
}

pub(crate) fn record_event(name: &str, tid: u64, at_ns: u64, fields: &[(&str, u64)]) {
    append(|line| {
        ndjson::begin(line, "event");
        ndjson::put_str(line, "name", name);
        ndjson::put_u64(line, "tid", tid);
        ndjson::put_u64(line, "at_ns", at_ns);
        for &(k, v) in fields {
            ndjson::put_u64(line, k, v);
        }
        ndjson::end(line);
    });
}

/// Flush the final metrics snapshot and the checksummed footer, then close.
/// Counters at zero and spans never entered are omitted (the reader treats
/// absence as zero).
pub(crate) fn finish(snap: &crate::MetricsSnapshot) -> io::Result<()> {
    let Some(mut sink) = SINK.lock().unwrap().take() else {
        return Ok(());
    };
    // Wall time ends here, before the flush/fsync cascade below: the
    // footer's total_ns measures the traced command, not disk latency —
    // `trace report --min-coverage` holds spans accountable to it.
    let total_ns = crate::now_ns().saturating_sub(sink.start_ns);
    for id in crate::CounterId::ALL {
        let v = snap.counter(id);
        if v > 0 {
            sink.write_record(|line| {
                ndjson::begin(line, "counter");
                ndjson::put_str(line, "name", id.name());
                ndjson::put_u64(line, "value", v);
                ndjson::end(line);
            })?;
        }
    }
    for id in crate::SpanId::ALL {
        let s = snap.span(id);
        if s.count > 0 {
            sink.write_record(|line| {
                ndjson::begin(line, "spanstat");
                ndjson::put_str(line, "name", id.name());
                ndjson::put_u64(line, "count", s.count);
                ndjson::put_u64(line, "sum_ns", s.sum_ns);
                ndjson::put_u64(line, "min_ns", s.min_ns);
                ndjson::put_u64(line, "max_ns", s.max_ns);
                ndjson::end(line);
            })?;
        }
    }
    // Durability discipline from the shard writer: data is flushed and synced
    // before the footer is appended, so a footer's presence certifies every
    // checksummed byte above it reached the file.
    sink.w.flush()?;
    sink.w.get_ref().sync_all()?;
    let mut footer = String::new();
    ndjson::begin(&mut footer, "footer");
    ndjson::put_u64(&mut footer, "records", sink.records);
    ndjson::put_u64(&mut footer, "total_ns", total_ns);
    ndjson::put_str(&mut footer, "checksum", &sink.sum.hex());
    ndjson::end(&mut footer);
    sink.w.write_all(footer.as_bytes())?;
    sink.w.flush()?;
    sink.w.get_ref().sync_all()?;
    Ok(())
}
