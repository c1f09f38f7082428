//! Log file I/O: persist generated datasets as raw syslog-style text and
//! stream them back.
//!
//! This is the boundary a real deployment has — log files on disk — and it
//! is what lets every other crate prove it works from text rather than
//! from the generator's in-memory structures. Buffered throughout (one
//! syscall per block, not per line).

use crate::generator::{Dataset, GroundTruthFailure};
use crate::nodeid::NodeId;
use crate::record::LogRecord;
use crate::scenario::FailureClass;
use desh_util::Micros;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Write a dataset's records as raw lines. Returns the number of lines.
pub fn write_log_file(path: &Path, dataset: &Dataset) -> std::io::Result<usize> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    // Header comments carry the metadata a raw syslog would not; readers
    // skip `#` lines.
    writeln!(out, "# system: {}", dataset.system)?;
    writeln!(out, "# nodes: {}", dataset.nodes)?;
    writeln!(out, "# duration_us: {}", dataset.duration.0)?;
    let mut n = 0usize;
    for r in &dataset.records {
        writeln!(out, "{}", r.to_raw_line())?;
        n += 1;
    }
    out.flush()?;
    Ok(n)
}

/// Write the ground truth (for evaluation) as a sidecar file.
pub fn write_truth_file(path: &Path, failures: &[GroundTruthFailure]) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for f in failures {
        writeln!(out, "{} {} {}", f.time.0, f.node, f.class.name())?;
    }
    out.flush()
}

/// Read raw log lines back into records. Unparseable lines are returned
/// separately — a reader must not abort on a corrupt line.
///
/// The clock column wraps at 24 h (syslogs carry no date), so for datasets
/// longer than a day the absolute offset is reconstructed monotonically:
/// whenever the wall clock runs backwards relative to the previous line,
/// a day boundary was crossed. This is exact for the sorted streams
/// [`write_log_file`] produces.
pub fn read_log_file(path: &Path) -> std::io::Result<(Vec<LogRecord>, Vec<String>)> {
    let reader = BufReader::new(std::fs::File::open(path)?);
    let mut records: Vec<LogRecord> = Vec::new();
    let mut bad = Vec::new();
    let mut line = String::new();
    let mut reader = reader;
    let mut day_offset: u64 = 0;
    let mut prev_clock: Option<u64> = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match trimmed.parse::<LogRecord>() {
            Ok(mut r) => {
                let clock = r.time.0; // parse_clock is always < 1 day
                if let Some(prev) = prev_clock {
                    if clock < prev {
                        day_offset += desh_util::time::MICROS_PER_DAY;
                    }
                }
                prev_clock = Some(clock);
                r.time = Micros(clock + day_offset);
                records.push(r);
            }
            Err(_) => bad.push(trimmed.to_string()),
        }
    }
    Ok((records, bad))
}

/// Read a ground-truth sidecar file.
pub fn read_truth_file(path: &Path) -> std::io::Result<Vec<GroundTruthFailure>> {
    let reader = BufReader::new(std::fs::File::open(path)?);
    let mut out = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let mut parts = line.split_whitespace();
        let (Some(t), Some(n), Some(c)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        let Ok(time) = t.parse::<u64>() else { continue };
        let Ok(node) = n.parse::<NodeId>() else {
            continue;
        };
        let Some(class) = FailureClass::ALL.iter().find(|fc| fc.name() == c) else {
            continue;
        };
        out.push(GroundTruthFailure {
            node,
            time: Micros(time),
            class: *class,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::profile::SystemProfile;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("desh-io-{}-{name}", std::process::id()))
    }

    #[test]
    fn log_file_round_trip() {
        let d = generate(&SystemProfile::tiny(), 51);
        let path = tmp("roundtrip.log");
        let n = write_log_file(&path, &d).unwrap();
        assert_eq!(n, d.records.len());
        let (records, bad) = read_log_file(&path).unwrap();
        assert!(bad.is_empty());
        assert_eq!(records.len(), d.records.len());
        // Clock wraps at 24h, so compare the rendered form.
        for (a, b) in records.iter().zip(&d.records) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.text, b.text);
            assert_eq!(a.time.as_clock(), b.time.as_clock());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_lines_are_isolated() {
        let d = generate(&SystemProfile::tiny(), 52);
        let path = tmp("corrupt.log");
        write_log_file(&path, &d).unwrap();
        // Append junk.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(f, "@@@ totally not a log line").unwrap();
        writeln!(f, "another bad one").unwrap();
        drop(f);
        let (records, bad) = read_log_file(&path).unwrap();
        assert_eq!(records.len(), d.records.len());
        assert_eq!(bad.len(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn multi_day_round_trip_reconstructs_absolute_times() {
        // M-profiles span 48h: the raw clock wraps once, and the reader
        // must reconstruct absolute offsets exactly.
        let d = generate(&SystemProfile::m4(), 54);
        assert!(d.records.last().unwrap().time.0 > desh_util::time::MICROS_PER_DAY);
        let path = tmp("multiday.log");
        write_log_file(&path, &d).unwrap();
        let (records, bad) = read_log_file(&path).unwrap();
        assert!(bad.is_empty());
        assert_eq!(records.len(), d.records.len());
        for (a, b) in records.iter().zip(&d.records) {
            assert_eq!(a.time, b.time, "absolute time lost for {}", b.text);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truth_file_round_trip() {
        let d = generate(&SystemProfile::tiny(), 53);
        let path = tmp("truth.txt");
        write_truth_file(&path, &d.failures).unwrap();
        let back = read_truth_file(&path).unwrap();
        assert_eq!(back.len(), d.failures.len());
        for (a, b) in back.iter().zip(&d.failures) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.time, b.time);
            assert_eq!(a.class, b.class);
        }
        std::fs::remove_file(path).ok();
    }
}
