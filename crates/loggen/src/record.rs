//! Log records and their raw-line rendering.
//!
//! A generated dataset is a time-sorted stream of records shaped like the
//! paper's Table 2 rows: `timestamp node-id free-text-phrase`. The raw-line
//! form exists so the parsing substrate (`desh-logparse`) genuinely works
//! from unstructured text, not from the generator's internal structures.

use crate::nodeid::NodeId;
use desh_util::Micros;
use std::fmt;
use std::str::FromStr;

/// One log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Offset from dataset start.
    pub time: Micros,
    /// Emitting node.
    pub node: NodeId,
    /// Unstructured message text (static phrase + dynamic fields).
    pub text: String,
}

impl LogRecord {
    /// Construct a record.
    pub fn new(time: Micros, node: NodeId, text: impl Into<String>) -> Self {
        Self {
            time,
            node,
            text: text.into(),
        }
    }

    /// Render as a raw syslog-style line.
    pub fn to_raw_line(&self) -> String {
        format!("{} {} {}", self.time.as_clock(), self.node, self.text)
    }
}

impl fmt::Display for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_raw_line())
    }
}

/// Error parsing a raw log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRecordError(pub String);

impl fmt::Display for ParseRecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid log line: {}", self.0)
    }
}

impl std::error::Error for ParseRecordError {}

impl FromStr for LogRecord {
    type Err = ParseRecordError;

    /// Parse a raw line back into a record. Note the clock wraps at 24h, so
    /// multi-day datasets must be re-sequenced by the caller; the generator
    /// keeps native `Micros` alongside raw lines to avoid ambiguity.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseRecordError(s.to_string());
        let mut parts = s.splitn(3, ' ');
        let time = Micros::parse_clock(parts.next().ok_or_else(err)?).ok_or_else(err)?;
        let node: NodeId = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let text = parts.next().ok_or_else(err)?.to_string();
        if text.is_empty() {
            return Err(err());
        }
        Ok(LogRecord { time, node, text })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodeid::NodeId;

    #[test]
    fn raw_line_round_trip() {
        let r = LogRecord::new(
            Micros::from_secs(59_148) + Micros(301_744),
            NodeId::new(1, 0, 1, 1, 0),
            "kernel LNet: hardware quiesce 20141216t162520, All threads awake",
        );
        let line = r.to_raw_line();
        assert_eq!(line, "16:25:48.301744 c1-0c1s1n0 kernel LNet: hardware quiesce 20141216t162520, All threads awake");
        let parsed: LogRecord = line.parse().unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "16:25:48.301744",
            "16:25:48.301744 c1-0c1s1n0",
            "not-a-time c1-0c1s1n0 hello",
            "16:25:48.301744 not-a-node hello",
        ] {
            assert!(bad.parse::<LogRecord>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn text_keeps_internal_spaces() {
        let line = "00:00:01.000000 c0-0c0s0n0 a b  c   d";
        let r: LogRecord = line.parse().unwrap();
        assert_eq!(r.text, "a b  c   d");
    }
}
