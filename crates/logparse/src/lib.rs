//! `desh-logparse`: mining unstructured Cray/Linux log text.
//!
//! Implements the front half of the paper's §3.1: raw lines →
//! (timestamp, node, phrase) triples → static/dynamic template separation →
//! phrase-id encoding → Safe/Error/Unknown labelling → per-node time-sorted
//! event streams.
//!
//! * [`tokenize`] — lexical static/dynamic token classification (Table 2).
//! * [`template`] — template extraction, plus a Drain-style miner for
//!   formats whose variability is not lexically obvious.
//! * [`vocab`] — thread-safe template ↔ phrase-id interning.
//! * [`label`] — the admin-knowledge Safe/Error/Unknown rules (Table 3).
//! * [`stream`] — parallel parsing into [`stream::ParsedLog`].

pub mod label;
pub mod stats;
pub mod stream;
pub mod template;
pub mod tokenize;
pub mod vocab;

pub use label::{is_failure_terminal, label_template};
pub use stats::{find_bursts, node_activity, template_frequencies};
pub use stream::{
    parse_lines, parse_records, parse_records_telemetry, parse_records_with_vocab, Event, ParsedLog,
};
pub use template::{extract_template, extract_template_into, DrainMiner};
pub use vocab::Vocab;
