//! Fleet-scale streaming intake: sharded ingestion feeding wave-batched
//! detectors.
//!
//! [`IntakeServer`] accepts live log records — pushed in-process or as
//! raw text lines over TCP — hash-partitions them by node id
//! ([`crate::router::shard_of`]), and hands each shard's stream to a
//! dedicated worker thread owning that shard's [`OnlineDetector`]. A
//! node's entire history lands on one shard, so carried recurrent state
//! never migrates and needs no locks; per-shard results are bit-identical
//! to one record at a time through a single detector (the detector's
//! test-gated contract: chunk size never changes an answer).
//!
//! Queues are bounded (`queue_depth`) with explicit backpressure:
//!
//! * [`Backpressure::Block`] (default) — producers wait for space; no
//!   event is ever dropped, at the cost of stalling the feed.
//! * [`Backpressure::DropOldest`] — the oldest queued record is dropped
//!   to admit the new one; every drop is counted per shard
//!   (`ingest.dropped[shard=N]`), never silent.
//!
//! Per-shard gauges (`ingest.events_per_s[shard=N]`,
//! `ingest.queue_depth[shard=N]`, `ingest.resident_nodes[shard=N]`) and
//! the per-shard queue-wait histogram (`ingest.queue_wait_us[shard=N]`,
//! enqueue → worker drain) render on `/metrics` with proper Prometheus
//! labels; wave occupancy lands in the shared `ingest.batch_size`
//! histogram.
//!
//! TCP input is bounded: a line longer than [`MAX_LINE_BYTES`] is counted
//! once as a parse error and skipped up to its newline, and the
//! connection stays open.

use crate::online::{OnlineDetector, Warning};
use crate::router::shard_of;
use desh_loggen::LogRecord;
use desh_obs::{Counter, Gauge, LatencyHistogram, Telemetry};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What to do when a shard queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the producer until the worker frees space (lossless).
    Block,
    /// Drop the oldest queued record to admit the new one (bounded
    /// latency, counted loss).
    DropOldest,
}

/// Intake tuning knobs.
#[derive(Debug, Clone)]
pub struct IntakeConfig {
    /// Bounded per-shard queue depth.
    pub queue_depth: usize,
    /// Maximum records a worker drains into one `ingest_chunk` call (the
    /// batching window: bigger chunks → fuller waves, more latency).
    pub batch_max: usize,
    /// Full-queue policy.
    pub backpressure: Backpressure,
    /// Test/bench hook: artificial stall (µs) after each worker chunk, to
    /// make producer-overrun scenarios deterministic. Zero in production.
    pub worker_throttle_us: u64,
}

impl Default for IntakeConfig {
    fn default() -> Self {
        Self {
            queue_depth: 8192,
            batch_max: 256,
            backpressure: Backpressure::Block,
            worker_throttle_us: 0,
        }
    }
}

/// One shard's bounded queue. `not_empty` wakes the worker; `changed`
/// wakes blocked producers and drain barriers whenever the queue shrinks
/// or the worker goes idle.
#[derive(Debug)]
struct ShardQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct QueueState {
    /// Each record carries its enqueue instant so the worker can measure
    /// queue wait (enqueue → drain) into `ingest.queue_wait_us[shard=N]`.
    buf: VecDeque<(Instant, LogRecord)>,
    /// No more pushes; workers exit once the buffer drains.
    closed: bool,
    /// The worker is mid-chunk (drained records not yet scored).
    inflight: bool,
}

/// Per-shard counters kept as plain atomics so they survive `stop()`.
#[derive(Debug, Default)]
struct ShardStats {
    /// Records drained from the queue into the detector.
    processed: AtomicU64,
    /// Records dropped by [`Backpressure::DropOldest`].
    dropped: AtomicU64,
}

/// Pre-resolved per-shard metric handles.
#[derive(Debug)]
struct ShardMetrics {
    events_per_s: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    resident: Arc<Gauge>,
    dropped: Arc<Counter>,
    /// Enqueue-to-drain wait per record, microseconds.
    queue_wait: Arc<LatencyHistogram>,
}

#[derive(Debug)]
struct Inner {
    queues: Vec<ShardQueue>,
    cfg: IntakeConfig,
    warnings: Mutex<Vec<Warning>>,
    stats: Vec<ShardStats>,
    metrics: Option<Vec<ShardMetrics>>,
    parse_errors: AtomicU64,
    shutdown: AtomicBool,
}

/// The sharded streaming intake. See the module docs for the design.
#[derive(Debug)]
pub struct IntakeServer {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<OnlineDetector>>,
    acceptors: Vec<JoinHandle<()>>,
}

impl IntakeServer {
    /// Start one worker per detector (shard `i` owns `detectors[i]`).
    /// Per-shard gauges and drop counters register in `telemetry` when it
    /// is enabled.
    pub fn start(
        detectors: Vec<OnlineDetector>,
        cfg: IntakeConfig,
        telemetry: &Telemetry,
    ) -> IntakeServer {
        assert!(!detectors.is_empty(), "intake needs at least one shard");
        assert!(cfg.queue_depth > 0, "queue depth must be non-zero");
        assert!(cfg.batch_max > 0, "batching window must be non-zero");
        let shards = detectors.len();
        let metrics = telemetry.registry().map(|r| {
            (0..shards)
                .map(|s| ShardMetrics {
                    events_per_s: r.gauge(&format!("ingest.events_per_s[shard={s}]")),
                    queue_depth: r.gauge(&format!("ingest.queue_depth[shard={s}]")),
                    resident: r.gauge(&format!("ingest.resident_nodes[shard={s}]")),
                    dropped: r.counter(&format!("ingest.dropped[shard={s}]")),
                    queue_wait: r.histogram(&format!("ingest.queue_wait_us[shard={s}]")),
                })
                .collect()
        });
        let inner = Arc::new(Inner {
            queues: (0..shards)
                .map(|_| ShardQueue {
                    state: Mutex::new(QueueState::default()),
                    not_empty: Condvar::new(),
                    changed: Condvar::new(),
                })
                .collect(),
            cfg,
            warnings: Mutex::new(Vec::new()),
            stats: (0..shards).map(|_| ShardStats::default()).collect(),
            metrics,
            parse_errors: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let workers = detectors
            .into_iter()
            .enumerate()
            .map(|(shard, det)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("desh-intake-{shard}"))
                    .spawn(move || worker_loop(shard, det, inner))
                    .expect("spawn intake worker")
            })
            .collect();
        IntakeServer {
            inner,
            workers,
            acceptors: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.queues.len()
    }

    /// Route one pre-parsed record to its shard, applying backpressure.
    pub fn push_record(&self, record: LogRecord) {
        let shards = self.shards();
        push_group(
            &self.inner,
            shard_of(record.node, shards),
            std::iter::once(record),
        );
    }

    /// Route a batch of pre-parsed records, amortizing the per-shard
    /// lock/notify to once per call instead of once per record — the
    /// producer-side fast path (a single-record `push_record` tops out
    /// near the detector's own single-stream rate and becomes the
    /// bottleneck).
    pub fn push_records<I: IntoIterator<Item = LogRecord>>(&self, records: I) {
        let shards = self.shards();
        let mut groups: Vec<Vec<LogRecord>> = (0..shards).map(|_| Vec::new()).collect();
        for r in records {
            groups[shard_of(r.node, shards)].push(r);
        }
        for (shard, group) in groups.into_iter().enumerate() {
            if !group.is_empty() {
                push_group(&self.inner, shard, group);
            }
        }
    }

    /// Parse one raw log line and route it. Unparseable lines are counted
    /// and reported, never enqueued.
    pub fn push_line(&self, line: &str) -> Result<(), String> {
        match line.parse::<LogRecord>() {
            Ok(r) => {
                self.push_record(r);
                Ok(())
            }
            Err(e) => {
                self.inner.parse_errors.fetch_add(1, Ordering::Relaxed);
                Err(format!("{e}"))
            }
        }
    }

    /// Serve raw log lines over TCP: one record per line, any number of
    /// concurrent connections. The listener is polled so `stop()` can
    /// shut the acceptor down promptly.
    pub fn serve_tcp(&mut self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let inner = Arc::clone(&self.inner);
        let shards = self.shards();
        let acceptor = std::thread::Builder::new()
            .name("desh-intake-accept".into())
            .spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                while !inner.shutdown.load(Ordering::Acquire) {
                    // Finished connections are reaped as we go, so a
                    // long-lived server holds handles only for live ones.
                    conns.retain(|c| !c.is_finished());
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            stream
                                .set_read_timeout(Some(Duration::from_millis(100)))
                                .ok();
                            let inner = Arc::clone(&inner);
                            conns.push(
                                std::thread::Builder::new()
                                    .name("desh-intake-conn".into())
                                    .spawn(move || conn_loop(stream, inner, shards))
                                    .expect("spawn intake connection"),
                            );
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
                for c in conns {
                    c.join().ok();
                }
            })
            .expect("spawn intake acceptor");
        self.acceptors.push(acceptor);
        Ok(())
    }

    /// Block until every shard queue is empty AND every worker is idle:
    /// all records pushed before this call have been fully scored.
    pub fn drain(&self) {
        for sq in &self.inner.queues {
            let mut st = sq.state.lock().unwrap();
            while !st.buf.is_empty() || st.inflight {
                st = sq.changed.wait(st).unwrap();
            }
        }
    }

    /// Take every warning fired so far, in per-shard record order
    /// (cross-shard interleaving follows scoring completion).
    pub fn take_warnings(&self) -> Vec<Warning> {
        std::mem::take(&mut *self.inner.warnings.lock().unwrap())
    }

    /// Records drained into detectors so far (pre-Safe-filter).
    pub fn records_processed(&self) -> u64 {
        self.inner
            .stats
            .iter()
            .map(|s| s.processed.load(Ordering::Relaxed))
            .sum()
    }

    /// Records dropped by [`Backpressure::DropOldest`] so far.
    pub fn records_dropped(&self) -> u64 {
        self.inner
            .stats
            .iter()
            .map(|s| s.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Unparseable lines rejected so far.
    pub fn parse_errors(&self) -> u64 {
        self.inner.parse_errors.load(Ordering::Relaxed)
    }

    /// Shut down: stop accepting, let workers drain their queues, and
    /// return the shard detectors (capture taps, counters, and resident
    /// state intact) for inspection or sealing.
    pub fn stop(mut self) -> Vec<OnlineDetector> {
        self.inner.shutdown.store(true, Ordering::Release);
        for sq in &self.inner.queues {
            sq.state.lock().unwrap().closed = true;
            sq.not_empty.notify_all();
            sq.changed.notify_all();
        }
        for a in self.acceptors.drain(..) {
            a.join().ok();
        }
        self.workers
            .drain(..)
            .map(|w| w.join().expect("intake worker panicked"))
            .collect()
    }
}

impl Drop for IntakeServer {
    fn drop(&mut self) {
        // `stop()` drains these; a dropped-without-stop server still shuts
        // its threads down cleanly.
        self.inner.shutdown.store(true, Ordering::Release);
        for sq in &self.inner.queues {
            sq.state.lock().unwrap().closed = true;
            sq.not_empty.notify_all();
            sq.changed.notify_all();
        }
        for a in self.acceptors.drain(..) {
            a.join().ok();
        }
        for w in self.workers.drain(..) {
            w.join().ok();
        }
    }
}

/// How many parsed records a connection thread accumulates per shard
/// before flushing into the queues. Bounds the parse-to-score latency a
/// slow trickle can see while keeping lock traffic amortized.
const CONN_FLUSH_EVERY: usize = 64;

/// Longest line, in bytes without its newline, a connection accepts.
/// Log records are a few hundred bytes; a longer line is counted once in
/// the parse errors and skipped up to its newline, so a client that never
/// sends one cannot grow the line buffer without bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// One TCP connection: buffered line reads, timeouts polled against the
/// shutdown flag so `stop()` never hangs on an idle client. Parsed
/// records batch into per-shard groups and flush every
/// [`CONN_FLUSH_EVERY`] records — and on every read stall/EOF, so a
/// quiet line still reaches its detector promptly. Lines are capped at
/// [`MAX_LINE_BYTES`].
fn conn_loop(stream: std::net::TcpStream, inner: Arc<Inner>, shards: usize) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    // Inside an over-long line: its bytes are dropped up to the newline.
    let mut skipping = false;
    let mut groups: Vec<Vec<LogRecord>> = (0..shards).map(|_| Vec::new()).collect();
    let mut pending = 0usize;
    let flush = |groups: &mut Vec<Vec<LogRecord>>, pending: &mut usize| {
        for (shard, group) in groups.iter_mut().enumerate() {
            if !group.is_empty() {
                push_group(&inner, shard, group.drain(..));
            }
        }
        *pending = 0;
    };
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            flush(&mut groups, &mut pending);
            return;
        }
        // A read that stalls mid-line keeps the bytes it got in `line` and
        // the next read appends the rest, so the buffer is cleared only
        // once a whole line (or the unterminated last one at EOF) is
        // handled. Raw bytes, not `read_line`: a stall inside a multi-byte
        // character must not drop the half already read. A read never
        // takes `line` past one byte over the cap.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        let eof = match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(n) => n == 0,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                flush(&mut groups, &mut pending);
                continue;
            }
            Err(_) => {
                flush(&mut groups, &mut pending);
                return;
            }
        };
        if !eof && !line.ends_with(b"\n") {
            // No newline within the cap: an over-long line, counted once
            // and dropped up to its newline.
            if line.len() > MAX_LINE_BYTES {
                if !skipping {
                    inner.parse_errors.fetch_add(1, Ordering::Relaxed);
                }
                skipping = true;
                line.clear();
            }
            continue;
        }
        let text = std::str::from_utf8(&line).map(|l| l.trim_end_matches(['\r', '\n']));
        // The tail of an over-long line is dropped like its head.
        if !std::mem::take(&mut skipping) && text != Ok("") {
            match text.ok().and_then(|l| l.parse::<LogRecord>().ok()) {
                Some(r) => {
                    groups[shard_of(r.node, shards)].push(r);
                    pending += 1;
                }
                None => {
                    inner.parse_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        line.clear();
        if eof || pending >= CONN_FLUSH_EVERY {
            flush(&mut groups, &mut pending);
        }
        if eof {
            return;
        }
    }
}

/// Enqueue a pre-routed group of records on one shard under a single
/// lock acquisition, applying backpressure per record. Shared by the
/// server handle and the connection threads (which hold an `Arc<Inner>`).
fn push_group<I: IntoIterator<Item = LogRecord>>(inner: &Inner, shard: usize, records: I) {
    let sq = &inner.queues[shard];
    let mut st = sq.state.lock().unwrap();
    for record in records {
        while st.buf.len() >= inner.cfg.queue_depth {
            match inner.cfg.backpressure {
                Backpressure::Block => {
                    if st.closed {
                        return;
                    }
                    // The worker may not have been woken for what this
                    // call already queued; without this nudge a group
                    // larger than the queue deadlocks on itself.
                    sq.not_empty.notify_one();
                    st = sq.changed.wait(st).unwrap();
                }
                Backpressure::DropOldest => {
                    st.buf.pop_front();
                    inner.stats[shard].dropped.fetch_add(1, Ordering::Relaxed);
                    if let Some(ms) = &inner.metrics {
                        ms[shard].dropped.inc();
                    }
                    break;
                }
            }
        }
        st.buf.push_back((Instant::now(), record));
    }
    if let Some(ms) = &inner.metrics {
        ms[shard].queue_depth.set(st.buf.len() as f64);
    }
    drop(st);
    sq.not_empty.notify_one();
}

/// Shard worker: drain up to `batch_max` records, score them as one
/// chunk (waves batch within it), publish warnings, update gauges.
fn worker_loop(shard: usize, mut det: OnlineDetector, inner: Arc<Inner>) -> OnlineDetector {
    let sq = &inner.queues[shard];
    let mut chunk: Vec<LogRecord> = Vec::with_capacity(inner.cfg.batch_max);
    let mut warnings: Vec<Warning> = Vec::new();
    let mut rate_t0 = Instant::now();
    let mut rate_n = 0u64;
    loop {
        {
            let mut st = sq.state.lock().unwrap();
            while st.buf.is_empty() {
                if st.closed {
                    return det;
                }
                st = sq.not_empty.wait(st).unwrap();
            }
            st.inflight = true;
            let n = st.buf.len().min(inner.cfg.batch_max);
            let drained = Instant::now();
            chunk.extend(st.buf.drain(..n).map(|(enq, r)| {
                if let Some(ms) = &inner.metrics {
                    ms[shard]
                        .queue_wait
                        .record(drained.saturating_duration_since(enq).as_micros() as u64);
                }
                r
            }));
            if let Some(ms) = &inner.metrics {
                ms[shard].queue_depth.set(st.buf.len() as f64);
            }
        }
        sq.changed.notify_all();

        det.ingest_chunk(&chunk, &mut warnings);
        inner.stats[shard]
            .processed
            .fetch_add(chunk.len() as u64, Ordering::Relaxed);
        rate_n += chunk.len() as u64;
        if !warnings.is_empty() {
            inner.warnings.lock().unwrap().append(&mut warnings);
        }
        if inner.cfg.worker_throttle_us > 0 {
            std::thread::sleep(Duration::from_micros(inner.cfg.worker_throttle_us));
        }
        if let Some(ms) = &inner.metrics {
            let dt = rate_t0.elapsed();
            if dt >= Duration::from_millis(250) {
                ms[shard].events_per_s.set(rate_n as f64 / dt.as_secs_f64());
                rate_t0 = Instant::now();
                rate_n = 0;
            }
            ms[shard].resident.set(det.resident_nodes() as f64);
        }
        chunk.clear();

        {
            let mut st = sq.state.lock().unwrap();
            st.inflight = false;
        }
        sq.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeshConfig;
    use crate::pipeline::Desh;
    use desh_loggen::{generate, SystemProfile};
    use std::io::Write;

    fn trained(
        seed: u64,
    ) -> (
        crate::pipeline::TrainedDesh,
        DeshConfig,
        desh_loggen::Dataset,
    ) {
        let mut p = SystemProfile::tiny();
        p.failures = 30;
        p.nodes = 24;
        let d = generate(&p, seed);
        let (train, test) = d.split_by_time(0.3);
        let desh = Desh::new(DeshConfig::fast(), seed);
        let t = desh.train(&train);
        (t, desh.cfg, test)
    }

    fn shard_detectors(
        t: &crate::pipeline::TrainedDesh,
        cfg: &DeshConfig,
        shards: usize,
        telemetry: &Telemetry,
    ) -> Vec<OnlineDetector> {
        (0..shards)
            .map(|_| {
                let mut d = OnlineDetector::with_telemetry(
                    t.lead_model.clone(),
                    t.parsed_train.vocab.clone(),
                    cfg.clone(),
                    64,
                    telemetry,
                );
                d.attach_chains(&t.phase1.chains);
                d
            })
            .collect()
    }

    fn sort_key(w: &Warning) -> (u64, usize) {
        (w.at.0, w.node.to_index())
    }

    #[test]
    fn sharded_intake_matches_sequential_warnings() {
        let (t, cfg, test) = trained(501);
        let mut seq = OnlineDetector::new(
            t.lead_model.clone(),
            t.parsed_train.vocab.clone(),
            cfg.clone(),
        );
        seq.attach_chains(&t.phase1.chains);
        let mut seq_warnings: Vec<Warning> = Vec::new();
        for r in &test.records {
            if let Some(w) = seq.ingest(r) {
                seq_warnings.push(w);
            }
        }
        assert!(!seq_warnings.is_empty());

        let telemetry = Telemetry::disabled();
        let server = IntakeServer::start(
            shard_detectors(&t, &cfg, 4, &telemetry),
            IntakeConfig::default(),
            &telemetry,
        );
        for r in &test.records {
            server.push_record(r.clone());
        }
        server.drain();
        let mut got = server.take_warnings();
        assert_eq!(server.records_processed(), test.records.len() as u64);
        assert_eq!(server.records_dropped(), 0, "Block must never drop");
        let dets = server.stop();
        assert_eq!(dets.len(), 4);

        // Cross-shard completion order is nondeterministic; per-node
        // content is not. Compare field-for-field under a canonical sort.
        seq_warnings.sort_by_key(sort_key);
        got.sort_by_key(sort_key);
        assert_eq!(seq_warnings.len(), got.len());
        for (a, b) in seq_warnings.iter().zip(&got) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.at, b.at);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!(
                a.predicted_lead_secs.to_bits(),
                b.predicted_lead_secs.to_bits()
            );
            assert_eq!(a.class, b.class);
            assert_eq!(a.matched_chain, b.matched_chain);
        }
        let total_events: u64 = dets.iter().map(|d| d.events_seen()).sum();
        assert_eq!(total_events, seq.events_seen());
    }

    #[test]
    fn drop_oldest_counts_every_shed_record() {
        let (t, cfg, test) = trained(502);
        let telemetry = Telemetry::enabled();
        let server = IntakeServer::start(
            shard_detectors(&t, &cfg, 1, &telemetry),
            IntakeConfig {
                queue_depth: 8,
                batch_max: 8,
                backpressure: Backpressure::DropOldest,
                worker_throttle_us: 2000,
            },
            &telemetry,
        );
        let pushed = test.records.len().min(2000) as u64;
        for r in test.records.iter().take(2000) {
            server.push_record(r.clone());
        }
        server.drain();
        let dropped = server.records_dropped();
        assert!(dropped > 0, "throttled worker + depth-8 queue must shed");
        assert_eq!(
            server.records_processed() + dropped,
            pushed,
            "every record is either scored or counted as dropped"
        );
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("ingest.dropped[shard=0]"), Some(dropped));
        server.stop();
    }

    #[test]
    fn per_shard_gauges_render_with_labels() {
        let (t, cfg, test) = trained(503);
        let telemetry = Telemetry::enabled();
        let server = IntakeServer::start(
            shard_detectors(&t, &cfg, 2, &telemetry),
            IntakeConfig::default(),
            &telemetry,
        );
        server.push_records(test.records.iter().cloned());
        server.drain();
        let processed = server.records_processed();
        server.stop();
        let snap = telemetry.snapshot().unwrap();
        for s in 0..2 {
            assert!(
                snap.gauge(&format!("ingest.resident_nodes[shard={s}]"))
                    .is_some(),
                "shard {s} resident gauge missing"
            );
        }
        let sizes = snap.histogram("ingest.batch_size").unwrap();
        assert!(sizes.count() > 0, "no waves recorded");
        // Every drained record measured its enqueue→drain wait, so the
        // per-shard waits must sum to the records processed.
        let waited: u64 = (0..2)
            .map(|s| {
                snap.histogram(&format!("ingest.queue_wait_us[shard={s}]"))
                    .map_or(0, |h| h.count())
            })
            .sum();
        assert_eq!(waited, processed, "queue-wait coverage");
        let prom = desh_obs::render_prometheus(&snap);
        assert!(
            prom.contains("ingest_resident_nodes{shard=\"0\"}"),
            "labelled gauge not rendered:\n{prom}"
        );
    }

    #[test]
    fn tcp_lines_flow_through_to_warnings() {
        let (t, cfg, test) = trained(504);
        let telemetry = Telemetry::disabled();
        let mut server = IntakeServer::start(
            shard_detectors(&t, &cfg, 2, &telemetry),
            IntakeConfig::default(),
            &telemetry,
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        server.serve_tcp(listener).unwrap();

        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        let n = 4000.min(test.records.len());
        let mut payload = String::new();
        for r in test.records.iter().take(n) {
            payload.push_str(&r.to_raw_line());
            payload.push('\n');
        }
        payload.push_str("this line is garbage\n");
        conn.write_all(payload.as_bytes()).unwrap();
        conn.flush().unwrap();
        drop(conn);

        // EOF is async: wait for the connection thread to finish pushing.
        let t0 = Instant::now();
        while server.records_processed() < n as u64 && t0.elapsed() < Duration::from_secs(30) {
            std::thread::sleep(Duration::from_millis(20));
        }
        server.drain();
        assert_eq!(server.records_processed(), n as u64);
        assert_eq!(server.parse_errors(), 1);
        server.stop();
    }

    #[test]
    fn tcp_line_split_across_a_read_stall_is_kept_whole() {
        let (t, cfg, test) = trained(505);
        let telemetry = Telemetry::disabled();
        let mut server = IntakeServer::start(
            shard_detectors(&t, &cfg, 2, &telemetry),
            IntakeConfig::default(),
            &telemetry,
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        server.serve_tcp(listener).unwrap();

        let line = format!("{}\n", test.records[0].to_raw_line());
        let (head, tail) = line.split_at(line.len() / 2);
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(head.as_bytes()).unwrap();
        conn.flush().unwrap();
        // Longer than the connection's 100 ms read timeout, so the reader
        // stalls with half a line buffered.
        std::thread::sleep(Duration::from_millis(400));
        conn.write_all(tail.as_bytes()).unwrap();
        conn.flush().unwrap();
        drop(conn);

        let t0 = Instant::now();
        while server.records_processed() + server.parse_errors() < 1
            && t0.elapsed() < Duration::from_secs(30)
        {
            std::thread::sleep(Duration::from_millis(20));
        }
        server.drain();
        assert_eq!(server.records_processed(), 1);
        assert_eq!(server.parse_errors(), 0);
        server.stop();
    }

    #[test]
    fn serving_path_feeds_the_score_latency_histogram() {
        // The Fig-10 per-event cost is recorded on the sharded path too:
        // one sample per scored event, whatever the wave width.
        let (t, cfg, test) = trained(506);
        let telemetry = Telemetry::enabled();
        let server = IntakeServer::start(
            shard_detectors(&t, &cfg, 2, &telemetry),
            IntakeConfig::default(),
            &telemetry,
        );
        server.push_records(test.records.iter().cloned());
        server.drain();
        server.stop();
        let snap = telemetry.snapshot().unwrap();
        let lat = snap.histogram("online.score_latency_us").unwrap();
        let scored = snap.histogram("ingest.batch_size").unwrap().sum();
        assert!(lat.count() > 0, "no scoring latency recorded");
        assert_eq!(lat.count(), scored);
    }

    #[test]
    fn over_long_line_is_one_parse_error_and_the_connection_survives() {
        let (t, cfg, test) = trained(507);
        let telemetry = Telemetry::disabled();
        let mut server = IntakeServer::start(
            shard_detectors(&t, &cfg, 2, &telemetry),
            IntakeConfig::default(),
            &telemetry,
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        server.serve_tcp(listener).unwrap();

        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        let junk = vec![b'x'; 3 * MAX_LINE_BYTES];
        conn.write_all(&junk).unwrap();
        conn.flush().unwrap();
        // The cap, not a newline, ends the line: the error is counted
        // while the client is still inside it.
        let t0 = Instant::now();
        while server.parse_errors() < 1 && t0.elapsed() < Duration::from_secs(30) {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(
            server.parse_errors(),
            1,
            "over-long line not cut at the cap"
        );
        conn.write_all(&junk).unwrap();
        conn.write_all(b"\n").unwrap();
        conn.write_all(format!("{}\n", test.records[0].to_raw_line()).as_bytes())
            .unwrap();
        conn.flush().unwrap();
        drop(conn);

        while server.records_processed() < 1 && t0.elapsed() < Duration::from_secs(30) {
            std::thread::sleep(Duration::from_millis(20));
        }
        server.drain();
        assert_eq!(server.records_processed(), 1);
        assert_eq!(server.parse_errors(), 1);
        server.stop();
    }
}
