//! The serving path under test, built exactly as `desh-cli serve` builds
//! it, and the passes that drive it.

use crate::geometry::{SHARDS, SLOTS};
use crate::openloop::{self, Feed, OpenLoop};
use crate::oracle::{key, WarnKey};
use crate::spans::Spans;
use desh::checkpoint::decode_checkpoint;
use desh::core::{BatchDetector, DeshConfig, IntakeConfig, IntakeServer};
use desh::loggen::LogRecord;
use desh::obs::{FlightRecorder, Snapshot, Telemetry, WarningLog};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `desh-cli serve` keeps this many recent warnings for `/warnings`.
const WARNING_LOG_CAP: usize = 1024;
/// Lines per send call in a saturation pass.
const SEND_CHUNK: usize = 4096;
/// A pass gives up once nothing was verdicted for this long after the
/// last line went out; the rest counts as lost.
const STALL: Duration = Duration::from_secs(10);

/// A served stream: the generated records and, for the TCP transport,
/// their raw lines.
pub struct Input {
    pub native: Vec<LogRecord>,
    pub wire: Option<Wire>,
}

/// Raw lines back to back; line `i` is `bytes[starts[i]..starts[i + 1]]`.
pub struct Wire {
    pub bytes: Vec<u8>,
    pub starts: Vec<usize>,
}

impl Wire {
    pub fn render(records: &[LogRecord]) -> Wire {
        let mut bytes = Vec::new();
        let mut starts = vec![0];
        for r in records {
            bytes.extend_from_slice(r.to_raw_line().as_bytes());
            bytes.push(b'\n');
            starts.push(bytes.len());
        }
        Wire { bytes, starts }
    }

    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.starts.windows(2).map(|w| {
            std::str::from_utf8(&self.bytes[w[0]..w[1] - 1]).expect("rendered lines are UTF-8")
        })
    }
}

impl Input {
    pub fn len(&self) -> usize {
        self.native.len()
    }

    /// The first `n` records, for a push pass to consume (a TCP pass
    /// sends the wire instead).
    fn push_copy(&self, n: usize) -> Vec<LogRecord> {
        match self.wire {
            Some(_) => Vec::new(),
            None => self.native[..n].to_vec(),
        }
    }
}

/// One running intake with its client side.
pub struct Intake {
    pub server: IntakeServer,
    telemetry: Telemetry,
    stream: Option<TcpStream>,
}

/// The `cmd_serve` construction: telemetry on, `with_telemetry` +
/// `attach_chains` + `attach_tracing` per shard, default intake config;
/// for TCP a loopback listener and one connected client.
pub fn open(checkpoint: &[u8], tcp: bool) -> Intake {
    let telemetry = Telemetry::enabled();
    let ck =
        decode_checkpoint(checkpoint.to_vec()).expect("checkpoint written by this run decodes");
    let cfg = DeshConfig::default();
    let flight = Arc::new(FlightRecorder::new());
    let warning_log = Arc::new(WarningLog::new(WARNING_LOG_CAP));
    let detectors = (0..SHARDS)
        .map(|_| {
            let mut d = BatchDetector::with_telemetry(
                ck.model.clone(),
                Arc::clone(&ck.vocab),
                cfg.clone(),
                SLOTS,
                &telemetry,
            );
            if !ck.chains.is_empty() {
                d.attach_chains(&ck.chains);
            }
            d.attach_tracing(Arc::clone(&flight), Arc::clone(&warning_log));
            d
        })
        .collect();
    let mut server = IntakeServer::start(detectors, IntakeConfig::default(), &telemetry);
    let stream = tcp.then(|| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        server
            .serve_tcp(listener)
            .expect("serve on the loopback listener");
        let s = TcpStream::connect(addr).expect("connect to the intake");
        // The client writes whole ticks; Nagle would hold them for ACKs.
        s.set_nodelay(true).expect("set TCP_NODELAY");
        s
    });
    Intake {
        server,
        telemetry,
        stream,
    }
}

/// What a finished pass leaves behind.
pub struct Closed {
    pub warnings: Vec<WarnKey>,
    pub processed: u64,
    pub snapshot: Snapshot,
}

impl Intake {
    /// Wait until `n` lines are covered or progress stalls.
    pub fn wait_covered(&self, n: u64) {
        let mut last = (covered(&self.server), Instant::now());
        while last.0 < n {
            std::thread::sleep(Duration::from_micros(50));
            let c = covered(&self.server);
            if c != last.0 {
                last = (c, Instant::now());
            } else if last.1.elapsed() > STALL {
                return;
            }
        }
    }

    pub fn close(self) -> Closed {
        self.server.drain();
        let warnings = self.server.take_warnings().iter().map(key).collect();
        let processed = self.server.records_processed();
        let snapshot = self.telemetry.snapshot().expect("serve enables telemetry");
        self.server.stop();
        Closed {
            warnings,
            processed,
            snapshot,
        }
    }
}

/// Lines that have their verdict: scored, or rejected at parse or by
/// backpressure (the latter two are counted as failed lines).
fn covered(server: &IntakeServer) -> u64 {
    server.records_processed() + server.parse_errors() + server.records_dropped()
}

/// The client side of a pass: the intake's TCP client when it has one,
/// else in-process `push_records` of the native records.
fn sender<'a>(
    stream: Option<TcpStream>,
    server: &'a IntakeServer,
    input: &'a Input,
    records: Vec<LogRecord>,
) -> Sender<'a> {
    match (stream, &input.wire) {
        (Some(stream), Some(wire)) => Sender::Tcp { stream, wire },
        _ => Sender::Push {
            server,
            records: records.into_iter(),
        },
    }
}

/// The client side of a pass.
pub enum Sender<'a> {
    Tcp {
        stream: TcpStream,
        wire: &'a Wire,
    },
    Push {
        server: &'a IntakeServer,
        records: std::vec::IntoIter<LogRecord>,
    },
}

impl Feed for Sender<'_> {
    fn send(&mut self, lines: Range<usize>) {
        match self {
            Sender::Tcp { stream, wire } => {
                let bytes = &wire.bytes[wire.starts[lines.start]..wire.starts[lines.end]];
                stream.write_all(bytes).expect("write to the intake socket");
            }
            Sender::Push { server, records } => {
                server.push_records(records.by_ref().take(lines.len()))
            }
        }
    }

    fn finish(&mut self) {
        if let Sender::Tcp { stream, .. } = self {
            stream
                .shutdown(Shutdown::Write)
                .expect("close the write side");
        }
    }
}

/// Per-pass server set-up time and the opened intake.
fn timed_open(checkpoint: &[u8], tcp: bool) -> (f64, Intake) {
    let t = Instant::now();
    let intake = open(checkpoint, tcp);
    (t.elapsed().as_secs_f64(), intake)
}

/// Saturation pass: send everything as fast as the intake takes it; the
/// clock runs from the first line sent until every line is covered.
/// With `spans`, each send call is recorded under a `pass` span.
pub fn saturate(
    checkpoint: &[u8],
    input: &Input,
    mut spans: Option<&mut Spans>,
) -> (f64, f64, Closed) {
    let n = input.len();
    let records = input.push_copy(n);
    let (setup_s, mut intake) = timed_open(checkpoint, input.wire.is_some());
    let t0 = Instant::now();
    {
        let mut feed = sender(intake.stream.take(), &intake.server, input, records);
        let pass = spans.as_deref_mut().map(|s| s.open("bench.pass"));
        for start in (0..n).step_by(SEND_CHUNK) {
            let range = start..(start + SEND_CHUNK).min(n);
            match spans.as_deref_mut() {
                Some(s) => s.time("core.intake.send", |_| feed.send(range)),
                None => feed.send(range),
            }
        }
        feed.finish();
        intake.wait_covered(n as u64);
        if let (Some(s), Some(id)) = (spans, pass) {
            s.close(id);
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    (setup_s, secs, intake.close())
}

/// Open-loop pass offering the first `n` lines at `rate` events/s.
pub fn offer(checkpoint: &[u8], input: &Input, rate: f64, n: usize) -> (f64, OpenLoop, Closed) {
    let records = input.push_copy(n);
    let (setup_s, mut intake) = timed_open(checkpoint, input.wire.is_some());
    let feed = sender(intake.stream.take(), &intake.server, input, records);
    let run = openloop::run(n, rate, feed, || covered(&intake.server), STALL);
    (setup_s, run, intake.close())
}
