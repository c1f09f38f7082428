//! Online (streaming) node-failure detection — the deployment mode the
//! paper motivates: "prediction has to be performed in real time, and
//! results have to be available prior to the actual failure" (§1).
//!
//! [`OnlineDetector`] is the one detector engine: `desh-cli predict`,
//! capsule replay, the shadow candidate and every `serve` shard run it.
//! It consumes log records in arrival order, keeps a small per-node buffer
//! of recent anomaly-relevant events, and scores each node's stream
//! incrementally: the node's carried recurrent state is a *slot* (row) of
//! a shared [`LeadBatch`], so an event costs one cell step per layer —
//! O(1), DeepLog-style — and the cell steps staged by different nodes in
//! one chunk advance together as a *wave* through the row-wise kernels.
//! [`OnlineDetector::ingest_chunk`] is what a `serve` shard drains its
//! queue into; [`OnlineDetector::ingest`] is a chunk of one record.
//!
//! Events are gap-encoded (ΔT = seconds since the node's previous event),
//! which is append-only and therefore compatible with carried state; the
//! running mean of one-step prediction errors is the decision score. A
//! node's buffer is replayed through its row only when the carried state
//! is missing (episode just started after a session gap, terminal,
//! warning, or eviction). When the model recognises a failure chain in
//! progress, it emits a [`Warning`] carrying the predicted remaining lead
//! time (the model's own predicted next-ΔT — the "in 2.5 minutes, node X
//! is expected to fail" output of §4.5) and the inferred failure class —
//! one per episode: after warning, a node stays quiet until its buffer
//! resets.
//!
//! **The chunk size never changes an answer** (test-gated, bit for bit):
//! every staged row goes through the same GEMV kernel in the same f32
//! accumulation order (`desh_nn::Mat::matmul_rows_into`); a wave holds at
//! most one staged event per node, so a second event for a staged node
//! *cuts* the wave first; evaluation, tracing, capture and the shadow feed
//! run in an in-record-order walk after each wave, so capture sequence
//! numbers are those of a width-1 run; and the idle sweep runs at a fixed
//! count of ingested events, after settling the wave before it.
//!
//! Preprocessing is zero-alloc templating ([`extract_template_into`]) plus
//! a template→(phrase, label, terminal) memo: one hash probe per event for
//! every template seen before.

use crate::chain::FailureChain;
use crate::classes::classify_templates;
use crate::config::DeshConfig;
use crate::explain::ChainMatcher;
use crate::phase2::{LeadBatch, LeadTimeModel, Sample};
use crate::shadow::ShadowScorer;
use desh_loggen::{FailureClass, Label, LogRecord, NodeId};
use desh_logparse::{extract_template_into, is_failure_terminal, label_template, Vocab};
use desh_nn::ScoreWorkspace;
use desh_obs::{
    ActiveWaterfall, CapsuleEvent, CaptureTap, Counter, FlightRecorder, Gauge, LatencyHistogram,
    NodeCapture, NodeFlight, QualityMonitor, SpanProfiler, Telemetry, TraceEvent, WarningLog,
};
use desh_util::{duration_us, Micros};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A proactive warning for one node.
#[derive(Debug, Clone)]
pub struct Warning {
    /// Node expected to fail.
    pub node: NodeId,
    /// Time the warning was raised (time of the triggering event).
    pub at: Micros,
    /// Model-predicted remaining lead time, seconds.
    pub predicted_lead_secs: f64,
    /// Decision score (mean MSE, same units as the batch pipeline).
    pub score: f64,
    /// Failure class inferred from the buffered phrases.
    pub class: FailureClass,
    /// The phrase templates that triggered the warning, oldest first.
    pub evidence: Vec<String>,
    /// Index of the nearest trained failure chain (DTW over the same
    /// samples phase 3 scores), when a chain set was attached via
    /// [`OnlineDetector::attach_chains`].
    pub matched_chain: Option<usize>,
    /// Normalised DTW distance to the matched chain.
    pub chain_distance: Option<f64>,
}

/// The name the sharded intake's callers use for [`OnlineDetector`].
pub type BatchDetector = OnlineDetector;

/// Resident-node cap of [`OnlineDetector::new`].
pub const DEFAULT_MAX_NODES: usize = 65_536;

/// Idle-sweep cadence, in ingested (non-Safe) events.
const SWEEP_EVERY: u64 = 4096;

/// Slot rows allocated up front; they double on demand up to the cap.
const INITIAL_SLOTS: usize = 16;

/// Memo capacity: templates are mined down to a few hundred distinct
/// strings, so the cap only guards against a miner regression. Past it,
/// misses take the uncached label/intern path — same results, slower.
const MEMO_CAP: usize = 4096;

/// Stage indices into [`OnlineDetector::PROFILE_STAGES`].
const STAGE_PARSE: usize = 0;
const STAGE_TEMPLATE: usize = 1;
const STAGE_ENCODE: usize = 2;
const STAGE_CELL_STEP: usize = 3;
const STAGE_THRESHOLD: usize = 4;
const STAGE_WARN: usize = 5;

/// Cached per-template preprocessing verdict. Safe templates are *not*
/// interned, so the memo records safety without consuming a phrase id.
#[derive(Debug, Clone, Copy)]
struct TemplateInfo {
    phrase: u32,
    safe: bool,
    terminal: bool,
}

/// One resident node: its event buffer and episode flags; its carried
/// stream is its row of the shared [`LeadBatch`].
#[derive(Debug)]
struct SlotState {
    node: NodeId,
    /// Recent non-Safe events: (time, phrase id).
    events: Vec<(Micros, u32)>,
    /// A warning was already raised for the current episode.
    warned: bool,
    /// The batch row carries live state. False after any buffer reset;
    /// the row is re-zeroed and the buffer replayed on the next scored
    /// event.
    has_stream: bool,
    /// Timestamp of this node's most recent event, for eviction.
    last_seen: Micros,
    /// The current wave holds a staged (not yet stepped) sample.
    staged: bool,
    /// Raw one-step MSE of the last wave step, for the decision trace.
    step_raw: Option<f64>,
    /// Flight and capture rings, resolved on first use so hot-path
    /// pushes skip the recorders' map locks.
    flight: Option<Arc<NodeFlight>>,
    capture: Option<Arc<NodeCapture>>,
}

/// One event's bookkeeping, deferred from staging to the in-order walk
/// after its wave steps. `rec` indexes the chunk being ingested.
#[derive(Debug)]
struct Pending {
    slot: usize,
    rec: usize,
    phrase: u32,
    /// The event starts a clean episode (buffer empty before its push);
    /// capture records it because replay can only begin at one.
    episode_reset: bool,
    /// `None` for a terminal or post-warning quiet event: unscored, but
    /// it moved buffer state, so capture still records it in order.
    scored: Option<Scored>,
}

#[derive(Debug)]
struct Scored {
    /// ΔT to the previous buffered event (0 at episode start).
    dt_secs: f64,
    /// The slot's row was rebuilt by replaying the buffer.
    replayed: bool,
    /// Time spent on that replay (zero without telemetry).
    replay_ns: u64,
    waterfall: Option<ActiveWaterfall>,
}

/// Decision-tracing sinks, attached via [`OnlineDetector::attach_tracing`].
#[derive(Debug)]
struct Tracer {
    flight: Arc<FlightRecorder>,
    warnings: Arc<WarningLog>,
}

/// Pre-resolved metric handles: every update is a lock-free atomic op.
/// Counters and histograms add, and the gauges are published as deltas,
/// so shards sharing one registry sum instead of overwriting each other.
#[derive(Debug)]
struct Metrics {
    /// `online.events` — non-Safe events ingested.
    events: Arc<Counter>,
    /// `online.warnings` — warnings emitted.
    warnings: Arc<Counter>,
    /// `online.score_latency_us` — model time of one scored event: its
    /// share of the wave's cell step (step time ÷ rows), its own buffer
    /// replay, and its threshold decision. The paper's Fig 10 per-event
    /// cost (≈0.65 ms on their hardware); at width 1, the whole step.
    score_latency: Arc<LatencyHistogram>,
    /// `ingest.batch_size` — staged rows per wave step.
    batch_size: Arc<LatencyHistogram>,
    /// `online.buffered_events` — events buffered across nodes.
    buffered: Arc<Gauge>,
    /// `online.resident_nodes` — node states held in memory.
    resident: Arc<Gauge>,
    /// `online.evicted_nodes` — node states dropped (idle or at the cap).
    evicted: Arc<Counter>,
    /// This detector's shares of the two gauges as last published.
    shown: (u64, u64),
}

/// Streaming detector wrapping a trained [`LeadTimeModel`].
#[derive(Debug)]
pub struct OnlineDetector {
    model: LeadTimeModel,
    cfg: DeshConfig,
    vocab: Arc<Vocab>,
    /// Vocabulary size at construction: a later-interned phrase id is a
    /// template the model never trained on (the drift signal).
    train_vocab: u32,
    nodes: HashMap<NodeId, usize>,
    /// Slot-indexed node states; `None` = free slot.
    slots: Vec<Option<SlotState>>,
    free: Vec<usize>,
    /// Resident-node cap: slots grow on demand up to it; at it, the
    /// longest-idle node is evicted to make room.
    max_nodes: usize,
    batch: LeadBatch,
    memo: HashMap<String, TemplateInfo>,
    warn: WarnPath,
    quality: Option<QualityMonitor>,
    metrics: Option<Metrics>,
    tracer: Option<Tracer>,
    capture: Option<Arc<CaptureTap>>,
    profiler: Option<Arc<SpanProfiler>>,
    shadow: Option<Box<ShadowScorer>>,
    observe_scores: bool,
    last_score: Option<f64>,
    /// Idle-sweep cadence ([`SWEEP_EVERY`]; tests lower it).
    sweep_every: u64,
    since_sweep: u64,
    /// High-water mark of record timestamps, the sweep's notion of "now".
    clock: Micros,
    events_seen: u64,
    warnings_emitted: u64,
    /// Events buffered across resident nodes, kept incrementally.
    buffered_total: u64,
    evicted_nodes: u64,
    // Reused per-chunk scratch.
    staged_rows: Vec<usize>,
    wave_scores: Vec<Option<f64>>,
    pending: Vec<Pending>,
    tmpl: String,
    replay_scores: Vec<Option<f64>>,
    /// Per-record primary score and the records that fired, for the
    /// shadow feed (filled only with a shadow attached).
    rec_scores: Vec<Option<f64>>,
    fired_recs: Vec<usize>,
}

impl OnlineDetector {
    /// Build from a trained model and the training vocabulary (phrase ids
    /// must match what the model was trained on), holding up to
    /// [`DEFAULT_MAX_NODES`] resident nodes. Telemetry is disabled.
    pub fn new(model: LeadTimeModel, vocab: Arc<Vocab>, cfg: DeshConfig) -> Self {
        Self::with_telemetry(model, vocab, cfg, DEFAULT_MAX_NODES, &Telemetry::disabled())
    }

    /// A detector holding up to `max_nodes` resident nodes and recording
    /// into a telemetry registry: `online.events` / `online.warnings` /
    /// `online.evicted_nodes` counters, the `online.score_latency_us`
    /// and `ingest.batch_size` histograms, and the
    /// `online.buffered_events` / `online.resident_nodes` gauges. Handles
    /// are resolved once here so ingest never takes the registry lock.
    /// The static `nn.kernel_backend` gauge identifies the scoring
    /// substrate (the [`desh_nn::Backend::code`] of the dispatched SIMD
    /// backend).
    pub fn with_telemetry(
        model: LeadTimeModel,
        vocab: Arc<Vocab>,
        cfg: DeshConfig,
        max_nodes: usize,
        telemetry: &Telemetry,
    ) -> Self {
        assert!(max_nodes > 0, "a detector needs at least one slot");
        let metrics = telemetry.registry().map(|r| {
            r.gauge("nn.kernel_backend")
                .set(desh_nn::kernel_backend().code() as f64);
            Metrics {
                events: r.counter("online.events"),
                warnings: r.counter("online.warnings"),
                score_latency: r.histogram("online.score_latency_us"),
                batch_size: r.histogram("ingest.batch_size"),
                buffered: r.gauge("online.buffered_events"),
                resident: r.gauge("online.resident_nodes"),
                evicted: r.counter("online.evicted_nodes"),
                shown: (0, 0),
            }
        });
        let slots = INITIAL_SLOTS.min(max_nodes);
        Self {
            batch: model.begin_batch(slots),
            warn: WarnPath {
                chains: ChainMatcher::default(),
                episode: Vec::new(),
                net: model.net.workspace(),
            },
            model,
            cfg,
            train_vocab: vocab.len() as u32,
            vocab,
            nodes: HashMap::new(),
            slots: (0..slots).map(|_| None).collect(),
            free: (0..slots).rev().collect(),
            max_nodes,
            memo: HashMap::new(),
            quality: QualityMonitor::new(telemetry),
            metrics,
            tracer: None,
            capture: None,
            profiler: None,
            shadow: None,
            observe_scores: false,
            last_score: None,
            sweep_every: SWEEP_EVERY,
            since_sweep: 0,
            clock: Micros(0),
            events_seen: 0,
            warnings_emitted: 0,
            buffered_total: 0,
            evicted_nodes: 0,
            staged_rows: Vec::new(),
            wave_scores: Vec::new(),
            pending: Vec::new(),
            tmpl: String::new(),
            replay_scores: Vec::new(),
            rec_scores: Vec::new(),
            fired_recs: Vec::new(),
        }
    }

    /// The fixed stage list of the online serving waterfall, in the order
    /// an event flows through [`OnlineDetector::ingest_line`]. Build the
    /// profiler to attach with exactly these stages.
    pub const PROFILE_STAGES: [&'static str; 6] = [
        "parse",
        "template",
        "encode",
        "cell_step",
        "threshold",
        "warn",
    ];

    /// Attach a sampled span profiler built over
    /// [`OnlineDetector::PROFILE_STAGES`]. Unsampled records pay one
    /// atomic increment; without this call, one `Option` check. In a
    /// wave of several events, an event's `cell_step` stage also holds
    /// its wait for the rest of the wave.
    pub fn attach_profiler(&mut self, profiler: Arc<SpanProfiler>) {
        assert_eq!(
            profiler.stage_names().len(),
            Self::PROFILE_STAGES.len(),
            "profiler stage list must match OnlineDetector::PROFILE_STAGES"
        );
        self.profiler = Some(profiler);
    }

    /// Attach decision tracing: every scored event lands in `flight`'s
    /// per-node ring, and each fired warning (with the ring contents as
    /// evidence) is pushed to `warnings`. Without this call the scoring
    /// path never touches either.
    pub fn attach_tracing(&mut self, flight: Arc<FlightRecorder>, warnings: Arc<WarningLog>) {
        self.tracer = Some(Tracer { flight, warnings });
    }

    /// Attach an incident-capture tap: every non-Safe ingested event is
    /// recorded into the tap's per-node ring — raw line, assigned phrase
    /// id, episode-reset marker, and (for scored events) the decision
    /// trace words — and every fired warning as a capture-side warning
    /// record, all in global record order. This is the feed a
    /// `CapsuleRecorder` seals into `.dcap` files and the ground truth
    /// bit-exact replay compares against. Decisions are unchanged.
    pub fn attach_capture(&mut self, tap: Arc<CaptureTap>) {
        self.capture = Some(tap);
    }

    /// Attach the trained failure chains so warnings can name the nearest
    /// chain (index into `chains` + DTW distance). Chains are encoded once
    /// here, as samples; the per-warning cost is one DTW pass per chain
    /// through reused tables, paid only when a warning actually fires.
    pub fn attach_chains(&mut self, chains: &[FailureChain]) {
        self.warn.chains = ChainMatcher::new(chains, &self.model);
    }

    /// Attach a shadow scorer: once each chunk settles, every record of
    /// it flows through the candidate and its divergence monitor in
    /// record order, with this detector's warning and score for that
    /// record. Pure observation — the warnings stay bit-identical to an
    /// unshadowed run.
    pub fn attach_shadow(&mut self, scorer: ShadowScorer) {
        self.shadow = Some(Box::new(scorer));
    }

    /// The attached shadow scorer, if any.
    pub fn shadow(&self) -> Option<&ShadowScorer> {
        self.shadow.as_deref()
    }

    /// Publish the decision score of each ingest's last record through
    /// [`OnlineDetector::last_score`]. Observation-only.
    pub fn set_observe_scores(&mut self, on: bool) {
        self.observe_scores = on;
        self.last_score = None;
    }

    /// The decision score (mean MSE, same units as warning scores) of the
    /// last record of the most recent ingest, when score observation is
    /// on and that record was scored (`None` for Safe-filtered, terminal,
    /// and post-warning quiet records).
    pub fn last_score(&self) -> Option<f64> {
        self.last_score
    }

    /// Total events ingested (after Safe filtering).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Total warnings emitted.
    pub fn warnings_emitted(&self) -> u64 {
        self.warnings_emitted
    }

    /// Node states currently resident in memory.
    pub fn resident_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total node states evicted so far (idle past the session gap, or
    /// the longest-idle one at the resident-node cap).
    pub fn evicted_nodes(&self) -> u64 {
        self.evicted_nodes
    }

    /// Ingest one raw text line. Returns a warning if this line completed
    /// a recognisable failure-chain prefix; `None` for benign/ignored
    /// lines; `Err` for unparseable lines (which a deployment would count
    /// and skip). This is the surface whose waterfall includes the
    /// `parse` stage; [`OnlineDetector::ingest`] starts at `template`.
    pub fn ingest_line(&mut self, line: &str) -> Result<Option<Warning>, String> {
        let mut wf = self.profiler.as_ref().and_then(|p| p.begin());
        let record: LogRecord = line.parse().map_err(|e| format!("{e}"))?;
        if let Some(w) = wf.as_mut() {
            w.mark(STAGE_PARSE);
        }
        Ok(self.ingest_one(&record, wf))
    }

    /// Ingest one structured record: a chunk of one.
    pub fn ingest(&mut self, record: &LogRecord) -> Option<Warning> {
        let wf = self.profiler.as_ref().and_then(|p| p.begin());
        self.ingest_one(record, wf)
    }

    fn ingest_one(&mut self, record: &LogRecord, wf: Option<ActiveWaterfall>) -> Option<Warning> {
        let records = std::slice::from_ref(record);
        let mut fired = Vec::new();
        self.begin_chunk(1);
        self.stage(0, records, &mut fired, wf);
        self.settle(records, &mut fired, 0);
        fired.pop()
    }

    /// Ingest a chunk of records in arrival order, appending fired
    /// warnings (in record order) to `warnings`. The wave window never
    /// extends past the chunk: state is fully settled on return.
    pub fn ingest_chunk(&mut self, records: &[LogRecord], warnings: &mut Vec<Warning>) {
        let base = warnings.len();
        self.begin_chunk(records.len());
        for rec in 0..records.len() {
            let wf = self.profiler.as_ref().and_then(|p| p.begin());
            self.stage(rec, records, warnings, wf);
        }
        self.settle(records, warnings, base);
    }

    fn begin_chunk(&mut self, len: usize) {
        self.last_score = None;
        if self.shadow.is_some() {
            self.rec_scores.clear();
            self.rec_scores.resize(len, None);
            self.fired_recs.clear();
        }
    }

    /// Record `rec` of the chunk up to its wave: template, buffer
    /// bookkeeping (session-gap reset, episode marker, push, terminal,
    /// quiet), then — for a scored event — staging its sample. What
    /// reads the step's result waits for [`Self::flush_wave`].
    fn stage(
        &mut self,
        rec: usize,
        records: &[LogRecord],
        warnings: &mut Vec<Warning>,
        mut wf: Option<ActiveWaterfall>,
    ) {
        let record = &records[rec];
        extract_template_into(&record.text, &mut self.tmpl);
        let info = match self.memo.get(self.tmpl.as_str()) {
            Some(&info) => info,
            None => {
                let safe = label_template(&self.tmpl) == Label::Safe;
                let info = TemplateInfo {
                    phrase: if safe {
                        0
                    } else {
                        self.vocab.intern(&self.tmpl)
                    },
                    safe,
                    terminal: !safe && is_failure_terminal(&self.tmpl),
                };
                if self.memo.len() < MEMO_CAP {
                    self.memo.insert(self.tmpl.clone(), info);
                }
                info
            }
        };
        // Safe records drop their waterfall unrecorded: they never reach
        // the serving path proper.
        if info.safe {
            return;
        }
        let phrase = info.phrase;
        if let Some(q) = &self.quality {
            q.record_template(phrase >= self.train_vocab);
        }
        if let Some(w) = wf.as_mut() {
            w.set_at_us(record.time.0);
            w.mark(STAGE_TEMPLATE);
        }
        self.clock = self.clock.max(record.time);
        self.since_sweep += 1;
        if self.since_sweep >= self.sweep_every {
            self.since_sweep = 0;
            self.flush_wave(records, warnings);
            self.sweep_idle_slots();
        }
        let slot = match self.nodes.get(&record.node) {
            Some(&s) => s,
            None => self.alloc_slot(record.node, records, warnings),
        };
        // Wave cut: stepping or resetting a node twice in one wave would
        // corrupt its pending score.
        if self.slots[slot].as_ref().is_some_and(|s| s.staged) {
            self.flush_wave(records, warnings);
        }

        // Session split: a long quiet gap starts a new episode.
        let gap = Micros::from_secs_f64(self.cfg.episodes.session_gap_secs);
        let st = self.slots[slot]
            .as_mut()
            .expect("resolved slot is occupied");
        st.last_seen = record.time;
        let mut dt_secs = 0.0;
        if let Some(&(last, _)) = st.events.last() {
            if record.time.saturating_sub(last) > gap {
                self.buffered_total -= st.events.len() as u64;
                st.events.clear();
                st.warned = false;
                st.has_stream = false;
            } else {
                dt_secs = record.time.saturating_sub(last).as_secs_f64();
            }
        }
        let episode_reset = st.events.is_empty();
        st.events.push((record.time, phrase));
        self.events_seen += 1;
        self.buffered_total += 1;
        if let Some(m) = &self.metrics {
            m.events.inc();
        }
        if let Some(w) = wf.as_mut() {
            w.mark(STAGE_ENCODE);
        }
        let mut pending = Pending {
            slot,
            rec,
            phrase,
            episode_reset,
            scored: None,
        };

        // A terminal message ends the episode — too late to warn — and a
        // node that already warned stays quiet until a reset.
        if info.terminal || st.warned {
            if info.terminal {
                self.buffered_total -= st.events.len() as u64;
                st.events.clear();
                st.warned = false;
                st.has_stream = false;
            }
            if self.capture.is_some() {
                self.pending.push(pending);
            }
            if let (Some(p), Some(w)) = (&self.profiler, wf) {
                p.finish(w, Some(STAGE_CELL_STEP));
            }
            return;
        }

        // Scored: (re)build the slot's carried state if needed — replay
        // the buffered prefix through the row, rare and short — then
        // stage this event's sample for the wave step.
        let replayed = !st.has_stream;
        let t0 = (replayed && self.metrics.is_some()).then(Instant::now);
        if replayed {
            st.has_stream = true;
            self.batch.reset_slot(slot);
            for &(t, p) in &st.events[..st.events.len() - 1] {
                self.model.batch_stage(&mut self.batch, slot, t, p);
                self.model
                    .batch_push_rows(&mut self.batch, &[slot], &mut self.replay_scores);
            }
        }
        self.model
            .batch_stage(&mut self.batch, slot, record.time, phrase);
        st.staged = true;
        self.staged_rows.push(slot);
        pending.scored = Some(Scored {
            dt_secs,
            replayed,
            replay_ns: t0.map_or(0, |t| t.elapsed().as_nanos() as u64),
            waterfall: wf,
        });
        self.pending.push(pending);
    }

    /// Settle the chunk: step the last wave, publish the occupancy
    /// gauges, and feed an attached shadow every record in order.
    fn settle(&mut self, records: &[LogRecord], warnings: &mut Vec<Warning>, base: usize) {
        self.flush_wave(records, warnings);
        if let Some(m) = &mut self.metrics {
            let now = (self.buffered_total, self.nodes.len() as u64);
            m.buffered.add(now.0 as f64 - m.shown.0 as f64);
            m.resident.add(now.1 as f64 - m.shown.1 as f64);
            m.shown = now;
        }
        if let Some(shadow) = &mut self.shadow {
            let mut fired = self.fired_recs.iter().zip(&warnings[base..]).peekable();
            for (rec, record) in records.iter().enumerate() {
                let w = fired.next_if(|&(&r, _)| r == rec).map(|(_, w)| w);
                shadow.observe(record, w, self.rec_scores[rec]);
            }
        }
    }

    /// Resolve a slot for a new node: reuse a free slot, double the slot
    /// rows while under the cap, or — at the cap — settle the wave and
    /// evict the longest-idle resident.
    fn alloc_slot(
        &mut self,
        node: NodeId,
        records: &[LogRecord],
        warnings: &mut Vec<Warning>,
    ) -> usize {
        if self.free.is_empty() {
            let have = self.slots.len();
            if have < self.max_nodes {
                let want = (2 * have).min(self.max_nodes);
                self.batch.grow(want);
                self.slots.resize_with(want, || None);
                self.free.extend((have..want).rev());
            } else {
                // With the wave settled no slot is staged or pending, so
                // any resident is safe to evict.
                self.flush_wave(records, warnings);
                let lru = (0..self.slots.len())
                    .filter_map(|i| self.slots[i].as_ref().map(|s| (s.last_seen, i)))
                    .min()
                    .expect("no free slot implies at least one resident")
                    .1;
                self.evict_slot(lru);
            }
        }
        let slot = self.free.pop().expect("a slot was freed or added");
        self.slots[slot] = Some(SlotState {
            node,
            events: Vec::new(),
            warned: false,
            has_stream: false,
            last_seen: Micros(0),
            staged: false,
            step_raw: None,
            flight: None,
            capture: None,
        });
        self.nodes.insert(node, slot);
        slot
    }

    /// Drop a resident slot; its row is re-zeroed when next rebuilt.
    fn evict_slot(&mut self, slot: usize) {
        let st = self.slots[slot].take().expect("evicting an empty slot");
        self.nodes.remove(&st.node);
        self.buffered_total -= st.events.len() as u64;
        self.free.push(slot);
        self.evicted_nodes += 1;
        if let Some(m) = &self.metrics {
            m.evicted.inc();
        }
    }

    /// Evict every resident idle longer than the session gap, against the
    /// record-time high-water mark (so feed stalls never evict). On a
    /// time-ordered stream this never changes a warning: an evicted
    /// node's next event would have reset its buffer anyway. Only called
    /// between waves.
    fn sweep_idle_slots(&mut self) {
        let ttl = Micros::from_secs_f64(self.cfg.episodes.session_gap_secs);
        for slot in 0..self.slots.len() {
            if let Some(st) = &self.slots[slot] {
                if self.clock.saturating_sub(st.last_seen) > ttl {
                    self.evict_slot(slot);
                }
            }
        }
    }

    /// Step every staged row as one wave, then walk the pending
    /// bookkeeping in record order. On return nothing is staged or
    /// pending.
    fn flush_wave(&mut self, records: &[LogRecord], warnings: &mut Vec<Warning>) {
        let mut step_ns = 0;
        if !self.staged_rows.is_empty() {
            let t0 = self.metrics.as_ref().map(|_| Instant::now());
            self.model
                .batch_push_rows(&mut self.batch, &self.staged_rows, &mut self.wave_scores);
            let rows = self.staged_rows.len() as u64;
            if let (Some(m), Some(t0)) = (&self.metrics, t0) {
                m.batch_size.record(rows);
                step_ns = t0.elapsed().as_nanos() as u64 / rows;
            }
            for (&slot, &score) in self.staged_rows.iter().zip(&self.wave_scores) {
                let st = self.slots[slot].as_mut().expect("staged slot is occupied");
                st.step_raw = score;
                st.staged = false;
            }
            self.staged_rows.clear();
        }
        let mut pending = std::mem::take(&mut self.pending);
        for mut p in pending.drain(..) {
            match p.scored.take() {
                Some(s) => self.decide(&p, s, records, step_ns, warnings),
                None => {
                    let st = self.slots[p.slot]
                        .as_mut()
                        .expect("pending slot is occupied");
                    let tap = self
                        .capture
                        .as_ref()
                        .expect("unscored events wait for capture");
                    capture_event(tap, st, &records[p.rec], p.phrase, p.episode_reset, None);
                }
            }
        }
        self.pending = pending;
    }

    /// The decision for one stepped event: threshold its slot's running
    /// score, record latency and score, trace and capture it, and on a
    /// hit raise the warning and drop the slot's carried state.
    fn decide(
        &mut self,
        p: &Pending,
        s: Scored,
        records: &[LogRecord],
        step_ns: u64,
        warnings: &mut Vec<Warning>,
    ) {
        let record = &records[p.rec];
        let mut wf = s.waterfall;
        if let Some(w) = wf.as_mut() {
            w.mark(STAGE_CELL_STEP);
        }
        let t0 = self.metrics.as_ref().map(|_| Instant::now());
        let transitions = self.batch.transitions(p.slot);
        let mean_raw = self.model.batch_mean(&self.batch, p.slot);
        let st = self.slots[p.slot]
            .as_mut()
            .expect("pending slot is occupied");
        let warning = evaluate(
            &self.model,
            &self.cfg,
            &self.vocab,
            &mut self.warn,
            &st.events,
            transitions,
            mean_raw,
            record,
        );
        if let Some(w) = wf.as_mut() {
            w.mark(STAGE_THRESHOLD);
        }
        if let (Some(m), Some(t0)) = (&self.metrics, t0) {
            let model_time = Duration::from_nanos(step_ns + s.replay_ns) + t0.elapsed();
            m.score_latency.record(duration_us(model_time));
            if warning.is_some() {
                m.warnings.inc();
            }
        }
        let unit = (self.model.vocab_size + 1) as f64 / 2.0 * self.cfg.phase3.score_scale;
        let score = mean_raw.map(|m| m * unit);
        if self.shadow.is_some() {
            self.rec_scores[p.rec] = score;
        }
        if self.observe_scores && p.rec + 1 == records.len() {
            self.last_score = score;
        }

        // Decision trace: a handful of atomic stores into the node's ring,
        // skipped entirely when neither tracing nor capture is attached.
        let trace = (self.tracer.is_some() || self.capture.is_some()).then(|| TraceEvent {
            at_us: record.time.0,
            phrase: p.phrase,
            dt_secs: s.dt_secs,
            step_mse: st.step_raw.map(|s| s * unit).unwrap_or(f64::NAN),
            mean_mse: score.unwrap_or(f64::NAN),
            threshold: self.cfg.phase3.mse_threshold,
            transitions: transitions as u32,
            min_evidence: self.cfg.phase3.min_evidence as u32,
            replayed: s.replayed,
            warned: warning.is_some(),
            matched_chain: warning
                .as_ref()
                .and_then(|w| w.matched_chain)
                .map_or(-1, |c| c as i64),
        });
        if let (Some(tr), Some(ev)) = (&self.tracer, &trace) {
            let ring = st
                .flight
                .get_or_insert_with(|| tr.flight.node(&record.node.to_string()));
            ring.push(ev);
            if let Some(w) = &warning {
                // The ring contents, this firing event included, are the
                // warning's evidence.
                tr.warnings
                    .push(crate::observe::warning_record(w, ring.snapshot()));
            }
        }
        if let Some(tap) = &self.capture {
            let words = trace.as_ref().map(|e| e.to_words());
            capture_event(tap, st, record, p.phrase, p.episode_reset, words);
            if let Some(w) = &warning {
                // The captured trace words already carry the decision
                // history, so the warning record travels without a copy.
                tap.record_warning(crate::observe::warning_record(w, Vec::new()));
            }
        }

        if let Some(w) = warning {
            // The episode is done from a scoring perspective; the carried
            // state is rebuilt if the node episodes again.
            st.warned = true;
            st.has_stream = false;
            self.warnings_emitted += 1;
            if self.shadow.is_some() {
                self.fired_recs.push(p.rec);
            }
            if let Some(wf) = wf.as_mut() {
                wf.mark(STAGE_WARN);
            }
            warnings.push(w);
        }
        if let (Some(p), Some(w)) = (&self.profiler, wf) {
            p.finish(w, Some(STAGE_CELL_STEP));
        }
    }

    /// Render a warning the way the paper phrases it (§4.5), naming the
    /// matched trained chain when one was retrieved.
    pub fn format_warning(w: &Warning) -> String {
        let mut line = format!(
            "In {:.1} seconds, node {} (cabinet {}-{}, chassis {}, slot {}) is expected to fail [{}]",
            w.predicted_lead_secs,
            w.node,
            w.node.cab_x,
            w.node.cab_y,
            w.node.chassis,
            w.node.slot,
            w.class.name()
        );
        if let (Some(c), Some(d)) = (w.matched_chain, w.chain_distance) {
            line.push_str(&format!(" — matched chain #{c} (dtw {d:.4})"));
        }
        line
    }

    /// Test hook: sweep for idle nodes every `every` ingested events.
    #[cfg(test)]
    pub(crate) fn set_sweep_every(&mut self, every: u64) {
        assert!(every > 0, "sweep cadence must be non-zero");
        self.sweep_every = every;
    }
}

/// Record one ingested event into the node's incident-capture ring.
fn capture_event(
    tap: &CaptureTap,
    st: &mut SlotState,
    record: &LogRecord,
    phrase: u32,
    reset: bool,
    trace: Option<[u64; desh_obs::TRACE_WORDS]>,
) {
    let ring = st
        .capture
        .get_or_insert_with(|| tap.node(&record.node.to_string()));
    ring.push(CapsuleEvent {
        seq: tap.next_seq(),
        at_us: record.time.0,
        node: record.node.to_string(),
        text: record.text.clone(),
        phrase,
        reset,
        trace,
    });
}

/// The warning path's state: the attached chains and the buffers every
/// warning reuses.
#[derive(Debug)]
struct WarnPath {
    /// Trained chains in sample form, for naming the matched chain.
    chains: ChainMatcher,
    /// The firing episode, countdown-encoded.
    episode: Vec<Sample>,
    /// Workspace of the lead-time estimate.
    net: ScoreWorkspace,
}

/// The warning decision: threshold the slot's stream aggregate
/// (`transitions`, `mean_raw`), and on a hit pay for the full-buffer work
/// over `events`.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    model: &LeadTimeModel,
    cfg: &DeshConfig,
    vocab: &Vocab,
    warn: &mut WarnPath,
    events: &[(Micros, u32)],
    transitions: usize,
    mean_raw: Option<f64>,
    record: &LogRecord,
) -> Option<Warning> {
    if transitions < cfg.phase3.min_evidence {
        return None;
    }
    let unit = (model.vocab_size + 1) as f64 / 2.0 * cfg.phase3.score_scale;
    let score = mean_raw? * unit;
    if score > cfg.phase3.mse_threshold {
        return None;
    }

    // Chain recognised. Only now pay for the full-buffer work: the
    // countdown-encoded episode (the batch pipeline's ΔT form) feeds the
    // lead-time estimate and the DTW retrieval against the attached
    // chains, and the evidence strings are materialised for the report.
    let newest = events.last().unwrap().0;
    warn.episode.clear();
    warn.episode.extend(
        events
            .iter()
            .map(|&(t, p)| model.sample(newest.saturating_sub(t).as_secs_f64(), p)),
    );
    let predicted_lead_secs = model.predict_lead_secs(&warn.episode, &mut warn.net);
    let nearest = warn.chains.nearest(&warn.episode);
    let evidence: Vec<String> = events
        .iter()
        .map(|&(_, p)| vocab.text(p).unwrap_or_default())
        .collect();
    Some(Warning {
        node: record.node,
        at: record.time,
        predicted_lead_secs,
        score,
        class: classify_templates(&evidence),
        evidence,
        matched_chain: nearest.map(|(i, _)| i),
        chain_distance: nearest.map(|(_, d)| d),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Desh, TrainedDesh};
    use desh_loggen::{generate, Dataset, SystemProfile};

    fn fixture(seed: u64) -> (TrainedDesh, DeshConfig, Dataset) {
        let mut p = SystemProfile::tiny();
        p.failures = 30;
        p.nodes = 24;
        let d = generate(&p, seed);
        let (train, test) = d.split_by_time(0.3);
        let desh = Desh::new(DeshConfig::fast(), seed);
        let trained = desh.train(&train);
        (trained, desh.cfg, test)
    }

    fn detector(
        t: &TrainedDesh,
        cfg: &DeshConfig,
        max_nodes: usize,
        tel: &Telemetry,
    ) -> OnlineDetector {
        OnlineDetector::with_telemetry(
            t.lead_model.clone(),
            t.parsed_train.vocab.clone(),
            cfg.clone(),
            max_nodes,
            tel,
        )
    }

    fn trained_detector(seed: u64) -> (OnlineDetector, Dataset) {
        let (trained, cfg, test) = fixture(seed);
        let det = OnlineDetector::new(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            cfg,
        );
        (det, test)
    }

    /// Every field of two warning streams, floats by their bits.
    fn assert_same_warnings(a: &[Warning], b: &[Warning]) {
        assert_eq!(a.len(), b.len(), "warning count diverged");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.at, y.at);
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "score bits for {}",
                x.node
            );
            assert_eq!(
                x.predicted_lead_secs.to_bits(),
                y.predicted_lead_secs.to_bits(),
                "lead bits for {}",
                x.node
            );
            assert_eq!(x.class, y.class);
            assert_eq!(x.evidence, y.evidence);
            assert_eq!(x.matched_chain, y.matched_chain);
            assert_eq!(
                x.chain_distance.map(f64::to_bits),
                y.chain_distance.map(f64::to_bits)
            );
        }
    }

    /// Recount the buffered events of every resident slot.
    fn recount(det: &OnlineDetector) -> u64 {
        det.slots
            .iter()
            .flatten()
            .map(|s| s.events.len() as u64)
            .sum()
    }

    #[test]
    fn warnings_precede_most_failures() {
        let (mut det, test) = trained_detector(301);
        let mut warned_nodes: Vec<(NodeId, Micros)> = Vec::new();
        for r in &test.records {
            if let Some(w) = det.ingest(r) {
                warned_nodes.push((w.node, w.at));
            }
        }
        assert!(det.warnings_emitted() > 0, "no warnings at all");
        // Most ground-truth failures should have a warning strictly before
        // the terminal on the same node.
        let mut hit = 0;
        for f in &test.failures {
            if warned_nodes.iter().any(|&(n, at)| {
                n == f.node && at < f.time && f.time.saturating_sub(at).as_mins_f64() < 10.0
            }) {
                hit += 1;
            }
        }
        let frac = hit as f64 / test.failures.len() as f64;
        assert!(
            frac > 0.5,
            "only {hit}/{} failures warned ahead",
            test.failures.len()
        );
    }

    #[test]
    fn one_warning_per_episode() {
        let (mut det, test) = trained_detector(302);
        let mut per_node_burst: HashMap<NodeId, u64> = HashMap::new();
        for r in &test.records {
            if let Some(w) = det.ingest(r) {
                *per_node_burst.entry(w.node).or_default() += 1;
            }
        }
        // Warnings per node bounded by its episodes: with 30 failures on 24
        // nodes, no node should scream dozens of times.
        for (node, count) in per_node_burst {
            assert!(count <= 8, "node {node} warned {count} times");
        }
    }

    #[test]
    fn warnings_report_positive_leads_and_classes() {
        let (mut det, test) = trained_detector(303);
        for r in &test.records {
            if let Some(w) = det.ingest(r) {
                assert!(w.predicted_lead_secs >= 0.0 && w.predicted_lead_secs.is_finite());
                assert!(!w.evidence.is_empty());
                let line = OnlineDetector::format_warning(&w);
                assert!(line.contains("expected to fail"), "{line}");
                assert!(line.contains(&w.node.to_string()), "{line}");
            }
        }
    }

    #[test]
    fn ingest_line_round_trip_and_errors() {
        let (mut det, test) = trained_detector(304);
        let line = test.records[0].to_raw_line();
        det.ingest_line(&line).expect("generator lines parse");
        assert!(det.ingest_line("not a log line").is_err());
    }

    #[test]
    fn telemetry_captures_scoring_latency_and_occupancy() {
        let (trained, cfg, test) = fixture(306);
        let t = Telemetry::enabled();
        let mut det = detector(&trained, &cfg, DEFAULT_MAX_NODES, &t);
        for r in &test.records {
            det.ingest(r);
        }
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.counter("online.events"), Some(det.events_seen()));
        assert_eq!(
            snap.counter("online.warnings"),
            Some(det.warnings_emitted())
        );
        assert!(det.warnings_emitted() > 0);
        let lat = snap.histogram("online.score_latency_us").unwrap();
        assert!(lat.count() > 0, "no scoring passes recorded");
        assert!(lat.max() > 0, "every scored event read as 0 µs");
        // One latency sample per scored event, and every wave at width 1
        // holds exactly one of them.
        let waves = snap.histogram("ingest.batch_size").unwrap();
        assert_eq!(lat.count(), waves.sum());
        assert_eq!(waves.count(), waves.sum());
        // The incremental occupancy total matches a direct recount, and
        // the gauges show it.
        assert_eq!(det.buffered_total, recount(&det));
        assert_eq!(
            snap.gauge("online.buffered_events"),
            Some(det.buffered_total as f64)
        );
        assert_eq!(
            snap.gauge("online.resident_nodes"),
            Some(det.resident_nodes() as f64)
        );
    }

    #[test]
    fn incremental_scores_match_batch_replay() {
        // Replay the same records through the detector and, after each
        // scored event, recompute the node's score from scratch over its
        // whole buffer. The carried slot aggregate must agree with the
        // O(n²) batch recomputation bit for bit.
        let (mut det, test) = trained_detector(307);
        let mut checked = 0usize;
        for r in &test.records {
            det.ingest(r);
            let Some(&slot) = det.nodes.get(&r.node) else {
                continue;
            };
            let state = det.slots[slot].as_ref().unwrap();
            let transitions = det.batch.transitions(slot);
            if !state.has_stream || transitions == 0 {
                continue;
            }
            let incremental = det.model.batch_mean(&det.batch, slot).unwrap();
            let batch = det.model.score_events_batch(&state.events);
            assert_eq!(batch.len(), transitions, "transition count drifted");
            let batch_mean = batch.iter().sum::<f64>() / batch.len() as f64;
            assert_eq!(
                incremental.to_bits(),
                batch_mean.to_bits(),
                "incremental {incremental} vs batch {batch_mean} after {} events",
                state.events.len()
            );
            checked += 1;
            if checked >= 500 {
                break;
            }
        }
        assert!(checked >= 50, "replay only compared {checked} states");
    }

    #[test]
    fn batched_warnings_bit_identical_to_sequential() {
        // Wave width never changes an answer: chunks of 7, 64 and the
        // whole stream against one record at a time. The second pass adds
        // a record dated a day ahead (clock skew) and sweeps every 5
        // events, so evictions hit nodes that are not idle by their own
        // clocks — and still land identically at every width.
        let (trained, cfg, mut test) = fixture(401);
        for skewed in [false, true] {
            if skewed {
                let mid = test.records.len() / 2;
                let mut r = test.records[mid..]
                    .iter()
                    .find(|r| {
                        label_template(&desh_logparse::extract_template(&r.text)) != Label::Safe
                    })
                    .expect("a non-Safe record after the midpoint")
                    .clone();
                r.time += Micros::from_secs_f64(86_400.0);
                test.records.insert(mid, r);
            }
            let run = |chunk: usize| {
                let mut det = OnlineDetector::new(
                    trained.lead_model.clone(),
                    trained.parsed_train.vocab.clone(),
                    cfg.clone(),
                );
                det.attach_chains(&trained.phase1.chains);
                if skewed {
                    det.set_sweep_every(5);
                }
                let mut warnings = Vec::new();
                if chunk == 1 {
                    warnings.extend(test.records.iter().filter_map(|r| det.ingest(r)));
                } else {
                    for c in test.records.chunks(chunk.min(test.records.len())) {
                        det.ingest_chunk(c, &mut warnings);
                    }
                }
                (warnings, det.events_seen(), det.evicted_nodes())
            };
            let (reference, events, evicted) = run(1);
            assert!(!reference.is_empty(), "fixture fired no warnings");
            assert!(!skewed || evicted > 0, "skewed pass evicted nothing");
            for chunk in [7usize, 64, usize::MAX] {
                let (got, got_events, got_evicted) = run(chunk);
                assert_same_warnings(&reference, &got);
                assert_eq!(events, got_events, "chunk {chunk}");
                assert_eq!(evicted, got_evicted, "chunk {chunk}");
            }
        }
    }

    #[test]
    fn warnings_match_the_dense_oracle_on_their_episodes() {
        // Every warning's lead time, matched chain and chain distance are,
        // bit for bit, those of the one-hot forms the sample path
        // replaces, over the firing episode: `StackedLstm::infer` on a
        // zero-padded dense window and the dense DTW, at every wave width.
        use crate::explain::tests::{bits, oracle_nearest, oracle_vector};
        use desh_nn::Mat;
        let (trained, cfg, test) = fixture(403);
        let model = &trained.lead_model;
        let (scale, vocab, history) = (model.dt_scale, model.vocab_size, model.history);
        let dense_chains: Vec<Vec<Vec<f32>>> = trained
            .phase1
            .chains
            .iter()
            .map(|c| {
                c.events
                    .iter()
                    .map(|e| oracle_vector(e.delta_t, e.phrase, scale, vocab))
                    .collect()
            })
            .collect();
        let fresh = || {
            let mut det = OnlineDetector::new(
                model.clone(),
                trained.parsed_train.vocab.clone(),
                cfg.clone(),
            );
            det.attach_chains(&trained.phase1.chains);
            det
        };
        // Width 1: read each firing episode out of its node's buffer.
        let mut det = fresh();
        let mut oracle = Vec::new();
        for r in &test.records {
            if det.ingest(r).is_none() {
                continue;
            }
            let st = det.slots[det.nodes[&r.node]].as_ref().unwrap();
            let newest = st.events.last().unwrap().0;
            let ep: Vec<Vec<f32>> = st
                .events
                .iter()
                .map(|&(t, p)| {
                    oracle_vector(newest.saturating_sub(t).as_secs_f64(), p, scale, vocab)
                })
                .collect();
            let xs: Vec<Mat> = (ep.len()..history)
                .map(|_| Mat::zeros(1, vocab + 1))
                .chain(
                    ep[ep.len().saturating_sub(history)..]
                        .iter()
                        .map(|v| Mat::from_vec(1, vocab + 1, v.clone())),
                )
                .collect();
            let lead = model.denormalize_dt(model.net.net.infer(&xs).row(0)[0]);
            oracle.push((lead.to_bits(), bits(oracle_nearest(&ep, &dense_chains))));
        }
        assert!(oracle.len() >= 5, "fixture fired {} warnings", oracle.len());
        assert!(oracle.iter().all(|(_, hit)| hit.is_some()));
        for chunk in [1usize, 7, 64] {
            let mut det = fresh();
            let mut warnings = Vec::new();
            for c in test.records.chunks(chunk) {
                det.ingest_chunk(c, &mut warnings);
            }
            let got: Vec<_> = warnings
                .iter()
                .map(|w| {
                    let hit = w.matched_chain.zip(w.chain_distance);
                    (w.predicted_lead_secs.to_bits(), bits(hit))
                })
                .collect();
            assert_eq!(got, oracle, "chunk {chunk}");
        }
    }

    #[test]
    fn batched_traces_bit_identical_to_sequential() {
        let (trained, cfg, test) = fixture(403);
        let tel = Telemetry::disabled();
        let mut seq = detector(&trained, &cfg, 64, &tel);
        let seq_flight = Arc::new(FlightRecorder::new());
        seq.attach_tracing(Arc::clone(&seq_flight), Arc::new(WarningLog::new(64)));
        let mut bat = detector(&trained, &cfg, 64, &tel);
        let bat_flight = Arc::new(FlightRecorder::new());
        bat.attach_tracing(Arc::clone(&bat_flight), Arc::new(WarningLog::new(64)));

        for r in &test.records {
            seq.ingest(r);
        }
        let mut sink = Vec::new();
        for c in test.records.chunks(97) {
            bat.ingest_chunk(c, &mut sink);
        }

        let mut names = seq_flight.node_names();
        names.sort();
        let mut bat_names = bat_flight.node_names();
        bat_names.sort();
        assert_eq!(names, bat_names, "traced node sets differ");
        let mut compared = 0usize;
        for n in &names {
            let a = seq_flight.get(n).unwrap().snapshot();
            let b = bat_flight.get(n).unwrap().snapshot();
            assert_eq!(a.len(), b.len(), "trace count for {n}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    x.to_words(),
                    y.to_words(),
                    "trace words for {n} at {}",
                    x.at_us
                );
                compared += 1;
            }
        }
        assert!(compared > 100, "only {compared} traces compared");
    }

    #[test]
    fn tracing_records_decisions_and_warning_evidence() {
        let (trained, cfg, test) = fixture(308);
        let mut det = OnlineDetector::new(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            cfg,
        );
        det.attach_chains(&trained.phase1.chains);
        let flight = Arc::new(FlightRecorder::new());
        let warnings = Arc::new(WarningLog::new(64));
        det.attach_tracing(Arc::clone(&flight), Arc::clone(&warnings));

        let mut fired: Vec<Warning> = Vec::new();
        for r in &test.records {
            if let Some(w) = det.ingest(r) {
                fired.push(w);
            }
        }
        assert!(!fired.is_empty(), "no warnings fired");
        assert_eq!(warnings.len() as u64, det.warnings_emitted().min(64));

        // Every scored event left a trace.
        let total: u64 = flight
            .node_names()
            .iter()
            .map(|n| flight.get(n).unwrap().total())
            .sum();
        assert!(total > 0);

        // A fired warning's record carries the same verdict fields that
        // format_warning reports, plus per-step MSEs in its trace.
        let records = warnings.snapshot();
        let (w, rec) = fired
            .iter()
            .find_map(|w| {
                records
                    .iter()
                    .find(|r| r.node == w.node.to_string() && r.at_us == w.at.0)
                    .map(|r| (w, r))
            })
            .expect("warning has a matching record");
        let line = OnlineDetector::format_warning(w);
        assert_eq!(rec.class, w.class.name());
        let chain = w.matched_chain.expect("chains attached");
        assert_eq!(rec.matched_chain, chain as i64);
        assert!(line.contains(&format!("matched chain #{chain}")), "{line}");
        assert!(!rec.trace.is_empty(), "warning shipped without trace");
        let last = rec.trace.last().unwrap();
        assert!(last.warned, "final trace event should be the firing one");
        assert_eq!(last.matched_chain, chain as i64);
        assert!(
            rec.trace.iter().any(|t| t.step_mse.is_finite()),
            "no per-step MSEs in trace"
        );
        assert!(
            (last.mean_mse - w.score).abs() < 1e-9,
            "trace mean {} vs warning score {}",
            last.mean_mse,
            w.score
        );
        let jsonl = rec.to_json();
        assert!(jsonl.contains("\"step_mse\":"));
        assert!(jsonl.contains(&format!("\"matched_chain\":{chain}")));

        // Trace events alternate replay (episode start) and carried paths.
        let any_replay = flight
            .node_names()
            .iter()
            .flat_map(|n| flight.get(n).unwrap().snapshot())
            .any(|t| t.replayed);
        assert!(any_replay, "no replay-path events traced");
    }

    #[test]
    fn untraced_detector_behaves_identically() {
        // Tracing must be observation-only: the warning stream with and
        // without tracing attached is identical.
        let (mut plain, test) = trained_detector(309);
        let (mut traced, _) = trained_detector(309);
        traced.attach_tracing(
            Arc::new(FlightRecorder::new()),
            Arc::new(WarningLog::new(16)),
        );
        let a: Vec<Warning> = test
            .records
            .iter()
            .filter_map(|r| plain.ingest(r))
            .collect();
        let b: Vec<Warning> = test
            .records
            .iter()
            .filter_map(|r| traced.ingest(r))
            .collect();
        assert_same_warnings(&a, &b);
    }

    #[test]
    fn profiler_waterfalls_cover_stages_without_changing_decisions() {
        let (mut plain, test) = trained_detector(311);
        let (mut profiled, _) = trained_detector(311);
        let t = Telemetry::enabled();
        let profiler = SpanProfiler::new(
            t.registry().unwrap(),
            "online",
            &OnlineDetector::PROFILE_STAGES,
            4,
            16,
        );
        profiled.attach_profiler(Arc::clone(&profiler));
        let a: Vec<Warning> = test
            .records
            .iter()
            .filter_map(|r| plain.ingest(r))
            .collect();
        let b: Vec<Warning> = test
            .records
            .iter()
            .filter_map(|r| profiled.ingest(r))
            .collect();
        assert_same_warnings(&a, &b);
        assert!(profiled.warnings_emitted() > 0);
        assert!(profiler.sampled() > 0, "no events sampled");
        let falls = profiler.waterfalls();
        assert!(!falls.is_empty(), "no full waterfalls retained");
        for w in &falls {
            // Only waterfalls that reached the model step enter the ring,
            // and every stage before it must have been marked too.
            assert!(w.is_marked(STAGE_TEMPLATE) && w.is_marked(STAGE_ENCODE));
            assert!(w.is_marked(STAGE_CELL_STEP));
            assert!(w.at_us > 0, "event timestamp not attached");
        }
        let snap = t.snapshot().unwrap();
        let steps = snap.histogram("profile.online.cell_step_ns").unwrap();
        assert!(steps.count() > 0);
        assert!(
            snap.histogram("profile.online.threshold_ns")
                .unwrap()
                .count()
                > 0,
            "threshold stage never recorded"
        );
        // ingest() starts at the template stage; parse is only marked on
        // the ingest_line surface.
        assert_eq!(
            snap.histogram("profile.online.parse_ns").unwrap().count(),
            0
        );
    }

    #[test]
    fn ingest_line_waterfalls_include_the_parse_stage() {
        let (mut det, test) = trained_detector(312);
        let t = Telemetry::enabled();
        let profiler = SpanProfiler::new(
            t.registry().unwrap(),
            "online",
            &OnlineDetector::PROFILE_STAGES,
            1,
            8,
        );
        det.attach_profiler(Arc::clone(&profiler));
        for r in test.records.iter().take(500) {
            det.ingest_line(&r.to_raw_line()).unwrap();
        }
        let snap = t.snapshot().unwrap();
        let parse = snap.histogram("profile.online.parse_ns").unwrap();
        assert!(parse.count() > 0, "parse stage never recorded");
        // Safe-filtered events discard their waterfall: fewer recorded
        // samples than lines seen.
        assert!(profiler.sampled() <= profiler.events_seen());
    }

    #[test]
    fn quality_monitor_tracks_template_drift() {
        let (mut det, test) = trained_detector(310);
        let t = Telemetry::enabled();
        det.quality = QualityMonitor::new(&t);
        for r in test.records.iter().take(200) {
            det.ingest(r);
        }
        // Feed a template the training vocabulary has never seen.
        for i in 0..64 {
            let r = LogRecord::new(
                test.records[0].time + Micros::from_secs_f64(0.1 * i as f64),
                NodeId::from_index(0),
                "totally novel firmware fault string",
            );
            det.ingest(&r);
        }
        let s = t.snapshot().unwrap();
        assert!(s.counter("quality.template_events").unwrap() > 0);
        assert!(s.counter("quality.template_miss").unwrap() >= 64);
        assert!(s.gauge("quality.template_drift").unwrap() > 0.0);
    }

    #[test]
    fn safe_traffic_is_ignored() {
        let (mut det, _) = trained_detector(305);
        let before = det.events_seen();
        let r = LogRecord::new(Micros(1), NodeId::from_index(0), "Wait4Boot");
        assert!(det.ingest(&r).is_none());
        assert_eq!(
            det.events_seen(),
            before,
            "Safe events must not enter buffers"
        );
    }

    #[test]
    fn idle_eviction_is_invisible_to_the_warning_stream() {
        // A session-gap sweep at maximum cadence must evict idle nodes
        // without changing a single warning: every evicted node was idle
        // past the gap, so its next event would have reset the buffer
        // anyway. The sweeping side also ingests in chunks.
        let (mut plain, test) = trained_detector(313);
        let (mut sweeping, _) = trained_detector(313);
        sweeping.set_sweep_every(1);
        let a: Vec<Warning> = test
            .records
            .iter()
            .filter_map(|r| plain.ingest(r))
            .collect();
        let mut b = Vec::new();
        for c in test.records.chunks(41) {
            sweeping.ingest_chunk(c, &mut b);
        }
        assert_same_warnings(&a, &b);
        assert!(sweeping.evicted_nodes() > 0, "no idle node ever evicted");
        assert!(sweeping.resident_nodes() <= plain.resident_nodes());
        // Incremental occupancy accounting survives the evictions.
        assert_eq!(sweeping.buffered_total, recount(&sweeping));
    }

    #[test]
    fn slot_pressure_evicts_lru_and_stays_sound() {
        // 24 active nodes forced through 4 slots: correctness degrades
        // gracefully (evictions drop idle context, like a session gap)
        // but nothing panics, occupancy accounting holds, the counters
        // and gauges agree, and the detector keeps scoring.
        let (trained, cfg, test) = fixture(404);
        let t = Telemetry::enabled();
        let mut det = detector(&trained, &cfg, 4, &t);
        let mut warnings = Vec::new();
        for c in test.records.chunks(31) {
            det.ingest_chunk(c, &mut warnings);
            assert!(det.resident_nodes() <= 4);
        }
        assert_eq!(det.slots.len(), 4, "slots grew past the cap");
        assert!(det.evicted_nodes() > 0, "no slot-pressure evictions");
        assert!(det.events_seen() > 0);
        assert_eq!(det.buffered_total, recount(&det));
        let snap = t.snapshot().unwrap();
        assert_eq!(
            snap.counter("online.evicted_nodes"),
            Some(det.evicted_nodes())
        );
        let resident = snap.gauge("online.resident_nodes").unwrap();
        assert!((1.0..=4.0).contains(&resident), "gauge {resident}");
    }

    #[test]
    fn slot_rows_grow_on_demand() {
        let (trained, cfg, test) = fixture(407);
        let tel = Telemetry::disabled();
        let mut roomy = detector(&trained, &cfg, 1000, &tel);
        let mut tight = detector(&trained, &cfg, 20, &tel);
        assert_eq!(roomy.slots.len(), INITIAL_SLOTS);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for c in test.records.chunks(64) {
            roomy.ingest_chunk(c, &mut a);
            tight.ingest_chunk(c, &mut b);
        }
        // 24 nodes: one doubling, never a row per cap.
        assert_eq!(roomy.resident_nodes(), 24);
        assert_eq!(roomy.slots.len(), 2 * INITIAL_SLOTS);
        assert_eq!(roomy.evicted_nodes(), 0);
        // A cap between two doublings is met exactly.
        assert_eq!(tight.slots.len(), 20);
    }

    #[test]
    fn shards_sharing_a_registry_sum_their_gauges() {
        // Two detectors on one registry, each owning half the nodes: the
        // occupancy gauges read the fleet total, not the last writer.
        let (trained, cfg, test) = fixture(408);
        let t = Telemetry::enabled();
        let mut shards = [
            detector(&trained, &cfg, 64, &t),
            detector(&trained, &cfg, 64, &t),
        ];
        let mut warnings = Vec::new();
        for c in test.records.chunks(50) {
            for (i, shard) in shards.iter_mut().enumerate() {
                let mine: Vec<LogRecord> = c
                    .iter()
                    .filter(|r| r.node.to_index() % 2 == i)
                    .cloned()
                    .collect();
                shard.ingest_chunk(&mine, &mut warnings);
            }
        }
        let snap = t.snapshot().unwrap();
        let resident: usize = shards.iter().map(|d| d.resident_nodes()).sum();
        let buffered: u64 = shards.iter().map(|d| d.buffered_total).sum();
        assert!(shards.iter().all(|d| d.resident_nodes() > 0));
        assert_eq!(snap.gauge("online.resident_nodes"), Some(resident as f64));
        assert_eq!(snap.gauge("online.buffered_events"), Some(buffered as f64));
        let events: u64 = shards.iter().map(|d| d.events_seen()).sum();
        assert_eq!(snap.counter("online.events"), Some(events));
    }

    #[test]
    fn wave_metrics_record_batch_sizes() {
        let (trained, cfg, test) = fixture(406);
        let t = Telemetry::enabled();
        let mut bat = detector(&trained, &cfg, 64, &t);
        let mut warnings = Vec::new();
        for c in test.records.chunks(256) {
            bat.ingest_chunk(c, &mut warnings);
        }
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.counter("online.events"), Some(bat.events_seen()));
        assert_eq!(
            snap.counter("online.warnings"),
            Some(bat.warnings_emitted())
        );
        let sizes = snap.histogram("ingest.batch_size").unwrap();
        assert!(sizes.count() > 0, "no waves recorded");
        assert!(sizes.max() > 1, "waves never batched more than one row");
        // One latency sample per scored event, batched or not.
        let lat = snap.histogram("online.score_latency_us").unwrap();
        assert_eq!(lat.count(), sizes.sum());
    }
}
