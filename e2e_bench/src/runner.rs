//! The workload-independent harness: repeated set-up, the closed loop,
//! the traced run's alternating chunks, layer probes and the metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use tlsfp::core::pipeline::AdaptiveFingerprinter;
use tlsfp::core::streaming::EarlyStopPolicy;
use tlsfp::net::capture::Capture;
use tlsfp::trace::tensorize::TensorConfig;

use crate::adapter::{self, SearchCost, K};
use crate::host;
use crate::spans::{self_times, Phase, Span, Tracer};
use crate::stats::{median, summarize, Samples, Summary};

/// Set-ups per run, each followed by a third of the timed phase.
pub const SETUP_REPS: usize = 3;
/// A cheap set-up is timed again, unserved, until this much set-up time
/// has been spent in the run or [`MAX_SETUPS`] set-ups are timed: three
/// samples of a 0.1 s set-up on a shared host spread by a quarter.
const SETUP_BUDGET_S: f64 = 2.0;
const MAX_SETUPS: usize = 15;
/// Untimed warm-up before the timed loop.
const WARMUP: Duration = Duration::from_millis(500);
/// Window over which one decision-rate sample is taken.
const RATE_WINDOW: Duration = Duration::from_secs(1);
/// Length of one traced or untraced chunk in the traced run.
const TRACE_CHUNK: Duration = Duration::from_millis(400);
/// Checkpoints per streamed session (a decision at every 1/16 of the
/// records).
pub const CHECKPOINTS: usize = 16;

/// What the timed loop and the checks recorded.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    pub decision_ms: Samples,
    pub update_ms: Samples,
    pub decisions: u64,
    pub busy_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Recorder {
    /// Counts one operation; a panic inside `f` is caught and counted
    /// as a failure, as is an `Err`.
    pub fn op<T, E: std::fmt::Debug>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(format!("{what}: {e:?}"));
                None
            }
            Err(_) => {
                self.fail(format!("{what}: panicked"));
                None
            }
        }
    }

    /// Runs one timed class mutation: its latency joins the update
    /// samples and the busy time.
    pub fn update<E: std::fmt::Debug>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> Result<usize, E>,
    ) -> Option<usize> {
        let t = Instant::now();
        let out = self.op(what, f);
        let dt = t.elapsed().as_secs_f64();
        self.busy_s += dt;
        if out.is_some() {
            self.update_ms.push(dt * 1e3);
        }
        out
    }

    /// Records a correctness-check outcome.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }

    fn absorb_counts(&mut self, other: &Recorder) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes.iter().cloned());
    }
}

/// Output-quality counts, summed over a run's set-ups.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    monitored: u64,
    correct: u64,
    monitored_accepted: u64,
    unmonitored: u64,
    unmonitored_accepted: u64,
    wire_sum: f64,
    pub oracle_checked: u64,
    oracle_agree: u64,
    pub oracle_ties: u64,
    /// Sessions settled (`stream_early`).
    pub sessions: u64,
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

impl Quality {
    /// One decision: the true class (`None` = unmonitored page), the
    /// top-1, whether it was accepted, and the share of the trace's wire
    /// time elapsed when it committed.
    pub fn decision(
        &mut self,
        truth: Option<usize>,
        top: Option<usize>,
        accepted: bool,
        wire_frac: f64,
    ) {
        self.wire_sum += wire_frac;
        match truth {
            Some(c) => {
                self.monitored += 1;
                self.correct += u64::from(top == Some(c));
                self.monitored_accepted += u64::from(accepted);
            }
            None => {
                self.unmonitored += 1;
                self.unmonitored_accepted += u64::from(accepted);
            }
        }
    }

    /// One oracle comparison.
    pub fn oracle(&mut self, agree: bool, tie: bool) {
        self.oracle_checked += 1;
        self.oracle_agree += u64::from(agree);
        self.oracle_ties += u64::from(!agree && tie);
    }

    fn add(&mut self, o: &Quality) {
        self.monitored += o.monitored;
        self.correct += o.correct;
        self.monitored_accepted += o.monitored_accepted;
        self.unmonitored += o.unmonitored;
        self.unmonitored_accepted += o.unmonitored_accepted;
        self.wire_sum += o.wire_sum;
        self.oracle_checked += o.oracle_checked;
        self.oracle_agree += o.oracle_agree;
        self.oracle_ties += o.oracle_ties;
        self.sessions += o.sessions;
    }

    pub fn top1_acc(&self) -> f64 {
        share(self.correct, self.monitored)
    }

    pub fn top1_agree(&self) -> f64 {
        share(self.oracle_agree, self.oracle_checked)
    }

    pub fn open_tpr(&self) -> f64 {
        share(self.monitored_accepted, self.monitored)
    }

    pub fn open_fpr(&self) -> f64 {
        share(self.unmonitored_accepted, self.unmonitored)
    }

    pub fn wire_frac(&self) -> f64 {
        self.wire_sum / (self.monitored + self.unmonitored).max(1) as f64
    }
}

/// Streaming-session counters (`core.*` session metrics).
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    pub sessions: u64,
    pub decide_calls: u64,
    pub latched: u64,
    pub consumed_frac_sum: f64,
    pub retained_sum: u64,
}

impl SessionStats {
    fn add(&mut self, o: &SessionStats) {
        self.sessions += o.sessions;
        self.decide_calls += o.decide_calls;
        self.latched += o.latched;
        self.consumed_frac_sum += o.consumed_frac_sum;
        self.retained_sum += o.retained_sum;
    }

    pub fn record(
        &mut self,
        decide_calls: usize,
        latched: bool,
        consumed: usize,
        total: usize,
        retained: usize,
    ) {
        self.sessions += 1;
        self.decide_calls += decide_calls as u64;
        self.latched += u64::from(latched);
        self.consumed_frac_sum += consumed as f64 / total.max(1) as f64;
        self.retained_sum += retained as u64;
    }
}

/// What a workload exposes to the shared probes and metrics.
pub struct Serving<'a> {
    pub fp: &'a AdaptiveFingerprinter,
    pub tensor: TensorConfig,
    pub policy: EarlyStopPolicy,
    /// Raw captures the probes replay (from the workload's own pool).
    pub probe_captures: Vec<&'a Capture>,
    pub mean_records: f64,
    pub mean_steps: f64,
}

pub trait Workload: Sized {
    fn setup(seed: u64) -> Self;
    /// Digest of the generated inputs.
    fn digest(&self) -> u64;
    /// One timed request.
    fn step(&mut self, tr: &Tracer, rec: &mut Recorder);
    /// Untimed correctness checks after the loop (the exact oracle,
    /// the streaming contract); their outcomes count toward `failed`.
    fn after_loop(&mut self, rec: &mut Recorder);
    fn quality(&self) -> Quality;
    fn serving(&self) -> Serving<'_>;
    /// Search cost counted by traced loop requests.
    fn loop_cost(&self) -> SearchCost;
    /// Session counters from the loop, for the streaming workload.
    fn loop_sessions(&self) -> Option<SessionStats>;
}

pub struct RunOutput {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub detail: String,
    pub spans: Vec<Span>,
}

/// Runs `SETUP_REPS` rounds of set-up, warm-up, a timed segment of
/// `seconds / SETUP_REPS` and the after-loop checks, pooling what the
/// segments record; the traced run then probes the last deployment.
/// Spreading the timed phase over fresh deployments and a longer stretch
/// of wall time keeps one unlucky stretch of host contention, or one
/// unlucky memory layout, from setting a run's result.
pub fn run<W: Workload>(seed: u64, seconds: f64, traced: bool) -> RunOutput {
    let tr = Tracer::new(false);
    // Timed requests with recording off and on; warm-up and after-loop
    // operations are counted but not timed.
    let mut recs = [Recorder::default(), Recorder::default()];
    let mut checks = Recorder::default();
    let mut quality = Quality::default();
    let mut loop_cost = SearchCost::default();
    let mut loop_sessions: Option<SessionStats> = None;
    let mut setup_times = Vec::new();
    // The untraced decision rate is the median over one-second windows,
    // so a burst of host contention moves at most a few windows. The
    // traced run alternates chunks with recording off and on; per-layer
    // figures come from the on chunks, and the rate gap between the two
    // is the tracing overhead.
    let mut window_rates = Vec::new();
    let segment = Duration::from_secs_f64(seconds / SETUP_REPS as f64);
    let mut chunk = 0u32;
    let mut last = None;
    let mut peak_rss_mb = None;
    let ticks_before = host::cpu_ticks();
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let mut w = W::setup(seed);
        setup_times.push(t.elapsed().as_secs_f64());

        tr.set_on(false);
        let t = Instant::now();
        while t.elapsed() < WARMUP {
            w.step(&tr, &mut checks);
        }
        let start = Instant::now();
        let mut window = (Instant::now(), recs[0].decisions, recs[0].busy_s);
        while start.elapsed() < segment {
            let on = traced && chunk % 2 == 1;
            tr.set_on(on);
            let chunk_end = (start.elapsed() + TRACE_CHUNK).min(segment);
            while start.elapsed() < chunk_end {
                w.step(&tr, &mut recs[usize::from(on)]);
                let r = &recs[0];
                if !traced && window.0.elapsed() >= RATE_WINDOW {
                    window_rates.push((r.decisions - window.1) as f64 / (r.busy_s - window.2));
                    window = (Instant::now(), r.decisions, r.busy_s);
                }
            }
            chunk += 1;
        }
        w.after_loop(&mut checks);
        // The memory high-water mark is one deployment's: provisioning
        // and its first timed segment. A deployment is provisioned once;
        // how much of the earlier deployments the allocator kept through
        // the run's later set-ups varied (`serve_13k` read 165, 170 or
        // 190 MB for the same code).
        peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
        quality.add(&w.quality());
        let cost = w.loop_cost();
        loop_cost.queries += cost.queries;
        loop_cost.evals += cost.evals;
        if let Some(s) = w.loop_sessions() {
            loop_sessions
                .get_or_insert_with(SessionStats::default)
                .add(&s);
        }
        last = Some(w);
    }
    let w = last.expect("at least one set-up");
    let steal_frac = match (ticks_before, host::cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    let [mut rec, rec_on] = recs;
    rec.absorb_counts(&rec_on);
    rec.absorb_counts(&checks);

    let decisions = summarize(rec.decision_ms.as_slice());
    let updates = summarize(rec.update_ms.as_slice());
    // Extra set-ups run beside the served deployment, after the
    // high-water mark was read.
    while setup_times.len() < MAX_SETUPS && setup_times.iter().sum::<f64>() < SETUP_BUDGET_S {
        let t = Instant::now();
        let extra = W::setup(seed);
        setup_times.push(t.elapsed().as_secs_f64());
        drop(extra);
    }
    let setup_s = median(&setup_times);
    let host = host::HostProfile::detect(adapter::query_workers(w.serving().fp));
    let mut metrics = Vec::new();
    let mut probe = ProbeResult::default();
    let mut spans = Vec::new();
    if traced {
        tr.set_phase(Phase::Probe);
        probe = run_probes(&w, &tr, &mut rec);
        tr.set_on(false);
        spans = tr.take();
    }
    // The host's ceilings, recorded with every result.
    let store = w.serving().fp.reference();
    probe.read_gbs = host::read_gbs(
        store.len() * store.dim() * 4,
        adapter::query_workers(w.serving().fp),
    );
    probe.matmul_gflops = host::matmul_peak_gflops();
    if traced {
        let cost = if loop_cost.queries > 0 {
            loop_cost
        } else {
            probe.probe_cost
        };
        let sessions = loop_sessions.unwrap_or_else(|| probe.sessions.clone());
        metrics = layer_metrics(&w, &spans, &probe, cost, &sessions, &rec, &rec_on);
    } else {
        let dps = if window_rates.is_empty() {
            rec.decisions as f64 / rec.busy_s.max(1e-12)
        } else {
            median(&window_rates)
        };
        metrics.extend([
            ("setup_s", setup_s, "s"),
            ("decisions_per_s", dps, "1/s"),
            ("decision_p50_ms", decisions.p50, "ms"),
            ("decision_tail_ms", decisions.tail, "ms"),
            ("update_p50_ms", updates.p50, "ms"),
            ("update_tail_ms", updates.tail, "ms"),
            ("top1_agree", quality.top1_agree(), "share"),
            ("open_tpr", quality.open_tpr(), "share"),
            ("open_fpr", quality.open_fpr(), "share"),
            ("peak_rss_mb", peak_rss_mb.unwrap_or(f64::NAN), "MB"),
            ("ok_rate", 1.0 - share(rec.failed, rec.attempted), "share"),
        ]);
    }
    let detail = detail_json(
        &w,
        seed,
        seconds,
        traced,
        &setup_times,
        &decisions,
        &updates,
        &rec,
        &quality,
        &host,
        &probe,
        steal_frac,
    );
    RunOutput {
        metrics,
        attempted: rec.attempted,
        failed: rec.failed,
        detail,
        spans,
    }
}

#[allow(clippy::too_many_arguments)]
fn detail_json<W: Workload>(
    w: &W,
    seed: u64,
    seconds: f64,
    traced: bool,
    setup_times: &[f64],
    decisions: &Summary,
    updates: &Summary,
    rec: &Recorder,
    q: &Quality,
    host: &host::HostProfile,
    probe: &ProbeResult,
    steal_frac: f64,
) -> String {
    let s = w.serving();
    let notes: Vec<String> = rec
        .notes
        .iter()
        .map(|n| format!("\"{}\"", n.replace('"', "'")))
        .collect();
    format!(
        concat!(
            "{{\"seed\":{},\"seconds\":{},\"traced\":{},\"input_digest\":\"{:016x}\",",
            "\"setup_s_reps\":{:?},\"store_rows\":{},\"shards\":{},\"k\":{},",
            "\"mean_records_per_trace\":{:.1},\"mean_tensor_steps\":{:.1},",
            "\"decision\":{{\"n\":{},\"kept\":{},\"p50_ms\":{},\"tail_pct\":{},\"tail_ms\":{}}},",
            "\"update\":{{\"n\":{},\"kept\":{},\"p50_ms\":{},\"tail_pct\":{},\"tail_ms\":{}}},",
            "\"decisions\":{},\"busy_s\":{},\"sessions_per_s\":{},\"top1_acc\":{},\"decision_wire_frac\":{},\"oracle_checked\":{},\"oracle_ties\":{},",
            "\"read_gbs\":{},\"matmul_peak_gflops\":{},\"steal_frac\":{},\"host\":{},\"failures\":[{}]}}"
        ),
        seed,
        seconds,
        traced,
        w.digest(),
        setup_times,
        s.fp.reference().len(),
        s.fp.n_shards(),
        K,
        s.mean_records,
        s.mean_steps,
        rec.decision_ms.seen(),
        decisions.n,
        decisions.p50,
        decisions.tail_pct,
        decisions.tail,
        rec.update_ms.seen(),
        updates.n,
        updates.p50,
        updates.tail_pct,
        updates.tail,
        rec.decisions,
        rec.busy_s,
        q.sessions as f64 / rec.busy_s.max(1e-12),
        q.top1_acc(),
        q.wire_frac(),
        q.oracle_checked,
        q.oracle_ties,
        finite_or_null(probe.read_gbs),
        finite_or_null(probe.matmul_gflops),
        finite_or_null(steal_frac),
        host.to_json(),
        notes.join(",")
    )
}

fn finite_or_null(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

// ----- probes ---------------------------------------------------------

#[derive(Debug, Clone, Default)]
pub struct ProbeResult {
    pub probe_cost: SearchCost,
    pub sessions: SessionStats,
    pub batch_vs_loop: f64,
    pub worker_eff: f64,
    pub read_gbs: f64,
    pub matmul_gflops: f64,
}

/// Probe queries per layer probe.
const PROBE_QUERIES: usize = 64;
/// Sessions streamed by the session probe.
const PROBE_SESSIONS: usize = 16;

/// Layer probes run after the loop in the traced run, so every layer
/// metric is measured on every workload, including calls its own loop
/// does not make. Metrics prefer loop spans over probe spans.
fn run_probes<W: Workload>(w: &W, tr: &Tracer, rec: &mut Recorder) -> ProbeResult {
    let s = w.serving();
    let fp = s.fp;
    let mut out = ProbeResult::default();
    let caps: Vec<&Capture> = s
        .probe_captures
        .iter()
        .copied()
        .cycle()
        .take(PROBE_QUERIES)
        .collect();

    // Single-trace decomposition: featurize, embed, search, vote.
    tr.set_on(true);
    let mut seqs = Vec::new();
    for cap in &caps {
        let seq = adapter::featurize(tr, &s.tensor, cap);
        rec.op("probe decide_one", || {
            Ok::<_, ()>(adapter::decide_one(tr, fp, &seq, &mut out.probe_cost))
        });
        seqs.push(seq);
    }

    // Streamed sessions under the workload's early-stop policy.
    for cap in caps.iter().take(PROBE_SESSIONS) {
        let ends = checkpoint_ends(cap.packets.len());
        rec.op("probe session", || {
            let mut session = adapter::start_session(tr, fp, s.tensor, cap.client);
            let mut fed = 0;
            let mut calls = 0;
            for &end in &ends {
                adapter::feed(tr, fp, &mut session, &cap.packets[fed..end]);
                fed = end;
                calls += 1;
                if adapter::decide_now(tr, fp, &mut session, Some(&s.policy)).accepted {
                    break;
                }
            }
            let retained = session.capture().packets.len();
            let latched = session.early_decision().copied();
            if latched.is_none() {
                adapter::finish(tr, fp, session);
            }
            let consumed = latched.map_or(cap.packets.len(), |e| e.records);
            out.sessions.record(
                calls,
                latched.is_some(),
                consumed,
                cap.packets.len(),
                retained,
            );
            Ok::<_, ()>(())
        });
    }
    tr.set_on(false);

    // Batch vs per-query loop, and worker scaling, on one batch.
    let off = &Tracer::new(false);
    let embeddings = adapter::embed_batch(off, fp, &seqs);
    let store = fp.reference();
    let workers = adapter::query_workers(fp);
    let time = |f: &dyn Fn()| -> f64 {
        let reps: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&reps)
    };
    let batch = time(&|| {
        std::hint::black_box(adapter::search_batch(off, store, &embeddings, K, workers));
    });
    let looped = time(&|| {
        for q in &embeddings {
            std::hint::black_box(adapter::search_one(off, store, q, K, workers));
        }
    });
    let single_worker = time(&|| {
        std::hint::black_box(adapter::search_batch(off, store, &embeddings, K, 1));
    });
    out.batch_vs_loop = batch / looped;
    out.worker_eff = single_worker / (workers as f64 * batch);
    out
}

/// Record counts after each of the [`CHECKPOINTS`] checkpoints.
pub fn checkpoint_ends(records: usize) -> Vec<usize> {
    (1..=CHECKPOINTS)
        .map(|c| (records * c).div_ceil(CHECKPOINTS))
        .collect()
}

// ----- per-layer metrics ----------------------------------------------

/// Span statistics for one span name: per-call or per-item medians,
/// from loop spans when the loop made the call, else from probe spans.
struct SpanStats<'a> {
    spans: &'a [Span],
    selfs: Vec<u64>,
}

impl SpanStats<'_> {
    fn pick(&self, name: &str) -> Vec<usize> {
        let of = |phase| -> Vec<usize> {
            (0..self.spans.len())
                .filter(|&i| self.spans[i].name == name && self.spans[i].phase == phase)
                .collect()
        };
        let lp = of(Phase::Loop);
        if lp.is_empty() {
            of(Phase::Probe)
        } else {
            lp
        }
    }

    /// Median duration in µs, per item when `per_item`.
    fn median_us(&self, name: &str, per_item: bool) -> (f64, usize) {
        let idx = self.pick(name);
        let v: Vec<f64> = idx
            .iter()
            .map(|&i| {
                let s = &self.spans[i];
                let items = if per_item { f64::from(s.items) } else { 1.0 };
                s.dur_ns() as f64 / 1e3 / items
            })
            .collect();
        (median(&v), idx.len())
    }

    fn median_self_us(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .pick(name)
            .iter()
            .map(|&i| self.selfs[i] as f64 / 1e3)
            .collect();
        median(&v)
    }

    fn total_s(&self, name: &str) -> f64 {
        self.pick(name)
            .iter()
            .map(|&i| self.spans[i].dur_ns() as f64 / 1e9)
            .sum()
    }

    /// Share of loop request time spent as self time of each layer.
    fn decision_shares(&self) -> [f64; 4] {
        let mut request_of: Vec<Option<usize>> = vec![None; self.spans.len()];
        let mut total = 0.0;
        let mut by_layer = [0.0f64; 4];
        for (i, s) in self.spans.iter().enumerate() {
            request_of[i] = match s.parent {
                None if s.name == "request" && s.phase == Phase::Loop => Some(i),
                Some(p) => request_of[p],
                None => None,
            };
            if request_of[i].is_none() {
                continue;
            }
            if s.parent.is_none() {
                total += s.dur_ns() as f64;
            }
            let layer = ["trace.", "nn.", "index.", "core."]
                .iter()
                .position(|p| s.name.starts_with(p));
            if let Some(l) = layer {
                by_layer[l] += self.selfs[i] as f64;
            }
        }
        by_layer.map(|x| x / total.max(1.0))
    }
}

fn layer_metrics<W: Workload>(
    w: &W,
    spans: &[Span],
    probe: &ProbeResult,
    cost: SearchCost,
    sessions: &SessionStats,
    rec_off: &Recorder,
    rec_on: &Recorder,
) -> Vec<(&'static str, f64, &'static str)> {
    let s = w.serving();
    let st = SpanStats {
        spans,
        selfs: self_times(spans),
    };
    let store = s.fp.reference();
    let dim = store.dim() as f64;

    let (featurize_us, featurize_n) = st.median_us("trace.featurize", false);
    let (embed_us, embed_n) = st.median_us("nn.embed", true);
    let embed_gflops =
        host::embed_flops(&adapter::embedder_config(), s.mean_steps) / embed_us / 1e3;
    let (search_us, search_n) = st.median_us("index.search", true);
    let evals_per_query = cost.evals as f64 / cost.queries.max(1) as f64;
    let evals_per_s = cost.evals as f64 / st.total_s("index.search");
    let scan_gbs = evals_per_s * dim * 4.0 / 1e9;
    let (swap_us, swap_n) = st.median_us("index.swap", false);
    let (vote_us, vote_n) = st.median_us("core.vote", false);
    let (feed_us, feed_n) = st.median_us("core.feed", true);
    let (decide_now_us, decide_now_n) = st.median_us("core.decide_now", false);
    let (update_us, update_n) = st.median_us("core.update", false);
    let n_sessions = sessions.sessions.max(1) as f64;
    let [trace_share, nn_share, index_share, core_share] = st.decision_shares();
    let rate = |r: &Recorder| r.decisions as f64 / r.busy_s.max(1e-12);

    vec![
        ("trace.featurize_us", featurize_us, "us"),
        ("trace.featurize_calls", featurize_n as f64, "count"),
        ("trace.records_per_trace", s.mean_records, "count"),
        ("trace.decision_share", trace_share, "share"),
        ("nn.embed_us", embed_us, "us"),
        ("nn.embed_calls", embed_n as f64, "count"),
        ("nn.embed_gflops", embed_gflops, "GFLOP/s"),
        ("nn.matmul_peak_gflops", probe.matmul_gflops, "GFLOP/s"),
        (
            "nn.embed_roofline_frac",
            embed_gflops / probe.matmul_gflops,
            "share",
        ),
        ("nn.decision_share", nn_share, "share"),
        ("index.search_us", search_us, "us"),
        ("index.search_calls", search_n as f64, "count"),
        ("index.evals_per_query", evals_per_query, "count"),
        (
            "index.evals_frac",
            evals_per_query / store.len().max(1) as f64,
            "share",
        ),
        ("index.evals_per_s", evals_per_s, "1/s"),
        ("index.scan_gbs", scan_gbs, "GB/s"),
        ("host.read_gbs", probe.read_gbs, "GB/s"),
        (
            "index.scan_roofline_frac",
            scan_gbs / probe.read_gbs,
            "share",
        ),
        ("index.batch_vs_loop", probe.batch_vs_loop, "ratio"),
        ("index.worker_eff", probe.worker_eff, "share"),
        ("index.swap_us", swap_us, "us"),
        ("index.swap_calls", swap_n as f64, "count"),
        (
            "index.search_per_decide_now",
            search_us / decide_now_us,
            "ratio",
        ),
        ("index.decision_share", index_share, "share"),
        ("core.vote_us", vote_us, "us"),
        ("core.vote_calls", vote_n as f64, "count"),
        ("core.feed_ns_per_record", feed_us * 1e3, "ns"),
        ("core.feed_calls", feed_n as f64, "count"),
        ("core.decide_now_us", decide_now_us, "us"),
        ("core.decide_now_calls", decide_now_n as f64, "count"),
        (
            "core.decides_per_session",
            sessions.decide_calls as f64 / n_sessions,
            "count",
        ),
        (
            "core.latch_rate",
            sessions.latched as f64 / n_sessions,
            "share",
        ),
        (
            "core.records_consumed_frac",
            sessions.consumed_frac_sum / n_sessions,
            "share",
        ),
        (
            "core.session_records_retained",
            sessions.retained_sum as f64 / n_sessions,
            "count",
        ),
        ("core.update_us", update_us, "us"),
        (
            "core.update_self_us",
            st.median_self_us("core.update"),
            "us",
        ),
        ("core.update_calls", update_n as f64, "count"),
        ("core.decision_share", core_share, "share"),
        (
            "bench.trace_overhead",
            1.0 - rate(rec_on) / rate(rec_off),
            "share",
        ),
    ]
}
