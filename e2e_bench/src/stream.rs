//! `stream_early`: streaming early classification. 50 monitored
//! spa-like pages × 12 reference loads in one flat shard, 50
//! unmonitored pages; every held-out load is streamed with light
//! background noise. 64 sessions are live at once and their records
//! arrive in global timestamp order; each session decides at every
//! 1/16 of its records under a per-class-radius early-stop policy and
//! is settled by `finish` when it never commits.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use tlsfp::core::pipeline::AdaptiveFingerprinter;
use tlsfp::core::streaming::{EarlyStopPolicy, StreamingSession};
use tlsfp::index::IndexConfig;
use tlsfp::net::capture::Capture;
use tlsfp::nn::seq::SeqInput;
use tlsfp::trace::dataset::Dataset;
use tlsfp::trace::tensorize::TensorConfig;
use tlsfp::web::corpus::CorpusSpec;
use tlsfp::web::scenario::BackgroundNoiseSpec;
use tlsfp::web::site::SiteSpec;

use crate::adapter::{self, SearchCost, K};
use crate::inputs;
use crate::runner::{checkpoint_ends, Quality, Recorder, Serving, SessionStats, Workload};
use crate::spans::Tracer;
use crate::stats::{sub_seed, Digest, Rng};

#[derive(Debug, Clone)]
pub struct Params {
    pub pages: usize,
    pub monitored: usize,
    pub refs: usize,
    pub calib: usize,
    pub streamed: usize,
    pub live: usize,
    pub bit_checks: usize,
    /// One `update_class` refresh after this many checkpoints.
    pub refresh_every: u64,
}

impl Params {
    pub fn full() -> Self {
        Params {
            pages: 100,
            monitored: 50,
            refs: 12,
            calib: 8,
            streamed: 8,
            live: 64,
            bit_checks: 16,
            refresh_every: 64,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Params {
            pages: 12,
            monitored: 6,
            refs: 4,
            calib: 2,
            streamed: 2,
            live: 4,
            bit_checks: 2,
            refresh_every: 8,
        }
    }
}

struct Item {
    capture: Capture,
    class: Option<usize>,
    ends: Vec<usize>,
}

/// How a session's decision came out.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    decision: Option<usize>,
    accepted: bool,
    wire_frac: f64,
    /// Records the decision saw (its prefix).
    records: usize,
}

struct Slot {
    item: usize,
    session: Option<StreamingSession>,
    checkpoint: usize,
    decide_calls: usize,
    /// Global time (µs) at which this item's first record arrives.
    start_us: u64,
}

pub struct Stream {
    p: Params,
    fp: AdaptiveFingerprinter,
    tensor: TensorConfig,
    policy: EarlyStopPolicy,
    pool: Vec<Item>,
    next_item: usize,
    slots: Vec<Slot>,
    events: BinaryHeap<Reverse<(u64, usize)>>,
    outcomes: Vec<Option<Outcome>>,
    traced_sessions: SessionStats,
    sessions: u64,
    /// Each class's own reference loads: refreshing with them runs the
    /// update path and leaves the store's contents fixed.
    refresh: Vec<Vec<SeqInput>>,
    checkpoints: u64,
    oracle: Quality,
    digest: u64,
    mean_steps: f64,
}

impl Stream {
    pub fn with_params(p: Params, seed: u64) -> Self {
        let tensor = TensorConfig::wiki();
        let off = &Tracer::new(false);
        let split = inputs::monitored_split(p.pages, p.monitored);
        let mut class_of = vec![None; p.pages];
        for (class, &page) in split.monitored.iter().enumerate() {
            class_of[page] = Some(class);
        }
        let site = inputs::site(SiteSpec::spa_like(p.pages));
        let noise = BackgroundNoiseSpec::light(CorpusSpec::spa_like(p.pages, 1));

        // The deployment: clean reference loads and noisy calibration
        // loads of every monitored page.
        let mut refs = Dataset::new(p.monitored, tensor.channels, tensor.max_steps);
        let mut refresh: Vec<Vec<SeqInput>> = vec![Vec::new(); p.monitored];
        let mut calib = Dataset::new(p.monitored, tensor.channels, tensor.max_steps);
        let mut visits = vec![0usize; p.pages];
        let mut noise_rng = Rng::new(inputs::DEPLOYMENT);
        inputs::crawl(&site, p.refs + p.calib, inputs::DEPLOYMENT, |mut lc| {
            let visit = visits[lc.page];
            visits[lc.page] += 1;
            let Some(class) = class_of[lc.page] else {
                return;
            };
            if visit < p.refs {
                let seq = adapter::featurize(off, &tensor, &lc.capture);
                refresh[class].push(seq.clone());
                refs.push(class, seq).expect("class in range");
            } else {
                inputs::add_noise(&mut lc.capture, &noise, &mut noise_rng);
                calib
                    .push(class, adapter::featurize(off, &tensor, &lc.capture))
                    .expect("class in range");
            }
        });

        // The traffic: noisy loads of every page, monitored or not.
        let mut noise_rng = Rng::new(sub_seed(seed, 5));
        let mut pool = Vec::new();
        inputs::crawl(&site, p.streamed, sub_seed(seed, 2), |mut lc| {
            inputs::add_noise(&mut lc.capture, &noise, &mut noise_rng);
            let ends = checkpoint_ends(lc.capture.packets.len());
            pool.push(Item {
                capture: lc.capture,
                class: class_of[lc.page],
                ends,
            });
        });
        Rng::new(sub_seed(seed, 3)).shuffle(&mut pool);

        let mut fp = adapter::fresh_fingerprinter(1, IndexConfig::Flat);
        adapter::set_reference(&mut fp, &refs).expect("reference fits");
        let radii = adapter::calibrate_radii(&fp, &calib, 95.0, 2).expect("calibration set");
        adapter::serving_pools(&mut fp, adapter::SINGLE_REQUEST_WORKERS);
        let policy = adapter::early_stop_policy(radii, 0.0, 2);

        let mut d = Digest::default();
        let mut steps = 0usize;
        for item in &pool {
            d.capture(&item.capture);
            d.u64(item.class.map_or(u64::MAX, |c| c as u64));
            steps += adapter::featurize(off, &tensor, &item.capture).steps();
        }
        for seq in refs.seqs().iter().chain(calib.seqs()) {
            d.seq(seq);
        }
        let mean_steps = steps as f64 / pool.len().max(1) as f64;
        let mut s = Stream {
            outcomes: (0..pool.len()).map(|_| None).collect(),
            slots: Vec::new(),
            events: BinaryHeap::new(),
            next_item: 0,
            p,
            fp,
            tensor,
            policy,
            pool,
            traced_sessions: SessionStats::default(),
            sessions: 0,
            refresh,
            checkpoints: 0,
            oracle: Quality::default(),
            digest: d.finish(),
            mean_steps,
        };
        // Stagger the first sessions across one mean trace duration.
        let mean_dur = s.pool.iter().map(|i| i.capture.duration_us()).sum::<u64>()
            / s.pool.len().max(1) as u64;
        for slot in 0..s.p.live {
            let start = mean_dur * slot as u64 / s.p.live as u64;
            s.slots.push(Slot {
                item: 0,
                session: None,
                checkpoint: 0,
                decide_calls: 0,
                start_us: 0,
            });
            s.begin(slot, start);
        }
        s
    }

    /// Starts the next pool item in `slot` at global time `now_us`.
    fn begin(&mut self, slot: usize, now_us: u64) {
        let item = self.next_item % self.pool.len();
        self.next_item += 1;
        self.slots[slot] = Slot {
            item,
            session: None,
            checkpoint: 0,
            decide_calls: 0,
            start_us: now_us,
        };
        self.schedule(slot);
    }

    /// Queues the slot's next checkpoint at the arrival time of the
    /// last record it covers.
    fn schedule(&mut self, slot: usize) {
        let s = &self.slots[slot];
        let item = &self.pool[s.item];
        let first = item.capture.packets.first().map_or(0, |p| p.timestamp_us);
        let last = item.ends[s.checkpoint].max(1) - 1;
        let at = item
            .capture
            .packets
            .get(last)
            .map_or(first, |p| p.timestamp_us);
        self.events.push(Reverse((s.start_us + (at - first), slot)));
    }

    fn wire_frac(capture: &Capture, records: usize) -> f64 {
        let Some(first) = capture.packets.first() else {
            return 1.0;
        };
        let at = capture.packets[records.clamp(1, capture.packets.len()) - 1].timestamp_us;
        (at - first.timestamp_us) as f64 / capture.duration_us().max(1) as f64
    }

    /// Records an item's first decision, or checks a repeat against it.
    fn settle(
        &mut self,
        slot: usize,
        outcome: Outcome,
        latched: bool,
        retained: usize,
        rec: &mut Recorder,
        traced: bool,
    ) {
        let s = &self.slots[slot];
        let total = self.pool[s.item].capture.packets.len();
        if traced {
            self.traced_sessions
                .record(s.decide_calls, latched, outcome.records, total, retained);
        }
        self.sessions += 1;
        match &self.outcomes[s.item] {
            None => self.outcomes[s.item] = Some(outcome),
            Some(prev) => {
                let same = *prev == outcome;
                let i = s.item;
                rec.check(same, || {
                    format!("stream item {i} decided differently on replay")
                });
            }
        }
    }

    fn oracle_check(&mut self, rec: &mut Recorder) {
        let off = &Tracer::new(false);
        let exact = adapter::snapshot(self.fp.reference());
        for (i, item) in self.pool.iter().enumerate() {
            let Some(o) = &self.outcomes[i] else { continue };
            let prefix = Capture {
                client: item.capture.client,
                packets: item.capture.packets[..o.records.min(item.capture.packets.len())].to_vec(),
            };
            let seq = adapter::featurize(off, &self.tensor, &prefix);
            let e = adapter::embed_one(off, &self.fp, &seq);
            let d = exact.decide(&e, K);
            self.oracle
                .oracle(d.scored.prediction.top() == o.decision, d.tie);
            rec.check(d.scored.prediction.top() == o.decision || d.tie, || {
                format!("oracle disagrees on stream item {i}")
            });
        }
    }

    /// The streaming contract: a session fed to completion finishes
    /// bit-identical to the batch decision on the full trace.
    fn bit_check(&self, rec: &mut Recorder) {
        let off = &Tracer::new(false);
        for (i, item) in self.pool.iter().take(self.p.bit_checks).enumerate() {
            let fp = &self.fp;
            let ok = rec.op("bit check", || {
                let mut session = adapter::start_session(off, fp, self.tensor, item.capture.client);
                let mut fed = 0;
                let mut last = None;
                for &end in &item.ends {
                    adapter::feed(off, fp, &mut session, &item.capture.packets[fed..end]);
                    fed = end;
                    last = Some(adapter::decide_now(
                        off,
                        fp,
                        &mut session,
                        Some(&self.policy),
                    ));
                }
                let finished = adapter::finish(off, fp, session);
                let seq = adapter::featurize(off, &self.tensor, &item.capture);
                let batch = adapter::decide_one(off, fp, &seq, &mut SearchCost::default());
                let same = |a: &tlsfp::core::ScoredPrediction| {
                    a.prediction == batch.prediction && a.score.to_bits() == batch.score.to_bits()
                };
                Ok::<_, ()>(same(&finished) && last.is_some_and(|d| same(&d.scored)))
            });
            if let Some(ok) = ok {
                rec.check(ok, || {
                    format!("stream item {i}: finish differs from the batch decision")
                });
            }
        }
    }
}

impl Workload for Stream {
    fn setup(seed: u64) -> Self {
        Stream::with_params(Params::full(), seed)
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn step(&mut self, tr: &Tracer, rec: &mut Recorder) {
        self.checkpoints += 1;
        if self.checkpoints.is_multiple_of(self.p.refresh_every) {
            let class = (self.checkpoints / self.p.refresh_every) as usize % self.refresh.len();
            let (fp, loads) = (&mut self.fp, &self.refresh[class]);
            rec.update("update_class", || {
                adapter::update_class(tr, fp, class, loads)
            });
        }
        let Reverse((now, slot)) = self.events.pop().expect("one event per live slot");
        let s = &mut self.slots[slot];
        let item = &self.pool[s.item];
        let c = s.checkpoint;
        let from = if c == 0 { 0 } else { item.ends[c - 1] };
        let packets = &item.capture.packets[from..item.ends[c]];
        let fp = &self.fp;
        let policy = &self.policy;
        let tensor = self.tensor;
        let t = Instant::now();
        let decision = rec.op("checkpoint", || {
            tr.request("request", 1, || {
                let session = s.session.get_or_insert_with(|| {
                    adapter::start_session(tr, fp, tensor, item.capture.client)
                });
                adapter::feed(tr, fp, session, packets);
                Ok::<_, ()>(adapter::decide_now(tr, fp, session, Some(policy)))
            })
        });
        let dt = t.elapsed().as_secs_f64();
        rec.busy_s += dt;
        let Some(decision) = decision else {
            // A failed checkpoint abandons the session.
            self.begin(slot, now);
            return;
        };
        // A decision here is one prefix decision: how many a session
        // needs depends on where its early stop lands, which moves with
        // the generated loads far more than with the program.
        rec.decision_ms.push(dt * 1e3);
        rec.decisions += 1;
        s.decide_calls += 1;
        s.checkpoint += 1;
        let records = s.session.as_ref().map_or(0, |x| x.records_fed());
        let done = decision.accepted || s.checkpoint == item.ends.len();
        if !done {
            self.schedule(slot);
            return;
        }
        let traced = tr.is_on();
        let session = s.session.take().expect("session was started");
        let retained = session.capture().packets.len();
        let latched = session.early_decision().copied();
        let outcome = if let Some(latched) = latched {
            Outcome {
                decision: Some(latched.class),
                accepted: true,
                wire_frac: Self::wire_frac(&item.capture, latched.records),
                records: latched.records,
            }
        } else {
            let t = Instant::now();
            let scored = rec.op("finish", || Ok::<_, ()>(adapter::finish(tr, fp, session)));
            rec.busy_s += t.elapsed().as_secs_f64();
            let Some(scored) = scored else {
                self.begin(slot, now);
                return;
            };
            let top = scored.prediction.top();
            Outcome {
                decision: top,
                accepted: adapter::within_radius(policy, &scored),
                wire_frac: 1.0,
                records,
            }
        };
        self.settle(slot, outcome, latched.is_some(), retained, rec, traced);
        self.begin(slot, now);
    }

    fn after_loop(&mut self, rec: &mut Recorder) {
        self.bit_check(rec);
        self.oracle_check(rec);
    }

    fn quality(&self) -> Quality {
        let mut q = self.oracle.clone();
        for (item, o) in self.pool.iter().zip(&self.outcomes) {
            if let Some(o) = o {
                q.decision(item.class, o.decision, o.accepted, o.wire_frac);
            }
        }
        q.sessions = self.sessions;
        q
    }

    fn serving(&self) -> Serving<'_> {
        Serving {
            fp: &self.fp,
            tensor: self.tensor,
            policy: self.policy.clone(),
            probe_captures: self.pool.iter().map(|i| &i.capture).collect(),
            mean_records: self
                .pool
                .iter()
                .map(|i| i.capture.packets.len())
                .sum::<usize>() as f64
                / self.pool.len().max(1) as f64,
            mean_steps: self.mean_steps,
        }
    }

    fn loop_cost(&self) -> SearchCost {
        SearchCost::default()
    }

    fn loop_sessions(&self) -> Option<SessionStats> {
        Some(self.traced_sessions.clone())
    }
}
