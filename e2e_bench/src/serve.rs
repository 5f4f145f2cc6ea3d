//! `serve_13k`: the paper's scale claim. 13,000 monitored wiki-like
//! pages × 10 reference loads in an auto-sharded flat store; raw
//! captures arrive in 64-trace batches, 3 monitored : 1 unmonitored,
//! and go through featurize → batch decision → accept/reject against a
//! 95th-percentile global threshold.

use std::time::Instant;

use tlsfp::core::pipeline::AdaptiveFingerprinter;
use tlsfp::core::PerClassThresholds;
use tlsfp::index::IndexConfig;
use tlsfp::net::capture::Capture;
use tlsfp::nn::seq::SeqInput;
use tlsfp::trace::dataset::Dataset;
use tlsfp::trace::tensorize::TensorConfig;
use tlsfp::web::site::SiteSpec;

use crate::adapter::{self, SearchCost, K};
use crate::inputs;
use crate::runner::{Quality, Recorder, Serving, SessionStats, Workload};
use crate::spans::Tracer;
use crate::stats::{sub_seed, Digest, Rng};

#[derive(Debug, Clone)]
pub struct Params {
    pub monitored: usize,
    pub unmonitored: usize,
    pub refs: usize,
    pub pool_monitored: usize,
    pub calib: usize,
    pub batch: usize,
    pub refresh_classes: usize,
    pub updates_per_batch: usize,
    pub oracle_batches: usize,
}

impl Params {
    pub fn full() -> Self {
        Params {
            monitored: 13_000,
            unmonitored: 512,
            refs: 10,
            pool_monitored: 1_536,
            calib: 512,
            batch: 64,
            refresh_classes: 256,
            updates_per_batch: 4,
            oracle_batches: 2,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Params {
            monitored: 60,
            unmonitored: 16,
            refs: 4,
            pool_monitored: 48,
            calib: 12,
            batch: 16,
            refresh_classes: 4,
            updates_per_batch: 2,
            oracle_batches: 1,
        }
    }
}

/// One batch outcome per pool item: top label, score bits, accepted.
type Outcome = (Option<usize>, u32, bool);

pub struct Serve {
    p: Params,
    fp: AdaptiveFingerprinter,
    tensor: TensorConfig,
    threshold: f32,
    /// Query pool in serving order: raw capture and true class
    /// (`None` = unmonitored).
    pool: Vec<(Capture, Option<usize>)>,
    outcomes: Vec<Option<Outcome>>,
    next_batch: usize,
    /// Classes refreshed between batches, with their own reference
    /// loads: the update path runs, the store's contents stay fixed.
    refresh: Vec<(usize, Vec<SeqInput>)>,
    next_refresh: usize,
    cost: SearchCost,
    oracle: Quality,
    digest: u64,
    mean_records: f64,
    mean_steps: f64,
}

impl Serve {
    pub fn with_params(p: Params, seed: u64) -> Self {
        let tensor = TensorConfig::wiki();
        let off = &Tracer::new(false);
        let total = p.monitored + p.unmonitored;
        let split = inputs::monitored_split(total, p.monitored);
        let mut class_of = vec![None; total];
        for (class, &page) in split.monitored.iter().enumerate() {
            class_of[page] = Some(class);
        }
        let site = inputs::site(SiteSpec::wiki_like(total));

        // The deployment: every monitored page's reference loads, one
        // more load for the classes that calibrate the threshold, and
        // the classes refreshed between batches (which keep their
        // reference loads).
        let mut deployed: Vec<usize> = (0..p.monitored).collect();
        Rng::new(inputs::DEPLOYMENT).shuffle(&mut deployed);
        let mut calibrates = vec![false; p.monitored];
        for &c in &deployed[..p.calib] {
            calibrates[c] = true;
        }
        let mut refresh: Vec<(usize, Vec<SeqInput>)> = Vec::new();
        let mut refresh_slot = vec![None; p.monitored];
        for &c in deployed.iter().rev().take(p.refresh_classes) {
            refresh_slot[c] = Some(refresh.len());
            refresh.push((c, Vec::new()));
        }
        let mut refs = Dataset::new(p.monitored, tensor.channels, tensor.max_steps);
        let mut calib = Dataset::new(p.monitored, tensor.channels, tensor.max_steps);
        let mut visits = vec![0usize; total];
        inputs::crawl(&site, p.refs + 1, inputs::DEPLOYMENT, |lc| {
            let visit = visits[lc.page];
            visits[lc.page] += 1;
            let Some(class) = class_of[lc.page] else {
                return;
            };
            if visit < p.refs {
                let seq = adapter::featurize(off, &tensor, &lc.capture);
                if let Some(r) = refresh_slot[class] {
                    refresh[r].1.push(seq.clone());
                }
                refs.push(class, seq).expect("class in range");
            } else if calibrates[class] {
                calib
                    .push(class, adapter::featurize(off, &tensor, &lc.capture))
                    .expect("class in range");
            }
        });

        // The traffic: one fresh load of each queried page, 3 monitored
        // : 1 unmonitored, in a seeded order.
        let mut order: Vec<usize> = (0..p.monitored).collect();
        Rng::new(sub_seed(seed, 2)).shuffle(&mut order);
        let queried: Vec<(usize, Option<usize>)> = order[..p.pool_monitored]
            .iter()
            .map(|&c| (split.monitored[c], Some(c)))
            .chain(split.unmonitored.iter().map(|&page| (page, None)))
            .collect();
        let pages: Vec<usize> = queried.iter().map(|&(page, _)| page).collect();
        let mut pool: Vec<(Capture, Option<usize>)> =
            inputs::crawl_pages(&site, &pages, sub_seed(seed, 3))
                .into_iter()
                .zip(&queried)
                .map(|(lc, &(_, class))| (lc.capture, class))
                .collect();
        Rng::new(sub_seed(seed, 4)).shuffle(&mut pool);
        let whole = pool.len() / p.batch * p.batch;
        pool.truncate(whole);

        let mut fp = adapter::fresh_fingerprinter(0, IndexConfig::Flat);
        adapter::set_reference(&mut fp, &refs).expect("reference fits");
        drop(refs);
        let threshold = adapter::calibrate_threshold(&fp, &calib, 95.0).expect("calibration set");
        adapter::serving_pools(&mut fp, 0);

        let mut d = Digest::default();
        let mut steps = 0usize;
        for (cap, class) in &pool {
            d.capture(cap);
            d.u64(class.map_or(u64::MAX, |c| c as u64));
            steps += adapter::featurize(off, &tensor, cap).steps();
        }
        for seq in calib.seqs() {
            d.seq(seq);
        }
        for (c, seqs) in &refresh {
            d.u64(*c as u64);
            seqs.iter().for_each(|s| d.seq(s));
        }
        d.u64(u64::from(threshold.to_bits()));
        let n = pool.len().max(1) as f64;
        let mean_records = pool.iter().map(|(c, _)| c.packets.len()).sum::<usize>() as f64 / n;
        Serve {
            outcomes: vec![None; pool.len()],
            p,
            fp,
            tensor,
            threshold,
            pool,
            next_batch: 0,
            refresh,
            next_refresh: 0,
            cost: SearchCost::default(),
            oracle: Quality::default(),
            digest: d.finish(),
            mean_records,
            mean_steps: steps as f64 / n,
        }
    }

    fn batch_dataset(&self, tr: &Tracer, b: usize) -> Result<Dataset, String> {
        let mut ds = Dataset::new(
            self.p.monitored,
            self.tensor.channels,
            self.tensor.max_steps,
        );
        for (cap, class) in &self.pool[b * self.p.batch..(b + 1) * self.p.batch] {
            let seq = adapter::featurize(tr, &self.tensor, cap);
            ds.push(class.unwrap_or(0), seq)
                .map_err(|e| e.to_string())?;
        }
        Ok(ds)
    }
}

impl Workload for Serve {
    fn setup(seed: u64) -> Self {
        Serve::with_params(Params::full(), seed)
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn step(&mut self, tr: &Tracer, rec: &mut Recorder) {
        let n_batches = self.pool.len() / self.p.batch;
        let b = self.next_batch % n_batches;
        self.next_batch += 1;
        let t = Instant::now();
        let this = &*self;
        let mut cost = SearchCost::default();
        let result = rec.op("serve batch", || {
            tr.request("request", this.p.batch, || {
                let ds = this.batch_dataset(tr, b)?;
                let scored = adapter::decide_batch(tr, &this.fp, &ds, &mut cost);
                Ok::<_, String>(
                    scored
                        .iter()
                        .map(|s| {
                            (
                                s.prediction.top(),
                                s.score.to_bits(),
                                adapter::accepted(s, this.threshold),
                            )
                        })
                        .collect::<Vec<Outcome>>(),
                )
            })
        });
        let dt = t.elapsed().as_secs_f64();
        rec.busy_s += dt;
        if tr.is_on() {
            self.cost.queries += cost.queries;
            self.cost.evals += cost.evals;
        }
        let Some(outcomes) = result else { return };
        rec.decision_ms.push(dt * 1e3);
        rec.decisions += outcomes.len() as u64;
        for (i, o) in outcomes.into_iter().enumerate() {
            let slot = &mut self.outcomes[b * self.p.batch + i];
            match slot {
                None => *slot = Some(o),
                Some(prev) => rec.check(*prev == o, || {
                    format!(
                        "pool item {} decided differently on replay",
                        b * self.p.batch + i
                    )
                }),
            }
        }
        for _ in 0..self.p.updates_per_batch {
            let (class, loads) = &self.refresh[self.next_refresh % self.refresh.len()];
            self.next_refresh += 1;
            let fp = &mut self.fp;
            rec.update("update_class", || {
                adapter::update_class(tr, fp, *class, loads)
            });
        }
    }

    fn after_loop(&mut self, rec: &mut Recorder) {
        // Exact oracle on the first batches (refreshes leave the rows as
        // they were, in another order).
        let off = &Tracer::new(false);
        let exact = adapter::snapshot(self.fp.reference());
        for b in 0..self.p.oracle_batches.min(self.pool.len() / self.p.batch) {
            let Ok(ds) = self.batch_dataset(off, b) else {
                continue;
            };
            let embeddings = adapter::embed_batch(off, &self.fp, ds.seqs());
            for (i, e) in embeddings.iter().enumerate() {
                let Some((top, score, _)) = self.outcomes[b * self.p.batch + i] else {
                    continue;
                };
                let o = exact.decide(e, K);
                self.oracle.oracle(o.scored.prediction.top() == top, o.tie);
                // A flat store is exact: only a counted tie may differ.
                rec.check(o.scored.prediction.top() == top || o.tie, || {
                    format!("oracle disagrees on pool item {}", b * self.p.batch + i)
                });
                rec.check(o.scored.score.to_bits() == score, || {
                    format!("oracle score differs on pool item {}", b * self.p.batch + i)
                });
            }
        }
    }

    fn quality(&self) -> Quality {
        let mut q = self.oracle.clone();
        for ((_, class), o) in self.pool.iter().zip(&self.outcomes) {
            if let Some((top, _, accepted)) = o {
                q.decision(*class, *top, *accepted, 1.0);
            }
        }
        q
    }

    fn serving(&self) -> Serving<'_> {
        Serving {
            fp: &self.fp,
            tensor: self.tensor,
            policy: adapter::early_stop_policy(
                PerClassThresholds {
                    radii: Vec::new(),
                    fallback: self.threshold,
                },
                0.0,
                2,
            ),
            probe_captures: self.pool.iter().map(|(c, _)| c).collect(),
            mean_records: self.mean_records,
            mean_steps: self.mean_steps,
        }
    }

    fn loop_cost(&self) -> SearchCost {
        self.cost
    }

    fn loop_sessions(&self) -> Option<SessionStats> {
        None
    }
}
