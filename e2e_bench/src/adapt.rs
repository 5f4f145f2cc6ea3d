//! `adapt_drift`: writes beside reads on the approximate backend. 800
//! monitored wiki-like pages × 10 reference loads on auto-sharded IVF.
//! Single-trace queries (3 monitored : 1 unmonitored) arrive as raw
//! captures; every 10th op refreshes a class with fresh loads of its
//! page after heavy drift, and every 100th op adds a new page and
//! removes the oldest one.

use std::collections::VecDeque;
use std::time::Instant;

use tlsfp::core::pipeline::AdaptiveFingerprinter;
use tlsfp::core::PerClassThresholds;
use tlsfp::index::IndexConfig;
use tlsfp::net::capture::Capture;
use tlsfp::nn::seq::SeqInput;
use tlsfp::trace::dataset::Dataset;
use tlsfp::trace::tensorize::TensorConfig;
use tlsfp::web::drift::DriftConfig;
use tlsfp::web::site::SiteSpec;

use crate::adapter::{self, SearchCost, K};
use crate::inputs;
use crate::runner::{Quality, Recorder, Serving, SessionStats, Workload};
use crate::spans::Tracer;
use crate::stats::{sub_seed, Digest, Rng};

#[derive(Debug, Clone)]
pub struct Params {
    pub monitored: usize,
    pub extra: usize,
    pub refs: usize,
    pub queries_per_version: usize,
    pub update_every: usize,
    pub churn_every: usize,
    pub oracle_every: usize,
}

impl Params {
    pub fn full() -> Self {
        Params {
            monitored: 800,
            extra: 200,
            refs: 10,
            queries_per_version: 3,
            update_every: 10,
            churn_every: 100,
            oracle_every: 16,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Params {
            monitored: 24,
            extra: 8,
            refs: 3,
            queries_per_version: 2,
            update_every: 4,
            churn_every: 8,
            oracle_every: 2,
        }
    }
}

/// One page's inputs at its original and drifted versions.
struct Page {
    /// Reference loads per version (`[original, drifted]`).
    loads: [Vec<SeqInput>; 2],
    /// Held-out query captures per version.
    queries: [Vec<Capture>; 2],
    /// The version the site serves now (`1` once refreshed to drift).
    version: usize,
}

pub struct Adapt {
    p: Params,
    fp: AdaptiveFingerprinter,
    tensor: TensorConfig,
    threshold: f32,
    pages: Vec<Page>,
    /// Monitored classes, oldest first, with their page.
    live: VecDeque<(usize, usize)>,
    /// Pages outside the monitored set, next to be added first.
    outside: VecDeque<usize>,
    rng: Rng,
    op: u64,
    queries: u64,
    cost: SearchCost,
    quality: Quality,
    digest: u64,
    mean_records: f64,
    mean_steps: f64,
}

impl Adapt {
    pub fn with_params(p: Params, seed: u64) -> Self {
        let tensor = TensorConfig::wiki();
        let off = &Tracer::new(false);
        let total = p.monitored + p.extra;
        let split = inputs::monitored_split(total, p.monitored);
        let mut pages: Vec<Page> = (0..total)
            .map(|_| Page {
                loads: [Vec::new(), Vec::new()],
                queries: [Vec::new(), Vec::new()],
                version: 0,
            })
            .collect();
        let mut calib = Dataset::new(p.monitored, tensor.channels, tensor.max_steps);
        let mut class_of = vec![None; total];
        for (class, &page) in split.monitored.iter().enumerate() {
            class_of[page] = Some(class);
        }

        // The deployment: reference loads of every page (added pages
        // bring theirs), a calibration load per monitored page, and the
        // refresh loads crawled after the site drifted.
        let site = inputs::site(SiteSpec::wiki_like(total));
        let drifted = site.drifted(DriftConfig::heavy(), inputs::DEPLOYMENT);
        let mut visits = vec![0usize; total];
        inputs::crawl(&site, p.refs + 1, inputs::DEPLOYMENT, |lc| {
            let visit = visits[lc.page];
            visits[lc.page] += 1;
            if visit < p.refs {
                pages[lc.page].loads[0].push(adapter::featurize(off, &tensor, &lc.capture));
            } else if let Some(class) = class_of[lc.page] {
                calib
                    .push(class, adapter::featurize(off, &tensor, &lc.capture))
                    .expect("class in range");
            }
        });
        inputs::crawl(&drifted, p.refs, inputs::DEPLOYMENT + 1, |lc| {
            pages[lc.page].loads[1].push(adapter::featurize(off, &tensor, &lc.capture));
        });
        // The traffic: query loads of every page, before and after drift.
        for (version, site) in [&site, &drifted].into_iter().enumerate() {
            inputs::crawl(
                site,
                p.queries_per_version,
                sub_seed(seed, 2 + version as u64),
                |lc| {
                    pages[lc.page].queries[version].push(lc.capture);
                },
            );
        }

        let mut refs = Dataset::new(p.monitored, tensor.channels, tensor.max_steps);
        let mut live = VecDeque::new();
        for (class, &page) in split.monitored.iter().enumerate() {
            for seq in &pages[page].loads[0] {
                refs.push(class, seq.clone()).expect("class in range");
            }
            live.push_back((class, page));
        }
        let mut fp = adapter::fresh_fingerprinter(0, IndexConfig::ivf_default());
        adapter::set_reference(&mut fp, &refs).expect("reference fits");
        let threshold = adapter::calibrate_threshold(&fp, &calib, 95.0).expect("calibration set");
        adapter::serving_pools(&mut fp, adapter::SINGLE_REQUEST_WORKERS);

        let mut d = Digest::default();
        let (mut records, mut steps, mut n) = (0usize, 0usize, 0usize);
        for page in &pages {
            for seq in page.loads.iter().flatten() {
                d.seq(seq);
            }
            for cap in page.queries.iter().flatten() {
                d.capture(cap);
                records += cap.packets.len();
                steps += adapter::featurize(off, &tensor, cap).steps();
                n += 1;
            }
        }
        d.u64(u64::from(threshold.to_bits()));
        Adapt {
            outside: split.unmonitored.iter().copied().collect(),
            rng: Rng::new(sub_seed(seed, 6)),
            p,
            fp,
            tensor,
            threshold,
            pages,
            live,
            op: 0,
            queries: 0,
            cost: SearchCost::default(),
            quality: Quality::default(),
            digest: d.finish(),
            mean_records: records as f64 / n.max(1) as f64,
            mean_steps: steps as f64 / n.max(1) as f64,
        }
    }

    fn query(&mut self, tr: &Tracer, rec: &mut Recorder) {
        let monitored = self.rng.below(4) != 0;
        let (page, class) = if monitored {
            let (class, page) = self.live[self.rng.below(self.live.len())];
            (page, Some(class))
        } else {
            (self.outside[self.rng.below(self.outside.len())], None)
        };
        let pg = &self.pages[page];
        let capture = &pg.queries[pg.version][self.rng.below(pg.queries[pg.version].len())];
        let (fp, tensor) = (&self.fp, &self.tensor);
        let mut cost = SearchCost::default();
        let t = Instant::now();
        let scored = rec.op("query", || {
            tr.request("request", 1, || {
                let seq = adapter::featurize(tr, tensor, capture);
                Ok::<_, ()>((adapter::decide_one(tr, fp, &seq, &mut cost), seq))
            })
        });
        let dt = t.elapsed().as_secs_f64();
        rec.busy_s += dt;
        let Some((scored, seq)) = scored else { return };
        rec.decision_ms.push(dt * 1e3);
        rec.decisions += 1;
        if tr.is_on() {
            self.cost.queries += cost.queries;
            self.cost.evals += cost.evals;
        }
        let top = scored.prediction.top();
        let accepted = adapter::accepted(&scored, self.threshold);
        self.quality.decision(class, top, accepted, 1.0);
        self.queries += 1;
        if self.queries.is_multiple_of(self.p.oracle_every as u64) {
            // Untimed: the exact oracle against the store as it is now.
            // IVF may legitimately disagree; that is its approximation
            // cost, reported as `top1_agree`, not a failure.
            let off = &Tracer::new(false);
            let exact = adapter::snapshot(self.fp.reference());
            let e = adapter::embed_one(off, &self.fp, &seq);
            let o = exact.decide(&e, K);
            self.quality.oracle(o.scored.prediction.top() == top, o.tie);
        }
    }

    fn refresh(&mut self, tr: &Tracer, rec: &mut Recorder) {
        let (class, page) = self.live[self.rng.below(self.live.len())];
        let fp = &mut self.fp;
        let fresh = &self.pages[page].loads[1];
        if rec
            .update("update_class", || {
                adapter::update_class(tr, fp, class, fresh)
            })
            .is_some()
        {
            self.pages[page].version = 1;
        }
    }

    fn churn(&mut self, tr: &Tracer, rec: &mut Recorder) {
        if let Some(page) = self.outside.pop_front() {
            let fp = &mut self.fp;
            let pg = &self.pages[page];
            let loads = &pg.loads[pg.version];
            match rec.update("add_class", || adapter::add_class(tr, fp, loads)) {
                Some(class) => {
                    self.live.push_back((class, page));
                }
                None => self.outside.push_front(page),
            }
        }
        if self.live.len() > 1 {
            let (class, page) = self.live.pop_front().expect("non-empty");
            let fp = &mut self.fp;
            rec.update("remove_class", || adapter::remove_class(tr, fp, class));
            self.outside.push_back(page);
        }
    }
}

impl Workload for Adapt {
    fn setup(seed: u64) -> Self {
        Adapt::with_params(Params::full(), seed)
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn step(&mut self, tr: &Tracer, rec: &mut Recorder) {
        self.op += 1;
        if self.op.is_multiple_of(self.p.churn_every as u64) {
            self.churn(tr, rec);
        } else if self.op.is_multiple_of(self.p.update_every as u64) {
            self.refresh(tr, rec);
        } else {
            self.query(tr, rec);
        }
    }

    fn after_loop(&mut self, _rec: &mut Recorder) {}

    fn quality(&self) -> Quality {
        self.quality.clone()
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
            probe_captures: self
                .pages
                .iter()
                .flat_map(|p| &p.queries[p.version])
                .collect(),
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
