//! The only place the benchmark calls into the program: one function
//! per layer call, each recorded as a span named after its layer.
//!
//! The decision front doors (`decide_batch`, `decide_one`) and the
//! class mutations call the program's own front doors when recording
//! is off. When it is on, they make the same calls the front door makes
//! internally, one layer at a time, so each layer gets its own span;
//! the workloads check that both paths decide identically. A change to
//! the program's API changes this file only.

use std::net::Ipv4Addr;

use tlsfp::core::knn::{rank_search, ScoredPrediction};
use tlsfp::core::pipeline::{AdaptiveFingerprinter, PipelineConfig};
use tlsfp::core::streaming::{EarlyStopPolicy, PrefixDecision, StreamingSession};
use tlsfp::core::{CoreError, PerClassThresholds};
use tlsfp::index::sharded::ShardedStore;
use tlsfp::index::{IndexConfig, Rows, SearchResult};
use tlsfp::net::capture::{Capture, Packet};
use tlsfp::nn::embedding::{EmbedderConfig, SequenceEmbedder};
use tlsfp::nn::seq::SeqInput;
use tlsfp::trace::dataset::Dataset;
use tlsfp::trace::sequence::IpSequences;
use tlsfp::trace::tensorize::TensorConfig;

use crate::oracle::ExactKnn;
use crate::spans::Tracer;

/// kNN neighbourhood size every workload serves with.
pub const K: usize = 25;

/// Query fan-out workers for the workloads that serve one small
/// request at a time (`stream_early`, `adapt_drift`). Their requests
/// take 0.03 to 0.4 ms, and at the program default (all cores) every
/// request spawned a thread, so its latency measured how soon the host
/// scheduled that thread: on a 2-vCPU VM, one competing process raised
/// `adapt_drift`'s tail latency from 0.8 to 3.8 ms at 2 workers and left
/// it at 0.4 ms at 1. `serve_13k`, whose 64-trace batches amortise the
/// spawns and whose fan-out scaling is measured, keeps the default.
pub const SINGLE_REQUEST_WORKERS: usize = 1;

/// Embedding workers while serving, in every workload. Serving embeds a
/// single trace, a 64-trace batch (about 1% of a `serve_13k` batch's
/// time) or an update's 10 to 12 loads; at the default each batch
/// spawned threads, and `serve_13k`'s update tail jumped by half when
/// the host was busy. Provisioning keeps the program default.
pub const SERVING_EMBED_WORKERS: usize = 1;

// ----- set-up -------------------------------------------------------

/// The embedder architecture every workload serves with
/// (`PipelineConfig::small`, 24-dimensional embeddings).
pub fn embedder_config() -> EmbedderConfig {
    PipelineConfig::small().embedder
}

/// A deployment around a freshly initialised (untrained) embedder.
/// Serving cost does not depend on the weight values. Its worker pools
/// keep the program default (all cores) for provisioning.
pub fn fresh_fingerprinter(shards: usize, index: IndexConfig) -> AdaptiveFingerprinter {
    let embedder = SequenceEmbedder::new(embedder_config(), crate::inputs::DEPLOYMENT)
        .expect("valid embedder config");
    let mut fp = AdaptiveFingerprinter::from_trained(embedder, K, 0);
    fp.set_shards(shards);
    fp.set_index(index);
    fp
}

/// Sizes the worker pools for serving, once provisioning is done:
/// [`SERVING_EMBED_WORKERS`] for embedding, `query_workers` for the
/// query fan-out (`0` = the program default, all cores).
pub fn serving_pools(fp: &mut AdaptiveFingerprinter, query_workers: usize) {
    fp.set_threads(SERVING_EMBED_WORKERS);
    fp.set_query_workers(query_workers);
}

pub fn set_reference(fp: &mut AdaptiveFingerprinter, data: &Dataset) -> Result<(), CoreError> {
    fp.set_reference(data)
}

pub fn calibrate_threshold(
    fp: &AdaptiveFingerprinter,
    known: &Dataset,
    percentile: f64,
) -> Result<f32, CoreError> {
    fp.calibrate_rejection_threshold(known, percentile)
}

pub fn calibrate_radii(
    fp: &AdaptiveFingerprinter,
    known: &Dataset,
    percentile: f64,
    min_samples: usize,
) -> Result<PerClassThresholds, CoreError> {
    fp.calibrate_rejection_radii(known, percentile, min_samples)
}

/// The worker count the deployment's query fan-out resolves to.
pub fn query_workers(fp: &AdaptiveFingerprinter) -> usize {
    match fp.query_workers() {
        0 => tlsfp::nn::parallel::default_threads(),
        n => n,
    }
}

/// A frozen copy of the store's rows, for the exact oracle.
pub fn snapshot(store: &ShardedStore) -> ExactKnn {
    let (rows, labels) = store.concat_rows();
    ExactKnn {
        dim: store.dim(),
        rows,
        labels,
    }
}

/// One `matmul_t` call (`n` rows of `in_dim` inputs against
/// `bias.len()` outputs), for the compute-ceiling probe.
pub fn matmul(x: &[f32], in_dim: usize, wt: &[f32], bias: &[f32], out: &mut [f32]) {
    tlsfp::nn::tensor::matmul_t(x, in_dim, wt, bias, out);
}

// ----- trace --------------------------------------------------------

/// Raw capture to model input: `IpSequences::extract` then `tensorize`.
pub fn featurize(tr: &Tracer, cfg: &TensorConfig, capture: &Capture) -> SeqInput {
    tr.span("trace.featurize", 1, || {
        cfg.tensorize(&IpSequences::extract(capture))
    })
}

// ----- nn -----------------------------------------------------------

pub fn embed_batch(tr: &Tracer, fp: &AdaptiveFingerprinter, seqs: &[SeqInput]) -> Vec<Vec<f32>> {
    tr.span("nn.embed", seqs.len(), || fp.embed_all(seqs))
}

pub fn embed_one(tr: &Tracer, fp: &AdaptiveFingerprinter, seq: &SeqInput) -> Vec<f32> {
    tr.span("nn.embed", 1, || fp.embedder().embed(seq))
}

// ----- index --------------------------------------------------------

pub fn search_batch(
    tr: &Tracer,
    store: &ShardedStore,
    queries: &[Vec<f32>],
    k: usize,
    workers: usize,
) -> Vec<SearchResult> {
    tr.span("index.search", queries.len(), || {
        store.search_batch_concurrent(queries, k, workers)
    })
}

pub fn search_one(
    tr: &Tracer,
    store: &ShardedStore,
    query: &[f32],
    k: usize,
    workers: usize,
) -> SearchResult {
    tr.span("index.search", 1, || {
        store.search_concurrent(query, k, workers)
    })
}

pub fn swap_class(tr: &Tracer, store: &ShardedStore, class: usize, rows: &[Vec<f32>]) -> usize {
    let flat: Vec<f32> = rows.concat();
    tr.span("index.swap", rows.len(), || {
        store.swap_class(class, Rows::new(store.dim(), &flat))
    })
}

pub fn add_rows(tr: &Tracer, store: &ShardedStore, rows: &[Vec<f32>]) -> usize {
    tr.span("index.add", rows.len(), || {
        let class = store.allocate_class();
        for row in rows {
            store.add_row(class, row);
        }
        class
    })
}

pub fn remove_rows(tr: &Tracer, store: &ShardedStore, class: usize) -> usize {
    tr.span("index.remove", 1, || store.remove_class(class))
}

// ----- core ---------------------------------------------------------

pub fn vote(tr: &Tracer, result: SearchResult) -> ScoredPrediction {
    tr.span("core.vote", 1, || rank_search(result))
}

/// Open-world acceptance under a global threshold.
pub fn accepted(scored: &ScoredPrediction, threshold: f32) -> bool {
    scored.accepted(threshold)
}

/// Open-world acceptance under the policy's per-class radii, for a
/// decision on the whole trace.
pub fn within_radius(policy: &EarlyStopPolicy, scored: &ScoredPrediction) -> bool {
    policy.accepts(scored.score, scored.prediction.top(), usize::MAX)
}

/// What a traced decision cost in the index layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchCost {
    pub queries: u64,
    pub evals: u64,
}

/// Batch front door: `fingerprint_with_score_all`.
pub fn decide_batch(
    tr: &Tracer,
    fp: &AdaptiveFingerprinter,
    batch: &Dataset,
    cost: &mut SearchCost,
) -> Vec<ScoredPrediction> {
    if !tr.is_on() {
        return fp.fingerprint_with_score_all(batch);
    }
    let embeddings = embed_batch(tr, fp, batch.seqs());
    let results = search_batch(tr, fp.reference(), &embeddings, fp.k(), query_workers(fp));
    cost.queries += results.len() as u64;
    cost.evals += results.iter().map(|r| r.distance_evals).sum::<u64>();
    results.into_iter().map(|r| vote(tr, r)).collect()
}

/// Single-trace front door: `fingerprint_with_score`.
pub fn decide_one(
    tr: &Tracer,
    fp: &AdaptiveFingerprinter,
    seq: &SeqInput,
    cost: &mut SearchCost,
) -> ScoredPrediction {
    if !tr.is_on() {
        return fp.fingerprint_with_score(seq);
    }
    let embedding = embed_one(tr, fp, seq);
    let result = search_one(tr, fp.reference(), &embedding, fp.k(), query_workers(fp));
    cost.queries += 1;
    cost.evals += result.distance_evals;
    vote(tr, result)
}

pub fn start_session(
    tr: &Tracer,
    fp: &AdaptiveFingerprinter,
    cfg: TensorConfig,
    client: Ipv4Addr,
) -> StreamingSession {
    tr.span("core.session_start", 1, || fp.start_session(cfg, client))
}

pub fn feed(
    tr: &Tracer,
    fp: &AdaptiveFingerprinter,
    session: &mut StreamingSession,
    packets: &[Packet],
) {
    tr.span("core.feed", packets.len(), || {
        fp.feed_chunk(session, packets)
    })
}

pub fn decide_now(
    tr: &Tracer,
    fp: &AdaptiveFingerprinter,
    session: &mut StreamingSession,
    policy: Option<&EarlyStopPolicy>,
) -> PrefixDecision {
    tr.span("core.decide_now", 1, || fp.decide_now(session, policy))
}

pub fn finish(
    tr: &Tracer,
    fp: &AdaptiveFingerprinter,
    session: StreamingSession,
) -> ScoredPrediction {
    tr.span("core.finish", 1, || fp.finish(session))
}

pub fn early_stop_policy(
    radii: PerClassThresholds,
    margin: f32,
    min_steps: usize,
) -> EarlyStopPolicy {
    EarlyStopPolicy::new(radii, margin, min_steps)
}

fn check_class(fp: &AdaptiveFingerprinter, class: usize) -> Result<(), CoreError> {
    let n_classes = fp.reference().n_classes();
    if class < n_classes {
        Ok(())
    } else {
        Err(CoreError::ClassOutOfRange { class, n_classes })
    }
}

/// `update_class`: re-embed fresh traces and swap them in.
pub fn update_class(
    tr: &Tracer,
    fp: &mut AdaptiveFingerprinter,
    class: usize,
    fresh: &[SeqInput],
) -> Result<usize, CoreError> {
    if !tr.is_on() {
        return fp.update_class(class, fresh);
    }
    tr.span("core.update", fresh.len(), || {
        check_class(fp, class)?;
        let rows = embed_batch(tr, fp, fresh);
        Ok(swap_class(tr, fp.reference(), class, &rows))
    })
}

/// `add_class`: a new monitored page; returns its class id.
pub fn add_class(
    tr: &Tracer,
    fp: &mut AdaptiveFingerprinter,
    traces: &[SeqInput],
) -> Result<usize, CoreError> {
    if !tr.is_on() {
        return fp.add_class(traces);
    }
    tr.span("core.add", traces.len(), || {
        let rows = embed_batch(tr, fp, traces);
        Ok(add_rows(tr, fp.reference(), &rows))
    })
}

/// `remove_class`: stop monitoring a page.
pub fn remove_class(
    tr: &Tracer,
    fp: &mut AdaptiveFingerprinter,
    class: usize,
) -> Result<usize, CoreError> {
    if !tr.is_on() {
        return fp.remove_class(class);
    }
    tr.span("core.remove", 1, || {
        check_class(fp, class)?;
        Ok(remove_rows(tr, fp.reference(), class))
    })
}
