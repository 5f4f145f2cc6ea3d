//! Input generation (the `web` and `net` layers, set-up only).
//!
//! The deployment is fixed, as a real one is: one synthetic site, one
//! monitored set, one reference crawl, one calibration and one model,
//! all from [`DEPLOYMENT`]. `--seed` drives the traffic: every queried
//! or streamed load, its background noise and the order of requests.
//! A seeded deployment would add a random effect that no amount of
//! traffic averages out: the site's theme shapes every page, and under
//! an untrained model one class's calibrated radius can decide where
//! most streamed sessions stop early.

use std::net::Ipv4Addr;

use tlsfp::net::capture::{Capture, Packet};
use tlsfp::web::corpus::{open_world_split, OpenWorldSplit};
use tlsfp::web::crawler::{Crawler, LabeledCapture};
use tlsfp::web::scenario::BackgroundNoiseSpec;
use tlsfp::web::site::{SiteSpec, Website};

use crate::stats::Rng;

/// Seed of everything that belongs to the deployment rather than to the
/// traffic: the site, the monitored set, the reference and calibration
/// crawls and the model.
pub const DEPLOYMENT: u64 = 7;

pub fn site(spec: SiteSpec) -> Website {
    Website::generate(spec, DEPLOYMENT).expect("valid site spec")
}

/// The monitored and unmonitored pages of a `total`-page site.
pub fn monitored_split(total: usize, monitored: usize) -> OpenWorldSplit {
    open_world_split(total, monitored, DEPLOYMENT).expect("0 < monitored < total")
}

/// One load of each of `pages`, in order.
pub fn crawl_pages(site: &Website, pages: &[usize], seed: u64) -> Vec<LabeledCapture> {
    Crawler::new(1)
        .crawl_pages(site, pages, seed)
        .expect("pages in range")
}

/// Visits every page `visits` times, in a fresh shuffled order per
/// round, handing each load to `sink`.
pub fn crawl(site: &Website, visits: usize, seed: u64, sink: impl FnMut(LabeledCapture)) {
    Crawler::new(visits)
        .crawl_with(site, seed, sink)
        .expect("valid site");
}

/// Sprinkles `noise.packets_per_trace` background records over the
/// load window, with the sizes, directions and flow count of `noise`
/// (the rule `BackgroundNoiseSpec::generate` applies to whole corpora).
pub fn add_noise(capture: &mut Capture, noise: &BackgroundNoiseSpec, rng: &mut Rng) {
    let start = capture.packets.first().map_or(0, |p| p.timestamp_us);
    let window = capture.duration_us().max(1);
    let client = capture.client;
    let (lo, hi) = (noise.bytes.0, noise.bytes.1.max(noise.bytes.0));
    for _ in 0..noise.packets_per_trace {
        let server = Ipv4Addr::new(203, 0, 113, rng.below(noise.flows.clamp(1, 200)) as u8);
        let timestamp_us = start + rng.below(window as usize + 1) as u64;
        let payload_len = lo + rng.below((hi - lo) as usize + 1) as u32;
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let upstream = unit < noise.upstream_prob;
        let (src, dst) = if upstream {
            (client, server)
        } else {
            (server, client)
        };
        capture.push(Packet {
            timestamp_us,
            src,
            dst,
            payload_len,
        });
    }
    capture.sort_by_time();
}
