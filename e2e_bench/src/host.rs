//! Host profile and hardware ceilings, recorded with every result so
//! roofline fractions mean something and numbers from different hosts
//! are never compared blind.

use std::time::Instant;

use crate::adapter;
use crate::stats::median;

#[derive(Debug, Clone)]
pub struct HostProfile {
    pub cpu: String,
    pub nproc: usize,
    pub workers: usize,
    /// `(level, type, size)` per cache of CPU 0, e.g. `(2, "Unified", "4096K")`.
    pub caches: Vec<(String, String, String)>,
}

impl HostProfile {
    pub fn detect(workers: usize) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let mut caches = Vec::new();
        for i in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| {
                std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string())
            };
            if let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) {
                caches.push((level, kind, size));
            }
        }
        HostProfile {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers,
            caches,
        }
    }

    pub fn to_json(&self) -> String {
        let caches: Vec<String> = self
            .caches
            .iter()
            .map(|(l, t, s)| format!("{{\"level\":{l},\"type\":\"{t}\",\"size\":\"{s}\"}}"))
            .collect();
        format!(
            "{{\"cpu\":\"{}\",\"nproc\":{},\"workers\":{},\"caches\":[{}]}}",
            self.cpu.replace('"', "'"),
            self.nproc,
            self.workers,
            caches.join(",")
        )
    }
}

/// Process high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Streaming-read bandwidth in GB/s over a buffer of `bytes`, read by
/// `threads` threads each summing its own contiguous part: the memory
/// ceiling for a scan of a store that size.
pub fn read_gbs(bytes: usize, threads: usize) -> f64 {
    let n = (bytes / 4).max(1024);
    let buf: Vec<f32> = (0..n).map(|i| (i % 97) as f32).collect();
    let threads = threads.max(1);
    let part = n.div_ceil(threads);
    // Each thread re-reads its part enough times to move ~64 MB per
    // measurement, so thread start-up does not dominate small buffers.
    let passes = (64 << 20) / (n * 4) + 1;
    let mut rates = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_millis(300);
    while rates.len() < 5 || Instant::now() < deadline {
        let t = Instant::now();
        let sum: f32 = std::thread::scope(|s| {
            let handles: Vec<_> = buf
                .chunks(part)
                .map(|chunk| {
                    s.spawn(move || {
                        (0..passes)
                            .map(|_| sum8(std::hint::black_box(chunk)))
                            .sum::<f32>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .sum()
        });
        std::hint::black_box(sum);
        rates.push((n * 4 * passes) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    median(&rates)
}

fn sum8(xs: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let mut chunks = xs.chunks_exact(8);
    for c in &mut chunks {
        for (a, &x) in acc.iter_mut().zip(c) {
            *a += x;
        }
    }
    acc.iter().sum::<f32>() + chunks.remainder().iter().sum::<f32>()
}

/// Single-thread `matmul_t` rate in GFLOP/s at the embedder's dense
/// layer shape (64 rows × 96 → 96): the compute ceiling for the embed.
pub fn matmul_peak_gflops() -> f64 {
    let (rows, dim) = (64usize, 96usize);
    let x: Vec<f32> = (0..rows * dim).map(|i| (i % 13) as f32 * 0.01).collect();
    let wt: Vec<f32> = (0..dim * dim).map(|i| (i % 7) as f32 * 0.02).collect();
    let bias = vec![0.1f32; dim];
    let mut out = vec![0.0f32; rows * dim];
    let flops = (2 * rows * dim * dim) as f64;
    let reps = 200;
    let mut rates = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_millis(300);
    while rates.len() < 5 || Instant::now() < deadline {
        let t = Instant::now();
        for _ in 0..reps {
            adapter::matmul(std::hint::black_box(&x), dim, &wt, &bias, &mut out);
        }
        std::hint::black_box(&out);
        rates.push(flops * reps as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    median(&rates)
}

/// FLOPs of one embed of a `steps`-step input, computed from the
/// architecture: the LSTM's four gates per step plus the dense stack.
pub fn embed_flops(cfg: &tlsfp::nn::embedding::EmbedderConfig, steps: f64) -> f64 {
    let h = cfg.lstm_hidden as f64;
    let lstm = steps * 8.0 * h * (cfg.input_size as f64 + h);
    let mut dense = 0.0;
    let mut prev = cfg.lstm_hidden;
    for &w in cfg
        .hidden_layers
        .iter()
        .chain(std::iter::once(&cfg.output_size))
    {
        dense += 2.0 * (prev * w) as f64;
        prev = w;
    }
    lstm + dense
}

/// `(steal, total)` CPU time in clock ticks from `/proc/stat`: time the
/// hypervisor ran other guests while this one had work to do. A run
/// with a high steal share measured contention, not the program.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}
