//! Decision-cost benchmark for tlsfp.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload serve_13k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `serve_13k`, `stream_early`, `adapt_drift` (see
//! `README.md`). Each is a closed loop with one caller. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` prints the per-layer
//! metrics from spans recorded around every call into the program.
//! The last stdout line is the JSON result; a run summary goes to
//! stderr and to `e2e_bench/out/`.

mod adapt;
mod adapter;
mod host;
mod inputs;
mod oracle;
mod runner;
mod serve;
mod spans;
mod stats;
mod stream;

use std::path::PathBuf;

use runner::RunOutput;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? != "0",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            std::process::exit(2);
        }
    };
    let out: RunOutput = match args.workload.as_str() {
        "serve_13k" => runner::run::<serve::Serve>(args.seed, args.seconds, args.trace),
        "stream_early" => runner::run::<stream::Stream>(args.seed, args.seconds, args.trace),
        "adapt_drift" => runner::run::<adapt::Adapt>(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("e2e_bench: unknown workload {other} (serve_13k, stream_early, adapt_drift)");
            std::process::exit(2);
        }
    };

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let tag = format!("{}-trace{}", args.workload, u8::from(args.trace));
    let written = std::fs::create_dir_all(&dir).and_then(|_| {
        std::fs::write(dir.join(format!("{tag}.json")), &out.detail)?;
        if args.trace {
            spans::write_tsv(&out.spans, &dir.join(format!("{tag}-spans.tsv")))?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("e2e_bench: could not write {}: {e}", dir.display());
    }

    eprintln!("{}: {}", args.workload, out.detail);
    for (name, value, unit) in &out.metrics {
        eprintln!("  {name:<32} {value:>14.6} {unit}");
    }
    eprintln!("  attempted {} failed {}", out.attempted, out.failed);
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
}

#[cfg(test)]
mod tests {
    use crate::runner::{Recorder, Workload};
    use crate::spans::Tracer;
    use crate::{adapt, serve, stream};

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let serve = |seed| serve::Serve::with_params(serve::Params::tiny(), seed).digest();
        assert_eq!(serve(1), serve(1));
        assert_ne!(serve(1), serve(2));
        let stream = |seed| stream::Stream::with_params(stream::Params::tiny(), seed).digest();
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
        let adapt = |seed| adapt::Adapt::with_params(adapt::Params::tiny(), seed).digest();
        assert_eq!(adapt(1), adapt(1));
        assert_ne!(adapt(1), adapt(2));
    }

    /// Steps a small workload untraced, then traced (which replays the
    /// same inputs through the per-layer path), then runs its checks:
    /// nothing may fail.
    fn exercise<W: Workload>(mut w: W, steps: usize) {
        let mut rec = Recorder::default();
        for on in [false, true] {
            let tr = Tracer::new(on);
            for _ in 0..steps {
                w.step(&tr, &mut rec);
            }
            w.after_loop(&mut rec);
        }
        assert_eq!(rec.failed, 0, "{:?}", rec.notes);
        assert!(rec.decisions > 0 && rec.decision_ms.seen() > 0 && rec.update_ms.seen() > 0);
    }

    #[test]
    fn small_workloads_run_clean_on_both_paths() {
        exercise(serve::Serve::with_params(serve::Params::tiny(), 3), 8);
        exercise(stream::Stream::with_params(stream::Params::tiny(), 3), 200);
        exercise(adapt::Adapt::with_params(adapt::Params::tiny(), 3), 60);
    }
}
