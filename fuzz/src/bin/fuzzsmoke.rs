//! Fixed-budget deterministic fuzz runner — the CI `fuzz-smoke` job.
//!
//! Runs every registered target (or one, with `--target`) for a fixed
//! iteration budget. Inputs are derived purely from `(seed, target,
//! iteration)` plus the committed corpus, so a failure on one machine
//! reproduces everywhere: rerun with the same seed and the printed
//! iteration, or feed the crash artifact back with `--replay`.
//!
//! ```text
//! fuzzsmoke [--target NAME] [--iters N] [--seed N]
//!           [--corpus DIR] [--artifacts DIR] [--replay FILE]
//! ```
//!
//! Exit code 0 when every iteration of every target returns cleanly;
//! 1 when any target panicked (the offending input is written under the
//! artifacts directory for upload).

use sidewinder_fuzz::{load_corpus, mutate, SplitMix64, TARGETS};
use sidewinder_ir::fnv::Fnv1a;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    target: Option<String>,
    iters: u64,
    seed: u64,
    corpus: PathBuf,
    artifacts: PathBuf,
    replay: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        target: None,
        iters: 256,
        seed: 0x51DE_F0CC_5EED_0001,
        corpus: PathBuf::from("fuzz/corpora"),
        artifacts: PathBuf::from("fuzz/artifacts"),
        replay: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        match flag.as_str() {
            "--target" => opts.target = Some(value("--target")?),
            "--iters" => {
                opts.iters = value("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?;
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = match v.strip_prefix("0x") {
                    Some(hex) => {
                        u64::from_str_radix(hex, 16).map_err(|e| format!("--seed: {e}"))?
                    }
                    None => v.parse().map_err(|e| format!("--seed: {e}"))?,
                };
            }
            "--corpus" => opts.corpus = PathBuf::from(value("--corpus")?),
            "--artifacts" => opts.artifacts = PathBuf::from(value("--artifacts")?),
            "--replay" => opts.replay = Some(PathBuf::from(value("--replay")?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

/// Runs one target for its budget; returns the failing iteration and
/// input on the first panic.
fn run_target(
    name: &str,
    target: fn(&[u8]),
    corpus: &[Vec<u8>],
    iters: u64,
    seed: u64,
) -> Result<(), (u64, Vec<u8>)> {
    // Corpus entries verbatim first — committed seeds must always pass.
    for (i, entry) in corpus.iter().enumerate() {
        let data = entry.clone();
        if catch_unwind(AssertUnwindSafe(|| target(&data))).is_err() {
            return Err((i as u64, data));
        }
    }
    for i in 0..iters {
        let mut rng = SplitMix64(seed ^ Fnv1a::hash(name.as_bytes()) ^ i.wrapping_mul(0x9E37_79B9));
        let base: &[u8] = if corpus.is_empty() {
            &[]
        } else {
            &corpus[rng.below(corpus.len())]
        };
        let data = mutate(base, corpus, &mut rng);
        if catch_unwind(AssertUnwindSafe(|| target(&data))).is_err() {
            return Err((i, data));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fuzzsmoke: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &opts.replay {
        let data = match std::fs::read(path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("fuzzsmoke: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let name = opts.target.as_deref().unwrap_or_else(|| {
            eprintln!("fuzzsmoke: --replay requires --target");
            std::process::exit(2);
        });
        let Some(&(_, target)) = TARGETS.iter().find(|(n, _)| *n == name) else {
            eprintln!("fuzzsmoke: unknown target {name}");
            return ExitCode::FAILURE;
        };
        target(&data);
        println!("fuzzsmoke: {name} replayed {} cleanly", path.display());
        return ExitCode::SUCCESS;
    }

    let selected: Vec<_> = TARGETS
        .iter()
        .filter(|(name, _)| opts.target.as_deref().is_none_or(|t| t == *name))
        .collect();
    if selected.is_empty() {
        eprintln!(
            "fuzzsmoke: unknown target {:?}; known: {}",
            opts.target,
            TARGETS.map(|(n, _)| n).join(", ")
        );
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for &&(name, target) in &selected {
        let corpus = load_corpus(&opts.corpus.join(name));
        match run_target(name, target, &corpus, opts.iters, opts.seed) {
            Ok(()) => println!(
                "fuzzsmoke: {name}: OK ({} corpus + {} mutated inputs, seed {:#x})",
                corpus.len(),
                opts.iters,
                opts.seed
            ),
            Err((iter, data)) => {
                failed = true;
                let _ = std::fs::create_dir_all(&opts.artifacts);
                let artifact = opts.artifacts.join(format!("{name}-{iter}.bin"));
                match std::fs::write(&artifact, &data) {
                    Ok(()) => eprintln!(
                        "fuzzsmoke: {name}: FAILED at iteration {iter} (seed {:#x}); \
                         input written to {} — rerun with --target {name} --replay {}",
                        opts.seed,
                        artifact.display(),
                        artifact.display()
                    ),
                    Err(e) => eprintln!(
                        "fuzzsmoke: {name}: FAILED at iteration {iter} (seed {:#x}); \
                         could not write artifact: {e}",
                        opts.seed
                    ),
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
