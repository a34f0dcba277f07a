//! Hub-interpreter throughput: how many sensor samples per second the
//! IR runtime sustains for each evaluation wake-up condition, plus the
//! fusion ablation (two separate runtimes vs one optimized fused
//! program for concurrent conditions).
//!
//! The suite bodies live in [`sidewinder_bench::suites`] so the
//! `perfreport` binary can run the same definitions and capture the
//! measurements machine-readably.

use criterion::{criterion_group, criterion_main};
use sidewinder_bench::suites::{bench_conditions, bench_fusion};

criterion_group!(benches, bench_conditions, bench_fusion);
criterion_main!(benches);
