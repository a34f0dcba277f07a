//! Dataflow-fact pins and the cross-check of the walks beside the fact
//! table.
//!
//! Every node's arrival rate, emission rate, per-input rates, output
//! length, period in source ticks, base rate, channel mask, flops and
//! memory bytes, digested bit for bit (`to_bits`) over the six golden
//! fixtures, their fusion (raw and optimized), the lint's defective
//! fixtures, one unvalidated program and every committed `ir_totality`
//! corpus program. A change to how any of these facts propagates along
//! an edge moves a digest here, whether or not the program has a
//! certificate pin.
//!
//! The image layout walk (`mcu::footprint`) keeps its own length model
//! as the load-time guard, and the image compiler copies each node's
//! rate; both must agree with the fact table on every program that
//! compiles.

use sidewinder_hub::compile_image;
use sidewinder_hub::cost::PipelineCost;
use sidewinder_hub::runtime::ChannelRates;
use sidewinder_ir::fnv::Fnv1a;
use sidewinder_ir::{flow, Program};
use sidewinder_mcu::image_layout;

const GOLDEN: [(&str, &str); 6] = [
    (
        "headbutts",
        include_str!("../../ir/tests/fixtures/headbutts.swir"),
    ),
    ("steps", include_str!("../../ir/tests/fixtures/steps.swir")),
    (
        "sirens",
        include_str!("../../ir/tests/fixtures/sirens.swir"),
    ),
    (
        "transitions",
        include_str!("../../ir/tests/fixtures/transitions.swir"),
    ),
    ("music", include_str!("../../ir/tests/fixtures/music.swir")),
    (
        "phrase",
        include_str!("../../ir/tests/fixtures/phrase.swir"),
    ),
];

const DEFECTIVE: [(&str, &str); 4] = [
    (
        "lint/dead_threshold",
        include_str!("../../lint/tests/fixtures/dead_threshold.swir"),
    ),
    (
        "lint/siren_overflow",
        include_str!("../../lint/tests/fixtures/siren_overflow.swir"),
    ),
    (
        "lint/wake_storm",
        include_str!("../../lint/tests/fixtures/wake_storm.swir"),
    ),
    // Unvalidated: node 7 is never defined, so the chain reads the
    // unknown-source values (rate 0, length 1, period infinite, base 0,
    // no channels).
    (
        "undefined_source",
        "7 -> fft(id=1);\n1 -> rms(id=2);\n2 -> OUT;\n",
    ),
];

const CORPUS_DIR: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../fuzz/corpora/ir_totality"
);

/// Every pinned program, by name.
fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = GOLDEN
        .iter()
        .chain(DEFECTIVE.iter())
        .map(|(name, text)| (name.to_string(), text.parse().unwrap()))
        .collect();
    let golden: Vec<Program> = out[..GOLDEN.len()].iter().map(|(_, p)| p.clone()).collect();
    let fused = sidewinder_opt::fuse_programs(&golden);
    let (optimized, _) = sidewinder_opt::optimize(
        &fused,
        &ChannelRates::default(),
        &sidewinder_opt::OptOptions::aggressive(),
    );
    out.push(("fused_all_six".to_string(), fused));
    out.push(("fused_all_six_optimized".to_string(), optimized));

    let mut corpus: Vec<_> = std::fs::read_dir(CORPUS_DIR)
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "swir"))
        .collect();
    corpus.sort();
    for path in corpus {
        let text = std::fs::read_to_string(&path).expect("corpus file");
        let name = format!("corpus/{}", path.file_stem().unwrap().to_string_lossy());
        let program = text
            .parse()
            .unwrap_or_else(|e| panic!("{name}: committed corpus program no longer parses: {e}"));
        out.push((name, program));
    }
    out
}

/// FNV-1a over the little-endian words of every node's facts, in
/// statement order.
fn facts_digest(program: &Program, rates: &ChannelRates) -> u64 {
    let mut hash = Fnv1a::new();
    let mut word = |w: u64| hash.word(w);
    for c in PipelineCost::analyze(program, rates).nodes() {
        let f = &c.flow;
        word(u64::from(f.id.0));
        word(f.input_rate_hz.to_bits());
        word(f.out_rate_hz.to_bits());
        word(f.input_rates.len() as u64);
        for r in f.input_rates.iter() {
            word(r.to_bits());
        }
        word(f.out_len as u64);
        word(f.period_ticks.to_bits());
        word(f.base_rate_hz.to_bits());
        word(u64::from(f.channels_mask));
        word(c.flops_per_input.to_bits());
        word(c.memory_bytes as u64);
    }
    hash.finish()
}

/// Digests recorded from the cost walk and the abstract interpreter
/// before the one fact table replaced their propagation.
const PINNED: &[(&str, u64)] = &[
    ("headbutts", 0xc86f62f8e41fa28e),
    ("steps", 0x0ada959ba2e3bd7a),
    ("sirens", 0x87cd0570cec4f42e),
    ("transitions", 0x0358c31582e43c7a),
    ("music", 0xf7843e4cde0d99c3),
    ("phrase", 0xfefbdab6cb37be73),
    ("lint/dead_threshold", 0x99a3fe0e924d65a6),
    ("lint/siren_overflow", 0x757bfcf4d6be47cb),
    ("lint/wake_storm", 0x55103e290efcf892),
    ("undefined_source", 0xf5a19ec05fcbc0ec),
    ("fused_all_six", 0x4eb6cc681a132103),
    ("fused_all_six_optimized", 0x404e373b0e6166d6),
    ("corpus/headbutts", 0xc86f62f8e41fa28e),
    ("corpus/huge_moving_avg", 0x5581b7ec4c806c64),
    ("corpus/huge_window", 0x6bfb37bf4c787f65),
    ("corpus/magnitude_lowpass", 0x8ff0e8091e25484f),
    ("corpus/music", 0xf7843e4cde0d99c3),
    ("corpus/phrase", 0xfefbdab6cb37be73),
    ("corpus/sirens", 0x87cd0570cec4f42e),
    ("corpus/steps", 0x0ada959ba2e3bd7a),
    ("corpus/transitions", 0x0358c31582e43c7a),
];

#[test]
fn node_facts_match_their_pins() {
    let rates = ChannelRates::default();
    let fresh: Vec<(String, u64)> = programs()
        .into_iter()
        .map(|(name, program)| {
            let digest = facts_digest(&program, &rates);
            (name, digest)
        })
        .collect();
    let listing: String = fresh
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|(n, d)| (n.to_string(), *d)).collect();
    assert_eq!(pinned, fresh, "node facts drifted; fresh pins:\n{listing}");
}

#[test]
fn layout_lengths_and_image_rates_agree_with_the_fact_table() {
    let rates = ChannelRates::default();
    let mut checked = Vec::new();
    for (name, program) in programs() {
        let Ok(image) = compile_image(&program, &rates) else {
            continue;
        };
        let rows = flow::analyze(&program, &rates).into_rows();
        assert_eq!(image.node_count(), rows.len(), "{name}");
        for (i, (spec, row)) in image.nodes().iter().zip(&rows).enumerate() {
            assert_eq!(
                spec.rate_hz.to_bits(),
                row.base_rate_hz.to_bits(),
                "{name}: node {i} ({}) image rate",
                row.kind
            );
        }
        // An image `load` refuses has no layout to compare.
        let Ok(layout) = image_layout(&image) else {
            continue;
        };
        let layout_lens: Vec<usize> = layout.out_lens().collect();
        let fact_lens: Vec<usize> = rows.iter().map(|r| r.out_len).collect();
        assert_eq!(layout_lens, fact_lens, "{name}: output lengths");
        checked.push(name);
    }
    for (name, _) in GOLDEN {
        assert!(
            checked.iter().any(|c| c == name),
            "{name} was not cross-checked"
        );
    }
    assert!(checked.iter().any(|c| c == "fused_all_six_optimized"));
}
