//! Figure 1: average runtime of all 13 SSB queries for the four headline
//! configurations (MonetDB-like scalar baseline, MorphStore scalar 64-bit,
//! MorphStore vectorized 64-bit, MorphStore vectorized compressed).
//!
//! Regenerate with:
//! `cargo run -p morph-bench --release --bin fig1_headline [--scale-factor F] [--runs R]`

use std::time::Duration;

use morph_bench::{
    apply_to_base, fmt_ms, measure_query, print_header, print_row, runtime_cost_based_config,
    verdict, HarnessArgs,
};
use morph_ssb::{dbgen, SsbQuery};
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::ExecSettings;

fn main() {
    let args = HarnessArgs::parse();
    let data = dbgen::generate(args.scale_factor, args.seed);
    println!(
        "# Figure 1: average SSB query runtime, four configurations (scale factor {}, {} runs)",
        args.scale_factor, args.runs
    );
    let mut totals = [Duration::ZERO; 4];
    for query in SsbQuery::all() {
        let best = runtime_cost_based_config(query, &data);
        let compressed_base = apply_to_base(&data, &best);
        let configurations = [
            (
                &data,
                ExecSettings::scalar_uncompressed(),
                FormatConfig::uncompressed(),
            ),
            (
                &data,
                ExecSettings::scalar_uncompressed(),
                FormatConfig::uncompressed(),
            ),
            (
                &data,
                ExecSettings::vectorized_uncompressed(),
                FormatConfig::uncompressed(),
            ),
            (
                &compressed_base,
                ExecSettings::vectorized_compressed(),
                best.clone(),
            ),
        ];
        for (i, (base, settings, config)) in configurations.into_iter().enumerate() {
            totals[i] += measure_query(query, base, settings, &config, args.runs).runtime;
        }
    }
    let labels = [
        "MonetDB-like scalar, 64-bit",
        "MorphStore scalar, 64-bit",
        "MorphStore vectorized, 64-bit",
        "MorphStore vectorized, compressed",
    ];
    print_header(&["configuration", "avg_runtime_ms", "relative_to_scalar"]);
    let [_, scalar, vectorized, compressed] = totals.map(|total| total.as_secs_f64());
    for (label, total) in labels.iter().zip(totals.iter()) {
        print_row(&[
            label.to_string(),
            fmt_ms(*total / 13),
            format!("{:.3}", total.as_secs_f64() / scalar),
        ]);
    }
    println!();
    println!(
        "{}",
        verdict(
            "vectorization reduces the runtime vs. scalar",
            vectorized,
            scalar
        )
    );
    println!(
        "{}",
        verdict(
            "continuous compression reduces it further vs. vectorized",
            compressed,
            vectorized
        )
    );
    println!("         (the paper reports reductions of ~19% and ~54%)");
}
