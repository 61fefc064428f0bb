//! Figure 5: runtime of the select operator for all 25 input×output format
//! combinations on the synthetic columns C1–C4 (point predicate, 90 %
//! selectivity).
//!
//! Regenerate with:
//! `cargo run -p morph-bench --release --bin fig5_select_formats [--elements N] [--runs R]`

use std::time::{Duration, Instant};

use morph_bench::{fmt_ms, print_header, print_row, HarnessArgs};
use morph_compression::Format;
use morph_storage::datagen::SyntheticColumn;
use morph_storage::Column;
use morphstore_engine::{select, CmpOp, ExecSettings, IntegrationDegree, ProcessingStyle};

fn main() {
    let args = HarnessArgs::parse();
    println!(
        "# Figure 5: select-operator runtime, all format combinations ({} elements, {} runs)",
        args.elements, args.runs
    );
    print_header(&[
        "column",
        "input_format",
        "output_format",
        "runtime_ms",
        "selected",
    ]);
    for column in SyntheticColumn::all() {
        let (values, constant) = column.generate_select_input(args.elements, args.seed);
        let max = values.iter().copied().max().unwrap_or(0);
        // The input holds values; the output holds positions, whose static
        // BP width is fixed by the position domain `0..elements`.
        let input_formats = Format::paper_formats(max);
        let output_formats = Format::paper_formats(args.elements.saturating_sub(1) as u64);
        let uncompressed = Column::from_slice(&values);
        let mut fastest: Option<(Duration, String)> = None;
        let mut baseline = Duration::ZERO;
        for input_format in &input_formats {
            let input = uncompressed.to_format(input_format);
            for output_format in &output_formats {
                let settings = ExecSettings {
                    style: ProcessingStyle::Vectorized,
                    degree: if input_format.is_compressed() || output_format.is_compressed() {
                        IntegrationDegree::OnTheFlyDeRecompression
                    } else {
                        IntegrationDegree::PurelyUncompressed
                    },
                    ..ExecSettings::default()
                };
                let mut total = Duration::ZERO;
                let mut selected = 0usize;
                for _ in 0..args.runs.max(1) {
                    let start = Instant::now();
                    let out = select(CmpOp::Eq, &input, constant, output_format, &settings);
                    total += start.elapsed();
                    selected = out.logical_len();
                }
                let mean = total / args.runs.max(1) as u32;
                if !input_format.is_compressed() && !output_format.is_compressed() {
                    baseline = mean;
                }
                let label = format!("{input_format} -> {output_format}");
                if fastest.as_ref().map(|(d, _)| mean < *d).unwrap_or(true) {
                    fastest = Some((mean, label));
                }
                print_row(&[
                    column.label().to_string(),
                    input_format.to_string(),
                    output_format.to_string(),
                    fmt_ms(mean),
                    selected.to_string(),
                ]);
            }
        }
        let (best_time, best_label) = fastest.expect("at least one combination");
        println!(
            "summary,{},best = {} at {} ms,uncompressed baseline = {} ms,saving = {:.0}%",
            column.label(),
            best_label,
            fmt_ms(best_time),
            fmt_ms(baseline),
            (1.0 - best_time.as_secs_f64() / baseline.as_secs_f64().max(1e-12)) * 100.0
        );
    }
}
