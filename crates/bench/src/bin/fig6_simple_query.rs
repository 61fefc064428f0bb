//! Figure 6: memory footprint (a) and runtime (b) of the simple query
//! `SELECT SUM(Y) FROM R WHERE X = c` for three base-column cases and several
//! format configurations.
//!
//! The cases follow Section 5.1: case 1 = (X=C1, Y=C1), case 2 = (X=C1,
//! Y=C4), case 3 = (X=C2, Y=C3); the selection constant is the most frequent
//! value (90 % selectivity).
//!
//! Regenerate with:
//! `cargo run -p morph-bench --release --bin fig6_simple_query [--elements N] [--runs R]`

use std::time::{Duration, Instant};

use morph_bench::{fmt_mib, fmt_ms, print_header, print_row, verdict, HarnessArgs};
use morph_compression::Format;
use morph_storage::datagen::SyntheticColumn;
use morph_storage::Column;
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::{
    agg_sum, project, select, CmpOp, ExecSettings, ExecutionContext, IntegrationDegree,
};

/// One format configuration of the simple query: formats for the base
/// columns X and Y and the intermediates X' (positions) and Y' (projected
/// values).
struct Config {
    label: &'static str,
    base: Format,
    positions: Format,
    projected: Format,
    degree: IntegrationDegree,
}

/// Run the query once over the base columns `x_base` and `y_base`, already
/// in the configuration's base format: base compression is not query time.
fn run_simple_query(
    x_base: &Column,
    y_base: &Column,
    constant: u64,
    config: &Config,
) -> (u64, ExecutionContext, Duration) {
    let settings = ExecSettings {
        degree: config.degree,
        ..ExecSettings::default()
    };
    let mut ctx = ExecutionContext::new(settings.clone(), FormatConfig::uncompressed());
    ctx.record_base("X", x_base);
    ctx.record_base("Y", y_base);
    let start = Instant::now();
    let positions = ctx.time("select", || {
        select(CmpOp::Eq, x_base, constant, &config.positions, &settings)
    });
    ctx.record_intermediate("X'", &positions);
    let projected = ctx.time("project", || {
        project(y_base, &positions, &config.projected, &settings)
    });
    ctx.record_intermediate("Y'", &projected);
    let sum = ctx.time("sum", || agg_sum(&projected, &settings));
    let elapsed = start.elapsed();
    (sum, ctx, elapsed)
}

fn main() {
    let args = HarnessArgs::parse();
    println!(
        "# Figure 6: simple query SELECT SUM(Y) FROM R WHERE X = c ({} elements, {} runs)",
        args.elements, args.runs
    );
    let cases = [
        ("case1", SyntheticColumn::C1, SyntheticColumn::C1),
        ("case2", SyntheticColumn::C1, SyntheticColumn::C4),
        ("case3", SyntheticColumn::C2, SyntheticColumn::C3),
    ];
    let configs = [
        Config {
            label: "uncompressed",
            base: Format::Uncompressed,
            positions: Format::Uncompressed,
            projected: Format::Uncompressed,
            degree: IntegrationDegree::PurelyUncompressed,
        },
        Config {
            label: "static BP (base only)",
            base: Format::StaticBp(63),
            positions: Format::Uncompressed,
            projected: Format::Uncompressed,
            degree: IntegrationDegree::OnTheFlyDeRecompression,
        },
        Config {
            label: "static BP (base + intermediates)",
            base: Format::StaticBp(63),
            positions: Format::StaticBp(63),
            projected: Format::StaticBp(63),
            degree: IntegrationDegree::OnTheFlyDeRecompression,
        },
        Config {
            label: "DELTA+SIMD-BP X' / static BP rest",
            base: Format::StaticBp(63),
            positions: Format::DeltaDynBp,
            projected: Format::StaticBp(63),
            degree: IntegrationDegree::OnTheFlyDeRecompression,
        },
        Config {
            label: "DELTA+SIMD-BP X' / FOR+SIMD-BP Y'",
            base: Format::StaticBp(63),
            positions: Format::DeltaDynBp,
            projected: Format::ForDynBp,
            degree: IntegrationDegree::OnTheFlyDeRecompression,
        },
    ];
    print_header(&[
        "case",
        "config",
        "X_mib",
        "Y_mib",
        "Xprime_mib",
        "Yprime_mib",
        "total_mib",
        "runtime_ms",
        "sum",
    ]);
    // Summed over the cases: the uncompressed configuration, and per case
    // the best configuration that compresses base columns and
    // intermediates, as (footprint bytes, runtime seconds).
    let mut uncompressed = (0.0, 0.0);
    let mut compressed = (0.0, 0.0);
    for (case, x_col, y_col) in cases {
        let mut best = (f64::INFINITY, f64::INFINITY);
        let (x_values, constant) = x_col.generate_select_input(args.elements, args.seed);
        let y_values = y_col.generate(args.elements, args.seed + 1);
        let x = Column::from_slice(&x_values);
        let y = Column::from_slice(&y_values);
        let mut reference_sum = None;
        for config in &configs {
            // For the three cases the static width should fit the data, not
            // hard-code 63: derive per case.
            let max = x_values
                .iter()
                .chain(y_values.iter())
                .copied()
                .max()
                .unwrap_or(0);
            let fitted = Config {
                label: config.label,
                base: match config.base {
                    Format::StaticBp(_) => Format::static_bp_for_max(max),
                    other => other,
                },
                positions: match config.positions {
                    Format::StaticBp(_) => Format::static_bp_for_max(args.elements as u64),
                    other => other,
                },
                projected: match config.projected {
                    Format::StaticBp(_) => Format::static_bp_for_max(max),
                    other => other,
                },
                degree: config.degree,
            };
            let x_base = x.to_format(&fitted.base);
            let y_base = y.to_format(&fitted.base);
            let mut total_runtime = Duration::ZERO;
            let mut outcome = None;
            for _ in 0..args.runs.max(1) {
                let (sum, ctx, elapsed) = run_simple_query(&x_base, &y_base, constant, &fitted);
                total_runtime += elapsed;
                outcome = Some((sum, ctx));
            }
            let (sum, ctx) = outcome.expect("at least one run");
            match reference_sum {
                None => reference_sum = Some(sum),
                Some(reference) => assert_eq!(sum, reference, "result changed with the format"),
            }
            let size_of = |name: &str| {
                ctx.records()
                    .iter()
                    .find(|r| r.name == name)
                    .map(|r| r.bytes)
                    .unwrap_or(0)
            };
            let mean = total_runtime / args.runs.max(1) as u32;
            let measured = (ctx.total_footprint_bytes() as f64, mean.as_secs_f64());
            if !fitted.base.is_compressed() {
                uncompressed.0 += measured.0;
                uncompressed.1 += measured.1;
            } else if fitted.positions.is_compressed() && fitted.projected.is_compressed() {
                best = (best.0.min(measured.0), best.1.min(measured.1));
            }
            print_row(&[
                case.to_string(),
                fitted.label.to_string(),
                fmt_mib(size_of("X")),
                fmt_mib(size_of("Y")),
                fmt_mib(size_of("X'")),
                fmt_mib(size_of("Y'")),
                fmt_mib(ctx.total_footprint_bytes()),
                fmt_ms(mean),
                sum.to_string(),
            ]);
        }
        compressed.0 += best.0;
        compressed.1 += best.1;
        println!();
    }
    let claim = "compressing base columns and intermediates shrinks the";
    println!(
        "{}",
        verdict(&format!("{claim} footprint"), compressed.0, uncompressed.0)
    );
    println!(
        "{}",
        verdict(&format!("{claim} runtime"), compressed.1, uncompressed.1)
    );
    println!("         (best such configuration per case vs. uncompressed, summed over the cases)");
}
