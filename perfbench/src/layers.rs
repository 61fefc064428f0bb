//! Per-layer measurements of the traced run.  Every number here is taken
//! from outside the engine: by timing calls into a layer's public functions
//! on the workload's own columns, or by reading the spans the engine's
//! existing `QueryTracer` records.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use morph_compression::bitpack::bit_width_of;
use morph_compression::Format;
use morph_ssb::{dict, SsbData};
use morph_storage::Column;
use morph_telemetry::PlanTrace;
use morph_vector::emu::V512;
use morph_vector::kernels::{self, BinaryOp};
use morph_vector::VecCmp;
use morphstore_engine::plan::QueryPlan;
use morphstore_engine::{self as engine, CmpOp, ExecSettings};

use crate::report::{median, Metrics};
use crate::spans::Spans;

/// The operators whose share of plan time and per-row cost are reported.
pub const CORE_OPS: [&str; 12] = [
    "select",
    "select_between",
    "project",
    "semi_join",
    "join",
    "calc_binary",
    "agg_sum",
    "agg_sum_grouped",
    "group_by",
    "group_by_refine",
    "intersect_sorted",
    "morph",
];

/// Plan time per operator, summed over traced executions.
#[derive(Debug, Default)]
pub struct OpTimes {
    by_op: HashMap<&'static str, Duration>,
    total: Duration,
    classified: HashMap<u128, Vec<Option<&'static str>>>,
}

impl OpTimes {
    /// Add the node spans of one traced execution of `plan`.
    pub fn add_trace(&mut self, plan: &QueryPlan, trace: &PlanTrace) {
        let ops = self
            .classified
            .entry(trace.topology().fingerprint)
            .or_insert_with(|| classify(plan));
        for (index, op) in ops.iter().enumerate().take(trace.node_count()) {
            let span = trace.node(index);
            if !span.is_recorded() {
                continue;
            }
            self.total += span.elapsed();
            if let Some(op) = op {
                *self.by_op.entry(op).or_default() += span.elapsed();
            }
        }
    }

    /// Share of the traced plan time spent in `op`.
    pub fn share(&self, op: &str) -> f64 {
        let spent = self.by_op.get(op).copied().unwrap_or_default();
        spent.as_secs_f64() / self.total.as_secs_f64()
    }
}

/// The operator of every plan node, by node index.  The trace names nodes
/// by a coarse mnemonic; the plan's description and dependency lists tell
/// the finer operator apart (a range selection, a refining group-by, a
/// grouped sum).
fn classify(plan: &QueryPlan) -> Vec<Option<&'static str>> {
    let description = plan.describe(&engine::exec::FormatConfig::default());
    let deps = plan.dependencies();
    let mut ops = vec![None; plan.node_count()];
    for line in description.lines() {
        let Some(rest) = line.trim_start().strip_prefix('[') else {
            continue;
        };
        let Some((index, rest)) = rest.split_once(']') else {
            continue;
        };
        let Ok(index) = index.trim().parse::<usize>() else {
            continue;
        };
        let inputs = deps.get(index).map_or(0, Vec::len);
        let op = match rest.split_whitespace().next() {
            Some("select") if rest.contains(" between ") => Some("select_between"),
            Some("select") => Some("select"),
            Some("project") => Some("project"),
            Some("semijoin") => Some("semi_join"),
            Some("join") => Some("join"),
            Some("calc") => Some("calc_binary"),
            Some("agg") if inputs > 1 => Some("agg_sum_grouped"),
            Some("agg") => Some("agg_sum"),
            Some("group") if inputs > 1 => Some("group_by_refine"),
            Some("group") => Some("group_by"),
            Some("intersect") => Some("intersect_sorted"),
            Some("merge") => Some("merge_sorted"),
            Some("morph") => Some("morph"),
            _ => None,
        };
        if let Some(slot) = ops.get_mut(index) {
            *slot = op;
        }
    }
    ops
}

/// Median wall time of one call of `f`, over at least three calls and at
/// most as many as fit in about 150 ms.
fn time_call<R>(mut f: impl FnMut() -> R) -> Duration {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3
        || (samples.len() < 25 && started.elapsed() < Duration::from_millis(150))
    {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_secs_f64());
    }
    Duration::from_secs_f64(median(&samples))
}

fn ns_per(d: Duration, units: usize) -> f64 {
    d.as_nanos() as f64 / units.max(1) as f64
}

/// The formats a workload's columns are stored and produced in.
#[derive(Debug, Clone, Copy)]
pub struct Formats {
    /// Format of position-list intermediates.
    pub positions: Format,
    /// Format of value intermediates.
    pub values: Format,
}

impl Formats {
    pub fn new(compressed_intermediates: bool) -> Formats {
        if compressed_intermediates {
            Formats {
                positions: Format::DeltaDynBp,
                values: Format::DynBp,
            }
        } else {
            Formats {
                positions: Format::Uncompressed,
                values: Format::Uncompressed,
            }
        }
    }
}

/// Lineorder columns the codec, kernel and operator passes run on.
const CODEC_COLUMNS: [&str; 9] = [
    "lo_orderdate",
    "lo_custkey",
    "lo_suppkey",
    "lo_partkey",
    "lo_quantity",
    "lo_extendedprice",
    "lo_discount",
    "lo_revenue",
    "lo_supplycost",
];

/// Values per input for the codec pass: a prefix of each column, so one
/// pass stays well under a second at every scale.
const CODEC_PREFIX: usize = 1 << 20;

/// Time the public codec, kernel, morph and operator functions on the
/// workload's own columns (`data` as stored), in its formats and settings.
pub fn probe(
    data: &SsbData,
    settings: &ExecSettings,
    formats: Formats,
    metrics: &mut Metrics,
    spans: &mut Spans,
) {
    let positions = spans.time("core.operators", 0, || {
        operators(data, settings, formats, metrics)
    });
    spans.time("compression.codecs", 0, || {
        codecs(data, &positions, metrics)
    });
    spans.time("vector.kernels", 0, || vector(data, &positions, metrics));
    spans.time("storage.morph", 0, || storage(data, metrics));
}

/// The operator pass: a Q1.1-like pipeline plus a semi-join, an N:1 join
/// and a two-key grouped sum.  Returns the qualifying positions, decoded,
/// as the position list the codec and kernel passes also use.
fn operators(
    data: &SsbData,
    settings: &ExecSettings,
    formats: Formats,
    metrics: &mut Metrics,
) -> Vec<u64> {
    let (pos, val) = (&formats.positions, &formats.values);
    let column = |name: &str| data.column(name);
    let rows = column("lo_quantity").logical_len();
    let mut record = |op: &str, d: Duration, rows: usize| {
        metrics.set(format!("core.{op}.ns_per_row"), ns_per(d, rows), "ns/row");
    };

    let by_quantity = engine::select(CmpOp::Lt, column("lo_quantity"), 25, pos, settings);
    record(
        "select",
        time_call(|| engine::select(CmpOp::Lt, column("lo_quantity"), 25, pos, settings)),
        rows,
    );
    let by_discount = engine::select_between(column("lo_discount"), 1, 3, pos, settings);
    record(
        "select_between",
        time_call(|| engine::select_between(column("lo_discount"), 1, 3, pos, settings)),
        rows,
    );
    let both = engine::intersect_sorted(&by_quantity, &by_discount, pos, settings);
    record(
        "intersect_sorted",
        time_call(|| engine::intersect_sorted(&by_quantity, &by_discount, pos, settings)),
        by_quantity.logical_len() + by_discount.logical_len(),
    );
    let hits = both.logical_len();
    let price = engine::project(column("lo_extendedprice"), &both, val, settings);
    record(
        "project",
        time_call(|| engine::project(column("lo_extendedprice"), &both, val, settings)),
        hits,
    );
    let discount = engine::project(column("lo_discount"), &both, val, settings);
    let product = engine::calc_binary(BinaryOp::Mul, &price, &discount, val, settings);
    record(
        "calc_binary",
        time_call(|| engine::calc_binary(BinaryOp::Mul, &price, &discount, val, settings)),
        hits,
    );
    record(
        "agg_sum",
        time_call(|| engine::agg_sum(&product, settings)),
        hits,
    );

    let suppliers = engine::select(
        CmpOp::Eq,
        column("s_region"),
        dict::REGION_AMERICA,
        pos,
        settings,
    );
    let supplier_keys = engine::project(column("s_suppkey"), &suppliers, val, settings);
    record(
        "semi_join",
        time_call(|| engine::semi_join(column("lo_suppkey"), &supplier_keys, pos, settings)),
        rows,
    );
    let supplier_at_hit = engine::project(column("lo_suppkey"), &both, val, settings);
    record(
        "join",
        time_call(|| {
            engine::join(
                &supplier_at_hit,
                column("s_suppkey"),
                (&Format::DeltaDynBp, pos),
                settings,
            )
        }),
        hits,
    );

    let quantity = engine::project(column("lo_quantity"), &both, val, settings);
    let groups = engine::group_by(&quantity, (val, pos), settings);
    record(
        "group_by",
        time_call(|| engine::group_by(&quantity, (val, pos), settings)),
        hits,
    );
    let refined = engine::group_by_refine(&groups, &discount, (val, pos), settings);
    record(
        "group_by_refine",
        time_call(|| engine::group_by_refine(&groups, &discount, (val, pos), settings)),
        hits,
    );
    record(
        "agg_sum_grouped",
        time_call(|| {
            engine::agg_sum_grouped(
                &refined.group_ids,
                &price,
                refined.group_count,
                &Format::Uncompressed,
                settings,
            )
        }),
        hits,
    );
    let other = if *pos == Format::Uncompressed {
        Format::DeltaDynBp
    } else {
        Format::Uncompressed
    };
    record("morph", time_call(|| engine::morph(&both, &other)), hits);
    both.decompress()
}

/// The codec pass: encode and decode speed and size of every format on the
/// workload's lineorder columns and its position list.  Static BP gets the
/// width of each input's own maximum.
fn codecs(data: &SsbData, positions: &[u64], metrics: &mut Metrics) {
    let mut inputs: Vec<Vec<u64>> = CODEC_COLUMNS
        .iter()
        .map(|name| {
            let mut values = data.column(name).decompress();
            values.truncate(CODEC_PREFIX);
            values
        })
        .collect();
    inputs.push(positions[..positions.len().min(CODEC_PREFIX)].to_vec());
    let values: usize = inputs.iter().map(Vec::len).sum();
    type FormatFor = fn(u64) -> Format;
    let codecs: [(&str, FormatFor); 7] = [
        ("uncompr", |_| Format::Uncompressed),
        ("static_bp", |max| Format::StaticBp(bit_width_of(max))),
        ("dyn_bp", |_| Format::DynBp),
        ("delta_dyn_bp", |_| Format::DeltaDynBp),
        ("for_dyn_bp", |_| Format::ForDynBp),
        ("rle", |_| Format::Rle),
        ("dict", |_| Format::Dict),
    ];
    for (name, format_for) in codecs {
        let formats: Vec<Format> = inputs
            .iter()
            .map(|v| format_for(v.iter().copied().max().unwrap_or(0)))
            .collect();
        let encode = time_call(|| {
            inputs
                .iter()
                .zip(&formats)
                .map(|(v, f)| Column::compress(v, f).size_used_bytes())
                .sum::<usize>()
        });
        let columns: Vec<Column> = inputs
            .iter()
            .zip(&formats)
            .map(|(v, f)| Column::compress(v, f))
            .collect();
        let decode = time_call(|| columns.iter().map(|c| c.decompress().len()).sum::<usize>());
        let bytes: usize = columns.iter().map(Column::size_used_bytes).sum();
        let prefix = format!("compression.{name}");
        metrics.set(
            format!("{prefix}.encode_ns_per_value"),
            ns_per(encode, values),
            "ns/value",
        );
        metrics.set(
            format!("{prefix}.decode_ns_per_value"),
            ns_per(decode, values),
            "ns/value",
        );
        metrics.set(
            format!("{prefix}.bits_per_value"),
            bytes as f64 * 8.0 / values as f64,
            "bit/value",
        );
    }
}

/// The kernel pass on the detected native extension (the vectorized style's
/// 8-lane registers, which dispatch to AVX2 where the host has it).
fn vector(data: &SsbData, positions: &[u64], metrics: &mut Metrics) {
    let quantity = data.column("lo_quantity").decompress();
    let price = data.column("lo_extendedprice").decompress();
    let discount = data.column("lo_discount").decompress();
    let orderdate = data.column("lo_orderdate").decompress();
    let mut out = Vec::with_capacity(quantity.len());
    let mut record = |kernel: &str, d: Duration, values: usize| {
        metrics.set(
            format!("vector.{kernel}.ns_per_value"),
            ns_per(d, values),
            "ns/value",
        );
    };
    record(
        "filter_positions",
        time_call(|| {
            out.clear();
            kernels::filter_positions::<V512>(VecCmp::Lt, &quantity, 25, 0, &mut out);
        }),
        quantity.len(),
    );
    record(
        "binary_op",
        time_call(|| {
            out.clear();
            kernels::binary_op::<V512>(BinaryOp::Mul, &price, &discount, &mut out);
        }),
        price.len(),
    );
    record(
        "sum",
        time_call(|| kernels::sum::<V512>(&price)),
        price.len(),
    );
    let mut deltas = Vec::new();
    kernels::delta_encode::<V512>(positions, 0, &mut deltas);
    record(
        "delta_decode",
        time_call(|| {
            out.clear();
            kernels::delta_decode::<V512>(&deltas, 0, &mut out)
        }),
        deltas.len(),
    );
    let reference = orderdate.iter().copied().min().unwrap_or(0);
    let mut offsets = Vec::new();
    kernels::for_encode::<V512>(&orderdate, reference, &mut offsets);
    record(
        "for_decode",
        time_call(|| {
            out.clear();
            kernels::for_decode::<V512>(&offsets, reference, &mut out);
        }),
        offsets.len(),
    );
}

/// The morph pass: `Column::to_format` from uncompressed lineorder columns
/// into the format the runtime-objective cost model picks for each (the
/// workload's base formats when it compresses) and back.
fn storage(data: &SsbData, metrics: &mut Metrics) {
    let mut total = Duration::ZERO;
    let mut values = 0;
    for name in CODEC_COLUMNS {
        let stored = data.column(name);
        let plain = stored.to_format(&Format::Uncompressed);
        let target = morph_cost::strategy::cost_based_format(
            stored.stats(),
            morph_cost::SelectionObjective::Runtime,
        );
        let packed = plain.to_format(&target);
        total += time_call(|| plain.to_format(&target));
        total += time_call(|| packed.to_format(&Format::Uncompressed));
        values += 2 * plain.logical_len();
    }
    metrics.set(
        "storage.morph_ns_per_value",
        ns_per(total, values),
        "ns/value",
    );
}
