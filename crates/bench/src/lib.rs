//! Shared harness code for the benchmark binaries that regenerate the tables
//! and figures of the MorphStore paper.
//!
//! Every binary accepts the same command-line arguments:
//!
//! * `--scale-factor <f>` — SSB scale factor (default 0.05; the paper uses 10),
//! * `--elements <n>` — element count for the micro-benchmarks (default 2 Mi;
//!   the paper uses 128 Mi),
//! * `--runs <n>` — repetitions per measurement, the mean is reported
//!   (default 3; the paper uses 10),
//! * `--seed <n>` — RNG seed (default 42),
//! * `--greedy` — enable the greedy measured runtime search where applicable
//!   (expensive; off by default).
//!
//! Output is CSV-like (comma-separated rows with a header) followed by a
//! short human-readable summary, so results can be recorded in
//! EXPERIMENTS.md or piped into a plotting tool.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use morph_compression::Format;
use morph_cost::FormatSelectionStrategy;
use morph_ssb::{QueryResult, SsbData, SsbQuery};
use morph_storage::Column;
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::{ExecSettings, ExecutionContext};

/// Command-line arguments shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// SSB scale factor.
    pub scale_factor: f64,
    /// Number of data elements for micro-benchmarks.
    pub elements: usize,
    /// Number of repetitions per measurement.
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Whether to run the greedy measured runtime search (Figure 7).
    pub greedy: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale_factor: 0.05,
            elements: 2 * 1024 * 1024,
            runs: 3,
            seed: 42,
            greedy: false,
        }
    }
}

impl HarnessArgs {
    /// Parse the arguments of the current process (unknown arguments are
    /// ignored so the binaries can also run under `cargo bench`-style
    /// wrappers).
    pub fn parse() -> HarnessArgs {
        let mut args = HarnessArgs::default();
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale-factor" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        args.scale_factor = v;
                    }
                }
                "--elements" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        args.elements = v;
                    }
                }
                "--runs" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        args.runs = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        args.seed = v;
                    }
                }
                "--greedy" => args.greedy = true,
                _ => {}
            }
        }
        args
    }
}

/// One measurement of an SSB query under a particular configuration.
#[derive(Debug, Clone)]
pub struct QueryMeasurement {
    /// Mean wall-clock runtime over the requested runs.
    pub runtime: Duration,
    /// Total footprint of base columns and intermediates (bytes).
    pub footprint_bytes: usize,
    /// Footprint of the base columns only (bytes).
    pub base_bytes: usize,
    /// Footprint of the intermediates only (bytes).
    pub intermediate_bytes: usize,
    /// The query result (for sanity checks between configurations).
    pub result: QueryResult,
}

/// Execute `query` once and return the result together with the execution
/// context (footprints, timings, optionally captured intermediates).
pub fn run_query_once(
    query: SsbQuery,
    data: &SsbData,
    settings: ExecSettings,
    formats: &FormatConfig,
    capture: bool,
) -> (QueryResult, ExecutionContext) {
    let mut ctx = ExecutionContext::new(settings, formats.clone());
    if capture {
        ctx.enable_capture();
    }
    let result = query.execute(data, &mut ctx);
    (result, ctx)
}

/// Measure `query` under the given configuration: `runs` repetitions, mean
/// runtime, footprints from the last repetition.
pub fn measure_query(
    query: SsbQuery,
    data: &SsbData,
    settings: ExecSettings,
    formats: &FormatConfig,
    runs: usize,
) -> QueryMeasurement {
    let mut total = Duration::ZERO;
    let mut last: Option<(QueryResult, ExecutionContext)> = None;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        let outcome = run_query_once(query, data, settings.clone(), formats, false);
        total += start.elapsed();
        last = Some(outcome);
    }
    let (result, ctx) = last.expect("at least one run");
    QueryMeasurement {
        runtime: total / runs.max(1) as u32,
        footprint_bytes: ctx.total_footprint_bytes(),
        base_bytes: ctx.base_footprint_bytes(),
        intermediate_bytes: ctx.intermediate_footprint_bytes(),
        result,
    }
}

/// Gather all columns a strategy may assign a format to, enumerated from the
/// query plan's edges: the base columns the plan scans (data from the
/// database) plus every intermediate edge (data from one captured reference
/// execution, run uncompressed, which is format-neutral).
pub fn assignable_columns(query: SsbQuery, data: &SsbData) -> HashMap<String, Column> {
    let (_, ctx) = run_query_once(
        query,
        data,
        ExecSettings::vectorized_uncompressed(),
        &FormatConfig::uncompressed(),
        true,
    );
    let mut columns = HashMap::new();
    for edge in query.plan().edges() {
        let column = if edge.is_base {
            Some(data.column(&edge.name))
        } else {
            ctx.captured_columns().get(&edge.name)
        };
        if let Some(column) = column {
            columns.insert(edge.name, column.clone());
        }
    }
    columns
}

/// Build the format configuration a selection strategy chooses for `query`,
/// scoped to the edges of the query's plan.
pub fn strategy_config(
    query: SsbQuery,
    data: &SsbData,
    strategy: FormatSelectionStrategy,
) -> FormatConfig {
    strategy.build_config_for_plan(&query.plan(), &assignable_columns(query, data))
}

/// Joint fusion- and morsel-aware decision for `query` (see
/// [`morph_cost::PlanTuning`]): the strategy's format choice with every
/// fused-interior edge re-priced for decode-stream speed (interiors are
/// never retained, so footprint is the wrong objective there), plus a
/// host-aware morsel threshold for the plan's fan-out-eligible regions.
pub fn strategy_tuning(
    query: SsbQuery,
    data: &SsbData,
    strategy: FormatSelectionStrategy,
) -> morph_cost::PlanTuning {
    strategy.build_tuning_for_plan(&query.plan(), &assignable_columns(query, data))
}

/// Memoised variant of [`strategy_config`]: the decision is replayed from
/// the plan-level `cache` when the same plan shape with the same column
/// statistics was decided before (see `morph_cost::cached_config_for_plan`).
pub fn strategy_config_cached(
    query: SsbQuery,
    data: &SsbData,
    strategy: FormatSelectionStrategy,
    cache: &morph_cache::QueryCache,
) -> FormatConfig {
    morph_cost::cached_config_for_plan(
        cache,
        strategy,
        &query.plan(),
        &assignable_columns(query, data),
    )
}

/// Cost-based per-column format selection with the *runtime* objective —
/// the configuration used for the "continuous compression" series of the
/// headline comparison (Figures 1 and 9), where the paper optimises for
/// query runtime rather than for the smallest footprint.
pub fn runtime_cost_based_config(query: SsbQuery, data: &SsbData) -> FormatConfig {
    let stats = assignable_columns(query, data)
        .into_iter()
        .map(|(name, column)| (name, morph_storage::ColumnStats::from_column(&column)))
        .collect();
    morph_cost::cost_based_config(&stats, morph_cost::SelectionObjective::Runtime)
}

/// Apply a configuration to the base columns of the database (the
/// intermediates are controlled by passing the same configuration to the
/// execution context).
pub fn apply_to_base(data: &SsbData, config: &FormatConfig) -> SsbData {
    data.with_formats(config)
}

/// Restrict a configuration to base columns only (intermediates fall back to
/// uncompressed) — used by the Figure 8 experiment.  The base columns come
/// from the query plan's scan edges.
pub fn base_only_config(query: SsbQuery, config: &FormatConfig) -> FormatConfig {
    let mut restricted = FormatConfig::with_default(Format::Uncompressed);
    for name in query.base_columns() {
        restricted.insert(&name, config.format_for(&name, Format::Uncompressed));
    }
    restricted
}

/// Pretty-print a duration in milliseconds with three decimals.
pub fn fmt_ms(duration: Duration) -> String {
    format!("{:.3}", duration.as_secs_f64() * 1e3)
}

/// Pretty-print a byte count in MiB with three decimals.
pub fn fmt_mib(bytes: usize) -> String {
    format!("{:.3}", bytes as f64 / (1024.0 * 1024.0))
}

/// One intra-operator (morsel) sweep point of a query: the parallel wall
/// clocks measured with `morsel_threshold = Some(threshold)`, aligned with
/// the swept thread counts.
#[derive(Debug, Clone)]
pub struct MorselSweep {
    /// The `ExecSettings::morsel_threshold` value of this sweep point.
    pub threshold: usize,
    /// Parallel wall clock per swept thread count.
    pub parallel: Vec<Duration>,
}

/// One SSB query's cold-vs-warm plan-cache measurement: the first
/// (populating) run against a shared `QueryCache`, the best warm repeat,
/// and the warm phase's observed hit rate.
#[derive(Debug, Clone)]
pub struct CacheRow {
    /// Query label ("1.1" … "4.3").
    pub query: String,
    /// Wall clock of the first cached run (inserts subplan results).
    pub cold: Duration,
    /// Best wall clock of the warm repeats (served from the cache).
    pub warm: Duration,
    /// Cache hit rate over the warm repeats' lookups (0.0–1.0).
    pub hit_rate: f64,
}

impl CacheRow {
    /// Cold runtime over warm runtime (the repeated-traffic speedup).
    pub fn warm_speedup(&self) -> f64 {
        let warm = self.warm.as_secs_f64();
        if warm > 0.0 {
            self.cold.as_secs_f64() / warm
        } else {
            0.0
        }
    }
}

/// One SSB query's wall-clock measurements for the machine-readable bench
/// report: serial runtime, one parallel runtime per swept thread count
/// (morsels off), and one sweep row per morsel threshold.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Query label ("1.1" … "4.3").
    pub query: String,
    /// Serial (`SsbQuery::execute`) wall clock.
    pub serial: Duration,
    /// Parallel (`SsbQuery::execute_parallel`) wall clock with morsels off,
    /// aligned with the swept thread counts.
    pub parallel: Vec<Duration>,
    /// Intra-operator sweep points (may be empty when only inter-operator
    /// parallelism was measured).
    pub morsel: Vec<MorselSweep>,
}

fn ns_list(durations: &[Duration]) -> String {
    durations
        .iter()
        .map(|d| d.as_nanos().to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// The transient-buffer measurement of one `parallel_speedup` run: the
/// high-water mark of the pairwise carry buffers over the whole workload
/// (serial + parallel + morsel + cache sweeps of all 13 queries) and the
/// bound it must stay under.
///
/// Before the streaming pairwise reader, the pairwise operators
/// decompressed one input per pairing — O(column) transient bytes; the
/// carry buffers are O(chunk), and this record is the committed evidence.
#[derive(Debug, Clone, Copy)]
pub struct PairwisePeak {
    /// Peak carry-buffer bytes observed (`morphstore_engine::transient`).
    pub peak_bytes: usize,
    /// The one-chunk bound the peak must not exceed.
    pub bound_bytes: usize,
}

impl PairwisePeak {
    /// Capture the current peak from the engine's counter.
    pub fn capture() -> PairwisePeak {
        PairwisePeak {
            peak_bytes: morphstore_engine::transient::peak_bytes(),
            bound_bytes: morphstore_engine::transient::CARRY_BOUND_BYTES,
        }
    }

    /// Whether the recorded peak honours the O(chunk) bound.
    pub fn holds(&self) -> bool {
        self.peak_bytes <= self.bound_bytes
    }
}

/// Serialise per-query serial/parallel wall-clock measurements as the
/// `BENCH_ssb.json` document (hand-rolled: the environment has no serde).
///
/// Schema: `{benchmark, scale_factor, seed, runs, host_cores,
/// threads: [..], morsel_thresholds: [..], pairwise_peak_transient_bytes,
/// pairwise_transient_bound_bytes, queries: [{query, serial_ns,
/// parallel_ns: [..], morsel_parallel_ns: [[..], ..], best_speedup}],
/// cache: [{query, cold_ns, warm_ns, warm_speedup, hit_rate}]}` with
/// durations in integer nanoseconds, so CI tooling can diff runs without
/// parsing the human-readable CSV.  `host_cores` records the measuring
/// host's `available_parallelism` (speedups ≈ 1.0 on a single-core runner
/// are expected, not regressions).  `morsel_parallel_ns` holds one inner
/// list per entry of `morsel_thresholds`, each aligned with `threads`;
/// `best_speedup` is the serial runtime over the fastest parallel run of
/// any configuration; `cache` holds the cold-vs-warm repeated-run workload
/// against a shared plan cache (empty when the workload was not measured);
/// the `pairwise_*` pair records the peak transient carry bytes of the
/// position-wise binary operators against their one-chunk bound.
pub fn ssb_speedup_json(
    args: &HarnessArgs,
    threads: &[usize],
    rows: &[SpeedupRow],
    cache_rows: &[CacheRow],
    pairwise: PairwisePeak,
) -> String {
    let threads_json: Vec<String> = threads.iter().map(|t| t.to_string()).collect();
    let thresholds: Vec<usize> = rows
        .first()
        .map(|row| row.morsel.iter().map(|m| m.threshold).collect())
        .unwrap_or_default();
    let thresholds_json: Vec<String> = thresholds.iter().map(|t| t.to_string()).collect();
    let queries: Vec<String> = rows
        .iter()
        .map(|row| {
            let morsel_ns: Vec<String> = row
                .morsel
                .iter()
                .map(|sweep| format!("[{}]", ns_list(&sweep.parallel)))
                .collect();
            let best = row
                .parallel
                .iter()
                .chain(row.morsel.iter().flat_map(|sweep| sweep.parallel.iter()))
                .map(|d| d.as_secs_f64())
                .fold(f64::INFINITY, f64::min);
            let best_speedup = if best > 0.0 && best.is_finite() {
                row.serial.as_secs_f64() / best
            } else {
                0.0
            };
            format!(
                "    {{\"query\": \"{}\", \"serial_ns\": {}, \"parallel_ns\": [{}], \
                 \"morsel_parallel_ns\": [{}], \"best_speedup\": {:.4}}}",
                row.query,
                row.serial.as_nanos(),
                ns_list(&row.parallel),
                morsel_ns.join(", "),
                best_speedup
            )
        })
        .collect();
    let cache: Vec<String> = cache_rows
        .iter()
        .map(|row| {
            format!(
                "    {{\"query\": \"{}\", \"cold_ns\": {}, \"warm_ns\": {}, \
                 \"warm_speedup\": {:.4}, \"hit_rate\": {:.4}}}",
                row.query,
                row.cold.as_nanos(),
                row.warm.as_nanos(),
                row.warm_speedup(),
                row.hit_rate
            )
        })
        .collect();
    format!(
        "{{\n  \"benchmark\": \"ssb_parallel_speedup\",\n  \"scale_factor\": {},\n  \
         \"seed\": {},\n  \"runs\": {},\n  \"host_cores\": {},\n  \"threads\": [{}],\n  \
         \"morsel_thresholds\": [{}],\n  \
         \"pairwise_peak_transient_bytes\": {},\n  \
         \"pairwise_transient_bound_bytes\": {},\n  \"queries\": [\n{}\n  ],\n  \
         \"cache\": [\n{}\n  ]\n}}\n",
        args.scale_factor,
        args.seed,
        args.runs,
        host_cores(),
        threads_json.join(", "),
        thresholds_json.join(", "),
        pairwise.peak_bytes,
        pairwise.bound_bytes,
        queries.join(",\n"),
        cache.join(",\n")
    )
}

/// The measuring host's core count (`available_parallelism`), recorded as
/// top-level `BENCH_ssb.json` metadata so ~1.0x parallel speedups on a
/// single-core CI runner can be told apart from real regressions.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One SSB query's fused-vs-unfused measurement: the serial wall clock with
/// fusion off and on, the number of fused regions the plan executed, and
/// the interior bytes the fused pass never retained.
#[derive(Debug, Clone)]
pub struct FusionRow {
    /// Query label ("1.1" … "4.3").
    pub query: String,
    /// Serial wall clock with fusion off.
    pub unfused: Duration,
    /// Serial wall clock with fusion on.
    pub fused: Duration,
    /// Fused regions executed (0 when nothing in the plan fuses).
    pub fused_regions: usize,
    /// Interior bytes the fused pass recorded but never retained.
    pub intermediate_bytes_avoided: u64,
}

impl FusionRow {
    /// Unfused runtime over fused runtime (> 1.0 means fusion won).
    pub fn speedup(&self) -> f64 {
        let fused = self.fused.as_secs_f64();
        if fused > 0.0 {
            self.unfused.as_secs_f64() / fused
        } else {
            0.0
        }
    }
}

/// Serialise the fused-vs-unfused rows as the value of the top-level
/// `"fusion"` key of `BENCH_ssb.json` (indented to sit at nesting depth 1).
pub fn fusion_section_json(rows: &[FusionRow]) -> String {
    let row_json: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "      {{\"query\": \"{}\", \"unfused_serial_ns\": {}, \
                 \"fused_serial_ns\": {}, \"fused_regions\": {}, \
                 \"intermediate_bytes_avoided\": {}, \"fused_speedup\": {:.4}}}",
                row.query,
                row.unfused.as_nanos(),
                row.fused.as_nanos(),
                row.fused_regions,
                row.intermediate_bytes_avoided,
                row.speedup()
            )
        })
        .collect();
    let total_avoided: u64 = rows.iter().map(|r| r.intermediate_bytes_avoided).sum();
    format!(
        "{{\n    \"total_intermediate_bytes_avoided\": {},\n    \"rows\": [\n{}\n    ]\n  }}",
        total_avoided,
        row_json.join(",\n")
    )
}

/// One measured point of the server-throughput workload: `clients`
/// concurrent sessions (one tenant each) pushing the full SSB query set
/// through a shared `morph-server` worker pool.
#[derive(Debug, Clone)]
pub struct ServerRow {
    /// Number of concurrent client threads (= tenants).
    pub clients: usize,
    /// Total queries served across all clients.
    pub queries: u64,
    /// Wall clock of the whole workload.
    pub wall: Duration,
    /// Median end-to-end (enqueue → reply) latency in nanoseconds.
    pub p50_latency_ns: u64,
    /// 95th-percentile end-to-end latency in nanoseconds.
    pub p95_latency_ns: u64,
    /// Per-tenant cache-shard hit rate, in tenant-registration order.
    pub tenant_hit_rates: Vec<(String, f64)>,
}

impl ServerRow {
    /// Queries per second over the whole workload.
    pub fn qps(&self) -> f64 {
        let seconds = self.wall.as_secs_f64();
        if seconds > 0.0 {
            self.queries as f64 / seconds
        } else {
            0.0
        }
    }
}

/// Serialise the server-throughput rows as the value of the top-level
/// `"server"` key of `BENCH_ssb.json` (indented to sit at nesting depth 1).
pub fn server_section_json(workers: usize, rows: &[ServerRow]) -> String {
    let row_json: Vec<String> = rows
        .iter()
        .map(|row| {
            let tenants: Vec<String> = row
                .tenant_hit_rates
                .iter()
                .map(|(tenant, rate)| {
                    format!("{{\"tenant\": \"{tenant}\", \"cache_hit_rate\": {rate:.4}}}")
                })
                .collect();
            format!(
                "      {{\"clients\": {}, \"queries\": {}, \"wall_ns\": {}, \
                 \"qps\": {:.1}, \"p50_latency_ns\": {}, \"p95_latency_ns\": {}, \
                 \"tenants\": [{}]}}",
                row.clients,
                row.queries,
                row.wall.as_nanos(),
                row.qps(),
                row.p50_latency_ns,
                row.p95_latency_ns,
                tenants.join(", ")
            )
        })
        .collect();
    let clients: Vec<String> = rows.iter().map(|row| row.clients.to_string()).collect();
    format!(
        "{{\n    \"workers\": {},\n    \"clients\": [{}],\n    \"rows\": [\n{}\n    ]\n  }}",
        workers,
        clients.join(", "),
        row_json.join(",\n")
    )
}

/// One measured point of the governance-overhead comparison: the same
/// server workload run twice, once with unlimited governors (baseline) and
/// once with live per-query deadline + memory limits (governed).
#[derive(Debug, Clone)]
pub struct GovernanceRow {
    /// Number of concurrent client threads (= tenants).
    pub clients: usize,
    /// Queries served per run.
    pub queries: u64,
    /// Throughput with unlimited governors (checkpoints active, no limit
    /// comparisons).
    pub baseline_qps: f64,
    /// Throughput with a deadline and memory budget on every query.
    pub governed_qps: f64,
}

impl GovernanceRow {
    /// Throughput lost to live limit checking, as a percentage of the
    /// baseline (negative when the governed run was faster — noise).
    pub fn overhead_percent(&self) -> f64 {
        if self.baseline_qps > 0.0 {
            (1.0 - self.governed_qps / self.baseline_qps) * 100.0
        } else {
            0.0
        }
    }
}

/// Serialise the governance-overhead rows as the value of the top-level
/// `"governance"` key of `BENCH_ssb.json` (indented to sit at depth 1).
pub fn governance_section_json(
    workers: usize,
    target_percent: f64,
    rows: &[GovernanceRow],
) -> String {
    let row_json: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "      {{\"clients\": {}, \"queries\": {}, \"baseline_qps\": {:.1}, \
                 \"governed_qps\": {:.1}, \"overhead_percent\": {:.2}}}",
                row.clients,
                row.queries,
                row.baseline_qps,
                row.governed_qps,
                row.overhead_percent()
            )
        })
        .collect();
    format!(
        "{{\n    \"workers\": {},\n    \"overhead_target_percent\": {:.1},\n    \"rows\": [\n{}\n    ]\n  }}",
        workers,
        target_percent,
        row_json.join(",\n")
    )
}

/// One SSB query's traced-vs-untraced overhead measurement: the same
/// serial execution with no tracer attached versus with a live
/// `QueryTracer` recording a span for every plan node.  Results, records
/// and timing labels are byte-identical either way (the determinism suite
/// proves that); this row documents that the *wall clock* stays within
/// noise too.
#[derive(Debug, Clone)]
pub struct ObservabilityRow {
    /// Query label ("1.1" … "4.3").
    pub query: String,
    /// Serial wall clock without a tracer.
    pub untraced: Duration,
    /// Serial wall clock with a tracer recording every span.
    pub traced: Duration,
}

impl ObservabilityRow {
    /// Wall clock added by tracing, as a percentage of the untraced run
    /// (negative when the traced run was faster — noise).
    pub fn overhead_percent(&self) -> f64 {
        let untraced = self.untraced.as_secs_f64();
        if untraced > 0.0 {
            (self.traced.as_secs_f64() / untraced - 1.0) * 100.0
        } else {
            0.0
        }
    }
}

/// Serialise the traced-vs-untraced rows as the value of the top-level
/// `"observability"` key of `BENCH_ssb.json` (indented to sit at depth 1).
pub fn observability_section_json(target_percent: f64, rows: &[ObservabilityRow]) -> String {
    let row_json: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "      {{\"query\": \"{}\", \"untraced_serial_ns\": {}, \
                 \"traced_serial_ns\": {}, \"overhead_percent\": {:.2}}}",
                row.query,
                row.untraced.as_nanos(),
                row.traced.as_nanos(),
                row.overhead_percent()
            )
        })
        .collect();
    let mean = if rows.is_empty() {
        0.0
    } else {
        rows.iter()
            .map(ObservabilityRow::overhead_percent)
            .sum::<f64>()
            / rows.len() as f64
    };
    format!(
        "{{\n    \"overhead_target_percent\": {:.1},\n    \
         \"mean_overhead_percent\": {:.2},\n    \"rows\": [\n{}\n    ]\n  }}",
        target_percent,
        mean,
        row_json.join(",\n")
    )
}

/// Merge `section` as the top-level key `key` at the tail of an existing
/// `BENCH_ssb.json` document, replacing any previous section under that
/// key (and anything after it — callers re-merge later sections in
/// order).  The tail sections are always the last top-level keys, so
/// replacement is a truncate-and-append on the canonical layout.
pub fn merge_tail_section(document: &str, key: &str, section: &str) -> String {
    let trimmed = document.trim_end();
    let trimmed = trimmed.strip_suffix('}').unwrap_or(trimmed).trim_end();
    let marker = format!(",\n  \"{key}\":");
    let base = match trimmed.find(&marker) {
        Some(position) => &trimmed[..position],
        None => trimmed,
    };
    let base = base.trim_end().trim_end_matches(',');
    format!("{base},\n  \"{key}\": {section}\n}}\n")
}

/// Merge a `"server"` section (produced by [`server_section_json`]) into an
/// existing `BENCH_ssb.json` document, replacing any previous server
/// section (see [`merge_tail_section`]).
pub fn merge_server_section(document: &str, section: &str) -> String {
    merge_tail_section(document, "server", section)
}

/// The `summary:` verdict line of a figure binary for a claim that
/// `measured` is lower than `baseline`, computed from the binary's own
/// totals: "reproduced" iff the ratio `measured / baseline` is below 1.
pub fn verdict(claim: &str, measured: f64, baseline: f64) -> String {
    let ratio = measured / baseline.max(f64::MIN_POSITIVE);
    let outcome = if ratio < 1.0 {
        "reproduced"
    } else {
        "not reproduced"
    };
    format!("summary: {claim}: {outcome} (ratio {ratio:.3})")
}

/// Print a CSV header row.
pub fn print_header(columns: &[&str]) {
    println!("{}", columns.join(","));
}

/// Print a CSV data row.
pub fn print_row(values: &[String]) {
    println!("{}", values.join(","));
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_ssb::dbgen;

    #[test]
    fn verdict_follows_the_measured_ratio() {
        assert_eq!(
            verdict("x is faster", 0.5, 2.0),
            "summary: x is faster: reproduced (ratio 0.250)"
        );
        assert_eq!(
            verdict("x is faster", 3.0, 2.0),
            "summary: x is faster: not reproduced (ratio 1.500)"
        );
        assert!(verdict("x is faster", 1.0, 1.0).contains("not reproduced"));
    }

    #[test]
    fn default_args_are_sensible() {
        let args = HarnessArgs::default();
        assert!(args.scale_factor > 0.0);
        assert!(args.runs >= 1);
        assert!(!args.greedy);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(Duration::from_millis(1500)), "1500.000");
        assert_eq!(fmt_mib(1024 * 1024), "1.000");
    }

    #[test]
    fn speedup_json_has_expected_shape() {
        let args = HarnessArgs::default();
        let rows = vec![SpeedupRow {
            query: "4.1".to_string(),
            serial: Duration::from_micros(100),
            parallel: vec![Duration::from_micros(101), Duration::from_micros(50)],
            morsel: vec![
                MorselSweep {
                    threshold: 65536,
                    parallel: vec![Duration::from_micros(99), Duration::from_micros(40)],
                },
                MorselSweep {
                    threshold: 262144,
                    parallel: vec![Duration::from_micros(100), Duration::from_micros(45)],
                },
            ],
        }];
        let cache_rows = vec![CacheRow {
            query: "4.1".to_string(),
            cold: Duration::from_micros(100),
            warm: Duration::from_micros(10),
            hit_rate: 0.975,
        }];
        let pairwise = PairwisePeak {
            peak_bytes: 16384,
            bound_bytes: 16384,
        };
        assert!(pairwise.holds());
        let json = ssb_speedup_json(&args, &[1, 2], &rows, &cache_rows, pairwise);
        assert!(json.contains("\"benchmark\": \"ssb_parallel_speedup\""));
        // The measuring host's core count is part of the metadata.
        assert!(json.contains(&format!("\"host_cores\": {}", host_cores())));
        assert!(json.contains("\"threads\": [1, 2]"));
        assert!(json.contains("\"morsel_thresholds\": [65536, 262144]"));
        // The pairwise carry high-water mark and its one-chunk bound.
        assert!(json.contains("\"pairwise_peak_transient_bytes\": 16384"));
        assert!(json.contains("\"pairwise_transient_bound_bytes\": 16384"));
        assert!(json.contains("\"query\": \"4.1\""));
        assert!(json.contains("\"serial_ns\": 100000"));
        assert!(json.contains("\"parallel_ns\": [101000, 50000]"));
        assert!(json.contains("\"morsel_parallel_ns\": [[99000, 40000], [100000, 45000]]"));
        // Best over every configuration: 100µs / 40µs.
        assert!(json.contains("\"best_speedup\": 2.5000"));
        // The cold-vs-warm cache workload: 100µs / 10µs.
        assert!(json.contains("\"cold_ns\": 100000"));
        assert!(json.contains("\"warm_ns\": 10000"));
        assert!(json.contains("\"warm_speedup\": 10.0000"));
        assert!(json.contains("\"hit_rate\": 0.9750"));
        // Balanced braces/brackets — cheap well-formedness check without a
        // JSON parser in the dependency-free environment.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "{open}{close}"
            );
        }
    }

    #[test]
    fn server_section_merges_idempotently() {
        let rows = vec![
            ServerRow {
                clients: 1,
                queries: 26,
                wall: Duration::from_millis(130),
                p50_latency_ns: 4_000_000,
                p95_latency_ns: 9_000_000,
                tenant_hit_rates: vec![("tenant-0".to_string(), 0.5)],
            },
            ServerRow {
                clients: 2,
                queries: 52,
                wall: Duration::from_millis(150),
                p50_latency_ns: 5_000_000,
                p95_latency_ns: 11_000_000,
                tenant_hit_rates: vec![
                    ("tenant-0".to_string(), 0.5),
                    ("tenant-1".to_string(), 0.5),
                ],
            },
        ];
        let section = server_section_json(4, &rows);
        assert!(section.contains("\"workers\": 4"));
        assert!(section.contains("\"clients\": [1, 2]"));
        // 26 queries in 130 ms = 200 qps.
        assert!(section.contains("\"qps\": 200.0"));
        assert!(section.contains("\"cache_hit_rate\": 0.5000"));

        let base = "{\n  \"benchmark\": \"ssb_parallel_speedup\",\n  \
                    \"cache\": [\n    {\"query\": \"1.1\"}\n  ]\n}\n";
        let merged = merge_server_section(base, &section);
        assert!(merged.contains("\"benchmark\": \"ssb_parallel_speedup\""));
        assert!(merged.contains("\"server\": {"));
        // Re-merging replaces instead of duplicating.
        let remerged = merge_server_section(&merged, &section);
        assert_eq!(remerged.matches("\"server\":").count(), 1);
        assert_eq!(remerged, merged);
        // Balanced braces/brackets after the splice.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                merged.matches(open).count(),
                merged.matches(close).count(),
                "{open}{close}"
            );
        }
    }

    #[test]
    fn governance_section_reports_overhead_and_merges_after_server() {
        let rows = vec![GovernanceRow {
            clients: 4,
            queries: 104,
            baseline_qps: 200.0,
            governed_qps: 198.0,
        }];
        assert!((rows[0].overhead_percent() - 1.0).abs() < 1e-9);
        let section = governance_section_json(4, 2.0, &rows);
        assert!(section.contains("\"overhead_target_percent\": 2.0"));
        assert!(section.contains("\"overhead_percent\": 1.00"));

        // The bench merges server first, then governance; both survive,
        // and re-merging replaces instead of duplicating.
        let base = "{\n  \"benchmark\": \"ssb_parallel_speedup\",\n  \
                    \"cache\": [\n    {\"query\": \"1.1\"}\n  ]\n}\n";
        let with_server = merge_server_section(base, "{\"workers\": 4}");
        let merged = merge_tail_section(&with_server, "governance", &section);
        assert!(merged.contains("\"server\": {"));
        assert!(merged.contains("\"governance\": {"));
        let remerged = merge_tail_section(&merged, "governance", &section);
        assert_eq!(remerged.matches("\"governance\":").count(), 1);
        assert_eq!(remerged, merged);
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                merged.matches(open).count(),
                merged.matches(close).count(),
                "{open}{close}"
            );
        }
    }

    #[test]
    fn fusion_section_reports_avoided_bytes_and_merges_after_governance() {
        let rows = vec![
            FusionRow {
                query: "1.1".to_string(),
                unfused: Duration::from_micros(100),
                fused: Duration::from_micros(80),
                fused_regions: 2,
                intermediate_bytes_avoided: 4096,
            },
            FusionRow {
                query: "3.4".to_string(),
                unfused: Duration::from_micros(50),
                fused: Duration::from_micros(50),
                fused_regions: 0,
                intermediate_bytes_avoided: 0,
            },
        ];
        assert!((rows[0].speedup() - 1.25).abs() < 1e-9);
        let section = fusion_section_json(&rows);
        assert!(section.contains("\"total_intermediate_bytes_avoided\": 4096"));
        assert!(section.contains("\"unfused_serial_ns\": 100000"));
        assert!(section.contains("\"fused_serial_ns\": 80000"));
        assert!(section.contains("\"fused_speedup\": 1.2500"));
        assert!(section.contains("\"fused_regions\": 0"));

        // The canonical tail order is fusion → server → governance; the
        // section merges idempotently wherever it sits.
        let base = "{\n  \"benchmark\": \"ssb_parallel_speedup\",\n  \
                    \"cache\": [\n    {\"query\": \"1.1\"}\n  ]\n}\n";
        let merged = merge_tail_section(base, "fusion", &section);
        assert!(merged.contains("\"fusion\": {"));
        let with_server = merge_server_section(&merged, "{\"workers\": 4}");
        let remerged = merge_tail_section(&with_server, "fusion", &section);
        assert_eq!(remerged.matches("\"fusion\":").count(), 1);
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                with_server.matches(open).count(),
                with_server.matches(close).count(),
                "{open}{close}"
            );
        }
    }

    #[test]
    fn observability_section_reports_overhead_and_merges_after_governance() {
        let rows = vec![
            ObservabilityRow {
                query: "1.1".to_string(),
                untraced: Duration::from_micros(100),
                traced: Duration::from_micros(101),
            },
            ObservabilityRow {
                query: "4.3".to_string(),
                untraced: Duration::from_micros(200),
                traced: Duration::from_micros(198),
            },
        ];
        assert!((rows[0].overhead_percent() - 1.0).abs() < 1e-9);
        assert!((rows[1].overhead_percent() + 1.0).abs() < 1e-9);
        let section = observability_section_json(2.0, &rows);
        assert!(section.contains("\"overhead_target_percent\": 2.0"));
        // +1.00% and -1.00% cancel; floating point may leave a signed zero.
        assert!(
            section.contains("\"mean_overhead_percent\": 0.00")
                || section.contains("\"mean_overhead_percent\": -0.00"),
            "{section}"
        );
        assert!(section.contains("\"untraced_serial_ns\": 100000"));
        assert!(section.contains("\"traced_serial_ns\": 101000"));
        assert!(section.contains("\"overhead_percent\": 1.00"));

        // The canonical tail order ends … → governance → observability;
        // the section merges idempotently at the tail.
        let base = "{\n  \"benchmark\": \"ssb_parallel_speedup\",\n  \
                    \"cache\": [\n    {\"query\": \"1.1\"}\n  ]\n}\n";
        let with_governance = merge_tail_section(base, "governance", "{\"workers\": 4}");
        let merged = merge_tail_section(&with_governance, "observability", &section);
        assert!(merged.contains("\"governance\": {"));
        assert!(merged.contains("\"observability\": {"));
        let remerged = merge_tail_section(&merged, "observability", &section);
        assert_eq!(remerged.matches("\"observability\":").count(), 1);
        assert_eq!(remerged, merged);
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                merged.matches(open).count(),
                merged.matches(close).count(),
                "{open}{close}"
            );
        }
    }

    #[test]
    fn measure_query_returns_consistent_results_across_configs() {
        let data = dbgen::generate(0.005, 3);
        let uncompressed = measure_query(
            SsbQuery::Q1_1,
            &data,
            ExecSettings::vectorized_uncompressed(),
            &FormatConfig::uncompressed(),
            1,
        );
        let compressed_base = data.with_uniform_format(&Format::DynBp);
        let compressed = measure_query(
            SsbQuery::Q1_1,
            &compressed_base,
            ExecSettings::vectorized_compressed(),
            &FormatConfig::with_default(Format::DynBp),
            1,
        );
        assert_eq!(
            uncompressed.result.sorted_rows(),
            compressed.result.sorted_rows()
        );
        assert!(compressed.footprint_bytes < uncompressed.footprint_bytes);
        assert_eq!(
            uncompressed.footprint_bytes,
            uncompressed.base_bytes + uncompressed.intermediate_bytes
        );
    }

    #[test]
    fn assignable_columns_cover_base_and_intermediates() {
        let data = dbgen::generate(0.005, 3);
        let columns = assignable_columns(SsbQuery::Q1_1, &data);
        assert!(columns.contains_key("lo_discount"));
        assert!(columns.keys().any(|k| k.starts_with("1.1/")));
        let config = strategy_config(SsbQuery::Q1_1, &data, FormatSelectionStrategy::CostBased);
        assert_ne!(
            config.format_for("lo_discount", Format::Uncompressed),
            Format::Uncompressed
        );
    }

    #[test]
    fn base_only_config_leaves_intermediates_uncompressed() {
        let data = dbgen::generate(0.005, 3);
        let full = strategy_config(SsbQuery::Q1_1, &data, FormatSelectionStrategy::AllStaticBp);
        let base_only = base_only_config(SsbQuery::Q1_1, &full);
        assert_eq!(
            base_only.format_for("1.1/lo_pos", Format::Uncompressed),
            Format::Uncompressed
        );
        assert_ne!(
            base_only.format_for("lo_discount", Format::Uncompressed),
            Format::Uncompressed
        );
    }
}
