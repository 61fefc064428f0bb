//! The MorphStore-rs benchmark: one command, three workloads, every result
//! checked, every end-to-end metric printed by name with its unit.  A
//! separate traced run (`--trace 1`) attributes time to the engine's layers
//! by timing the calls the benchmark makes into their public functions.
//!
//! ```text
//! perfbench --workload <ssb-compressed|ssb-uncompressed|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1> [--scale-factor <f>]
//! ```
//!
//! The query, request and set-up times a run reports are scaled to a
//! reference host speed by a fixed probe kernel run around the timed work
//! (`pace`), so that the drift of a shared host cancels out; the raw
//! figures are printed beside them.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.  `README.md` beside this crate says
//! why each workload exists and what each metric should move.

mod layers;
mod pace;
mod report;
mod serve;
mod setup;
mod spans;
mod ssb;

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use morph_ssb::SsbQuery;
use morphstore_engine::ExecSettings;

use crate::pace::Probe;
use crate::report::{median, mib, Metrics, ProcCounters};
use crate::spans::Spans;

/// Scale factor of the SSB workloads: 3 M lineorder rows and 209 MiB of
/// uncompressed base data, twice this host class's 105 MiB L3.
const SSB_SCALE: f64 = 0.3;
/// Scale factor of `serve-mixed`: 83 MiB of uncompressed base data, which
/// fits in L3.
const SERVE_SCALE: f64 = 0.2;
/// Set-ups per untraced run, at the least; `setup_s` is their median.
const SETUPS: usize = 3;
/// Seconds of set-up an untraced run makes at the least: a set-up shorter
/// than a third of this is repeated more than `SETUPS` times.
const SETUP_SECONDS: f64 = 2.0;
/// Seconds the serving layers are driven in an SSB workload's traced run.
const SERVING_SECONDS: f64 = 5.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SsbCompressed,
    SsbUncompressed,
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "ssb-compressed" => Some(Workload::SsbCompressed),
            "ssb-uncompressed" => Some(Workload::SsbUncompressed),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SsbCompressed => "ssb-compressed",
            Workload::SsbUncompressed => "ssb-uncompressed",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Overrides the workload's scale factor (the smoke check runs tiny).
    scale_factor: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale_factor = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scale-factor" => {
                let f: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(f > 0.0 && f <= 1.0) {
                    return Err(bad("in (0, 1]"));
                }
                scale_factor = Some(f);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale_factor,
    })
}

/// A run's outcome: operations checked, operations failed, and the host
/// facts to print beside the metrics.
struct Outcome {
    attempted: u64,
    failed: u64,
    facts: Vec<(&'static str, String)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <ssb-compressed|ssb-uncompressed|serve-mixed> --seed <n> --seconds <s> --trace <0|1> [--scale-factor <f>]"
            );
            return ExitCode::from(2);
        }
    };
    let mut metrics = Metrics::default();
    let mut spans = Spans::new(args.trace);
    let probe = Probe::new();
    let outcome = match args.workload {
        Workload::ServeMixed => run_serve(&args, &probe, &mut metrics, &mut spans),
        _ => run_ssb(&args, &probe, &mut metrics, &mut spans),
    };
    if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "spans-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            ));
        if let Err(error) = spans.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {error}", path.display());
        }
    }
    let mut facts = vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
    ];
    facts.extend(outcome.facts);
    println!("{}", report::host_facts(&facts));
    println!(
        "{}",
        report::result_line(outcome.attempted, outcome.failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// Set-up times in seconds: the median of the set-ups, scaled to the
/// reference host speed by the probe passes around each, and unscaled.
#[derive(Debug, Clone, Copy)]
struct SetupTime {
    count: usize,
    scaled_s: f64,
    raw_s: f64,
}

/// Run `prepare` `SETUPS` times, and more until `SETUP_SECONDS` have
/// passed (once when traced); keep the last result and return it with its
/// set-up time.
fn set_up<T>(trace: bool, probe: &Probe, mut prepare: impl FnMut() -> T) -> (T, SetupTime) {
    let (mut scaled, mut raw) = (Vec::new(), Vec::new());
    let mut prepared = None;
    let mut passes_before = probe.passes();
    let started = Instant::now();
    while raw.is_empty()
        || !trace && (raw.len() < SETUPS || started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(prepare());
        let seconds = t.elapsed().as_secs_f64();
        let passes_after = probe.passes();
        let slowdown = pace::slowdown_between(&passes_before, &passes_after);
        scaled.push(seconds / slowdown);
        raw.push(seconds);
        passes_before = passes_after;
    }
    let time = SetupTime {
        count: raw.len(),
        scaled_s: median(&scaled),
        raw_s: median(&raw),
    };
    (prepared.expect("at least one set-up ran"), time)
}

/// Host facts on the probe: the slowdown of every timed sweep or block,
/// and the unscaled figures beside the scaled metrics.
fn pace_facts(
    facts: &mut Vec<(&'static str, String)>,
    slowdowns: &[f64],
    raw_qps: f64,
    setup: SetupTime,
) {
    facts.push(("reference_probe_ms", pace::REFERENCE_MS.to_string()));
    let each: Vec<String> = slowdowns.iter().map(|s| format!("{s:.3}")).collect();
    facts.push(("timed_slowdowns", each.join(" ")));
    facts.push(("raw_qps", format!("{raw_qps:.3}")));
    facts.push(("setups", setup.count.to_string()));
    facts.push(("raw_setup_s", format!("{:.3}", setup.raw_s)));
}

fn os_metrics(metrics: &mut Metrics, os: ProcCounters) {
    metrics.set("os.user_cpu_s", os.user_s, "s");
    metrics.set("os.sys_cpu_s", os.sys_s, "s");
    metrics.set("os.minor_faults", os.minor_faults as f64, "count");
}

fn query_metric(query: SsbQuery) -> String {
    format!("query.q{}.ms", query.label().replace('.', "_"))
}

fn span_seconds(spans: &Spans, name: &str) -> f64 {
    spans.durations(name).iter().map(|d| d.as_secs_f64()).sum()
}

fn set_time_shares(metrics: &mut Metrics, op_times: &layers::OpTimes) {
    for op in layers::CORE_OPS {
        metrics.set(format!("core.{op}.time_share"), op_times.share(op), "ratio");
    }
}

/// The serving layers over an SSB workload's data: a server under the
/// workload's settings and base formats, warmed by one block and then
/// driven for `SERVING_SECONDS`.  Records the `server`, `cache` and `sql`
/// layer metrics; returns the replies for checking.
fn serving_layers(
    prep: &ssb::Prepared,
    probe: &Probe,
    seed: u64,
    metrics: &mut Metrics,
    spans: &mut Spans,
    facts: &mut Vec<(&'static str, String)>,
) -> Vec<serve::Reply> {
    let config = serve::server_config(&prep.settings, &prep.choice.base, false);
    let serving = serve::Serving::start(&prep.data, &config, spans);
    let mut schedule = serve::Schedule::new(seed);
    let warm = serving.warm_up(&mut schedule, probe);
    let timed = serving.closed_loop(&mut schedule, probe, SERVING_SECONDS, spans);
    metrics.set("server.qps", timed.qps(), "1/s");
    serve::latency_metrics(metrics, "server.latency_ms", &timed.latencies_ms);
    serving.layer_metrics(metrics);
    serving.shutdown();
    let head = serve::head_working_set_bytes(&prep.data, &config);
    metrics.set("cache.working_set_mib", mib(head), "MiB");
    metrics.set("sql.compile_us.p50", serve::compile_us(seed, spans), "us");
    facts.push((
        "serve_cache_budget_mib",
        serve::CACHE_BUDGET_MIB.to_string(),
    ));
    facts.push(("serve_head_working_set_mib", format!("{:.1}", mib(head))));
    facts.push(("serve_requests", timed.latencies_ms.len().to_string()));
    let mut replies = warm.outcomes;
    replies.extend(timed.outcomes);
    replies
}

fn run_ssb(args: &Args, probe: &Probe, metrics: &mut Metrics, spans: &mut Spans) -> Outcome {
    let compressed = args.workload == Workload::SsbCompressed;
    let scale = args.scale_factor.unwrap_or(SSB_SCALE);
    let mut untraced = Spans::new(false);
    let (prep, setup) = set_up(args.trace, probe, || {
        ssb::prepare(compressed, scale, args.seed, spans)
    });
    // Warm-up: the first sweep, whose allocations fault in fresh pages.
    let warm = ssb::sweeps(&prep, probe, 0.0, &mut untraced, false);
    let before = ProcCounters::read();
    let mut timed = ssb::sweeps(&prep, probe, args.seconds, &mut untraced, false);
    let os = ProcCounters::read().since(before);
    let peak_rss = report::peak_rss_mib();
    let mut outcomes = warm.outcomes;
    outcomes.extend(std::mem::take(&mut timed.outcomes));
    let mut served = Vec::new();
    let sweeps: Vec<String> = timed
        .sweep_seconds
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect();
    let mut facts = vec![
        ("scale_factor", scale.to_string()),
        (
            "format_disagreements",
            prep.choice.disagreements.to_string(),
        ),
        ("scaled_sweep_seconds", sweeps.join(" ")),
    ];
    pace_facts(&mut facts, &timed.slowdowns, timed.raw_qps(), setup);
    if !args.trace {
        metrics.set("setup_s", setup.scaled_s, "s");
        metrics.set("qps", timed.qps(), "1/s");
        // Percentiles over the 13 queries' median latencies: with 13
        // queries p50 is the 7th fastest, p90 the 2nd slowest and p99 the
        // slowest query.
        serve::latency_metrics(metrics, "latency_ms", &timed.query_medians());
        metrics.set("base_mib", mib(prep.data.total_size_bytes()), "MiB");
        metrics.set("intermediate_mib", mib(timed.intermediate_bytes), "MiB");
        metrics.set("peak_rss_mib", peak_rss, "MiB");
    } else {
        let traced = ssb::sweeps(&prep, probe, args.seconds, spans, true);
        for (query, ms) in SsbQuery::all().iter().zip(traced.query_medians()) {
            metrics.set(query_metric(*query), ms, "ms");
        }
        metrics.set("ssb.dbgen_s", span_seconds(spans, "ssb.dbgen"), "s");
        if !compressed {
            // The uncompressed workload selects no formats in its set-up;
            // time the selection on its data so the cost layer is covered.
            setup::select_formats(&prep.data, spans);
        }
        metrics.set("cost.select_s", span_seconds(spans, "cost.select"), "s");
        layers::probe(
            &prep.data,
            &prep.settings,
            layers::Formats::new(compressed),
            metrics,
            spans,
        );
        set_time_shares(metrics, &traced.op_times);
        served = serving_layers(&prep, probe, args.seed, metrics, spans, &mut facts);
        os_metrics(metrics, os);
        metrics.set(
            "telemetry.trace_overhead_pct",
            (timed.qps() / traced.qps() - 1.0) * 100.0,
            "%",
        );
        facts.push(("traced_queries", traced.queries_run().to_string()));
        outcomes.extend(traced.outcomes);
    }
    let (attempted, failed) = ssb::check(&prep.data, &outcomes);
    let (served_attempted, served_failed) = serve::check(&prep.data, &served);
    Outcome {
        attempted: attempted + served_attempted,
        failed: failed + served_failed,
        facts,
    }
}

fn run_serve(args: &Args, probe: &Probe, metrics: &mut Metrics, spans: &mut Spans) -> Outcome {
    let scale = args.scale_factor.unwrap_or(SERVE_SCALE);
    let settings = ExecSettings::vectorized_compressed();
    let (prepared, setup) = set_up(args.trace, probe, || {
        let raw = setup::generate(scale, args.seed, spans);
        let choice = setup::select_formats(&raw, spans);
        let data = Arc::new(setup::compress(&raw, &choice, spans));
        let config = serve::server_config(&settings, &choice.base, false);
        let serving = serve::Serving::start(&data, &config, spans);
        (raw, data, choice, config, serving)
    });
    // The uncompressed data stays for the reference executions, which it
    // spares decoding every scanned column.
    let (raw, data, choice, config, serving) = prepared;
    let mut schedule = serve::Schedule::new(args.seed);
    let warm = serving.warm_up(&mut schedule, probe);
    let before = ProcCounters::read();
    let mut timed = serving.closed_loop(&mut schedule, probe, args.seconds, &mut Spans::new(false));
    let os = ProcCounters::read().since(before);
    let peak_rss = report::peak_rss_mib();
    let mut outcomes = warm.outcomes;
    outcomes.extend(std::mem::take(&mut timed.outcomes));
    let mut facts = vec![
        ("scale_factor", scale.to_string()),
        ("format_disagreements", choice.disagreements.to_string()),
        ("cache_budget_mib", serve::CACHE_BUDGET_MIB.to_string()),
        ("timed_requests", timed.latencies_ms.len().to_string()),
    ];
    pace_facts(&mut facts, &timed.slowdowns, timed.raw_qps(), setup);
    let (op_times, intermediate_bytes) = serve::sql_pass(&data, &config);
    if !args.trace {
        metrics.set("setup_s", setup.scaled_s, "s");
        metrics.set("qps", timed.qps(), "1/s");
        serve::latency_metrics(metrics, "latency_ms", &timed.latencies_ms);
        metrics.set("base_mib", mib(data.total_size_bytes()), "MiB");
        metrics.set("intermediate_mib", mib(intermediate_bytes), "MiB");
        metrics.set("peak_rss_mib", peak_rss, "MiB");
        serving.shutdown();
    } else {
        metrics.set("server.qps", timed.qps(), "1/s");
        serve::latency_metrics(metrics, "server.latency_ms", &timed.latencies_ms);
        serving.layer_metrics(metrics);
        serving.shutdown();
        // The traced phase: a second server that traces every query,
        // warmed like the first, with a span around every request.
        let traced_config = serve::server_config(&settings, &choice.base, true);
        let traced_serving = serve::Serving::start(&data, &traced_config, spans);
        outcomes.extend(traced_serving.warm_up(&mut schedule, probe).outcomes);
        let traced = traced_serving.closed_loop(&mut schedule, probe, args.seconds, spans);
        traced_serving.shutdown();
        for (query, ms) in SsbQuery::all().iter().zip(&traced.per_template_ms) {
            metrics.set(query_metric(*query), median(ms), "ms");
        }
        metrics.set("ssb.dbgen_s", span_seconds(spans, "ssb.dbgen"), "s");
        metrics.set("cost.select_s", span_seconds(spans, "cost.select"), "s");
        layers::probe(
            &data,
            &config.settings,
            layers::Formats::new(false),
            metrics,
            spans,
        );
        set_time_shares(metrics, &op_times);
        let head = serve::head_working_set_bytes(&data, &config);
        metrics.set("cache.working_set_mib", mib(head), "MiB");
        metrics.set(
            "sql.compile_us.p50",
            serve::compile_us(args.seed, spans),
            "us",
        );
        facts.push(("head_working_set_mib", format!("{:.1}", mib(head))));
        os_metrics(metrics, os);
        metrics.set(
            "telemetry.trace_overhead_pct",
            (timed.qps() / traced.qps() - 1.0) * 100.0,
            "%",
        );
        facts.push(("traced_requests", traced.latencies_ms.len().to_string()));
        outcomes.extend(traced.outcomes);
    }
    let (attempted, failed) = serve::check(&raw, &outcomes);
    Outcome {
        attempted,
        failed,
        facts,
    }
}
