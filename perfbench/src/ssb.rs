//! The two SSB workloads: the 13 queries as hand-built plans, run serially
//! in fixed order, compressed (`ssb-compressed`) or not (`ssb-uncompressed`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use morph_ssb::{reference, QueryResult, SsbData, SsbQuery};
use morphstore_engine::plan::{ColumnSource, PlanOutput, QueryPlan};
use morphstore_engine::{ExecSettings, ExecutionContext, PlanExecutor, QueryTracer};

use crate::layers::OpTimes;
use crate::pace::{self, Probe};
use crate::report::median;
use crate::setup::{self, FormatChoice};
use crate::spans::Spans;

/// Result rows sorted by group key: the order-insensitive form results are
/// compared in.
pub type Rows = Vec<(Vec<u64>, u64)>;

pub fn sorted_rows(output: PlanOutput) -> Rows {
    QueryResult {
        group_keys: output.group_keys,
        values: output.values,
    }
    .sorted_rows()
}

/// Run one plan, turning an engine error or panic into `Err`.
pub fn execute(
    plan: &QueryPlan,
    source: &dyn ColumnSource,
    ctx: &mut ExecutionContext,
) -> Result<Rows, String> {
    match catch_unwind(AssertUnwindSafe(|| {
        PlanExecutor.try_execute(plan, source, ctx)
    })) {
        Ok(Ok(output)) => Ok(sorted_rows(output)),
        Ok(Err(error)) => Err(error.to_string()),
        Err(_) => Err("engine panicked".to_string()),
    }
}

/// A prepared SSB workload: the data as stored and the formats queries run
/// under.
#[derive(Debug)]
pub struct Prepared {
    pub data: Arc<SsbData>,
    pub choice: FormatChoice,
    pub settings: ExecSettings,
}

/// Set-up of an SSB workload: generate, and for the compressed workload
/// select formats and compress the base columns.
pub fn prepare(compressed: bool, scale_factor: f64, seed: u64, spans: &mut Spans) -> Prepared {
    let raw = setup::generate(scale_factor, seed, spans);
    if !compressed {
        return Prepared {
            data: Arc::new(raw),
            choice: FormatChoice::uncompressed(),
            settings: ExecSettings::vectorized_uncompressed(),
        };
    }
    let choice = setup::select_formats(&raw, spans);
    let data = setup::compress(&raw, &choice, spans);
    Prepared {
        data: Arc::new(data),
        choice,
        settings: ExecSettings::vectorized_compressed(),
    }
}

/// What one phase of sweeps measured.  Times are scaled to the reference
/// host speed by the probe passes around each query (see `pace`).
#[derive(Debug, Default)]
pub struct Phase {
    /// Scaled time of every sweep: its queries' scaled times summed.
    pub sweep_seconds: Vec<f64>,
    /// Every sweep's slowdown against the reference host speed: its raw
    /// time over its scaled time.
    pub slowdowns: Vec<f64>,
    /// Scaled latencies per query, in `SsbQuery::all()` order (ms).
    pub per_query_ms: Vec<Vec<f64>>,
    /// Every query's outcome, for checking against the reference.
    pub outcomes: Vec<(usize, Result<Rows, String>)>,
    /// Materialised intermediate bytes of the first sweep.
    pub intermediate_bytes: usize,
    /// Plan time per operator, when traced.
    pub op_times: OpTimes,
}

impl Phase {
    /// Queries per second of the median sweep: the median discards a sweep
    /// that host noise slowed more than its probe passes saw.
    pub fn qps(&self) -> f64 {
        SsbQuery::all().len() as f64 / median(&self.sweep_seconds)
    }

    /// Queries per second of the median sweep, unscaled.
    pub fn raw_qps(&self) -> f64 {
        let raw: Vec<f64> = self
            .sweep_seconds
            .iter()
            .zip(&self.slowdowns)
            .map(|(seconds, slowdown)| seconds * slowdown)
            .collect();
        SsbQuery::all().len() as f64 / median(&raw)
    }

    /// Each query's median latency over the sweeps (ms).
    pub fn query_medians(&self) -> Vec<f64> {
        self.per_query_ms.iter().map(|v| median(v)).collect()
    }

    pub fn queries_run(&self) -> usize {
        self.outcomes.len()
    }
}

/// Probe passes on each side of a query that its slowdown is taken from.
const PASSES_PER_SIDE: usize = 3;

/// Run whole 13-query sweeps until `seconds` have passed (at least one).
/// A probe pass runs before every query and after the last, outside the
/// timings, and each query's times are scaled by the slowdown of the
/// `PASSES_PER_SIDE` passes on either side of it: the host's speed wanders
/// within a second, and a sweep takes seconds.  An enabled `spans` records
/// a span around every execution; `traced` attaches the engine's
/// `QueryTracer`, whose node spans split plan time across operators.
pub fn sweeps(
    prep: &Prepared,
    probe: &Probe,
    seconds: f64,
    spans: &mut Spans,
    traced: bool,
) -> Phase {
    let queries = SsbQuery::all();
    let plans: Vec<QueryPlan> = queries.iter().map(|q| q.plan()).collect();
    let mut phase = Phase::default();
    // Per execution, in order: its query's time in the sweep and its
    // latency, both in seconds; `passes[k]` ran just before execution `k`.
    let mut executions = Vec::new();
    let mut passes = Vec::new();
    let started = Instant::now();
    let mut sweep = 0u64;
    while sweep == 0 || started.elapsed().as_secs_f64() < seconds {
        for (i, plan) in plans.iter().enumerate() {
            passes.push(probe.pass());
            // A query's time in its sweep runs from building its context to
            // dropping it, which frees its intermediates.
            let unit = Instant::now();
            let tracer = traced.then(|| Arc::new(QueryTracer::new()));
            let mut settings = prep.settings.clone();
            if let Some(tracer) = &tracer {
                settings = settings.with_tracer(Arc::clone(tracer));
            }
            let mut ctx = ExecutionContext::new(settings, prep.choice.per_query[i].clone());
            let label = format!("ssb.execute.{}", queries[i].label());
            let span = spans.open(&label, sweep * 13 + i as u64);
            let t = Instant::now();
            let outcome = execute(plan, prep.data.as_ref(), &mut ctx);
            let latency = t.elapsed();
            spans.close(span);
            if let Some(trace) = tracer.and_then(|t| t.last_trace()) {
                phase.op_times.add_trace(plan, &trace);
            }
            if sweep == 0 {
                phase.intermediate_bytes += ctx.intermediate_footprint_bytes();
            }
            drop(ctx);
            executions.push((unit.elapsed().as_secs_f64(), latency.as_secs_f64()));
            phase.outcomes.push((i, outcome));
        }
        sweep += 1;
    }
    passes.push(probe.pass());
    phase.per_query_ms = vec![Vec::new(); queries.len()];
    for (first, swept) in (0..executions.len())
        .step_by(plans.len())
        .zip(executions.chunks(plans.len()))
    {
        let (mut raw_seconds, mut scaled_seconds) = (0.0, 0.0);
        for (i, (unit_seconds, latency_seconds)) in swept.iter().enumerate() {
            let k = first + i;
            let window =
                k.saturating_sub(PASSES_PER_SIDE - 1)..(k + 1 + PASSES_PER_SIDE).min(passes.len());
            let slowdown = pace::slowdown(&passes[window]);
            phase.per_query_ms[i].push(latency_seconds * 1e3 / slowdown);
            raw_seconds += unit_seconds;
            scaled_seconds += unit_seconds / slowdown;
        }
        phase.sweep_seconds.push(scaled_seconds);
        phase.slowdowns.push(raw_seconds / scaled_seconds);
    }
    phase
}

/// Check every outcome against `morph_ssb::reference::evaluate`, computed on
/// two threads.  Returns `(attempted, failed)`.
pub fn check(data: &SsbData, outcomes: &[(usize, Result<Rows, String>)]) -> (u64, u64) {
    let queries = SsbQuery::all();
    let expected: Vec<Mutex<Option<Rows>>> = queries.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(query) = queries.get(i) else { break };
                let rows = catch_unwind(AssertUnwindSafe(|| {
                    reference::evaluate(*query, data).sorted_rows()
                }))
                .ok();
                *expected[i]
                    .lock()
                    .expect("no thread panics holding the lock") = rows;
            });
        }
    });
    let expected: Vec<Option<Rows>> = expected
        .into_iter()
        .map(|m| m.into_inner().expect("no thread panics holding the lock"))
        .collect();
    let failed = outcomes
        .iter()
        .filter(|(i, outcome)| match (outcome, &expected[*i]) {
            (Ok(rows), Some(reference)) => rows != reference,
            _ => true,
        })
        .count();
    (outcomes.len() as u64, failed as u64)
}
