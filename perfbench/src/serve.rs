//! Serving: SSB SQL text with skewed parameters, submitted to one
//! `morph-server` instance by a closed-loop generator.  It is the
//! `serve-mixed` workload, and the traced run of every workload drives it
//! briefly to measure the `sql`, `server` and `cache` layers.
//!
//! The mix has a hot head and a long tail.  The head is the 13 SSB queries
//! with their SSB parameters, Zipf-weighted, submitted by a `dashboards`
//! tenant whose cache shard holds the head's working set.  The tail is
//! ad-hoc parameterisations drawn uniformly from the SSB parameter domains,
//! submitted by an `analysts` tenant: with hundreds to thousands of variants
//! per template they rarely repeat, so they run in the engine, and their
//! results churn through the tenant's shard (insertions and evictions).
//! Giving head and tail their own shards keeps runs comparable: in one
//! shared shard the runtime-weighted eviction let identical runs settle
//! into different cache states (measured: 60 to 105 queries per second for
//! one seed).

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use morph_cache::QueryCache;
use morph_server::{PendingQuery, Server, ServerConfig, Session, TenantLimits};
use morph_ssb::sql::{city_name, NATION_NAMES, REGION_NAMES};
use morph_ssb::{SsbData, SsbQuery};
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::plan::ColumnSource;
use morphstore_engine::{ExecSettings, ExecutionContext, QueryTracer};

use crate::layers::OpTimes;
use crate::pace::{self, Probe};
use crate::report::{median, mib, quantile, Metrics};
use crate::spans::Spans;
use crate::ssb::{execute, sorted_rows, Rows};

/// Requests the generator keeps outstanding: two analysts, each waiting for
/// a reply before asking again.
const OUTSTANDING: usize = 2;
/// Share of requests that go to the hot head.  With two requests
/// outstanding a latency spans two service times; at this share the p50,
/// p90 and p99 each fall inside one of the hit+hit, hit+miss and miss+miss
/// modes rather than on a boundary between them.
const HEAD_SHARE: f64 = 0.8;
/// Zipf exponent over the head's 13 queries.
const ZIPF_S: f64 = 1.0;
/// Requests per schedule block; the warm-up is one block.
const BLOCK: usize = 200;
/// Requests between two runs of the probe: a fourth of a block, a few
/// tenths of a second, short enough for the passes on either side to follow
/// the host's speed.
const SEGMENT: usize = 50;
/// Tenants: the head's, then the tail's.
const TENANTS: [&str; 2] = ["dashboards", "analysts"];
/// Query-cache budget, split evenly between the two tenants: each shard is
/// above the head's working set and far below the tail's.
pub const CACHE_BUDGET_MIB: usize = 160;
/// Input length above which the server's executor splits an operator into
/// morsels.
const MORSEL_THRESHOLD: usize = 64 * 1024;
/// Tenant limits high enough never to trip, so governor checkpoints run
/// live without rejecting work.
const DEADLINE: Duration = Duration::from_secs(120);
const MEMORY_BUDGET: usize = 16 << 30;

/// A served request: its SQL text and its result digest, or the error.
pub type Reply = (Arc<str>, Result<u64, String>);

/// Mixed-radix digits of variant `v` over parameter domains of the given
/// sizes, offset so that variant 0 yields each domain's SSB value
/// (`ssb[i]`).
fn digits(v: usize, sizes: &[usize], ssb: &[usize]) -> Vec<usize> {
    let mut rest = v;
    sizes
        .iter()
        .zip(ssb)
        .map(|(&n, &s)| {
            let d = (s + rest % n) % n;
            rest /= n;
            d
        })
        .collect()
}

/// Parameter domains of a template (sizes, and the SSB value's index).
fn domains(query: SsbQuery) -> (Vec<usize>, Vec<usize>) {
    use SsbQuery::*;
    match query {
        // year, discount low end, quantity bound
        Q1_1 => (vec![7, 8, 10], vec![1, 0, 5]),
        // year-month, discount low end, quantity low end
        Q1_2 => (vec![84, 8, 10], vec![24, 3, 5]),
        // week, year, discount low end
        Q1_3 => (vec![48, 7, 8], vec![5, 2, 4]),
        // category, region
        Q2_1 => (vec![25, 5], vec![1, 1]),
        // category, first brand, region
        Q2_2 => (vec![25, 33, 5], vec![6, 20, 2]),
        // category, brand, region
        Q2_3 => (vec![25, 40, 5], vec![6, 38, 3]),
        // region, first year, span
        Q3_1 => (vec![5, 4, 3], vec![2, 0, 2]),
        // nation, first year, span
        Q3_2 => (vec![25, 4, 3], vec![9, 0, 2]),
        // nation, city pair, first year, span
        Q3_3 => (vec![25, 45, 4, 3], vec![18, 3, 0, 2]),
        // nation, city pair, year-month
        Q3_4 => (vec![25, 45, 84], vec![18, 3, 71]),
        // region, manufacturer pair
        Q4_1 => (vec![5, 10], vec![1, 0]),
        // region, manufacturer pair, first year
        Q4_2 => (vec![5, 10, 6], vec![1, 0, 5]),
        // region, nation in region, category of MFGR#1, first year
        Q4_3 => (vec![5, 5, 5, 6], vec![1, 4, 3, 5]),
    }
}

/// Number of parameterisations of a template.
fn domain_size(query: SsbQuery) -> usize {
    domains(query).0.iter().product()
}

/// The `i`-th of the 45 pairs `a < b` of `0..10`, in lexicographic order.
fn pair(i: usize) -> (usize, usize) {
    (0..10)
        .flat_map(|a| (a + 1..10).map(move |b| (a, b)))
        .nth(i)
        .unwrap_or((0, 1))
}

/// The SQL text of variant `v` of a template; variant 0 is the SSB text.
pub fn variant_sql(query: SsbQuery, v: usize) -> String {
    use SsbQuery::*;
    let (sizes, ssb) = domains(query);
    let d = digits(v, &sizes, &ssb);
    let region = |r: usize| REGION_NAMES[r];
    let nation = |n: usize| NATION_NAMES[n];
    let year_month = |k: usize| ((1992 + k / 12) * 100 + k % 12 + 1).to_string();
    let category = |k: usize| format!("MFGR#{}{}", k / 5 + 1, k % 5 + 1);
    let range = |lo: usize, hi: usize| format!("BETWEEN {lo} AND {hi}");
    let years = |first: usize, span: usize| range(1992 + first, 1992 + first + span + 3);
    let cities = |n: usize, p: usize| {
        let (a, b) = pair(p);
        let city = |c: usize| city_name((n * 10 + c) as u64);
        format!("'{}', '{}'", city(a), city(b))
    };
    // The ten pairs of the five manufacturers.
    let mfgrs = |p: usize| {
        let (a, b) = (0..5)
            .flat_map(|a| (a + 1..5).map(move |b| (a, b)))
            .nth(p)
            .unwrap_or((0, 1));
        format!("'MFGR#{}', 'MFGR#{}'", a + 1, b + 1)
    };
    let subs: Vec<(&str, String)> = match query {
        Q1_1 => vec![
            ("d_year = 1993", format!("d_year = {}", 1992 + d[0])),
            ("BETWEEN 1 AND 3", range(1 + d[1], 3 + d[1])),
            ("lo_quantity < 25", format!("lo_quantity < {}", 20 + d[2])),
        ],
        Q1_2 => vec![
            ("199401", year_month(d[0])),
            ("BETWEEN 4 AND 6", range(1 + d[1], 3 + d[1])),
            ("BETWEEN 26 AND 35", range(21 + d[2], 30 + d[2])),
        ],
        Q1_3 => vec![
            (
                "d_weeknuminyear = 6 AND d_year = 1994",
                format!(
                    "d_weeknuminyear = {} AND d_year = {}",
                    1 + d[0],
                    1992 + d[1]
                ),
            ),
            ("BETWEEN 5 AND 7", range(1 + d[2], 3 + d[2])),
        ],
        Q2_1 => vec![
            ("'MFGR#12'", format!("'{}'", category(d[0]))),
            ("'AMERICA'", format!("'{}'", region(d[1]))),
        ],
        Q2_2 => vec![
            (
                "'MFGR#2221' AND 'MFGR#2228'",
                format!("'{0}{1}' AND '{0}{2}'", category(d[0]), 1 + d[1], 8 + d[1]),
            ),
            ("'ASIA'", format!("'{}'", region(d[2]))),
        ],
        Q2_3 => vec![
            ("'MFGR#2239'", format!("'{}{}'", category(d[0]), 1 + d[1])),
            ("'EUROPE'", format!("'{}'", region(d[2]))),
        ],
        Q3_1 => vec![
            (
                "'ASIA' AND s_region = 'ASIA'",
                format!("'{0}' AND s_region = '{0}'", region(d[0])),
            ),
            ("BETWEEN 1992 AND 1997", years(d[1], d[2])),
        ],
        Q3_2 => vec![
            (
                "'UNITED STATES' AND s_nation = 'UNITED STATES'",
                format!("'{0}' AND s_nation = '{0}'", nation(d[0])),
            ),
            ("BETWEEN 1992 AND 1997", years(d[1], d[2])),
        ],
        Q3_3 => vec![
            ("'UNITED KI1', 'UNITED KI5'", cities(d[0], d[1])),
            ("BETWEEN 1992 AND 1997", years(d[2], d[3])),
        ],
        Q3_4 => vec![
            ("'UNITED KI1', 'UNITED KI5'", cities(d[0], d[1])),
            ("199712", year_month(d[2])),
        ],
        Q4_1 | Q4_2 => {
            let mut subs = vec![
                (
                    "'AMERICA' AND s_region = 'AMERICA'",
                    format!("'{0}' AND s_region = '{0}'", region(d[0])),
                ),
                ("'MFGR#1', 'MFGR#2'", mfgrs(d[1])),
            ];
            if query == Q4_2 {
                subs.push(("BETWEEN 1997 AND 1998", range(1992 + d[2], 1993 + d[2])));
            }
            subs
        }
        Q4_3 => vec![
            (
                "'AMERICA' AND s_nation = 'UNITED STATES'",
                format!(
                    "'{}' AND s_nation = '{}'",
                    region(d[0]),
                    nation(d[0] * 5 + d[1])
                ),
            ),
            ("'MFGR#14'", format!("'MFGR#1{}'", 1 + d[2])),
            ("BETWEEN 1997 AND 1998", range(1992 + d[3], 1993 + d[3])),
        ],
    };
    let mut sql = query.sql().to_string();
    for (from, to) in subs {
        assert!(sql.contains(from), "{query}: {from:?} not in its SQL text");
        sql = sql.replace(from, &to);
    }
    sql
}

/// SplitMix64: a small seeded generator for the request order.
#[derive(Debug)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One request: its template, whether it is the head's, and its text.
#[derive(Debug, Clone)]
pub struct Request {
    pub template: usize,
    pub head: bool,
    pub sql: Arc<str>,
}

/// The request order, in blocks of `BLOCK` requests.  Each block holds the
/// head's share exactly, the head's 13 queries as a systematic sample of
/// their Zipf weights, and the tail's requests spread evenly over the 13
/// templates, each with a seeded random variant; the seed then shuffles
/// the block.  Runs thus differ in order and in tail parameters, not in the
/// mix.
#[derive(Debug)]
pub struct Schedule {
    head_cdf: Vec<f64>,
    block: Vec<(usize, bool)>,
    next: usize,
    rng: Rng,
}

impl Schedule {
    pub fn new(seed: u64) -> Schedule {
        let weights: Vec<f64> = (1..=SsbQuery::all().len())
            .map(|rank| 1.0 / (rank as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let head_cdf = weights
            .iter()
            .scan(0.0, |sum, w| {
                *sum += w / total;
                Some(*sum)
            })
            .collect();
        Schedule {
            head_cdf,
            block: Vec::new(),
            next: 0,
            rng: Rng(seed ^ 0x5EED_5EED),
        }
    }

    pub fn next_request(&mut self) -> Request {
        let queries = SsbQuery::all();
        if self.next == self.block.len() {
            let head = (BLOCK as f64 * HEAD_SHARE).round() as usize;
            let (offset, start) = (self.rng.unit(), self.rng.next() as usize);
            self.block = (0..head)
                .map(|i| {
                    let u = (i as f64 + offset) / head as f64;
                    let rank = self.head_cdf.partition_point(|&c| c <= u);
                    (rank.min(queries.len() - 1), true)
                })
                .chain((head..BLOCK).map(|i| ((start + i) % queries.len(), false)))
                .collect();
            for i in (1..self.block.len()).rev() {
                let j = (self.rng.next() % (i as u64 + 1)) as usize;
                self.block.swap(i, j);
            }
            self.next = 0;
        }
        let (template, head) = self.block[self.next];
        self.next += 1;
        let variant = if head {
            0
        } else {
            let size = domain_size(queries[template]) as u64;
            1 + (self.rng.next() % (size - 1)) as usize
        };
        Request {
            template,
            head,
            sql: variant_sql(queries[template], variant).into(),
        }
    }
}

/// The server configuration: one worker, two threads per query, fusion and
/// morsels on, the workload's engine settings and base formats.
pub fn server_config(
    settings: &ExecSettings,
    formats: &FormatConfig,
    traced: bool,
) -> ServerConfig {
    ServerConfig {
        workers: 1,
        threads_per_query: 2,
        queue_capacity: 64,
        cache_budget_bytes: CACHE_BUDGET_MIB << 20,
        max_tenants: TENANTS.len(),
        settings: settings
            .clone()
            .with_fusion()
            .with_morsel_threshold(MORSEL_THRESHOLD),
        formats: formats.clone(),
        default_limits: TenantLimits {
            deadline: Some(DEADLINE),
            memory_budget_bytes: Some(MEMORY_BUDGET),
            max_in_flight: None,
        },
        // A zero threshold traces every query through the engine's
        // `QueryTracer` (the server's slow-query log path).
        slow_query_threshold: traced.then_some(Duration::ZERO),
        ..ServerConfig::default()
    }
}

/// A running server with one session per tenant.
pub struct Serving {
    server: Server,
    sessions: Vec<Session>,
}

impl Serving {
    pub fn start(data: &Arc<SsbData>, config: &ServerConfig, spans: &mut Spans) -> Serving {
        spans.time("server.start", 0, || {
            let source: Arc<dyn ColumnSource + Send + Sync> = Arc::clone(data) as _;
            let server = Server::new(morph_ssb::ssb_catalog(), source, config.clone());
            let sessions = TENANTS
                .iter()
                .map(|tenant| {
                    server
                        .session(tenant)
                        .expect("a fresh server accepts its tenants")
                })
                .collect();
            Serving { server, sessions }
        })
    }

    pub fn shutdown(mut self) {
        self.sessions.clear();
        self.server.shutdown();
    }

    /// Run the warm-up block, which fills the head's shard.
    pub fn warm_up(&self, schedule: &mut Schedule, probe: &Probe) -> Phase {
        self.closed_loop(schedule, probe, 0.0, &mut Spans::new(false))
    }

    /// Drive the closed loop in whole blocks until `seconds` have passed
    /// (at least one block).  Every `SEGMENT` requests the loop drains and
    /// the probe runs `pace::PASSES` passes on the idle host; each
    /// segment's times are scaled by the slowdown the passes before and
    /// after it measured.
    pub fn closed_loop(
        &self,
        schedule: &mut Schedule,
        probe: &Probe,
        seconds: f64,
        spans: &mut Spans,
    ) -> Phase {
        let mut phase = Phase {
            per_template_ms: vec![Vec::new(); SsbQuery::all().len()],
            ..Phase::default()
        };
        let started = Instant::now();
        let mut issued = 0u64;
        let mut passes_before = probe.passes();
        loop {
            let (mut raw_seconds, mut scaled_seconds) = (0.0, 0.0);
            for _ in 0..BLOCK / SEGMENT {
                let segment_started = Instant::now();
                let latencies = self.segment(schedule, &mut issued, spans, &mut phase.outcomes);
                let segment_seconds = segment_started.elapsed().as_secs_f64();
                let passes_after = probe.passes();
                let slowdown = pace::slowdown_between(&passes_before, &passes_after);
                passes_before = passes_after;
                for (template, latency) in latencies {
                    phase.latencies_ms.push(latency / slowdown);
                    phase.per_template_ms[template].push(latency / slowdown);
                }
                raw_seconds += segment_seconds;
                scaled_seconds += segment_seconds / slowdown;
            }
            phase.block_seconds.push(scaled_seconds);
            phase.slowdowns.push(raw_seconds / scaled_seconds);
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        phase
    }

    /// Issue the next `SEGMENT` requests of the schedule, keeping
    /// `OUTSTANDING` in flight, and wait for every reply.  Returns each
    /// replied request's template and latency (ms); outcomes go to
    /// `outcomes`.
    fn segment(
        &self,
        schedule: &mut Schedule,
        issued: &mut u64,
        spans: &mut Spans,
        outcomes: &mut Vec<Reply>,
    ) -> Vec<(usize, f64)> {
        let mut latencies = Vec::with_capacity(SEGMENT);
        let mut in_flight = VecDeque::new();
        let mut segment_issued = 0usize;
        loop {
            while in_flight.len() < OUTSTANDING && segment_issued < SEGMENT {
                segment_issued += 1;
                *issued += 1;
                let request = schedule.next_request();
                let span = spans.open(&format!("server.request.{}", request.template), *issued);
                let session = &self.sessions[usize::from(!request.head)];
                let enqueued = Instant::now();
                match session.enqueue(&request.sql) {
                    Ok(pending) => in_flight.push_back((request, enqueued, span, pending)),
                    Err(error) => {
                        spans.close(span);
                        outcomes.push((request.sql, Err(error.to_string())));
                    }
                }
            }
            let Some((request, enqueued, span, pending)) = in_flight.pop_front() else {
                return latencies;
            };
            let reply = PendingQuery::wait(pending);
            let latency = crate::report::ms(enqueued.elapsed());
            spans.close(span);
            latencies.push((request.template, latency));
            let outcome = reply
                .map(|output| digest(&sorted_rows(output)))
                .map_err(|error| error.to_string());
            outcomes.push((request.sql, outcome));
        }
    }

    /// The `server` and `cache` layer metrics, and the intermediate bytes
    /// fusion avoided, since the server started.
    pub fn layer_metrics(&self, metrics: &mut Metrics) {
        let stats = self.server.stats();
        let registry = self.server.metrics();
        let ns_to_ms = |ns: u64| ns as f64 / 1e6;
        // The tail's tenant: its requests queue behind the head's and run
        // in the engine.
        let labels = [("tenant", TENANTS[1])];
        let queue = registry.histogram("morph_queue_wait_ns", "", &labels);
        let service = registry.histogram("morph_execution_ns", "", &labels);
        for (name, q) in [("p50", 0.50), ("p99", 0.99)] {
            let wait = ns_to_ms(queue.value_at_quantile(q));
            metrics.set(format!("server.queue_wait_ms.{name}"), wait, "ms");
            let run = ns_to_ms(service.value_at_quantile(q));
            metrics.set(format!("server.service_ms.{name}"), run, "ms");
        }
        metrics.set("server.rejected", stats.rejected as f64, "count");
        let (mut hits, mut lookups, mut insertions, mut evictions, mut bytes) = (0, 0, 0, 0, 0);
        for tenant in &stats.tenants {
            hits += tenant.cache.hits;
            lookups += tenant.cache.hits + tenant.cache.misses;
            insertions += tenant.cache.insertions;
            evictions += tenant.cache.evictions;
            bytes += tenant.cache.bytes_used;
        }
        metrics.set("cache.hit_rate", hits as f64 / lookups as f64, "ratio");
        metrics.set("cache.insertions", insertions as f64, "count");
        metrics.set("cache.evictions", evictions as f64, "count");
        metrics.set("cache.bytes_used_mib", mib(bytes), "MiB");
        metrics.set(
            "core.intermediate_bytes_avoided_mib",
            mib(registry.counter_total("morph_intermediate_bytes_avoided_total") as usize),
            "MiB",
        );
    }
}

/// What one closed-loop phase measured.  Times are scaled to the reference
/// host speed by the probe passes around each segment (see `pace`).
#[derive(Debug, Default)]
pub struct Phase {
    /// Scaled latency of every request (ms).
    pub latencies_ms: Vec<f64>,
    /// Scaled latencies per template, in `SsbQuery::all()` order (ms).
    pub per_template_ms: Vec<Vec<f64>>,
    /// Scaled time of every block: its segments' scaled times, each from
    /// the first enqueue to the last reply, summed (s).
    pub block_seconds: Vec<f64>,
    /// Every block's slowdown against the reference host speed: its raw
    /// time over its scaled time.
    pub slowdowns: Vec<f64>,
    /// Every request's text and result digest (or error).
    pub outcomes: Vec<Reply>,
}

impl Phase {
    /// Requests per second of the median block (every block holds the same
    /// mix): the median discards a block that host noise slowed more than
    /// the probe passes around it saw.
    pub fn qps(&self) -> f64 {
        BLOCK as f64 / median(&self.block_seconds)
    }

    /// Requests per second of the median block, unscaled.
    pub fn raw_qps(&self) -> f64 {
        let raw: Vec<f64> = self
            .block_seconds
            .iter()
            .zip(&self.slowdowns)
            .map(|(seconds, slowdown)| seconds * slowdown)
            .collect();
        BLOCK as f64 / median(&raw)
    }
}

pub fn digest(rows: &Rows) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    rows.hash(&mut hasher);
    hasher.finish()
}

/// Check every reply against a serial uncompressed execution of the same
/// compiled SQL over `data`, computed on two threads once per distinct
/// text.  Returns `(attempted, failed)`.
pub fn check(data: &SsbData, outcomes: &[Reply]) -> (u64, u64) {
    let texts: Vec<&Arc<str>> = {
        let set: HashSet<&Arc<str>> = outcomes.iter().map(|(sql, _)| sql).collect();
        set.into_iter().collect()
    };
    let expected: Mutex<HashMap<&str, u64>> = Mutex::new(HashMap::new());
    let next = AtomicUsize::new(0);
    let catalog = morph_ssb::ssb_catalog();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(sql) = texts.get(i) else { break };
                let Ok(compiled) = morph_sql::compile(sql, &catalog) else {
                    continue;
                };
                let mut ctx = ExecutionContext::new(
                    ExecSettings::vectorized_uncompressed(),
                    FormatConfig::uncompressed(),
                );
                if let Ok(rows) = execute(compiled.plan(), data, &mut ctx) {
                    expected
                        .lock()
                        .expect("no thread panics holding the lock")
                        .insert(sql, digest(&rows));
                }
            });
        }
    });
    let expected = expected
        .into_inner()
        .expect("no thread panics holding the lock");
    let mut failed = 0u64;
    let mut reported = HashSet::new();
    for (sql, outcome) in outcomes {
        let problem = match outcome {
            Ok(d) if expected.get(sql.as_ref()) == Some(d) => continue,
            Ok(_) => "result differs from the reference",
            Err(error) => error.as_str(),
        };
        failed += 1;
        if reported.insert(sql) {
            eprintln!("perfbench: failed: {problem}: {sql}");
        }
    }
    (outcomes.len() as u64, failed)
}

/// Bytes an unbounded cache holds after the head's 13 queries have run once
/// through it under `config`: the head's working set.
pub fn head_working_set_bytes(data: &SsbData, config: &ServerConfig) -> usize {
    let catalog = morph_ssb::ssb_catalog();
    let cache = Arc::new(QueryCache::with_budget(usize::MAX / 2));
    for query in SsbQuery::all() {
        if let Ok(compiled) = morph_sql::compile(query.sql(), &catalog) {
            let settings = config.settings.clone().with_cache(Arc::clone(&cache));
            let mut ctx = ExecutionContext::new(settings, config.formats.clone());
            let _ = catch_unwind(AssertUnwindSafe(|| {
                compiled.try_execute_parallel(data, &mut ctx, config.threads_per_query)
            }));
        }
    }
    cache.stats().bytes_used
}

/// One traced pass of the 13 SSB texts under `config` (no cache): the plan
/// time per operator, and the materialised intermediate bytes.
pub fn sql_pass(data: &SsbData, config: &ServerConfig) -> (OpTimes, usize) {
    let catalog = morph_ssb::ssb_catalog();
    let mut times = OpTimes::default();
    let mut bytes = 0;
    for query in SsbQuery::all() {
        let Ok(compiled) = morph_sql::compile(query.sql(), &catalog) else {
            continue;
        };
        let tracer = Arc::new(QueryTracer::new());
        let settings = config.settings.clone().with_tracer(Arc::clone(&tracer));
        let mut ctx = ExecutionContext::new(settings, config.formats.clone());
        let _ = catch_unwind(AssertUnwindSafe(|| {
            compiled.try_execute_parallel(data, &mut ctx, config.threads_per_query)
        }));
        bytes += ctx.intermediate_footprint_bytes();
        if let Some(trace) = tracer.last_trace() {
            times.add_trace(compiled.plan(), &trace);
        }
    }
    (times, bytes)
}

/// Median time of `morph_sql::compile` over one block of the mix's texts,
/// in microseconds.
pub fn compile_us(seed: u64, spans: &mut Spans) -> f64 {
    let catalog = morph_ssb::ssb_catalog();
    let mut schedule = Schedule::new(seed);
    for _ in 0..BLOCK {
        let request = schedule.next_request();
        for _ in 0..5 {
            let _ = spans.time("sql.compile", 0, || {
                morph_sql::compile(&request.sql, &catalog)
            });
        }
    }
    let samples: Vec<f64> = spans
        .durations("sql.compile")
        .iter()
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    median(&samples)
}

/// The latency percentiles of a phase, under `prefix`.
pub fn latency_metrics(metrics: &mut Metrics, prefix: &str, latencies_ms: &[f64]) {
    for (name, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        metrics.set(format!("{prefix}.{name}"), quantile(latencies_ms, q), "ms");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_zero_is_the_ssb_text_and_variants_differ() {
        for query in SsbQuery::all() {
            assert_eq!(variant_sql(query, 0), query.sql());
            let n = 200.min(domain_size(query));
            let texts: HashSet<String> = (0..n).map(|v| variant_sql(query, v)).collect();
            assert_eq!(texts.len(), n, "{query}");
        }
    }

    #[test]
    fn every_variant_compiles() {
        let catalog = morph_ssb::ssb_catalog();
        for query in SsbQuery::all() {
            for v in [1, 7, domain_size(query) / 2, domain_size(query) - 1] {
                let sql = variant_sql(query, v);
                assert!(morph_sql::compile(&sql, &catalog).is_ok(), "{sql}");
            }
        }
    }

    #[test]
    fn blocks_hold_the_head_share() {
        let mut schedule = Schedule::new(9);
        let head = (0..BLOCK).filter(|_| schedule.next_request().head).count();
        assert_eq!(head, (BLOCK as f64 * HEAD_SHARE).round() as usize);
    }
}
