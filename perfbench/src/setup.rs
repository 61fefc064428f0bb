//! Set-up shared by the workloads: SSB data generation, the runtime-objective
//! cost-based format selection, and base-column compression.

use std::collections::HashMap;

use morph_compression::Format;
use morph_ssb::{dbgen, SsbData, SsbQuery};
use morph_storage::{Column, ColumnStats};
use morphstore_engine::exec::FormatConfig;
use morphstore_engine::{ExecSettings, ExecutionContext, PlanExecutor};

use crate::spans::Spans;

/// Per-query format decisions and the base-column formats they imply.
#[derive(Debug, Clone)]
pub struct FormatChoice {
    /// One configuration per query, in `SsbQuery::all()` order, covering the
    /// query's base columns and intermediates.
    pub per_query: Vec<FormatConfig>,
    /// The union of the per-query base-column decisions; columns no query
    /// reads stay out of it.
    pub base: FormatConfig,
    /// Base columns on which two queries chose different formats (the first
    /// query's choice is kept).
    pub disagreements: usize,
}

impl FormatChoice {
    /// Every column uncompressed: the baseline configuration.
    pub fn uncompressed() -> FormatChoice {
        FormatChoice {
            per_query: vec![FormatConfig::uncompressed(); SsbQuery::all().len()],
            base: FormatConfig::uncompressed(),
            disagreements: 0,
        }
    }
}

/// Generate the SSB database for `seed`.
pub fn generate(scale_factor: f64, seed: u64, spans: &mut Spans) -> SsbData {
    spans.time("ssb.dbgen", 0, || dbgen::generate(scale_factor, seed))
}

/// The runtime-objective cost-based selection of the paper's continuous
/// compression configuration: every plan edge (base column or intermediate)
/// gets the format the cost model prefers for its statistics, gathered from
/// one uncompressed reference execution per query.
pub fn select_formats(data: &SsbData, spans: &mut Spans) -> FormatChoice {
    spans.time("cost.select", 0, || {
        let mut per_query = Vec::new();
        let mut base = FormatConfig::default();
        let mut chosen: HashMap<String, Format> = HashMap::new();
        let mut disagreements = 0;
        for query in SsbQuery::all() {
            let plan = query.plan();
            let mut ctx = ExecutionContext::new(
                ExecSettings::vectorized_uncompressed(),
                FormatConfig::uncompressed(),
            );
            ctx.enable_capture();
            PlanExecutor.execute(&plan, data, &mut ctx);
            let mut stats = HashMap::new();
            for edge in plan.edges() {
                let column: Option<&Column> = if edge.is_base {
                    Some(data.column(&edge.name))
                } else {
                    ctx.captured_columns().get(&edge.name)
                };
                if let Some(column) = column {
                    stats.insert(edge.name, ColumnStats::from_column(column));
                }
            }
            let config =
                morph_cost::cost_based_config(&stats, morph_cost::SelectionObjective::Runtime);
            for name in plan.base_columns() {
                let format = config.format_for(&name, Format::Uncompressed);
                match chosen.get(&name) {
                    Some(previous) if *previous != format => disagreements += 1,
                    Some(_) => {}
                    None => {
                        chosen.insert(name.clone(), format);
                        base.insert(&name, format);
                    }
                }
            }
            per_query.push(config);
        }
        FormatChoice {
            per_query,
            base,
            disagreements,
        }
    })
}

/// Re-encode the base columns into the chosen formats.
pub fn compress(data: &SsbData, choice: &FormatChoice, spans: &mut Spans) -> SsbData {
    spans.time("storage.with_formats", 0, || {
        data.with_formats(&choice.base)
    })
}
