//! The benchmark's own spans around every public call into a layer.
//!
//! Spans are kept in memory (one duration per call) and summarised when the
//! run ends: count, total, self time, p50 and p90 per span name. A span's
//! parent is the span open around it (`begin`/`end` open the roots:
//! set-up, quantum, figure pass), and a parent's self time is its total
//! minus the time its child spans cover. A disabled tracer costs one branch
//! per call.

use std::time::Instant;

/// Every span the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Fleet construction and registration.
    Setup,
    /// One control quantum of a fleet workload.
    Quantum,
    /// `Coordinator::advance` (heartbeat ingestion for one app).
    Advance,
    /// `Coordinator::retire`.
    Retire,
    /// `SeecRuntime` construction for one app.
    RuntimeBuild,
    /// `Coordinator::register` or `Coordinator::try_register`.
    Register,
    /// `Coordinator::set_budget`.
    SetBudget,
    /// `Coordinator::step`.
    Step,
    /// One pass over the figure pipelines and the fuzz campaign.
    Pass,
    /// `Figure3::compute_with`.
    Fig3,
    /// `Figure5::compute_with`.
    Fig5,
    /// `Figure5::compute_extended_with`.
    Fig5Extended,
    /// `Figure5Hierarchy::compute_with`.
    Fig5Hierarchy,
    /// `FigureChaos::compute_with` plus `FigureEnforce::from_chaos`.
    Fig5Chaos,
    /// One `scenario_fuzz::fuzz` campaign.
    FuzzCampaign,
    /// One scenario execution inside the campaign.
    FuzzExecution,
}

impl Span {
    const ALL: [Span; 16] = [
        Span::Setup,
        Span::Quantum,
        Span::Advance,
        Span::Retire,
        Span::RuntimeBuild,
        Span::Register,
        Span::SetBudget,
        Span::Step,
        Span::Pass,
        Span::Fig3,
        Span::Fig5,
        Span::Fig5Extended,
        Span::Fig5Hierarchy,
        Span::Fig5Chaos,
        Span::FuzzCampaign,
        Span::FuzzExecution,
    ];

    fn name(self) -> &'static str {
        match self {
            Span::Setup => "setup",
            Span::Quantum => "quantum",
            Span::Advance => "heartbeats.advance",
            Span::Retire => "coordinator.retire",
            Span::RuntimeBuild => "seec.runtime_build",
            Span::Register => "coordinator.register",
            Span::SetBudget => "coordinator.set_budget",
            Span::Step => "coordinator.step",
            Span::Pass => "pass",
            Span::Fig3 => "experiments.fig3",
            Span::Fig5 => "experiments.fig5",
            Span::Fig5Extended => "experiments.fig5_extended",
            Span::Fig5Hierarchy => "experiments.fig5_hierarchy",
            Span::Fig5Chaos => "experiments.fig5_chaos",
            Span::FuzzCampaign => "scenario_fuzz.campaign",
            Span::FuzzExecution => "scenario_fuzz.execution",
        }
    }
}

/// In-memory span store; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    /// Per span: every duration, in nanoseconds (saturating at `u32::MAX`).
    samples: Vec<Vec<u32>>,
    /// Per span: exact total duration, in nanoseconds.
    total_ns: Vec<u64>,
    /// Per span: time covered by its child spans, in nanoseconds.
    child_ns: Vec<u64>,
    /// Per span: the span that was open around it.
    parent: Vec<Option<Span>>,
    open: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        let spans = Span::ALL.len();
        Tracer {
            enabled,
            samples: vec![Vec::new(); spans],
            total_ns: vec![0; spans],
            child_ns: vec![0; spans],
            parent: vec![None; spans],
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (the untraced baseline of a traced run).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a root span; close it with [`Self::end`].
    pub fn begin(&mut self, span: Span) -> Option<Instant> {
        self.enabled.then(|| {
            self.open.push(span);
            Instant::now()
        })
    }

    /// Closes the span opened by [`Self::begin`].
    pub fn end(&mut self, span: Span, started: Option<Instant>) {
        if let Some(started) = started {
            let ns = started.elapsed().as_nanos() as u64;
            self.open.pop();
            self.record(span, ns);
        }
    }

    /// Runs `call` inside a leaf span.
    #[inline]
    pub fn time<T>(&mut self, span: Span, call: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return call();
        }
        let started = Instant::now();
        let value = call();
        self.record(span, started.elapsed().as_nanos() as u64);
        value
    }

    fn record(&mut self, span: Span, ns: u64) {
        let index = span as usize;
        self.samples[index].push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.total_ns[index] += ns;
        if let Some(&parent) = self.open.last() {
            self.child_ns[parent as usize] += ns;
            self.parent[index] = Some(parent);
        }
    }

    /// Number of recorded calls of `span`.
    pub fn count(&self, span: Span) -> usize {
        self.samples[span as usize].len()
    }

    /// The `q`-quantile duration of `span`, in nanoseconds (0 when unused).
    pub fn quantile_ns(&self, span: Span, q: f64) -> f64 {
        let samples = &self.samples[span as usize];
        if samples.is_empty() {
            return 0.0;
        }
        let mut sorted = samples.clone();
        let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
        let (_, value, _) = sorted.select_nth_unstable(rank);
        f64::from(*value)
    }

    /// Writes the per-span summary as JSON to `path`.
    pub fn write_summary(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut rows = Vec::new();
        for span in Span::ALL {
            let index = span as usize;
            if self.samples[index].is_empty() {
                continue;
            }
            rows.push(format!(
                "  {{\"name\": \"{}\", \"parent\": \"{}\", \"count\": {}, \"total_ns\": {}, \
                 \"self_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}}}",
                span.name(),
                self.parent[index].map_or("", Span::name),
                self.samples[index].len(),
                self.total_ns[index],
                self.total_ns[index].saturating_sub(self.child_ns[index]),
                self.quantile_ns(span, 0.5),
                self.quantile_ns(span, 0.9),
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
    }
}
