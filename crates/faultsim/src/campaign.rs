//! The discrete-event campaign engine.
//!
//! [`Campaign::run`] drives every hazard process, propagation chain, the
//! storm episode and the health-check/repair loop over the configured
//! calendar, producing ground truth ([`clustersim::GpuErrorEvent`]s), raw
//! log text ([`hpclog::archive::Archive`]), the outage ledger
//! ([`clustersim::DowntimeLedger`]) and scheduler-facing hold windows, in
//! one deterministic pass.
//!
//! # Incidents, cycles, holds
//!
//! Error kinds whose recovery needs a reset *flap*: the health check drains
//! the node, the reboot fails to clear the fault, the error re-fires, and
//! the cycle repeats until SREs resolve it. One root **incident** therefore
//! produces a chain of **cycles**, each contributing one logged error and
//! one reboot ([`clustersim::Outage`] in the ledger — this is what makes
//! Table I's 3,857 GSP errors consistent with §V-C's thousands of repair
//! episodes and with Table II's few affected jobs). The node is
//! unschedulable for the whole episode; that window is exported as a *hold*
//! for the scheduler simulator, which kills no jobs (drains let jobs
//! finish, §V-C) but blocks new placements.

use crate::config::FaultConfig;
use crate::duplication::Duplicator;
use crate::hazard::PiecewiseHazard;
use crate::memory::MemoryChain;
use crate::nvlink::NvlinkFanout;
use crate::queue::EventQueue;
use crate::rates::CalibratedRates;
use clustersim::{Cluster, DowntimeLedger, GpuErrorEvent, GpuId, IncidentId, NodeId, Outage};
use hpclog::archive::Archive;
use hpclog::chaos::{ChaosInjector, ChaosStats};
use hpclog::{PciAddr, XidEvent};
use simrng::dist::{Exponential, Poisson, Sample};
use simrng::Rng;
use simtime::{Duration, Phase, Timestamp};
use std::collections::BTreeMap;
use xid::{ErrorKind, RecoveryAction, XidCode};

/// Which hazard process a [`Proc`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcKind {
    Mmu,
    Gsp,
    Pmu,
    Fallen,
    Memory,
    Nvlink,
}

/// One hazard process bound to a GPU (or, for NVLink, a node).
#[derive(Debug, Clone)]
struct Proc {
    kind: ProcKind,
    node: NodeId,
    gpu: Option<GpuId>,
    hazard: PiecewiseHazard,
    rng: Rng,
}

/// Scheduled simulation events.
#[derive(Debug, Clone)]
enum Ev {
    /// A hazard process fires (a new incident begins).
    Fire(usize),
    /// A single error lands on a GPU (episode cycle, burst member, chain
    /// sub-event or propagated follower).
    Error {
        gpu: GpuId,
        kind: ErrorKind,
        incident: IncidentId,
    },
    /// The storm GPU emits its next error.
    StormTick,
}

/// Aggregate counters of a finished campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignStats {
    counts: BTreeMap<ErrorKind, (u64, u64)>,
    incidents: u64,
    raw_lines: u64,
    noise_lines: u64,
    replacements: u64,
}

impl CampaignStats {
    /// Ground-truth error count for `(kind, phase)`.
    pub fn count(&self, kind: ErrorKind, phase: Phase) -> u64 {
        let pair = self.counts.get(&kind).copied().unwrap_or((0, 0));
        match phase {
            Phase::PreOp => pair.0,
            Phase::Op => pair.1,
        }
    }

    /// Total ground-truth errors in a phase.
    pub fn total(&self, phase: Phase) -> u64 {
        ErrorKind::STUDIED
            .iter()
            .map(|&k| self.count(k, phase))
            .sum()
    }

    /// Number of distinct root incidents.
    pub fn incidents(&self) -> u64 {
        self.incidents
    }

    /// Raw error log lines emitted (including duplicates, excluding
    /// background noise).
    pub fn raw_lines(&self) -> u64 {
        self.raw_lines
    }

    /// Benign background lines written into the archive.
    pub fn noise_lines(&self) -> u64 {
        self.noise_lines
    }

    /// GPUs physically replaced under the repeated-RRF rule.
    pub fn replacements(&self) -> u64 {
        self.replacements
    }
}

/// Everything a campaign produces.
#[derive(Debug, Clone)]
pub struct CampaignOutput {
    /// Ground-truth errors, in time order.
    pub ground_truth: Vec<GpuErrorEvent>,
    /// The rendered per-day log archive (empty when `emit_logs` is off).
    pub archive: Archive,
    /// Completed node reboots (one per episode cycle): the availability and
    /// Fig. 2 data source.
    pub ledger: DowntimeLedger,
    /// Scheduler-facing unschedulable windows, one per *episode*, merged
    /// per node. Feed these to `slurmsim` as its outage list.
    pub holds: Vec<Outage>,
    /// Aggregate counters.
    pub stats: CampaignStats,
    /// The configuration the campaign ran with.
    pub config: FaultConfig,
}

impl CampaignOutput {
    /// Ground-truth events within a phase.
    pub fn events_in(&self, phase: Phase) -> impl Iterator<Item = &GpuErrorEvent> {
        let periods = self.config.periods;
        self.ground_truth
            .iter()
            .filter(move |e| periods.period_of(e.time) == Some(phase))
    }

    /// Renders the archive to the syslog byte stream the analysis pipeline
    /// ingests. With `config.chaos` set, the stream is fed through a
    /// [`ChaosInjector`] on the way out — corrupted exactly as the seeded
    /// configuration dictates — and the injector's [`ChaosStats`] are
    /// returned so a test can check the quarantine ledger accounts for
    /// every injected defect. Without chaos the stats are `None` and the
    /// bytes are the clean rendering.
    pub fn render_log(&self) -> (Vec<u8>, Option<ChaosStats>) {
        match self.config.chaos {
            Some(chaos) => {
                let mut injector = ChaosInjector::new(chaos);
                let bytes = injector.corrupt_archive(&self.archive);
                (bytes, Some(injector.stats()))
            }
            None => {
                let mut out = Vec::new();
                for line in self.archive.iter() {
                    out.extend_from_slice(line.to_string().as_bytes());
                    out.push(b'\n');
                }
                (out, None)
            }
        }
    }
}

/// A configured, runnable fault-injection campaign.
///
/// See the [crate docs](crate) for the model description.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: FaultConfig,
}

impl Campaign {
    /// Creates a campaign from a configuration.
    pub fn new(config: FaultConfig) -> Self {
        Campaign { config }
    }

    /// The configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Runs the campaign to completion.
    pub fn run(&self) -> CampaignOutput {
        let mut span = obs::span("stage_campaign");
        let output = Engine::new(self.config.clone()).run();
        span.add_items(output.stats.raw_lines() + output.stats.noise_lines());
        record_campaign_metrics(&output.stats);
        output
    }
}

/// Publishes a finished campaign's ground-truth tallies — per hazard
/// class and phase — to the global metrics registry. Write-only.
fn record_campaign_metrics(stats: &CampaignStats) {
    if !obs::is_enabled() {
        return;
    }
    for phase in [Phase::PreOp, Phase::Op] {
        let phase_label = match phase {
            Phase::PreOp => "pre_op",
            Phase::Op => "op",
        };
        for kind in ErrorKind::STUDIED {
            let count = stats.count(kind, phase);
            if count > 0 {
                obs::counter(
                    "faultsim_events_total",
                    &[("kind", kind.abbreviation()), ("phase", phase_label)],
                )
                .add(count);
            }
        }
    }
    obs::counter("faultsim_incidents_total", &[]).add(stats.incidents());
    obs::counter("faultsim_raw_lines_total", &[]).add(stats.raw_lines());
    obs::counter("faultsim_noise_lines_total", &[]).add(stats.noise_lines());
    obs::counter("faultsim_replacements_total", &[]).add(stats.replacements());
}

/// Internal mutable engine state.
struct Engine {
    config: FaultConfig,
    cluster: Cluster,
    procs: Vec<Proc>,
    queue: EventQueue<Ev>,
    memory_chains: BTreeMap<GpuId, MemoryChain>,
    fanout: NvlinkFanout,
    duplicator: Duplicator,
    storm_duplicator: Option<Duplicator>,
    fx: Rng,
    next_incident: u64,
    rrf_counts: BTreeMap<GpuId, u32>,
    ground_truth: Vec<GpuErrorEvent>,
    archive: Archive,
    ledger: DowntimeLedger,
    raw_holds: Vec<Outage>,
    stats: CampaignStats,
}

impl Engine {
    fn new(config: FaultConfig) -> Self {
        let cluster = Cluster::new(config.spec);
        let root = Rng::seed_from(config.seed);
        let rates = config.rates;
        let periods = config.periods;

        let mut procs = Vec::new();
        let mut push_proc = |kind, node, gpu, pair: (f64, f64), stream: u64| {
            procs.push(Proc {
                kind,
                node,
                gpu,
                hazard: PiecewiseHazard::new(periods, pair.0, pair.1),
                rng: root.fork(stream),
            });
        };
        let mut stream = 0u64;
        for gpu in cluster.gpus() {
            let node = gpu.node;
            for (kind, pair) in [
                (ProcKind::Mmu, rates.mmu_per_gpu_hour),
                (ProcKind::Gsp, rates.gsp_per_gpu_hour),
                (ProcKind::Pmu, rates.pmu_per_gpu_hour),
                (ProcKind::Fallen, rates.fallen_per_gpu_hour),
                (ProcKind::Memory, rates.uncorrectable_per_gpu_hour),
            ] {
                push_proc(kind, node, Some(gpu), pair, stream);
                stream += 1;
            }
        }
        for node in cluster.nodes() {
            push_proc(
                ProcKind::Nvlink,
                node.id(),
                None,
                rates.nvlink_incidents_per_node_hour,
                stream,
            );
            stream += 1;
        }

        let node_count = cluster.node_count();
        let storm_duplicator = config.storm.map(|s| {
            Duplicator::new(crate::config::DuplicationConfig {
                mean_extra: s.duplicate_mean_extra,
                window: config.duplication.window,
            })
        });
        Engine {
            cluster,
            procs,
            queue: EventQueue::new(),
            memory_chains: BTreeMap::new(),
            fanout: NvlinkFanout::new(config.propagation.nvlink_fanout_weights),
            duplicator: Duplicator::new(config.duplication),
            storm_duplicator,
            fx: root.fork(u64::MAX),
            next_incident: 0,
            rrf_counts: BTreeMap::new(),
            ground_truth: Vec::new(),
            archive: Archive::new(),
            ledger: DowntimeLedger::new(node_count),
            raw_holds: Vec::new(),
            stats: CampaignStats::default(),
            config,
        }
    }

    fn run(mut self) -> CampaignOutput {
        let start = self.config.periods.pre_op.start;
        // Seed the queue with every process's first firing.
        for i in 0..self.procs.len() {
            let p = &mut self.procs[i];
            if let Some(t) = p.hazard.next_fire(start, &mut p.rng) {
                self.queue.push(t, Ev::Fire(i));
            }
        }
        if let Some(storm) = self.config.storm {
            if self.cluster.contains_gpu(storm.gpu) {
                self.queue.push(storm.start, Ev::StormTick);
            }
        }
        if self.config.emit_logs && self.config.noise_lines_per_node_day > 0.0 {
            // Benign background traffic, bulk-generated per node (the
            // archive time-orders within each day regardless of insertion
            // order).
            let window = self.config.periods.whole();
            let rate = self.config.noise_lines_per_node_day;
            let mut noise_rng = self.fx.fork(0x4015E);
            for node in self.cluster.nodes() {
                for line in crate::noise::node_noise(node.id(), window, rate, &mut noise_rng) {
                    self.archive.push(line);
                    self.stats.noise_lines += 1;
                }
            }
        }

        while let Some((t, ev)) = self.queue.pop() {
            match ev {
                Ev::Fire(i) => self.on_fire(t, i),
                Ev::Error {
                    gpu,
                    kind,
                    incident,
                } => self.emit(t, gpu, kind, incident, false),
                Ev::StormTick => self.on_storm_tick(t),
            }
        }

        self.ground_truth.sort_by_key(|e| e.time);
        let holds = merge_holds(std::mem::take(&mut self.raw_holds));
        CampaignOutput {
            ground_truth: self.ground_truth,
            archive: self.archive,
            ledger: self.ledger,
            holds,
            stats: self.stats,
            config: self.config,
        }
    }

    fn on_fire(&mut self, t: Timestamp, i: usize) {
        // Reschedule first so the process keeps its own rng stream.
        let (kind, node, gpu) = {
            let p = &mut self.procs[i];
            if let Some(next) = p.hazard.next_fire(t, &mut p.rng) {
                self.queue.push(next, Ev::Fire(i));
            }
            (p.kind, p.node, p.gpu)
        };
        let incident = self.new_incident();
        let episodes = self.config.episodes;
        // Every ProcKind except Nvlink is constructed with `gpu: Some(..)`
        // in `Engine::new`, so the per-kind `expect`s below cannot fire.
        match kind {
            ProcKind::Mmu => {
                let gpu = gpu.expect("MMU process is GPU-bound");
                self.emit(t, gpu, ErrorKind::MmuError, incident, false);
                // Short same-GPU burst; MMU needs no reset, so no cycles.
                let extras = Poisson::new(episodes.mmu_extra_mean.max(1e-9))
                    .expect("validated configuration")
                    .sample(&mut self.fx);
                let gap = Exponential::with_mean(episodes.mmu_gap_mean.as_secs().max(1) as f64)
                    .expect("positive mean");
                let mut tc = t;
                for _ in 0..extras {
                    tc = tc + Duration::from_secs(gap.sample(&mut self.fx).ceil() as u64 + 1);
                    self.queue.push(
                        tc,
                        Ev::Error {
                            gpu,
                            kind: ErrorKind::MmuError,
                            incident,
                        },
                    );
                }
            }
            ProcKind::Gsp => {
                let gpu = gpu.expect("GSP process is GPU-bound");
                self.run_episode(
                    t,
                    ErrorKind::GspError,
                    incident,
                    episodes.gsp_cycles_mean,
                    EpisodeTarget::Gpu(gpu),
                );
            }
            ProcKind::Pmu => {
                let gpu = gpu.expect("PMU process is GPU-bound");
                self.emit(t, gpu, ErrorKind::PmuSpiError, incident, false);
                self.schedule_pmu_followers(t, gpu, incident);
            }
            ProcKind::Fallen => {
                let gpu = gpu.expect("fallen-off-bus process is GPU-bound");
                self.run_episode(
                    t,
                    ErrorKind::FallenOffBus,
                    incident,
                    episodes.fallen_cycles_mean,
                    EpisodeTarget::Gpu(gpu),
                );
            }
            ProcKind::Memory => {
                let gpu = gpu.expect("memory process is GPU-bound");
                self.run_memory_chain(t, gpu, incident);
            }
            ProcKind::Nvlink => {
                self.run_episode(
                    t,
                    ErrorKind::NvlinkError,
                    incident,
                    episodes.nvlink_cycles_mean,
                    EpisodeTarget::NodeFanout(node),
                );
            }
        }
    }

    /// Plays out a flapping episode: `cycles` ≈ 1 + Poisson(mean − 1)
    /// error/reboot rounds, one ledger outage per round, one merged hold
    /// for the scheduler covering the whole episode.
    fn run_episode(
        &mut self,
        t: Timestamp,
        kind: ErrorKind,
        incident: IncidentId,
        cycles_mean: f64,
        target: EpisodeTarget,
    ) {
        let node = match target {
            EpisodeTarget::Gpu(gpu) => gpu.node,
            EpisodeTarget::NodeFanout(node) => node,
        };
        let Some(plan) = self.config.health.response(kind) else {
            // Non-critical kinds never reach here, but stay safe.
            if let EpisodeTarget::Gpu(gpu) = target {
                self.emit(t, gpu, kind, incident, false);
            }
            return;
        };
        let cycles = if cycles_mean > 1.0 {
            1 + Poisson::new(cycles_mean - 1.0)
                .expect("validated configuration")
                .sample(&mut self.fx)
        } else {
            1
        };
        let gap =
            Exponential::with_mean(self.config.episodes.cycle_gap_mean.as_secs().max(1) as f64)
                .expect("positive mean");
        let end = self.config.periods.op.end;
        let mut tc = t;
        let mut hold_end = t;
        for _ in 0..cycles {
            if tc >= end {
                break;
            }
            match target {
                EpisodeTarget::Gpu(gpu) => {
                    self.queue.push(
                        tc,
                        Ev::Error {
                            gpu,
                            kind,
                            incident,
                        },
                    );
                }
                EpisodeTarget::NodeFanout(node) => {
                    let Some(node_ref) = self.cluster.node(node) else {
                        return;
                    };
                    for gpu in self.fanout.touched_gpus(node_ref, &mut self.fx) {
                        self.queue.push(
                            tc,
                            Ev::Error {
                                gpu,
                                kind,
                                incident,
                            },
                        );
                    }
                }
            }
            // One drain + reboot per cycle.
            let reboot_start = tc + plan.detect_delay + plan.drain_time;
            let duration = self.config.repair.sample(plan.action, &mut self.fx);
            self.ledger.record(Outage {
                node,
                start: reboot_start,
                duration,
                action: plan.action,
            });
            hold_end = reboot_start + duration;
            tc = hold_end + Duration::from_secs(gap.sample(&mut self.fx).ceil() as u64 + 1);
        }
        // The scheduler sees one continuous unschedulable window.
        self.raw_holds.push(Outage {
            node,
            start: t + plan.detect_delay,
            duration: hold_end - (t + plan.detect_delay),
            action: plan.action,
        });
    }

    fn schedule_pmu_followers(&mut self, t: Timestamp, gpu: GpuId, incident: IncidentId) {
        let prop = self.config.propagation;
        if !self.fx.bool_with(prop.pmu_mmu_burst_prob) {
            return;
        }
        let count = Poisson::new(prop.pmu_mmu_burst_mean)
            .expect("burst mean is validated configuration")
            .sample(&mut self.fx);
        let delay_dist = Exponential::with_mean(prop.pmu_mmu_mean_delay.as_secs().max(1) as f64)
            .expect("mean delay is positive");
        for _ in 0..count {
            let delay = Duration::from_secs(delay_dist.sample(&mut self.fx).ceil() as u64 + 1);
            self.queue.push(
                t + delay,
                Ev::Error {
                    gpu,
                    kind: ErrorKind::MmuError,
                    incident,
                },
            );
        }
    }

    fn run_memory_chain(&mut self, t: Timestamp, gpu: GpuId, incident: IncidentId) {
        let phase = match self.config.periods.period_of(t) {
            Some(p) => p,
            None => return,
        };
        let rates: CalibratedRates = self.config.rates;
        let chain = self.memory_chains.entry(gpu).or_default();
        let outcome = chain.fault(&rates, phase, &mut self.fx);
        // Sub-events land a second apart, mirroring the driver's cadence.
        for (offset, kind) in outcome.events.iter().enumerate() {
            self.queue.push(
                t + Duration::from_secs(offset as u64),
                Ev::Error {
                    gpu,
                    kind: *kind,
                    incident,
                },
            );
        }
        // SRE replacement rule: a GPU that keeps failing to remap gets
        // physically swapped, restoring its spare-row budget.
        let threshold = self.config.rrf_replacement_threshold;
        let mut action = if outcome.needs_reset {
            RecoveryAction::SreIntervention
        } else {
            // Row remapping activates at the next GPU reset (Table I), so
            // every uncorrectable fault schedules one drain/reboot cycle.
            RecoveryAction::GpuReset
        };
        if threshold > 0 && outcome.events.contains(&ErrorKind::RowRemapFailure) {
            let count = self.rrf_counts.entry(gpu).or_insert(0);
            *count += 1;
            if *count >= threshold {
                *count = 0;
                self.stats.replacements += 1;
                // A RowRemapFailure outcome only comes out of this GPU's
                // chain, so the entry must exist.
                self.memory_chains
                    .get_mut(&gpu)
                    .expect("chain just used")
                    .replace();
                action = RecoveryAction::GpuReplacement;
            }
        }
        if let Some(plan) = self.config.health.response(ErrorKind::RowRemapEvent) {
            let reboot_start = t + plan.detect_delay + plan.drain_time;
            let duration = self.config.repair.sample(action, &mut self.fx);
            self.ledger.record(Outage {
                node: gpu.node,
                start: reboot_start,
                duration,
                action,
            });
            self.raw_holds.push(Outage {
                node: gpu.node,
                start: t + plan.detect_delay,
                duration: plan.drain_time + duration,
                action,
            });
        }
    }

    fn on_storm_tick(&mut self, t: Timestamp) {
        let Some(storm) = self.config.storm else {
            return;
        };
        if t >= storm.end() {
            return;
        }
        let incident = self.new_incident();
        self.emit(
            t,
            storm.gpu,
            ErrorKind::UncontainedMemoryError,
            incident,
            true,
        );
        // The storm predates the automated health checks (§IV(vi): it ran
        // 17 days without recovery), so no drain is triggered. Gaps carry
        // a floor of 30 s (or 80% of the mean for very hot storms): the
        // driver throttles identical-error reporting, which is what lets
        // the study count storm errors as distinct events after Δt
        // coalescing rather than merging the whole episode away.
        let mean_gap_secs = 3600.0 / storm.errors_per_hour;
        let floor = (0.8 * mean_gap_secs).min(30.0);
        let exp_gap = Exponential::with_mean((mean_gap_secs - floor).max(0.1))
            .expect("storm rate is validated configuration")
            .sample(&mut self.fx);
        let gap = Duration::from_secs(((floor + exp_gap).ceil() as u64).max(1));
        self.queue.push(t + gap, Ev::StormTick);
    }

    /// Records one ground-truth error and renders its log lines.
    fn emit(
        &mut self,
        t: Timestamp,
        gpu: GpuId,
        kind: ErrorKind,
        incident: IncidentId,
        storm: bool,
    ) {
        let Some(phase) = self.config.periods.period_of(t) else {
            return;
        };
        self.ground_truth
            .push(GpuErrorEvent::new(t, gpu, kind, incident));
        let entry = self.stats.counts.entry(kind).or_insert((0, 0));
        match phase {
            Phase::PreOp => entry.0 += 1,
            Phase::Op => entry.1 += 1,
        }
        if self.config.emit_logs {
            self.render_lines(t, gpu, kind, storm);
        }
    }

    fn render_lines(&mut self, t: Timestamp, gpu: GpuId, kind: ErrorKind, storm: bool) {
        let pid = self.fx.range(1000, 4_000_000) as u32;
        // GSP and PMU kinds span two XID codes; pick either like real logs.
        let code = match kind {
            ErrorKind::GspError if self.fx.bool_with(0.5) => XidCode::GSP_ERROR,
            ErrorKind::PmuSpiError if self.fx.bool_with(0.5) => XidCode::PMU_SPI_WRITE_FAILURE,
            other => other.primary_code(),
        };
        let event = XidEvent::new(
            t,
            gpu.node.hostname(),
            PciAddr::for_gpu_index(gpu.index),
            code,
            XidEvent::canonical_detail(kind, pid),
        );
        let duplicator = if storm {
            self.storm_duplicator.as_ref().unwrap_or(&self.duplicator)
        } else {
            &self.duplicator
        };
        let times = duplicator.line_times(t, &mut self.fx);
        for lt in times {
            let mut line_event = event.clone();
            line_event.time = lt;
            self.archive.push(line_event.to_log_line());
            self.stats.raw_lines += 1;
        }
    }

    fn new_incident(&mut self) -> IncidentId {
        let id = IncidentId(self.next_incident);
        self.next_incident += 1;
        self.stats.incidents += 1;
        id
    }
}

/// Episode targets: a single GPU or a node with per-cycle NVLink fan-out.
#[derive(Debug, Clone, Copy)]
enum EpisodeTarget {
    Gpu(GpuId),
    NodeFanout(NodeId),
}

/// Merges overlapping holds per node so the scheduler sees disjoint
/// unschedulable windows.
fn merge_holds(mut holds: Vec<Outage>) -> Vec<Outage> {
    holds.sort_by_key(|h| (h.node, h.start));
    let mut merged: Vec<Outage> = Vec::with_capacity(holds.len());
    for h in holds {
        match merged.last_mut() {
            Some(last) if last.node == h.node && h.start <= last.end() => {
                if h.end() > last.end() {
                    last.duration = h.end() - last.start;
                }
            }
            _ => merged.push(h),
        }
    }
    merged.sort_by_key(|h| (h.start, h.node));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StormConfig;

    fn tiny_output(seed: u64) -> CampaignOutput {
        Campaign::new(FaultConfig::tiny(seed)).run()
    }

    #[test]
    fn deterministic_across_runs() {
        let a = tiny_output(7);
        let b = tiny_output(7);
        assert_eq!(a.ground_truth, b.ground_truth);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.ledger.outage_count(), b.ledger.outage_count());
        assert_eq!(a.holds.len(), b.holds.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny_output(1);
        let b = tiny_output(2);
        assert_ne!(a.ground_truth, b.ground_truth);
    }

    #[test]
    fn ground_truth_is_time_sorted_and_in_window() {
        let out = tiny_output(3);
        let periods = out.config.periods;
        for pair in out.ground_truth.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        for ev in &out.ground_truth {
            assert!(periods.period_of(ev.time).is_some());
        }
    }

    #[test]
    fn only_studied_kinds_are_generated() {
        let out = tiny_output(4);
        for ev in &out.ground_truth {
            assert!(ev.kind.is_studied(), "{:?}", ev.kind);
        }
    }

    #[test]
    fn render_log_clean_matches_archive() {
        let mut config = FaultConfig::tiny(11);
        config.emit_logs = true;
        config.noise_lines_per_node_day = 2.0;
        let out = Campaign::new(config).run();
        let (bytes, stats) = out.render_log();
        assert!(stats.is_none());
        let expect: Vec<u8> = out
            .archive
            .iter()
            .flat_map(|l| {
                let mut v = l.to_string().into_bytes();
                v.push(b'\n');
                v
            })
            .collect();
        assert_eq!(bytes, expect);
    }

    #[test]
    fn render_log_with_chaos_is_deterministic_and_accounted() {
        let mut config = FaultConfig::tiny(12).with_chaos(0.2);
        config.emit_logs = true;
        config.noise_lines_per_node_day = 2.0;
        let out = Campaign::new(config.clone()).run();
        let (bytes, stats) = out.render_log();
        let stats = stats.expect("chaos configured");
        assert_eq!(stats.lines_in, out.archive.line_count() as u64);
        // Same campaign, same rendering — byte for byte.
        let (again, stats_again) = Campaign::new(config).run().render_log();
        assert_eq!(bytes, again);
        assert_eq!(Some(stats), stats_again);
        // Every injected defect is detected by the byte scanner: the
        // injector's own count is the independent oracle.
        let mut ledger = hpclog::quarantine::QuarantineLedger::new();
        let mut scan = hpclog::stream::LenientScan::new(2022);
        scan.feed_reader(bytes.as_slice(), &mut ledger, &mut Vec::new());
        assert_eq!(ledger.total(), stats.quarantinable());
    }

    #[test]
    fn episodes_produce_outages_and_holds() {
        // Run long enough that at least one GSP/NVLink incident fires.
        let mut config = FaultConfig::tiny(5);
        config.periods = simtime::StudyPeriods::delta_scaled(0.2);
        let out = Campaign::new(config).run();
        let episodic = out
            .ground_truth
            .iter()
            .filter(|e| matches!(e.kind, ErrorKind::GspError | ErrorKind::NvlinkError))
            .count();
        if episodic > 0 {
            assert!(out.ledger.outage_count() > 0);
            assert!(!out.holds.is_empty());
        }
    }

    #[test]
    fn holds_are_disjoint_per_node() {
        let mut config = FaultConfig::tiny(6);
        config.periods = simtime::StudyPeriods::delta_scaled(0.2);
        let out = Campaign::new(config).run();
        let mut by_node: BTreeMap<NodeId, Vec<&Outage>> = BTreeMap::new();
        for h in &out.holds {
            by_node.entry(h.node).or_default().push(h);
        }
        for (_, mut hs) in by_node {
            hs.sort_by_key(|h| h.start);
            for pair in hs.windows(2) {
                assert!(pair[0].end() < pair[1].start, "overlapping holds");
            }
        }
    }

    #[test]
    fn gsp_errors_cluster_into_episodes() {
        let mut config = FaultConfig::tiny(8);
        config.periods = simtime::StudyPeriods::delta_scaled(0.3);
        let out = Campaign::new(config).run();
        let gsp: Vec<_> = out
            .ground_truth
            .iter()
            .filter(|e| e.kind == ErrorKind::GspError)
            .collect();
        if gsp.len() >= 4 {
            // Many errors, few incidents: the episode model at work.
            let mut incidents: Vec<_> = gsp.iter().map(|e| e.incident).collect();
            incidents.sort_unstable();
            incidents.dedup();
            assert!(
                incidents.len() * 2 <= gsp.len(),
                "{} incidents for {} errors",
                incidents.len(),
                gsp.len()
            );
            // All cycles of an incident stay on one GPU.
            for &inc in &incidents {
                let gpus: Vec<_> = gsp
                    .iter()
                    .filter(|e| e.incident == inc)
                    .map(|e| e.gpu)
                    .collect();
                assert!(gpus.windows(2).all(|w| w[0] == w[1]));
            }
        }
    }

    #[test]
    fn no_logs_when_disabled() {
        let out = tiny_output(6);
        assert_eq!(out.archive.line_count(), 0);
        assert_eq!(out.stats.raw_lines(), 0);
    }

    #[test]
    fn logs_at_least_one_line_per_event_when_enabled() {
        let mut config = FaultConfig::tiny(8);
        config.emit_logs = true;
        let out = Campaign::new(config).run();
        assert!(out.archive.line_count() >= out.ground_truth.len());
        assert_eq!(
            (out.stats.raw_lines() + out.stats.noise_lines()) as usize,
            out.archive.line_count()
        );
    }

    #[test]
    fn noise_interleaves_without_perturbing_errors() {
        let mut quiet = FaultConfig::tiny(21);
        quiet.emit_logs = true;
        let mut noisy = quiet.clone();
        noisy.noise_lines_per_node_day = 25.0;
        let a = Campaign::new(quiet).run();
        let b = Campaign::new(noisy).run();
        // Noise must not change the error process at all.
        assert_eq!(a.ground_truth, b.ground_truth);
        assert_eq!(a.stats.raw_lines(), b.stats.raw_lines());
        assert!(b.stats.noise_lines() > 0);
        assert_eq!(
            b.archive.line_count() - a.archive.line_count(),
            b.stats.noise_lines() as usize
        );
    }

    #[test]
    fn storm_generates_expected_volume() {
        let mut config = FaultConfig::tiny(9);
        // A one-day storm at 100/h on a valid GPU.
        let gpu = GpuId::new(NodeId::new(0), 0);
        config.storm = Some(StormConfig {
            gpu,
            start: config.periods.pre_op.start + Duration::from_days(1),
            length: Duration::from_days(1),
            errors_per_hour: 100.0,
            duplicate_mean_extra: 5.0,
        });
        let out = Campaign::new(config).run();
        let storm_events = out
            .ground_truth
            .iter()
            .filter(|e| e.gpu == gpu && e.kind == ErrorKind::UncontainedMemoryError)
            .count();
        assert!(
            (2_000..2_900).contains(&storm_events),
            "storm events {storm_events}"
        );
    }

    #[test]
    fn nvlink_cycles_share_incident_and_node() {
        let mut config = FaultConfig::tiny(10);
        config.periods = simtime::StudyPeriods::delta_scaled(0.3);
        let out = Campaign::new(config).run();
        let mut by_incident: BTreeMap<IncidentId, Vec<&GpuErrorEvent>> = BTreeMap::new();
        for ev in out
            .ground_truth
            .iter()
            .filter(|e| e.kind == ErrorKind::NvlinkError)
        {
            by_incident.entry(ev.incident).or_default().push(ev);
        }
        for (incident, events) in &by_incident {
            let node = events[0].gpu.node;
            for ev in events {
                assert_eq!(ev.gpu.node, node, "{incident}");
            }
        }
    }

    #[test]
    fn events_in_filters_by_phase() {
        let out = tiny_output(11);
        let pre: Vec<_> = out.events_in(Phase::PreOp).collect();
        let op: Vec<_> = out.events_in(Phase::Op).collect();
        assert_eq!(pre.len() + op.len(), out.ground_truth.len());
        assert_eq!(out.stats.total(Phase::PreOp), pre.len() as u64);
        assert_eq!(out.stats.total(Phase::Op), op.len() as u64);
    }

    #[test]
    fn outage_mttr_near_repair_model() {
        let mut config = FaultConfig::tiny(12);
        config.periods = simtime::StudyPeriods::delta_scaled(0.3);
        let out = Campaign::new(config).run();
        if out.ledger.outage_count() >= 30 {
            let mttr = out.ledger.mttr_hours().unwrap();
            assert!(mttr > 0.4 && mttr < 1.6, "MTTR {mttr}");
        }
    }

    #[test]
    fn repeated_rrfs_trigger_replacement() {
        // Crank the uncorrectable rate and force pre-op-style remap
        // failures so RRFs accumulate fast.
        let mut config = FaultConfig::tiny(33);
        config.rates.uncorrectable_per_gpu_hour = (0.05, 0.05);
        config.rates.remap_failure_prob = (0.9, 0.9);
        config.rrf_replacement_threshold = 2;
        let out = Campaign::new(config).run();
        let rrfs = out
            .ground_truth
            .iter()
            .filter(|e| e.kind == ErrorKind::RowRemapFailure)
            .count() as u64;
        assert!(rrfs >= 4, "need RRFs for the test, got {rrfs}");
        assert!(out.stats.replacements() >= 1);
        assert!(out.stats.replacements() <= rrfs / 2);
        // Replacement outages appear in the ledger.
        let swaps = out
            .ledger
            .outages()
            .iter()
            .filter(|o| o.action == RecoveryAction::GpuReplacement)
            .count() as u64;
        assert_eq!(swaps, out.stats.replacements());
    }

    #[test]
    fn zero_threshold_disables_replacement() {
        let mut config = FaultConfig::tiny(33);
        config.rates.uncorrectable_per_gpu_hour = (0.05, 0.05);
        config.rates.remap_failure_prob = (0.9, 0.9);
        config.rrf_replacement_threshold = 0;
        let out = Campaign::new(config).run();
        assert_eq!(out.stats.replacements(), 0);
    }

    #[test]
    fn merge_holds_combines_overlaps() {
        let node = NodeId::new(1);
        let mk = |start: u64, mins: u64| Outage {
            node,
            start: Timestamp::from_unix(start),
            duration: Duration::from_mins(mins),
            action: RecoveryAction::NodeReboot,
        };
        let merged = merge_holds(vec![mk(0, 10), mk(300, 10), mk(5000, 5)]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].start, Timestamp::from_unix(0));
        assert_eq!(merged[0].end(), Timestamp::from_unix(900));
        // Different nodes never merge.
        let other = Outage {
            node: NodeId::new(2),
            ..mk(0, 10)
        };
        let merged = merge_holds(vec![mk(0, 10), other]);
        assert_eq!(merged.len(), 2);
    }
}
