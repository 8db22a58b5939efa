//! The four workloads and the one measured repetition they share.
//!
//! Every configuration is built here field by field from the runtime's
//! public constructors; nothing reads the environment. A repetition
//! builds the workload, builds the sharded runtime, installs the agents,
//! runs the simulated warm-up (the set-up phase), resets the steady-state
//! counters and then runs the measured window, timing each phase from
//! outside with `Instant` and the process CPU counters.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use actop_core::controllers::{
    install_actop_sharded, ActOpConfig, PartitionAgentConfig, ThreadAgentConfig,
    ThreadAllocatorKind, ETA_SIM_CALIBRATED,
};
use actop_runtime::sharded::{fail_server_sharded, install_sharded_hooks, recover_server_sharded};
use actop_runtime::{
    build_sharded, install_replication_sharded, install_sharded_scrapers,
    install_snapshots_sharded, sharded_lookahead, ClusterMetrics, MigrationCostConfig,
    RepartitionPolicyKind, ReplicationConfig, RuntimeConfig, ShardApp, ShardedCluster,
    SnapshotConfig, SplitThresholds,
};
use actop_sim::{ConservativeRunner, Nanos, Subsystem};
use actop_sketch::SpaceSaving;
use actop_workloads::{HaloConfig, ScaleConfig, ShardedHaloWorkload, ShardedScaleWorkload};

use crate::host::process_cpu_s;
use crate::layers::{
    install_timed_barrier, install_timed_partition, AppProbe, BarrierProbe, PartitionProbe,
    TimedApp,
};

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "halo-converge",
    "scale-celebrity",
    "chaos-restore",
    "halo-2shard",
];

/// What a workload simulates.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Halo Presence: `agents` installs both ActOp agents, `chaos` turns
    /// snapshots on and schedules the two planned crash/recover pairs.
    Halo {
        rate: f64,
        agents: bool,
        chaos: bool,
    },
    /// The Zipf-celebrity scale workload with hot-actor replication on.
    Scale { players: u64 },
}

/// One workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub name: &'static str,
    pub kind: Kind,
    pub servers: usize,
    pub shards: usize,
    pub threads: usize,
    /// Simulated warm-up: part of set-up, excluded from the statistics.
    pub warmup: Nanos,
    /// Simulated measured window.
    pub measure: Nanos,
    /// Simulated latency limit for goodput, milliseconds.
    pub limit_ms: f64,
    /// Whether this is the short self-test shape (fewer simulated seconds).
    pub quick: bool,
}

/// Halo Presence population at the paper's bench-scale point.
const HALO_PLAYERS: u64 = 20_000;
/// Crash plan of `chaos-restore` in seconds after its 30 s window opens
/// (scaled with the window in `--quick` mode): `(server, crash at,
/// recover at)`. The second target hosts the snapshot store
/// (`SnapshotConfig::store_server`).
const CHAOS_PLAN: [(usize, f64, f64); 2] = [(2, 6.0, 8.0), (0, 18.0, 20.0)];
const CHAOS_WINDOW_S: f64 = 30.0;

impl Plan {
    /// The named workload, or `None` for an unknown name. `quick` shrinks
    /// the simulated time five-fold for the self-test.
    pub fn named(name: &str, quick: bool) -> Option<Plan> {
        let name: &'static str = NAMES.iter().find(|n| **n == name).copied()?;
        let halo = |rate, agents, chaos, warmup, measure, shards| Plan {
            name,
            kind: Kind::Halo {
                rate,
                agents,
                chaos,
            },
            servers: 10,
            shards,
            threads: shards,
            warmup: Nanos::from_secs(warmup),
            measure: Nanos::from_secs(measure),
            limit_ms: 20.0,
            quick,
        };
        let mut plan = match name {
            "halo-converge" => halo(6_000.0, true, false, 20, 18, 1),
            "halo-2shard" => halo(6_000.0, true, false, 20, 18, 2),
            "chaos-restore" => halo(4_000.0, false, true, 10, 30, 1),
            "scale-celebrity" => Plan {
                name,
                kind: Kind::Scale { players: 1_000_000 },
                servers: 8,
                shards: 1,
                threads: 1,
                // The celebrity replica ladder needs ~15 s of 2 s cooldowns;
                // at a 30 s warm-up one seed in twelve still melts its tail.
                warmup: Nanos::from_secs(45),
                measure: Nanos::from_secs(90),
                limit_ms: 100.0,
                quick,
            },
            _ => return None,
        };
        if quick {
            plan.warmup = Nanos(plan.warmup.as_nanos() / 5);
            plan.measure = Nanos(plan.measure.as_nanos() / 5);
        }
        Some(plan)
    }

    /// The same inputs on one shard: the reference a multi-shard run's
    /// simulated output must equal.
    pub fn single_shard(&self) -> Plan {
        Plan {
            shards: 1,
            threads: 1,
            ..*self
        }
    }

    /// How many sub-seeds an untraced run merges.
    pub fn sub_seeds(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Sub-seed `i` of `seed`: the seed the simulation of repetition `i`
    /// draws its inputs from.
    pub fn sub_seed(&self, seed: u64, i: usize) -> u64 {
        seed.wrapping_mul(16).wrapping_add(i as u64)
    }

    pub fn duration(&self) -> Nanos {
        self.warmup + self.measure
    }

    fn has_partition_agent(&self) -> bool {
        matches!(self.kind, Kind::Halo { agents: true, .. })
    }

    fn runtime(&self, seed: u64) -> RuntimeConfig {
        let mut rt = RuntimeConfig::paper_testbed(seed);
        rt.servers = self.servers;
        rt.series_bin_ns = SERIES_BIN_NS;
        rt.record_remote_call_latency = false;
        rt.trace = None;
        rt.obs = None;
        rt.cost_attr = false;
        rt.repartition = RepartitionPolicyKind::Exchange;
        rt.request_timeout = None;
        rt.replication = None;
        rt.snapshot = None;
        match self.kind {
            Kind::Halo { chaos, .. } => {
                // Halo's poll requests (tag 1) are the writes.
                rt.snapshot = chaos.then(SnapshotConfig::default);
            }
            Kind::Scale { .. } => {
                // Eight 4-core servers, so one celebrity can outgrow a
                // server while the cluster has headroom.
                rt.costs.cores_per_server = 4;
                rt.initial_threads_per_stage = 4;
                rt.replication = Some(ReplicationConfig {
                    thresholds: SplitThresholds {
                        capacity_fraction: 0.2,
                        drop_fraction: 0.3,
                        ..SplitThresholds::default()
                    },
                    cooldown: Nanos::from_secs(2),
                    min_load_ns: 100_000_000,
                    ..ReplicationConfig::default()
                });
            }
        }
        rt
    }

    fn partition_agent(&self) -> PartitionAgentConfig {
        // Half-second rounds finish the migration wave inside the warm-up
        // on every seed; at one-second rounds the remote share of some
        // seeds plateaus near 0.3 for a minute or more (NOTES.md).
        let interval = Nanos::from_millis(500);
        let mut cfg = PartitionAgentConfig::with_interval(interval);
        cfg.protocol.candidate_set_size = 128;
        cfg.protocol.imbalance_tolerance = 64;
        cfg.protocol.exchange_cooldown_ns = interval.as_nanos() / 2;
        cfg.protocol.min_total_score = 1;
        cfg.sketch_age_factor = 0.8;
        cfg.policy = RepartitionPolicyKind::Exchange;
        cfg.cost = MigrationCostConfig::default();
        cfg
    }

    fn thread_agent(&self) -> ThreadAgentConfig {
        ThreadAgentConfig {
            interval: Nanos::from_secs(2),
            allocator: ThreadAllocatorKind::ModelDriven {
                eta: ETA_SIM_CALIBRATED,
            },
            worker_blocking: false,
            smoothing: 0.4,
        }
    }
}

/// The simulated result of one or more repetitions. Deterministic for a
/// seed: equal across repetitions, across the traced and untraced runs,
/// and across shard counts. Floats are compared bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    pub events: u64,
    pub requests: u64,
    pub submitted: u64,
    pub failures: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    pub goodput_rps: f64,
    pub remote_share: f64,
    pub migrations: u64,
    pub forwarded: u64,
}

impl SimOutcome {
    pub fn fail_ratio(&self) -> f64 {
        self.failures as f64 / self.submitted.max(1) as f64
    }
}

/// Window counters the output checks and the per-layer table read.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub messages: u64,
    pub migration_stall_ns: u64,
    pub cpu_util: f64,
    pub splits_total: u64,
    pub splits: u64,
    pub replica_reads: u64,
    pub replica_writes: u64,
    pub retries: u64,
    pub lost_in_flight: u64,
    pub shed_no_live: u64,
    pub forward_loop_drops: u64,
    pub server_failures: u64,
    pub state_writes: u64,
    /// State writes over the whole run, warm-up included.
    pub state_writes_total: u64,
    pub durable_versions: u64,
    pub snap_captures: u64,
    pub snap_rounds_started: u64,
    pub snap_rounds_completed: u64,
    pub restores: u64,
    pub restore_replayed: u64,
    pub peak_pending: u64,
    pub slab_bytes: u64,
}

/// Host-side per-layer readings of a traced repetition, over the window
/// unless named otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    pub heap_ops: u64,
    pub windows: u64,
    pub barrier_s: f64,
    pub handler_calls: u64,
    pub handler_s: f64,
    pub partition: PartitionProbe,
    pub partition_setup_s: f64,
    pub sketch_offers: u64,
    pub sketch_offer_ns: f64,
}

/// One repetition's measurements.
pub struct Rep {
    /// Process CPU seconds from the first build call to the counter reset.
    pub setup_s: f64,
    /// The same span in wall seconds.
    pub setup_wall_s: f64,
    /// Wall seconds of the measured window.
    pub wall_s: f64,
    /// Process CPU seconds of the measured window.
    pub cpu_s: f64,
    pub workloads_build_s: f64,
    pub runtime_build_s: f64,
    /// The window's merged metrics: latency histogram and request-scoped
    /// counters (lifecycle counters still hold whole-run totals).
    pub window: ClusterMetrics,
    /// Events executed in the window.
    pub events: u64,
    /// Migrations committed in the window.
    pub migrations: u64,
    pub counters: Counters,
    pub layers: Option<LayerTimes>,
}

/// The traced run's probes.
#[derive(Default)]
struct Probes {
    app: Arc<AppProbe>,
    partition: Rc<RefCell<PartitionProbe>>,
    barrier: Rc<RefCell<BarrierProbe>>,
}

enum Handle {
    Halo(ShardedHaloWorkload),
    Scale(ShardedScaleWorkload),
}

/// Time-series bin width; the benchmark reads no series.
const SERIES_BIN_NS: u64 = 5_000_000_000;

/// The runner's merged per-shard metrics.
fn merged(runner: &ConservativeRunner<ShardedCluster>) -> ClusterMetrics {
    let mut m = ClusterMetrics::new(SERIES_BIN_NS);
    for cell in runner.cells() {
        m.merge_from(cell.world.metrics());
    }
    m
}

/// The `sim_*` outcome of `reps`, their windows merged as one longer
/// window: histograms merged, counters summed.
pub fn sim_outcome(plan: &Plan, reps: &[&Rep]) -> SimOutcome {
    let mut m = ClusterMetrics::new(SERIES_BIN_NS);
    for r in reps {
        m.merge_from(&r.window);
    }
    let cdf = m.e2e_latency.cdf();
    let measure_s = plan.measure.as_secs_f64() * reps.len() as f64;
    let requests = m.e2e_latency.count();
    SimOutcome {
        events: reps.iter().map(|r| r.events).sum(),
        requests,
        submitted: m.submitted,
        failures: m.rejected
            + m.timed_out
            + m.lost_in_flight
            + m.retry_budget_exhausted
            + m.forward_loop_drops,
        p50_ms: quantile_ms(&cdf, 0.5),
        p99_ms: quantile_ms(&cdf, 0.99),
        p999_ms: quantile_ms(&cdf, 0.999),
        goodput_rps: fraction_within(&cdf, plan.limit_ms) * requests as f64 / measure_s,
        remote_share: m.remote_fraction(),
        migrations: reps.iter().map(|r| r.migrations).sum(),
        forwarded: m.forwarded_messages,
    }
}

/// Quantile of the latency histogram, interpolated linearly between the
/// bucket midpoints of its CDF (the raw bucket midpoint moves in 3 %
/// steps, too coarse to compare runs).
fn quantile_ms(cdf: &[(u64, f64)], q: f64) -> f64 {
    let Some(i) = cdf.iter().position(|&(_, f)| f >= q) else {
        return 0.0;
    };
    let (v1, f1) = (cdf[i].0 as f64, cdf[i].1);
    if i == 0 {
        return v1 / 1e6;
    }
    let (v0, f0) = (cdf[i - 1].0 as f64, cdf[i - 1].1);
    (v0 + (v1 - v0) * (q - f0) / (f1 - f0)) / 1e6
}

/// Fraction of recorded latencies at or below `limit_ms`, interpolated on
/// the same CDF.
fn fraction_within(cdf: &[(u64, f64)], limit_ms: f64) -> f64 {
    let limit = limit_ms * 1e6;
    let Some(i) = cdf.iter().position(|&(v, _)| v as f64 >= limit) else {
        return 1.0;
    };
    if i == 0 {
        return 0.0;
    }
    let (v0, f0) = (cdf[i - 1].0 as f64, cdf[i - 1].1);
    let (v1, f1) = (cdf[i].0 as f64, cdf[i].1);
    f0 + (f1 - f0) * (limit - v0) / (v1 - v0)
}

/// Runs one repetition of `plan`. `traced` adds the layer probes.
pub fn run_rep(plan: &Plan, seed: u64, traced: bool) -> Rep {
    let probes = traced.then(Probes::default);
    let duration = plan.duration();
    let started = Instant::now();
    let started_cpu = process_cpu_s();

    let t = Instant::now();
    let (app, handle): (Box<dyn ShardApp>, Handle) = match plan.kind {
        Kind::Halo { rate, .. } => {
            let mut cfg = HaloConfig::paper_scale(HALO_PLAYERS, rate, duration, seed);
            cfg.game_duration_s = (120.0, 180.0);
            let (app, w) = ShardedHaloWorkload::build(cfg);
            (app, Handle::Halo(w))
        }
        Kind::Scale { players } => {
            let (app, w) =
                ShardedScaleWorkload::build(ScaleConfig::celebrity(players, duration, seed));
            (app, Handle::Scale(w))
        }
    };
    let workloads_build_s = t.elapsed().as_secs_f64();
    let app: Box<dyn ShardApp> = match &probes {
        Some(p) => Box::new(TimedApp {
            inner: app,
            probe: Arc::clone(&p.app),
        }),
        None => app,
    };

    let rt = plan.runtime(seed);
    let lookahead = sharded_lookahead(&rt);
    let t = Instant::now();
    let worlds = build_sharded(rt, app, plan.shards);
    let runtime_build_s = t.elapsed().as_secs_f64();
    let mut runner = ConservativeRunner::new(worlds, lookahead);
    install_sharded_hooks(&mut runner);
    if let Some(p) = &probes {
        for cell in runner.cells_mut() {
            cell.engine.set_cost_attr(true);
        }
        install_timed_barrier(&mut runner, &p.barrier);
    }
    match &handle {
        Handle::Halo(w) => w.install(&mut runner),
        Handle::Scale(w) => w.install(&mut runner),
    }
    if plan.has_partition_agent() {
        let threads = Some(plan.thread_agent());
        match &probes {
            Some(p) => {
                install_timed_partition(
                    &mut runner,
                    plan.servers,
                    plan.partition_agent(),
                    &p.partition,
                );
                let config = ActOpConfig {
                    partition: None,
                    threads,
                };
                install_actop_sharded(&mut runner, plan.servers, &config);
            }
            None => {
                let config = ActOpConfig {
                    partition: Some(plan.partition_agent()),
                    threads,
                };
                install_actop_sharded(&mut runner, plan.servers, &config);
            }
        }
    }
    if let Kind::Scale { .. } = plan.kind {
        install_replication_sharded(&mut runner, duration);
    }
    install_sharded_scrapers(&mut runner, duration);
    install_snapshots_sharded(&mut runner, duration);
    if let Kind::Halo { chaos: true, .. } = plan.kind {
        for (server, down, up) in CHAOS_PLAN {
            let scale = plan.measure.as_secs_f64() / CHAOS_WINDOW_S;
            let at = |secs: f64| plan.warmup + Nanos::from_nanos((secs * scale * 1e9) as u64);
            runner.schedule_global(at(down), move |ctx| fail_server_sharded(ctx, server));
            runner.schedule_global(at(up), move |ctx| recover_server_sharded(ctx, server));
        }
    }

    runner.run_until(plan.warmup, plan.threads);
    let before = merged(&runner);
    let report_before = runner.report();
    let app_before = probes
        .as_ref()
        .map(|p| (p.app.calls(), p.app.ns(), p.app.edge_count()));
    let partition_before = probes.as_ref().map(|p| *p.partition.borrow());
    let barrier_before = probes.as_ref().map(|p| *p.barrier.borrow());
    for cell in runner.cells_mut() {
        cell.world.reset_steady_state();
    }
    let setup_wall_s = started.elapsed().as_secs_f64();
    let setup_s = process_cpu_s() - started_cpu;

    let cpu0 = process_cpu_s();
    let t = Instant::now();
    runner.run_until(duration, plan.threads);
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;

    // Everything below reads results; none of it is timed.
    let m = merged(&runner);
    let report = runner.report();

    let mut util = vec![0.0f64; plan.servers];
    for cell in runner.cells() {
        for (server, u) in cell.world.utilizations(plan.warmup, duration) {
            util[server] = u;
        }
    }
    let durable_versions = runner.cells()[0]
        .world
        .with_snapshot_store(|s| s.total_durable_versions())
        .unwrap_or(0);
    let slab_bytes = match &handle {
        Handle::Halo(_) => 0,
        Handle::Scale(w) => w.memory_audit().slab_bytes,
    };
    let counters = Counters {
        messages: m.remote_messages + m.local_messages,
        migration_stall_ns: m.migration_stall_ns - before.migration_stall_ns,
        cpu_util: util.iter().sum::<f64>() / plan.servers as f64,
        splits_total: m.splits,
        splits: m.splits - before.splits,
        replica_reads: m.replica_reads,
        replica_writes: m.replica_writes,
        retries: m.retries,
        lost_in_flight: m.lost_in_flight,
        shed_no_live: m.shed_no_live,
        forward_loop_drops: m.forward_loop_drops,
        server_failures: m.server_failures - before.server_failures,
        state_writes: m.state_writes,
        state_writes_total: before.state_writes + m.state_writes,
        durable_versions,
        snap_captures: m.snap_captures - before.snap_captures,
        snap_rounds_started: m.snap_rounds_started - before.snap_rounds_started,
        snap_rounds_completed: m.snap_rounds_completed - before.snap_rounds_completed,
        restores: m.restores,
        restore_replayed: m.restore_replayed,
        peak_pending: report.peak_pending as u64,
        slab_bytes,
    };

    let layers = probes.map(|p| {
        let (calls0, ns0, edges0) = app_before.expect("traced");
        let part0 = partition_before.expect("traced");
        let bar0 = barrier_before.expect("traced");
        let part = *p.partition.borrow();
        let bar = *p.barrier.borrow();
        let heap = Subsystem::Heap as usize;
        let (sketch_offers, sketch_offer_ns) =
            replay_sketch(&p.app, edges0, plan.runtime(seed).sketch_capacity);
        LayerTimes {
            heap_ops: report.attr.ops[heap] - report_before.attr.ops[heap],
            windows: bar.windows - bar0.windows,
            barrier_s: (bar.ns - bar0.ns) as f64 / 1e9,
            handler_calls: p.app.calls() - calls0,
            handler_s: (p.app.ns() - ns0) as f64 / 1e9,
            partition: PartitionProbe {
                rounds: part.rounds - part0.rounds,
                ns: part.ns - part0.ns,
                migrations: part.migrations - part0.migrations,
                useful: part.useful - part0.useful,
            },
            partition_setup_s: part0.ns as f64 / 1e9,
            sketch_offers,
            sketch_offer_ns,
        }
    });

    Rep {
        setup_s,
        setup_wall_s,
        wall_s,
        cpu_s,
        workloads_build_s,
        runtime_build_s,
        events: report.events_processed - report_before.events_processed,
        migrations: m.migrations - before.migrations,
        window: m,
        counters,
        layers,
    }
}

/// Replays the recorded edge stream through one Space-Saving sketch at the
/// runtime's capacity: the warm-up edges untimed (to fill the sketch as
/// the run did), then the window's edges timed. Returns the window's
/// offer count and mean nanoseconds per offer.
fn replay_sketch(app: &AppProbe, window_start: usize, capacity: usize) -> (u64, f64) {
    let edges = app.edges.lock().expect("edge recorder poisoned");
    let mut sketch = SpaceSaving::new(capacity);
    for &edge in &edges[..window_start] {
        sketch.offer(edge, 1);
    }
    let window = &edges[window_start..];
    if window.is_empty() {
        return (0, 0.0);
    }
    let t = Instant::now();
    for &edge in window {
        sketch.offer(std::hint::black_box(edge), 1);
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(&sketch);
    (window.len() as u64, ns / window.len() as f64)
}
