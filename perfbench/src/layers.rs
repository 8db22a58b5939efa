//! The traced run's instrumentation. Every probe wraps a public entry
//! point from outside — the application handler behind `ShardApp`, the
//! partition agent's round, the runner's barrier hook — and leaves the
//! simulated behaviour untouched: the traced run must reproduce the
//! untraced run's `sim_*` metrics exactly.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use actop_core::controllers::{run_partition_round_sharded, PartitionAgentConfig};
use actop_runtime::sharded::{barrier_flush, sharded_age_sketch};
use actop_runtime::{ActorId, Outcome, Reaction, ShardApp, ShardedCluster};
use actop_sim::{ConservativeRunner, DetRng, GlobalCtx, Nanos};

/// Counters of the application-handler layer. Handlers run concurrently
/// on shard workers, so the counters are atomics; they publish nothing
/// else, hence `Relaxed`.
#[derive(Default)]
pub struct AppProbe {
    pub calls: AtomicU64,
    pub ns: AtomicU64,
    /// Every actor-to-actor call the handlers issued, in issue order per
    /// shard: the edge stream the sketch replay consumes.
    pub edges: Mutex<Vec<(ActorId, ActorId)>>,
}

impl AppProbe {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    pub fn edge_count(&self) -> usize {
        self.edges.lock().expect("edge recorder poisoned").len()
    }
}

/// A timing decorator around the workload's handlers.
pub struct TimedApp {
    pub inner: Box<dyn ShardApp>,
    pub probe: Arc<AppProbe>,
}

impl ShardApp for TimedApp {
    fn on_request(&self, actor: ActorId, tag: u32, rng: &mut DetRng) -> Reaction {
        let started = Instant::now();
        let reaction = self.inner.on_request(actor, tag, rng);
        let ns = started.elapsed().as_nanos() as u64;
        self.probe.calls.fetch_add(1, Ordering::Relaxed);
        self.probe.ns.fetch_add(ns, Ordering::Relaxed);
        if let Outcome::FanOut { calls, .. } = &reaction.outcome {
            self.probe
                .edges
                .lock()
                .expect("edge recorder poisoned")
                .extend(calls.iter().map(|c| (actor, c.to)));
        }
        reaction
    }

    fn continuation_cpu_ns(&self) -> f64 {
        self.inner.continuation_cpu_ns()
    }
}

/// Partition-agent rounds as timed by [`install_timed_partition`].
#[derive(Debug, Default, Clone, Copy)]
pub struct PartitionProbe {
    pub rounds: u64,
    pub ns: u64,
    pub migrations: u64,
    /// Rounds that moved at least one actor.
    pub useful: u64,
}

/// Schedules the partition agent's per-server rounds exactly as
/// `install_actop_sharded` does — same offsets, same order, the round
/// followed by the sketch aging — with each round timed. Install it before
/// `install_actop_sharded` (which then gets `partition: None`), so the
/// global events keep their sequence numbers.
pub fn install_timed_partition(
    runner: &mut ConservativeRunner<ShardedCluster>,
    servers: usize,
    config: PartitionAgentConfig,
    probe: &Rc<RefCell<PartitionProbe>>,
) {
    for server in 0..servers {
        let offset = Nanos(config.interval.as_nanos() * (server as u64 + 1) / servers as u64);
        let probe = Rc::clone(probe);
        runner.schedule_global(offset, move |ctx| {
            timed_partition_tick(ctx, server, config, probe);
        });
    }
}

fn timed_partition_tick(
    ctx: &mut GlobalCtx<'_, ShardedCluster>,
    server: usize,
    config: PartitionAgentConfig,
    probe: Rc<RefCell<PartitionProbe>>,
) {
    let now = ctx.now;
    let started = Instant::now();
    let moved = run_partition_round_sharded(ctx, now, server, &config);
    if config.sketch_age_factor < 1.0 {
        sharded_age_sketch(ctx, server, config.sketch_age_factor);
    }
    let ns = started.elapsed().as_nanos() as u64;
    {
        let mut p = probe.borrow_mut();
        p.rounds += 1;
        p.ns += ns;
        p.migrations += moved as u64;
        p.useful += u64::from(moved > 0);
    }
    ctx.schedule_global(now + config.interval, move |ctx| {
        timed_partition_tick(ctx, server, config, probe);
    });
}

/// Barrier flushes as timed by [`install_timed_barrier`]: one per serial
/// phase, so `windows` also counts the runner's windows.
#[derive(Debug, Default, Clone, Copy)]
pub struct BarrierProbe {
    pub windows: u64,
    pub ns: u64,
}

/// Replaces the runner's barrier hook with a timed `barrier_flush`.
pub fn install_timed_barrier(
    runner: &mut ConservativeRunner<ShardedCluster>,
    probe: &Rc<RefCell<BarrierProbe>>,
) {
    let probe = Rc::clone(probe);
    runner.set_barrier_hook(move |ctx| {
        let started = Instant::now();
        barrier_flush(ctx);
        let ns = started.elapsed().as_nanos() as u64;
        let mut p = probe.borrow_mut();
        p.windows += 1;
        p.ns += ns;
    });
}
