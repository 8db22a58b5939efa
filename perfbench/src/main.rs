//! The repository benchmark: one workload per process, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rev <git rev>] [--quick]
//! ```
//!
//! The untraced run repeats the workload (set-up, then the measured
//! window) over three sub-seeds derived from `--seed`, cycling through
//! them until the measured windows add up to `--seconds`, and reports the
//! median of each host metric, scaled to a reference machine speed, and
//! the `sim_*` metrics of the three windows merged. The traced run makes
//! one untraced and one traced repetition of the first sub-seed. A
//! sub-seed's simulated output must repeat exactly; that, and each
//! workload's own output checks, decide `correct`. Stamped rows go to
//! stdout first; the last line is the result object. `perfbench/NOTES.md`
//! explains the workloads and metrics.

mod host;
mod layers;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use workload::{run_rep, sim_outcome, Kind, Plan, Rep, NAMES};

/// Most repetitions an untraced run makes (a multiple of the sub-seeds).
const MAX_REPS: usize = 9;
/// Runs of the reference kernel a process times before its repetitions.
const REFERENCE_RUNS: usize = 3;
/// No new repetition starts after this much host time, so a slow machine
/// still exits well within its time limit.
const START_BUDGET_S: f64 = 100.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        rev: "unknown".into(),
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--rev" => args.rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", NAMES.join(", ")));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The output checks, counted.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: Vec<String>,
}

impl Checks {
    fn expect(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed.push(what.to_string());
        }
    }

    /// The workload's own checks on one repetition.
    fn outputs(&mut self, plan: &Plan, rep: &Rep) {
        let (sim, c) = (&sim_outcome(plan, &[rep]), &rep.counters);
        if !plan.quick {
            self.expect("at least 1e5 latency samples", sim.requests >= 100_000);
        }
        match plan.kind {
            Kind::Halo { agents: true, .. } => {
                let hash = 1.0 - 1.0 / plan.servers as f64;
                self.expect("remote share below hash placement", sim.remote_share < hash);
                self.expect("no failed request without faults", sim.failures == 0);
            }
            Kind::Halo { chaos: true, .. } => {
                self.expect(
                    "state writes equal durable versions",
                    c.state_writes_total == c.durable_versions,
                );
                self.expect("exactly the two planned failures", c.server_failures == 2);
            }
            Kind::Halo { .. } => {}
            Kind::Scale { .. } => {
                self.expect("no failed request without faults", sim.failures == 0);
                self.expect("at least one split", c.splits_total >= 1);
                self.expect(
                    "no request shed for want of a live server",
                    c.shed_no_live == 0,
                );
                self.expect("no forward-loop drops", c.forward_loop_drops == 0);
            }
        }
    }
}

/// A metric as the result object prints it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Cores the process may use: a 2-shard run's wall time depends on it.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Prints one stamped row: `row {...}` with the run's identity first.
fn row(args: &Args, plan: &Plan, kind: &str, fields: &[(&str, String)]) {
    let mut parts = vec![
        format!("\"row\":{}", json_str(kind)),
        format!("\"workload\":{}", json_str(plan.name)),
        format!("\"seed\":{}", args.seed),
        format!("\"shards\":{}", plan.shards),
        format!("\"threads\":{}", plan.threads),
        format!("\"cores\":{}", cores()),
        format!("\"rev\":{}", json_str(&args.rev)),
    ];
    parts.extend(fields.iter().map(|(k, v)| format!("{}:{v}", json_str(k))));
    println!("row {{{}}}", parts.join(","));
}

fn rep_row(args: &Args, plan: &Plan, kind: &str, index: usize, seed: u64, rep: &Rep) {
    let s = &sim_outcome(plan, &[rep]);
    row(
        args,
        plan,
        kind,
        &[
            ("rep", index.to_string()),
            ("sub_seed", seed.to_string()),
            ("setup_s", json_num(rep.setup_s)),
            ("setup_wall_s", json_num(rep.setup_wall_s)),
            ("wall_s", json_num(rep.wall_s)),
            ("cpu_s", json_num(rep.cpu_s)),
            ("events", s.events.to_string()),
            ("requests", s.requests.to_string()),
            ("submitted", s.submitted.to_string()),
            ("sim_p50_ms", json_num(s.p50_ms)),
            ("sim_p99_ms", json_num(s.p99_ms)),
            ("sim_p999_ms", json_num(s.p999_ms)),
            ("sim_goodput_rps", json_num(s.goodput_rps)),
            ("sim_remote_share", json_num(s.remote_share)),
            ("fail_ratio", json_num(s.fail_ratio())),
            ("migrations", s.migrations.to_string()),
        ],
    );
}

/// The end-to-end metrics of the simulated output.
fn sim_metrics(s: &workload::SimOutcome) -> Vec<Metric> {
    vec![
        m("sim_p50_ms", s.p50_ms, "ms"),
        m("sim_p99_ms", s.p99_ms, "ms"),
        m("sim_p999_ms", s.p999_ms, "ms"),
        m("sim_goodput_rps", s.goodput_rps, "1/s"),
        m("sim_local_share", 1.0 - s.remote_share, "ratio"),
        m("sim_success_ratio", 1.0 - s.fail_ratio(), "ratio"),
    ]
}

/// Runs the reference repetition a multi-shard plan must reproduce: the
/// first sub-seed on one shard.
fn shard_reference(plan: &Plan, args: &Args, checks: &mut Checks) -> Option<Rep> {
    (plan.shards > 1).then(|| {
        let single = plan.single_shard();
        let seed = plan.sub_seed(args.seed, 0);
        let rep = run_rep(&single, seed, false);
        rep_row(args, &single, "reference", 0, seed, &rep);
        checks.outputs(&single, &rep);
        rep
    })
}

/// Checks that a multi-shard repetition reproduced the one-shard reference.
fn check_reference(plan: &Plan, checks: &mut Checks, reference: Option<Rep>, rep: &Rep) {
    if let Some(reference) = reference {
        checks.expect(
            "simulated output equals the one-shard run",
            sim_outcome(&plan.single_shard(), &[&reference]) == sim_outcome(plan, &[rep]),
        );
    }
}

/// Times the reference kernel and prints it as a row.
fn calibrate(args: &Args, plan: &Plan) -> f64 {
    let reference_s = host::reference_median_s(REFERENCE_RUNS);
    row(
        args,
        plan,
        "reference_kernel",
        &[("cpu_s", json_num(reference_s))],
    );
    reference_s
}

fn untraced(args: &Args, plan: &Plan, checks: &mut Checks) -> Vec<Metric> {
    let started = Instant::now();
    let speed = host::REFERENCE_S / calibrate(args, plan);
    let reference = shard_reference(plan, args, checks);
    let k = plan.sub_seeds();
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    // Whole cycles of sub-seeds only, so each weighs the same in a median.
    while reps.len() < MAX_REPS.max(k) {
        let cycle_done = reps.len().is_multiple_of(k) && !reps.is_empty();
        let late = started.elapsed().as_secs_f64() > START_BUDGET_S;
        if cycle_done && (measured >= args.seconds || late) {
            break;
        }
        let seed = plan.sub_seed(args.seed, reps.len() % k);
        let rep = run_rep(plan, seed, false);
        rep_row(args, plan, "untraced", reps.len(), seed, &rep);
        measured += rep.wall_s;
        reps.push(rep);
    }
    for rep in &reps[..k] {
        checks.outputs(plan, rep);
    }
    checks.expect(
        "simulated output repeats for a sub-seed",
        (k..reps.len())
            .all(|i| sim_outcome(plan, &[&reps[i]]) == sim_outcome(plan, &[&reps[i - k]])),
    );
    check_reference(plan, checks, reference, &reps[0]);
    let med = |f: fn(&Rep) -> f64| host::median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut metrics = vec![
        m("setup_s", med(|r| r.setup_s) * speed, "s"),
        m("cpu_s", med(|r| r.cpu_s) * speed, "s"),
        m("peak_rss_mib", host::peak_rss_mib(), "MiB"),
    ];
    let cycle: Vec<&Rep> = reps[..k].iter().collect();
    metrics.extend(sim_metrics(&sim_outcome(plan, &cycle)));
    metrics
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn traced(args: &Args, plan: &Plan, checks: &mut Checks) -> Vec<Metric> {
    let reference_s = calibrate(args, plan);
    let reference = shard_reference(plan, args, checks);
    let seed = plan.sub_seed(args.seed, 0);
    let plain = run_rep(plan, seed, false);
    rep_row(args, plan, "untraced", 0, seed, &plain);
    let rep = run_rep(plan, seed, true);
    rep_row(args, plan, "traced", 0, seed, &rep);
    checks.outputs(plan, &rep);
    let s = &sim_outcome(plan, &[&rep]);
    checks.expect(
        "traced simulated output equals the untraced run",
        *s == sim_outcome(plan, &[&plain]),
    );
    check_reference(plan, checks, reference, &rep);
    let l = rep.layers.expect("a traced repetition carries layer times");
    let c = &rep.counters;
    let events = s.events as f64;
    let self_s = rep.wall_s - l.handler_s - l.partition.ns as f64 / 1e9 - l.barrier_s;

    let mut absent: Vec<(&str, &str)> = Vec::new();
    let (is_halo, agents, chaos) = match plan.kind {
        Kind::Halo { agents, chaos, .. } => (true, agents, chaos),
        Kind::Scale { .. } => (false, false, false),
    };
    if is_halo {
        absent.push((
            "workloads.slab_mib",
            "the Halo workload keeps no per-player slab",
        ));
    }
    if !agents {
        absent.push((
            "partition.*",
            "no partition agent is installed on this workload",
        ));
    }
    if !chaos {
        absent.push(("snapshot.*", "snapshots are off on this workload"));
    }
    absent.push((
        "runtime.migration_stall_ms",
        "the sharded backend migrates instantly at barriers, so the stall is 0 by construction",
    ));
    for (metric, why) in &absent {
        row(
            args,
            plan,
            "absent",
            &[("metric", json_str(metric)), ("why", json_str(why))],
        );
    }

    vec![
        m("host.wall_s", plain.wall_s, "s"),
        m("host.setup_wall_s", plain.setup_wall_s, "s"),
        m("host.cpu_s", plain.cpu_s, "s"),
        m("host.reference_s", reference_s, "s"),
        m("sim.events", events, "count"),
        m("sim.requests", s.requests as f64, "count"),
        m("sim.ns_per_event", plain.cpu_s * 1e9 / events, "ns"),
        m(
            "sim.heap_ops_per_event",
            l.heap_ops as f64 / events,
            "ops/event",
        ),
        m("sim.peak_pending", c.peak_pending as f64, "count"),
        m("shard.windows", l.windows as f64, "count"),
        m("shard.barrier_s", l.barrier_s, "s"),
        m(
            "shard.cpu_per_wall",
            ratio(plain.cpu_s, plain.wall_s),
            "ratio",
        ),
        m("workloads.build_s", rep.workloads_build_s, "s"),
        m("runtime.build_s", rep.runtime_build_s, "s"),
        m(
            "workloads.slab_mib",
            c.slab_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        m("workloads.handler_calls", l.handler_calls as f64, "count"),
        m(
            "workloads.handler_ns",
            ratio(l.handler_s * 1e9, l.handler_calls as f64),
            "ns",
        ),
        m("runtime.self_s", self_s, "s"),
        m("runtime.messages", c.messages as f64, "count"),
        m(
            "runtime.forwarded_share",
            ratio(s.forwarded as f64, c.messages as f64),
            "ratio",
        ),
        m(
            "runtime.migration_stall_ms",
            c.migration_stall_ns as f64 / 1e6,
            "ms",
        ),
        m("runtime.cpu_util", c.cpu_util, "ratio"),
        m("runtime.splits", c.splits as f64, "count"),
        m(
            "runtime.replica_read_share",
            ratio(c.replica_reads as f64, s.submitted as f64),
            "ratio",
        ),
        m("runtime.replica_writes", c.replica_writes as f64, "count"),
        m("runtime.retries", c.retries as f64, "count"),
        m("runtime.lost_in_flight", c.lost_in_flight as f64, "count"),
        m("sketch.offers", l.sketch_offers as f64, "count"),
        m("sketch.offer_ns", l.sketch_offer_ns, "ns"),
        m("partition.rounds", l.partition.rounds as f64, "count"),
        m(
            "partition.round_ms",
            ratio(l.partition.ns as f64 / 1e6, l.partition.rounds as f64),
            "ms",
        ),
        m(
            "partition.migrations",
            l.partition.migrations as f64,
            "count",
        ),
        m(
            "partition.useful_ratio",
            ratio(l.partition.useful as f64, l.partition.rounds as f64),
            "ratio",
        ),
        m("partition.setup_s", l.partition_setup_s, "s"),
        m("snapshot.state_writes", c.state_writes as f64, "count"),
        m("snapshot.captures", c.snap_captures as f64, "count"),
        m(
            "snapshot.round_completion",
            ratio(c.snap_rounds_completed as f64, c.snap_rounds_started as f64),
            "ratio",
        ),
        m("snapshot.restores", c.restores as f64, "count"),
        m(
            "snapshot.replayed_per_restore",
            ratio(c.restore_replayed as f64, c.restores as f64),
            "count",
        ),
        m("chaos.server_failures", c.server_failures as f64, "count"),
        m("trace.overhead_s", rep.cpu_s - plain.cpu_s, "s"),
    ]
}

fn main() -> ExitCode {
    // A stray knob must not be able to change a workload: the runtime
    // crates read none, but refuse to run under one all the same.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ACTOP_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", knobs.join(", "));
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::named(&args.workload, args.quick).expect("name validated by parse_args");
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced(&args, &plan, &mut checks)
    } else {
        untraced(&args, &plan, &mut checks)
    };
    for what in &checks.failed {
        row(&args, &plan, "check_failed", &[("check", json_str(what))]);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(x.name),
                json_num(x.value),
                json_str(x.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed.is_empty(),
        checks.attempted,
        checks.failed.len(),
        body.join(",")
    );
    ExitCode::SUCCESS
}
