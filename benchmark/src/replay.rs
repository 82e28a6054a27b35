//! The layer-replay pass: each leaf layer's public API driven alone,
//! with the operation counts and shapes the traced pass observed, so a
//! `serve.run` nanosecond can be attributed from outside the program.
//! What no replay reaches is the residual (dispatch + accounting).

use std::convert::Infallible;
use std::hint::black_box;
use std::time::Instant;

use s2m3_core::adaptive::replan;
use s2m3_core::objective::total_latency;
use s2m3_core::placement::greedy_place;
use s2m3_core::plan::Plan;
use s2m3_core::problem::Instance;
use s2m3_core::resolved::ResolvedInstance;
use s2m3_core::routing::route_request;
use s2m3_core::sketch::LatencySketch;
use s2m3_core::upper::optimal_placement;
use s2m3_data::sink::{ColumnWriter, CompletionRow};
use s2m3_net::fleet::Fleet;
use s2m3_serve::queue::{Admission, AdmissionQueue, QueuedRequest};
use s2m3_serve::slab::Slab;
use s2m3_serve::slo::{Outcome as SloOutcome, SloWindow};
use s2m3_serve::AdmissionPolicy;
use s2m3_sim::kernel::{Device, Driver, Kernel, Policy, RequestSlot, Scheduler};

use crate::stats::summarize;
use crate::workloads::{err, ServeShape, FIVE_MODELS, QUICK_DIVISOR};

/// `(metric name, value)` pairs.
pub type Values = Vec<(&'static str, f64)>;

fn elapsed_ns(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// Median wall time of `iters` calls of `op`, nanoseconds.
fn median_ns(iters: usize, mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            op();
            elapsed_ns(t0)
        })
        .collect();
    summarize(&samples).map_or(0.0, |s| s.median)
}

// ---------------------------------------------------------------------
// Kernel: a closed population of 2-encoders+head requests whose arrivals
// sit `population × gap` in the future, so the pending-event count
// stays near `2 × population` for the whole run.
// ---------------------------------------------------------------------

const GAP_NS: u64 = 500_000;

struct ClosedLoop {
    spawned: usize,
    total: usize,
    lead_ns: u64,
}

fn spawn_request(k: &mut Kernel<(), ()>, req: usize, at: u64) {
    let head = k.spawn_task(req, 2, req % 4, true, ());
    for e in 0..2u32 {
        let enc = k.spawn_task(req, e, (req + 1 + e as usize) % 4, false, ());
        k.push_ready(at, enc);
    }
    k.set_request(
        req,
        RequestSlot {
            pending_encoders: 2,
            head_ready_ns: at,
            head_task: head,
        },
    );
}

impl Driver for ClosedLoop {
    type Custom = ();
    type Payload = ();
    type Error = Infallible;

    fn dispatched(
        &mut self,
        _k: &mut Kernel<(), ()>,
        _device: usize,
        _group: &[usize],
        now: u64,
    ) -> Result<u64, Infallible> {
        Ok(now + 1_000_000)
    }

    fn encoder_ready_ns(
        &mut self,
        _k: &mut Kernel<(), ()>,
        _tid: usize,
        now: u64,
    ) -> Result<u64, Infallible> {
        Ok(now + 50_000)
    }

    fn head_done(
        &mut self,
        k: &mut Kernel<(), ()>,
        req: usize,
        now: u64,
    ) -> Result<(), Infallible> {
        if self.spawned < self.total {
            self.spawned += 1;
            // The finished request's slot is free again: its successor
            // takes it, arriving one population-width later.
            spawn_request(k, req, now + self.lead_ns);
        }
        Ok(())
    }
}

/// Host nanoseconds per kernel event with about `pending` events queued.
fn kernel_ns_per_event(scheduler: Scheduler, pending: usize, total_requests: usize) -> f64 {
    let population = (pending / 2).max(1);
    let mut k: Kernel<(), ()> = Kernel::new(
        (0..4).map(|_| Device::new(2, 0)).collect(),
        Policy {
            immediate_head_fire: false,
            max_batch: None,
            recycle_tasks: true,
            scheduler,
        },
    );
    for req in 0..population {
        spawn_request(&mut k, req, req as u64 * GAP_NS);
    }
    let mut d = ClosedLoop {
        spawned: population,
        total: total_requests.max(population),
        lead_ns: population as u64 * GAP_NS,
    };
    let t0 = Instant::now();
    let events = match k.run_until_idle(&mut d) {
        Ok(n) => n,
        Err(e) => match e {},
    };
    elapsed_ns(t0) / black_box(events).max(1) as f64
}

// ---------------------------------------------------------------------
// Shape-independent layers: the same inputs in every workload's traced
// run, computed once per process.
// ---------------------------------------------------------------------

/// The seven models of the paper's optimality experiment (§VI-A) with
/// their canonical candidate counts, for the greedy-vs-optimal share.
const ZOO: [(&str, usize); 7] = [
    ("CLIP ViT-B/16", 101),
    ("CLIP ViT-L/14@336", 101),
    ("Flint-v0.5-1B", 1),
    ("LLaVA-v1.5-7B", 1),
    ("Encoder-only VQA (Small)", 1),
    ("Encoder-only VQA (Large)", 1),
    ("AlignBind-B", 16),
];

/// Greedy counts as optimal within this relative gap (the paper's
/// measurement resolution; `s2m3-bench` uses the same figure).
const OPT_TOLERANCE: f64 = 0.03;

/// Share of feasible (zoo model × {edge, standard}) instances where the
/// greedy plan's latency is within [`OPT_TOLERANCE`] of the optimum.
fn optimal_share() -> Result<f64, String> {
    let (mut optimal, mut total) = (0u32, 0u32);
    for fleet in [Fleet::edge_testbed(), Fleet::standard_testbed()] {
        for (model, candidates) in ZOO {
            let Ok(instance) = Instance::on_fleet(fleet.clone(), &[(model, candidates)]) else {
                continue;
            };
            // A model too large for the fleet is infeasible for both
            // algorithms: not an instance of the claim.
            let Ok(upper) = optimal_placement(&instance) else {
                continue;
            };
            let request = instance.request(0, model).map_err(err)?;
            let plan = Plan::greedy(&instance, vec![request.clone()]).map_err(err)?;
            let greedy = total_latency(&instance, &plan.routed[0].1, &request).map_err(err)?;
            total += 1;
            if greedy / upper.latency - 1.0 < OPT_TOLERANCE {
                optimal += 1;
            }
        }
    }
    if total == 0 {
        return Err("no feasible zoo instance".into());
    }
    Ok(f64::from(optimal) / f64::from(total))
}

/// Replays the layers whose inputs do not depend on the workload.
/// `sink_path` is a scratch file inside the checkout, removed afterwards.
///
/// # Errors
///
/// A failed call into the program, as text.
pub fn fixed_layers(quick: bool, sink_path: &std::path::Path) -> Result<Values, String> {
    let ops = |n: usize| if quick { n / QUICK_DIVISOR } else { n };
    let mut out: Values = Vec::new();

    let schedulers = [Scheduler::Heap, Scheduler::Wheel, Scheduler::Auto];
    let depths = [16, 2_048, 65_536];
    for (si, &sched) in schedulers.iter().enumerate() {
        for (pi, &pending) in depths.iter().enumerate() {
            // At least five population turnovers, so the final drain
            // (pending falling to zero) is a small share of the events.
            let total = ops(400_000).max(pending * 5);
            out.push((
                KERNEL_METRICS[si * depths.len() + pi],
                kernel_ns_per_event(sched, pending, total),
            ));
        }
    }

    let mut slo = SloWindow::new(256);
    for i in 0..256 {
        slo.push(SloOutcome {
            completed_at_s: i as f64,
            latency_s: 1.0 + (i % 17) as f64 * 0.25,
            missed: i % 11 == 0,
        });
    }
    out.push((
        "serve.slo.snapshot_us",
        median_ns(ops(2_000).max(50), || {
            black_box(slo.snapshot(black_box(256.0)));
        }) / 1e3,
    ));

    let mut sketch = LatencySketch::new();
    for i in 0..100_000u32 {
        sketch.record(0.05 + f64::from(i % 4_093) * 0.01);
    }
    out.push((
        "core.sketch.quantile_ns",
        median_ns(ops(2_000).max(50), || {
            black_box(sketch.quantile(black_box(0.99)));
        }),
    ));

    let five = Instance::on_fleet(Fleet::standard_testbed(), &FIVE_MODELS).map_err(err)?;
    out.push((
        "core.resolved.build_us",
        median_ns(ops(400).max(20), || {
            black_box(ResolvedInstance::new(black_box(&five)).is_ok());
        }) / 1e3,
    ));
    out.push((
        "core.placement.greedy_us",
        median_ns(ops(400).max(20), || {
            black_box(greedy_place(black_box(&five)).is_ok());
        }) / 1e3,
    ));

    // The churn scenario's mandatory replan: the desktop has left.
    let edge = Instance::on_fleet(Fleet::edge_testbed(), &FIVE_MODELS).map_err(err)?;
    let old = greedy_place(&edge).map_err(err)?;
    let shrunk = Instance::on_fleet(Fleet::edge_testbed().without(&["desktop"]), &FIVE_MODELS)
        .map_err(err)?;
    replan(&shrunk, &old).map_err(err)?;
    out.push((
        "core.adaptive.replan_us",
        median_ns(ops(400).max(20), || {
            black_box(replan(black_box(&shrunk), black_box(&old)).is_ok());
        }) / 1e3,
    ));

    let placement = greedy_place(&five).map_err(err)?;
    let requests: Vec<_> = FIVE_MODELS
        .iter()
        .enumerate()
        .map(|(i, (m, _))| five.request(i as u64, m))
        .collect::<Result<_, _>>()
        .map_err(err)?;
    let routes = ops(200_000).max(1_000);
    let t0 = Instant::now();
    for i in 0..routes {
        black_box(route_request(&five, &placement, &requests[i % requests.len()]).is_ok());
    }
    out.push(("core.routing.ns_per_route", elapsed_ns(t0) / routes as f64));

    let single = Instance::single_model("CLIP ViT-B/16", 101).map_err(err)?;
    out.push((
        "core.upper.optimal_us",
        median_ns(ops(200).max(10), || {
            black_box(optimal_placement(black_box(&single)).is_ok());
        }) / 1e3,
    ));
    out.push(("core.placement.optimal_share", optimal_share()?));

    let rows = ops(1_000_000);
    let file = std::fs::File::create(sink_path).map_err(err)?;
    let t0 = Instant::now();
    let mut writer = ColumnWriter::new(std::io::BufWriter::new(file)).map_err(err)?;
    for i in 0..rows as u64 {
        writer
            .push(CompletionRow {
                arrival_ns: i * 1_000,
                finish_ns: i * 1_000 + 2_000_000,
                device: (i % 4) as u32,
                class: Some((i % 2) as u32),
                latency_s: 0.002,
            })
            .map_err(err)?;
    }
    let written = writer.finish().map_err(err)?;
    let sink_ns = elapsed_ns(t0);
    // Best effort: a leftover scratch file is harmless and ignored by git.
    let _ = std::fs::remove_file(sink_path);
    if written != rows as u64 {
        return Err(format!("sink wrote {written} of {rows} rows"));
    }
    out.push(("data.sink.ns_per_row", sink_ns / rows as f64));
    Ok(out)
}

/// The nine kernel metric names, scheduler-major.
const KERNEL_METRICS: [&str; 9] = [
    "sim.kernel.heap.ns_per_event.p16",
    "sim.kernel.heap.ns_per_event.p2k",
    "sim.kernel.heap.ns_per_event.p64k",
    "sim.kernel.wheel.ns_per_event.p16",
    "sim.kernel.wheel.ns_per_event.p2k",
    "sim.kernel.wheel.ns_per_event.p64k",
    "sim.kernel.auto.ns_per_event.p16",
    "sim.kernel.auto.ns_per_event.p2k",
    "sim.kernel.auto.ns_per_event.p64k",
];

// ---------------------------------------------------------------------
// Workload-shaped layers of a serve run, and the residual.
// ---------------------------------------------------------------------

/// One row of the outside-in layer budget: a replayed layer's cost per
/// offered request.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    pub layer: &'static str,
    pub ops_per_req: f64,
    pub ns_per_op: f64,
}

impl BudgetRow {
    pub fn ns_per_req(&self) -> f64 {
        self.ops_per_req * self.ns_per_op
    }
}

/// Snapshots a run of `outcomes` takes under the engine's cadence:
/// every `every` outcomes, the stride doubling (and half the retained
/// windows dropped) whenever `max_windows` is reached.
fn snapshot_count(outcomes: u64, every: u64, max_windows: Option<usize>) -> u64 {
    let (mut stride, mut seen, mut taken, mut kept) = (every.max(1), 0u64, 0u64, 0usize);
    loop {
        let next = seen + (stride - seen % stride);
        if next > outcomes {
            return taken;
        }
        seen = next;
        taken += 1;
        kept += 1;
        if let Some(cap) = max_windows {
            if kept >= cap.max(2) {
                kept = kept.div_ceil(2);
                stride = stride.saturating_mul(2);
            }
        }
    }
}

/// Stand-in for the engine's private per-request record: the slab's
/// cost depends on the slot size, and this matches a cache line.
#[derive(Default, Clone, Copy)]
struct Slot([u64; 8]);

/// Replays the leaf layers of one serve run with its own spec, policy,
/// depths and counts. Returns the per-layer metrics and the budget rows
/// (everything but the kernel, which the caller adds from the fixed
/// replays).
///
/// # Errors
///
/// A failed call into the program, as text.
pub fn serve_layers(shape: &ServeShape) -> Result<(Values, Vec<BudgetRow>), String> {
    let s = &shape.scenario;
    let arrived = shape.arrived.max(1);
    let per_req = |n: u64| n as f64 / arrived as f64;
    let mut values: Values = Vec::new();
    let mut rows: Vec<BudgetRow> = Vec::new();

    // Arrival sampling: drain the workload's own stream.
    let models: Vec<String> = s.models.iter().map(|m| m.name.clone()).collect();
    let t0 = Instant::now();
    let mut stream = s.workload().stream(s.requests, &models).map_err(err)?;
    let mut drained = 0u64;
    while let Some(r) = stream.next_request() {
        black_box(r);
        drained += 1;
    }
    let stream_ns = elapsed_ns(t0) / drained.max(1) as f64;
    values.push(("sim.workload.ns_per_req", stream_ns));
    rows.push(BudgetRow {
        layer: "sim.workload (stream sampling)",
        ops_per_req: per_req(drained),
        ns_per_op: stream_ns,
    });

    // Admission queue at the observed depth: every arrival is offered;
    // the shed share meets a full queue, the rest are popped again.
    let bound = match s.admission {
        AdmissionPolicy::ShedOnOverload { max_queue } => Some(max_queue),
        _ => None,
    };
    // A queue that sheds is full whenever it does; otherwise Little's
    // law gives the depth.
    let depth = match bound {
        Some(max_queue) if shape.shed > 0 => max_queue,
        Some(max_queue) => shape.inflight.min(max_queue),
        None => shape.inflight,
    }
    .max(1);
    let mut queue = AdmissionQueue::new(s.admission.clone());
    let request = |i: u64| QueuedRequest {
        id: i,
        handle: i,
        arrival_ns: i * 1_000,
        // Deadlines out of arrival order, so the EDF heap sifts.
        deadline_ns: i * 1_000 + 1_000_000 * (1 + i % 7),
        priority: (i % 3) as u32,
    };
    for i in 0..depth as u64 {
        queue.offer(request(i));
    }
    let (mut queue_ops, mut shed_debt) = (0u64, 0u64);
    let t0 = Instant::now();
    for i in 0..shape.arrived {
        // Spread the sheds evenly (Bresenham): an arrival sheds when
        // the running shed quota crosses an integer.
        shed_debt += shape.shed;
        if shed_debt >= arrived {
            shed_debt -= arrived;
            if bound.is_some() {
                // The queue is at its bound: this offer is refused.
                black_box(queue.offer(request(depth as u64 + i)) == Admission::Shed);
                queue_ops += 1;
                continue;
            }
        }
        black_box(queue.pop());
        black_box(queue.offer(request(depth as u64 + i)));
        queue_ops += 2;
    }
    let queue_ns = elapsed_ns(t0) / queue_ops.max(1) as f64;
    values.push(("serve.queue.ns_per_op", queue_ns));
    rows.push(BudgetRow {
        layer: "serve.queue (offer/pop)",
        ops_per_req: per_req(queue_ops),
        ns_per_op: queue_ns,
    });

    // Request slab: one insert and one free per arrival at the
    // in-flight depth (append-only in exact mode, where free is a no-op).
    let streaming = s.streaming.is_some();
    let mut slab: Slab<Slot> = Slab::new(streaming, if streaming { 0 } else { s.requests });
    let mut ring: Vec<usize> = (0..shape.inflight)
        .map(|i| slab.insert_with(|v| v.0[0] = i as u64).slot as usize)
        .collect();
    let t0 = Instant::now();
    for i in 0..shape.arrived {
        let at = i as usize % ring.len();
        slab.free(ring[at]);
        ring[at] = slab.insert_with(|v| v.0 = [i; 8]).slot as usize;
    }
    let slab_ns = elapsed_ns(t0) / arrived as f64;
    black_box(slab.live());
    values.push(("serve.slab.ns_per_cycle", slab_ns));
    rows.push(BudgetRow {
        layer: "serve.slab (insert+free)",
        ops_per_req: per_req(shape.arrived),
        ns_per_op: slab_ns,
    });

    // SLO ring: one push per outcome (completion or shed).
    let outcomes = shape.completed + shape.shed;
    let mut slo = SloWindow::new(s.slo_window);
    let t0 = Instant::now();
    for i in 0..outcomes {
        slo.push(SloOutcome {
            completed_at_s: i as f64 * 0.5,
            latency_s: 1.0 + (i % 13) as f64 * 0.125,
            missed: i % 9 == 0,
        });
    }
    let push_ns = elapsed_ns(t0) / outcomes.max(1) as f64;
    black_box(slo.total_seen());
    values.push(("serve.slo.ns_per_push", push_ns));
    rows.push(BudgetRow {
        layer: "serve.slo (push)",
        ops_per_req: per_req(outcomes),
        ns_per_op: push_ns,
    });
    let snapshots = snapshot_count(outcomes, s.snapshot_every as u64, s.max_windows);
    let snapshot_ns = median_ns(200, || {
        black_box(slo.snapshot(black_box(1.0)));
    });
    rows.push(BudgetRow {
        layer: "serve.slo (snapshot)",
        ops_per_req: per_req(snapshots),
        ns_per_op: snapshot_ns,
    });

    // Latency sketch: streaming mode records each completion globally
    // and once more per class; exact mode never touches the sketch.
    let records = if streaming {
        shape.completed * if s.classes.is_empty() { 1 } else { 2 }
    } else {
        0
    };
    let mut sketch = LatencySketch::new();
    let t0 = Instant::now();
    for i in 0..records {
        sketch.record(0.05 + (i % 4_093) as f64 * 0.01);
    }
    let record_ns = if records == 0 {
        0.0
    } else {
        elapsed_ns(t0) / records as f64
    };
    black_box(sketch.count());
    if records > 0 {
        values.push(("core.sketch.ns_per_record", record_ns));
    }
    rows.push(BudgetRow {
        layer: "core.sketch (record)",
        ops_per_req: per_req(records),
        ns_per_op: record_ns,
    });

    Ok((values, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_cadence_doubles_at_the_cap() {
        assert_eq!(snapshot_count(1_000, 100, None), 10);
        assert_eq!(snapshot_count(99, 100, None), 0);
        // Cap 4: snapshots at 100..400 fill it (stride → 200, 2 kept),
        // then 600, 800 refill it (stride → 400), then 1200, 1600.
        assert_eq!(snapshot_count(1_600, 100, Some(4)), 8);
    }

    #[test]
    fn closed_loop_kernel_holds_its_pending_depth() {
        for sched in [Scheduler::Heap, Scheduler::Wheel, Scheduler::Auto] {
            assert!(kernel_ns_per_event(sched, 64, 500) > 0.0);
        }
    }
}
