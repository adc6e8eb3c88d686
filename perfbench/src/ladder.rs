//! The traced run (`--trace 1`): the same closed-loop load as the untraced
//! run, plus a ladder of in-process calls into each layer's public
//! functions on the workload's own input, each wrapped in a span.
//!
//! Every layer is measured on every workload. Where the served path of a
//! workload does not call a layer (the sketch on `s3ca_mc`), the value is
//! what that layer costs on this input if it were called;
//! `perfbench/README.md` marks which values are on the served path.

use crate::inputs::{split, Inputs, EVAL_WORLDS};
use crate::load::{closed_loop, Conn, Daemon};
use crate::stats::{self, mean, median, ratio, Metric, Outcome};
use crate::trace::Tracer;
use crate::{serve_in_process, Reference, Report, CONNECTIONS};
use osn_graph::{binary, CsrGraph, NodeData, NodeId, ShardedOscg};
use osn_propagation::{DeploymentRef, McBackend};
use osn_sketch::{SketchIndex, SketchParams};
use s3crm_core::{s3ca_with_snapshot_backend, S3caConfig, Telemetry};
use s3crm_serve::CampaignSpec;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("graph.open_ms", "ms"),
    ("graph.file_bytes", "bytes"),
    ("world.sample_ms", "ms"),
    ("world.resident_bytes", "bytes"),
    ("world.live_density", "ratio"),
    ("lane.decode_ms", "ms"),
    ("lane.simulate_b1_ms", "ms"),
    ("lane.simulate_b2_ms", "ms"),
    ("lane.worlds", "count"),
    ("engine.lazy_rescores", "count"),
    ("engine.incremental_updates", "count"),
    ("engine.holder_rebuilds", "count"),
    ("engine.full_rebuilds", "count"),
    ("engine.rescores_per_iteration", "ratio"),
    ("sketch.build_ms", "ms"),
    ("sketch.sketches", "count"),
    ("sketch.capped", "count"),
    ("sketch.resident_bytes", "bytes"),
    ("core.s3ca_ms", "ms"),
    ("core.id_ms", "ms"),
    ("core.gpi_ms", "ms"),
    ("core.scm_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.id_iterations", "count"),
    ("core.gp_count", "count"),
    ("core.scm_commit_ratio", "ratio"),
    ("core.explored_ratio", "ratio"),
    ("serve.run_campaign_ms", "ms"),
    ("serve.probe_ms", "ms"),
    ("serve.batch_wait_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.probe_batch_size", "count"),
    ("serve.shed", "count"),
    ("serve.failed_batches", "count"),
    ("trace.ok_per_s", "1/s"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.wall_s", "s"),
];

/// Repetitions per ladder rung (medians are reported).
const OPEN_REPS: usize = 5;
const SAMPLE_REPS: usize = 3;
const LANE_REPS: usize = 24;
const SKETCH_REPS: usize = 3;
/// Passes over the campaign cycle for core and in-process serve timings.
const CAMPAIGN_REPS: usize = 2;
/// Passes over the request cycle on one connection for the wire estimate.
const SERIAL_REPS: usize = 2;

/// A deployment as `simulate_batch` takes it: seeds and per-node coupons.
type Deployment = (Vec<NodeId>, Vec<u32>);

/// Parse a `DEPLOY node,seed,coupons` payload into (seeds, coupons).
fn deployment_of(payload: &[String], n: usize) -> Deployment {
    let mut seeds = Vec::new();
    let mut coupons = vec![0u32; n];
    for row in payload.iter().filter_map(|l| l.strip_prefix("DEPLOY ")) {
        let cols: Vec<&str> = row.split(',').collect();
        let (Some(Ok(v)), Some(s), Some(Ok(k))) = (
            cols.first().map(|c| c.parse::<u32>()),
            cols.get(1),
            cols.get(2).map(|c| c.parse::<u32>()),
        ) else {
            continue; // the header row
        };
        if *s == "1" {
            seeds.push(NodeId(v));
        }
        coupons[v as usize] = k;
    }
    (seeds, coupons)
}

/// The probe request evaluating `dep` on a campaign's evaluation backend
/// (what a campaign's final evaluation submits to the batcher).
fn eval_probe_line(dep: &Deployment, worlds: usize, seed: u64) -> String {
    let seeds: Vec<String> = dep.0.iter().map(|s| s.0.to_string()).collect();
    let coupons: Vec<String> = dep
        .1
        .iter()
        .enumerate()
        .filter(|(_, &k)| k > 0)
        .map(|(v, k)| format!("{v}:{k}"))
        .collect();
    format!(
        "PROBE worlds={worlds} seed={seed} seeds={} coupons={}",
        seeds.join(";"),
        coupons.join(";")
    )
}

/// The in-daemon campaign time a reply reports (`TELEMETRY wall_ms=…`).
fn telemetry_wall_ms(reply: &[String]) -> Option<f64> {
    reply
        .iter()
        .find_map(|l| l.strip_prefix("TELEMETRY "))?
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("wall_ms=")?.parse().ok())
}

pub fn run(
    serve_bin: &Path,
    seconds: f64,
    inputs: &Inputs,
    reference: Reference,
    work: &Path,
) -> Result<Report, String> {
    let mut t = Tracer::new();
    let mut m: HashMap<&'static str, f64> = HashMap::new();

    // Served path: the same warm-up and closed loop as the untraced run,
    // every request recorded as a span.
    let daemon = Daemon::spawn(serve_bin, &inputs.path)?;
    let mut conn = Conn::connect(daemon.addr)?;
    let warm = conn
        .request(&inputs.requests[0])
        .map_err(|e| format!("warm-up request: {e}"))?;
    if stats::classify(&warm, &reference.expected[0]) != Outcome::Ok {
        return Err(format!("warm-up request failed: {warm:?}"));
    }
    let origin = Instant::now();
    let load = closed_loop(
        daemon.addr,
        CONNECTIONS,
        seconds,
        &inputs.requests,
        &|seq| inputs.request_index(seq),
        &reference.expected,
    );
    let load_span = t.record("client.load", 0, 0, origin, 0.0, load.wall_s * 1e3);
    for s in &load.samples {
        let request = s.seq as u64;
        t.record(
            "client.request",
            load_span,
            request,
            origin,
            s.start_ms,
            s.end_ms,
        );
    }
    let info: HashMap<String, String> = conn.info()?.into_iter().collect();
    let counter = |k: &str| -> f64 { info.get(k).and_then(|v| v.parse().ok()).unwrap_or(0.0) };
    // Wire estimate: the cycle once more, serially on one connection. A
    // campaign reply reports its in-daemon time (`TELEMETRY wall_ms=`,
    // program-reported), so its wire share is read off the same request.
    let mut wire_ms = Vec::new();
    let mut serial_ok = true;
    for _ in 0..SERIAL_REPS {
        for (i, r) in inputs.requests.iter().enumerate() {
            let t0 = Instant::now();
            let reply = conn.request(r).map_err(|e| format!("serial pass: {e}"))?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Some(daemon_ms) = telemetry_wall_ms(&reply) {
                wire_ms.push(ms - daemon_ms);
            }
            serial_ok &= stats::classify(&reply, &reference.expected[i]) == Outcome::Ok;
        }
    }
    drop(conn);
    daemon.shutdown()?;

    let lat = load.latencies();
    let ok = load.count(Outcome::Ok);
    m.insert("trace.ok_per_s", ratio(ok as f64, load.wall_s));
    m.insert(
        "trace.latency_p50_ms",
        lat.percentile(0.5).unwrap_or(load.wall_s * 1e3),
    );
    m.insert("trace.wall_s", load.wall_s);
    m.insert(
        "serve.probe_batch_size",
        ratio(counter("probes"), counter("probe_batches")),
    );
    m.insert("serve.shed", counter("campaigns_shed"));
    m.insert("serve.failed_batches", counter("probe_batches_failed"));

    // graph: open + validate, as the daemon does for this file version.
    let mut file = None;
    for _ in 0..OPEN_REPS {
        file = Some(t.span("graph.open", 0, || {
            if inputs.workload.sharded() {
                ShardedOscg::open(&inputs.path).and_then(|s| s.to_oscg_file())
            } else {
                binary::load_oscg(&inputs.path)
            }
        }));
    }
    let file = file
        .expect("at least one open")
        .map_err(|e| format!("opening {}: {e}", inputs.path.display()))?;
    let graph: CsrGraph = file.graph;
    let workload = file
        .workload
        .ok_or("generated inputs carry a workload block")?;
    let (data, budget): (NodeData, f64) = (workload.data, workload.budget);
    m.insert("graph.open_ms", median(&t.durations_ms("graph.open")));
    m.insert("graph.file_bytes", inputs.fingerprint.file_bytes as f64);

    // world: sampling at the campaigns' evaluation world count.
    let worlds = EVAL_WORLDS;
    let mut backend = None;
    for rep in 0..SAMPLE_REPS {
        backend = Some(t.span("world.sample", 0, || {
            McBackend::sample(&graph, worlds, 0x5EED ^ rep as u64)
        }));
    }
    let backend = backend.expect("at least one sample");
    m.insert("world.sample_ms", median(&t.durations_ms("world.sample")));
    m.insert(
        "world.resident_bytes",
        backend.cache().resident_bytes() as f64,
    );
    m.insert("world.live_density", backend.cache().live_density());

    // lane: first simulate_batch (block decode included), then batches of
    // 1 and 2 over the workload's deployments.
    let deps: Vec<Deployment> = reference
        .expected
        .iter()
        .map(|payload| deployment_of(payload, graph.node_count()))
        .collect();
    let refs: Vec<DeploymentRef<'_>> = deps
        .iter()
        .map(|(s, c)| DeploymentRef {
            seeds: s,
            coupons: c,
        })
        .collect();
    let ev = backend.evaluator(&graph, &data);
    t.span("lane.decode", 0, || ev.simulate_batch(&refs[..1]));
    for i in 0..LANE_REPS {
        let d = [refs[i % refs.len()]];
        t.span("lane.simulate_b1", 0, || ev.simulate_batch(&d));
    }
    for i in 0..LANE_REPS {
        let d = [refs[i % refs.len()], refs[(i + 1) % refs.len()]];
        t.span("lane.simulate_b2", 0, || ev.simulate_batch(&d));
    }
    let evaluated = 1 + LANE_REPS * 3;
    let lane_b1 = median(&t.durations_ms("lane.simulate_b1"));
    m.insert("lane.decode_ms", t.durations_ms("lane.decode")[0]);
    m.insert("lane.simulate_b1_ms", lane_b1);
    m.insert(
        "lane.simulate_b2_ms",
        median(&t.durations_ms("lane.simulate_b2")),
    );
    m.insert(
        "lane.worlds",
        ev.kernel_world_counts().0 as f64 / evaluated as f64,
    );

    // core + engine: S3CA over the campaign cycle.
    let campaign_specs: Vec<CampaignSpec> = inputs
        .requests
        .iter()
        .map(|r| CampaignSpec::parse(split(r).1))
        .collect::<Result<_, _>>()?;
    let first = campaign_specs[0];
    let cfg_of = |spec: &CampaignSpec| S3caConfig {
        estimator: spec.estimator,
        sketch_epsilon: spec.epsilon,
        sketch_delta: spec.delta,
        ..S3caConfig::default()
    };
    let base_cfg = cfg_of(&first);
    let snapshot = McBackend::sample(&graph, base_cfg.snapshot_worlds, base_cfg.rng_seed);
    let mut runs: Vec<Telemetry> = Vec::new();
    for _ in 0..CAMPAIGN_REPS {
        for spec in &campaign_specs {
            let cfg = cfg_of(spec);
            let binv = budget * spec.budget_mult;
            let r = t.span("core.s3ca", 0, || {
                s3ca_with_snapshot_backend(&graph, &data, binv, &cfg, Some(&snapshot))
            });
            runs.push(r.telemetry);
        }
    }
    let tel_mean =
        |f: &dyn Fn(&Telemetry) -> f64| -> f64 { mean(&runs.iter().map(f).collect::<Vec<_>>()) };
    let s3ca_ms = mean(&t.durations_ms("core.s3ca"));
    let id_ms = tel_mean(&|x| x.id_micros as f64 / 1e3);
    let gpi_ms = tel_mean(&|x| x.gpi_micros as f64 / 1e3);
    let scm_ms = tel_mean(&|x| x.scm_micros as f64 / 1e3);
    m.insert("core.s3ca_ms", s3ca_ms);
    m.insert("core.id_ms", id_ms);
    m.insert("core.gpi_ms", gpi_ms);
    m.insert("core.scm_ms", scm_ms);
    m.insert("core.unattributed_ms", s3ca_ms - id_ms - gpi_ms - scm_ms);
    m.insert("core.id_iterations", tel_mean(&|x| x.id_iterations as f64));
    m.insert("core.gp_count", tel_mean(&|x| x.gp_count as f64));
    m.insert(
        "core.scm_commit_ratio",
        tel_mean(&|x| ratio(x.scm_paths_created as f64, x.gp_count as f64)),
    );
    m.insert("core.explored_ratio", tel_mean(&|x| x.explored_ratio));
    m.insert(
        "engine.lazy_rescores",
        tel_mean(&|x| x.eval_lazy_rescores as f64),
    );
    m.insert(
        "engine.incremental_updates",
        tel_mean(&|x| x.eval_incremental_updates as f64),
    );
    m.insert(
        "engine.holder_rebuilds",
        tel_mean(&|x| x.eval_holder_rebuilds as f64),
    );
    m.insert(
        "engine.full_rebuilds",
        tel_mean(&|x| x.eval_full_rebuilds as f64),
    );
    m.insert(
        "engine.rescores_per_iteration",
        tel_mean(&|x| ratio(x.eval_lazy_rescores as f64, x.id_iterations as f64)),
    );

    // sketch: the index a sketch campaign builds (same ε, δ and seed).
    let params = SketchParams {
        seed: base_cfg.rng_seed,
        epsilon: first.epsilon,
        delta: first.delta,
        ..SketchParams::default()
    };
    let mut index = None;
    for _ in 0..SKETCH_REPS {
        index = Some(t.span("sketch.build", 0, || {
            SketchIndex::build(&graph, &data, &params)
        }));
    }
    let index = index.expect("at least one build");
    m.insert("sketch.build_ms", median(&t.durations_ms("sketch.build")));
    m.insert("sketch.sketches", index.sketch_count() as f64);
    m.insert("sketch.capped", f64::from(u8::from(index.stats().capped)));
    m.insert("sketch.resident_bytes", index.resident_bytes() as f64);

    // serve: warm in-process ServeState calls: `run_campaign` over the
    // cycle, and `probe` on the campaigns' final deployments at their
    // evaluation world count (the evaluation a campaign submits to the
    // batcher).
    let state = &reference.state;
    let probes: Vec<String> = deps
        .iter()
        .zip(&campaign_specs)
        .map(|(d, spec)| eval_probe_line(d, spec.eval_worlds, spec.seed))
        .collect();
    for _ in 0..CAMPAIGN_REPS {
        for r in &inputs.requests {
            t.span("serve.run_campaign", 0, || serve_in_process(state, r))?;
        }
        for r in &probes {
            t.span("serve.probe", 0, || serve_in_process(state, r))?;
        }
    }
    let probe_ms = median(&t.durations_ms("serve.probe"));
    m.insert(
        "serve.run_campaign_ms",
        mean(&t.durations_ms("serve.run_campaign")),
    );
    m.insert("serve.probe_ms", probe_ms);
    m.insert("serve.batch_wait_ms", probe_ms - lane_b1);
    m.insert("serve.wire_ms", mean(&wire_ms));

    let trace_path = work.with_extension("trace.jsonl");
    t.write_jsonl(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    println!(
        "# requests: warm_up=1 measured={} ok={ok} mismatch={} serial={} spans={} -> {}",
        lat.count(),
        load.count(Outcome::Mismatch),
        SERIAL_REPS * inputs.requests.len(),
        t.len(),
        trace_path.display()
    );
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = *m
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} not measured"));
            println!("{name} = {value} {unit}");
            Metric { name, unit, value }
        })
        .collect();
    let correct = load.count(Outcome::Mismatch) == 0 && ok > 0 && serial_ok;
    let attempted = lat.count();
    Ok(Report {
        line: stats::result_line(correct, attempted, attempted - ok, &metrics)?,
        correct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deploy_rows_parse_into_seeds_and_coupons() {
        let payload: Vec<String> = [
            "SUMMARY h",
            "SUMMARY r",
            "DEPLOY node,seed,coupons",
            "DEPLOY 1,1,3",
            "DEPLOY 4,0,2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (seeds, coupons) = deployment_of(&payload, 6);
        assert_eq!(seeds, vec![NodeId(1)]);
        assert_eq!(coupons, vec![0, 3, 0, 0, 2, 0]);
        let line = eval_probe_line(&(seeds, coupons), 64, 9);
        assert_eq!(line, "PROBE worlds=64 seed=9 seeds=1 coupons=1:3;4:2");
    }

    #[test]
    fn telemetry_wall_time_is_read_from_campaign_replies() {
        let reply: Vec<String> = ["OK rows=0", "TELEMETRY wall_ms=12.5 id_micros=3", "END"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(telemetry_wall_ms(&reply), Some(12.5));
        assert_eq!(telemetry_wall_ms(&["STATS benefit=1".to_string()]), None);
    }
}
