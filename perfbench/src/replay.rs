//! The traced run: the workload's request stream replayed in-process
//! through the server's public layer functions, one span per layer
//! call, plus direct timings of the engine, kernel and simulator
//! layers on the workload's operands.
//!
//! The replay follows the server's request path for one connection:
//! parse → decode → canonical and shape key → cache probe → (on a
//! miss) engine with the shipped dispatch threshold → render → cache
//! insert.  It runs every bucket alone, since coalescing lives in the
//! queue layer, whose behaviour is read from the server's own metrics
//! instead.  Spans stay in memory until the run ends and are written
//! with `sdp-trace`'s Chrome writer.

use crate::sys::thread_cpu_ns;
use crate::workload::Problem;
use sdp_core::align::{sw_mesh_batch, Scoring};
use sdp_core::chain_array::{simulate_chain_array, ChainMapping};
use sdp_core::design1::Design1Array;
use sdp_core::design2::Design2Array;
use sdp_core::edit_array::edit_distance_mesh_batch;
use sdp_core::knapsack_array::knapsack_array_batch;
use sdp_core::matmul_array::MatmulArray;
use sdp_serve::cache::LruCache;
use sdp_serve::engine::{self, EngineKind};
use sdp_serve::protocol::{self, Body, Request, CLASSES};
use sdp_serve::{json, Config};
use sdp_trace::chrome::ChromeTrace;
use sdp_trace::json::Json;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One timed layer call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span store; with `on` false it records nothing, which is
/// the untraced replay the tracing overhead is measured against.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    on: bool,
}

impl Spans {
    /// A store that records (`on`) or only runs the calls.
    pub fn new(on: bool) -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            on,
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.t0.elapsed().as_nanos() as u64;
        }
    }

    fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, parent, request);
        let out = f();
        self.close(span);
        out
    }

    /// Self time per span name: each span's duration minus the time
    /// its child spans cover, summed, with the number of spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(children) {
            let entry = out.entry(s.name).or_insert((0, 0));
            entry.0 += (s.end_ns - s.start_ns).saturating_sub(covered);
            entry.1 += 1;
        }
        out
    }

    /// Writes every span as a Chrome trace-event document (µs
    /// timestamps; the layer is the category).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut trace = ChromeTrace::new();
        for s in &self.spans {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(Json::Null, Json::from);
            trace.complete_with_args(
                s.name,
                layer,
                s.start_ns / 1000,
                ((s.end_ns - s.start_ns) / 1000).max(1),
                1,
                0,
                vec![
                    ("request".to_string(), Json::from(s.request)),
                    ("parent".to_string(), parent),
                ],
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, trace.render())
    }
}

/// Replays `warm` (unrecorded) and then `stream` through the layers,
/// checking each reply against the oracle.  Returns the thread CPU
/// time the `stream` part took, in ns.
pub fn replay(problems: &[Problem], warm: &[u32], stream: &[u32], spans: &mut Spans) -> u64 {
    let cfg = Config::default();
    let mut caches: Vec<LruCache> = CLASSES
        .iter()
        .map(|_| LruCache::new(cfg.cache_capacity))
        .collect();
    let recording = spans.on;
    spans.on = false;
    for (id, &p) in warm.iter().enumerate() {
        serve_one(&problems[p as usize], id as u64, &mut caches, &cfg, spans);
    }
    spans.on = recording;
    let cpu0 = thread_cpu_ns();
    for (i, &p) in stream.iter().enumerate() {
        let id = (warm.len() + i) as u64;
        serve_one(&problems[p as usize], id, &mut caches, &cfg, spans);
    }
    thread_cpu_ns() - cpu0
}

fn serve_one(problem: &Problem, id: u64, caches: &mut [LruCache], cfg: &Config, spans: &mut Spans) {
    let line = problem.line(id);
    let root = spans.open("request", None, id);
    let doc = spans
        .time("json.parse", root, id, || json::parse(&line))
        .expect("generated lines are valid JSON");
    let request = spans
        .time("protocol.decode", root, id, || protocol::decode(&doc))
        .expect("generated requests decode");
    let Request::Compute { body, .. } = request else {
        unreachable!("only compute requests are generated")
    };
    let class = body.class();
    let (key, shape) = spans.time("protocol.key", root, id, || {
        (body.canonical_key(), body.shape_key())
    });
    black_box(shape);
    let cache = &mut caches[class.index()];
    let hit = spans.time("cache.lookup", root, id, || cache.get(&key));
    let reply = match hit {
        Some(payload) => spans.time("protocol.render", root, id, || {
            protocol::ok_cached_response(id as i64, &payload)
        }),
        None => {
            let bodies = vec![body];
            let kind = engine::choose(&bodies, cfg.direct_threshold);
            let mut results = spans.time("engine", root, id, || {
                engine::run_bucket_on(kind, class, &bodies)
            });
            let payload = results
                .pop()
                .expect("one result per body")
                .expect("generated problems are valid");
            let (stored, reply) = spans.time("protocol.render", root, id, || {
                let stored: Arc<str> = Arc::from(payload.render());
                let reply = protocol::ok_engine_response(id as i64, payload, 1, kind.name());
                (stored, reply)
            });
            spans.time("cache.insert", root, id, || cache.insert(key, stored));
            reply
        }
    };
    spans.close(root);
    assert!(
        problem.check(id, reply.as_bytes()),
        "in-process replay disagrees with the oracle: {reply}"
    );
}

/// Direct timings of the engine, kernel and simulator layers.
#[derive(Default)]
pub struct Layers {
    /// Bodies timed.
    pub requests: u64,
    /// Of those, bodies the shipped threshold routes to the simulator.
    pub sim_requests: u64,
    /// `engine::run_bucket_on`, simulator arm, total ns over the
    /// simulator-routed bodies.
    pub engine_sim_ns: u64,
    /// `engine::run_bucket_on`, direct arm, total ns over all bodies.
    pub engine_direct_ns: u64,
    /// Work measure (`engine::body_work`) summed over all bodies.
    pub cells: u64,
    /// Per kernel class: (ns, cells) of the `sdp-backend` call.
    pub backend: BTreeMap<&'static str, (u64, u64)>,
    /// Simulator runs.
    pub sim_runs: u64,
    /// Simulator time, ns.
    pub sim_ns: u64,
    /// Simulated cycles.
    pub sim_cycles: u64,
}

fn timed<R>(ns: &mut u64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = black_box(f());
    *ns += t.elapsed().as_nanos() as u64;
    out
}

/// Times the engine arms, the direct kernels and the cycle-accurate
/// simulators on each problem of `sample`.  The simulator is run only
/// on the operands the shipped dispatch threshold sends to it (on
/// large operands it is the slow path the threshold exists to avoid).
/// Every engine payload must match the oracle, and every simulated
/// cycle count must equal the closed form the direct solver reports.
pub fn layers(problems: &[Problem], sample: &[u32]) -> Layers {
    let threshold = Config::default().direct_threshold;
    let mut out = Layers::default();
    for &p in sample {
        let problem = &problems[p as usize];
        let line = problem.line(0);
        let doc = json::parse(&line).expect("generated lines are valid JSON");
        let Ok(Request::Compute { body, .. }) = protocol::decode(&doc) else {
            unreachable!("only compute requests are generated")
        };
        let class = body.class();
        let bodies = vec![body];
        let mut arms = vec![EngineKind::Direct];
        if engine::choose(&bodies, threshold) == EngineKind::Sim {
            arms.push(EngineKind::Sim);
            out.sim_requests += 1;
        }
        for kind in arms {
            let ns = match kind {
                EngineKind::Sim => &mut out.engine_sim_ns,
                EngineKind::Direct => &mut out.engine_direct_ns,
            };
            let mut results = timed(ns, || engine::run_bucket_on(kind, class, &bodies));
            let payload = results
                .pop()
                .expect("one result per body")
                .expect("generated problems are valid");
            let reply = protocol::ok_engine_response(0, payload, 1, kind.name());
            assert!(
                problem.check(0, reply.as_bytes()),
                "{} engine disagrees with the oracle: {reply}",
                kind.name()
            );
            if kind == EngineKind::Sim {
                let (ns, cycles) = simulate(&bodies[0]);
                if cycles > 0 {
                    out.sim_runs += 1;
                    out.sim_ns += ns;
                    out.sim_cycles += cycles;
                }
            }
        }
        out.requests += 1;
        let cells = engine::body_work(&bodies[0]);
        out.cells += cells;
        if let Some((name, ns)) = kernel_ns(&bodies[0]) {
            let entry = out.backend.entry(name).or_insert((0, 0));
            entry.0 += ns;
            entry.1 += cells;
        }
    }
    out
}

fn string_width(mats: &[sdp_semiring::Matrix<sdp_semiring::MinPlus>]) -> usize {
    if mats[0].rows() == 1 {
        mats[0].cols()
    } else {
        mats[0].rows()
    }
}

/// Times the `sdp-backend` kernel for a body of one of the kernel
/// classes the benchmark reports.
fn kernel_ns(body: &Body) -> Option<(&'static str, u64)> {
    let mut ns = 0;
    let name = match body {
        Body::Edit { a, b } => {
            let pairs = [(a.as_slice(), b.as_slice())];
            timed(&mut ns, || sdp_backend::edit_direct_batch(&pairs)).ok()?;
            "edit"
        }
        Body::Align {
            a,
            b,
            matched,
            mismatched,
            gap,
        } => {
            let pairs = [(a.as_slice(), b.as_slice())];
            let scoring = Scoring::simple(*matched, *mismatched, *gap);
            timed(&mut ns, || sdp_backend::sw_direct_batch(&pairs, &scoring)).ok()?;
            "align"
        }
        Body::Knapsack { items, capacity } => {
            let batch = [items.as_slice()];
            timed(&mut ns, || {
                sdp_backend::knapsack_direct_batch(&batch, *capacity)
            })
            .ok()?;
            "knapsack"
        }
        Body::Matmul { a, b } => {
            let pairs = [(a.clone(), b.clone())];
            timed(&mut ns, || sdp_backend::matmul_direct_batch(&pairs)).ok()?;
            "matmul"
        }
        Body::Chain { dims } => {
            timed(&mut ns, || sdp_backend::chain_direct(dims)).ok()?;
            "chain"
        }
        Body::Multistage { .. } | Body::Bst { .. } | Body::AndOr { .. } => return None,
    };
    Some((name, ns))
}

/// Runs the cycle-accurate simulator for a body whose class has a
/// systolic array, asserting its cycle count against the closed form
/// (`sdp-backend`'s analytic count, or `N` steps for the broadcast
/// chain array); returns (ns, cycles), or zeros for a class with no
/// array.
fn simulate(body: &Body) -> (u64, u64) {
    let mut ns = 0;
    let (cycles, closed_form) = match body {
        Body::Multistage { design, mats } => {
            let m = string_width(mats);
            let strings = [mats.as_slice()];
            if *design == 1 {
                let array = Design1Array::try_new(m).expect("the engine accepted these operands");
                let run = timed(&mut ns, || array.run_batch(&strings))
                    .expect("the engine accepted these operands");
                let direct = sdp_backend::design1_direct_batch(m, &strings)
                    .expect("the engine accepted these operands");
                (run.cycles, direct.cycles)
            } else {
                let array = Design2Array::try_new(m).expect("the engine accepted these operands");
                let run = timed(&mut ns, || array.run_batch(&strings))
                    .expect("the engine accepted these operands");
                let direct = sdp_backend::design2_direct_batch(m, &strings)
                    .expect("the engine accepted these operands");
                (run.cycles, direct.cycles)
            }
        }
        Body::Matmul { a, b } => {
            let pairs = [(a.clone(), b.clone())];
            let run = timed(&mut ns, || MatmulArray::multiply_batch(&pairs))
                .expect("the engine accepted these operands");
            let direct = sdp_backend::matmul_direct_batch(&pairs)
                .expect("the engine accepted these operands");
            (run.cycles, direct.cycles)
        }
        Body::Edit { a, b } => {
            let pairs = [(a.as_slice(), b.as_slice())];
            let run = timed(&mut ns, || edit_distance_mesh_batch(&pairs))
                .expect("the engine accepted these operands");
            let direct =
                sdp_backend::edit_direct_batch(&pairs).expect("the engine accepted these operands");
            (run.cycles, direct.cycles)
        }
        Body::Align {
            a,
            b,
            matched,
            mismatched,
            gap,
        } => {
            let pairs = [(a.as_slice(), b.as_slice())];
            let scoring = Scoring::simple(*matched, *mismatched, *gap);
            let run = timed(&mut ns, || sw_mesh_batch(&pairs, &scoring))
                .expect("the engine accepted these operands");
            let direct = sdp_backend::sw_direct_batch(&pairs, &scoring)
                .expect("the engine accepted these operands");
            (run.cycles, direct.cycles)
        }
        Body::Knapsack { items, capacity } => {
            let batch = [items.as_slice()];
            let run = timed(&mut ns, || knapsack_array_batch(&batch, *capacity))
                .expect("the engine accepted these operands");
            let direct = sdp_backend::knapsack_direct_batch(&batch, *capacity)
                .expect("the engine accepted these operands");
            (run.cycles, direct.cycles)
        }
        Body::Chain { dims } => {
            let run = timed(&mut ns, || {
                simulate_chain_array(dims, ChainMapping::Broadcast)
            });
            (run.finish, sdp_backend::chain_steps(dims.len() - 1))
        }
        Body::Bst { .. } | Body::AndOr { .. } => return (0, 0),
    };
    assert_eq!(
        cycles,
        closed_form,
        "simulated cycles differ from the closed form for {:?}",
        body.class()
    );
    (ns, cycles)
}
