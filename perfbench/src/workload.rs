//! Seeded request generation for the three workloads, with every
//! expected reply payload computed by `sdp-oracle` before any clock
//! starts.
//!
//! A [`Problem`] is one DP instance: its request line (minus the id,
//! which the driver stamps at send time) and what its reply's `result`
//! must be, byte for byte.  A [`Plan`] is the full schedule of one run:
//! the problems, which of them each server start-up sends, and the
//! closed-loop and open-loop request streams as indices into the
//! problems.

use sdp_andor::graph::AndOrGraph;
use sdp_oracle::reference::minplus_string_ref;
use sdp_oracle::served;
use sdp_semiring::{Cost, Matrix, MinPlus};
use sdp_serve::client;
use sdp_serve::protocol::Class;
use sdp_trace::json::Json;
use std::collections::HashSet;
use std::time::Duration;

/// SplitMix64: a tiny, seedable generator (inputs only; nothing here
/// needs statistical strength).
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; the same seed gives the same stream.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0F5D_B0A1_7E57)
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Operand sizes of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Matrices per multistage string.
    pub stages: usize,
    /// Side of every multistage matrix.
    pub stage_width: usize,
    /// Side of both matmul operands.
    pub matmul: usize,
    /// Length of both edit operands.
    pub edit: usize,
    /// Matrices in a chain request.
    pub chain: usize,
    /// Keys in a BST request.
    pub bst: usize,
    /// Length of both align operands.
    pub align: usize,
    /// Knapsack items.
    pub items: usize,
    /// Knapsack capacity.
    pub capacity: u64,
}

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Classes the stream cycles through, in order.
    pub classes: &'static [Class],
    /// Operand sizes.
    pub sizes: Sizes,
    /// Distinct problems the stream draws from, or `None` when every
    /// request is a fresh problem.
    pub hot_set: Option<usize>,
    /// Fixed open-loop rate (requests/s): about half the closed-loop
    /// capacity measured when the benchmark was defined.  Kept fixed
    /// so that later changes are compared at the same offered load.
    pub rate: f64,
    /// Closed-loop requests generated per second of the capacity
    /// phase: an upper bound on capacity for workloads of fresh
    /// problems.  If a faster server exhausts it, the phase ends early
    /// and capacity is taken over the shorter window.
    pub closed_budget_per_s: f64,
    /// Open-loop requests the traced run replays in-process.
    pub replay: usize,
    /// Open-loop requests whose operands the traced run times the
    /// engine, kernel and simulator layers on.
    pub layer_sample: usize,
}

const SMALL: Sizes = Sizes {
    stages: 4,
    stage_width: 4,
    matmul: 6,
    edit: 10,
    chain: 8,
    bst: 8,
    align: 12,
    items: 6,
    capacity: 32,
};

/// All nine served classes.
const ALL_CLASSES: [Class; 9] = sdp_serve::protocol::CLASSES;

/// The classes with large-operand kernels.
const KERNEL_CLASSES: [Class; 6] = [
    Class::Edit,
    Class::Align,
    Class::Knapsack,
    Class::Matmul,
    Class::Chain,
    Class::Bst,
];

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "hot",
        classes: &ALL_CLASSES,
        sizes: SMALL,
        hot_set: Some(64),
        rate: 30_000.0,
        closed_budget_per_s: 400_000.0,
        replay: 20_000,
        layer_sample: 270,
    },
    Workload {
        name: "cold",
        classes: &ALL_CLASSES,
        sizes: SMALL,
        hot_set: None,
        rate: 1_400.0,
        closed_budget_per_s: 12_000.0,
        replay: 20_000,
        layer_sample: 270,
    },
    Workload {
        name: "large",
        classes: &KERNEL_CLASSES,
        sizes: Sizes {
            stages: 0,
            stage_width: 0,
            matmul: 48,
            edit: 512,
            chain: 96,
            bst: 96,
            align: 512,
            items: 64,
            capacity: 16_384,
        },
        hot_set: None,
        rate: 140.0,
        closed_budget_per_s: 700.0,
        replay: 1_000,
        layer_sample: 12,
    },
];

/// What a reply's `result` must be.
pub enum Expect {
    /// Byte-identical to this rendering.
    Exact(String),
    /// A Design 2 reply: `values` byte-identical to the oracle's, and
    /// the engine-chosen `path` must be a path through `mats` whose
    /// cost is `optimum`.
    Design2 {
        values: String,
        optimum: i64,
        mats: Vec<Matrix<MinPlus>>,
    },
}

/// One generated DP instance.
pub struct Problem {
    /// The request line after its leading `{"id":N,`.
    pub tail: String,
    /// The oracle's verdict on its reply.
    pub expect: Expect,
}

impl Problem {
    /// The request line carrying `id`.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"id\":{id},{}", self.tail)
    }

    /// Whether `reply` is a success line for request `id` whose
    /// `result` matches the oracle byte for byte.
    pub fn check(&self, id: u64, reply: &[u8]) -> bool {
        let prefix = format!("{{\"id\":{id},\"ok\":true,\"result\":");
        let Some(rest) = reply.strip_prefix(prefix.as_bytes()) else {
            return false;
        };
        // No payload contains this key, so its last occurrence ends
        // the result.
        let marker = b",\"cached\":";
        let Some(end) = rest.windows(marker.len()).rposition(|w| w == marker) else {
            return false;
        };
        let payload = &rest[..end];
        match &self.expect {
            Expect::Exact(expected) => payload == expected.as_bytes(),
            Expect::Design2 {
                values,
                optimum,
                mats,
            } => design2_ok(payload, values, *optimum, mats),
        }
    }
}

/// Checks a Design 2 payload: oracle values byte for byte, then the
/// path it names must cross every stage and cost exactly the optimum.
fn design2_ok(payload: &[u8], values: &str, optimum: i64, mats: &[Matrix<MinPlus>]) -> bool {
    let head = format!("{{\"values\":{values},\"path\":[");
    let Some(path_text) = payload
        .strip_prefix(head.as_bytes())
        .and_then(|p| p.strip_suffix(b"]}"))
    else {
        return false;
    };
    let Ok(path) = std::str::from_utf8(path_text).map(|t| {
        t.split(',')
            .map(|v| v.parse::<usize>().ok())
            .collect::<Option<Vec<_>>>()
    }) else {
        return false;
    };
    let Some(path) = path else { return false };
    if path.len() != mats.len() + 1 {
        return false;
    }
    let mut cost = Cost::new(0);
    for (k, m) in mats.iter().enumerate() {
        let (i, j) = (path[k], path[k + 1]);
        if i >= m.rows() || j >= m.cols() {
            return false;
        }
        cost += m.get(i, j).0;
    }
    // The re-rendering must also match, so the check stays byte-exact.
    let rendered: Vec<String> = path.iter().map(|v| v.to_string()).collect();
    cost.finite() == Some(optimum) && rendered.join(",").as_bytes() == path_text
}

/// Raw content of one generated instance, before its oracle answer is
/// computed.
enum Spec {
    Multistage(u8, Vec<Matrix<MinPlus>>),
    Matmul(Matrix<MinPlus>, Matrix<MinPlus>),
    Edit(Vec<u8>, Vec<u8>),
    Chain(Vec<u64>),
    Bst(Vec<u64>),
    AndOr(AndOrGraph, usize),
    Align(Vec<u8>, Vec<u8>),
    Knapsack(Vec<(u64, u64)>, u64),
}

fn matrix(rng: &mut Rng, rows: usize, cols: usize, max: u64, inf_pct: u64) -> Matrix<MinPlus> {
    let cells = (0..rows * cols)
        .map(|_| {
            if rng.range(1, 100) <= inf_pct {
                MinPlus(Cost::INF)
            } else {
                MinPlus(Cost::new(rng.range(0, max) as i64))
            }
        })
        .collect();
    Matrix::from_rows(rows, cols, cells)
}

fn dna(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| b"acgt"[rng.range(0, 3) as usize])
        .collect()
}

/// A layered AND/OR graph: leaves, two mixed AND/OR levels, and an OR
/// root; children always sit at lower levels, as the wire format
/// requires.  Returns the graph and its `nodes` wire array.
fn andor(rng: &mut Rng) -> (AndOrGraph, Json) {
    let mut g = AndOrGraph::new();
    let mut nodes = Vec::new();
    for _ in 0..5 {
        let v = rng.range(0, 20);
        g.add_leaf(0, Cost::new(v as i64));
        nodes.push(
            Json::object()
                .with("op", "leaf")
                .with("level", 0u64)
                .with("value", v),
        );
    }
    for (level, count) in [(1usize, 3usize), (2, 2), (3, 1)] {
        let below = g.len();
        for _ in 0..count {
            let fan_in = rng.range(2, 3) as usize;
            let mut kids: Vec<usize> = Vec::new();
            while kids.len() < fan_in {
                let c = rng.range(0, below as u64 - 1) as usize;
                if !kids.contains(&c) {
                    kids.push(c);
                }
            }
            let kids_json = Json::Array(kids.iter().map(|&c| Json::from(c)).collect());
            if level < 3 && rng.range(0, 1) == 0 {
                let cost = rng.range(0, 10);
                g.add_and(level, kids, Cost::new(cost as i64));
                nodes.push(
                    Json::object()
                        .with("op", "and")
                        .with("level", level)
                        .with("cost", cost)
                        .with("children", kids_json),
                );
            } else {
                g.add_or(level, kids);
                nodes.push(
                    Json::object()
                        .with("op", "or")
                        .with("level", level)
                        .with("children", kids_json),
                );
            }
        }
    }
    (g, Json::Array(nodes))
}

/// Draws one instance of `class` and renders its request line with id 0.
fn draw(rng: &mut Rng, class: Class, s: &Sizes) -> (Spec, String) {
    let text = |v: &[u8]| String::from_utf8(v.to_vec()).expect("ASCII operands");
    match class {
        Class::Multistage1 | Class::Multistage2 => {
            let design = if class == Class::Multistage1 { 1 } else { 2 };
            let mats: Vec<_> = (0..s.stages)
                .map(|_| matrix(rng, s.stage_width, s.stage_width, 20, 0))
                .collect();
            let line = client::multistage_request(0, design, &mats);
            (Spec::Multistage(design, mats), line)
        }
        Class::Matmul => {
            let a = matrix(rng, s.matmul, s.matmul, 50, 10);
            let b = matrix(rng, s.matmul, s.matmul, 50, 10);
            let line = client::matmul_request(0, &a, &b);
            (Spec::Matmul(a, b), line)
        }
        Class::Edit => {
            let (a, b) = (dna(rng, s.edit), dna(rng, s.edit));
            let line = client::edit_request(0, &text(&a), &text(&b));
            (Spec::Edit(a, b), line)
        }
        Class::Chain => {
            let dims: Vec<u64> = (0..=s.chain).map(|_| rng.range(2, 40)).collect();
            let line = client::chain_request(0, &dims);
            (Spec::Chain(dims), line)
        }
        Class::Bst => {
            let freq: Vec<u64> = (0..s.bst).map(|_| rng.range(1, 30)).collect();
            let line = client::bst_request(0, &freq);
            (Spec::Bst(freq), line)
        }
        Class::AndOr => {
            let (g, nodes) = andor(rng);
            let root = g.len() - 1;
            let line = Json::object()
                .with("id", Json::Int(0))
                .with("kind", "andor")
                .with("nodes", nodes)
                .with("root", root)
                .render();
            (Spec::AndOr(g, root), line)
        }
        Class::Align => {
            let (a, b) = (dna(rng, s.align), dna(rng, s.align));
            let line = client::align_request(0, &text(&a), &text(&b), None);
            (Spec::Align(a, b), line)
        }
        Class::Knapsack => {
            let max_w = (s.capacity / 32).max(12);
            let items: Vec<(u64, u64)> = (0..s.items)
                .map(|_| (rng.range(1, max_w), rng.range(1, 1000)))
                .collect();
            let (w, v): (Vec<u64>, Vec<u64>) = items.iter().copied().unzip();
            let line = client::knapsack_request(0, &w, &v, s.capacity);
            (Spec::Knapsack(items, s.capacity), line)
        }
    }
}

/// The oracle's expected `result` for an instance.  Chain replies also
/// carry the array's completion step, which the paper's broadcast
/// chain array reaches in exactly `N` steps for `N` matrices.
fn expect(spec: &Spec) -> Expect {
    let exact = |j: Json| Expect::Exact(j.render());
    match spec {
        Spec::Multistage(1, mats) => exact(served::served_multistage1(mats)),
        Spec::Multistage(_, mats) => Expect::Design2 {
            values: served::served_multistage_values(mats).render(),
            optimum: minplus_string_ref(mats)
                .row_mins()
                .into_iter()
                .flatten()
                .min()
                .expect("multistage operands are all finite"),
            mats: mats.clone(),
        },
        Spec::Matmul(a, b) => exact(served::served_matmul(a, b)),
        Spec::Edit(a, b) => exact(served::served_edit(a, b)),
        Spec::Chain(dims) => Expect::Exact(format!(
            "{{\"cost\":{},\"steps\":{}}}",
            served::served_chain_cost(dims).render(),
            dims.len() - 1
        )),
        Spec::Bst(freq) => exact(served::served_bst(freq)),
        Spec::AndOr(g, root) => exact(served::served_andor(g, *root)),
        Spec::Align(a, b) => exact(served::served_align(a, b, 2, -1, 1)),
        Spec::Knapsack(items, capacity) => exact(served::served_knapsack(items, *capacity)),
    }
}

/// Draws `n` pairwise-distinct problems cycling through the
/// workload's classes, then computes their oracle answers on all
/// cores (the answers for large operands take milliseconds each).
fn distinct_problems(rng: &mut Rng, w: &Workload, n: usize) -> Vec<Problem> {
    let mut seen = HashSet::new();
    let mut drawn = Vec::with_capacity(n);
    while drawn.len() < n {
        let class = w.classes[drawn.len() % w.classes.len()];
        let (spec, line) = draw(rng, class, &w.sizes);
        let tail = line
            .strip_prefix("{\"id\":0,")
            .expect("request builders put the id first")
            .to_string();
        if seen.insert(tail.clone()) {
            drawn.push((tail, spec));
        }
    }
    let threads = crate::sys::nproc().max(1);
    let chunk = n.div_ceil(threads).max(1);
    let expects: Vec<Expect> = std::thread::scope(|scope| {
        let handles: Vec<_> = drawn
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || part.iter().map(|(_, s)| expect(s)).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    drawn
        .into_iter()
        .zip(expects)
        .map(|((tail, _), expect)| Problem { tail, expect })
        .collect()
}

/// The full request schedule of one run.
pub struct Plan {
    /// Every problem the run may send.
    pub problems: Vec<Problem>,
    /// Per server start-up, the problems it sends before it counts as
    /// set up.
    pub setup: Vec<Vec<u32>>,
    /// The closed-loop stream.
    pub closed: Vec<u32>,
    /// The open-loop stream, one request per schedule slot.
    pub open: Vec<u32>,
}

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Builds the schedule for `seed`: `setups` server start-ups, a
    /// closed loop of `closed_for`, an open loop of `open_for` at the
    /// workload's fixed rate.
    pub fn plan(&self, seed: u64, setups: usize, closed_for: Duration, open_for: Duration) -> Plan {
        let mut rng = Rng::new(seed);
        let closed_n = (closed_for.as_secs_f64() * self.closed_budget_per_s).ceil() as usize;
        let open_n = (open_for.as_secs_f64() * self.rate).round() as usize;
        match self.hot_set {
            Some(set) => {
                let problems = distinct_problems(&mut rng, self, set);
                let mut pick = |n: usize| -> Vec<u32> {
                    (0..n)
                        .map(|_| rng.range(0, set as u64 - 1) as u32)
                        .collect()
                };
                let closed = pick(closed_n);
                let open = pick(open_n);
                Plan {
                    problems,
                    setup: vec![(0..set as u32).collect(); setups],
                    closed,
                    open,
                }
            }
            None => {
                let problems = distinct_problems(&mut rng, self, setups + closed_n + open_n);
                let ids: Vec<u32> = (0..problems.len() as u32).collect();
                let (setup, rest) = ids.split_at(setups);
                let (closed, open) = rest.split_at(closed_n);
                Plan {
                    setup: setup.iter().map(|&i| vec![i]).collect(),
                    closed: closed.to_vec(),
                    open: open.to_vec(),
                    problems,
                }
            }
        }
    }
}
