//! The NDJSON wire protocol: typed requests, canonical cache keys, and
//! response rendering.
//!
//! One request per line, one response per line.  Every request carries
//! an `id` echoed back verbatim and a `kind` naming the engine family:
//!
//! | kind         | payload                                      | engine            |
//! |--------------|----------------------------------------------|-------------------|
//! | `multistage` | `design` (1/2), `mats` (min-plus matrices)   | Design 1/2 arrays |
//! | `matmul`     | `a`, `b` (min-plus matrices)                 | matmul mesh       |
//! | `edit`       | `a`, `b` (strings)                           | edit-distance mesh|
//! | `chain`      | `dims` (r₀…r_N)                              | chain array       |
//! | `bst`        | `freq` (access frequencies)                  | interval DP       |
//! | `andor`      | `nodes` (postorder), `root`                  | AND/OR evaluation |
//! | `align`      | `a`, `b` (strings), `match`/`mismatch`/`gap` | Smith–Waterman mesh |
//! | `knapsack`   | `weights`, `values`, `capacity`              | knapsack array    |
//! | `metrics`    | —                                            | server introspection |
//! | `metrics_text` | —                                          | Prometheus text exposition |
//! | `shutdown`   | —                                            | graceful drain    |
//!
//! Matrices are `{"rows":r,"cols":c,"data":[..]}` row-major with `null`
//! for +∞.  Responses are `{"id":..,"ok":true,"result":..,"cached":..,
//! "batch":..}` or `{"id":..,"ok":false,"error":{"kind":..,"message":..}}`.

use crate::json::{self, Json};
use sdp_andor::graph::AndOrGraph;
use sdp_core::knapsack_array::KnapsackItem;
use sdp_fault::SdpError;
use sdp_semiring::{Cost, Matrix, MinPlus};
use std::fmt::Write as _;

/// Engine class of a request — the unit of batch coalescing and of the
/// per-class metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// Design 1 (pipelined array) over a min-plus matrix string.
    Multistage1,
    /// Design 2 (broadcast array) over a min-plus matrix string.
    Multistage2,
    /// Result-stationary matmul mesh (min-plus product).
    Matmul,
    /// Edit-distance mesh.
    Edit,
    /// Matrix-chain parenthesization on the chain array.
    Chain,
    /// Optimal BST / alphabetic merge tree (interval DP).
    Bst,
    /// AND/OR-graph evaluation.
    AndOr,
    /// Smith–Waterman local-alignment mesh (simple scoring, linear gap).
    Align,
    /// 0/1 knapsack on the capacity-indexed streaming array.
    Knapsack,
}

/// All engine classes, in metrics order.
pub const CLASSES: [Class; 9] = [
    Class::Multistage1,
    Class::Multistage2,
    Class::Matmul,
    Class::Edit,
    Class::Chain,
    Class::Bst,
    Class::AndOr,
    Class::Align,
    Class::Knapsack,
];

impl Class {
    /// Stable wire/metrics name.
    pub fn name(self) -> &'static str {
        match self {
            Class::Multistage1 => "multistage1",
            Class::Multistage2 => "multistage2",
            Class::Matmul => "matmul",
            Class::Edit => "edit",
            Class::Chain => "chain",
            Class::Bst => "bst",
            Class::AndOr => "andor",
            Class::Align => "align",
            Class::Knapsack => "knapsack",
        }
    }

    /// Index into per-class metric tables.
    pub fn index(self) -> usize {
        CLASSES.iter().position(|c| *c == self).expect("listed")
    }
}

/// A decoded compute request body (control requests are handled before
/// this level).
#[derive(Clone, Debug)]
pub enum Body {
    /// Min-plus matrix string for Design 1 or Design 2.
    Multistage {
        /// 1 = pipelined array, 2 = broadcast array.
        design: u8,
        /// The string `M₁ … M_N`.
        mats: Vec<Matrix<MinPlus>>,
    },
    /// One min-plus matrix product.
    Matmul {
        /// Left operand.
        a: Matrix<MinPlus>,
        /// Right operand.
        b: Matrix<MinPlus>,
    },
    /// One edit-distance comparison.
    Edit {
        /// First operand.
        a: Vec<u8>,
        /// Second operand.
        b: Vec<u8>,
    },
    /// Matrix-chain dimensions `r₀ … r_N`.
    Chain {
        /// Dimension vector (≥ 2 entries).
        dims: Vec<u64>,
    },
    /// Optimal-BST access frequencies.
    Bst {
        /// Frequencies (≥ 1 entry).
        freq: Vec<u64>,
    },
    /// An AND/OR graph plus the node to evaluate.
    AndOr {
        /// The graph, already validated (children precede parents).
        graph: AndOrGraph,
        /// Node whose value is requested.
        root: usize,
    },
    /// One Smith–Waterman local alignment under simple scoring.
    Align {
        /// First operand.
        a: Vec<u8>,
        /// Second operand.
        b: Vec<u8>,
        /// Score for a matching symbol pair.
        matched: i64,
        /// Score for a mismatching symbol pair.
        mismatched: i64,
        /// Per-symbol gap penalty (subtracted).
        gap: i64,
    },
    /// One 0/1 knapsack instance.
    Knapsack {
        /// The items (weight, value), in stream order.
        items: Vec<KnapsackItem>,
        /// Knapsack capacity.
        capacity: u64,
    },
}

impl Body {
    /// The engine class this body dispatches to.
    pub fn class(&self) -> Class {
        match self {
            Body::Multistage { design: 1, .. } => Class::Multistage1,
            Body::Multistage { .. } => Class::Multistage2,
            Body::Matmul { .. } => Class::Matmul,
            Body::Edit { .. } => Class::Edit,
            Body::Chain { .. } => Class::Chain,
            Body::Bst { .. } => Class::Bst,
            Body::AndOr { .. } => Class::AndOr,
            Body::Align { .. } => Class::Align,
            Body::Knapsack { .. } => Class::Knapsack,
        }
    }

    /// Canonical byte encoding of the problem — the exact-match cache
    /// key.  Two requests get the same encoding iff they describe the
    /// same problem instance, independent of JSON field order, spacing,
    /// or numeric spelling on the wire.
    pub fn canonical_key(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let push_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        let push_cost = |out: &mut Vec<u8>, c: Cost| {
            // INF shares no encoding with any finite cost (raw i64::MAX
            // is reserved by `Cost`), so raw bits are canonical.
            out.extend_from_slice(&c.raw().to_le_bytes())
        };
        let push_mat = |out: &mut Vec<u8>, m: &Matrix<MinPlus>| {
            push_u64(out, m.rows() as u64);
            push_u64(out, m.cols() as u64);
            for i in 0..m.rows() {
                for &MinPlus(c) in m.row(i) {
                    push_cost(out, c);
                }
            }
        };
        match self {
            Body::Multistage { design, mats } => {
                out.push(*design);
                push_u64(&mut out, mats.len() as u64);
                for m in mats {
                    push_mat(&mut out, m);
                }
            }
            Body::Matmul { a, b } => {
                out.push(10);
                push_mat(&mut out, a);
                push_mat(&mut out, b);
            }
            Body::Edit { a, b } => {
                out.push(20);
                push_u64(&mut out, a.len() as u64);
                out.extend_from_slice(a);
                push_u64(&mut out, b.len() as u64);
                out.extend_from_slice(b);
            }
            Body::Chain { dims } => {
                out.push(30);
                for &d in dims {
                    push_u64(&mut out, d);
                }
            }
            Body::Bst { freq } => {
                out.push(40);
                for &f in freq {
                    push_u64(&mut out, f);
                }
            }
            Body::AndOr { graph, root } => {
                out.push(50);
                push_u64(&mut out, *root as u64);
                push_u64(&mut out, graph.len() as u64);
                for id in 0..graph.len() {
                    let n = graph.node(id);
                    out.push(match n.kind {
                        sdp_andor::graph::NodeKind::Leaf => 0,
                        sdp_andor::graph::NodeKind::And => 1,
                        sdp_andor::graph::NodeKind::Or => 2,
                    });
                    push_u64(&mut out, n.level as u64);
                    push_cost(&mut out, n.local_cost);
                    push_cost(&mut out, n.leaf_value);
                    push_u64(&mut out, n.children.len() as u64);
                    for &c in &n.children {
                        push_u64(&mut out, c as u64);
                    }
                }
            }
            Body::Align {
                a,
                b,
                matched,
                mismatched,
                gap,
            } => {
                out.push(60);
                push_u64(&mut out, a.len() as u64);
                out.extend_from_slice(a);
                push_u64(&mut out, b.len() as u64);
                out.extend_from_slice(b);
                for s in [matched, mismatched, gap] {
                    out.extend_from_slice(&s.to_le_bytes());
                }
            }
            Body::Knapsack { items, capacity } => {
                out.push(70);
                push_u64(&mut out, *capacity);
                push_u64(&mut out, items.len() as u64);
                for it in items {
                    push_u64(&mut out, it.weight);
                    push_u64(&mut out, it.value);
                }
            }
        }
        out
    }

    /// FNV-1a hash of the canonical key — used for shape-independent
    /// telemetry and as the coalescing bucket discriminator's mix-in.
    pub fn canonical_hash(&self) -> u64 {
        fnv1a(&self.canonical_key())
    }

    /// The *shape* discriminator for batch coalescing: requests sharing
    /// a class and shape key can ride the same `run_batch` dispatch
    /// (the batched engines require uniform shapes).  Classes without a
    /// batched engine coalesce freely (shape 0) and are looped by the
    /// dispatch task.
    pub fn shape_key(&self) -> u64 {
        let mut bytes = Vec::new();
        match self {
            Body::Multistage { design, mats } => {
                bytes.push(*design);
                for m in mats {
                    bytes.extend_from_slice(&(m.rows() as u64).to_le_bytes());
                    bytes.extend_from_slice(&(m.cols() as u64).to_le_bytes());
                }
            }
            Body::Matmul { a, b } => {
                bytes.push(10);
                for d in [a.rows(), a.cols(), b.cols()] {
                    bytes.extend_from_slice(&(d as u64).to_le_bytes());
                }
            }
            Body::Edit { a, b } => {
                bytes.push(20);
                bytes.extend_from_slice(&(a.len() as u64).to_le_bytes());
                bytes.extend_from_slice(&(b.len() as u64).to_le_bytes());
            }
            // No batched engine: any mix coalesces into one pool task.
            Body::Chain { .. } => bytes.push(30),
            Body::Bst { .. } => bytes.push(40),
            Body::AndOr { .. } => bytes.push(50),
            Body::Align {
                a,
                b,
                matched,
                mismatched,
                gap,
            } => {
                // The batched mesh takes one shared scoring scheme, so
                // the scoring parameters are part of the shape.
                bytes.push(60);
                bytes.extend_from_slice(&(a.len() as u64).to_le_bytes());
                bytes.extend_from_slice(&(b.len() as u64).to_le_bytes());
                for s in [matched, mismatched, gap] {
                    bytes.extend_from_slice(&s.to_le_bytes());
                }
            }
            Body::Knapsack { capacity, .. } => {
                // The batch array schedule is launch-driven, so riders
                // may carry different item counts — only the capacity
                // (the array length) must agree.
                bytes.push(70);
                bytes.extend_from_slice(&capacity.to_le_bytes());
            }
        }
        fnv1a(&bytes)
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A decoded request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// A compute request destined for the admission queue.
    Compute {
        /// Client-chosen correlation id, echoed in the response.
        id: i64,
        /// The decoded problem.
        body: Body,
        /// Client-supplied deadline in milliseconds (`None`: the
        /// server default applies).
        deadline_ms: Option<u64>,
    },
    /// Metrics snapshot request (answered inline).
    Metrics {
        /// Correlation id.
        id: i64,
    },
    /// Prometheus text-exposition request (answered inline).
    MetricsText {
        /// Correlation id.
        id: i64,
    },
    /// Graceful-drain request (answered inline, then the server drains).
    Shutdown {
        /// Correlation id.
        id: i64,
    },
}

fn bad(reason: impl Into<String>) -> SdpError {
    SdpError::MalformedRequest {
        reason: reason.into(),
    }
}

fn parse_matrix(doc: &Json, field: &str) -> Result<Matrix<MinPlus>, SdpError> {
    let rows = json::get(doc, "rows")
        .and_then(json::as_i64)
        .ok_or_else(|| bad(format!("{field}: missing integer 'rows'")))?;
    let cols = json::get(doc, "cols")
        .and_then(json::as_i64)
        .ok_or_else(|| bad(format!("{field}: missing integer 'cols'")))?;
    if rows < 1 || cols < 1 {
        return Err(bad(format!("{field}: dimensions must be positive")));
    }
    let (rows, cols) = (rows as usize, cols as usize);
    if rows.saturating_mul(cols) > 1 << 20 {
        return Err(bad(format!("{field}: matrix larger than 2^20 entries")));
    }
    let data = json::get(doc, "data")
        .and_then(json::as_array)
        .ok_or_else(|| bad(format!("{field}: missing array 'data'")))?;
    if data.len() != rows * cols {
        return Err(bad(format!(
            "{field}: data has {} entries, want rows*cols = {}",
            data.len(),
            rows * cols
        )));
    }
    let mut cells = Vec::with_capacity(data.len());
    for (i, cell) in data.iter().enumerate() {
        let cost = match cell {
            Json::Null => Cost::INF,
            Json::Int(v) => {
                if *v == i64::MAX {
                    return Err(bad(format!(
                        "{field}: data[{i}] overflows (use null for inf)"
                    )));
                }
                Cost::new(*v)
            }
            _ => return Err(bad(format!("{field}: data[{i}] must be int or null"))),
        };
        cells.push(MinPlus(cost));
    }
    Ok(Matrix::from_rows(rows, cols, cells))
}

fn parse_u64_list(doc: &Json, field: &str, min_len: usize) -> Result<Vec<u64>, SdpError> {
    let arr = json::get(doc, field)
        .and_then(json::as_array)
        .ok_or_else(|| bad(format!("missing array '{field}'")))?;
    if arr.len() < min_len {
        return Err(bad(format!("'{field}' needs at least {min_len} entries")));
    }
    arr.iter()
        .enumerate()
        .map(|(i, v)| match v {
            Json::Int(x) if *x >= 0 => Ok(*x as u64),
            _ => Err(bad(format!("{field}[{i}] must be a non-negative integer"))),
        })
        .collect()
}

fn parse_andor(doc: &Json) -> Result<Body, SdpError> {
    let nodes = json::get(doc, "nodes")
        .and_then(json::as_array)
        .ok_or_else(|| bad("missing array 'nodes'"))?;
    if nodes.is_empty() {
        return Err(bad("'nodes' must be non-empty"));
    }
    if nodes.len() > 1 << 16 {
        return Err(bad("more than 2^16 AND/OR nodes"));
    }
    let mut graph = AndOrGraph::new();
    for (i, n) in nodes.iter().enumerate() {
        let op = json::get(n, "op")
            .and_then(json::as_str)
            .ok_or_else(|| bad(format!("nodes[{i}]: missing string 'op'")))?;
        let level = json::get(n, "level").and_then(json::as_i64).unwrap_or(0);
        if !(0..=json::MAX_DEPTH as i64 * 1024).contains(&level) {
            return Err(bad(format!("nodes[{i}]: bad level")));
        }
        let children = || -> Result<Vec<usize>, SdpError> {
            let kids = json::get(n, "children")
                .and_then(json::as_array)
                .ok_or_else(|| bad(format!("nodes[{i}]: missing array 'children'")))?;
            if kids.is_empty() {
                return Err(bad(format!("nodes[{i}]: needs at least one child")));
            }
            kids.iter()
                .map(|k| match json::as_i64(k) {
                    // Children must already exist: ids are postorder, so
                    // the graph is acyclic by construction.
                    Some(c) if (0..i as i64).contains(&c) => Ok(c as usize),
                    _ => Err(bad(format!("nodes[{i}]: child out of range 0..{i}"))),
                })
                .collect()
        };
        match op {
            "leaf" => {
                let value = json::get(n, "value").and_then(json::as_i64).unwrap_or(0);
                if value == i64::MAX {
                    return Err(bad(format!("nodes[{i}]: value overflows")));
                }
                graph.add_leaf(level as usize, Cost::new(value));
            }
            "and" => {
                let cost = json::get(n, "cost").and_then(json::as_i64).unwrap_or(0);
                if cost == i64::MAX {
                    return Err(bad(format!("nodes[{i}]: cost overflows")));
                }
                let kids = children()?;
                // Arcs must point down-level for bottom-up evaluation.
                if kids.iter().any(|&c| graph.node(c).level >= level as usize) {
                    return Err(bad(format!("nodes[{i}]: children must be at lower levels")));
                }
                graph.add_and(level as usize, kids, Cost::new(cost));
            }
            "or" => {
                let kids = children()?;
                if kids.iter().any(|&c| graph.node(c).level >= level as usize) {
                    return Err(bad(format!("nodes[{i}]: children must be at lower levels")));
                }
                graph.add_or(level as usize, kids);
            }
            other => return Err(bad(format!("nodes[{i}]: unknown op '{other}'"))),
        }
    }
    let root = json::get(doc, "root")
        .and_then(json::as_i64)
        .unwrap_or(nodes.len() as i64 - 1);
    if !(0..nodes.len() as i64).contains(&root) {
        return Err(bad("'root' out of range"));
    }
    Ok(Body::AndOr {
        graph,
        root: root as usize,
    })
}

/// Decodes one request line (already JSON-parsed into `doc`).
pub fn decode(doc: &Json) -> Result<Request, SdpError> {
    let id = json::get(doc, "id").and_then(json::as_i64).unwrap_or(0);
    let kind = json::get(doc, "kind")
        .and_then(json::as_str)
        .ok_or_else(|| bad("missing string 'kind'"))?;
    let body = match kind {
        "metrics" => return Ok(Request::Metrics { id }),
        "metrics_text" => return Ok(Request::MetricsText { id }),
        "shutdown" => return Ok(Request::Shutdown { id }),
        "multistage" => {
            let design = match json::get(doc, "design").and_then(json::as_i64).unwrap_or(1) {
                1 => 1u8,
                2 => 2u8,
                other => return Err(bad(format!("design {other} not served (use 1 or 2)"))),
            };
            let mats_json = json::get(doc, "mats")
                .and_then(json::as_array)
                .ok_or_else(|| bad("missing array 'mats'"))?;
            if mats_json.is_empty() {
                return Err(bad("'mats' must be non-empty"));
            }
            let mats = mats_json
                .iter()
                .enumerate()
                .map(|(i, m)| parse_matrix(m, &format!("mats[{i}]")))
                .collect::<Result<Vec<_>, _>>()?;
            Body::Multistage { design, mats }
        }
        "matmul" => {
            let a = parse_matrix(json::get(doc, "a").ok_or_else(|| bad("missing 'a'"))?, "a")?;
            let b = parse_matrix(json::get(doc, "b").ok_or_else(|| bad("missing 'b'"))?, "b")?;
            if a.cols() != b.rows() {
                return Err(SdpError::InnerDimMismatch {
                    left_cols: a.cols(),
                    right_rows: b.rows(),
                });
            }
            Body::Matmul { a, b }
        }
        "edit" => {
            let a = json::get(doc, "a")
                .and_then(json::as_str)
                .ok_or_else(|| bad("missing string 'a'"))?;
            let b = json::get(doc, "b")
                .and_then(json::as_str)
                .ok_or_else(|| bad("missing string 'b'"))?;
            Body::Edit {
                a: a.as_bytes().to_vec(),
                b: b.as_bytes().to_vec(),
            }
        }
        "align" => {
            let a = json::get(doc, "a")
                .and_then(json::as_str)
                .ok_or_else(|| bad("missing string 'a'"))?;
            let b = json::get(doc, "b")
                .and_then(json::as_str)
                .ok_or_else(|| bad("missing string 'b'"))?;
            let param = |field: &str, default: i64| -> Result<i64, SdpError> {
                match json::get(doc, field) {
                    None | Some(Json::Null) => Ok(default),
                    Some(v) => json::as_i64(v)
                        .filter(|s| s.unsigned_abs() <= 1 << 20)
                        .ok_or_else(|| bad(format!("'{field}' must be an integer within ±2^20"))),
                }
            };
            Body::Align {
                a: a.as_bytes().to_vec(),
                b: b.as_bytes().to_vec(),
                matched: param("match", 2)?,
                mismatched: param("mismatch", -1)?,
                gap: param("gap", 1)?,
            }
        }
        "knapsack" => {
            let weights = parse_u64_list(doc, "weights", 1)?;
            let values = parse_u64_list(doc, "values", 1)?;
            if weights.len() != values.len() {
                return Err(bad(format!(
                    "'weights' has {} entries but 'values' has {}",
                    weights.len(),
                    values.len()
                )));
            }
            let capacity = json::get(doc, "capacity")
                .and_then(json::as_i64)
                .ok_or_else(|| bad("missing integer 'capacity'"))?;
            if !(0..=100_000).contains(&capacity) {
                return Err(bad("'capacity' must be in 0..=100000"));
            }
            // The simulator spaces items `w + 1` cycles apart, so an
            // unbounded weight is unbounded work.  An item heavier than
            // the capacity fits nowhere, and every such weight answers
            // alike: clamping to `capacity + 1` bounds the work by the
            // request without changing any payload.
            let items = weights
                .into_iter()
                .zip(values)
                .map(|(w, v)| KnapsackItem::new(w.min(capacity as u64 + 1), v))
                .collect();
            Body::Knapsack {
                items,
                capacity: capacity as u64,
            }
        }
        "chain" => Body::Chain {
            dims: parse_u64_list(doc, "dims", 2)?,
        },
        "bst" => {
            let freq = parse_u64_list(doc, "freq", 1)?;
            // Every solver keeps BST costs in i64 with i64::MAX reserved
            // for +∞.  A key sits at depth ≤ n, so n·Σfreq bounds every
            // table entry: within the finite range, no solver can
            // saturate (or panic) differently from another.
            let total: u128 = freq.iter().map(|&f| u128::from(f)).sum();
            if total * freq.len() as u128 > Cost::MAX_FINITE.raw() as u128 {
                return Err(bad(format!(
                    "'freq' too large: {} keys times a total of {total} exceeds {}",
                    freq.len(),
                    Cost::MAX_FINITE.raw()
                )));
            }
            Body::Bst { freq }
        }
        "andor" => parse_andor(doc)?,
        other => return Err(bad(format!("unknown kind '{other}'"))),
    };
    let deadline_ms = match json::get(doc, "deadline_ms") {
        None | Some(Json::Null) => None,
        Some(v) => match json::as_i64(v) {
            Some(ms) if ms >= 0 => Some(ms as u64),
            _ => return Err(bad("'deadline_ms' must be a non-negative integer")),
        },
    };
    Ok(Request::Compute {
        id,
        body,
        deadline_ms,
    })
}

/// Renders a min-plus matrix as wire JSON (`null` = +∞).
pub fn matrix_to_json(m: &Matrix<MinPlus>) -> Json {
    let mut data = Vec::with_capacity(m.rows() * m.cols());
    for i in 0..m.rows() {
        for &MinPlus(c) in m.row(i) {
            data.push(cost_to_json(c));
        }
    }
    Json::object()
        .with("rows", m.rows())
        .with("cols", m.cols())
        .with("data", Json::Array(data))
}

/// Renders a cost (`null` = +∞).
pub fn cost_to_json(c: Cost) -> Json {
    match c.finite() {
        Some(v) => Json::Int(v),
        None => Json::Null,
    }
}

/// A successful response line.
pub fn ok_response(id: i64, result: Json, cached: bool, batch: usize) -> String {
    Json::object()
        .with("id", Json::Int(id))
        .with("ok", true)
        .with("result", result)
        .with("cached", cached)
        .with("batch", batch)
        .render()
}

/// The cache-hit success line, assembled from a *pre-rendered* result
/// payload by string concatenation.  Byte-identical to
/// `ok_response(id, parse(payload), true, 0)` — the cache stores the
/// payload exactly as [`Json::render`] produced it, so splicing it
/// into the envelope skips the parse/clone/re-render round trip on
/// the server's hottest path.
pub fn ok_cached_response(id: i64, payload: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"result\":{payload},\"cached\":true,\"batch\":0}}")
}

/// A success response for a freshly-computed request, tagged with the
/// backend that answered it (`"sim"` or `"direct"`).  Cached replays
/// and control replies stay untagged — the cache stores payloads, not
/// provenance, and the payload is bit-identical either way.
pub fn ok_engine_response(id: i64, result: Json, batch: usize, engine: &str) -> String {
    ok_rendered_engine_response(id, &result.render(), batch, engine)
}

/// [`ok_engine_response`] around a payload already rendered by
/// [`Json::render`] — the same string the cache stores — spliced into
/// the envelope as [`ok_cached_response`] does, so a fresh reply
/// renders its payload once.
pub(crate) fn ok_rendered_engine_response(
    id: i64,
    payload: &str,
    batch: usize,
    engine: &str,
) -> String {
    let engine = Json::from(engine).render();
    // Sized up front: a payload can be ~100 KB, and growing past it
    // would copy it again.
    let mut line = String::with_capacity(payload.len() + engine.len() + 80);
    let _ = write!(
        line,
        "{{\"id\":{id},\"ok\":true,\"result\":{payload},\"cached\":false,\"batch\":{batch},\"engine\":{engine}}}"
    );
    line
}

/// Stable wire name for an error variant.
pub fn error_kind(e: &SdpError) -> &'static str {
    match e {
        SdpError::MalformedRequest { .. } => "malformed_request",
        SdpError::PayloadTooLarge { .. } => "payload_too_large",
        SdpError::QueueFull { .. } => "queue_full",
        SdpError::ShuttingDown => "shutting_down",
        SdpError::TaskPanicked { .. } => "task_panicked",
        SdpError::InnerDimMismatch { .. } => "inner_dim_mismatch",
        SdpError::EmptyMatrixString => "empty_matrix_string",
        SdpError::NotSquare { .. } => "not_square",
        SdpError::WrongStageWidth { .. } => "wrong_stage_width",
        SdpError::StringTooShort { .. } => "string_too_short",
        SdpError::BadParameter { .. } => "bad_parameter",
        SdpError::EmptyBatch => "empty_batch",
        SdpError::BatchShapeMismatch { .. } => "batch_shape_mismatch",
        SdpError::DeadlineExceeded { .. } => "deadline_exceeded",
        SdpError::Overloaded { .. } => "overloaded",
        SdpError::CircuitOpen { .. } => "circuit_open",
        _ => "engine_error",
    }
}

/// A successful response computed by the degraded fallback path (the
/// circuit breaker routed around a failing engine to the reference
/// solver); flagged so clients can tell, and never cached.
pub fn degraded_response(id: i64, result: Json) -> String {
    Json::object()
        .with("id", Json::Int(id))
        .with("ok", true)
        .with("result", result)
        .with("cached", false)
        .with("batch", 0usize)
        .with("degraded", true)
        .render()
}

/// An error response line — the server's contract is that *every*
/// failure becomes one of these, never a dropped connection.
/// Backpressure errors carry a machine-readable `retry_after_ms` hint
/// the client retry policy honours.
pub fn error_response(id: i64, e: &SdpError) -> String {
    let mut err = Json::object()
        .with("kind", error_kind(e))
        .with("message", e.to_string());
    if let SdpError::Overloaded { retry_after_ms } | SdpError::CircuitOpen { retry_after_ms } = e {
        err = err.with("retry_after_ms", *retry_after_ms);
    }
    Json::object()
        .with("id", Json::Int(id))
        .with("ok", false)
        .with("error", err)
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn decodes_every_kind() {
        let lines = [
            r#"{"id":1,"kind":"edit","a":"kitten","b":"sitting"}"#,
            r#"{"id":2,"kind":"matmul","a":{"rows":2,"cols":2,"data":[1,2,3,4]},"b":{"rows":2,"cols":2,"data":[5,6,7,null]}}"#,
            r#"{"id":3,"kind":"multistage","design":2,"mats":[{"rows":2,"cols":2,"data":[1,2,3,4]},{"rows":2,"cols":2,"data":[1,2,3,4]}]}"#,
            r#"{"id":4,"kind":"chain","dims":[4,2,3,7]}"#,
            r#"{"id":5,"kind":"bst","freq":[3,1,4]}"#,
            r#"{"id":6,"kind":"andor","nodes":[{"op":"leaf","value":2},{"op":"leaf","value":5},{"op":"and","level":1,"children":[0,1],"cost":1},{"op":"or","level":2,"children":[2]}],"root":3}"#,
            r#"{"id":7,"kind":"metrics"}"#,
            r#"{"id":8,"kind":"shutdown"}"#,
            r#"{"id":9,"kind":"metrics_text"}"#,
            r#"{"id":10,"kind":"align","a":"acacacta","b":"agcacaca"}"#,
            r#"{"id":11,"kind":"align","a":"gat","b":"cat","match":3,"mismatch":-2,"gap":2}"#,
            r#"{"id":12,"kind":"knapsack","weights":[1,3,4,5],"values":[1,4,5,7],"capacity":7}"#,
        ];
        for line in lines {
            decode(&parse(line).unwrap()).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn canonical_key_ignores_wire_spelling() {
        let a = decode(&parse(r#"{"id":1,"kind":"edit","a":"ab","b":"cd"}"#).unwrap()).unwrap();
        let b =
            decode(&parse(r#"{ "b" : "cd", "kind" : "edit", "a" : "ab", "id" : 99 }"#).unwrap())
                .unwrap();
        let (Request::Compute { body: ba, .. }, Request::Compute { body: bb, .. }) = (a, b) else {
            panic!("compute");
        };
        assert_eq!(ba.canonical_key(), bb.canonical_key());
        assert_eq!(ba.canonical_hash(), bb.canonical_hash());
    }

    #[test]
    fn canonical_key_separates_operands() {
        // ("ab","") vs ("a","b") must not collide: lengths frame bytes.
        let k1 = Body::Edit {
            a: b"ab".to_vec(),
            b: Vec::new(),
        }
        .canonical_key();
        let k2 = Body::Edit {
            a: b"a".to_vec(),
            b: b"b".to_vec(),
        }
        .canonical_key();
        assert_ne!(k1, k2);
    }

    #[test]
    fn shape_key_groups_same_shape_only() {
        let e1 = Body::Edit {
            a: b"abc".to_vec(),
            b: b"de".to_vec(),
        };
        let e2 = Body::Edit {
            a: b"xyz".to_vec(),
            b: b"qw".to_vec(),
        };
        let e3 = Body::Edit {
            a: b"x".to_vec(),
            b: b"qw".to_vec(),
        };
        assert_eq!(e1.shape_key(), e2.shape_key());
        assert_ne!(e1.shape_key(), e3.shape_key());
    }

    #[test]
    fn workload_shape_keys_group_batchable_requests_only() {
        let align = |a: &[u8], b: &[u8], gap: i64| Body::Align {
            a: a.to_vec(),
            b: b.to_vec(),
            matched: 2,
            mismatched: -1,
            gap,
        };
        // Same lengths + same scoring ride one batched mesh; a scoring
        // or length change is a different shape.
        assert_eq!(
            align(b"abc", b"de", 1).shape_key(),
            align(b"xyz", b"qw", 1).shape_key()
        );
        assert_ne!(
            align(b"abc", b"de", 1).shape_key(),
            align(b"abc", b"de", 2).shape_key()
        );
        assert_ne!(
            align(b"abc", b"de", 1).shape_key(),
            align(b"ab", b"de", 1).shape_key()
        );
        // Knapsacks batch on capacity alone: item counts may differ.
        let sack = |weights: &[u64], capacity: u64| Body::Knapsack {
            items: weights.iter().map(|&w| KnapsackItem::new(w, w)).collect(),
            capacity,
        };
        assert_eq!(sack(&[1, 2, 3], 9).shape_key(), sack(&[5], 9).shape_key());
        assert_ne!(
            sack(&[1, 2, 3], 9).shape_key(),
            sack(&[1, 2, 3], 8).shape_key()
        );
    }

    #[test]
    fn align_decode_defaults_match_the_served_scheme() {
        let r = decode(&parse(r#"{"id":1,"kind":"align","a":"ab","b":"ab"}"#).unwrap()).unwrap();
        let Request::Compute { body, .. } = r else {
            panic!("compute");
        };
        let Body::Align {
            matched,
            mismatched,
            gap,
            ..
        } = body
        else {
            panic!("align");
        };
        assert_eq!((matched, mismatched, gap), (2, -1, 1));
    }

    #[test]
    fn rejects_malformed_bodies() {
        let lines = [
            r#"{"id":1}"#,
            r#"{"id":1,"kind":"warp"}"#,
            r#"{"id":1,"kind":"edit","a":"x"}"#,
            r#"{"id":1,"kind":"matmul","a":{"rows":2,"cols":2,"data":[1,2,3]},"b":{"rows":2,"cols":2,"data":[1,2,3,4]}}"#,
            r#"{"id":1,"kind":"matmul","a":{"rows":2,"cols":3,"data":[1,2,3,1,2,3]},"b":{"rows":2,"cols":2,"data":[1,2,3,4]}}"#,
            r#"{"id":1,"kind":"chain","dims":[4]}"#,
            r#"{"id":1,"kind":"bst","freq":[]}"#,
            r#"{"id":1,"kind":"multistage","mats":[]}"#,
            r#"{"id":1,"kind":"andor","nodes":[{"op":"and","children":[0],"level":1}]}"#,
            r#"{"id":1,"kind":"andor","nodes":[{"op":"leaf","value":1},{"op":"or","children":[1],"level":1}]}"#,
            r#"{"id":1,"kind":"align","a":"x"}"#,
            r#"{"id":1,"kind":"align","a":"x","b":"y","gap":99999999999}"#,
            r#"{"id":1,"kind":"knapsack","weights":[1,2],"values":[1],"capacity":5}"#,
            r#"{"id":1,"kind":"knapsack","weights":[1],"values":[1],"capacity":200000}"#,
            r#"{"id":1,"kind":"knapsack","weights":[1],"values":[1]}"#,
        ];
        for line in lines {
            let doc = parse(line).unwrap();
            assert!(decode(&doc).is_err(), "{line} should be rejected");
        }
    }

    #[test]
    fn bst_frequencies_that_could_reach_the_infinity_sentinel_are_rejected() {
        let max = Cost::MAX_FINITE.raw();
        for freq in [
            format!("[{}]", i64::MAX),
            format!("[{},1]", max / 2),
            format!("[{},{},1]", max / 3, max / 3),
        ] {
            let line = format!(r#"{{"id":1,"kind":"bst","freq":{freq}}}"#);
            let err = decode(&parse(&line).unwrap()).expect_err(&line);
            assert!(
                matches!(err, SdpError::MalformedRequest { .. }),
                "{line}: {err:?}"
            );
        }
        // n·Σfreq = MAX_FINITE exactly is still finite everywhere.
        for freq in [format!("[{max}]"), format!("[{},{}]", max / 4, max / 4)] {
            let line = format!(r#"{{"id":1,"kind":"bst","freq":{freq}}}"#);
            assert!(decode(&parse(&line).unwrap()).is_ok(), "{line}");
        }
    }

    #[test]
    fn error_responses_are_typed() {
        let r = error_response(7, &SdpError::QueueFull { depth: 64 });
        assert!(r.contains("\"ok\":false"));
        assert!(r.contains("\"kind\":\"queue_full\""));
        assert!(r.contains("\"id\":7"));
    }

    #[test]
    fn decodes_optional_deadline() {
        let r = decode(&parse(r#"{"id":1,"kind":"edit","a":"x","b":"y"}"#).unwrap()).unwrap();
        let Request::Compute { deadline_ms, .. } = r else {
            panic!("compute");
        };
        assert_eq!(deadline_ms, None);
        let r =
            decode(&parse(r#"{"id":1,"kind":"edit","a":"x","b":"y","deadline_ms":250}"#).unwrap())
                .unwrap();
        let Request::Compute { deadline_ms, .. } = r else {
            panic!("compute");
        };
        assert_eq!(deadline_ms, Some(250));
        let bad = parse(r#"{"id":1,"kind":"edit","a":"x","b":"y","deadline_ms":-3}"#).unwrap();
        assert!(decode(&bad).is_err(), "negative deadline must be rejected");
    }

    #[test]
    fn backpressure_errors_carry_retry_hints() {
        let r = error_response(3, &SdpError::Overloaded { retry_after_ms: 40 });
        assert!(r.contains("\"kind\":\"overloaded\""));
        assert!(r.contains("\"retry_after_ms\":40"));
        let r = error_response(4, &SdpError::CircuitOpen { retry_after_ms: 75 });
        assert!(r.contains("\"kind\":\"circuit_open\""));
        assert!(r.contains("\"retry_after_ms\":75"));
        let r = error_response(
            5,
            &SdpError::DeadlineExceeded {
                waited_ms: 9,
                deadline_ms: 5,
            },
        );
        assert!(r.contains("\"kind\":\"deadline_exceeded\""));
        assert!(!r.contains("retry_after_ms"), "no hint on deadline errors");
    }

    #[test]
    fn cached_response_splice_matches_the_rendered_envelope() {
        // The fast path concatenates a pre-rendered payload; it must
        // stay byte-identical to building the envelope through Json,
        // or cached and fresh replies would diverge on the wire.
        for payload in [
            Json::object().with("distance", 3u64),
            Json::object()
                .with("cost", 12u64)
                .with("order", Json::Array(vec![Json::Int(1), Json::Int(2)])),
            Json::object().with("value", -7i64).with("ratio", 0.5f64),
        ] {
            let rendered = payload.render();
            assert_eq!(
                ok_cached_response(42, &rendered),
                ok_response(42, payload, true, 0),
            );
        }
    }

    #[test]
    fn engine_response_splice_matches_the_rendered_envelope() {
        // A fresh reply splices the payload string the cache stores;
        // it must stay byte-identical to building the whole envelope
        // through Json, for every payload shape and engine tag.
        let payloads = [
            Json::object().with("distance", 3u64),
            Json::object()
                .with("best", 9u64)
                .with("row", Json::from(vec![0i64, 1, -1, i64::MAX, i64::MIN])),
            Json::object()
                .with("score", 12i64)
                .with("end", Json::Null)
                .with("ratio", 0.5f64)
                .with("note", "a\"b\\c\n"),
        ];
        for payload in payloads {
            for (batch, engine) in [(1usize, "direct"), (16, "sim"), (3, "odd\"tag")] {
                let whole = Json::object()
                    .with("id", Json::Int(-42))
                    .with("ok", true)
                    .with("result", payload.clone())
                    .with("cached", false)
                    .with("batch", batch)
                    .with("engine", engine)
                    .render();
                let rendered = payload.render();
                assert_eq!(
                    ok_rendered_engine_response(-42, &rendered, batch, engine),
                    whole
                );
                assert_eq!(
                    ok_engine_response(-42, payload.clone(), batch, engine),
                    whole
                );
            }
        }
    }

    #[test]
    fn degraded_responses_are_flagged_and_uncached() {
        let r = degraded_response(11, Json::object().with("distance", 3u64));
        assert!(r.contains("\"ok\":true"));
        assert!(r.contains("\"degraded\":true"));
        assert!(r.contains("\"cached\":false"));
        assert!(r.contains("\"id\":11"));
    }
}
