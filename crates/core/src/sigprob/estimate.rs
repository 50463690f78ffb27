//! The PROTEST signal-probability estimator (paper Sec. 2).
//!
//! Over the AIG view, the paper's four cases are:
//!
//! 1. primary input — probability given;
//! 2. inverter — complement edges make this `1 − p` for free;
//! 3. AND without reconvergent fanout at its inputs (`V(a,b) = ∅`) —
//!    `p = p_a · p_b`;
//! 4. AND with joining points — condition on the logic values of a bounded
//!    subset `W ⊆ V(a,b)`, `|W| ≤ MAXVERS` (formula (2)):
//!
//!    ```text
//!    p_k = Σ_{v ⊆ W} P(A_v) · P(R_a = 1 | A_v) · P(R_b = 1 | A_v)
//!    ```
//!
//!    where `A_v` assigns 1 to the joining points in `v` and 0 to the rest.
//!    `W` is chosen to maximize `|Cov(R_a, R_x) · Cov(R_b, R_x)| / S(R_x)²`
//!    (the error term the paper derives via Bayes' formula), and the
//!    conditional probabilities are obtained by re-propagating the bounded
//!    fanin cone with the joining points pinned.
//!
//! Construction precomputes every AND's conditioning structure once, into
//! one `ConeArena`. Per AND it keeps only the node ids of its cone
//! `inner` — the nodes a pin can change, ascending, so topological, and
//! gap-coded ([`IdRows`]) — and a shape id. The rest is a function of the
//! cone's *shape*: the joining points and each cone node's fanins as
//! positions in `inner`, the cone nodes that run nested conditioning, and
//! one descendant bitset row per joining candidate. It is stored once per
//! distinct shape, in an interned table that every AND with that shape
//! shares. Regular circuits repeat few shapes (`multmesh:4x12x64`: 966
//! shapes for 69,150 conditioned ANDs), so the arena is little more than
//! the node ids. The kernel decodes an AND's ids into a reused buffer
//! before it runs.
//!
//! A case-4 AND is then evaluated cone-locally, on dense per-AND arrays
//! indexed by `inner` position (`Scratch2`):
//!
//! * **Scoring.** The value array holds every cone node's base estimate,
//!   plus one slot per out-of-cone fanin. Pinning candidate `x` to 1
//!   re-evaluates exactly `x`'s descendant row, ascending, each node as a
//!   product of two slot reads, and the walk restores the row afterwards.
//!   Nodes off the row keep their base values, which already include
//!   their own bounded conditioning.
//! * **Enumeration.** A node's value under assignment `v` depends only on
//!   `v & dep`, the pins its reads can see. One node-major pass over the
//!   pins' descendant union fills each affected node's table at every
//!   submask of its `dep`, so each distinct `(node, v & dep)` value is
//!   computed once rather than once per assignment. Nodes with their own
//!   small reconvergence (`nested_ok`) get one level of nested
//!   conditioning, reading their outer context from the same tables.
//!   The chain-rule weights and `total / norm` are then summed in natural
//!   `v` order, the order an assignment-by-assignment walk sums them in.
//!
//! Nothing is cached per node between evaluations, so the scratch stays
//! cone-sized however many ANDs a worker or session evaluates.
//!
//! # Lanes
//!
//! The kernel is generic over a lane count ([`Lanes`]): one call
//! evaluates an AND for several input vectors at once, as the partitioned
//! analysis does for the same-structure parts of a batch
//! ([`SignalProbEstimator::sweep_lanes`]). Every value array is stored
//! `[slot][lane]`, so the one-lane instance — the full pass, the
//! rank-parallel pass and the incremental session — is the plain scalar
//! layout and compiles to the scalar loops. Per AND, the cone decode, the
//! slot map, `fan` and the nested programs are built once for all lanes;
//! each scoring walk updates every lane; candidate filtering, scores and
//! the choice of `W` are per lane; and the enumeration's structural work
//! (union, pins, masks, submask walks) runs once per group of lanes that
//! chose the same `W`, with the table fills and the weighted sums per
//! lane.
//!
//! Each lane keeps its scalar operation order: every value it computes is
//! the same expression over the same operands as in a one-lane pass, and
//! its sums run in the same `v` order with the same `weight <= 0` skips
//! and `norm <= 0` fallback. A lane's outputs are therefore
//! `to_bits`-equal to a one-lane pass by construction, not within a
//! tolerance — which is what lets the partitioned path batch lanes and
//! stay bit-identical to the monolithic one.

use std::collections::HashMap;
use std::sync::OnceLock;

use protest_netlist::{Csr, IdRows};

use crate::aig::{Aig, AigLit, AigNodeId};
use crate::cancel::CancelToken;
use crate::error::CoreError;
use crate::exec::Exec;
use crate::params::AnalyzerParams;

/// How often the serial full pass polls its cancellation token: one poll
/// per this many AIG node evaluations (nodes times lanes in a batched
/// pass) keeps the overhead unmeasurable while still bounding the
/// response latency to a fraction of a pass.
pub(crate) const CANCEL_CHECK_NODES: usize = 4096;

/// One AND node's conditioning structure, decoded from the [`ConeArena`]:
/// its own cone node ids (decoded into a caller's buffer) plus the slices
/// of its interned shape.
/// Probability-independent, so the optimizer can re-estimate thousands of
/// times without re-running graph searches.
#[derive(Debug, Clone, Copy)]
struct Cone<'a> {
    /// Bounded `V(a, b)` as positions in `inner`, ascending; empty for
    /// case-3 ANDs.
    joining: &'a [u16],
    /// The joining points plus their descendants within the bounded union
    /// cone of `a` and `b`, ascending (= topo) order. Re-propagation only
    /// walks this set: pinning joining points cannot change any other cone
    /// node, so the rest of the cone keeps its base estimate untouched.
    inner: &'a [AigNodeId],
    /// For each cone node, the positions of its two fanins within `inner`
    /// ([`NO_POS`] when a fanin is outside the cone or the node is not an
    /// AND).
    fanin_ci: &'a [[u16; 2]],
    /// Whether [`SignalProbEstimator::nest_prog`] runs nested
    /// conditioning for this cone node (its own joining set is non-empty
    /// and its own cone is small enough).
    nested_ok: &'a [bool],
    /// Per joining candidate, one row of `ceil(inner.len() / 64)` words:
    /// a bitset over `inner` positions of the candidate's descendant
    /// closure (via direct fanin edges, self included) — exactly the nodes
    /// a walk pinning that candidate can touch, so re-propagation skips
    /// the rest of the cone outright.
    desc: &'a [u64],
}

impl<'a> Cone<'a> {
    /// Words per descendant row.
    fn words(&self) -> usize {
        self.inner.len().div_ceil(64)
    }

    /// Descendant bitset of joining candidate `j`.
    fn desc_row(&self, j: usize) -> &'a [u64] {
        let w = self.words();
        &self.desc[j * w..(j + 1) * w]
    }
}

/// [`Cone::fanin_ci`] of a fanin outside the cone.
const NO_POS: u16 = u16::MAX;

/// A stored fanin position, `None` for [`NO_POS`].
fn cone_pos(f: u16) -> Option<usize> {
    (f != NO_POS).then_some(usize::from(f))
}

/// Every node's [`Cone`]: per node, its `inner` node ids (one gap-coded
/// row each) and a shape id into the interned [`ShapeTable`] that holds
/// the rest. ANDs with equal shapes share one entry, so the arena grows
/// with the node ids and the distinct shapes, not with every AND's
/// structure.
#[derive(Debug, PartialEq, Eq)]
struct ConeArena {
    /// Row `k` is node `k`'s `inner`; its length is the shape's position
    /// count ([`ConeArena::cone_len`]).
    inner: IdRows,
    /// Per node, its shape in `shapes`; 0 is the empty, case-3 shape.
    shape: Vec<u32>,
    shapes: ShapeTable,
}

/// The distinct cone shapes, one row per shape in each table. A shape's
/// key is its cone length, joining positions, fanin positions and
/// `nested_ok`; its `desc` row is a function of that key. Positions are
/// `u16` (see [`AnalyzerParams::maxlist`] for the bound).
#[derive(Debug, PartialEq, Eq)]
struct ShapeTable {
    joining: Csr<u16>,
    /// One entry per cone position in each.
    fanin_ci: Csr<[u16; 2]>,
    nested_ok: Csr<bool>,
    /// `joining × words` descendant words ([`Cone::desc`]).
    desc: Csr<u64>,
}

/// AIGs with fewer AND nodes than this build their cone arena on one
/// worker: their build takes milliseconds, so small circuits (partition
/// lanes, served paper circuits) stay off the pool.
const MIN_PAR_BUILD_ANDS: usize = 8192;

/// Nodes per interleaved block of the arena build. Consecutive blocks go
/// to different workers, so deep and shallow regions of the AIG spread
/// evenly across them.
const BUILD_BLOCK: usize = 128;

/// Blocks each worker builds per window. A window's chunks are stitched
/// into the arena before the next window starts, so at most one window's
/// worth of chunk data exists beside the arena.
const BUILD_BLOCKS_PER_WORKER: usize = 16;

impl ConeArena {
    /// Builds the arena for every node of `aig`. Pass 1 computes each
    /// AND's cone, joining points, `inner` and fanin positions — node-local
    /// work, run over interleaved blocks by one worker, or by every worker
    /// of `exec` once the AIG has at least `min_par_ands` ANDs. The stitch
    /// appends each window's chunks in node order and interns each AND's
    /// shape, so the arena is identical at every thread count.
    ///
    /// It keeps its own scope rather than [`Exec::fan_out`]'s contiguous
    /// chunks: blocks are dealt out interleaved (block `b` to worker
    /// `b % threads`) so deep and shallow regions of the AIG spread evenly,
    /// and each worker fills reused chunk buffers in place.
    #[allow(clippy::disallowed_methods)] // interleaved blocks; see above
    fn build(aig: &Aig, maxlist: usize, exec: &Exec, min_par_ands: usize) -> Self {
        let exec = if aig.num_ands() >= min_par_ands {
            exec.clone()
        } else {
            Exec::new(1)
        };
        let fanouts = aig.fanout_map();
        let n = aig.len();
        let threads = exec.threads();
        let mut builders: Vec<ConeBuilder> = (0..threads)
            .map(|_| ConeBuilder::new(aig, &fanouts, maxlist))
            .collect();
        let mut chunks: Vec<ConeChunk> = (0..threads * BUILD_BLOCKS_PER_WORKER)
            .map(|_| ConeChunk::default())
            .collect();
        let window = chunks.len() * BUILD_BLOCK;
        let mut stitch = Stitcher::new(n);
        exec.run(|| {
            for lo in (0..n).step_by(window) {
                let mut mine: Vec<Vec<(usize, &mut ConeChunk)>> =
                    (0..threads).map(|_| Vec::new()).collect();
                for (bi, chunk) in chunks.iter_mut().enumerate() {
                    mine[bi % threads].push((lo + bi * BUILD_BLOCK, chunk));
                }
                if exec.parallel() {
                    rayon::scope(|s| {
                        for (b, blocks) in builders.iter_mut().zip(mine) {
                            s.spawn(move |_| b.fill(blocks));
                        }
                    });
                } else {
                    builders[0].fill(mine.pop().expect("one worker"));
                }
                for chunk in &chunks {
                    stitch.append(chunk);
                }
            }
        });
        stitch.arena
    }

    /// The conditioning structure of node `k`, its `inner` ids decoded
    /// into `buf`.
    fn cone<'a>(&'a self, k: usize, buf: &'a mut Vec<AigNodeId>) -> Cone<'a> {
        buf.clear();
        for x in self.inner.row(k) {
            buf.push(AigNodeId::from_index(x as usize));
        }
        self.cone_over(k, buf)
    }

    /// The conditioning structure of node `k`, whose cone has at most
    /// [`MAX_NESTED_CONE`] nodes (as every nested cone has), its `inner`
    /// ids decoded into `ids`.
    fn small_cone<'a>(&'a self, k: usize, ids: &'a mut [AigNodeId; MAX_NESTED_CONE]) -> Cone<'a> {
        let len = self.cone_len(k);
        for (d, x) in ids.iter_mut().zip(self.inner.row(k)) {
            *d = AigNodeId::from_index(x as usize);
        }
        self.cone_over(k, &ids[..len])
    }

    /// Node `k`'s conditioning structure over its decoded `inner` ids.
    fn cone_over<'a>(&'a self, k: usize, inner: &'a [AigNodeId]) -> Cone<'a> {
        let t = &self.shapes;
        let s = self.shape[k] as usize;
        Cone {
            joining: t.joining.row(s),
            inner,
            fanin_ci: t.fanin_ci.row(s),
            nested_ok: t.nested_ok.row(s),
            desc: t.desc.row(s),
        }
    }

    /// Whether node `k` has joining points (runs the conditioned kernel).
    fn is_conditioned(&self, k: usize) -> bool {
        self.shape[k] != 0
    }

    /// Node `k`'s number of `inner` ids: its shape's position count (0 for
    /// a node without joining points).
    fn cone_len(&self, k: usize) -> usize {
        self.shapes.fanin_ci.row(self.shape[k] as usize).len()
    }

    /// Number of distinct non-empty shapes.
    fn num_shapes(&self) -> usize {
        self.shapes.joining.len() - 1
    }

    /// Heap bytes of the arrays' contents (lengths × element sizes).
    fn storage_bytes(&self) -> usize {
        let t = &self.shapes;
        self.inner.storage_bytes()
            + std::mem::size_of_val(self.shape.as_slice())
            + t.joining.storage_bytes()
            + t.fanin_ci.storage_bytes()
            + t.nested_ok.storage_bytes()
            + t.desc.storage_bytes()
    }
}

impl ShapeTable {
    /// A table holding only shape 0, the empty (case-3) shape.
    fn new() -> Self {
        let mut t = ShapeTable {
            joining: Csr::default(),
            fanin_ci: Csr::default(),
            nested_ok: Csr::default(),
            desc: Csr::default(),
        };
        t.joining.push_row([]);
        t.fanin_ci.push_row([]);
        t.nested_ok.push_row([]);
        t.desc.push_row([]);
        t
    }

    /// Whether shape `s` has this key.
    fn matches(
        &self,
        s: usize,
        joining: &[u16],
        fanin_ci: &[[u16; 2]],
        nested_ok: &[bool],
    ) -> bool {
        self.joining.row(s) == joining
            && self.fanin_ci.row(s) == fanin_ci
            && self.nested_ok.row(s) == nested_ok
    }

    /// Appends a new shape with this key, deriving its `desc` rows (`reach`
    /// is scratch), and returns its id.
    fn push(
        &mut self,
        joining: &[u16],
        fanin_ci: &[[u16; 2]],
        nested_ok: &[bool],
        reach: &mut Vec<u64>,
    ) -> u32 {
        // Descendant bitsets of every cone position, in reverse
        // topological order: a node's set is itself plus its successors'
        // sets, and all successors come later. The candidates' rows are
        // then copied out.
        let len = fanin_ci.len();
        let words = len.div_ceil(64);
        reach.clear();
        reach.resize(len * words, 0);
        for (ci, fc) in fanin_ci.iter().enumerate().rev() {
            let (before, row) = reach.split_at_mut(ci * words);
            let row = &mut row[..words];
            row[ci >> 6] |= 1 << (ci & 63);
            for f in fc.iter().filter_map(|&f| cone_pos(f)) {
                let dst = &mut before[f * words..(f + 1) * words];
                for (d, &w) in dst.iter_mut().zip(row.iter()) {
                    *d |= w;
                }
            }
        }
        let reach = &reach[..];
        self.desc.push_row(joining.iter().flat_map(|&p| {
            let p = usize::from(p);
            reach[p * words..(p + 1) * words].iter().copied()
        }));
        self.joining.push_row(joining.iter().copied());
        self.fanin_ci.push_row(fanin_ci.iter().copied());
        self.nested_ok.push_row(nested_ok.iter().copied());
        // Every new shape adds at least one joining position, and `Csr`
        // panics past `u32::MAX` of them, so the id fits.
        (self.joining.len() - 1) as u32
    }
}

/// One block's pass-1 output, one row per node in node order: its `inner`
/// ids and its joining and fanin positions (empty unless the node is an
/// AND with joining points). The stitch turns the positions into a shape.
#[derive(Default)]
struct ConeChunk {
    joining: Csr<u16>,
    inner: Csr<AigNodeId>,
    fanin_ci: Csr<[u16; 2]>,
}

impl ConeChunk {
    /// Resets the chunk to cover zero nodes, keeping its capacity.
    fn clear(&mut self) {
        self.joining.clear();
        self.inner.clear();
        self.fanin_ci.clear();
    }
}

/// The serial half of the build: appends pass-1 chunks to the arena in
/// node order and interns each AND's shape, numbering shapes in order of
/// first occurrence. Dropped with the build; it holds no copy of any
/// shape, since a lookup compares against the table itself.
struct Stitcher {
    arena: ConeArena,
    /// Shape ids by key hash; ids with equal hashes chain through `next`
    /// (0 ends a chain: the empty shape is never interned).
    heads: HashMap<u64, u32>,
    next: Vec<u32>,
    /// `nested_ok` of the AND being stitched.
    nested: Vec<bool>,
    /// Descendant bitsets of a new shape's positions, row-major.
    reach: Vec<u64>,
}

impl Stitcher {
    fn new(n: usize) -> Self {
        Stitcher {
            arena: ConeArena {
                inner: IdRows::with_capacity(n, 0),
                shape: Vec::with_capacity(n),
                shapes: ShapeTable::new(),
            },
            heads: HashMap::new(),
            next: vec![0],
            nested: Vec::new(),
            reach: Vec::new(),
        }
    }

    /// Appends the nodes of a build chunk.
    fn append(&mut self, chunk: &ConeChunk) {
        for i in 0..chunk.inner.len() {
            let joining = chunk.joining.row(i);
            let inner = chunk.inner.row(i);
            let shape = if joining.is_empty() {
                0
            } else {
                // Every cone node precedes this AND, so its own entry is
                // already stitched.
                let a = &self.arena;
                self.nested.clear();
                self.nested.extend(inner.iter().map(|x| {
                    let k = x.index();
                    a.is_conditioned(k) && a.cone_len(k) <= MAX_NESTED_CONE
                }));
                self.intern(joining, chunk.fanin_ci.row(i))
            };
            let a = &mut self.arena;
            a.shape.push(shape);
            a.inner.push_row(inner.iter().map(|x| x.index() as u32));
        }
    }

    /// The id of the shape with this key and `self.nested`, added to the
    /// table if new.
    fn intern(&mut self, joining: &[u16], fanin_ci: &[[u16; 2]]) -> u32 {
        let nested = &self.nested;
        let table = &mut self.arena.shapes;
        let head = self
            .heads
            .entry(shape_hash(joining, fanin_ci, nested))
            .or_insert(0);
        let mut s = *head;
        while s != 0 {
            if table.matches(s as usize, joining, fanin_ci, nested) {
                return s;
            }
            s = self.next[s as usize];
        }
        let id = table.push(joining, fanin_ci, nested, &mut self.reach);
        self.next.push(*head);
        *head = id;
        id
    }
}

/// Hash of a shape key. Any collision only costs one slice comparison.
fn shape_hash(joining: &[u16], fanin_ci: &[[u16; 2]], nested_ok: &[bool]) -> u64 {
    let mut h = 0u64;
    let mut mix = |w: u64| h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    mix((joining.len() as u64) << 32 | fanin_ci.len() as u64);
    for &p in joining {
        mix(u64::from(p));
    }
    for (&[a, b], &ok) in fanin_ci.iter().zip(nested_ok) {
        mix(u64::from(a) << 17 | u64::from(b) << 1 | u64::from(ok));
    }
    h
}

/// One worker's pass-1 state: epoch-stamped per-node marks and reusable
/// search buffers, so the per-AND searches allocate nothing once warm.
struct ConeBuilder<'g> {
    aig: &'g Aig,
    fanouts: &'g Csr<AigNodeId>,
    maxlist: usize,
    /// The current AND's epoch; a mark equal to it is set, anything else
    /// is stale.
    epoch: u32,
    in_a: Vec<u32>,
    in_b: Vec<u32>,
    in_inner: Vec<u32>,
    /// Position within the current `inner` (valid where `in_inner` is set).
    pos: Vec<u32>,
    cone_a: Vec<AigNodeId>,
    cone_b: Vec<AigNodeId>,
    frontier: Vec<AigNodeId>,
    next: Vec<AigNodeId>,
    /// The current AND's joining points, ascending once it has an
    /// `inner`.
    joining: Vec<AigNodeId>,
    /// The current AND's `inner` (empty when it joins none).
    inner: Vec<AigNodeId>,
}

impl<'g> ConeBuilder<'g> {
    fn new(aig: &'g Aig, fanouts: &'g Csr<AigNodeId>, maxlist: usize) -> Self {
        let n = aig.len();
        ConeBuilder {
            aig,
            fanouts,
            maxlist,
            epoch: 0,
            in_a: vec![0; n],
            in_b: vec![0; n],
            in_inner: vec![0; n],
            pos: vec![0; n],
            cone_a: Vec::new(),
            cone_b: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
            joining: Vec::new(),
            inner: Vec::new(),
        }
    }

    /// Fills each `(start, chunk)` with the block of nodes from `start`.
    fn fill(&mut self, blocks: Vec<(usize, &mut ConeChunk)>) {
        for (start, chunk) in blocks {
            chunk.clear();
            for k in start..(start + BUILD_BLOCK).min(self.aig.len()) {
                self.push(k, chunk);
            }
        }
    }

    /// Appends node `k`'s pass-1 rows (empty unless `k` is an AND with
    /// joining points) to `out`.
    fn push(&mut self, k: usize, out: &mut ConeChunk) {
        self.joining.clear();
        self.inner.clear();
        if let Some((la, lb)) = self.aig.and_fanins(AigNodeId::from_index(k)) {
            self.find_cone(la.node(), lb.node());
        }
        let (epoch, in_inner, pos) = (self.epoch, &self.in_inner, &self.pos);
        let at = |f: AigNodeId| {
            if in_inner[f.index()] == epoch {
                pos[f.index()] as u16
            } else {
                NO_POS
            }
        };
        out.joining.push_row(self.joining.iter().map(|&x| at(x)));
        // Each kept node's fanin positions inside the subgraph.
        out.fanin_ci
            .push_row(self.inner.iter().map(|&x| match self.aig.and_fanins(x) {
                Some((fa, fb)) => [at(fa.node()), at(fb.node())],
                None => [NO_POS; 2],
            }));
        out.inner.push_row(self.inner.iter().copied());
    }

    /// Collects the `maxlist`-bounded backward cone of `root` (inclusive)
    /// into `cone_a` / `in_a`, or `cone_b` / `in_b` when `side_b`.
    fn collect_cone(&mut self, root: AigNodeId, side_b: bool) {
        let epoch = self.epoch;
        let (mark, cone) = if side_b {
            (&mut self.in_b, &mut self.cone_b)
        } else {
            (&mut self.in_a, &mut self.cone_a)
        };
        let (frontier, next) = (&mut self.frontier, &mut self.next);
        cone.clear();
        cone.push(root);
        mark[root.index()] = epoch;
        frontier.clear();
        frontier.push(root);
        for _ in 0..self.maxlist {
            next.clear();
            for &id in frontier.iter() {
                if let Some((a, b)) = self.aig.and_fanins(id) {
                    for f in [a.node(), b.node()] {
                        if mark[f.index()] != epoch {
                            mark[f.index()] = epoch;
                            cone.push(f);
                            next.push(f);
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            std::mem::swap(frontier, next);
        }
    }

    /// Finds the joining points (`joining`) and the `inner` ids of the
    /// AND over fanin nodes `a` and `b`, marking each `inner` node under
    /// the AND's epoch with its position (nothing when it joins none).
    ///
    /// # Panics
    ///
    /// Panics if the cone has `u16::MAX` nodes or more (see
    /// [`AnalyzerParams::maxlist`]).
    fn find_cone(&mut self, a: AigNodeId, b: AigNodeId) {
        self.epoch += 1;
        let epoch = self.epoch;
        self.collect_cone(a, false);
        self.collect_cone(b, true);
        // Joining points: in both cones, fanout ≥ 2, with distinct
        // immediate successors toward a and b.
        for &x in &self.cone_a {
            if self.in_b[x.index()] != epoch {
                continue;
            }
            let succs = &self.fanouts[x.index()];
            // A fanout of 1 can still join if x *is* a or b itself (x
            // feeds the other side through its single successor while
            // feeding the AND directly).
            if succs.len() < 2 && x != a && x != b {
                continue;
            }
            let mut to_a = x == a;
            let mut to_b = x == b;
            let mut branches_a = usize::from(x == a);
            let mut branches_b = usize::from(x == b);
            for &s in succs {
                if s == a || self.in_a[s.index()] == epoch {
                    to_a = true;
                    branches_a += 1;
                }
                if s == b || self.in_b[s.index()] == epoch {
                    to_b = true;
                    branches_b += 1;
                }
            }
            // Need two *different* routes: total distinct branch uses ≥ 2.
            if to_a && to_b && branches_a + branches_b >= 2 {
                self.joining.push(x);
            }
        }
        if self.joining.is_empty() {
            return;
        }
        // Forward closure of the joining points through the union cone:
        // the subgraph a pinned assignment can actually change. Sorted,
        // it is `inner` in ascending (= topological) order, and sorted
        // joining points have ascending positions in it.
        for &x in &self.joining {
            self.in_inner[x.index()] = epoch;
            self.inner.push(x);
        }
        let mut head = 0;
        while head < self.inner.len() {
            let u = self.inner[head];
            head += 1;
            for &s in &self.fanouts[u.index()] {
                let in_cone = self.in_a[s.index()] == epoch || self.in_b[s.index()] == epoch;
                if in_cone && self.in_inner[s.index()] != epoch {
                    self.in_inner[s.index()] = epoch;
                    self.inner.push(s);
                }
            }
        }
        self.inner.sort_unstable();
        self.joining.sort_unstable();
        let len = self.inner.len();
        assert!(
            len < usize::from(NO_POS),
            "cone arena: a {len}-node cone exceeds its u16 positions \
             (see AnalyzerParams::maxlist for the bound)"
        );
        for (ci, x) in self.inner.iter().enumerate() {
            self.pos[x.index()] = ci as u32;
        }
    }
}

/// The PROTEST estimator. Construction performs all graph searches; each
/// [`full_estimate`](SignalProbEstimator::full_estimate) call is then a
/// pure numeric pass, and [`crate::AnalysisSession`] re-evaluates single
/// nodes incrementally via the same per-node kernel.
#[derive(Debug)]
pub struct SignalProbEstimator {
    aig: Aig,
    maxvers: usize,
    arena: ConeArena,
    /// Fanin-depth ranks of the AIG, built on first use (only the parallel
    /// passes and the incremental session need them).
    ranks: OnceLock<Ranks>,
}

/// Sweep-shape counters of an estimator (see
/// [`SignalProbEstimator::sweep_shape`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepShape {
    /// AND nodes in the AIG.
    pub ands: usize,
    /// AND nodes with joining points, evaluated by formula (2).
    pub conditioned: usize,
    /// Mean joining candidates per conditioned AND (each one a scoring
    /// walk).
    pub mean_joining: f64,
    /// Mean cone (`inner`) size per conditioned AND.
    pub mean_inner: f64,
    /// Distinct cone shapes among the conditioned ANDs, each stored once
    /// in the cone arena.
    pub shapes: usize,
}

/// Work counters of lane-batched sweeps (see
/// [`crate::Analyzer::lane_sweep`]): how many kernel passes ran, over how
/// many lanes, and how often lanes shared an enumeration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneSweep {
    /// Batches swept, each one pass over the AIG in all its lanes.
    pub batches: u64,
    /// Lanes swept: input vectors, one per partition.
    pub lanes: u64,
    /// Conditioned AND evaluations, counted per lane.
    pub conditioned: u64,
    /// Enumeration passes run: one per group of a batch's lanes that
    /// selected the same joining points `W` at an AND.
    pub passes: u64,
}

impl LaneSweep {
    /// Enumeration passes per conditioned lane-AND: the share of the
    /// enumeration work left after lanes with equal `W` share it (1.0 is
    /// one pass for every lane and AND, as one-lane sweeps run).
    pub fn passes_per_conditioned(&self) -> f64 {
        if self.conditioned == 0 {
            0.0
        } else {
            self.passes as f64 / self.conditioned as f64
        }
    }

    /// Adds another sweep's counters.
    pub fn add(&mut self, other: &LaneSweep) {
        self.batches += other.batches;
        self.lanes += other.lanes;
        self.conditioned += other.conditioned;
        self.passes += other.passes;
    }
}

/// Fanin-depth ranks over the AIG. Every value an AND node *reads* (its
/// fanins, its conditioning cone, the nested cones) lies in its transitive
/// fanin and therefore on a strictly smaller rank, so nodes sharing a rank
/// are mutually independent: a parallel pass may evaluate a whole rank
/// concurrently against the settled lower ranks and stay bit-identical to
/// the serial schedule.
///
/// An AND's rank is one more than its fanins' larger rank; the constant
/// and the primary inputs have rank 0.
#[derive(Debug, PartialEq, Eq)]
pub struct Ranks {
    /// Row `r` holds the AND nodes of rank `r`, ascending; row 0 (constant
    /// and inputs) is empty.
    pub(crate) rows: Csr<u32>,
    /// Conditioned (joining-point) nodes per rank: the µs-scale kernel
    /// invocations that make a rank worth fanning out. Product-rule nodes
    /// are two multiplications — queueing them costs more than they do.
    pub(crate) cond_per_rank: Vec<u32>,
}

impl Ranks {
    /// Heap bytes of the arrays' contents (lengths × element sizes).
    fn storage_bytes(&self) -> usize {
        std::mem::size_of_val(self.cond_per_rank.as_slice()) + self.rows.storage_bytes()
    }
}

impl SignalProbEstimator {
    /// Builds the estimator, computing joining points (`MAXLIST`-bounded)
    /// and the conditioning cones of every AND node. Large AIGs build on
    /// `params.num_threads` workers; the result is identical at any count.
    pub fn new(aig: Aig, params: &AnalyzerParams) -> Self {
        let _t = protest_telemetry::span(protest_telemetry::Site::EstimatorBuild);
        let exec = Exec::new(params.num_threads);
        let arena = ConeArena::build(&aig, params.maxlist, &exec, MIN_PAR_BUILD_ANDS);
        SignalProbEstimator {
            aig,
            maxvers: params.maxvers,
            arena,
            ranks: OnceLock::new(),
        }
    }

    /// Heap bytes of the per-AND conditioning structure (the cone arena:
    /// per-AND node ids plus the interned shapes): a memory-footprint
    /// counter for `stats` reports.
    pub fn storage_bytes(&self) -> usize {
        self.arena.storage_bytes()
    }

    /// Heap bytes of the [`ranks`](Self::ranks), or `None` until they are
    /// built.
    pub fn ranks_bytes(&self) -> Option<usize> {
        self.ranks.get().map(Ranks::storage_bytes)
    }

    /// The sweep's shape, read off the cone arena at no sweep cost: how
    /// many ANDs run the conditioned kernel, the mean joining-candidate
    /// count and cone (`inner`) size over those ANDs, and how many
    /// distinct cone shapes they share.
    pub fn sweep_shape(&self) -> SweepShape {
        let a = &self.arena;
        let n = self.aig.len();
        let conditioned = (0..n).filter(|&k| a.is_conditioned(k)).count();
        let joining: usize = (0..n)
            .map(|k| a.shapes.joining.row(a.shape[k] as usize).len())
            .sum();
        let inner: usize = (0..n).map(|k| a.cone_len(k)).sum();
        let per_and = |total: usize| {
            if conditioned == 0 {
                0.0
            } else {
                total as f64 / conditioned as f64
            }
        };
        SweepShape {
            ands: self.aig.num_ands(),
            conditioned,
            mean_joining: per_and(joining),
            mean_inner: per_and(inner),
            shapes: a.num_shapes(),
        }
    }

    /// The AIG this estimator analyzes.
    pub fn aig(&self) -> &Aig {
        &self.aig
    }

    /// Estimates `P(node = 1)` for every AIG node in one full pass.
    ///
    /// For repeated evaluations that change few inputs between calls, build
    /// an [`crate::AnalysisSession`] instead: it re-propagates only the
    /// dirty fan-out cone of the changed inputs and produces bit-identical
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if `input_probs.len() != aig.num_inputs()`.
    pub fn full_estimate(&self, input_probs: &[f64]) -> Vec<f64> {
        self.sweep(
            One,
            input_probs,
            &mut self.new_scratch(),
            &CancelToken::never(),
        )
        .expect("a disarmed token never fires")
    }

    /// Like [`full_estimate`](Self::full_estimate) but spread over the
    /// executor's threads, one fanin-depth rank at a time: within a rank
    /// every node's read set (fanins + conditioning cones) lies on lower
    /// ranks, so each rank is one [`Exec::fan_out`] against the settled
    /// prefix. Every value comes from the same kernel reading the same
    /// settled values as the node-order pass serial executors run, so the
    /// output is bit-identical.
    ///
    /// `cancel` is polled every [`CANCEL_CHECK_NODES`] nodes; a fired token
    /// abandons the pass with [`CoreError::Cancelled`].
    pub(crate) fn full_estimate_exec_cancellable(
        &self,
        input_probs: &[f64],
        exec: &Exec,
        cancel: &CancelToken,
    ) -> Result<Vec<f64>, CoreError> {
        let _t = protest_telemetry::span(protest_telemetry::Site::EstimatorSweep);
        if !exec.parallel() {
            return self.sweep(One, input_probs, &mut self.new_scratch(), cancel);
        }
        assert_eq!(
            input_probs.len(),
            self.aig.num_inputs(),
            "one probability per primary input"
        );
        let n = self.aig.len();
        let mut probs = vec![0.0f64; n];
        probs[0] = 1.0;
        for (pos, &p) in input_probs.iter().enumerate() {
            probs[self.aig.input_node(pos).index()] = p;
        }
        let ranks = self.ranks();
        let mut scratches: Vec<Scratch2> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        for (ri, rank) in ranks.rows.iter().enumerate() {
            vals.resize(rank.len(), 0.0);
            let wide = ranks.cond_per_rank[ri] >= MIN_PAR_COND || rank.len() >= MIN_PAR_WIDE;
            exec.fan_out(
                wide,
                rank,
                &mut vals,
                &mut scratches,
                cancel,
                CANCEL_CHECK_NODES,
                |scratch, &k| {
                    self.and_node_value(&probs, AigNodeId::from_index(k as usize), scratch)
                },
            )?;
            for (&k, &v) in rank.iter().zip(&vals) {
                probs[k as usize] = v;
            }
        }
        Ok(probs)
    }

    /// One serial pass evaluating `lanes` input vectors at once, as the
    /// partitioned analysis runs one batch of a structure class's parts
    /// (one lane per part). `input_probs` holds one value per primary
    /// input and lane, `[input][lane]`; the result holds one per AIG node
    /// and lane, `[node][lane]`. Lane `l` of every node is
    /// `to_bits`-equal to [`full_estimate`](Self::full_estimate) on lane
    /// `l`'s inputs (see the module docs). Also returns the pass's
    /// [`LaneSweep`] counters.
    ///
    /// `cancel` is polled every [`CANCEL_CHECK_NODES`] lane-node
    /// evaluations; a fired token abandons the pass with
    /// [`CoreError::Cancelled`].
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or `input_probs` does not hold
    /// `lanes` values per primary input.
    pub(crate) fn sweep_lanes(
        &self,
        lanes: usize,
        input_probs: &[f64],
        cancel: &CancelToken,
    ) -> Result<(Vec<f64>, LaneSweep), CoreError> {
        assert!(lanes > 0, "a batch has at least one lane");
        let _t = protest_telemetry::span(protest_telemetry::Site::EstimatorSweep);
        let mut scratch = self.new_scratch();
        let probs = self.sweep(Many(lanes), input_probs, &mut scratch, cancel)?;
        let work = LaneSweep {
            batches: 1,
            lanes: lanes as u64,
            conditioned: scratch.conditioned,
            passes: scratch.passes,
        };
        Ok((probs, work))
    }

    /// The one full-pass loop behind [`full_estimate`](Self::full_estimate),
    /// the serial executor's pass and [`sweep_lanes`](Self::sweep_lanes):
    /// every node in index order, all lanes at once, with `cancel` polled
    /// every [`CANCEL_CHECK_NODES`] lane-node evaluations (first before
    /// node 0).
    fn sweep<L: Lanes>(
        &self,
        lanes: L,
        input_probs: &[f64],
        s: &mut Scratch2,
        cancel: &CancelToken,
    ) -> Result<Vec<f64>, CoreError> {
        let w = lanes.n();
        assert_eq!(
            input_probs.len(),
            self.aig.num_inputs() * w,
            "one probability per primary input"
        );
        let step = (CANCEL_CHECK_NODES / w).max(1);
        let mut probs = vec![0.0f64; self.aig.len() * w];
        for k in 0..self.aig.len() {
            if k % step == 0 {
                cancel.check()?;
            }
            let (done, rest) = probs.split_at_mut(k * w);
            let out = &mut rest[..w];
            let id = AigNodeId::from_index(k);
            if k == 0 {
                out.fill(1.0); // node 0 is constant TRUE
            } else if let Some(pos) = self.aig.input_position(id) {
                out.copy_from_slice(&input_probs[pos * w..(pos + 1) * w]);
            } else {
                self.and_values(lanes, done, id, s, out);
            }
        }
        Ok(probs)
    }

    /// The fanin-depth [`Ranks`] of the AIG, built on first use.
    pub fn ranks(&self) -> &Ranks {
        self.ranks.get_or_init(|| {
            let n = self.aig.len();
            let mut rank_of = vec![0u32; n];
            let mut cond_per_rank: Vec<u32> = vec![0];
            for k in 1..n {
                let Some((la, lb)) = self.aig.and_fanins(AigNodeId::from_index(k)) else {
                    continue;
                };
                let rank = 1 + rank_of[la.node().index()].max(rank_of[lb.node().index()]) as usize;
                rank_of[k] = rank as u32;
                if cond_per_rank.len() <= rank {
                    cond_per_rank.resize(rank + 1, 0);
                }
                cond_per_rank[rank] += u32::from(self.arena.is_conditioned(k));
            }
            // Ascending node order keeps each rank's members ascending;
            // exactly the ANDs have a rank above 0.
            let rows = Csr::group(cond_per_rank.len(), |emit| {
                for (k, &r) in rank_of.iter().enumerate().filter(|&(_, &r)| r > 0) {
                    emit(r as usize, k as u32);
                }
            });
            Ranks {
                rows,
                cond_per_rank,
            }
        })
    }

    /// Whether a node runs the conditioned (joining-point) kernel — the
    /// expensive case the parallel batching thresholds count.
    pub(crate) fn is_conditioned(&self, k: u32) -> bool {
        self.arena.is_conditioned(k as usize)
    }

    /// Fresh scratch space sized for this estimator's AIG.
    pub(crate) fn new_scratch(&self) -> Scratch2 {
        Scratch2::default()
    }

    /// Evaluates one AND node given the current per-node probabilities of
    /// everything the node *reads* (its fanins plus its conditioning cone;
    /// see [`reads_any`](Self::reads_any)). This is the one-lane kernel the
    /// rank-parallel pass and the incremental session run per node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an AND node.
    pub(crate) fn and_node_value(
        &self,
        probs: &[f64],
        id: AigNodeId,
        scratch: &mut Scratch2,
    ) -> f64 {
        let mut value = [0.0];
        self.and_values(One, probs, id, scratch, &mut value);
        value[0]
    }

    /// The per-node kernel: evaluates AND node `id` in every lane of
    /// `base` (`[node][lane]`, every node below `id` settled) into `out`,
    /// one value per lane.
    fn and_values<L: Lanes>(
        &self,
        lanes: L,
        base: &[f64],
        id: AigNodeId,
        s: &mut Scratch2,
        out: &mut [f64],
    ) {
        let (la, lb) = self
            .aig
            .and_fanins(id)
            .expect("non-input, non-constant AIG node is an AND");
        let w = lanes.n();
        if !self.arena.is_conditioned(id.index()) {
            for (l, o) in out[..w].iter_mut().enumerate() {
                *o = lane_lit(base, la, w, l) * lane_lit(base, lb, w, l);
            }
            return;
        }
        let mut inner = std::mem::take(&mut s.inner);
        let cone = self.arena.cone(id.index(), &mut inner);
        self.conditioned(lanes, base, la, lb, cone, s, out);
        s.inner = inner;
    }

    /// Whether AND node `k`'s evaluation *reads* the base probability of a
    /// node for which `changed` holds. Its read set is its two fanins, its
    /// conditioning cone (`inner`) and the fanins of the cone nodes, and,
    /// for each cone node that runs nested conditioning, that node's own
    /// cone and their fanins. The walk visits them in that order and stops
    /// at the first changed read.
    ///
    /// Re-evaluating a node is needed exactly when a member of its read
    /// set changed value, so this test (not the plain structural fanin)
    /// drives the session's forward propagation. Every read lies in `k`'s
    /// transitive fanin. The constant and the inputs read nothing.
    pub fn reads_any(&self, k: u32, changed: impl Fn(u32) -> bool) -> bool {
        // Whether an AND's fanins changed (false for a non-AND).
        let fanins_changed = |x: u32| {
            self.aig
                .and_fanins(AigNodeId::from_index(x as usize))
                .is_some_and(|(a, b)| {
                    changed(a.node().index() as u32) || changed(b.node().index() as u32)
                })
        };
        // A cone node or its fanins.
        let node_changed = |x: u32| changed(x) || fanins_changed(x);
        if fanins_changed(k) {
            return true;
        }
        let a = &self.arena;
        let k = k as usize;
        a.inner.row(k).any(node_changed)
            || a.inner
                .row(k)
                .zip(a.shapes.nested_ok.row(a.shape[k] as usize))
                .any(|(x, &nested)| nested && a.inner.row(x as usize).any(node_changed))
    }

    /// Case-4 computation (formula (2)) in every lane: score the joining
    /// candidates, select each lane's `W`, evaluate its `2^|W|`
    /// assignments, writing one value per lane to `out`.
    ///
    /// Everything runs on per-AND dense arrays in `s`, indexed by position
    /// within `cone.inner` plus one slot per out-of-cone fanin read (see
    /// [`Scratch2::load`]), each slot holding one value per lane, so the
    /// kernel's working set is the cone, not the AIG:
    ///
    /// * **Scoring** ([`score`](Self::score)) pins one candidate at a time
    ///   and re-evaluates its descendant row over the slots in every lane,
    ///   then restores the row's base values. Each lane scores and selects
    ///   its own `W` from its values.
    /// * **Enumeration** ([`enumerate`](Self::enumerate)) runs once per
    ///   group of lanes that selected the same `W`: it evaluates every
    ///   affected node once per distinct projection of the assignment onto
    ///   the pins it depends on, in one node-major pass, then sums each
    ///   lane's chain-rule weights in natural assignment order.
    #[allow(clippy::too_many_arguments)]
    fn conditioned<L: Lanes>(
        &self,
        lanes: L,
        base: &[f64],
        la: AigLit,
        lb: AigLit,
        cone: Cone<'_>,
        s: &mut Scratch2,
        out: &mut [f64],
    ) {
        let w = lanes.n();
        let own = s.load(lanes, &self.aig, base, cone, la, lb);
        s.pab.clear();
        s.pab
            .extend((0..w).map(|l| [lane_lit(base, la, w, l), lane_lit(base, lb, w, l)]));
        // Score each joining point by |Cov(a,x)·Cov(b,x)| / S(x)². Nested
        // conditioning during scoring sharpens the ranking, but its cost
        // multiplies with the candidate count — restrict it to small sets.
        let nest_scores = cone.joining.len() <= MAX_NESTED_SCORING;
        let jn = cone.joining.len();
        s.scored.clear();
        s.scored.resize(jn * w, (0.0, 0));
        s.counts.clear();
        s.counts.resize(w, 0);
        // A deterministic node carries no correlation.
        let deterministic = |p: f64| p <= f64::EPSILON || p >= 1.0 - f64::EPSILON;
        for (j, &x) in cone.joining.iter().enumerate() {
            let x = usize::from(x);
            if s.cb[x * w..(x + 1) * w].iter().all(|&px| deterministic(px)) {
                continue;
            }
            self.score(lanes, base, cone, j, nest_scores, s);
            for l in 0..w {
                let px = s.cb[x * w + l];
                if deterministic(px) {
                    continue;
                }
                let (pa1, pb1) = (
                    slot_lit(&s.tab, own[0], w, l),
                    slot_lit(&s.tab, own[1], w, l),
                );
                let [pa, pb] = s.pab[l];
                let cov_a = (pa1 - pa) * px;
                let cov_b = (pb1 - pb) * px;
                let score = (cov_a * cov_b).abs() / (px * (1.0 - px));
                if score > 1e-15 {
                    let c = &mut s.counts[l];
                    s.scored[l * jn + *c as usize] = (score, j as u32);
                    *c += 1;
                }
            }
            // The row lies in `x..`; one copy restores it.
            let len = s.cb.len();
            s.tab[x * w..len].copy_from_slice(&s.cb[x * w..]);
        }
        self.select(w, jn, s);
        let sel = std::mem::take(&mut s.w);
        let mut members = std::mem::take(&mut s.members);
        members.clear();
        let first = sel.row(0);
        if (1..w).all(|l| sel.row(l) == first) {
            // One `W` for every lane (always so with one lane): one group.
            s.lead.clear();
            if first.is_empty() {
                for (l, o) in out[..w].iter_mut().enumerate() {
                    let [pa, pb] = s.pab[l];
                    *o = (pa * pb).clamp(0.0, 1.0);
                }
            } else {
                s.lead.push(0);
                members.extend(0..w as u32);
                self.enumerate(lanes, base, cone, own, first, &members, false, s, out);
                s.passes += 1;
            }
            s.conditioned += w as u64;
            s.w = sel;
            s.members = members;
            return;
        }
        // Group the lanes by `W`, each group led by its first lane. A lane
        // with no correlated candidate (or maxvers = 0) takes the product
        // rule.
        let mut lead = std::mem::take(&mut s.lead);
        let mut group_of = std::mem::take(&mut s.group_of);
        lead.clear();
        group_of.clear();
        for (l, wl) in sel.iter().enumerate() {
            group_of.push(if wl.is_empty() {
                let [pa, pb] = s.pab[l];
                out[l] = (pa * pb).clamp(0.0, 1.0);
                NO_GROUP
            } else if let Some(&r) = lead.iter().find(|&&r| sel.row(r as usize) == wl) {
                r
            } else {
                lead.push(l as u32);
                l as u32
            });
        }
        members.extend((0..w as u32).filter(|&l| group_of[l as usize] != NO_GROUP));
        if lead.len() > 1 {
            members.sort_by_key(|&l| group_of[l as usize]);
        }
        let groups = members.chunk_by(|&a, &b| group_of[a as usize] == group_of[b as usize]);
        for (g, group) in groups.enumerate() {
            if g > 0 {
                s.clear_tables(cone.inner.len(), w);
            }
            let w_sel = sel.row(group[0] as usize);
            self.enumerate(lanes, base, cone, own, w_sel, group, lead.len() > 1, s, out);
        }
        s.conditioned += w as u64;
        s.passes += lead.len() as u64;
        s.w = sel;
        s.lead = lead;
        s.group_of = group_of;
        s.members = members;
    }

    /// Each lane's `W` from its scored candidates (`s.scored`, up to `jn`
    /// per lane, `s.counts` of them): the `maxvers` best, minus those
    /// negligible next to the top one, in candidate order. Written to
    /// `s.w`, one row per lane.
    fn select(&self, w: usize, jn: usize, s: &mut Scratch2) {
        let Scratch2 {
            scored,
            counts,
            w: sel,
            ..
        } = s;
        sel.clear();
        for l in 0..w {
            let list = &mut scored[l * jn..l * jn + counts[l] as usize];
            // Keep the `maxvers` best: highest score first, ties in
            // candidate order (scores are never NaN, so this order is
            // total).
            let keep = self.maxvers.min(list.len());
            if keep < list.len() && keep > 0 {
                let best_first = |a: &(f64, u32), b: &(f64, u32)| {
                    b.0.partial_cmp(&a.0)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.1.cmp(&b.1))
                };
                list.select_nth_unstable_by(keep - 1, best_first);
            }
            let list = &list[..keep];
            // Drop joining points whose score is negligible next to the
            // top one: every kept point doubles the enumeration.
            let cutoff = list.iter().fold(0.0f64, |m, &(sc, _)| m.max(sc)) * 3e-3;
            // Topological order: chain-rule weights condition each joining
            // point on the pins of its ancestors (`joining` is ascending,
            // so sorting the candidate indices sorts the nodes).
            sel.push_row(
                list.iter()
                    .filter(|&&(sc, _)| sc >= cutoff)
                    .map(|&(_, j)| j),
            );
            sel.row_mut(l).sort_unstable();
        }
    }

    /// Scoring walk: pins joining candidate `j` to 1 in every lane and
    /// leaves the conditional values of its descendant row in `s.tab`;
    /// the caller reads the AND's fanin literals and restores the row.
    ///
    /// Only the candidate's descendant row changes: every other slot keeps
    /// its base value, and every row node but the candidate has a fanin in
    /// the row. So the walk is one product of two slot reads per row node
    /// and lane, ascending (nested conditioning instead for `nested_ok`
    /// nodes when `nest`). The base values already include bounded
    /// conditioning, which is why nodes off the row must keep them rather
    /// than be recomputed.
    fn score<L: Lanes>(
        &self,
        lanes: L,
        base: &[f64],
        cone: Cone<'_>,
        j: usize,
        nest: bool,
        s: &mut Scratch2,
    ) {
        let w = lanes.n();
        let row = cone.desc_row(j);
        let x = usize::from(cone.joining[j]);
        s.tab[x * w..(x + 1) * w].fill(1.0);
        for (wi, &word0) in row.iter().enumerate() {
            let mut word = word0;
            if wi == x >> 6 {
                word &= !(1u64 << (x & 63));
            }
            while word != 0 {
                let ci = (wi << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                let [fa, fb] = s.fan[ci];
                if nest && cone.nested_ok[ci] {
                    let prog = self.nest_prog(lanes, base, cone, ci, s);
                    let prog = s.progs[prog];
                    lanes.nest(0..w, &prog, [fa, fb], ci, s, |_, sl| sl as usize);
                } else {
                    product_row(lanes, &mut s.tab, ci, fa, fb);
                }
            }
        }
    }

    /// Enumeration of formula (2) over the pins `sel` (candidate indices,
    /// ascending) for the lanes of `group`, which all selected `sel`;
    /// `shared` when other groups enumerate the same AND after it.
    ///
    /// A cone node's value under assignment `v` depends only on `v & dep`,
    /// where `dep` is the set of pins its reads can see: its own pin bit
    /// for a pin, the union of its fanins' (and, with nested
    /// conditioning, its nested reads') masks otherwise, and nothing off
    /// the pins' descendant union. One ascending pass over that union
    /// fills each node's table at every submask of its `dep` — each
    /// distinct value computed once per lane, reading fanin values from
    /// the tables already filled. A pin's slot then reads as its bit,
    /// while its pre-pin estimate goes to a separate table for the
    /// weights. The union, pins, masks and submask walks are the group's;
    /// only the table values are per lane.
    ///
    /// Each lane then sums over `v` in natural order with the joint
    /// chain-rule weight `P(A_v)` — pins multiplied in topological order,
    /// an assignment dropped once its weight reaches 0 — since joining
    /// points are often correlated (one may even imply another) and a
    /// product of marginals would weight impossible assignments. A lane
    /// whose every assignment is impossible falls back to the product
    /// rule.
    #[allow(clippy::too_many_arguments)]
    fn enumerate<L: Lanes>(
        &self,
        lanes: L,
        base: &[f64],
        cone: Cone<'_>,
        own: [u32; 2],
        sel: &[u32],
        group: &[u32],
        shared: bool,
        s: &mut Scratch2,
        out: &mut [f64],
    ) {
        let w = lanes.n();
        let len = cone.inner.len();
        let b = sel.len();
        s.aff.clear();
        s.aff.resize(cone.words(), 0);
        s.pins.clear();
        for &j in sel {
            let row = cone.desc_row(j as usize);
            for (a, &r) in s.aff.iter_mut().zip(row) {
                *a |= r;
            }
            s.pins.push(Pin {
                pos: u32::from(cone.joining[j as usize]),
                at: 0,
                dep: 0,
            });
        }
        let in_aff = |aff: &[u64], sl: u32| {
            let sl = sl as usize;
            sl < len && (aff[sl >> 6] >> (sl & 63)) & 1 == 1
        };
        // Affected nodes that fill a table: a fanin in the union.
        let fills = |s: &Scratch2, ci: usize| {
            let [fa, fb] = s.fan[ci];
            in_aff(&s.aff, fa >> 1) || in_aff(&s.aff, fb >> 1)
        };
        // With more groups to come, compile the nested programs the fills
        // run before any table: their constant slots then precede the
        // tables, which [`Scratch2::clear_tables`] drops.
        for wi in 0..if shared { s.aff.len() } else { 0 } {
            let mut word = s.aff[wi];
            while word != 0 {
                let ci = (wi << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                if cone.nested_ok[ci] && fills(s, ci) {
                    self.nest_prog(lanes, base, cone, ci, s);
                }
            }
        }
        // One value table shared by every pin, after the slots: entry
        // `1 << i` reads 1.0 (pin i set), entry 0 reads 0.0.
        let bits_at = s.tab.len() / w;
        s.tab.resize((bits_at + (1 << (b - 1)) + 1) * w, 0.0);
        for i in 0..b {
            let at = (bits_at + (1 << i)) * w;
            s.tab[at..at + w].fill(1.0);
        }
        let mut next_pin = 0;
        for wi in 0..s.aff.len() {
            let mut word = s.aff[wi];
            while word != 0 {
                let ci = (wi << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                // Pinned nodes without a fanin in the union keep their
                // base estimate (their own slot) as the pre-pin value.
                let (at, dep) = if fills(s, ci) {
                    self.fill_table(lanes, base, cone, ci, group, s)
                } else {
                    (ci as u32, 0)
                };
                if next_pin < b && s.pins[next_pin].pos as usize == ci {
                    s.pins[next_pin].at = at;
                    s.pins[next_pin].dep = dep;
                    s.off[ci] = bits_at as u32;
                    s.dep[ci] = 1 << next_pin;
                    next_pin += 1;
                } else {
                    s.off[ci] = at;
                    s.dep[ci] = dep;
                }
            }
        }
        let (tab, off, dep) = (&s.tab, &s.off, &s.dep);
        for l in lanes.each(group) {
            let entry = |e: u32| tab[e as usize * w + l];
            let lit_at = |lit: u32, v: u32| {
                let sl = (lit >> 1) as usize;
                slot_value(entry(off[sl] + (v & dep[sl])), lit)
            };
            let mut total = 0.0f64;
            let mut norm = 0.0f64;
            'assignments: for v in 0..1u32 << b {
                let mut weight = 1.0f64;
                for (i, pin) in s.pins.iter().enumerate() {
                    let phat = entry(pin.at + (v & pin.dep));
                    weight *= if (v >> i) & 1 == 1 { phat } else { 1.0 - phat };
                    if weight <= 0.0 {
                        continue 'assignments; // impossible assignment
                    }
                }
                total += weight * lit_at(own[0], v) * lit_at(own[1], v);
                norm += weight;
            }
            out[l] = if norm <= 0.0 {
                let [pa, pb] = s.pab[l];
                (pa * pb).clamp(0.0, 1.0)
            } else {
                (total / norm).clamp(0.0, 1.0)
            };
        }
    }

    /// Appends the value table of affected cone node `ci` to `s.tab`: its
    /// estimate at every submask of its pin-dependency mask, indexed by the
    /// submask, in the lanes of `group`. Returns the table's offset (in
    /// entries) and the mask.
    fn fill_table<L: Lanes>(
        &self,
        lanes: L,
        base: &[f64],
        cone: Cone<'_>,
        ci: usize,
        group: &[u32],
        s: &mut Scratch2,
    ) -> (u32, u32) {
        let w = lanes.n();
        let [fa, fb] = s.fan[ci];
        let mut dep = s.dep[(fa >> 1) as usize] | s.dep[(fb >> 1) as usize];
        let nested = cone.nested_ok[ci].then(|| {
            let prog = self.nest_prog(lanes, base, cone, ci, s);
            let prog = s.progs[prog];
            for sl in prog.outer_slots(s.prog_ops(&prog)) {
                dep |= s.dep[sl as usize];
            }
            prog
        });
        let at = s.tab.len() / w;
        s.tab.resize((at + dep as usize + 1) * w, 0.0);
        // Submasks of `dep`, ascending.
        let submasks = std::iter::successors(Some(0u32), |&u| {
            (u != dep).then(|| u.wrapping_sub(dep) & dep)
        });
        match nested {
            Some(prog) => {
                for u in submasks {
                    let entry = |s: &Scratch2, sl: u32| {
                        (s.off[sl as usize] + (u & s.dep[sl as usize])) as usize
                    };
                    let dst = at + u as usize;
                    lanes.nest(lanes.each(group), &prog, [fa, fb], dst, s, entry);
                }
            }
            None => {
                let table = |l: u32| (s.off[(l >> 1) as usize] as usize, s.dep[(l >> 1) as usize]);
                let [(oa, da), (ob, db)] = [table(fa), table(fb)];
                let tab = &mut s.tab;
                for u in submasks {
                    let (ia, ib) = ((oa + (u & da) as usize) * w, (ob + (u & db) as usize) * w);
                    let o = (at + u as usize) * w;
                    for l in lanes.each(group) {
                        tab[o + l] = slot_value(tab[ia + l], fa) * slot_value(tab[ib + l], fb);
                    }
                }
            }
        }
        (at as u32, dep)
    }

    /// The nested-conditioning program of cone node `ci` (see
    /// [`NestProg`]), compiled once per AND into `s` and shared by the
    /// scoring walks, every lane and every enumeration group: it depends
    /// only on cone structure, and its constant slots hold one base value
    /// per lane. Returns its index in `s.progs`.
    ///
    /// A node with its own joining points carries reconvergence *inside*
    /// the cone that the plain product rule would destroy (its base value
    /// handled it by conditioning, but the base value is no longer valid
    /// once upstream pins move its fanins). One level of nested
    /// conditioning re-derives the value: enumerate the node's first
    /// joining points (at most [`MAX_NESTED_VERS`]) in the outer context
    /// and combine with chain-rule weights. Only the nested pins'
    /// descendant union changes, and every non-pin node in it has a fanin
    /// in it, so the program lists exactly those nodes, ascending, each
    /// with its operands resolved: a nested-cone position, or an outer slot
    /// (a cone slot, or a constant slot holding the base value of a node
    /// outside the outer cone).
    fn nest_prog<L: Lanes>(
        &self,
        lanes: L,
        base: &[f64],
        cone: Cone<'_>,
        ci: usize,
        s: &mut Scratch2,
    ) -> usize {
        if s.nest_at[ci] != u32::MAX {
            return s.nest_at[ci] as usize;
        }
        let n = cone.inner[ci];
        let mut nested_ids = [AigNodeId::from_index(0); MAX_NESTED_CONE];
        let ncone = self.arena.small_cone(n.index(), &mut nested_ids);
        // Bound the nested enumeration tighter than MAXVERS: this runs per
        // affected node per outer assignment.
        let wn = ncone.joining.len().min(self.maxvers.min(MAX_NESTED_VERS));
        // The nested cone has at most MAX_NESTED_CONE (= 32) positions, so
        // descendant rows are single words.
        let mut sub: u64 = 0;
        let mut pin_pos = [usize::MAX; MAX_NESTED_VERS];
        for (j, p) in pin_pos.iter_mut().enumerate().take(wn) {
            sub |= ncone.desc_row(j)[0];
            *p = usize::from(ncone.joining[j]);
        }
        let in_sub = |q: usize| (sub >> q) & 1 == 1;
        let local = |q: usize, lit: AigLit| (q as u32) << 2 | 2 | u32::from(lit.is_complement());
        let outer = |s: &mut Scratch2, x: AigNodeId, complement: bool| {
            let slot = match cone.inner.binary_search(&x) {
                Ok(p) => p as u32,
                Err(_) => s.push_const(lanes, base, x.index()),
            };
            slot << 2 | u32::from(complement)
        };
        let first = s.ops.len() as u32;
        let mut bits = sub;
        while bits != 0 {
            let q = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let m = ncone.inner[q];
            let [qa, qb] = ncone.fanin_ci[q].map(|f| cone_pos(f).filter(|&f| in_sub(f)));
            let pin = pin_pos[..wn]
                .iter()
                .position(|&p| p == q)
                .map_or(NOT_PIN, |i| i as u8);
            // A node with a fanin in the union is re-evaluated from its
            // fanins. Only a pin can have none; it keeps its outer value
            // (times the constant 1.0, which is exact).
            let [a, b] = if qa.is_some() || qb.is_some() {
                let (ga, gb) = self.aig.and_fanins(m).expect("affected implies AND");
                let arg = |s: &mut Scratch2, qx: Option<usize>, g: AigLit| match qx {
                    Some(qx) => local(qx, g),
                    None => outer(s, g.node(), g.is_complement()),
                };
                [arg(s, qa, ga), arg(s, qb, gb)]
            } else {
                [outer(s, m, false), ONE]
            };
            s.ops.push(NestOp {
                q: q as u8,
                pin,
                a,
                b,
            });
        }
        let (fa, fb) = self
            .aig
            .and_fanins(n)
            .expect("cone interior node is an AND");
        let own = [(fa, s.fan[ci][0]), (fb, s.fan[ci][1])].map(|(f, l)| {
            match ncone.inner.binary_search(&f.node()) {
                Ok(q) if in_sub(q) => local(q, f),
                _ => (l >> 1) << 2 | (l & 1),
            }
        });
        s.nest_at[ci] = s.progs.len() as u32;
        s.progs.push(NestProg {
            ops: (first, s.ops.len() as u32),
            wn: wn as u32,
            own,
        });
        s.progs.len() - 1
    }
}

/// Most lanes one nested-conditioning run evaluates side by side (see
/// [`nested_values`]): a batch's lanes run in chunks of this many, and the
/// rest in chunks of 4, 2 and 1.
const NEST_CHUNK: usize = 8;

/// Runs a nested-conditioning program in `C` lanes at once under the
/// outer context: slot `sl` of lane `lanes[c]` reads
/// `tab[entry(sl) + lanes[c]]`. `fan` is the node's fanins as outer slot
/// literals, for the product-rule fallback when every nested assignment
/// is impossible. Writes lane `c`'s value to `out[c]` for every `c <
/// out.len()`.
///
/// Every lane runs the one-lane sequence: the same products, its own
/// chain-rule weight, and an assignment dropped from its sums once its
/// weight reaches 0. The walk over an assignment stops once every lane
/// has dropped it; values a dropped lane keeps computing are never read.
fn nested_values<const C: usize>(
    prog: &NestProg,
    ops: &[NestOp],
    fan: [u32; 2],
    tab: &[f64],
    entry: impl Fn(u32) -> usize,
    lanes: [usize; C],
    out: &mut [f64],
) {
    // Nested-cone values, plus the constant operand `ONE`.
    let mut loc = [[0.0f64; C]; MAX_NESTED_CONE + 1];
    loc[MAX_NESTED_CONE] = [1.0; C];
    let outer = |sl: u32| {
        let e = entry(sl);
        lanes.map(|l| tab[e + l])
    };
    let operand = |loc: &[[f64; C]; MAX_NESTED_CONE + 1], o: u32| {
        let p = if o & 2 != 0 {
            loc[(o >> 2) as usize]
        } else {
            outer(o >> 2)
        };
        p.map(|p| slot_value(p, o))
    };
    let mut total = [0.0f64; C];
    let mut norm = [0.0f64; C];
    'assignments: for v in 0..1u32 << prog.wn {
        let mut weight = [1.0f64; C];
        let mut live = [true; C];
        for op in ops {
            let (a, b) = (operand(&loc, op.a), operand(&loc, op.b));
            let mut phat = [0.0f64; C];
            for c in 0..C {
                phat[c] = a[c] * b[c];
            }
            loc[op.q as usize] = if op.pin == NOT_PIN {
                phat
            } else {
                let bit = (v >> op.pin) & 1 == 1;
                for c in 0..C {
                    if live[c] {
                        weight[c] *= if bit { phat[c] } else { 1.0 - phat[c] };
                        if weight[c] <= 0.0 {
                            live[c] = false; // impossible in this lane
                        }
                    }
                }
                if !live.contains(&true) {
                    continue 'assignments;
                }
                [f64::from(bit); C]
            };
        }
        let (va, vb) = (operand(&loc, prog.own[0]), operand(&loc, prog.own[1]));
        for c in 0..C {
            if live[c] {
                total[c] += weight[c] * va[c] * vb[c];
                norm[c] += weight[c];
            }
        }
    }
    for (c, o) in out.iter_mut().enumerate() {
        *o = if norm[c] <= 0.0 {
            let [pa, pb] = fan.map(|f| slot_value(outer(f >> 1)[c], f));
            pa * pb
        } else {
            (total[c] / norm[c]).clamp(0.0, 1.0)
        };
    }
}

/// One nested-cone node of a [`NestProg`].
#[derive(Debug, Clone, Copy)]
struct NestOp {
    /// Nested-cone position the node's value is kept at.
    q: u8,
    /// Index among the nested pins, or [`NOT_PIN`].
    pin: u8,
    /// The node's estimate is the product of these two operands.
    a: u32,
    b: u32,
}

/// [`NestOp::pin`] of a node that is not a nested pin.
const NOT_PIN: u8 = u8::MAX;

/// The operand reading the constant 1.0 (the entry after the nested cone).
const ONE: u32 = (MAX_NESTED_CONE as u32) << 2 | 2;

/// One level of nested conditioning for one cone node, compiled for the
/// current AND (see [`SignalProbEstimator::nest_prog`]).
#[derive(Debug, Clone, Copy)]
struct NestProg {
    /// Range of the node's [`NestOp`]s in [`Scratch2::ops`], ascending.
    ops: (u32, u32),
    /// Nested pins: the program runs `2^wn` assignments.
    wn: u32,
    /// The node's own fanins as operands.
    own: [u32; 2],
}

impl NestProg {
    /// The outer slots the program, with steps `ops`, reads besides the
    /// node's fanin slots.
    fn outer_slots<'a>(&self, ops: &'a [NestOp]) -> impl Iterator<Item = u32> + 'a {
        ops.iter()
            .flat_map(|op| [op.a, op.b])
            .chain(self.own)
            .filter(|&o| o & 2 == 0)
            .map(|o| o >> 2)
    }
}

/// Cap on joining points enumerated per nested (inner) conditioning pass —
/// the cost multiplies into every outer assignment.
const MAX_NESTED_VERS: usize = 2;

/// Nested conditioning only runs when the node's affected subgraph is this
/// small; larger cones fall back to the product rule to keep the estimator
/// usable inside the optimizer's hill-climbing loop.
const MAX_NESTED_CONE: usize = 32;

/// Candidate-count bound for nested conditioning inside the scoring pass.
const MAX_NESTED_SCORING: usize = 12;

/// Minimum conditioned-node count for fanning a rank out to worker
/// threads: conditioned kernels cost microseconds each, so a handful
/// already covers the spawn/synchronization overhead.
pub(crate) const MIN_PAR_COND: u32 = 4;

/// Ranks with at least this many nodes are fanned out even without
/// conditioned members — at this width the two-multiplication product
/// nodes amortize the queueing cost.
pub(crate) const MIN_PAR_WIDE: usize = 1024;

/// Probability of a literal given per-node probabilities.
pub(crate) fn lit_prob(probs: &[f64], lit: AigLit) -> f64 {
    lane_lit(probs, lit, 1, 0)
}

/// Probability of a literal in lane `l` of `[node][lane]` probabilities
/// with `lanes` lanes.
pub(crate) fn lane_lit(probs: &[f64], lit: AigLit, lanes: usize, l: usize) -> f64 {
    let p = probs[lit.node().index() * lanes + l];
    if lit.is_complement() {
        1.0 - p
    } else {
        p
    }
}

/// A slot literal's (`slot << 1 | complement`) probability given its
/// slot's value `p`; only bit 0 is read, so nested operands use it too.
fn slot_value(p: f64, l: u32) -> f64 {
    if l & 1 != 0 {
        1.0 - p
    } else {
        p
    }
}

/// Sets every lane of slot `ci` in `tab` to the product of slot literals
/// `fa` and `fb` in that lane. Lanes go in
/// blocks of four, so wide batches vectorize; one lane is the scalar
/// product.
#[inline]
fn product_row<L: Lanes>(lanes: L, tab: &mut [f64], ci: usize, fa: u32, fb: u32) {
    const BLOCK: usize = 4;
    let w = lanes.n();
    let (ia, ib, o) = ((fa >> 1) as usize * w, (fb >> 1) as usize * w, ci * w);
    // Complement bits change from row node to row node with the circuit,
    // in no pattern a branch predictor learns: pick each literal's value
    // by indexing the pair `[p, 1 − p]`, which compiles without a branch.
    let product = |a: f64, b: f64| {
        let [va, vb] = [(a, fa), (b, fb)].map(|(p, l)| [p, 1.0 - p][(l & 1) as usize]);
        va * vb
    };
    let mut l = 0;
    while l + BLOCK <= w {
        let a: [f64; BLOCK] = tab[ia + l..ia + l + BLOCK].try_into().expect("one block");
        let b: [f64; BLOCK] = tab[ib + l..ib + l + BLOCK].try_into().expect("one block");
        let v: [f64; BLOCK] = std::array::from_fn(|c| product(a[c], b[c]));
        tab[o + l..o + l + BLOCK].copy_from_slice(&v);
        l += BLOCK;
    }
    for l in l..w {
        tab[o + l] = product(tab[ia + l], tab[ib + l]);
    }
}

/// The value of slot literal `lit` in lane `l` of `tab` (`lanes` values
/// per slot).
fn slot_lit(tab: &[f64], lit: u32, lanes: usize, l: usize) -> f64 {
    slot_value(tab[(lit >> 1) as usize * lanes + l], lit)
}

/// One selected pin of the enumeration: its cone position and the table
/// of its pre-pin estimate (offset into [`Scratch2::tab`] in entries,
/// dependency mask).
#[derive(Debug, Clone, Copy)]
struct Pin {
    pos: u32,
    at: u32,
    dep: u32,
}

/// [`Scratch2::group_of`] of a lane that takes the product rule.
const NO_GROUP: u32 = u32::MAX;

/// How many input vectors ("lanes") one kernel call evaluates. The
/// kernel stores values lane-minor, `[slot][lane]`, so its one-lane
/// instance is the plain scalar layout and compiles to the scalar loops.
trait Lanes: Copy {
    /// The lane count.
    fn n(self) -> usize;
    /// The lanes of `group`, a list of lane indices.
    fn each(self, group: &[u32]) -> impl Iterator<Item = usize> + '_;
    /// Runs the nested program `prog` of a cone node with fanin slot
    /// literals `fan` ([`nested_values`]) in the lanes `each`, writing lane
    /// `l`'s value to entry `at` of `s.tab`. Outer slot `sl` is read at
    /// entry `entry(s, sl)`.
    fn nest(
        self,
        each: impl Iterator<Item = usize>,
        prog: &NestProg,
        fan: [u32; 2],
        at: usize,
        s: &mut Scratch2,
        entry: impl Fn(&Scratch2, u32) -> usize,
    );
}

/// The one-lane instance: the full pass, the rank-parallel pass and the
/// incremental session.
#[derive(Debug, Clone, Copy)]
struct One;

impl Lanes for One {
    #[inline(always)]
    fn n(self) -> usize {
        1
    }

    #[inline(always)]
    fn each(self, _: &[u32]) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(0)
    }

    #[inline(always)]
    fn nest(
        self,
        _: impl Iterator<Item = usize>,
        prog: &NestProg,
        fan: [u32; 2],
        at: usize,
        s: &mut Scratch2,
        entry: impl Fn(&Scratch2, u32) -> usize,
    ) {
        let mut value = [0.0];
        let read = |sl: u32| entry(s, sl);
        nested_values(prog, s.prog_ops(prog), fan, &s.tab, read, [0], &mut value);
        s.tab[at] = value[0];
    }
}

/// A batch of this many lanes (see [`SignalProbEstimator::sweep_lanes`]).
#[derive(Debug, Clone, Copy)]
struct Many(usize);

impl Lanes for Many {
    fn n(self) -> usize {
        self.0
    }

    fn each(self, group: &[u32]) -> impl Iterator<Item = usize> + '_ {
        group.iter().map(|&l| l as usize)
    }

    /// Runs the lanes in chunks of [`NEST_CHUNK`], and a shorter rest in
    /// chunks of the largest power of two it holds, so no chunk carries a
    /// spare lane.
    fn nest(
        self,
        mut each: impl Iterator<Item = usize>,
        prog: &NestProg,
        fan: [u32; 2],
        at: usize,
        s: &mut Scratch2,
        entry: impl Fn(&Scratch2, u32) -> usize,
    ) {
        let mut chunk = [0; NEST_CHUNK];
        loop {
            let n = chunk.iter_mut().zip(&mut each).map(|(c, l)| *c = l).count();
            let mut rest = &chunk[..n];
            while !rest.is_empty() {
                let c = 1 << rest.len().ilog2();
                let (lanes, tail) = rest.split_at(c);
                let e = &entry;
                match c {
                    8 => nest_chunk::<8>(self.0, lanes, prog, fan, at, s, e),
                    4 => nest_chunk::<4>(self.0, lanes, prog, fan, at, s, e),
                    2 => nest_chunk::<2>(self.0, lanes, prog, fan, at, s, e),
                    _ => nest_chunk::<1>(self.0, lanes, prog, fan, at, s, e),
                }
                rest = tail;
            }
            if n < NEST_CHUNK {
                return;
            }
        }
    }
}

/// [`Many::nest`] over exactly `C` of a `w`-lane batch's `lanes`.
fn nest_chunk<const C: usize>(
    w: usize,
    lanes: &[usize],
    prog: &NestProg,
    fan: [u32; 2],
    at: usize,
    s: &mut Scratch2,
    entry: &impl Fn(&Scratch2, u32) -> usize,
) {
    let lanes: [usize; C] = lanes.try_into().expect("a chunk of C lanes");
    let mut vals = [0.0f64; C];
    let read = |sl: u32| entry(s, sl) * w;
    nested_values(prog, s.prog_ops(prog), fan, &s.tab, read, lanes, &mut vals);
    for (l, v) in lanes.into_iter().zip(vals) {
        s.tab[at * w + l] = v;
    }
}

/// Evaluation buffers of the conditioned kernel, reused across AND nodes.
///
/// Every buffer is indexed by position within the current AND's cone (or
/// by its slot, table, candidate or lane), never by AIG node, and is
/// refilled per AND. Value buffers hold one value per lane, `[slot][lane]`.
/// So its size follows the largest cone, `2^MAXVERS` and the lane count,
/// not the AIG or the number of conditioned ANDs, and a clone (session
/// pools, hill-climb workers) copies only that. Opaque outside this
/// module; obtained via [`SignalProbEstimator::new_scratch`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch2 {
    /// The current AND's `inner` ids, decoded from the arena (taken out of
    /// the scratch while the kernel runs on them).
    inner: Vec<AigNodeId>,
    /// Slot values, then the enumeration's tables, one value per lane
    /// each. Slots `0..len` are the cone positions, holding their base
    /// values outside a scoring walk; `len` is a never-read fanin slot of
    /// the cone's inputs; the rest hold base values of out-of-cone nodes
    /// the cone reads (fanins, and nested reads added by
    /// [`Scratch2::push_const`]).
    tab: Vec<f64>,
    /// Base values per cone position, for restoring a scoring walk.
    cb: Vec<f64>,
    /// Per cone position, its two fanins as slot literals.
    fan: Vec<[u32; 2]>,
    /// Per slot, the offset (in entries) of its value in `tab` and its
    /// pin-dependency mask: the slot itself and 0, until enumeration
    /// gives an affected node a table.
    off: Vec<u32>,
    dep: Vec<u32>,
    /// Bitset over cone positions: the pins' descendant union.
    aff: Vec<u64>,
    pins: Vec<Pin>,
    /// Per lane, the probabilities of the AND's two fanin literals.
    pab: Vec<[f64; 2]>,
    /// Each lane's `(score, candidate)` pairs, `jn` entries reserved per
    /// lane, and how many of them each lane filled.
    scored: Vec<(f64, u32)>,
    counts: Vec<u32>,
    /// Each lane's selected candidates, one row per lane.
    w: Csr<u32>,
    /// The first lane of each group of lanes sharing one `W`, each
    /// lane's group by its first lane ([`NO_GROUP`] for the product
    /// rule), and the grouped lanes, group by group.
    lead: Vec<u32>,
    group_of: Vec<u32>,
    members: Vec<u32>,
    /// Per cone position, the index of its nested-conditioning program
    /// in `progs` (`u32::MAX` until compiled), and the programs' steps.
    nest_at: Vec<u32>,
    progs: Vec<NestProg>,
    ops: Vec<NestOp>,
    /// Conditioned AND evaluations so far, counted per lane.
    conditioned: u64,
    /// Enumeration passes so far: one per group of lanes sharing a `W`.
    passes: u64,
}

impl Scratch2 {
    /// Loads the cone of the AND being evaluated: base values of every
    /// lane into the cone slots, one slot per out-of-cone fanin read, and
    /// every cone node's fanins as slot literals. Returns the AND's own
    /// fanins `la`, `lb` as slot literals.
    fn load<L: Lanes>(
        &mut self,
        lanes: L,
        aig: &Aig,
        base: &[f64],
        cone: Cone<'_>,
        la: AigLit,
        lb: AigLit,
    ) -> [u32; 2] {
        let w = lanes.n();
        let len = cone.inner.len();
        let Scratch2 {
            tab,
            cb,
            fan,
            off,
            dep,
            nest_at,
            progs,
            ops,
            ..
        } = self;
        tab.clear();
        tab.resize(len * w, 0.0);
        for (dst, &x) in tab.chunks_exact_mut(w).zip(cone.inner) {
            for (l, d) in dst.iter_mut().enumerate() {
                *d = base[x.index() * w + l];
            }
        }
        cb.clear();
        cb.extend_from_slice(tab);
        tab.resize(tab.len() + w, 0.0);
        let mut slot = |f: AigLit, ci: u16| -> u32 {
            let sl = match cone_pos(ci) {
                Some(p) => p as u32,
                None => {
                    for l in 0..w {
                        tab.push(base[f.node().index() * w + l]);
                    }
                    (tab.len() / w - 1) as u32
                }
            };
            sl << 1 | u32::from(f.is_complement())
        };
        fan.clear();
        for (&x, &[ia, ib]) in cone.inner.iter().zip(cone.fanin_ci) {
            fan.push(match aig.and_fanins(x) {
                Some((fa, fb)) => [slot(fa, ia), slot(fb, ib)],
                // Inputs in a cone are joining points: pinned, never
                // re-evaluated. Slot `len` is outside every descendant row.
                None => [(len as u32) << 1; 2],
            });
        }
        let pos = |l: AigLit| {
            cone.inner
                .binary_search(&l.node())
                .map_or(NO_POS, |p| p as u16)
        };
        let own = [slot(la, pos(la)), slot(lb, pos(lb))];
        let slots = tab.len() / w;
        off.clear();
        off.extend(0..slots as u32);
        dep.clear();
        dep.resize(slots, 0);
        nest_at.clear();
        nest_at.resize(len, u32::MAX);
        progs.clear();
        ops.clear();
        own
    }

    /// Appends a constant slot holding node `x`'s base value in every
    /// lane (a nested read of a node outside the cone) and returns it.
    /// Valid in both phases: before the enumeration's tables, slot and
    /// `tab` entry coincide.
    fn push_const<L: Lanes>(&mut self, lanes: L, base: &[f64], x: usize) -> u32 {
        let w = lanes.n();
        self.off.push((self.tab.len() / w) as u32);
        self.dep.push(0);
        for l in 0..w {
            self.tab.push(base[x * w + l]);
        }
        (self.off.len() - 1) as u32
    }

    /// Drops one group's enumeration tables, so the next group of lanes
    /// starts from the slots again: the cone positions `0..len` read
    /// their own slots with no pin dependency.
    fn clear_tables(&mut self, len: usize, lanes: usize) {
        self.tab.truncate(self.off.len() * lanes);
        for (ci, (off, dep)) in self.off[..len].iter_mut().zip(&mut self.dep).enumerate() {
            *off = ci as u32;
            *dep = 0;
        }
    }

    /// The steps of a compiled nested program.
    fn prog_ops(&self, prog: &NestProg) -> &[NestOp] {
        &self.ops[prog.ops.0 as usize..prog.ops.1 as usize]
    }

    /// Heap bytes held by the buffers (capacities × element sizes).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let words = self.off.capacity()
            + self.dep.capacity()
            + self.lead.capacity()
            + self.group_of.capacity()
            + self.members.capacity()
            + self.counts.capacity()
            + self.nest_at.capacity();
        (self.tab.capacity() + self.cb.capacity()) * size_of::<f64>()
            + self.fan.capacity() * size_of::<[u32; 2]>()
            + words * size_of::<u32>()
            + self.aff.capacity() * size_of::<u64>()
            + self.pins.capacity() * size_of::<Pin>()
            + self.pab.capacity() * size_of::<[f64; 2]>()
            + self.scored.capacity() * size_of::<(f64, u32)>()
            + self.progs.capacity() * size_of::<NestProg>()
            + self.ops.capacity() * size_of::<NestOp>()
            + self.inner.capacity() * size_of::<AigNodeId>()
            // By length: at most `maxvers` candidates per lane.
            + self.w.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use protest_netlist::CircuitBuilder;

    use crate::aig::Aig;
    use crate::params::AnalyzerParams;

    use super::*;

    fn estimate_outputs(
        circuit: &protest_netlist::Circuit,
        probs: &[f64],
        params: &AnalyzerParams,
    ) -> Vec<f64> {
        let aig = Aig::from_circuit(circuit);
        let est = SignalProbEstimator::new(aig, params);
        let node_probs = est.full_estimate(probs);
        circuit
            .outputs()
            .iter()
            .map(|&o| lit_prob(&node_probs, est.aig().lit_of(o)))
            .collect()
    }

    fn paper_aigs() -> Vec<(&'static str, Aig)> {
        use protest_circuits::{alu_74181, comp24, div_nonrestoring, mult_array};
        vec![
            ("alu", Aig::from_circuit(&alu_74181())),
            ("comp24", Aig::from_circuit(&comp24())),
            ("div8x8", Aig::from_circuit(&div_nonrestoring(8, 8))),
            ("mult6", Aig::from_circuit(&mult_array(6))),
        ]
    }

    #[test]
    fn parallel_arena_build_matches_serial() {
        // A zero AND threshold forces the interleaved-block path even on
        // small AIGs; block stitching must reproduce the serial arena.
        let maxlist = AnalyzerParams::default().maxlist;
        let mut aigs = paper_aigs();
        for seed in 0..8 {
            let c = protest_circuits::random_circuit(protest_circuits::RandomCircuitParams {
                inputs: 6,
                gates: 60,
                outputs: 3,
                seed,
            });
            aigs.push(("random", Aig::from_circuit(&c)));
        }
        for (name, aig) in &aigs {
            let serial = ConeArena::build(aig, maxlist, &Exec::new(1), 0);
            for threads in [2, 3, 4] {
                let parallel = ConeArena::build(aig, maxlist, &Exec::new(threads), 0);
                assert!(
                    serial == parallel,
                    "{name}: arena differs at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn desc_rows_are_forward_closures_of_their_candidates() {
        // Brute force, with no topological-order shortcut: iterate
        // "a cone node whose fanin is reached is reached" to a fixpoint
        // from each candidate, over the whole cone.
        for (name, aig) in paper_aigs() {
            let est = SignalProbEstimator::new(aig, &AnalyzerParams::default());
            let mut rows = 0;
            let mut buf = Vec::new();
            for k in 0..est.aig.len() {
                let cone = est.arena.cone(k, &mut buf);
                for (j, &x) in cone.joining.iter().enumerate() {
                    let x = cone.inner[usize::from(x)];
                    let mut reached: Vec<bool> = cone.inner.iter().map(|&y| y == x).collect();
                    let mut changed = true;
                    while changed {
                        changed = false;
                        for (ci, &y) in cone.inner.iter().enumerate() {
                            let Some((fa, fb)) = est.aig.and_fanins(y) else {
                                continue;
                            };
                            let hit = [fa.node(), fb.node()]
                                .iter()
                                .any(|f| cone.inner.binary_search(f).is_ok_and(|i| reached[i]));
                            if hit && !reached[ci] {
                                reached[ci] = true;
                                changed = true;
                            }
                        }
                    }
                    let row = cone.desc_row(j);
                    for (ci, &want) in reached.iter().enumerate() {
                        let got = (row[ci >> 6] >> (ci & 63)) & 1 == 1;
                        assert_eq!(got, want, "{name}: node {k}, candidate {j}, position {ci}");
                    }
                    rows += 1;
                }
            }
            assert!(rows > 0, "{name}: no conditioned AND exercised the check");
        }
    }

    #[test]
    fn storage_bytes_counts_the_arena_lengths() {
        let aig = Aig::from_circuit(&protest_circuits::comp24());
        let n = aig.len();
        let est = SignalProbEstimator::new(aig, &AnalyzerParams::default());
        let a = &est.arena;
        let t = &a.shapes;
        let shapes = a.num_shapes() + 1;
        assert_eq!(a.inner.len(), n);
        assert_eq!(a.shape.len(), n);
        for rows in [
            t.joining.len(),
            t.fanin_ci.len(),
            t.nested_ok.len(),
            t.desc.len(),
        ] {
            assert_eq!(rows, shapes);
        }
        assert_eq!(t.nested_ok.values().len(), t.fanin_ci.values().len());
        // The coded rows: offsets plus at least one byte per id.
        let ids: usize = (0..n).map(|k| a.cone_len(k)).sum();
        assert!(a.inner.storage_bytes() >= (n + 1) * 4 + ids);
        let want = n * 4
            + a.inner.storage_bytes()
            + 4 * (shapes + 1) * 4
            + t.joining.values().len() * 2
            + t.fanin_ci.values().len() * 4
            + t.nested_ok.values().len()
            + t.desc.values().len() * 8;
        assert!(!t.desc.values().is_empty());
        assert_eq!(est.storage_bytes(), want);
    }

    #[test]
    fn ranks_bytes_appear_once_built() {
        let est = SignalProbEstimator::new(
            Aig::from_circuit(&protest_circuits::comp24()),
            &AnalyzerParams::default(),
        );
        assert_eq!(est.ranks_bytes(), None);
        let ranks = est.ranks();
        let words = ranks.rows.len() + 1 + ranks.rows.values().len() + ranks.cond_per_rank.len();
        assert_eq!(est.ranks_bytes(), Some(4 * words));
    }

    /// One AND's cone as [`ConeBuilder`] produces it for that AND alone,
    /// with joining points as node ids, `nested_ok` from the cones of its
    /// nodes (built alone too) and descendant rows by a forward scan.
    #[derive(Debug, PartialEq)]
    struct AloneCone {
        joining: Vec<AigNodeId>,
        inner: Vec<AigNodeId>,
        fanin_ci: Vec<[u16; 2]>,
        nested_ok: Vec<bool>,
        desc: Vec<u64>,
    }

    impl AloneCone {
        /// Decodes node `k`'s cone from the interned arena.
        fn decode(arena: &ConeArena, k: usize) -> Self {
            let mut buf = Vec::new();
            let cone = arena.cone(k, &mut buf);
            AloneCone {
                joining: cone
                    .joining
                    .iter()
                    .map(|&p| cone.inner[usize::from(p)])
                    .collect(),
                inner: cone.inner.to_vec(),
                fanin_ci: cone.fanin_ci.to_vec(),
                nested_ok: cone.nested_ok.to_vec(),
                desc: cone.desc.to_vec(),
            }
        }

        /// Builds node `k`'s cone alone.
        fn build(b: &mut ConeBuilder, k: usize) -> Self {
            let mut chunk = ConeChunk::default();
            b.push(k, &mut chunk);
            let (inner, fanin_ci) = (chunk.inner.row(0), chunk.fanin_ci.row(0));
            let joining: Vec<AigNodeId> = chunk
                .joining
                .row(0)
                .iter()
                .map(|&p| inner[usize::from(p)])
                .collect();
            let nested_ok = inner
                .iter()
                .map(|x| {
                    let mut own = ConeChunk::default();
                    b.push(x.index(), &mut own);
                    !own.joining.row(0).is_empty() && own.inner.row(0).len() <= MAX_NESTED_CONE
                })
                .collect();
            let len = inner.len();
            let words = len.div_ceil(64);
            let mut desc = Vec::new();
            for &p in chunk.joining.row(0) {
                let mut reached = vec![false; len];
                reached[usize::from(p)] = true;
                for ci in usize::from(p) + 1..len {
                    reached[ci] = fanin_ci[ci]
                        .iter()
                        .any(|&f| f != NO_POS && reached[usize::from(f)]);
                }
                let mut row = vec![0u64; words];
                for ci in (0..len).filter(|&ci| reached[ci]) {
                    row[ci >> 6] |= 1 << (ci & 63);
                }
                desc.extend(row);
            }
            AloneCone {
                joining,
                inner: inner.to_vec(),
                fanin_ci: fanin_ci.to_vec(),
                nested_ok,
                desc,
            }
        }
    }

    /// Checks every node's cone decoded from `arena` against the cone
    /// built for that node alone; returns the conditioned ANDs.
    fn assert_interning_loses_nothing(name: &str, aig: &Aig, arena: &ConeArena) -> usize {
        let fanouts = aig.fanout_map();
        let mut b = ConeBuilder::new(aig, &fanouts, AnalyzerParams::default().maxlist);
        let mut conditioned = 0;
        for k in 0..aig.len() {
            let alone = AloneCone::build(&mut b, k);
            assert_eq!(AloneCone::decode(arena, k), alone, "{name}: node {k}");
            assert_eq!(arena.is_conditioned(k), !alone.joining.is_empty());
            conditioned += usize::from(arena.is_conditioned(k));
        }
        conditioned
    }

    #[test]
    fn interned_cones_equal_cones_built_alone() {
        let maxlist = AnalyzerParams::default().maxlist;
        for (name, aig) in paper_aigs() {
            let arena = ConeArena::build(&aig, maxlist, &Exec::new(1), MIN_PAR_BUILD_ANDS);
            assert!(assert_interning_loses_nothing(name, &aig, &arena) > 0);
        }
    }

    #[test]
    fn mesh_interned_through_blocks_shares_its_shapes() {
        // Above the AND threshold, so 4 threads take the block path.
        let build = |spec: &str| {
            let aig = Aig::from_circuit(&protest_circuits::mesh_by_spec(spec).unwrap());
            assert!(aig.num_ands() >= MIN_PAR_BUILD_ANDS, "{spec}");
            let arena = ConeArena::build(&aig, 10, &Exec::new(4), MIN_PAR_BUILD_ANDS);
            (aig, arena)
        };
        let (aig, arena) = build("multmesh:4x8x10");
        let conditioned = assert_interning_loses_nothing("multmesh:4x8x10", &aig, &arena);
        // A mesh's shapes follow its width, not its length: twice the
        // length doubles the conditioned ANDs and adds no shape.
        let (_, long) = build("multmesh:4x8x20");
        let long_conditioned = (0..long.shape.len())
            .filter(|&k| long.is_conditioned(k))
            .count();
        assert!(long_conditioned > 2 * conditioned - conditioned / 10);
        assert_eq!(long.num_shapes(), arena.num_shapes(), "sharing lost");
        assert!(
            long.num_shapes() * 10 <= long_conditioned,
            "{} shapes for {long_conditioned} conditioned ANDs: sharing lost",
            long.num_shapes()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn random_interned_cones_equal_cones_built_alone(seed in 0u64..3000) {
            let c = protest_circuits::random_circuit(protest_circuits::RandomCircuitParams {
                inputs: 8,
                gates: 80,
                outputs: 4,
                seed,
            });
            let aig = Aig::from_circuit(&c);
            let arena = ConeArena::build(&aig, 10, &Exec::new(2), 0);
            assert_interning_loses_nothing("random", &aig, &arena);
        }
    }

    #[test]
    fn maxlist_16_builds_agree_across_threads() {
        // The setting of the `maxlist_mult` ablation: mult_abcd has far
        // fewer than 65,535 nodes, so its cones fit u16 positions.
        let params = AnalyzerParams {
            maxlist: 16,
            ..AnalyzerParams::default()
        };
        let aig = Aig::from_circuit(&protest_circuits::mult_abcd());
        let serial = ConeArena::build(&aig, 16, &Exec::new(1), 0);
        assert!(serial == ConeArena::build(&aig, 16, &Exec::new(4), 0));
        let est = |threads| {
            let params = AnalyzerParams {
                num_threads: threads,
                ..params
            };
            SignalProbEstimator::new(aig.clone(), &params)
        };
        let probs: Vec<f64> = (0..aig.num_inputs())
            .map(|i| ((i % 15) + 1) as f64 / 16.0)
            .collect();
        let (a, b) = (est(1).full_estimate(&probs), est(4).full_estimate(&probs));
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    #[should_panic(expected = "exceeds its u16 positions")]
    fn oversized_cone_panics_by_name() {
        // An AND tree and an OR tree over the same 2^15 inputs, joined by
        // one AND: every input is one of its joining points, so at MAXLIST
        // 16 its cone holds both trees and the inputs (~98k nodes).
        let mut b = CircuitBuilder::new("wide");
        let xs = b.input_bus("x", 1 << 15);
        let mut tree = |or: bool| {
            let mut layer = xs.clone();
            while layer.len() > 1 {
                layer = layer
                    .chunks(2)
                    .map(|p| {
                        if or {
                            b.or2(p[0], p[1])
                        } else {
                            b.and2(p[0], p[1])
                        }
                    })
                    .collect();
            }
            layer[0]
        };
        let (t, u) = (tree(false), tree(true));
        let z = b.and2(t, u);
        b.output(z, "z");
        let aig = Aig::from_circuit(&b.finish().unwrap());
        ConeArena::build(&aig, 16, &Exec::new(1), usize::MAX);
    }

    #[test]
    fn sweep_shape_counts_conditioned_ands_on_comp24() {
        let est = SignalProbEstimator::new(
            Aig::from_circuit(&protest_circuits::comp24()),
            &AnalyzerParams::default(),
        );
        let shape = est.sweep_shape();
        assert_eq!((shape.conditioned, shape.ands), (72, 192));
        assert_eq!(shape.shapes, 7);
        let (mut joining, mut inner) = (0, 0);
        let mut buf = Vec::new();
        for k in (0..est.aig.len()).filter(|&k| est.arena.is_conditioned(k)) {
            let cone = est.arena.cone(k, &mut buf);
            joining += cone.joining.len();
            inner += cone.inner.len();
        }
        assert_eq!(shape.mean_joining, joining as f64 / 72.0);
        assert_eq!(shape.mean_inner, inner as f64 / 72.0);
        assert!(shape.mean_joining >= 1.0 && shape.mean_inner >= shape.mean_joining);
    }

    #[test]
    fn scratch_stays_cone_sized_across_a_sweep() {
        // One scratch serves a whole sweep (and a session's lifetime). Its
        // bytes must follow the largest cone and 2^MAXVERS, never the
        // number of conditioned ANDs it has evaluated: nothing is retained
        // per node.
        let circuit = protest_circuits::mesh_by_spec("multmesh:4x8x10").unwrap();
        let params = AnalyzerParams::default();
        let est = SignalProbEstimator::new(Aig::from_circuit(&circuit), &params);
        let n = est.aig.len();
        let mut buf = Vec::new();
        let largest = (0..n)
            .map(|k| est.arena.cone(k, &mut buf).inner.len())
            .max()
            .unwrap();
        let probs = est.full_estimate(&vec![0.5; est.aig.num_inputs()]);
        let mut scratch = est.new_scratch();
        let sweep = |scratch: &mut Scratch2| {
            for k in (1..n).filter(|&k| est.arena.is_conditioned(k)) {
                let v = est.and_node_value(&probs, AigNodeId::from_index(k), scratch);
                assert_eq!(v.to_bits(), probs[k].to_bits(), "node {k}");
            }
        };
        sweep(&mut scratch);
        let bytes = scratch.heap_bytes();
        let conditioned = est.sweep_shape().conditioned;
        // Tables: at most one per cone node, each ≤ 2^MAXVERS values; slot
        // arrays and nested read maps: a few words per cone node. Vec
        // growth may double each.
        let bound = 2 * 8 * (largest + 1) * ((1 << params.maxvers) + 4 * MAX_NESTED_CONE);
        assert!(conditioned > 5_000, "{conditioned} conditioned ANDs");
        assert!(
            bytes <= bound,
            "{bytes} B of scratch after {conditioned} conditioned ANDs (largest cone {largest}, bound {bound} B)"
        );
        // Sweeping again grows nothing.
        sweep(&mut scratch);
        assert_eq!(scratch.heap_bytes(), bytes);
    }

    /// A seeded `k/16` probability (`k` in 1..=15) of global input `i`:
    /// the per-lane input vectors of the lane-batch tests (the same
    /// formula as `tests/partition_differential.rs`).
    fn seeded_prob(seed: u64, i: usize) -> f64 {
        let mut x = seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 31;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 29;
        ((x % 15) + 1) as f64 / 16.0
    }

    #[test]
    fn lane_batches_equal_one_lane_sweeps_and_split_into_w_groups() {
        // One lane of an uncoupled `multmesh:3x2` mesh, batched eight
        // wide with lane `l` reading global inputs `l·ni..` of the seeded
        // vector; lane 6 pins every other input to exactly 0.0, lane 7 to
        // exactly 1.0 (deterministic candidates, impossible assignments).
        let lane = protest_circuits::mult_mesh(3, 2, 1, false);
        let est = SignalProbEstimator::new(Aig::from_circuit(&lane), &AnalyzerParams::default());
        let (n, ni, lanes) = (est.aig.len(), est.aig.num_inputs(), 8);
        let vectors: Vec<Vec<f64>> = (0..lanes)
            .map(|l| {
                (0..ni)
                    .map(|p| match l {
                        6 | 7 if p % 2 == 0 => f64::from(l == 7),
                        _ => seeded_prob(7, l * ni + p),
                    })
                    .collect()
            })
            .collect();
        let mut inputs = vec![0.0; ni * lanes];
        for (l, v) in vectors.iter().enumerate() {
            for (p, &x) in v.iter().enumerate() {
                inputs[p * lanes + l] = x;
            }
        }
        let (probs, work) = est
            .sweep_lanes(lanes, &inputs, &CancelToken::never())
            .unwrap();
        for (l, v) in vectors.iter().enumerate() {
            let want = est.full_estimate(v);
            for k in 0..n {
                assert_eq!(
                    probs[k * lanes + l].to_bits(),
                    want[k].to_bits(),
                    "lane {l}, node {k}"
                );
            }
        }
        let conditioned = est.sweep_shape().conditioned;
        assert_eq!(work.conditioned, (conditioned * lanes) as u64);
        assert_eq!((work.batches, work.lanes), (1, lanes as u64));
        // Re-evaluate each conditioned AND over the settled lanes and
        // count its groups of lanes sharing one `W`.
        let mut s = est.new_scratch();
        let mut out = vec![0.0; lanes];
        let mut split = 0;
        for k in (1..n).filter(|&k| est.arena.is_conditioned(k)) {
            let id = AigNodeId::from_index(k);
            est.and_values(Many(lanes), &probs[..k * lanes], id, &mut s, &mut out);
            assert_eq!(out, probs[k * lanes..(k + 1) * lanes], "node {k}");
            split += usize::from(s.lead.len() >= 2);
        }
        assert!(
            split * 10 >= conditioned,
            "{split} of {conditioned} conditioned ANDs split their lanes into ≥ 2 W groups"
        );
    }

    #[test]
    fn reads_any_holds_exactly_on_the_documented_reads() {
        for name in ["c17", "alu", "comp24", "div8x8"] {
            let aig = Aig::from_circuit(&protest_circuits::by_name(name).unwrap());
            let est = SignalProbEstimator::new(aig, &AnalyzerParams::default());
            let (aig, arena) = (&est.aig, &est.arena);
            let n = aig.len();
            // A node and, for an AND, its two fanins.
            let with_fanins = |set: &mut Vec<bool>, x: AigNodeId| {
                set[x.index()] = true;
                if let Some((fa, fb)) = aig.and_fanins(x) {
                    set[fa.node().index()] = true;
                    set[fb.node().index()] = true;
                }
            };
            let mut pairs = 0;
            for k in 0..n {
                let id = AigNodeId::from_index(k);
                let Some((fa, fb)) = aig.and_fanins(id) else {
                    continue;
                };
                // The documented read set: the fanins, every cone node with
                // its fanins, and every nested cone node with its fanins.
                let mut set = vec![false; n];
                set[fa.node().index()] = true;
                set[fb.node().index()] = true;
                let mut buf = Vec::new();
                let cone = arena.cone(k, &mut buf);
                for (&x, &nested) in cone.inner.iter().zip(cone.nested_ok) {
                    with_fanins(&mut set, x);
                    if nested {
                        for &y in arena.cone(x.index(), &mut Vec::new()).inner {
                            with_fanins(&mut set, y);
                        }
                    }
                }
                for (x, &want) in set.iter().enumerate() {
                    let got = est.reads_any(k as u32, |y| y as usize == x);
                    assert_eq!(got, want, "{name}: AND {k} reading node {x}");
                    pairs += usize::from(want);
                }
                assert!(!est.reads_any(k as u32, |_| false), "{name}: AND {k}");
            }
            assert!(pairs > 2 * aig.num_ands(), "{name}: a non-trivial read set");
        }
    }

    #[test]
    fn ranks_hold_each_and_once_ascending_above_its_fanins() {
        for (name, aig) in paper_aigs() {
            let est = SignalProbEstimator::new(aig, &AnalyzerParams::default());
            let ranks = est.ranks();
            // Each node's rank as the rows place it: 0 unless listed.
            let mut of = vec![0; est.aig.len()];
            let mut seen = 0;
            for (r, members) in ranks.rows.iter().enumerate() {
                assert!(members.windows(2).all(|w| w[0] < w[1]), "{name}: rank {r}");
                for &k in members {
                    assert_eq!(of[k as usize], 0, "{name}: node {k} listed twice");
                    of[k as usize] = r;
                }
                seen += members.len();
            }
            assert_eq!(seen, est.aig.num_ands(), "{name}");
            assert!(ranks.rows.row(0).is_empty(), "{name}");
            for (k, &r) in of.iter().enumerate() {
                if let Some((fa, fb)) = est.aig.and_fanins(AigNodeId::from_index(k)) {
                    let below = of[fa.node().index()].max(of[fb.node().index()]);
                    assert_eq!(r, below + 1, "{name}: node {k}");
                }
            }
        }
    }

    #[test]
    fn tree_circuits_are_exact() {
        // No reconvergence: product rule is exact.
        let mut b = CircuitBuilder::new("tree");
        let xs = b.input_bus("x", 4);
        let l = b.and2(xs[0], xs[1]);
        let r = b.or2(xs[2], xs[3]);
        let z = b.nand2(l, r);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let ps = [0.5, 0.25, 0.8, 0.1];
        let got = estimate_outputs(&ckt, &ps, &AnalyzerParams::default());
        let want = 1.0 - (0.5 * 0.25) * (1.0 - 0.2 * 0.9);
        assert!((got[0] - want).abs() < 1e-12, "got {} want {want}", got[0]);
    }

    #[test]
    fn reconvergence_through_shared_input_is_exact() {
        // z = a ∧ (a ∨ b): exact P = pa. Pure product rule would give
        // pa(pa + pb − pa·pb) ≠ pa.
        let mut b = CircuitBuilder::new("rc");
        let a = b.input("a");
        let c = b.input("b");
        let o = b.or2(a, c);
        let z = b.and2(a, o);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        for (pa, pb) in [(0.5, 0.5), (0.3, 0.9), (0.7, 0.2)] {
            let got = estimate_outputs(&ckt, &[pa, pb], &AnalyzerParams::default());
            assert!((got[0] - pa).abs() < 1e-9, "pa={pa} pb={pb} got {}", got[0]);
        }
    }

    #[test]
    fn xor_of_same_input_is_zero() {
        // z = a ⊕ a = 0; the AIG folds this, but build it via two gates so
        // reconvergence analysis must do the work.
        let mut b = CircuitBuilder::new("xx");
        let a = b.input("a");
        let buf1 = b.and2(a, a); // = a after strashing? and(a,a) folds to a.
        let n = b.not(a);
        let t1 = b.and2(a, n); // folds to 0
        b.output(t1, "z");
        b.output(buf1, "w");
        let ckt = b.finish().unwrap();
        let got = estimate_outputs(&ckt, &[0.37], &AnalyzerParams::default());
        assert!(got[0].abs() < 1e-12);
        assert!((got[1] - 0.37).abs() < 1e-12);
    }

    #[test]
    fn nested_reconvergence_survives_conditional_repropagation() {
        // Regression: z = NAND(NAND(x3, x1), OR(AND(x0, x3, x6), x6, x6)).
        // The top NAND's only joining point is x3, but the OR side contains
        // its *own* reconvergence on x6 (repeated fanin). Re-propagating
        // that side with the plain product rule while conditioning on x3
        // destroyed the x6 correlation and produced 0.578 instead of the
        // exact 0.625 (observed on `random_circuit` seed 13, node 12).
        let mut b = CircuitBuilder::new("nested_rc");
        let x0 = b.input("x0");
        let x1 = b.input("x1");
        let x3 = b.input("x3");
        let x6 = b.input("x6");
        let g7 = b.and(&[x0, x3, x6]);
        let g8 = b.nand2(x3, x1);
        let g9 = b.or(&[g7, x6, x6]);
        let z = b.nand2(g8, g9);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let got = estimate_outputs(&ckt, &[0.5; 4], &AnalyzerParams::default());
        // Exact: P(¬(x3·x1) ∧ (x7 ∨ x6)) = P(¬(x3·x1) ∧ x6) = 0.75·0.5,
        // so the NAND output is 1 − 0.375 = 0.625.
        assert!(
            (got[0] - 0.625).abs() < 0.05,
            "nested reconvergence mis-estimated: got {} want 0.625",
            got[0]
        );
    }

    #[test]
    fn correlated_joining_points_get_joint_weights() {
        // Regression: z = AND(AND(a, b), a). Both `AND(a, b)` and `a` are
        // joining points of the outer AND, and they are strongly correlated
        // (the inner AND implies a). Weighting assignments by a product of
        // marginals puts mass on the impossible case (inner = 1, a = 0) and
        // overestimates; chain-rule weights must recover P(a·b) exactly.
        let mut b = CircuitBuilder::new("joint_w");
        let a = b.input("a");
        let c = b.input("b");
        let t = b.and2(a, c);
        let z = b.and2(t, a);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        for (pa, pb) in [(0.5, 0.5), (0.75, 0.25), (0.3, 0.9)] {
            let got = estimate_outputs(&ckt, &[pa, pb], &AnalyzerParams::default());
            let want = pa * pb;
            assert!(
                (got[0] - want).abs() < 1e-9,
                "pa={pa} pb={pb}: got {} want {want}",
                got[0]
            );
        }
    }

    #[test]
    fn classic_reconvergent_majority_is_exact_with_enough_maxvers() {
        // maj(a,b,c) = ab ∨ bc ∨ ac: inputs are shared across branches.
        let mut b = CircuitBuilder::new("maj");
        let a = b.input("a");
        let c = b.input("c");
        let d = b.input("d");
        let t1 = b.and2(a, c);
        let t2 = b.and2(c, d);
        let t3 = b.and2(a, d);
        let o1 = b.or2(t1, t2);
        let z = b.or2(o1, t3);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let ps = [0.5, 0.5, 0.5];
        let got = estimate_outputs(&ckt, &ps, &AnalyzerParams::default());
        // Exact: P(maj) = 0.5 for uniform inputs.
        assert!(
            (got[0] - 0.5).abs() < 0.02,
            "majority estimate {} too far from 0.5",
            got[0]
        );
    }

    #[test]
    fn maxvers_zero_degenerates_to_product_rule() {
        let mut b = CircuitBuilder::new("rc");
        let a = b.input("a");
        let c = b.input("b");
        let o = b.or2(a, c);
        let z = b.and2(a, o);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let params = AnalyzerParams {
            maxvers: 0,
            ..AnalyzerParams::default()
        };
        let got = estimate_outputs(&ckt, &[0.5, 0.5], &params);
        // Product rule: P(a)·P(a∨b) = 0.5 · 0.75.
        assert!((got[0] - 0.375).abs() < 1e-12, "got {}", got[0]);
    }

    #[test]
    fn estimates_stay_in_unit_interval() {
        use protest_netlist::GateKind;
        // A dense reconvergent mess.
        let mut b = CircuitBuilder::new("mess");
        let xs = b.input_bus("x", 4);
        let mut layer = xs.clone();
        for round in 0..4 {
            let mut next = Vec::new();
            for i in 0..layer.len() {
                let j = (i + 1) % layer.len();
                let kind = match (round + i) % 3 {
                    0 => GateKind::Nand,
                    1 => GateKind::Nor,
                    _ => GateKind::Xor,
                };
                next.push(b.gate(kind, &[layer[i], layer[j]]));
            }
            layer = next;
        }
        for (i, &n) in layer.iter().enumerate() {
            b.output(n, format!("z{i}"));
        }
        let ckt = b.finish().unwrap();
        for p in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let got = estimate_outputs(&ckt, &[p; 4], &AnalyzerParams::default());
            for (i, &g) in got.iter().enumerate() {
                assert!((0.0..=1.0).contains(&g), "output {i} = {g} at p={p}");
            }
        }
    }

    #[test]
    fn deterministic_inputs_give_deterministic_outputs() {
        let mut b = CircuitBuilder::new("det");
        let a = b.input("a");
        let c = b.input("b");
        let z = b.xor2(a, c);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        for (pa, pb, want) in [(1.0, 1.0, 0.0), (1.0, 0.0, 1.0), (0.0, 0.0, 0.0)] {
            let got = estimate_outputs(&ckt, &[pa, pb], &AnalyzerParams::default());
            assert!((got[0] - want).abs() < 1e-12);
        }
    }
}
