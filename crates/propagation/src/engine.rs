//! The incremental spread engine: a delta-maintained [`SpreadState`].
//!
//! [`SpreadState::evaluate`](crate::spread::SpreadState::evaluate) rebuilds
//! everything — BFS levels, eligible-child collection, the O(deg·k) rank DP
//! per holder, forward/backward passes — from scratch for every candidate
//! move, which dominates S3CA's greedy inner loop (the ROADMAP's "Faster
//! rank DP" bottleneck). [`SpreadEngine`] instead *owns* the per-holder
//! distributions `(holder, eligible children, rank-DP cache, q)` as a
//! maintained index:
//!
//! * **Broaden** (one more coupon to a current holder) extends that
//!   holder's [`RankDp`] in O(deg) — the saturating coupon-consumption
//!   distribution is rolled forward one row instead of recomputed. It
//!   changes only that holder's q, so the refresh is **local**: only the
//!   nodes that read the changed q (directly or through a changed
//!   probability or gain) are re-folded from a per-member in-entry list,
//!   with the passes' own floating-point sequence. A broaden costs those
//!   re-folds plus the O(|spread|) benefit sum. A **partial retrieval**
//!   (the donor keeps ≥ 1 coupon) rebuilds the donor's DP and refreshes
//!   the same way.
//! * **Deepen / new seed / last-coupon retrieval** re-derive the spread
//!   structure (BFS over the spread plus the in-entry lists), but every
//!   untouched holder's DP is reused; only holders whose eligibility
//!   actually changed (in-neighbors of a new seed, the retrieval donor)
//!   rebuild theirs. These structural moves re-run the full passes over
//!   the spread: O(|spread| + Σ holder out-degree).
//! * Every refresh is **spread-local**: outside the current and former
//!   spread, activation probabilities stay 0 and gains stay each node's
//!   own benefit, so nothing there is reset, recomputed or diffed; no move
//!   depends on |V|, and only [`rebuild`](SpreadEngine::rebuild) touches
//!   every node.
//! * The local refresh reproduces only the first fixpoint round. When the
//!   spread needs a second round before or after a move (cycles whose
//!   echo moves a probability by ≥ 1e-12), that move takes the full
//!   refresh instead; [`EngineCounters::local_refreshes`] counts the moves
//!   that stayed local.
//! * Marginal probes ([`coupon_add_delta`](SpreadEngine::coupon_add_delta))
//!   answer "what if `u` got one more coupon" in O(deg) from the cached
//!   availability sums, replacing two O(deg·k) DP sweeps per candidate.
//!
//! ## The bit-identity contract
//!
//! The engine is an optimization, not a semantic change: after **any**
//! sequence of moves, every field (activation probabilities, subtree
//! gains, expected benefit, SC cost) is **bit-identical** to a from-scratch
//! [`SpreadState::evaluate`] of the same deployment — the incremental DP
//! extension reproduces the exact floating-point sequence of the full DP
//! (see [`RankDp`]), the propagation passes are the very same
//! `pub(crate)` functions `SpreadState` runs, and the local refresh
//! re-folds single nodes with exactly those passes' operations in their
//! order. [`rebuild`](SpreadEngine::rebuild)
//! is the escape hatch that recomputes everything from scratch; proptests
//! in `crates/propagation/tests/proptests.rs` pin that it never changes a
//! bit. This is what lets the greedy phases switch to the engine while
//! every pinned paper CSV stays byte-identical.

use crate::cost::seed_cost;
use crate::rank::{redemption_probs_into, RankDp};
use crate::spread::{
    accumulate_gains, benefit_sum, collect_eligible, propagate_activation, spread_levels_into,
    DistRef, PassRecord, SpreadState,
};
use osn_graph::{CsrGraph, NodeData, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Evaluation-effort counters (surfaced through S3CA's `Telemetry` and the
/// Fig. 9 experiment CSV).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Complete from-scratch builds (initial construction and
    /// [`SpreadEngine::rebuild`] calls).
    pub full_rebuilds: u64,
    /// O(deg) holder-DP extensions (the broaden fast path).
    pub incremental_updates: u64,
    /// Spread-structure re-derivations (BFS + passes) that reused every
    /// cached holder DP.
    pub structural_refreshes: u64,
    /// Per-holder from-scratch DP rebuilds (new holders, eligibility
    /// changes from seed additions, coupon retrievals).
    pub holder_rebuilds: u64,
    /// Non-structural refreshes (broadens, partial retrievals) that
    /// re-folded only the nodes the move could change instead of
    /// re-running the spread's passes.
    pub local_refreshes: u64,
}

impl EngineCounters {
    /// Counter-wise difference (`self - earlier`), for phase attribution.
    pub fn since(&self, earlier: &EngineCounters) -> EngineCounters {
        EngineCounters {
            full_rebuilds: self.full_rebuilds - earlier.full_rebuilds,
            incremental_updates: self.incremental_updates - earlier.incremental_updates,
            structural_refreshes: self.structural_refreshes - earlier.structural_refreshes,
            holder_rebuilds: self.holder_rebuilds - earlier.holder_rebuilds,
            local_refreshes: self.local_refreshes - earlier.local_refreshes,
        }
    }

    /// Counter-wise sum, for cross-phase totals.
    pub fn merged(&self, other: &EngineCounters) -> EngineCounters {
        EngineCounters {
            full_rebuilds: self.full_rebuilds + other.full_rebuilds,
            incremental_updates: self.incremental_updates + other.incremental_updates,
            structural_refreshes: self.structural_refreshes + other.structural_refreshes,
            holder_rebuilds: self.holder_rebuilds + other.holder_rebuilds,
            local_refreshes: self.local_refreshes + other.local_refreshes,
        }
    }
}

/// What a committed move changed, reported with exact-bit granularity so
/// callers (the ID phase's lazy-greedy heap) re-score only stale
/// candidates.
#[derive(Clone, Debug, Default)]
pub struct RefreshDelta {
    /// The spread structure (BFS order / membership) was re-derived;
    /// positional caches over the order must be rebuilt.
    pub structural: bool,
    /// Nodes whose activation probability changed (bitwise).
    pub probs_changed: Vec<NodeId>,
    /// Nodes whose subtree gain changed (bitwise).
    pub gains_changed: Vec<NodeId>,
    /// Nodes whose *eligible child set* changed (in-neighbors of a newly
    /// activated seed): their marginals are stale even if their own
    /// probability and every gain they read are untouched.
    pub eligibility_changed: Vec<NodeId>,
}

/// One coupon holder's maintained distribution.
#[derive(Clone, Debug)]
struct Holder {
    node: NodeId,
    /// Eligible ranked children (non-seed out-neighbors, rank order).
    targets: Vec<NodeId>,
    /// Influence probabilities parallel to `targets`.
    probs: Vec<f64>,
    /// Cached rank DP (q, availability sums, E_k row) at the current k.
    dp: RankDp,
    /// `Σ_j q_j · c_sc(target_j)` — this holder's Table-I cost term.
    local_cost: f64,
}

const NO_SLOT: u32 = u32::MAX;

/// Generation-stamped set over a fixed index range: clearing is a
/// generation bump, except when the counter wraps, which wipes the stamps
/// so an entry stamped 2^32 − 1 generations ago cannot read as marked.
#[derive(Clone, Debug, Default)]
struct Marks {
    stamp: Vec<u32>,
    generation: u32,
}

impl Marks {
    /// Grow to cover indices `0..len` (new entries unmarked).
    fn cover(&mut self, len: usize) {
        if self.stamp.len() < len {
            self.stamp.resize(len, 0);
        }
    }

    fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
    }

    /// Mark `i`; returns whether it was unmarked.
    fn insert(&mut self, i: usize) -> bool {
        let fresh = self.stamp[i] != self.generation;
        self.stamp[i] = self.generation;
        fresh
    }
}

/// Stateful analytic evaluator of one evolving deployment. See the module
/// docs for the maintenance strategy and the bit-identity contract.
#[derive(Clone, Debug)]
pub struct SpreadEngine<'a> {
    graph: &'a CsrGraph,
    data: &'a NodeData,
    seeds: Vec<NodeId>,
    coupons: Vec<u32>,
    seed_mask: Vec<bool>,
    seed_cost: f64,
    levels: Vec<Option<u32>>,
    order: Vec<NodeId>,
    active_prob: Vec<f64>,
    subtree_gain: Vec<f64>,
    expected_benefit: f64,
    /// Node → holder slot (`NO_SLOT` when the node holds no coupons).
    slot: Vec<u32>,
    holders: Vec<Holder>,
    /// Every holder's node, ascending — the summation order of
    /// [`sc_cost`](Self::sc_cost).
    holder_nodes: Vec<NodeId>,
    /// Holder slots that participate in propagation: spread members with at
    /// least one eligible child, in spread order (mirrors
    /// `SpreadState::evaluate`'s `distributions`).
    spread_dists: Vec<u32>,
    /// Members that left the spread at the last structure re-derivation
    /// and have not been diffed yet. Outside the spread and these, every
    /// activation probability is 0 and every gain is the node's own
    /// benefit, so a refresh diffs only `order` and `left`.
    left: Vec<NodeId>,
    /// Node → index into `spread_dists` (`NO_SLOT` unless the node is a
    /// propagating holder).
    dist_of: Vec<u32>,
    /// Per-member in-entry CSR over the propagating distributions:
    /// `in_entries[in_span[v].0..in_span[v].1]` holds `(dist index, rank
    /// position)` of every entry targeting `v`, ascending by dist index —
    /// the order the propagation passes fold them in. Node-indexed; only
    /// current members' spans are meaningful.
    in_span: Vec<(u32, u32)>,
    in_entries: Vec<(u32, u32)>,
    /// `R(d)` per propagating distribution and `A(v)` per member, as
    /// recorded by the last propagation (see `PassRecord`) and kept current
    /// by local refreshes.
    read_prob: Vec<f64>,
    ordered_prob: Vec<f64>,
    /// Whether every non-seed member's probability is its first Jacobi
    /// round's product (the fixpoint stopped after one round) — the state
    /// local refreshes maintain.
    first_round_fixpoint: bool,
    /// Local-refresh scratch: dedup marks over dist indices and nodes, the
    /// dist-index heaps, and the nodes whose ordered-pass value (`fold`)
    /// or first-round product (`product`) must be re-folded.
    dist_marks: Marks,
    node_marks: Marks,
    read_heap: BinaryHeap<Reverse<u32>>,
    gain_heap: BinaryHeap<u32>,
    fold_nodes: Vec<NodeId>,
    product_nodes: Vec<NodeId>,
    /// Fixpoint scratch.
    complement: Vec<f64>,
    /// Previous pass results, for exact-bit change detection.
    prev_active: Vec<f64>,
    prev_gain: Vec<f64>,
    counters: EngineCounters,
}

impl<'a> SpreadEngine<'a> {
    /// Build the engine for an initial deployment (counted as one full
    /// rebuild).
    pub fn new(
        graph: &'a CsrGraph,
        data: &'a NodeData,
        seeds: &[NodeId],
        coupons: &[u32],
    ) -> SpreadEngine<'a> {
        debug_assert_eq!(coupons.len(), graph.node_count());
        let n = graph.node_count();
        // Outside the spread every node's gain is its own benefit; the
        // refreshes only ever rewrite spread entries.
        let benefits: Vec<f64> = (0..n)
            .map(|i| data.benefit(NodeId::from_index(i)))
            .collect();
        let mut engine = SpreadEngine {
            graph,
            data,
            seeds: seeds.to_vec(),
            coupons: coupons.to_vec(),
            seed_mask: vec![false; n],
            seed_cost: 0.0,
            levels: vec![None; n],
            order: Vec::new(),
            active_prob: vec![0.0; n],
            subtree_gain: benefits.clone(),
            expected_benefit: 0.0,
            slot: vec![NO_SLOT; n],
            holders: Vec::new(),
            holder_nodes: Vec::new(),
            spread_dists: Vec::new(),
            left: Vec::new(),
            dist_of: vec![NO_SLOT; n],
            in_span: vec![(0, 0); n],
            in_entries: Vec::new(),
            read_prob: Vec::new(),
            ordered_prob: vec![0.0; n],
            first_round_fixpoint: false,
            dist_marks: Marks::default(),
            node_marks: Marks {
                stamp: vec![0; n],
                generation: 0,
            },
            read_heap: BinaryHeap::new(),
            gain_heap: BinaryHeap::new(),
            fold_nodes: Vec::new(),
            product_nodes: Vec::new(),
            complement: vec![1.0; n],
            prev_active: vec![0.0; n],
            prev_gain: benefits,
            counters: EngineCounters::default(),
        };
        engine.rebuild();
        engine
    }

    /// The escape hatch: recompute **everything** from scratch — holder
    /// DPs, spread structure, propagation passes. Bit-identical to the
    /// incrementally maintained state by contract (pinned by proptest);
    /// exists so long-lived engines can bound drift concerns and as the
    /// reference the tests compare against.
    pub fn rebuild(&mut self) -> RefreshDelta {
        for s in self.slot.iter_mut() {
            *s = NO_SLOT;
        }
        self.holders.clear();
        self.holder_nodes.clear();
        for i in 0..self.graph.node_count() {
            self.seed_mask[i] = false;
        }
        for &s in &self.seeds {
            self.seed_mask[s.index()] = true;
        }
        self.seed_cost = seed_cost(self.data, &self.seeds);
        for i in 0..self.coupons.len() {
            if self.coupons[i] > 0 {
                let node = NodeId::from_index(i);
                let holder = self.build_holder(node, self.coupons[i]);
                self.slot[i] = self.holders.len() as u32;
                self.holders.push(holder);
                self.holder_nodes.push(node);
            }
        }
        self.counters.full_rebuilds += 1;
        self.derive_structure();
        self.refresh(true)
    }

    // ------------------------------------------------------------------
    // Read accessors (the `SpreadState` surface the greedy phases use).
    // ------------------------------------------------------------------

    /// Spread members in BFS order (identical to `SpreadState::order`).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Per-node activation probability.
    pub fn active_prob(&self) -> &[f64] {
        &self.active_prob
    }

    /// Per-node downstream gain (identical to `SpreadState::subtree_gain`).
    pub fn subtree_gain(&self) -> &[f64] {
        &self.subtree_gain
    }

    /// `B(S, K)` of the current deployment.
    pub fn expected_benefit(&self) -> f64 {
        self.expected_benefit
    }

    /// The current coupon allocation.
    pub fn coupons(&self) -> &[u32] {
        &self.coupons
    }

    /// The current seed set, in insertion order.
    pub fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    /// Whether `v` is a seed.
    pub fn is_seed(&self, v: NodeId) -> bool {
        self.seed_mask[v.index()]
    }

    /// `Cseed(S)` — maintained incrementally, bit-identical to
    /// [`seed_cost`].
    pub fn seed_cost(&self) -> f64 {
        self.seed_cost
    }

    /// `Csc(K(I))` — the ascending-node-order sum of cached per-holder
    /// cost terms, bit-identical to
    /// [`expected_sc_cost`](crate::cost::expected_sc_cost).
    pub fn sc_cost(&self) -> f64 {
        let mut total = 0.0;
        for &v in &self.holder_nodes {
            total += self.holders[self.slot[v.index()] as usize].local_cost;
        }
        total
    }

    /// Evaluation-effort counters accumulated so far.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// Materialize the maintained state as a [`SpreadState`] (used by the
    /// equivalence tests; everything is a field copy).
    pub fn to_state(&self) -> SpreadState {
        SpreadState {
            levels: self.levels.clone(),
            active_prob: self.active_prob.clone(),
            subtree_gain: self.subtree_gain.clone(),
            order: self.order.clone(),
            expected_benefit: self.expected_benefit,
            seed_mask: self.seed_mask.clone(),
            coupons: self.coupons.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Moves.
    // ------------------------------------------------------------------

    /// Give `u` up to `count` extra coupons (capped at its out-degree,
    /// mirroring `Deployment::add_coupons`). Returns the number actually
    /// added and what changed. A holder that already relays takes the
    /// O(deg)-per-coupon DP-extension fast path; a first coupon builds the
    /// holder and re-derives the spread structure.
    pub fn add_coupons(&mut self, u: NodeId, count: u32) -> (u32, RefreshDelta) {
        let cap = self.graph.out_degree(u) as u32;
        let cur = self.coupons[u.index()];
        let add = count.min(cap.saturating_sub(cur));
        if add == 0 {
            return (0, RefreshDelta::default());
        }
        self.coupons[u.index()] = cur + add;
        if cur > 0 {
            let s = self.slot[u.index()] as usize;
            // Split borrow: the holder owns its probs, the DP extends over
            // them.
            let holder = &mut self.holders[s];
            for _ in 0..add {
                holder.dp.extend_one(&holder.probs);
            }
            holder.local_cost = local_cost(self.data, &holder.targets, holder.dp.q());
            self.counters.incremental_updates += u64::from(add);
            // An internal node already relayed to its children: the spread
            // structure cannot change, only probabilities and gains do.
            (add, self.refresh_q_change(u))
        } else {
            self.insert_holder(u, add);
            self.derive_structure();
            (add, self.refresh(true))
        }
    }

    /// Activate `v` as a seed bundled with `coupons` coupons (the ID
    /// phase's pivot package / Alg. 1 "new source" move). Idempotent on the
    /// seed itself. Holders that previously counted `v` as an eligible
    /// child rebuild their DPs (a seed never receives coupons).
    pub fn add_seed_package(&mut self, v: NodeId, coupons: u32) -> RefreshDelta {
        let mut eligibility_changed = Vec::new();
        if !self.seed_mask[v.index()] {
            self.seeds.push(v);
            self.seed_mask[v.index()] = true;
            self.seed_cost += self.data.seed_cost(v);
            // Eligibility of edges *into* v changed: rebuild the holders'
            // DPs, and report every in-neighbor (holder or not — a fresh
            // candidate's k = 0 → 1 probe reads the same child set) so
            // marginal caches invalidate theirs.
            for &src in self.graph.in_sources(v) {
                eligibility_changed.push(src);
                let s = self.slot[src.index()];
                if s != NO_SLOT {
                    let k = self.coupons[src.index()];
                    self.holders[s as usize] = self.build_holder(src, k);
                }
            }
        }
        if coupons > 0 {
            let cap = self.graph.out_degree(v) as u32;
            let cur = self.coupons[v.index()];
            let add = coupons.min(cap.saturating_sub(cur));
            if add > 0 {
                self.coupons[v.index()] = cur + add;
                if cur > 0 {
                    let s = self.slot[v.index()] as usize;
                    let k = self.coupons[v.index()];
                    self.holders[s] = self.build_holder(v, k);
                } else {
                    self.insert_holder(v, add);
                }
            }
        }
        self.derive_structure();
        let mut delta = self.refresh(true);
        delta.eligibility_changed = eligibility_changed;
        delta
    }

    /// Retrieve up to `count` coupons from `u` (the SC-Maneuver donor
    /// move). Returns the number removed and what changed. The donor's DP
    /// rebuilds from scratch (shrinking a saturating distribution is not
    /// reversible); every other holder's cache is reused.
    pub fn remove_coupons(&mut self, u: NodeId, count: u32) -> (u32, RefreshDelta) {
        let cur = self.coupons[u.index()];
        let take = count.min(cur);
        if take == 0 {
            return (0, RefreshDelta::default());
        }
        let new_k = cur - take;
        self.coupons[u.index()] = new_k;
        let s = self.slot[u.index()] as usize;
        if new_k == 0 {
            // Swap-remove the holder and fix the displaced slot.
            self.holders.swap_remove(s);
            self.slot[u.index()] = NO_SLOT;
            if s < self.holders.len() {
                let moved = self.holders[s].node;
                self.slot[moved.index()] = s as u32;
            }
            let at = self
                .holder_nodes
                .binary_search(&u)
                .expect("every holder is listed");
            self.holder_nodes.remove(at);
            // The node no longer relays: descendants may leave the spread.
            self.derive_structure();
            (take, self.refresh(true))
        } else {
            self.holders[s] = self.build_holder(u, new_k);
            // Still a relay: membership is unchanged, only q shrank.
            (take, self.refresh_q_change(u))
        }
    }

    // ------------------------------------------------------------------
    // Marginal probes (read-only).
    // ------------------------------------------------------------------

    /// First-order `(ΔB, ΔCsc)` of giving `u` one more coupon —
    /// bit-identical to `SpreadState::coupon_delta(graph, data, u, 1)` but
    /// O(deg): holders answer from their cached availability sums, fresh
    /// candidates run the k = 0 → 1 closed form.
    pub fn coupon_add_delta(&self, u: NodeId, scratch: &mut DeltaScratch) -> (f64, f64) {
        let pu = self.active_prob[u.index()];
        let s = self.slot[u.index()];
        if s != NO_SLOT {
            let holder = &self.holders[s as usize];
            if holder.targets.is_empty() {
                return (0.0, 0.0);
            }
            scratch.q_new.resize(holder.targets.len(), 0.0);
            holder.dp.extended_q_into(&holder.probs, &mut scratch.q_new);
            self.delta_from_q(pu, &holder.targets, holder.dp.q(), &scratch.q_new)
        } else {
            collect_eligible(
                self.graph,
                &self.seed_mask,
                &self.levels,
                u,
                &mut scratch.targets,
                &mut scratch.probs,
            );
            if scratch.targets.is_empty() {
                return (0.0, 0.0);
            }
            // k = 0 → 1: q_old is identically +0.0 and the new
            // availability is E_0 (no prior redemption), i.e. the running
            // product of failure probabilities — `redemption_probs`' exact
            // arithmetic for k = 1.
            let mut db = 0.0;
            let mut dc = 0.0;
            let mut e0 = 1.0f64;
            for (&v, &p) in scratch.targets.iter().zip(scratch.probs.iter()) {
                let dq = p * e0 - 0.0;
                db += pu * dq * self.subtree_gain[v.index()];
                dc += dq * self.data.sc_cost(v);
                e0 *= 1.0 - p;
            }
            (db, dc)
        }
    }

    /// First-order `(ΔB, ΔCsc)` of retrieving one coupon from `u` —
    /// bit-identical to `SpreadState::coupon_removal_delta`. The k − 1
    /// probabilities are recomputed from scratch (O(deg·k)); removal is
    /// rare enough (SCM donors only) that no downward cache exists.
    pub fn coupon_removal_delta(&self, u: NodeId, scratch: &mut DeltaScratch) -> (f64, f64) {
        let k = self.coupons[u.index()];
        if k == 0 {
            return (0.0, 0.0);
        }
        let s = self.slot[u.index()] as usize;
        let holder = &self.holders[s];
        if holder.targets.is_empty() {
            return (0.0, 0.0);
        }
        scratch.q_new.resize(holder.targets.len(), 0.0);
        redemption_probs_into(&holder.probs, k - 1, &mut scratch.q_new);
        let pu = self.active_prob[u.index()];
        self.delta_from_q(pu, &holder.targets, holder.dp.q(), &scratch.q_new)
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// `(ΔB, ΔCsc)` accumulated exactly like `SpreadState::coupon_count_delta`.
    fn delta_from_q(
        &self,
        pu: f64,
        targets: &[NodeId],
        q_old: &[f64],
        q_new: &[f64],
    ) -> (f64, f64) {
        let mut db = 0.0;
        let mut dc = 0.0;
        for ((&v, &qo), &qn) in targets.iter().zip(q_old.iter()).zip(q_new.iter()) {
            let dq = qn - qo;
            db += pu * dq * self.subtree_gain[v.index()];
            dc += dq * self.data.sc_cost(v);
        }
        (db, dc)
    }

    /// Build one holder's distribution from scratch: eligible children at
    /// the current seed mask, rank DP at `k`, cached cost term.
    fn build_holder(&mut self, node: NodeId, k: u32) -> Holder {
        let mut targets = Vec::new();
        let mut probs = Vec::new();
        collect_eligible(
            self.graph,
            &self.seed_mask,
            &self.levels,
            node,
            &mut targets,
            &mut probs,
        );
        let dp = RankDp::build(&probs, k);
        let local_cost = local_cost(self.data, &targets, dp.q());
        self.counters.holder_rebuilds += 1;
        Holder {
            node,
            targets,
            probs,
            dp,
            local_cost,
        }
    }

    /// Register a new holder of `k` coupons at `node`.
    fn insert_holder(&mut self, node: NodeId, k: u32) {
        let holder = self.build_holder(node, k);
        self.slot[node.index()] = self.holders.len() as u32;
        self.holders.push(holder);
        let at = self
            .holder_nodes
            .binary_search(&node)
            .expect_err("a new holder is not listed yet");
        self.holder_nodes.insert(at, node);
    }

    /// Re-derive the spread structure (BFS levels/order, the ordered
    /// distribution list and its in-entry CSR) from the current seeds and
    /// coupons. Only the old and new members are visited: the old ones
    /// first drop back to the outside-the-spread state (no level,
    /// probability 0, own benefit as gain), which also resets every former
    /// propagating holder. O(|spread| + Σ holder out-degree).
    fn derive_structure(&mut self) {
        let former = std::mem::take(&mut self.order);
        for &v in &former {
            self.levels[v.index()] = None;
            self.active_prob[v.index()] = 0.0;
            self.subtree_gain[v.index()] = self.data.benefit(v);
            self.dist_of[v.index()] = NO_SLOT;
        }
        spread_levels_into(
            self.graph,
            &self.seeds,
            &self.coupons,
            &mut self.levels,
            &mut self.order,
        );
        let levels = &self.levels;
        self.left
            .extend(former.into_iter().filter(|v| levels[v.index()].is_none()));
        self.spread_dists.clear();
        for &u in &self.order {
            if self.coupons[u.index()] == 0 {
                continue;
            }
            let s = self.slot[u.index()];
            debug_assert_ne!(s, NO_SLOT);
            if !self.holders[s as usize].targets.is_empty() {
                self.dist_of[u.index()] = self.spread_dists.len() as u32;
                self.spread_dists.push(s);
            }
        }
        self.dist_marks.cover(self.spread_dists.len());
        // In-entry CSR: count per target, prefix-sum into spans, then fill
        // in ascending (dist index, rank position) order.
        for &v in &self.order {
            self.in_span[v.index()] = (0, 0);
        }
        for &s in &self.spread_dists {
            for &t in &self.holders[s as usize].targets {
                self.in_span[t.index()].1 += 1;
            }
        }
        let mut total = 0u32;
        for &v in &self.order {
            let count = self.in_span[v.index()].1;
            self.in_span[v.index()] = (total, total);
            total += count;
        }
        self.in_entries.clear();
        self.in_entries.resize(total as usize, (0, 0));
        for (d, &s) in self.spread_dists.iter().enumerate() {
            for (j, &t) in self.holders[s as usize].targets.iter().enumerate() {
                let end = &mut self.in_span[t.index()].1;
                self.in_entries[*end as usize] = (d as u32, j as u32);
                *end += 1;
            }
        }
        self.counters.structural_refreshes += 1;
    }

    /// Re-run the propagation passes (the same `pub(crate)` functions
    /// `SpreadState::evaluate` uses) over the cached distributions and
    /// report, with exact-bit granularity, which nodes changed.
    ///
    /// Everything here is O(|spread| + Σ holder out-degree): only the
    /// current spread is recomputed, and only it and `left` are diffed.
    /// `structural` says whether [`derive_structure`](Self::derive_structure)
    /// ran since the last refresh.
    fn refresh(&mut self, structural: bool) -> RefreshDelta {
        let dists: Vec<DistRef<'_>> = self
            .spread_dists
            .iter()
            .map(|&s| {
                let h = &self.holders[s as usize];
                DistRef {
                    node: h.node,
                    targets: &h.targets,
                    q: h.dp.q(),
                }
            })
            .collect();
        self.first_round_fixpoint = propagate_activation(
            &dists,
            &self.order,
            &self.seeds,
            &self.seed_mask,
            &mut self.active_prob,
            &mut self.complement,
            Some(PassRecord {
                read: &mut self.read_prob,
                ordered: &mut self.ordered_prob,
            }),
        );
        // Gains differ from the own benefit only at propagating holders
        // (former ones were reset by `derive_structure`): reset the current
        // ones before the backward pass reads them.
        for d in &dists {
            self.subtree_gain[d.node.index()] = self.data.benefit(d.node);
        }
        accumulate_gains(&dists, self.data, &mut self.subtree_gain);
        self.expected_benefit = benefit_sum(&self.order, &self.active_prob, self.data);

        let mut delta = RefreshDelta {
            structural,
            ..RefreshDelta::default()
        };
        for &v in self.order.iter().chain(&self.left) {
            let i = v.index();
            if self.active_prob[i].to_bits() != self.prev_active[i].to_bits() {
                delta.probs_changed.push(v);
                self.prev_active[i] = self.active_prob[i];
            }
            if self.subtree_gain[i].to_bits() != self.prev_gain[i].to_bits() {
                delta.gains_changed.push(v);
                self.prev_gain[i] = self.subtree_gain[i];
            }
        }
        self.left.clear();
        // A move changes few nodes: sorting the reports is far cheaper than
        // visiting the members in node order.
        delta.probs_changed.sort_unstable();
        delta.gains_changed.sort_unstable();
        delta
    }

    /// Refresh after a move that changed only holder `h`'s q (a broaden or
    /// a partial retrieval): the local re-fold when it applies, else the
    /// full [`refresh`](Self::refresh).
    fn refresh_q_change(&mut self, h: NodeId) -> RefreshDelta {
        match self.refresh_local(h) {
            Some(delta) => {
                self.counters.local_refreshes += 1;
                delta
            }
            None => self.refresh(false),
        }
    }

    /// Re-fold only the nodes a change of `h`'s q can reach, with the exact
    /// floating-point sequence of the full passes. With the propagating
    /// holders indexed `d` in spread order:
    ///
    /// * the ordered pass leaves each member at the fold
    ///   `x ← 1 − (1 − x)(1 − R(d)·q_d[j])` over its in-entries in
    ///   ascending `d`, where `R(d)` — what holder `d` had when the pass
    ///   read it — is the same fold cut before entry `d`;
    /// * the first Jacobi round is the product `Π (1 − A(d)·q_d[j])` over
    ///   the same entries, `A` being the ordered-pass results;
    /// * holder `d`'s gain is `b + Σ q_j·G(t_j)`, where `G(t)` is `t`'s
    ///   gain if `t` is a later propagating holder and `b(t)` otherwise.
    ///
    /// So `R` is re-folded in ascending `d` from `h`'s later holder
    /// targets (a min-heap; a holder's targets are pushed only when its
    /// `R` bits change), `A` at every target of `h` or of a holder whose
    /// `R` changed, the products at every target of `h` or of a holder
    /// whose `A` changed, and gains in descending `d` from `h` through
    /// earlier in-holders (a max-heap). The cost is those re-folds plus
    /// the O(|spread|) benefit sum.
    ///
    /// Returns `None` when the fixpoint needed more than one round before
    /// the move or would after it: rounds 2–3 read every member, so only
    /// the full pass reproduces them.
    fn refresh_local(&mut self, h: NodeId) -> Option<RefreshDelta> {
        debug_assert!(self.left.is_empty(), "a structural refresh is pending");
        let dh = self.dist_of[h.index()];
        if dh == NO_SLOT {
            // `h` has no eligible child in the spread: its q feeds no pass.
            return Some(RefreshDelta::default());
        }
        if !self.first_round_fixpoint {
            return None;
        }

        // R, ascending: holder e's R reads only entries of holders d < e.
        self.dist_marks.clear();
        self.node_marks.clear();
        self.fold_nodes.clear();
        self.reach_targets(dh);
        while let Some(Reverse(e)) = self.read_heap.pop() {
            let r = self.ordered_fold(self.dist_node(e), e);
            if r.to_bits() != self.read_prob[e as usize].to_bits() {
                self.read_prob[e as usize] = r;
                self.reach_targets(e);
            }
        }

        // A, and the first-round products that read it.
        self.node_marks.clear();
        self.product_nodes.clear();
        self.mark_products(dh);
        for i in 0..self.fold_nodes.len() {
            let v = self.fold_nodes[i];
            let a = self.ordered_fold(v, NO_SLOT);
            if a.to_bits() != self.ordered_prob[v.index()].to_bits() {
                self.ordered_prob[v.index()] = a;
                let d = self.dist_of[v.index()];
                if d != NO_SLOT {
                    self.mark_products(d);
                }
            }
        }
        for i in 0..self.product_nodes.len() {
            let v = self.product_nodes[i];
            self.active_prob[v.index()] = self.product_fold(v);
        }
        // The fixpoint stops after round 1 iff every non-seed member moved
        // by less than 1e-12 (the pass's own test); untouched members did
        // before the move and still do.
        let (active, ordered) = (&self.active_prob, &self.ordered_prob);
        let moved = |v: &NodeId| (active[v.index()] - ordered[v.index()]).abs() >= 1e-12;
        if self.fold_nodes.iter().chain(&self.product_nodes).any(moved) {
            return None;
        }

        let mut delta = RefreshDelta::default();
        for &v in &self.product_nodes {
            let i = v.index();
            if self.active_prob[i].to_bits() != self.prev_active[i].to_bits() {
                delta.probs_changed.push(v);
                self.prev_active[i] = self.active_prob[i];
            }
        }

        // Gains, descending: holder d's gain reads only holders e > d.
        self.dist_marks.clear();
        self.dist_marks.insert(dh as usize);
        self.gain_heap.push(dh);
        while let Some(e) = self.gain_heap.pop() {
            let holder = &self.holders[self.spread_dists[e as usize] as usize];
            let mut gain = self.data.benefit(holder.node);
            for (&t, &qj) in holder.targets.iter().zip(holder.dp.q().iter()) {
                let f = self.dist_of[t.index()];
                let g = if f != NO_SLOT && f > e {
                    self.subtree_gain[t.index()]
                } else {
                    self.data.benefit(t)
                };
                gain += qj * g;
            }
            let i = holder.node.index();
            if gain.to_bits() == self.subtree_gain[i].to_bits() {
                continue;
            }
            self.subtree_gain[i] = gain;
            self.prev_gain[i] = gain;
            delta.gains_changed.push(holder.node);
            let (lo, hi) = self.in_span[i];
            for &(d, _) in &self.in_entries[lo as usize..hi as usize] {
                if d >= e {
                    break;
                }
                if self.dist_marks.insert(d as usize) {
                    self.gain_heap.push(d);
                }
            }
        }

        self.expected_benefit = benefit_sum(&self.order, &self.active_prob, self.data);
        delta.probs_changed.sort_unstable();
        delta.gains_changed.sort_unstable();
        Some(delta)
    }

    /// The node of propagating distribution `d`.
    fn dist_node(&self, d: u32) -> NodeId {
        self.holders[self.spread_dists[d as usize] as usize].node
    }

    /// Distribution `d`'s targets need their ordered-pass value re-folded,
    /// and its later holder targets their `R`.
    fn reach_targets(&mut self, d: u32) {
        let holder = &self.holders[self.spread_dists[d as usize] as usize];
        for &t in &holder.targets {
            if self.node_marks.insert(t.index()) {
                self.fold_nodes.push(t);
            }
            let e = self.dist_of[t.index()];
            if e != NO_SLOT && e > d && self.dist_marks.insert(e as usize) {
                self.read_heap.push(Reverse(e));
            }
        }
    }

    /// Distribution `d`'s targets need their first-round product re-folded.
    fn mark_products(&mut self, d: u32) {
        let holder = &self.holders[self.spread_dists[d as usize] as usize];
        for &t in &holder.targets {
            if self.node_marks.insert(t.index()) {
                self.product_nodes.push(t);
            }
        }
    }

    /// The ordered pass's fold at `v` over its in-entries from holders
    /// before dist index `upto` (`NO_SLOT`: all of them) — `R` or `A`.
    fn ordered_fold(&self, v: NodeId, upto: u32) -> f64 {
        let (lo, hi) = self.in_span[v.index()];
        let mut x = 0.0f64;
        for &(d, j) in &self.in_entries[lo as usize..hi as usize] {
            if d >= upto {
                break;
            }
            let pu = self.read_prob[d as usize];
            if pu <= 0.0 {
                continue;
            }
            let qj = self.holders[self.spread_dists[d as usize] as usize].dp.q()[j as usize];
            let c = pu * qj;
            x = 1.0 - (1.0 - x) * (1.0 - c);
        }
        x
    }

    /// The first Jacobi round's probability at `v`.
    fn product_fold(&self, v: NodeId) -> f64 {
        let (lo, hi) = self.in_span[v.index()];
        let mut complement = 1.0f64;
        for &(d, j) in &self.in_entries[lo as usize..hi as usize] {
            let holder = &self.holders[self.spread_dists[d as usize] as usize];
            let pu = self.ordered_prob[holder.node.index()];
            if pu <= 0.0 {
                continue;
            }
            complement *= 1.0 - pu * holder.dp.q()[j as usize];
        }
        1.0 - complement
    }
}

/// Reusable scratch buffers for the marginal probes (one per greedy loop;
/// avoids an allocation per candidate).
#[derive(Clone, Debug, Default)]
pub struct DeltaScratch {
    targets: Vec<NodeId>,
    probs: Vec<f64>,
    q_new: Vec<f64>,
}

/// One holder's Table-I cost term, `Σ_j q_j · c_sc(target_j)` — the exact
/// expression `expected_sc_cost` accumulates per internal node.
fn local_cost(data: &NodeData, targets: &[NodeId], q: &[f64]) -> f64 {
    q.iter()
        .zip(targets.iter())
        .map(|(&qj, &v)| qj * data.sc_cost(v))
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::expected_sc_cost;
    use osn_graph::GraphBuilder;

    /// Example 1 tree.
    fn example1() -> (CsrGraph, NodeData) {
        let mut b = GraphBuilder::new(7);
        b.add_edge(0, 1, 0.6).unwrap();
        b.add_edge(0, 2, 0.4).unwrap();
        b.add_edge(1, 3, 0.5).unwrap();
        b.add_edge(1, 4, 0.4).unwrap();
        b.add_edge(2, 5, 0.8).unwrap();
        b.add_edge(2, 6, 0.7).unwrap();
        let mut seed_costs = vec![100.0; 7];
        seed_costs[0] = 0.0;
        (
            b.build().unwrap(),
            NodeData::new(vec![1.0; 7], seed_costs, vec![1.0; 7]).unwrap(),
        )
    }

    fn assert_engine_matches_evaluate(
        engine: &SpreadEngine<'_>,
        graph: &CsrGraph,
        data: &NodeData,
    ) {
        let fresh = SpreadState::evaluate(graph, data, engine.seeds(), engine.coupons());
        assert_eq!(engine.order(), &fresh.order[..], "order diverged");
        for i in 0..graph.node_count() {
            assert_eq!(
                engine.active_prob()[i].to_bits(),
                fresh.active_prob[i].to_bits(),
                "active_prob[{i}]"
            );
            assert_eq!(
                engine.subtree_gain()[i].to_bits(),
                fresh.subtree_gain[i].to_bits(),
                "subtree_gain[{i}]"
            );
        }
        assert_eq!(
            engine.expected_benefit().to_bits(),
            fresh.expected_benefit.to_bits(),
            "expected_benefit"
        );
        let sc = expected_sc_cost(graph, data, engine.seeds(), engine.coupons());
        assert_eq!(engine.sc_cost().to_bits(), sc.to_bits(), "sc_cost");
    }

    #[test]
    fn broaden_fast_path_matches_from_scratch() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let mut engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &k);
        assert_engine_matches_evaluate(&engine, &g, &d);
        let (added, delta) = engine.add_coupons(NodeId(0), 1);
        assert_eq!(added, 1);
        assert!(!delta.structural);
        assert_engine_matches_evaluate(&engine, &g, &d);
        assert_eq!(engine.counters().incremental_updates, 1);
    }

    #[test]
    fn deepen_and_seed_moves_match_from_scratch() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let mut engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &k);
        let (added, delta) = engine.add_coupons(NodeId(1), 1);
        assert_eq!(added, 1);
        assert!(delta.structural, "a first coupon grows the spread");
        assert_engine_matches_evaluate(&engine, &g, &d);
        engine.add_seed_package(NodeId(2), 1);
        assert_engine_matches_evaluate(&engine, &g, &d);
        let (removed, _) = engine.remove_coupons(NodeId(1), 1);
        assert_eq!(removed, 1);
        assert_engine_matches_evaluate(&engine, &g, &d);
    }

    #[test]
    fn probes_match_spread_state_deltas() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        k[1] = 1;
        let engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &k);
        let state = SpreadState::evaluate(&g, &d, &[NodeId(0)], &k);
        let mut scratch = DeltaScratch::default();
        for v in 0..7u32 {
            let (db_e, dc_e) = engine.coupon_add_delta(NodeId(v), &mut scratch);
            let (db_s, dc_s) = state.coupon_delta(&g, &d, NodeId(v), 1);
            assert_eq!(db_e.to_bits(), db_s.to_bits(), "ΔB at v{v}");
            assert_eq!(dc_e.to_bits(), dc_s.to_bits(), "ΔC at v{v}");
            let (rb_e, rc_e) = engine.coupon_removal_delta(NodeId(v), &mut scratch);
            let (rb_s, rc_s) = state.coupon_removal_delta(&g, &d, NodeId(v));
            assert_eq!(rb_e.to_bits(), rb_s.to_bits(), "removal ΔB at v{v}");
            assert_eq!(rc_e.to_bits(), rc_s.to_bits(), "removal ΔC at v{v}");
        }
    }

    #[test]
    fn rebuild_is_a_bitwise_no_op() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let mut engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &k);
        engine.add_coupons(NodeId(0), 1);
        engine.add_coupons(NodeId(1), 1);
        let before = engine.to_state();
        engine.rebuild();
        let after = engine.to_state();
        assert_eq!(before.order, after.order);
        for i in 0..7 {
            assert_eq!(
                before.active_prob[i].to_bits(),
                after.active_prob[i].to_bits()
            );
            assert_eq!(
                before.subtree_gain[i].to_bits(),
                after.subtree_gain[i].to_bits()
            );
        }
        assert_eq!(
            before.expected_benefit.to_bits(),
            after.expected_benefit.to_bits()
        );
        assert_eq!(engine.counters().full_rebuilds, 2);
    }

    fn digraph(n: usize, edges: &[(u32, u32, f64)]) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for &(u, v, p) in edges {
            b.add_edge(u, v, p).unwrap();
        }
        b.build().unwrap()
    }

    /// Non-uniform benefits, so a stale gain shows in the bits.
    fn ramp_data(n: usize) -> NodeData {
        let benefit = (0..n).map(|i| 1.0 + 0.37 * i as f64).collect();
        NodeData::new(benefit, vec![1.0; n], vec![0.5; n]).unwrap()
    }

    /// Apply one non-structural move and check all three refresh outcomes'
    /// shared contract: the state equals a from-scratch evaluation bit for
    /// bit, the delta is the exact bitwise diff and names exactly
    /// `probs`/`gains`, and the local path was (or was not) taken.
    fn check_move(
        engine: &mut SpreadEngine<'_>,
        graph: &CsrGraph,
        data: &NodeData,
        apply: impl FnOnce(&mut SpreadEngine<'_>) -> RefreshDelta,
        local: bool,
        probs: &[u32],
        gains: &[u32],
    ) {
        let before = engine.to_state();
        let locals = engine.counters().local_refreshes;
        let delta = apply(engine);
        let after = engine.to_state();
        assert_engine_matches_evaluate(engine, graph, data);
        let diff = |a: &[f64], b: &[f64]| -> Vec<NodeId> {
            (0..a.len())
                .filter(|&i| a[i].to_bits() != b[i].to_bits())
                .map(NodeId::from_index)
                .collect()
        };
        assert_eq!(
            delta.probs_changed,
            diff(&before.active_prob, &after.active_prob)
        );
        assert_eq!(
            delta.gains_changed,
            diff(&before.subtree_gain, &after.subtree_gain)
        );
        let ids = |v: &[u32]| v.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        assert_eq!(delta.probs_changed, ids(probs), "probs_changed");
        assert_eq!(delta.gains_changed, ids(gains), "gains_changed");
        assert!(!delta.structural);
        assert_eq!(
            engine.counters().local_refreshes - locals,
            u64::from(local),
            "refresh path"
        );
    }

    #[test]
    fn broadens_on_a_tree_take_the_local_path() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        k[1] = 1;
        let mut engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &k);
        assert!(engine.first_round_fixpoint);
        // A second coupon changes only the second-ranked child's q (v2);
        // only v0's own gain reads q_v0.
        let broaden_v0 = |e: &mut SpreadEngine<'_>| e.add_coupons(NodeId(0), 1).1;
        check_move(&mut engine, &g, &d, broaden_v0, true, &[2], &[0]);
        // v1's q reaches v4; its gain change climbs to v0.
        let broaden_v1 = |e: &mut SpreadEngine<'_>| e.add_coupons(NodeId(1), 1).1;
        check_move(&mut engine, &g, &d, broaden_v1, true, &[4], &[0, 1]);
        assert_eq!(engine.counters().local_refreshes, 2);

        // With v2 relaying, v0's broaden reaches v2's children through
        // v2's read probability.
        k[1] = 0;
        k[2] = 1;
        let mut engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &k);
        check_move(&mut engine, &g, &d, broaden_v0, true, &[2, 5, 6], &[0]);
    }

    #[test]
    fn local_broaden_then_one_that_breaks_first_round_convergence() {
        // s=0, a=1, b=2, c=3, d=4, e=5, f=6. With one coupon b almost
        // surely redeems at c, so b -> a barely moves a and one Jacobi
        // round converges; a second coupon makes the a <-> b cycle matter.
        let g = digraph(
            7,
            &[
                (0, 1, 0.9),
                (1, 2, 0.9),
                (2, 3, 1.0 - 1e-14),
                (2, 1, 0.9),
                (2, 4, 0.5),
                (4, 5, 0.6),
                (4, 6, 0.4),
            ],
        );
        let d = ramp_data(7);
        let mut engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &[1, 1, 1, 0, 1, 0, 0]);
        assert!(engine.first_round_fixpoint);
        // Broadening d re-folds b's gain, which must read a — an earlier
        // holder — at its own benefit, as the backward pass does.
        let broaden_d = |e: &mut SpreadEngine<'_>| e.add_coupons(NodeId(4), 1).1;
        check_move(&mut engine, &g, &d, broaden_d, true, &[6], &[0, 1, 2, 4]);
        assert!(engine.first_round_fixpoint);
        let broaden_b = |e: &mut SpreadEngine<'_>| e.add_coupons(NodeId(2), 1).1;
        check_move(
            &mut engine,
            &g,
            &d,
            broaden_b,
            false,
            &[1, 2, 3, 4, 5, 6],
            &[0, 1, 2],
        );
        assert!(!engine.first_round_fixpoint);
    }

    #[test]
    fn moves_from_an_unconverged_state_fall_back() {
        // s=0, a=1, b=2, c=3: the a <-> b cycle needs several rounds.
        let g = digraph(
            4,
            &[
                (0, 1, 0.9),
                (1, 2, 0.8),
                (1, 3, 0.7),
                (2, 1, 0.9),
                (2, 3, 0.6),
            ],
        );
        let d = ramp_data(4);
        let mut engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &[1, 1, 1, 0]);
        assert!(!engine.first_round_fixpoint);
        let broaden_a = |e: &mut SpreadEngine<'_>| e.add_coupons(NodeId(1), 1).1;
        check_move(&mut engine, &g, &d, broaden_a, false, &[3], &[0, 1]);
        let broaden_b = |e: &mut SpreadEngine<'_>| e.add_coupons(NodeId(2), 1).1;
        check_move(&mut engine, &g, &d, broaden_b, false, &[3], &[0, 1, 2]);
        let retrieve_a = |e: &mut SpreadEngine<'_>| e.remove_coupons(NodeId(1), 1).1;
        check_move(&mut engine, &g, &d, retrieve_a, false, &[3], &[0, 1]);
        assert_eq!(engine.counters().local_refreshes, 0);
    }

    #[test]
    fn marks_survive_generation_wrap_around() {
        let mut marks = Marks::default();
        marks.cover(2);
        // A stamp left from generation 1, about to be reused after a wrap.
        marks.stamp[1] = 1;
        marks.generation = u32::MAX;
        assert!(marks.insert(0));
        assert!(!marks.insert(0));
        marks.clear();
        assert_eq!(marks.generation, 1);
        assert!(marks.insert(0), "a pre-wrap stamp reads as marked");
        assert!(marks.insert(1), "a stale generation-1 stamp aliases");
    }

    #[test]
    fn caps_and_no_ops_report_empty_deltas() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 2;
        let mut engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &k);
        let (added, delta) = engine.add_coupons(NodeId(0), 5);
        assert_eq!(added, 0, "v0 is degree-capped");
        assert!(delta.probs_changed.is_empty() && delta.gains_changed.is_empty());
        let (removed, delta) = engine.remove_coupons(NodeId(3), 1);
        assert_eq!(removed, 0);
        assert!(!delta.structural);
        // Leaf nodes can hold no coupons at all.
        let (added, _) = engine.add_coupons(NodeId(3), 2);
        assert_eq!(added, 0);
        assert_engine_matches_evaluate(&engine, &g, &d);
    }
}
