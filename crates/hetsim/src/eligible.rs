//! The engine's eligibility index: each waiting node's eligible processors,
//! computed once.
//!
//! A policy that reports `Some(α)` through [`crate::Policy::alpha`] places a
//! ready node only inside its eligible set E(node)
//! ([`CostModel::eligible_mask`]). E reads only the locations of the node's
//! predecessors, which are fixed once the node is ready, so it changes only
//! when α does. The engine therefore computes E once per waiting node and
//! keeps, per processor, the number of ready nodes whose E contains it. With
//! the union of those sets in hand, one mask test (`union ∩ idle = ∅`) tells
//! the fixpoint that a `decide` call cannot assign anything.
//!
//! The index is lazy. A node made ready joins a *fresh* list and gets its E
//! only if it is still ready after the next `decide` round: most nodes are
//! placed in the round that first sees them and never need one. Masks are
//! dropped when a node leaves the ready set, and rebuilt for the whole
//! ready set when the policy's α changes (`set_alpha`, a roster switch). A
//! policy reporting `None` keeps no masks at all.

use crate::cost::CostModel;
use crate::ready::ReadySet;
use apt_base::ProcId;
use apt_dfg::{KernelDag, NodeId};

/// Per-node eligible sets of the ready nodes, their per-processor counts
/// and their union. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct EligibilityIndex {
    /// The α the masks were built with; `None` while the policy reports no
    /// α (then no mask is known).
    alpha: Option<f64>,
    /// E per node id, `0` while unknown. Only ready nodes carry a known
    /// mask. (A node no processor can run has E = ∅ and stays "unknown",
    /// which is harmless: it adds no bit to the union either way.)
    masks: Vec<u64>,
    /// Per processor: the number of ready nodes whose known E contains it.
    counts: Vec<u32>,
    /// Bit `p` ⇔ `counts[p] > 0`.
    union: u64,
    /// Nodes made ready since the last index pass (entries may have left
    /// the ready set since).
    fresh: Vec<NodeId>,
}

impl EligibilityIndex {
    /// An empty index for a machine of `nprocs` processors.
    pub(crate) fn new(nprocs: usize) -> Self {
        EligibilityIndex {
            counts: vec![0; nprocs],
            ..EligibilityIndex::default()
        }
    }

    /// Widen the node universe to `0..n` (no-op if already that wide).
    pub(crate) fn grow(&mut self, n: usize) {
        if self.masks.len() < n {
            self.masks.resize(n, 0);
        }
    }

    /// The per-node masks (`0` = unknown), for [`crate::SimView::eligible`].
    #[inline]
    pub(crate) fn masks(&self) -> &[u64] {
        &self.masks
    }

    /// The known eligible set of `node`, if any.
    #[inline]
    pub(crate) fn known(&self, node: NodeId) -> Option<u64> {
        match self.masks[node.index()] {
            0 => None,
            m => Some(m),
        }
    }

    /// `node` entered the ready set; it is indexed after the next round.
    #[inline]
    pub(crate) fn note_ready(&mut self, node: NodeId) {
        self.fresh.push(node);
    }

    /// `node` left the ready set (placed or cancelled): forget its mask.
    #[inline]
    pub(crate) fn forget(&mut self, node: NodeId) {
        let mut bits = self.masks[node.index()];
        if bits == 0 {
            return; // placed in the round that first saw it: never indexed
        }
        self.masks[node.index()] = 0;
        while bits != 0 {
            let p = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.counts[p] -= 1;
            if self.counts[p] == 0 {
                self.union &= !(1 << p);
            }
        }
    }

    /// Bring the index in line with the policy's current α: when it differs
    /// from the α the masks were built with, every known mask is dropped and
    /// the whole ready set is queued for indexing under the new value.
    /// Returns `true` when the index was already current.
    #[inline]
    pub(crate) fn sync(&mut self, alpha: Option<f64>, ready: &ReadySet) -> bool {
        if alpha == self.alpha {
            return true;
        }
        self.rebuild(alpha, ready);
        false
    }

    #[cold]
    #[inline(never)]
    fn rebuild(&mut self, alpha: Option<f64>, ready: &ReadySet) {
        for node in ready.iter() {
            self.masks[node.index()] = 0;
        }
        self.counts.fill(0);
        self.union = 0;
        self.fresh.clear();
        if alpha.is_some() {
            self.fresh.extend(ready.iter());
        }
        self.alpha = alpha;
    }

    /// True when a `decide` call can assign nothing: the policy reports an
    /// α (so it honours the eligibility contract), every ready node is
    /// indexed, and no ready node's E meets the idle set. Call after
    /// [`EligibilityIndex::sync`].
    #[inline]
    pub(crate) fn blocked(&self, idle_mask: u64) -> bool {
        self.alpha.is_some() && self.fresh.is_empty() && self.union & idle_mask == 0
    }

    /// After a `decide` round: compute E for every fresh node still ready.
    /// Without an α this only empties the fresh list.
    #[inline]
    pub(crate) fn index_fresh(
        &mut self,
        cost: &CostModel,
        dfg: &KernelDag,
        locations: &[Option<ProcId>],
        ready: &ReadySet,
    ) {
        if ready.is_empty() {
            // Every fresh node was placed (the common case).
            self.fresh.clear();
        } else if !self.fresh.is_empty() {
            self.index_fresh_nodes(cost, dfg, locations, ready);
        }
    }

    #[inline(never)]
    fn index_fresh_nodes(
        &mut self,
        cost: &CostModel,
        dfg: &KernelDag,
        locations: &[Option<ProcId>],
        ready: &ReadySet,
    ) {
        let Some(alpha) = self.alpha else {
            self.fresh.clear();
            return;
        };
        for i in 0..self.fresh.len() {
            let node = self.fresh[i];
            if !ready.contains(node) || self.masks[node.index()] != 0 {
                continue;
            }
            let mask = cost.eligible_mask(dfg, locations, node, alpha);
            self.masks[node.index()] = mask;
            self.union |= mask;
            let mut bits = mask;
            while bits != 0 {
                self.counts[bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
        }
        self.fresh.clear();
    }

    /// Drop the fresh list (the ready set emptied before a round ran).
    #[inline]
    pub(crate) fn clear_fresh(&mut self) {
        self.fresh.clear();
    }
}
